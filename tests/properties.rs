//! Property-based integration tests over the decoder stack.

use promatch_repro::astrea::{AstreaDecoder, AstreaGDecoder};
use promatch_repro::decoding_graph::{
    DecodeWorkspace, Decoder, DecodingGraph, LayerMap, MatchTarget, PathTable, Predecoder,
    SeamPolicy, WindowContext,
};
use promatch_repro::ler::{build_decoder, DecoderKind, ExperimentContext, InjectionSampler};
use promatch_repro::mwpm::MwpmDecoder;
use promatch_repro::promatch::PromatchPredecoder;
use promatch_repro::qsim::dem::{DemError, DetectorErrorModel};
use promatch_repro::qsim::sparse::SparseBits;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// One shared context: building it per proptest case would dominate.
fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::new(5, 1e-3))
}

/// The d = 7 twin of [`ctx`].
fn ctx7() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::new(7, 1e-3))
}

/// `hw` distinct detectors of an `nd`-detector graph, sorted.
fn random_defects(rng: &mut StdRng, nd: usize, hw: usize) -> Vec<u32> {
    let mut pool: Vec<u32> = (0..nd as u32).collect();
    for i in 0..hw {
        let j = rng.gen_range(i..nd);
        pool.swap(i, j);
    }
    pool.truncate(hw);
    pool.sort_unstable();
    pool
}

/// A syndrome of at most `max_hw` defects: scattered detectors on even
/// seeds, the (clustered, tie-rich) symptom of injected mechanisms on
/// odd ones.
fn mixed_syndrome(ctx: &ExperimentContext, rng: &mut StdRng, max_hw: usize) -> Vec<u32> {
    let hw = rng.gen_range(0..=max_hw);
    if rng.gen_bool(0.5) {
        return random_defects(rng, ctx.graph.num_detectors() as usize, hw);
    }
    let (shot, _) = InjectionSampler::new(&ctx.dem).sample_exact_k(rng, hw / 2);
    shot.dets
}

/// Two components with uniform weights (so minimum-weight matchings tie
/// constantly): detectors 0–5 reach the boundary, detectors 6–11 form a
/// ring that does not, so pairs across the two are unreachable and an
/// odd number of ring defects has no matching at all. A few edges carry
/// the observable, so tied matchings differ in `obs_flip`.
fn split_graph() -> &'static (DecodingGraph, PathTable) {
    static GRAPH: OnceLock<(DecodingGraph, PathTable)> = OnceLock::new();
    GRAPH.get_or_init(|| {
        let edge = |dets: Vec<u32>, obs: u64| DemError {
            dets: SparseBits::from_sorted(dets),
            obs,
            p: 0.01,
        };
        let errors = vec![
            edge(vec![0], 1),
            edge(vec![5], 0),
            edge(vec![0, 1], 0),
            edge(vec![1, 2], 1),
            edge(vec![2, 3], 0),
            edge(vec![3, 4], 0),
            edge(vec![4, 5], 0),
            edge(vec![0, 2], 0),
            edge(vec![3, 5], 1),
            edge(vec![6, 7], 0),
            edge(vec![7, 8], 0),
            edge(vec![8, 9], 1),
            edge(vec![9, 10], 0),
            edge(vec![10, 11], 0),
            edge(vec![6, 11], 0),
        ];
        let graph = DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: 12,
            num_observables: 1,
            errors,
            det_coords: vec![[0.0; 3]; 12],
        });
        let paths = PathTable::build(&graph);
        (graph, paths)
    })
}

/// The searches `astrea` ran before its solves were restructured (the
/// tail cut in Astrea-G, the subset table in Astrea), kept as they were:
/// the oracles the differential properties below compare against.
mod reference {
    use promatch_repro::astrea::CYCLE_NS;
    use promatch_repro::decoding_graph::latency::TIME_BUDGET_NS;
    use promatch_repro::decoding_graph::{
        DecodeOutcome, DecodingGraph, DetectorId, MatchPair, MatchTarget, PathTable,
    };

    const BOUNDARY: usize = usize::MAX;
    const UNSET: usize = usize::MAX - 1;

    /// Astrea-G's hardware: 84 match units for the 240 cycles of the
    /// 960 ns budget, pruning chains less likely than 1e-13.
    const STATES_PER_CYCLE: u32 = 84;
    const STATE_BUDGET: u32 = 240 * STATES_PER_CYCLE;
    const PRUNE_PROBABILITY: f64 = 1e-13;

    /// The matches and observable flips of a complete partner vector.
    fn solution(
        paths: &PathTable,
        dets: &[DetectorId],
        partner: &[usize],
    ) -> (u64, Vec<MatchPair>) {
        let mut obs = 0u64;
        let mut matches = Vec::new();
        for (i, &p) in partner.iter().enumerate() {
            if p == BOUNDARY {
                obs ^= paths.boundary_obs(dets[i]);
                matches.push(MatchPair {
                    a: dets[i],
                    b: MatchTarget::Boundary,
                });
            } else if i < p {
                obs ^= paths.path_obs(dets[i], dets[p]);
                matches.push(MatchPair {
                    a: dets[i],
                    b: MatchTarget::Detector(dets[p]),
                });
            }
        }
        (obs, matches)
    }

    struct GreedySearch {
        /// Partner options per bit, sorted by weight.
        options: Vec<Vec<(i64, usize)>>,
        states: u32,
        budget: u32,
        best: i64,
        best_partner: Vec<usize>,
    }

    impl GreedySearch {
        fn dfs(&mut self, partner: &mut [usize], acc: i64) {
            if self.states >= self.budget || acc >= self.best {
                return;
            }
            let Some(i) = partner.iter().position(|&p| p == UNSET) else {
                self.best = acc;
                self.best_partner.copy_from_slice(partner);
                return;
            };
            for at in 0..self.options[i].len() {
                if self.states >= self.budget {
                    break;
                }
                self.states += 1;
                let (w, j) = self.options[i][at];
                if j == BOUNDARY {
                    partner[i] = BOUNDARY;
                    self.dfs(partner, acc + w);
                } else if partner[j] == UNSET {
                    partner[i] = j;
                    partner[j] = i;
                    self.dfs(partner, acc + w);
                    partner[j] = UNSET;
                }
            }
            partner[i] = UNSET;
        }
    }

    /// Astrea-G as a plain recursion: every option costs a state and a
    /// call, and the bound is only tested on entry.
    pub fn astrea_g(paths: &PathTable, dets: &[DetectorId]) -> DecodeOutcome {
        let k = dets.len();
        let prune_weight = DecodingGraph::weight_of_probability(PRUNE_PROBABILITY);
        let options = (0..k)
            .map(|i| {
                let mut opts: Vec<(i64, usize)> = (0..k)
                    .filter(|&j| j != i)
                    .map(|j| (paths.distance(dets[i], dets[j]), j))
                    .filter(|&(d, _)| d != i64::MAX && d <= prune_weight)
                    .collect();
                let bd = paths.boundary_distance(dets[i]);
                if bd != i64::MAX {
                    opts.push((bd, BOUNDARY));
                }
                opts.sort_unstable();
                opts
            })
            .collect();
        let mut search = GreedySearch {
            options,
            states: 0,
            budget: STATE_BUDGET,
            best: i64::MAX,
            best_partner: vec![UNSET; k],
        };
        search.dfs(&mut vec![UNSET; k], 0);
        if k > 0 && search.best == i64::MAX {
            return DecodeOutcome {
                latency_ns: Some(TIME_BUDGET_NS),
                ..DecodeOutcome::failure()
            };
        }
        let (obs_flip, matches) = solution(paths, dets, &search.best_partner);
        let cycles = search.states.div_ceil(STATES_PER_CYCLE);
        DecodeOutcome {
            obs_flip,
            weight: Some(search.best),
            latency_ns: Some((cycles as f64 * CYCLE_NS).min(TIME_BUDGET_NS)),
            failed: false,
            matches,
        }
    }

    /// Astrea as the enumeration it models: every pairing of the flipped
    /// bits in (boundary, ascending partner) order per lowest free bit,
    /// keeping the first of minimum weight. `None` when no complete
    /// matching exists.
    pub fn astrea(paths: &PathTable, dets: &[DetectorId]) -> Option<(i64, u64, Vec<MatchPair>)> {
        fn rec(
            paths: &PathTable,
            dets: &[DetectorId],
            partner: &mut [usize],
            acc: i64,
            best: &mut i64,
            best_partner: &mut [usize],
        ) {
            if acc >= *best {
                return;
            }
            let Some(i) = partner.iter().position(|&p| p == UNSET) else {
                *best = acc;
                best_partner.copy_from_slice(partner);
                return;
            };
            let bd = paths.boundary_distance(dets[i]);
            if bd != i64::MAX {
                partner[i] = BOUNDARY;
                rec(paths, dets, partner, acc + bd, best, best_partner);
            }
            for j in (i + 1)..dets.len() {
                let d = paths.distance(dets[i], dets[j]);
                if partner[j] == UNSET && d != i64::MAX {
                    partner[i] = j;
                    partner[j] = i;
                    rec(paths, dets, partner, acc + d, best, best_partner);
                    partner[j] = UNSET;
                }
            }
            partner[i] = UNSET;
        }
        let mut best = i64::MAX;
        let mut best_partner = vec![UNSET; dets.len()];
        let partner = &mut vec![UNSET; dets.len()];
        rec(paths, dets, partner, 0, &mut best, &mut best_partner);
        (best != i64::MAX).then(|| {
            let (obs, matches) = solution(paths, dets, &best_partner);
            (best, obs, matches)
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Promatch's coverage guarantee: whatever mechanisms fire, the
    /// remainder fits Astrea unless the predecoder reports an abort.
    #[test]
    fn promatch_coverage_holds_for_any_mechanism_set(seed in any::<u64>(), k in 1usize..24) {
        let ctx = ctx();
        let sampler = InjectionSampler::new(&ctx.dem);
        let mut rng = StdRng::seed_from_u64(seed);
        let (shot, _) = sampler.sample_exact_k(&mut rng, k.min(ctx.dem.errors.len()));
        let mut pm = PromatchPredecoder::new(&ctx.graph, ctx.paths());
        let out = pm.predecode(&shot.dets);
        if !out.aborted && shot.dets.len() > 10 {
            prop_assert!(out.remaining.len() <= 10);
        }
        // Pairs + remainder partition the syndrome.
        let mut all: Vec<u32> = out
            .pairs
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .chain(out.remaining.iter().copied())
            .collect();
        all.sort_unstable();
        if !out.aborted {
            prop_assert_eq!(all, shot.dets);
        }
    }

    /// Every decoder returns a matching that covers the syndrome exactly
    /// (when it reports matches at all), and never panics.
    #[test]
    fn decoders_partition_arbitrary_syndromes(seed in any::<u64>(), k in 1usize..16) {
        let ctx = ctx();
        let sampler = InjectionSampler::new(&ctx.dem);
        let mut rng = StdRng::seed_from_u64(seed);
        let (shot, _) = sampler.sample_exact_k(&mut rng, k);
        for kind in [DecoderKind::Mwpm, DecoderKind::PromatchAstrea, DecoderKind::AstreaG] {
            let mut dec = ctx.decoder(kind);
            let out = dec.decode(&shot.dets);
            if out.failed || out.matches.is_empty() {
                continue;
            }
            let mut covered: Vec<u32> = Vec::new();
            for m in &out.matches {
                covered.push(m.a);
                if let MatchTarget::Detector(b) = m.b {
                    covered.push(b);
                }
            }
            covered.sort_unstable();
            prop_assert_eq!(covered, shot.dets.clone(), "{}", kind.label());
        }
    }

    /// MWPM solution weight is a lower bound on every other decoder's.
    #[test]
    fn mwpm_weight_is_minimal(seed in any::<u64>(), k in 1usize..14) {
        let ctx = ctx();
        let sampler = InjectionSampler::new(&ctx.dem);
        let mut rng = StdRng::seed_from_u64(seed);
        let (shot, _) = sampler.sample_exact_k(&mut rng, k);
        let mut mwpm = ctx.decoder(DecoderKind::Mwpm);
        let base = mwpm.decode(&shot.dets).weight.unwrap();
        for kind in [DecoderKind::AstreaG, DecoderKind::PromatchAstrea] {
            let mut dec = ctx.decoder(kind);
            let out = dec.decode(&shot.dets);
            if let (false, Some(w)) = (out.failed, out.weight) {
                prop_assert!(w >= base, "{} found weight {w} < MWPM {base}", kind.label());
            }
        }
    }

    /// Workspace reuse is invisible: a long-lived decoder that has been
    /// streaming shots through its reusable workspaces returns a
    /// `DecodeOutcome` bit-identical to a fresh decoder built per shot,
    /// for every decoder configuration in Table 2.
    #[test]
    fn workspace_reuse_matches_fresh_decoders(seed in any::<u64>(), k in 1usize..20) {
        let ctx = ctx();
        let sampler = InjectionSampler::new(&ctx.dem);
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in DecoderKind::table2() {
            let mut long_lived = ctx.decoder(kind);
            // Several shots of varying weight, so the persistent buffers
            // grow, shrink, and carry state between calls.
            for _ in 0..4 {
                let kk = rng.gen_range(1..=k);
                let (shot, _) = sampler.sample_exact_k(&mut rng, kk);
                let reused = long_lived.decode(&shot.dets);
                let fresh = ctx.decoder(kind).decode(&shot.dets);
                prop_assert_eq!(reused, fresh, "{} at k={}", kind.label(), kk);
            }
        }
    }

    /// The tail cut is invisible: Astrea-G returns the outcome of the
    /// plain recursive search — weight, matches, observable flips and
    /// the state count behind `latency_ns` — at every Hamming weight,
    /// also where the search runs out of its 20 160 states mid-tail
    /// (most cases above HW 16).
    #[test]
    fn tail_cut_astrea_g_matches_the_recursive_search(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = if rng.gen_bool(0.5) { ctx() } else { ctx7() };
        let dets = mixed_syndrome(ctx, &mut rng, 40);
        let got = AstreaGDecoder::new(&ctx.graph, ctx.paths()).decode(&dets);
        let want = reference::astrea_g(ctx.paths(), &dets);
        prop_assert_eq!(got, want, "d={} {:?}", ctx.distance, dets);
    }

    /// The subset table is invisible: Astrea returns the first
    /// minimum-weight pairing of the enumeration it models, on code
    /// graphs and on a graph with unreachable pairs, boundary-less
    /// defects and constant weight ties.
    #[test]
    fn subset_astrea_matches_the_pairing_enumeration(seed in any::<u64>(), hw in 0usize..=10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (split, split_paths) = split_graph();
        let split_dets = random_defects(&mut rng, 12, hw);
        let code_dets = {
            let mut dets = mixed_syndrome(ctx(), &mut rng, 10);
            dets.truncate(hw);
            dets
        };
        for (graph, paths, dets) in [
            (split, split_paths, split_dets),
            (&ctx().graph, ctx().paths(), code_dets),
        ] {
            let got = AstreaDecoder::new(graph, paths).decode(&dets);
            match reference::astrea(paths, &dets) {
                None => prop_assert!(got.failed, "{:?}", dets),
                Some((weight, obs_flip, matches)) => {
                    prop_assert!(!got.failed, "{:?}", dets);
                    prop_assert_eq!(
                        (got.weight, got.obs_flip, got.matches),
                        (Some(weight), obs_flip, matches),
                        "{:?}", dets
                    );
                }
            }
        }
    }

    /// The parallel composition never does worse than its better branch
    /// in solution weight.
    #[test]
    fn parallel_combiner_takes_the_better_weight(seed in any::<u64>(), k in 1usize..14) {
        let ctx = ctx();
        let sampler = InjectionSampler::new(&ctx.dem);
        let mut rng = StdRng::seed_from_u64(seed);
        let (shot, _) = sampler.sample_exact_k(&mut rng, k);
        let mut par = ctx.decoder(DecoderKind::PromatchParAg);
        let mut pa = ctx.decoder(DecoderKind::PromatchAstrea);
        let mut ag = ctx.decoder(DecoderKind::AstreaG);
        let combined = par.decode(&shot.dets);
        let a = pa.decode(&shot.dets);
        let b = ag.decode(&shot.dets);
        if combined.failed {
            prop_assert!(a.failed && b.failed);
        } else {
            let best = [&a, &b]
                .iter()
                .filter(|o| !o.failed)
                .filter_map(|o| o.weight)
                .min()
                .unwrap();
            prop_assert_eq!(combined.weight.unwrap(), best);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Lending is invisible: one workspace, handed to a new decoder per
    /// syndrome across the windows of several graphs (as the window
    /// engine does), yields what a fresh decoder on its own scratch
    /// does, for every decoder configuration in Table 2 — 8 × 25
    /// syndromes through the same workspace per configuration.
    #[test]
    fn lent_workspace_matches_fresh_decoders(seed in any::<u64>()) {
        static WINDOWS: OnceLock<Vec<WindowContext>> = OnceLock::new();
        let windows = WINDOWS.get_or_init(|| {
            let window = |ctx: &ExperimentContext, lo, hi| {
                let layers = LayerMap::from_graph(&ctx.graph).unwrap();
                WindowContext::build(&ctx.graph, layers.det_range(lo, hi), SeamPolicy::Cut)
            };
            vec![
                window(ctx(), 0, 3),
                window(ctx(), 1, 5),
                window(ctx(), 0, 6),
                window(ctx7(), 2, 6),
            ]
        });
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in DecoderKind::table2() {
            let mut ws = DecodeWorkspace::new();
            for _ in 0..25 {
                let win = &windows[rng.gen_range(0..windows.len())];
                let hw = rng.gen_range(0..=24);
                let dets = random_defects(&mut rng, win.graph().num_detectors() as usize, hw);
                let lent = build_decoder(kind, win.graph(), win.paths()).decode_with(&dets, &mut ws);
                let fresh = build_decoder(kind, win.graph(), win.paths()).decode(&dets);
                prop_assert_eq!(lent, fresh, "{} {:?}", kind.label(), dets);
            }
        }
    }
}

/// ROADMAP item 6(c): blossom and Astrea are two exact solvers of one
/// problem, so their weights agree on *every* defect set — all 14 893
/// subsets of up to six of the d = 3 graph's detectors, and 2 000 seeded
/// subsets of up to ten at d = 5.
#[test]
fn astrea_weight_equals_blossom_on_small_defect_sets() {
    fn agree(mwpm: &mut MwpmDecoder<'_>, astrea: &mut AstreaDecoder<'_>, dets: &[u32]) {
        let (m, a) = (mwpm.decode(dets), astrea.decode(dets));
        assert!(!m.failed && !a.failed, "{dets:?}");
        assert_eq!(m.weight, a.weight, "{dets:?}");
    }
    /// Every subset of `next..nd` of at most `room` more detectors.
    fn subsets(
        next: u32,
        nd: u32,
        room: usize,
        dets: &mut Vec<u32>,
        visit: &mut impl FnMut(&[u32]),
    ) {
        visit(dets);
        if room == 0 {
            return;
        }
        for d in next..nd {
            dets.push(d);
            subsets(d + 1, nd, room - 1, dets, visit);
            dets.pop();
        }
    }
    let d3 = ExperimentContext::new(3, 1e-3);
    let mut mwpm = MwpmDecoder::new(&d3.graph, d3.paths());
    let mut astrea = AstreaDecoder::new(&d3.graph, d3.paths());
    let mut visited = 0;
    subsets(
        0,
        d3.graph.num_detectors(),
        6,
        &mut Vec::new(),
        &mut |dets| {
            agree(&mut mwpm, &mut astrea, dets);
            visited += 1;
        },
    );
    assert_eq!(visited, 14_893);

    let d5 = ctx();
    let mut mwpm = MwpmDecoder::new(&d5.graph, d5.paths());
    let mut astrea = AstreaDecoder::new(&d5.graph, d5.paths());
    let mut rng = StdRng::seed_from_u64(0x0006_000C);
    for _ in 0..2000 {
        let hw = rng.gen_range(0..=10);
        let dets = random_defects(&mut rng, d5.graph.num_detectors() as usize, hw);
        agree(&mut mwpm, &mut astrea, &dets);
    }
}
