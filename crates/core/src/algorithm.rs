//! Algorithm 1: the Promatch adaptive predecoding loop.

use astrea::AstreaLatencyModel;
use decoding_graph::latency::{CYCLE_NS, TIME_BUDGET_NS};
use decoding_graph::{
    DecodeWorkspace, DecodingGraph, DetectorId, PathTable, PredecodeOutcome, Predecoder,
    SubgraphState,
};

/// Which singleton-creation test drives candidate classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SingletonRule {
    /// The Figure 11 hardware logic based on `deg` / `#dependent`
    /// counters (default; misses the rare degree-2 double-orphan case).
    HardwareApprox,
    /// A full set-membership test (used by the ablation study).
    Exact,
}

/// Which weights Step 3 reads from the path table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathMetric {
    /// 2-bit quantized weight classes, as stored on-chip (Table 8).
    Quantized,
    /// Exact shortest-path weights (ablation).
    Exact,
}

/// The algorithm step that produced a prematch (for Table 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Step {
    /// Isolated pairs.
    Step1,
    /// Singleton-safe neighbor match (2.1: a degree-1 endpoint; 2.2:
    /// lowest weight).
    Step2,
    /// Singleton rescue through the path table.
    Step3,
    /// Risky match that creates singletons (4.1 / 4.2).
    Step4,
}

/// Configuration of the Promatch predecoder.
///
/// Predecode plus main decode must fit the 960 ns
/// [`TIME_BUDGET_NS`](decoding_graph::latency::TIME_BUDGET_NS), with the
/// main decoder's time read from Astrea's default
/// [`AstreaLatencyModel`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PromatchConfig {
    /// Singleton test variant.
    pub singleton_rule: SingletonRule,
    /// Step 3 path-weight source.
    pub path_metric: PathMetric,
    /// Hamming-weight stopping targets, descending (the paper's
    /// {10, 8, 6}).
    pub hw_targets: [usize; 3],
    /// Maximum Hamming weight of the main decoder ([`astrea::MAX_HW`]).
    pub main_max_hw: usize,
    /// Number of edge-processing pipelines running in parallel. §6.4
    /// notes the predecoder is light enough to replicate; each round then
    /// costs ⌈edges / pipelines⌉ cycles.
    pub parallel_pipelines: u32,
}

impl Default for PromatchConfig {
    fn default() -> Self {
        PromatchConfig {
            singleton_rule: SingletonRule::HardwareApprox,
            path_metric: PathMetric::Quantized,
            hw_targets: [astrea::MAX_HW, 8, 6],
            main_max_hw: astrea::MAX_HW,
            parallel_pipelines: 1,
        }
    }
}

/// Per-shot statistics (Table 6 and Tables 4/5 are built from these).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PromatchStats {
    /// Highest-priority step index that was exercised (None if nothing
    /// was prematched).
    pub highest_step: Option<Step>,
    /// Predecoding rounds (outer-loop iterations).
    pub rounds: u32,
    /// Modeled pipeline cycles consumed.
    pub cycles: u64,
    /// Predecoding latency in nanoseconds (cycles × 4 ns).
    pub predecode_ns: f64,
    /// Number of prematched pairs.
    pub pairs: usize,
    /// Whether the predecoder aborted (budget exhausted / stuck).
    pub aborted: bool,
}

/// The Promatch predecoder (Algorithm 1).
///
/// Owns a persistent workspace (subgraph state, scan scratch, result
/// lists); a long-lived predecoder rebuilds them in place per shot
/// instead of reallocating.
#[derive(Clone, Debug)]
pub struct PromatchPredecoder<'a> {
    graph: &'a DecodingGraph,
    paths: &'a PathTable,
    config: PromatchConfig,
    last_stats: PromatchStats,
    /// Scratch for [`Predecoder::predecode`]; allocated by the first
    /// call, so a predecoder that only ever borrows a workspace carries a
    /// pointer.
    pub(crate) ws: Option<Box<DecodeWorkspace>>,
}

#[derive(Clone, Copy, Debug)]
struct Candidate {
    i: usize,
    j: usize,
    /// Decision weight (edge weight, or [possibly quantized] path weight
    /// for Step 3).
    weight: i64,
}

impl<'a> PromatchPredecoder<'a> {
    /// Creates a Promatch predecoder with the default configuration.
    pub fn new(graph: &'a DecodingGraph, paths: &'a PathTable) -> Self {
        Self::with_config(graph, paths, PromatchConfig::default())
    }

    /// Creates a Promatch predecoder with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `paths` does not match `graph`.
    pub fn with_config(
        graph: &'a DecodingGraph,
        paths: &'a PathTable,
        config: PromatchConfig,
    ) -> Self {
        assert_eq!(paths.num_detectors(), graph.num_detectors() as usize);
        assert!(
            config.parallel_pipelines >= 1,
            "at least one pipeline required"
        );
        PromatchPredecoder {
            graph,
            paths,
            config,
            last_stats: PromatchStats::default(),
            ws: None,
        }
    }

    /// Cycles to scan `work` items through the replicated pipelines.
    fn scan_cycles(&self, work: usize) -> u64 {
        (work.max(1) as u64).div_ceil(self.config.parallel_pipelines as u64)
    }

    /// Statistics of the most recent [`Predecoder::predecode`] call.
    pub fn last_stats(&self) -> &PromatchStats {
        &self.last_stats
    }

    /// The largest stopping target affordable after `elapsed_ns` of
    /// predecoding, or `None` if not even the smallest fits.
    fn affordable_target(&self, elapsed_ns: f64) -> Option<usize> {
        let remaining = TIME_BUDGET_NS - elapsed_ns;
        let main = AstreaLatencyModel::default();
        self.config
            .hw_targets
            .iter()
            .copied()
            .find(|&t| t <= self.config.main_max_hw && main.latency_ns(t) <= remaining)
    }

    fn no_singleton(&self, st: &SubgraphState, i: usize, j: usize) -> bool {
        match self.config.singleton_rule {
            SingletonRule::HardwareApprox => st.no_singleton_hw(i, j),
            SingletonRule::Exact => st.no_singleton_exact(i, j),
        }
    }

    fn step3_weight(&self, a: DetectorId, b: DetectorId) -> i64 {
        match self.config.path_metric {
            PathMetric::Quantized => self.paths.quantized_distance(a, b),
            PathMetric::Exact => self.paths.distance(a, b),
        }
    }

    /// Algorithm 1 on `ws`: leaves the prematched pairs in `ws.pairs`
    /// and the detectors still to decode in `ws.remaining`, and returns
    /// the observable flips and total weight of the pairs. After an
    /// abort all of that is empty / zero. Latency and the abort flag are
    /// in [`PromatchPredecoder::last_stats`].
    pub(crate) fn predecode_with(
        &mut self,
        dets: &[DetectorId],
        ws: &mut DecodeWorkspace,
    ) -> (u64, i64) {
        let st = &mut ws.subgraph;
        let isolated = &mut ws.slot_pairs;
        let pairs = &mut ws.pairs;
        st.rebuild(self.graph, dets);
        pairs.clear();
        ws.remaining.clear();
        let mut stats = PromatchStats::default();
        let mut obs = 0u64;
        let mut weight = 0i64;

        let note_step = |stats: &mut PromatchStats, step: Step| {
            stats.highest_step = Some(match stats.highest_step {
                None => step,
                Some(prev) => prev.max(step),
            });
        };

        loop {
            let elapsed = stats.cycles as f64 * CYCLE_NS;
            // Done as soon as the remainder fits an affordable target.
            let round_target = match self.affordable_target(elapsed) {
                Some(target) if st.hw() <= target => break,
                Some(target) => target,
                None => {
                    stats.aborted = true;
                    break;
                }
            };
            if elapsed >= TIME_BUDGET_NS {
                stats.aborted = true;
                break;
            }

            stats.rounds += 1;
            let edges_now = st.live_edges();

            // --- One pipeline pass over the live edges (Figure 10). ---
            isolated.clear();
            let mut c21: Option<Candidate> = None;
            let mut c22: Option<Candidate> = None;
            let mut c41: Option<Candidate> = None;
            let mut c42: Option<Candidate> = None;
            let consider = |slot: &mut Option<Candidate>, cand: Candidate| {
                if slot.is_none_or(|cur| cand.weight < cur.weight) {
                    *slot = Some(cand);
                }
            };
            for i in st.live_slots() {
                for n in st.live_neighbors(i) {
                    let j = n.slot;
                    if j <= i {
                        continue;
                    }
                    let cand = Candidate {
                        i,
                        j,
                        weight: n.weight,
                    };
                    if st.deg(i) == 1 && st.deg(j) == 1 {
                        isolated.push((i, j));
                        continue;
                    }
                    let min_deg_one = st.deg(i).min(st.deg(j)) == 1;
                    if self.no_singleton(st, i, j) {
                        if min_deg_one {
                            consider(&mut c21, cand);
                        } else {
                            consider(&mut c22, cand);
                        }
                    } else if min_deg_one {
                        consider(&mut c41, cand);
                    } else {
                        consider(&mut c42, cand);
                    }
                }
            }

            // --- Step 1: match isolated pairs, stopping once the Hamming
            // weight reaches the affordable target (Algorithm 1 re-checks
            // "HW is not low enough" between matches: predecoding past the
            // target would underutilize the exact main decoder, §2.6).
            if !isolated.is_empty() {
                stats.cycles += self.scan_cycles(edges_now);
                for &(i, j) in isolated.iter() {
                    if st.hw() <= round_target {
                        break;
                    }
                    if !(st.is_alive(i) && st.is_alive(j)) {
                        continue;
                    }
                    let nbr = *st
                        .neighbors(i)
                        .iter()
                        .find(|n| n.slot == j)
                        .expect("isolated pair edge");
                    st.remove_pair(i, j);
                    pairs.push((st.node(i), st.node(j)));
                    obs ^= nbr.obs;
                    weight += nbr.weight;
                }
                note_step(&mut stats, Step::Step1);
                continue;
            }

            // --- Step 3 scan: only when Step 2 has no candidates and a
            // singleton exists. ---
            let mut c3: Option<Candidate> = None;
            let mut step3_paths = 0usize;
            if c21.is_none() && c22.is_none() {
                for j in st.singleton_slots() {
                    for i in st.live_slots() {
                        if i == j {
                            continue;
                        }
                        step3_paths += 1;
                        // Removing i must not orphan i's dependents;
                        // removing a singleton orphans nobody.
                        if st.dependents(i) != 0 {
                            continue;
                        }
                        let w = self.step3_weight(st.node(i), st.node(j));
                        if w == i64::MAX {
                            continue;
                        }
                        consider(
                            &mut c3,
                            Candidate {
                                i: i.min(j),
                                j: i.max(j),
                                weight: w,
                            },
                        );
                    }
                }
            }

            // Charge this round's cycles (§6.4: Step-3 rounds cost the
            // larger of the path count and the edge count).
            stats.cycles += if step3_paths > 0 {
                self.scan_cycles(step3_paths.max(edges_now))
            } else {
                self.scan_cycles(edges_now)
            };

            // --- Match exactly one candidate, in priority order. ---
            let (cand, step) = if let Some(c) = c21 {
                (c, Step::Step2)
            } else if let Some(c) = c22 {
                (c, Step::Step2)
            } else if let Some(c) = c3 {
                (c, Step::Step3)
            } else if let Some(c) = c41 {
                (c, Step::Step4)
            } else if let Some(c) = c42 {
                (c, Step::Step4)
            } else {
                // No candidates at all (all-singleton subgraphs are
                // handled by Step 3, so this means a genuinely stuck
                // state).
                stats.aborted = true;
                break;
            };

            let (a, b) = (st.node(cand.i), st.node(cand.j));
            let (pair_obs, pair_weight) = if step == Step::Step3 {
                // Step-3 corrections run along the shortest path; the
                // applied correction uses exact path data even when the
                // decision used quantized weights.
                (self.paths.path_obs(a, b), self.paths.distance(a, b))
            } else {
                let nbr = *st
                    .neighbors(cand.i)
                    .iter()
                    .find(|n| n.slot == cand.j)
                    .expect("candidate edge");
                (nbr.obs, nbr.weight)
            };
            st.remove_pair(cand.i, cand.j);
            pairs.push((a, b));
            obs ^= pair_obs;
            weight += pair_weight;
            note_step(&mut stats, step);
        }

        stats.pairs = pairs.len();
        stats.predecode_ns = stats.cycles as f64 * CYCLE_NS;
        self.last_stats = stats;
        if stats.aborted {
            pairs.clear();
            return (0, 0);
        }
        ws.remaining.extend(st.live_slots().map(|i| st.node(i)));
        (obs, weight)
    }
}

impl Predecoder for PromatchPredecoder<'_> {
    fn predecode(&mut self, dets: &[DetectorId]) -> PredecodeOutcome {
        let mut ws = self.ws.take().unwrap_or_default();
        let (obs_flip, weight) = self.predecode_with(dets, &mut ws);
        let aborted = self.last_stats.aborted;
        let out = PredecodeOutcome {
            // An abort forwards the syndrome unmodified.
            remaining: if aborted { dets } else { &ws.remaining[..] }.to_vec(),
            pairs: ws.pairs.clone(),
            boundary_matches: Vec::new(),
            obs_flip,
            weight,
            latency_ns: self.last_stats.predecode_ns,
            aborted,
        };
        self.ws = Some(ws);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::dem::{DemError, DetectorErrorModel};
    use qsim::extract_dem;
    use qsim::sparse::SparseBits;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use surface_code::{NoiseModel, RotatedSurfaceCode};

    fn graph_from_edges(n: u32, edges: &[(u32, u32, f64)]) -> DecodingGraph {
        let mut errors: Vec<DemError> = edges
            .iter()
            .map(|&(a, b, p)| DemError {
                dets: SparseBits::from_sorted(vec![a.min(b), a.max(b)]),
                obs: 0,
                p,
            })
            .collect();
        errors.push(DemError {
            dets: SparseBits::singleton(0),
            obs: 0,
            p: 0.004,
        });
        DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: n,
            num_observables: 0,
            errors,
            det_coords: vec![[0.0; 3]; n as usize],
        })
    }

    /// Runs Promatch with a zero stopping target so the synthetic
    /// examples (whose HW is below the real threshold of 10) exercise the
    /// full algorithm.
    fn run(graph: &DecodingGraph, dets: &[u32]) -> (PredecodeOutcome, PromatchStats) {
        let paths = PathTable::build(graph);
        let cfg = PromatchConfig {
            hw_targets: [0, 0, 0],
            ..Default::default()
        };
        let mut pm = PromatchPredecoder::with_config(graph, &paths, cfg);
        let out = pm.predecode(dets);
        let stats = *pm.last_stats();
        (out, stats)
    }

    fn norm(pairs: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn figure7_chain_breaks_into_correct_pairs() {
        // Path 1-2-3-4 (slots 0-1-2-3): matching the middle edge creates
        // two singletons; Promatch must match (1,2) and (3,4).
        let g = graph_from_edges(4, &[(0, 1, 0.01), (1, 2, 0.01), (2, 3, 0.01)]);
        let (out, stats) = run(&g, &[0, 1, 2, 3]);
        assert_eq!(norm(&out.pairs), vec![(0, 1), (2, 3)]);
        assert!(out.remaining.is_empty());
        assert!(stats.highest_step <= Some(Step::Step2));
    }

    #[test]
    fn figure9_star_matches_safe_pair_first() {
        // a(0)-{b(1),c(2),d(3),e(4)}, e(4)-f(5): (e,f) is the only
        // singleton-safe edge; it must be matched before any (a,·).
        let g = graph_from_edges(
            6,
            &[
                (0, 1, 0.01),
                (0, 2, 0.01),
                (0, 3, 0.01),
                (0, 4, 0.01),
                (4, 5, 0.01),
            ],
        );
        let (out, _) = run(&g, &[0, 1, 2, 3, 4, 5]);
        let pairs = norm(&out.pairs);
        assert!(
            pairs.contains(&(4, 5)),
            "safe pair (e,f) must be prematched: {pairs:?}"
        );
    }

    #[test]
    fn isolated_pairs_are_matched_in_one_round() {
        // Three disjoint adjacent pairs: all matched simultaneously.
        let g = graph_from_edges(6, &[(0, 1, 0.01), (2, 3, 0.01), (4, 5, 0.01)]);
        let (out, stats) = run(&g, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(norm(&out.pairs), vec![(0, 1), (2, 3), (4, 5)]);
        assert_eq!(stats.highest_step, Some(Step::Step1));
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn step2_prefers_lower_weight_and_degree_one() {
        // Path 0-1-2 plus hanging 2-3: edge (0,1) [deg-1 endpoint 0] vs
        // (2,3) [deg-1 endpoint 3]. Both are 2.1 candidates; weights
        // decide.
        let g = graph_from_edges(4, &[(0, 1, 0.02), (1, 2, 0.01), (2, 3, 0.03)]);
        // (2,3) is lighter (p = 0.03 -> lower log-likelihood weight) than
        // (0,1): matched first, leaving (0,1) as an isolated pair for the
        // next round. Either order yields the same correct cover.
        let (out, _) = run(&g, &[0, 1, 2, 3]);
        assert_eq!(norm(&out.pairs), vec![(0, 1), (2, 3)]);
    }

    #[test]
    fn step3_rescues_singletons() {
        // Two far-apart singletons (no subgraph edge): Step 3 pairs them
        // through the path table.
        let g = graph_from_edges(4, &[(0, 1, 0.01), (1, 2, 0.01), (2, 3, 0.01)]);
        let paths = PathTable::build(&g);
        let cfg = PromatchConfig {
            hw_targets: [0, 0, 0],
            ..Default::default()
        };
        let mut pm = PromatchPredecoder::with_config(&g, &paths, cfg);
        let out = pm.predecode(&[0, 3]);
        assert!(!out.aborted);
        assert_eq!(norm(&out.pairs), vec![(0, 3)]);
        assert_eq!(*pm.last_stats(), *pm.last_stats());
        assert_eq!(pm.last_stats().highest_step, Some(Step::Step3));
    }

    #[test]
    fn coverage_guarantee_on_surface_code_syndromes() {
        // Property: for random d=5 syndromes of any HW, Promatch either
        // aborts (rare) or leaves HW ≤ 10.
        let code = RotatedSurfaceCode::new(5);
        let circuit = code.memory_z_circuit(5, &NoiseModel::uniform(1e-3));
        let dem = extract_dem(&circuit);
        let graph = DecodingGraph::from_dem(&dem);
        let paths = PathTable::build(&graph);
        let mut pm = PromatchPredecoder::new(&graph, &paths);
        let mut rng = StdRng::seed_from_u64(71);
        for trial in 0..300 {
            let k = rng.gen_range(6..=20);
            let mech: Vec<usize> = (0..k).map(|_| rng.gen_range(0..dem.errors.len())).collect();
            let shot = dem.symptom_of(&mech);
            if shot.dets.len() <= 10 {
                continue;
            }
            let out = pm.predecode(&shot.dets);
            if out.aborted {
                continue;
            }
            assert!(
                out.remaining.len() <= 10,
                "trial {trial}: HW {} after predecoding",
                out.remaining.len()
            );
            // Partition check.
            let mut all: Vec<u32> = out
                .pairs
                .iter()
                .flat_map(|&(a, b)| [a, b])
                .chain(out.remaining.iter().copied())
                .collect();
            all.sort_unstable();
            assert_eq!(all, shot.dets, "trial {trial}");
        }
    }

    #[test]
    fn latency_grows_with_subgraph_size() {
        let code = RotatedSurfaceCode::new(5);
        let circuit = code.memory_z_circuit(5, &NoiseModel::uniform(1e-3));
        let dem = extract_dem(&circuit);
        let graph = DecodingGraph::from_dem(&dem);
        let paths = PathTable::build(&graph);
        let mut pm = PromatchPredecoder::new(&graph, &paths);
        let mut rng = StdRng::seed_from_u64(72);
        let mut small_ns = 0.0;
        let mut big_ns = 0.0;
        for _ in 0..30 {
            let small: Vec<usize> = (0..6).map(|_| rng.gen_range(0..dem.errors.len())).collect();
            let big: Vec<usize> = (0..22)
                .map(|_| rng.gen_range(0..dem.errors.len()))
                .collect();
            let s = dem.symptom_of(&small);
            let b = dem.symptom_of(&big);
            pm.predecode(&s.dets);
            small_ns += pm.last_stats().predecode_ns;
            pm.predecode(&b.dets);
            big_ns += pm.last_stats().predecode_ns;
        }
        assert!(big_ns > small_ns);
    }

    #[test]
    fn abort_when_budget_is_impossible() {
        // All 24 detectors of a complete graph: one pass over its 276
        // live edges costs 1 104 ns, past the 960 ns budget, so no
        // target is affordable after the first round.
        let n = 24;
        let edges: Vec<(u32, u32, f64)> = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b, 0.01)))
            .collect();
        let g = graph_from_edges(n, &edges);
        let paths = PathTable::build(&g);
        let cfg = PromatchConfig {
            hw_targets: [0, 0, 0],
            ..Default::default()
        };
        let mut pm = PromatchPredecoder::with_config(&g, &paths, cfg);
        let dets: Vec<u32> = (0..n).collect();
        let out = pm.predecode(&dets);
        assert!(out.aborted);
        assert_eq!(out.remaining, dets, "aborts forward unmodified");
        let stats = pm.last_stats();
        assert_eq!(stats.rounds, 1);
        assert!(stats.predecode_ns > TIME_BUDGET_NS, "{stats:?}");
    }

    #[test]
    fn exact_singleton_rule_changes_triangle_behaviour() {
        // Triangle + pendant: 0-1-2 triangle, 2-3 pendant edge.
        // Hardware rule lets (0,1) pass as 2.x; exact rule forbids it.
        let g = graph_from_edges(
            4,
            &[(0, 1, 0.005), (1, 2, 0.01), (0, 2, 0.01), (2, 3, 0.02)],
        );
        let paths = PathTable::build(&g);
        let cfg_exact = PromatchConfig {
            singleton_rule: SingletonRule::Exact,
            hw_targets: [0, 0, 0],
            ..Default::default()
        };
        let cfg_hw = PromatchConfig {
            hw_targets: [0, 0, 0],
            ..Default::default()
        };
        let mut pm_hw = PromatchPredecoder::with_config(&g, &paths, cfg_hw);
        let mut pm_exact = PromatchPredecoder::with_config(&g, &paths, cfg_exact);
        let out_hw = pm_hw.predecode(&[0, 1, 2, 3]);
        let out_exact = pm_exact.predecode(&[0, 1, 2, 3]);
        // Exact: must match (2,3) first (only singleton-safe edge), then
        // (0,1) remains as isolated pair: pairs {(0,1),(2,3)}.
        assert_eq!(norm(&out_exact.pairs), vec![(0, 1), (2, 3)]);
        // Hardware: (0,1) is lightest and (mis)classified safe: matching
        // it orphans 2... which then pairs with 3. Same pairs here, but
        // the first-round choice differs; both must fully cover.
        assert!(out_hw.remaining.is_empty());
        assert!(out_exact.remaining.is_empty());
    }

    #[test]
    fn passthrough_for_syndromes_already_below_target() {
        let g = graph_from_edges(4, &[(0, 1, 0.01)]);
        let paths = PathTable::build(&g);
        let mut pm = PromatchPredecoder::new(&g, &paths);
        let out = pm.predecode(&[0, 1]);
        // HW 2 ≤ 10: nothing to do.
        assert!(out.pairs.is_empty());
        assert_eq!(out.remaining, vec![0, 1]);
        assert_eq!(pm.last_stats().rounds, 0);
    }
}
