//! Differential pins for the two local-rule baselines, Smith and Clique.
//!
//! Each predecoder's whole [`PredecodeOutcome`] — remaining detectors,
//! pairs and boundary matches in order, observable flip, weight and
//! modeled latency — is compared with an oracle written here from the
//! decoding graph alone ([`DecodingGraph::neighbors`] and
//! [`DecodingGraph::edge_between`]). It shares no subgraph type with the
//! predecoders, so a change to how they build their syndrome subgraph
//! cannot hide in code both read.
//!
//! Syndromes are SD6 d = 5 and d = 7 memory experiments: random sorted
//! detector sets of Hamming weight 0–30, XORs of 1–12 injected DEM
//! mechanisms (the sparse, mostly local shapes the rules engage on), and
//! every single mechanism. Those circuits put the observable on boundary
//! edges only, so one more d = 5 case relabels a third of the
//! mechanisms with it, and pairs flip it too.

use decoding_graph::latency::cycles_to_ns;
use decoding_graph::{DecodingGraph, DetectorId, PredecodeOutcome, Predecoder};
use predecoders::{CliquePredecoder, SmithPredecoder};
use qsim::dem::DetectorErrorModel;
use qsim::extract_dem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use surface_code::{NoiseModel, RotatedSurfaceCode};

/// The SD6 memory experiment of distance `d` (d rounds) and its graph.
fn sd6(d: u32) -> (DetectorErrorModel, DecodingGraph) {
    let code = RotatedSurfaceCode::new(d);
    let circuit = code.memory_z_circuit(d, &NoiseModel::sd6(1e-3));
    let dem = extract_dem(&circuit);
    let graph = DecodingGraph::from_dem(&dem);
    (dem, graph)
}

/// The syndrome subgraph as the oracle sees it: for each flipped
/// detector (slot), its flipped neighbors as `(slot, edge weight, edge
/// obs)` in [`DecodingGraph::neighbors`] order, one entry per graph
/// edge (parallel edges count twice).
fn flipped_neighbors(g: &DecodingGraph, dets: &[DetectorId]) -> Vec<Vec<(usize, i64, u64)>> {
    let bd = g.boundary_node();
    dets.iter()
        .map(|&a| {
            g.neighbors(a)
                .filter(|&(nbr, _)| nbr != bd)
                .filter_map(|(nbr, e)| {
                    let slot = dets.binary_search(&nbr).ok()?;
                    Some((slot, e.weight, e.obs))
                })
                .collect()
        })
        .collect()
}

/// Smith et al.: one pass over the induced edges, each from its
/// lower-numbered endpoint in slot order; an edge whose endpoints both
/// have degree 1 is a mutual isolated pair. One cycle per induced edge.
fn smith_oracle(g: &DecodingGraph, dets: &[DetectorId]) -> PredecodeOutcome {
    let nbrs = flipped_neighbors(g, dets);
    let mut matched = vec![false; dets.len()];
    let mut out = PredecodeOutcome::passthrough(&[]);
    let mut edges = 0u64;
    for (a, row) in nbrs.iter().enumerate() {
        for &(b, weight, obs) in row.iter().filter(|&&(b, _, _)| b > a) {
            edges += 1;
            if row.len() == 1 && nbrs[b].len() == 1 {
                matched[a] = true;
                matched[b] = true;
                out.pairs.push((dets[a], dets[b]));
                out.obs_flip ^= obs;
                out.weight += weight;
            }
        }
    }
    out.remaining = (0..dets.len())
        .filter(|&i| !matched[i])
        .map(|i| dets[i])
        .collect();
    out.latency_ns = cycles_to_ns(edges.max(1));
    out
}

/// Clique: split the subgraph into connected components (in order of
/// their lowest slot); a lone defect with a boundary edge matches the
/// boundary, a two-defect component joined by one edge is a pair, and
/// anything else forwards the whole syndrome unmodified. One cycle.
fn clique_oracle(g: &DecodingGraph, dets: &[DetectorId]) -> PredecodeOutcome {
    let latency_ns = cycles_to_ns(1);
    let passthrough = PredecodeOutcome {
        latency_ns,
        ..PredecodeOutcome::passthrough(dets)
    };
    let nbrs = flipped_neighbors(g, dets);
    let bd = g.boundary_node();
    let mut seen = vec![false; dets.len()];
    let mut out = PredecodeOutcome {
        latency_ns,
        ..PredecodeOutcome::passthrough(&[])
    };
    for start in 0..dets.len() {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut comp = vec![start];
        let mut next = 0;
        while next < comp.len() {
            for &(v, _, _) in &nbrs[comp[next]] {
                if !seen[v] {
                    seen[v] = true;
                    comp.push(v);
                }
            }
            next += 1;
        }
        comp.sort_unstable();
        match comp[..] {
            [a] => {
                let Some(e) = g.edge_between(dets[a], bd) else {
                    return passthrough;
                };
                out.boundary_matches.push(dets[a]);
                out.obs_flip ^= e.obs;
                out.weight += e.weight;
            }
            [a, b] if nbrs[a].len() == 1 && nbrs[b].len() == 1 => {
                let e = g.edge_between(dets[a], dets[b]).expect("component edge");
                out.pairs.push((dets[a], dets[b]));
                out.obs_flip ^= e.obs;
                out.weight += e.weight;
            }
            _ => return passthrough,
        }
    }
    out
}

/// `hw` distinct detectors, sorted.
fn random_syndrome(rng: &mut StdRng, num_detectors: u32, hw: usize) -> Vec<DetectorId> {
    let mut dets: Vec<DetectorId> = Vec::with_capacity(hw);
    while dets.len() < hw {
        let d = rng.gen_range(0..num_detectors);
        if !dets.contains(&d) {
            dets.push(d);
        }
    }
    dets.sort_unstable();
    dets
}

/// The syndrome of `k` mechanisms drawn uniformly from the DEM (a
/// mechanism drawn twice cancels, as it would physically).
fn injected_syndrome(rng: &mut StdRng, dem: &DetectorErrorModel, k: usize) -> Vec<DetectorId> {
    let mut flipped = vec![false; dem.num_detectors as usize];
    for _ in 0..k {
        let m = &dem.errors[rng.gen_range(0..dem.errors.len())];
        for &d in m.dets.as_slice() {
            flipped[d as usize] ^= true;
        }
    }
    (0..dem.num_detectors)
        .filter(|&d| flipped[d as usize])
        .collect()
}

/// Field-by-field comparison, so a failure names what diverged.
fn assert_same(label: &str, dets: &[DetectorId], got: &PredecodeOutcome, want: &PredecodeOutcome) {
    assert_eq!(
        got.remaining, want.remaining,
        "{label} remaining on {dets:?}"
    );
    assert_eq!(got.pairs, want.pairs, "{label} pairs on {dets:?}");
    assert_eq!(
        got.boundary_matches, want.boundary_matches,
        "{label} boundary matches on {dets:?}"
    );
    assert_eq!(got.obs_flip, want.obs_flip, "{label} obs flip on {dets:?}");
    assert_eq!(got.weight, want.weight, "{label} weight on {dets:?}");
    assert_eq!(
        got.latency_ns.to_bits(),
        want.latency_ns.to_bits(),
        "{label} latency on {dets:?}"
    );
    assert!(!got.aborted, "{label} aborted on {dets:?}");
}

/// How often the rules engaged over a set of syndromes.
struct Engaged {
    /// Smith matched at least one pair.
    smith: usize,
    /// Smith's pairs flipped an observable.
    smith_obs: usize,
    /// Clique fully decoded a non-empty syndrome.
    clique: usize,
}

/// Runs both predecoders (reused across syndromes, as a decoder reuses
/// them across shots) against their oracles on `syndromes`.
fn check(g: &DecodingGraph, syndromes: &[Vec<DetectorId>]) -> Engaged {
    let mut smith = SmithPredecoder::new(g);
    let mut clique = CliquePredecoder::new(g);
    let mut engaged = Engaged {
        smith: 0,
        smith_obs: 0,
        clique: 0,
    };
    for dets in syndromes {
        let s = smith.predecode(dets);
        assert_same("Smith", dets, &s, &smith_oracle(g, dets));
        engaged.smith += usize::from(!s.pairs.is_empty());
        engaged.smith_obs += usize::from(s.obs_flip != 0);
        let c = clique.predecode(dets);
        assert_same("Clique", dets, &c, &clique_oracle(g, dets));
        engaged.clique += usize::from(!dets.is_empty() && c.remaining.is_empty());
    }
    engaged
}

#[test]
fn random_syndromes_match_the_graph_oracles() {
    for (d, seed) in [(5u32, 3601u64), (7, 3602)] {
        let (_, g) = sd6(d);
        let mut rng = StdRng::seed_from_u64(seed);
        let syndromes: Vec<Vec<DetectorId>> = (0..=30)
            .flat_map(|hw| std::iter::repeat_n(hw, 20))
            .map(|hw| random_syndrome(&mut rng, g.num_detectors(), hw))
            .collect();
        let Engaged { smith, clique, .. } = check(&g, &syndromes);
        // Random detectors rarely touch; still, low weights must engage.
        assert!(smith > 0 && clique > 0, "d={d}: {smith} / {clique}");
    }
}

#[test]
fn injected_mechanism_syndromes_match_the_graph_oracles() {
    for (d, seed) in [(5u32, 3611u64), (7, 3612)] {
        let (dem, g) = sd6(d);
        let mut rng = StdRng::seed_from_u64(seed);
        let syndromes: Vec<Vec<DetectorId>> = (1..=12)
            .flat_map(|k| std::iter::repeat_n(k, 60))
            .map(|k| injected_syndrome(&mut rng, &dem, k))
            .collect();
        let Engaged { smith, clique, .. } = check(&g, &syndromes);
        // Every shape must be exercised: pairs, boundary singletons,
        // and syndromes the rules forward.
        assert!(smith > syndromes.len() / 4, "d={d}: Smith engaged {smith}");
        assert!(
            clique > syndromes.len() / 10,
            "d={d}: Clique engaged {clique}"
        );
    }
}

#[test]
fn every_single_mechanism_matches_the_graph_oracles() {
    for d in [5u32, 7] {
        let (dem, g) = sd6(d);
        let syndromes: Vec<Vec<DetectorId>> = dem
            .errors
            .iter()
            .map(|m| m.dets.as_slice().to_vec())
            .collect();
        let clique = check(&g, &syndromes).clique;
        // A lone mechanism is a pair or a boundary singleton: Clique
        // decodes nearly all of them.
        assert!(clique * 10 > syndromes.len() * 9, "d={d}: {clique}");
    }
}

#[test]
fn observables_on_internal_edges_reach_the_pair_flips() {
    // The memory circuits carry the observable on boundary edges only,
    // so a pair's flip is always 0 there. Relabel every third mechanism
    // with the observable so that pairs carry flips too.
    let (mut dem, _) = sd6(5);
    for (i, m) in dem.errors.iter_mut().enumerate() {
        m.obs = u64::from(i % 3 == 0);
    }
    let g = DecodingGraph::from_dem(&dem);
    let mut rng = StdRng::seed_from_u64(3621);
    let syndromes: Vec<Vec<DetectorId>> = (1..=12)
        .flat_map(|k| std::iter::repeat_n(k, 60))
        .map(|k| injected_syndrome(&mut rng, &dem, k))
        .collect();
    let engaged = check(&g, &syndromes);
    assert!(
        engaged.smith_obs > 0,
        "no Smith pair flipped the observable"
    );
}
