//! The idealized Minimum-Weight Perfect Matching decoder.
//!
//! This is the paper's gold-standard baseline ("MWPM (Ideal)" in Table 2):
//! exact minimum-weight perfect matching over the complete graph of
//! flipped detectors, with boundary matching handled by the standard
//! per-node virtual-boundary duplication. It has no real-time model — the
//! paper treats it as a non-real-time software decoder (Figure 2(c)).
//!
//! Construction: for a syndrome with K flipped detectors, build a complete
//! graph on 2K vertices — vertices `0..K` are the detectors with
//! shortest-path weights between them, vertex `K+i` is detector i's
//! private boundary image at its boundary distance, and boundary images
//! are interconnected at zero weight. A minimum-weight perfect matching on
//! this graph is exactly the minimum-weight correction on the original
//! graph (Fowler et al.; also used by PyMatching v1).
//!
//! # Example
//!
//! ```
//! use qsim::extract_dem;
//! use surface_code::{NoiseModel, RotatedSurfaceCode};
//! use decoding_graph::{Decoder, DecodingGraph, PathTable};
//! use mwpm::MwpmDecoder;
//!
//! let code = RotatedSurfaceCode::new(3);
//! let circuit = code.memory_z_circuit(3, &NoiseModel::uniform(1e-3));
//! let dem = extract_dem(&circuit);
//! let graph = DecodingGraph::from_dem(&dem);
//! let paths = PathTable::build(&graph);
//! let mut decoder = MwpmDecoder::new(&graph, &paths);
//!
//! // Decoding a single mechanism's symptom predicts its observable flip.
//! let e = &dem.errors[0];
//! let outcome = decoder.decode(e.dets.as_slice());
//! assert!(!outcome.failed);
//! assert_eq!(outcome.obs_flip, e.obs);
//! ```

#![forbid(unsafe_code)]

use blossom::MatchingWorkspace;
use decoding_graph::{
    DecodeOutcome, DecodeWorkspace, Decoder, DecodingGraph, DetectorId, MatchPair, MatchTarget,
    PathTable,
};

/// Exact MWPM decoder over a decoding graph.
///
/// The decoder owns a persistent [`DecodeWorkspace`] and blossom
/// [`MatchingWorkspace`]; keep one instance alive per worker thread and
/// the steady-state decode loop performs no scratch allocation.
#[derive(Clone, Debug)]
pub struct MwpmDecoder<'a> {
    graph: &'a DecodingGraph,
    paths: &'a PathTable,
    ws: DecodeWorkspace,
    blossom_ws: MatchingWorkspace,
    /// `hops[a]`: the hop count of every shortest path from `a`, searched
    /// the first time [`MwpmDecoder::chain_lengths`] asks about `a`.
    hops: Vec<Option<Box<[u32]>>>,
}

impl<'a> MwpmDecoder<'a> {
    /// Creates a decoder over `graph` using precomputed `paths`.
    ///
    /// # Panics
    ///
    /// Panics if `paths` was built for a different graph size.
    pub fn new(graph: &'a DecodingGraph, paths: &'a PathTable) -> Self {
        assert_eq!(
            paths.num_detectors(),
            graph.num_detectors() as usize,
            "path table does not match graph"
        );
        MwpmDecoder {
            graph,
            paths,
            ws: DecodeWorkspace::new(),
            blossom_ws: MatchingWorkspace::new(),
            hops: Vec::new(),
        }
    }

    /// The underlying decoding graph.
    pub fn graph(&self) -> &DecodingGraph {
        self.graph
    }

    /// The underlying path table.
    pub fn paths(&self) -> &PathTable {
        self.paths
    }

    /// Chain length (hop count) of each matched pair in `matches`;
    /// boundary matches count their boundary-path hops. Used for the
    /// paper's Figure 5 analysis. The path table keeps no hop counts, so
    /// each distinct `a` costs one [`DecodingGraph::dijkstra`], which
    /// finds the table's paths, on first ask.
    pub fn chain_lengths(&mut self, matches: &[MatchPair]) -> Vec<u32> {
        let graph = self.graph;
        let bd = graph.boundary_node();
        self.hops.resize(bd as usize + 1, None);
        matches
            .iter()
            .map(|m| {
                let b = match m.b {
                    MatchTarget::Detector(b) => b,
                    MatchTarget::Boundary => bd,
                };
                let hops = self.hops[m.a as usize]
                    .get_or_insert_with(|| graph.dijkstra(m.a).hops.into_boxed_slice());
                hops[b as usize]
            })
            .collect()
    }
}

impl Decoder for MwpmDecoder<'_> {
    fn decode(&mut self, dets: &[DetectorId]) -> DecodeOutcome {
        let k = dets.len();
        if k == 0 {
            return DecodeOutcome {
                obs_flip: 0,
                weight: Some(0),
                latency_ns: None,
                failed: false,
                matches: Vec::new(),
            };
        }
        // Complete graph on detectors + one boundary image per detector,
        // built into the reusable workspace edge list.
        let edges = &mut self.ws.edges;
        edges.clear();
        let mut feasible = true;
        for i in 0..k {
            let from_i = self.paths.row(dets[i]);
            for j in (i + 1)..k {
                let d = from_i.distance(dets[j]);
                if d == i64::MAX {
                    feasible = false;
                    continue;
                }
                edges.push((i, j, d));
            }
            let bd = from_i.boundary_distance();
            if bd == i64::MAX {
                feasible = false;
            } else {
                edges.push((i, k + i, bd));
            }
            for j in (i + 1)..k {
                edges.push((k + i, k + j, 0));
            }
        }
        if !feasible && edges.is_empty() {
            return DecodeOutcome::failure();
        }
        if !blossom::min_weight_perfect_matching_with(
            &mut self.blossom_ws,
            2 * k,
            edges,
            &mut self.ws.mates,
        ) {
            return DecodeOutcome::failure();
        }
        let mates = &self.ws.mates;
        let mut obs = 0u64;
        let mut weight = 0i64;
        let mut matches = Vec::with_capacity(k);
        for i in 0..k {
            let m = mates[i];
            if m < k {
                if i < m {
                    obs ^= self.paths.path_obs(dets[i], dets[m]);
                    weight += self.paths.distance(dets[i], dets[m]);
                    matches.push(MatchPair {
                        a: dets[i],
                        b: MatchTarget::Detector(dets[m]),
                    });
                }
            } else {
                debug_assert_eq!(m, k + i, "detector matched to foreign boundary image");
                obs ^= self.paths.boundary_obs(dets[i]);
                weight += self.paths.boundary_distance(dets[i]);
                matches.push(MatchPair {
                    a: dets[i],
                    b: MatchTarget::Boundary,
                });
            }
        }
        DecodeOutcome {
            obs_flip: obs,
            weight: Some(weight),
            latency_ns: None,
            failed: false,
            matches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::dem::DetectorErrorModel;
    use qsim::extract_dem;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use surface_code::{NoiseModel, RotatedSurfaceCode};

    struct Fixture {
        dem: DetectorErrorModel,
        graph: DecodingGraph,
        paths: PathTable,
    }

    fn fixture(d: u32, p: f64) -> Fixture {
        let code = RotatedSurfaceCode::new(d);
        let circuit = code.memory_z_circuit(d, &NoiseModel::uniform(p));
        let dem = extract_dem(&circuit);
        let graph = DecodingGraph::from_dem(&dem);
        let paths = PathTable::build(&graph);
        Fixture { dem, graph, paths }
    }

    #[test]
    fn empty_syndrome_decodes_to_identity() {
        let f = fixture(3, 1e-3);
        let mut dec = MwpmDecoder::new(&f.graph, &f.paths);
        let out = dec.decode(&[]);
        assert!(!out.failed);
        assert_eq!(out.obs_flip, 0);
        assert_eq!(out.weight, Some(0));
    }

    #[test]
    fn every_single_mechanism_is_corrected_d3() {
        let f = fixture(3, 1e-3);
        let mut dec = MwpmDecoder::new(&f.graph, &f.paths);
        for (i, e) in f.dem.errors.iter().enumerate() {
            let out = dec.decode(e.dets.as_slice());
            assert!(!out.failed, "mechanism {i}");
            assert_eq!(out.obs_flip, e.obs, "mechanism {i}: {:?}", e);
        }
    }

    #[test]
    fn every_single_mechanism_is_corrected_d5() {
        let f = fixture(5, 1e-3);
        let mut dec = MwpmDecoder::new(&f.graph, &f.paths);
        for (i, e) in f.dem.errors.iter().enumerate() {
            let out = dec.decode(e.dets.as_slice());
            assert!(!out.failed, "mechanism {i}");
            assert_eq!(out.obs_flip, e.obs, "mechanism {i}");
        }
    }

    /// The effective-distance test: on a unit-weight copy of the d=5
    /// graph, any two injected mechanisms must be corrected. This fails
    /// if the CNOT schedule produced distance-reducing hook errors.
    #[test]
    fn pairs_of_mechanisms_are_corrected_d5_unit_weights() {
        let f = fixture(5, 1e-3);
        // Unit-weight graph: equal probabilities wipe out weight noise so
        // the guarantee is purely topological.
        let mut dem = f.dem.clone();
        for e in &mut dem.errors {
            e.p = 0.01;
        }
        let graph = DecodingGraph::from_dem(&dem);
        let paths = PathTable::build(&graph);
        let mut dec = MwpmDecoder::new(&graph, &paths);
        let mut rng = StdRng::seed_from_u64(7);
        let n = dem.errors.len();
        for trial in 0..4000 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            let shot = dem.symptom_of(&[a, b]);
            let out = dec.decode(&shot.dets);
            assert!(!out.failed, "trial {trial}");
            assert_eq!(
                out.obs_flip, shot.obs,
                "trial {trial}: mechanisms {a},{b} ({:?} / {:?})",
                dem.errors[a], dem.errors[b]
            );
        }
    }

    /// Hook-safety in the *X-basis* graph: the Z-type CNOT schedule must
    /// not halve the distance for phase errors either.
    #[test]
    fn pairs_of_mechanisms_are_corrected_d5_memory_x() {
        use surface_code::MemoryBasis;
        let code = RotatedSurfaceCode::new(5);
        let circuit = code.memory_circuit(MemoryBasis::X, 5, &NoiseModel::uniform(1e-3));
        let mut dem = extract_dem(&circuit);
        for e in &mut dem.errors {
            e.p = 0.01;
        }
        let graph = DecodingGraph::from_dem(&dem);
        let paths = PathTable::build(&graph);
        let mut dec = MwpmDecoder::new(&graph, &paths);
        let mut rng = StdRng::seed_from_u64(77);
        let n = dem.errors.len();
        for trial in 0..2000 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            let shot = dem.symptom_of(&[a, b]);
            let out = dec.decode(&shot.dets);
            assert!(!out.failed, "trial {trial}");
            assert_eq!(out.obs_flip, shot.obs, "trial {trial}: mechanisms {a},{b}");
        }
    }

    #[test]
    fn matches_cover_every_detector_exactly_once() {
        let f = fixture(5, 1e-3);
        let mut dec = MwpmDecoder::new(&f.graph, &f.paths);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let shot = f.dem.sample_shot(&mut rng);
            let out = dec.decode(&shot.dets);
            assert!(!out.failed);
            let mut seen: Vec<u32> = Vec::new();
            for m in &out.matches {
                seen.push(m.a);
                if let MatchTarget::Detector(b) = m.b {
                    seen.push(b);
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, shot.dets, "matches must partition the syndrome");
        }
    }

    #[test]
    fn monte_carlo_logical_error_rate_is_suppressed() {
        // At p = 1e-3 and d = 3, the decoder must fix the overwhelming
        // majority of shots.
        let code = RotatedSurfaceCode::new(3);
        let circuit = code.memory_z_circuit(3, &NoiseModel::uniform(1e-3));
        let dem = extract_dem(&circuit);
        let graph = DecodingGraph::from_dem(&dem);
        let paths = PathTable::build(&graph);
        let mut dec = MwpmDecoder::new(&graph, &paths);
        let sampler = qsim::FrameSampler::new(&circuit);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let shots = sampler.sample_shots(n, &mut rng);
        let failures = shots
            .iter()
            .filter(|s| {
                let out = dec.decode(&s.dets);
                out.failed || out.obs_flip != s.obs
            })
            .count();
        let rate = failures as f64 / n as f64;
        assert!(rate < 5e-3, "logical rate {rate} too high for d=3, p=1e-3");
    }

    #[test]
    fn solution_weight_is_minimal_vs_brute_force() {
        // Cross-check MWPM total weight against exhaustive matching for
        // small syndromes.
        let f = fixture(3, 1e-3);
        let mut dec = MwpmDecoder::new(&f.graph, &f.paths);
        let mut rng = StdRng::seed_from_u64(10);
        let nd = f.graph.num_detectors();
        for _ in 0..100 {
            let hw = 2 * rng.gen_range(1..=3);
            let mut dets: Vec<u32> = (0..nd).collect();
            for i in 0..hw {
                let j = rng.gen_range(i..nd as usize);
                dets.swap(i, j);
            }
            let mut dets: Vec<u32> = dets[..hw].to_vec();
            dets.sort_unstable();
            let out = dec.decode(&dets);
            let best = brute_min_weight(&f.paths, &dets);
            assert_eq!(out.weight, Some(best), "syndrome {dets:?}");
        }
    }

    /// Exhaustive minimum matching weight allowing boundary matches.
    fn brute_min_weight(paths: &PathTable, dets: &[u32]) -> i64 {
        fn rec(paths: &PathTable, dets: &[u32], used: u64, best: &mut i64, acc: i64) {
            let Some(i) = (0..dets.len()).find(|&i| used & (1 << i) == 0) else {
                *best = (*best).min(acc);
                return;
            };
            let used_i = used | (1 << i);
            // Boundary match.
            rec(
                paths,
                dets,
                used_i,
                best,
                acc + paths.boundary_distance(dets[i]),
            );
            for j in (i + 1)..dets.len() {
                if used_i & (1 << j) == 0 {
                    rec(
                        paths,
                        dets,
                        used_i | (1 << j),
                        best,
                        acc + paths.distance(dets[i], dets[j]),
                    );
                }
            }
        }
        let mut best = i64::MAX;
        rec(paths, dets, 0, &mut best, 0);
        best
    }

    #[test]
    fn chain_lengths_are_the_reference_hops_of_every_match() {
        let f = fixture(5, 5e-3);
        let mut dec = MwpmDecoder::new(&f.graph, &f.paths);
        let bd = f.graph.boundary_node();
        let mut rng = StdRng::seed_from_u64(11);
        let (mut pairs, mut boundary) = (0, 0);
        for _ in 0..200 {
            let shot = f.dem.sample_shot(&mut rng);
            let out = dec.decode(&shot.dets);
            let lengths = dec.chain_lengths(&out.matches);
            assert_eq!(lengths.len(), out.matches.len());
            for (m, len) in out.matches.iter().zip(lengths) {
                let b = match m.b {
                    MatchTarget::Detector(b) => {
                        pairs += 1;
                        b
                    }
                    MatchTarget::Boundary => {
                        boundary += 1;
                        bd
                    }
                };
                assert_eq!(len, f.graph.dijkstra(m.a).hops[b as usize], "{m:?}");
            }
        }
        assert!(
            pairs > 0 && boundary > 0,
            "{pairs} pairs, {boundary} boundary"
        );
    }

    #[test]
    fn chain_lengths_are_positive_for_nontrivial_matches() {
        let f = fixture(3, 1e-3);
        let mut dec = MwpmDecoder::new(&f.graph, &f.paths);
        let e = &f.dem.errors[0];
        let out = dec.decode(e.dets.as_slice());
        let lengths = dec.chain_lengths(&out.matches);
        assert_eq!(lengths.len(), out.matches.len());
        assert!(lengths.iter().all(|&l| l >= 1));
    }
}
