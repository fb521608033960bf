//! The Astrea brute-force decoder (exact for HW ≤ 10).

use crate::latency::AstreaLatencyModel;
use decoding_graph::{
    DecodeOutcome, DecodeWorkspace, Decoder, DecodingGraph, DetectorId, MatchPair, MatchTarget,
    PathTable,
};

/// The largest Hamming weight Astrea decodes: the hardware is sized for
/// the 945 pairings of ten flipped bits.
pub const MAX_HW: usize = 10;

/// Astrea: exact MWPM by accelerated brute force, for low-HW syndromes.
///
/// Syndromes with more than [`MAX_HW`] flipped bits are rejected
/// ([`DecodeOutcome::failed`]), exactly like the hardware.
///
/// The hardware enumerates the pairings; the software gets the same
/// answer from a dynamic program over subsets of the flipped bits, and
/// of several minimum-weight matchings returns the one an enumeration in
/// (boundary, ascending partner) order per lowest free bit meets first.
#[derive(Clone, Debug)]
pub struct AstreaDecoder<'a> {
    paths: &'a PathTable,
    /// Scratch for [`Decoder::decode`]; allocated by the first call, so
    /// a decoder that only ever borrows a workspace carries a pointer.
    ws: Option<Box<DecodeWorkspace>>,
}

impl<'a> AstreaDecoder<'a> {
    /// Creates an Astrea decoder.
    ///
    /// # Panics
    ///
    /// Panics if `paths` does not match `graph`.
    pub fn new(graph: &'a DecodingGraph, paths: &'a PathTable) -> Self {
        assert_eq!(paths.num_detectors(), graph.num_detectors() as usize);
        AstreaDecoder { paths, ws: None }
    }

    /// Modeled latency for a given Hamming weight.
    pub fn latency_ns(&self, hw: usize) -> f64 {
        AstreaLatencyModel::default().latency_ns(hw)
    }
}

/// Sentinel of an infeasible subset and of an unreachable pair.
const INF: i64 = i64::MAX;
/// Sentinel of a subset the fill has not reached.
const UNVISITED: i64 = -1;

/// The subset dynamic program over one syndrome of `k` flipped bits.
///
/// `best[s]` is the minimum weight of a matching that covers exactly
/// the bits of `s`, each paired inside `s` or sent to the boundary. The
/// lowest bit of `s` must be matched, so
/// `best[s] = min(bd[i] + best[s ∖ i], min_j w[i][j] + best[s ∖ i ∖ j])`,
/// and only the subsets that recurrence reaches from the full set are
/// ever filled (≈ 150 of the 1 024 at `k = 10`).
struct SubsetSearch<'w> {
    k: usize,
    /// `k` rows of `k + 1`: pair distances, then the boundary distance.
    weights: &'w [i64],
    best: &'w mut [i64],
}

impl SubsetSearch<'_> {
    fn pair(&self, i: usize, j: usize) -> i64 {
        self.weights[i * (self.k + 1) + j]
    }

    fn boundary(&self, i: usize) -> i64 {
        self.weights[i * (self.k + 1) + self.k]
    }

    /// `best[s]`, filled on first request.
    fn solve(&mut self, s: usize) -> i64 {
        if s == 0 {
            return 0;
        }
        if self.best[s] != UNVISITED {
            return self.best[s];
        }
        let i = s.trailing_zeros() as usize;
        let rest = s & (s - 1);
        let mut best = INF;
        if self.boundary(i) != INF {
            best = self.solve(rest).saturating_add(self.boundary(i));
        }
        let mut partners = rest;
        while partners != 0 {
            let j = partners.trailing_zeros() as usize;
            partners &= partners - 1;
            if self.pair(i, j) != INF {
                let w = self.solve(rest ^ (1 << j)).saturating_add(self.pair(i, j));
                best = best.min(w);
            }
        }
        self.best[s] = best;
        best
    }

    /// Whether matching the lowest bit of a subset at cost `w`, leaving
    /// `rest`, attains `target` — the subset's (finite) optimum.
    fn attains(&mut self, w: i64, rest: usize, target: i64) -> bool {
        w != INF && self.solve(rest).saturating_add(w) == target
    }
}

impl Decoder for AstreaDecoder<'_> {
    fn decode(&mut self, dets: &[DetectorId]) -> DecodeOutcome {
        let mut ws = self.ws.take().unwrap_or_default();
        let out = self.decode_with(dets, &mut ws);
        self.ws = Some(ws);
        out
    }

    fn decode_with(&mut self, dets: &[DetectorId], ws: &mut DecodeWorkspace) -> DecodeOutcome {
        let k = dets.len();
        if k > MAX_HW {
            // The hardware cannot decode high-HW syndromes at all.
            return DecodeOutcome::failure();
        }
        // One gather from the (large, cold) path table; the search runs
        // on the dense copy.
        ws.weights.clear();
        for &a in dets {
            let from_a = self.paths.row(a);
            ws.weights.extend(dets.iter().map(|&b| from_a.distance(b)));
            ws.weights.push(from_a.boundary_distance());
        }
        let full = (1usize << k) - 1;
        ws.subset_best.clear();
        ws.subset_best.resize(full + 1, UNVISITED);
        let mut search = SubsetSearch {
            k,
            weights: &ws.weights,
            best: &mut ws.subset_best,
        };
        let best = search.solve(full);
        if best == INF {
            return DecodeOutcome::failure();
        }
        // Walk back from the full set, taking at every step the first
        // option — boundary, then partners ascending — that an optimal
        // matching of what is left can start with.
        let mut obs = 0u64;
        let mut matches = Vec::with_capacity(k);
        let mut s = full;
        while s != 0 {
            let i = s.trailing_zeros() as usize;
            let rest = s & (s - 1);
            let target = search.solve(s);
            if search.attains(search.boundary(i), rest, target) {
                obs ^= self.paths.boundary_obs(dets[i]);
                matches.push(MatchPair {
                    a: dets[i],
                    b: MatchTarget::Boundary,
                });
                s = rest;
                continue;
            }
            let j = (i + 1..k)
                .filter(|&j| rest & (1 << j) != 0)
                .find(|&j| search.attains(search.pair(i, j), rest ^ (1 << j), target))
                .expect("a finite optimum is attained by some option");
            obs ^= self.paths.path_obs(dets[i], dets[j]);
            matches.push(MatchPair {
                a: dets[i],
                b: MatchTarget::Detector(dets[j]),
            });
            s = rest ^ (1 << j);
        }
        DecodeOutcome {
            obs_flip: obs,
            weight: Some(best),
            latency_ns: Some(self.latency_ns(k)),
            failed: false,
            matches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwpm::MwpmDecoder;
    use qsim::extract_dem;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use surface_code::{NoiseModel, RotatedSurfaceCode};

    fn fixture(d: u32) -> (DecodingGraph, PathTable) {
        let code = RotatedSurfaceCode::new(d);
        let circuit = code.memory_z_circuit(d, &NoiseModel::uniform(1e-3));
        let graph = DecodingGraph::from_dem(&extract_dem(&circuit));
        let paths = PathTable::build(&graph);
        (graph, paths)
    }

    #[test]
    fn rejects_high_hamming_weight() {
        let (graph, paths) = fixture(5);
        let mut astrea = AstreaDecoder::new(&graph, &paths);
        let dets: Vec<u32> = (0..11).collect();
        assert!(astrea.decode(&dets).failed);
        let dets: Vec<u32> = (0..10).collect();
        assert!(!astrea.decode(&dets).failed);
    }

    #[test]
    fn empty_syndrome_is_trivial() {
        let (graph, paths) = fixture(3);
        let mut astrea = AstreaDecoder::new(&graph, &paths);
        let out = astrea.decode(&[]);
        assert!(!out.failed);
        assert_eq!(out.obs_flip, 0);
        assert_eq!(out.weight, Some(0));
    }

    #[test]
    fn matches_mwpm_weight_on_low_hw_syndromes() {
        let (graph, paths) = fixture(5);
        let mut astrea = AstreaDecoder::new(&graph, &paths);
        let mut mwpm = MwpmDecoder::new(&graph, &paths);
        let mut rng = StdRng::seed_from_u64(21);
        let nd = graph.num_detectors() as usize;
        for trial in 0..300 {
            let hw = rng.gen_range(1..=8);
            let mut pool: Vec<u32> = (0..nd as u32).collect();
            for i in 0..hw {
                let j = rng.gen_range(i..nd);
                pool.swap(i, j);
            }
            let mut dets = pool[..hw].to_vec();
            dets.sort_unstable();
            let a = astrea.decode(&dets);
            let m = mwpm.decode(&dets);
            assert!(!a.failed && !m.failed, "trial {trial}");
            assert_eq!(a.weight, m.weight, "trial {trial}: {dets:?}");
        }
    }

    #[test]
    fn corrects_single_mechanisms_exactly() {
        let code = RotatedSurfaceCode::new(3);
        let circuit = code.memory_z_circuit(3, &NoiseModel::uniform(1e-3));
        let dem = extract_dem(&circuit);
        let graph = DecodingGraph::from_dem(&dem);
        let paths = PathTable::build(&graph);
        let mut astrea = AstreaDecoder::new(&graph, &paths);
        for e in &dem.errors {
            let out = astrea.decode(e.dets.as_slice());
            assert!(!out.failed);
            assert_eq!(out.obs_flip, e.obs);
        }
    }

    #[test]
    fn latency_is_attached_and_scales_with_hw() {
        let (graph, paths) = fixture(5);
        let mut astrea = AstreaDecoder::new(&graph, &paths);
        let mut rng = StdRng::seed_from_u64(22);
        let nd = graph.num_detectors() as usize;
        let mut hw2: Vec<u32> = Vec::new();
        while hw2.len() < 2 {
            let c = rng.gen_range(0..nd as u32);
            if !hw2.contains(&c) {
                hw2.push(c);
            }
        }
        hw2.sort_unstable();
        let l2 = astrea.decode(&hw2).latency_ns.unwrap();
        let mut hw10: Vec<u32> = Vec::new();
        while hw10.len() < 10 {
            let c = rng.gen_range(0..nd as u32);
            if !hw10.contains(&c) {
                hw10.push(c);
            }
        }
        hw10.sort_unstable();
        let l10 = astrea.decode(&hw10).latency_ns.unwrap();
        assert!(l2 < l10);
        assert_eq!(l10, 456.0);
    }

    #[test]
    fn matches_partition_the_syndrome() {
        let (graph, paths) = fixture(5);
        let mut astrea = AstreaDecoder::new(&graph, &paths);
        let mut rng = StdRng::seed_from_u64(23);
        let nd = graph.num_detectors() as usize;
        for _ in 0..50 {
            let hw = rng.gen_range(1..=9);
            let mut pool: Vec<u32> = (0..nd as u32).collect();
            for i in 0..hw {
                let j = rng.gen_range(i..nd);
                pool.swap(i, j);
            }
            let mut dets = pool[..hw].to_vec();
            dets.sort_unstable();
            let out = astrea.decode(&dets);
            let mut covered: Vec<u32> = Vec::new();
            for m in &out.matches {
                covered.push(m.a);
                if let MatchTarget::Detector(b) = m.b {
                    covered.push(b);
                }
            }
            covered.sort_unstable();
            assert_eq!(covered, dets);
        }
    }
}
