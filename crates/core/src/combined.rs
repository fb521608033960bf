//! The full real-time decoder: Promatch + Astrea.

use crate::algorithm::{PromatchConfig, PromatchPredecoder, PromatchStats};
use astrea::{AstreaDecoder, MAX_HW};
use decoding_graph::latency::TIME_BUDGET_NS;
use decoding_graph::{
    DecodeOutcome, DecodeWorkspace, Decoder, DecodingGraph, DetectorId, MatchPair, MatchTarget,
    PathTable,
};

/// `Promatch + Astrea`: the paper's real-time decoder for d = 11, 13.
///
/// Low-HW syndromes (≤ [`MAX_HW`]) go straight to Astrea. High-HW
/// syndromes are adaptively predecoded until the remainder fits the time
/// left in the 960 ns [`TIME_BUDGET_NS`]; exceeding the budget is a
/// decode failure ("categorized as a logical error", §6.4).
#[derive(Clone, Debug)]
pub struct PromatchAstreaDecoder<'a> {
    promatch: PromatchPredecoder<'a>,
    astrea: AstreaDecoder<'a>,
}

impl<'a> PromatchAstreaDecoder<'a> {
    /// Creates the combined decoder with the default Promatch
    /// configuration.
    pub fn new(graph: &'a DecodingGraph, paths: &'a PathTable) -> Self {
        Self::with_config(graph, paths, PromatchConfig::default())
    }

    /// Creates the combined decoder with an explicit Promatch
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.main_max_hw` exceeds Astrea's [`MAX_HW`]: the
    /// predecoder would stop at weights Astrea rejects.
    pub fn with_config(
        graph: &'a DecodingGraph,
        paths: &'a PathTable,
        config: PromatchConfig,
    ) -> Self {
        assert!(
            config.main_max_hw <= MAX_HW,
            "Promatch main_max_hw {} exceeds Astrea's reach of {MAX_HW}",
            config.main_max_hw
        );
        PromatchAstreaDecoder {
            promatch: PromatchPredecoder::with_config(graph, paths, config),
            astrea: AstreaDecoder::new(graph, paths),
        }
    }

    /// Statistics of the most recent predecoding pass.
    pub fn last_predecode_stats(&self) -> &PromatchStats {
        self.promatch.last_stats()
    }

    /// Direct access to the inner predecoder (for experiment harnesses).
    pub fn predecoder(&mut self) -> &mut PromatchPredecoder<'a> {
        &mut self.promatch
    }
}

impl Decoder for PromatchAstreaDecoder<'_> {
    fn decode(&mut self, dets: &[DetectorId]) -> DecodeOutcome {
        // The predecoder's own workspace serves both stages.
        let mut ws = self.promatch.ws.take().unwrap_or_default();
        let out = self.decode_with(dets, &mut ws);
        self.promatch.ws = Some(ws);
        out
    }

    fn decode_with(&mut self, dets: &[DetectorId], ws: &mut DecodeWorkspace) -> DecodeOutcome {
        if dets.len() <= MAX_HW {
            return self.astrea.decode_with(dets, ws);
        }
        let (pre_obs, pre_weight) = self.promatch.predecode_with(dets, ws);
        let pre = *self.promatch.last_stats();
        let failure = |latency_ns: f64| DecodeOutcome {
            latency_ns: Some(latency_ns),
            ..DecodeOutcome::failure()
        };
        if pre.aborted {
            return failure(TIME_BUDGET_NS);
        }
        // The remainder is Astrea's input while the rest of `ws` is its
        // scratch: take the list out for the call.
        let remaining = std::mem::take(&mut ws.remaining);
        let main = self.astrea.decode_with(&remaining, ws);
        ws.remaining = remaining;
        let total_ns = pre.predecode_ns + main.latency_ns.unwrap_or(0.0);
        if main.failed || total_ns > TIME_BUDGET_NS {
            return failure(total_ns.min(TIME_BUDGET_NS));
        }
        let mut matches = Vec::with_capacity(ws.pairs.len() + main.matches.len());
        matches.extend(ws.pairs.iter().map(|&(a, b)| MatchPair {
            a,
            b: MatchTarget::Detector(b),
        }));
        matches.extend_from_slice(&main.matches);
        DecodeOutcome {
            obs_flip: pre_obs ^ main.obs_flip,
            weight: main.weight.map(|w| w + pre_weight),
            latency_ns: Some(total_ns),
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

    fn fixture(d: u32) -> (qsim::DetectorErrorModel, DecodingGraph) {
        let code = RotatedSurfaceCode::new(d);
        let circuit = code.memory_z_circuit(d, &NoiseModel::uniform(1e-3));
        let dem = extract_dem(&circuit);
        let graph = DecodingGraph::from_dem(&dem);
        (dem, graph)
    }

    #[test]
    #[should_panic(expected = "exceeds Astrea's reach of 10")]
    fn rejects_a_main_max_hw_beyond_astreas_reach() {
        let (_, graph) = fixture(3);
        let paths = PathTable::build(&graph);
        let config = PromatchConfig {
            main_max_hw: 11,
            ..Default::default()
        };
        PromatchAstreaDecoder::with_config(&graph, &paths, config);
    }

    #[test]
    fn low_hw_goes_straight_to_astrea() {
        let (dem, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let mut dec = PromatchAstreaDecoder::new(&graph, &paths);
        for e in dem.errors.iter().take(50) {
            let out = dec.decode(e.dets.as_slice());
            assert!(!out.failed);
            assert_eq!(out.obs_flip, e.obs);
        }
    }

    #[test]
    fn high_hw_is_decoded_within_budget() {
        let (dem, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let mut dec = PromatchAstreaDecoder::new(&graph, &paths);
        let mut rng = StdRng::seed_from_u64(81);
        let mut decoded_high = 0;
        for _ in 0..300 {
            let k = rng.gen_range(8..=16);
            let mech: Vec<usize> = (0..k).map(|_| rng.gen_range(0..dem.errors.len())).collect();
            let shot = dem.symptom_of(&mech);
            if shot.dets.len() <= 10 {
                continue;
            }
            let out = dec.decode(&shot.dets);
            if out.failed {
                continue;
            }
            decoded_high += 1;
            let l = out.latency_ns.unwrap();
            assert!(l <= 960.0, "latency {l} over budget");
        }
        assert!(decoded_high > 50, "most high-HW syndromes must decode");
    }

    #[test]
    fn accuracy_tracks_mwpm_on_pair_injections() {
        // Promatch+Astrea must agree with the truth on k=2 injected
        // mechanisms (all such syndromes are low-HW -> Astrea exact).
        let (dem, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let mut dec = PromatchAstreaDecoder::new(&graph, &paths);
        let mut rng = StdRng::seed_from_u64(82);
        for trial in 0..500 {
            let a = rng.gen_range(0..dem.errors.len());
            let b = rng.gen_range(0..dem.errors.len());
            if a == b {
                continue;
            }
            let shot = dem.symptom_of(&[a, b]);
            let out = dec.decode(&shot.dets);
            assert!(!out.failed, "trial {trial}");
            assert_eq!(out.obs_flip, shot.obs, "trial {trial}");
        }
    }

    #[test]
    fn weight_never_beats_mwpm() {
        let (dem, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let mut dec = PromatchAstreaDecoder::new(&graph, &paths);
        let mut mw = MwpmDecoder::new(&graph, &paths);
        let mut rng = StdRng::seed_from_u64(83);
        for _ in 0..200 {
            let k = rng.gen_range(2..=14);
            let mech: Vec<usize> = (0..k).map(|_| rng.gen_range(0..dem.errors.len())).collect();
            let shot = dem.symptom_of(&mech);
            let ours = dec.decode(&shot.dets);
            if ours.failed {
                continue;
            }
            let ideal = mw.decode(&shot.dets);
            assert!(
                ours.weight.unwrap() >= ideal.weight.unwrap(),
                "combined decoder beat exact MWPM"
            );
        }
    }

    #[test]
    fn latency_composition_matches_parts() {
        let (dem, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let mut rng = StdRng::seed_from_u64(84);
        for _ in 0..100 {
            let k = rng.gen_range(10..=18);
            let mech: Vec<usize> = (0..k).map(|_| rng.gen_range(0..dem.errors.len())).collect();
            let shot = dem.symptom_of(&mech);
            if shot.dets.len() <= 10 {
                continue;
            }
            let mut dec = PromatchAstreaDecoder::new(&graph, &paths);
            let out = dec.decode(&shot.dets);
            if out.failed {
                continue;
            }
            let stats = *dec.last_predecode_stats();
            // Remaining HW after predecoding = dets - 2*pairs.
            let astrea_part =
                AstreaDecoder::new(&graph, &paths).latency_ns(shot.dets.len() - 2 * stats.pairs);
            assert!((out.latency_ns.unwrap() - (stats.predecode_ns + astrea_part)).abs() < 1e-9);
            return;
        }
    }
}
