//! Decoder composition: `predecoder + main` and `A ‖ B`.

use decoding_graph::{
    DecodeOutcome, DecodeWorkspace, Decoder, DetectorId, MatchPair, MatchTarget, Predecoder,
};

/// Comparison overhead of a parallel (`A ‖ B`) composition: the 10 cycles
/// at 250 MHz the paper reserves for comparing the two solutions (§6.4).
/// Re-exported from the workspace-wide latency module so no decoder
/// hard-codes nanoseconds locally.
pub use decoding_graph::latency::COMPARISON_OVERHEAD_NS;

/// The Hamming weight above which a predecoder engages: the largest
/// syndrome Astrea decodes in real time on its own ([`astrea::MAX_HW`]),
/// per the paper's evaluation methodology.
pub const ENGAGE_ABOVE_HW: usize = astrea::MAX_HW;

/// `predecoder + main decoder` composition.
///
/// The predecoder engages only for syndromes whose Hamming weight
/// exceeds [`ENGAGE_ABOVE_HW`]; anything smaller goes straight to the
/// main decoder, which handles it in real time.
#[derive(Clone, Debug)]
pub struct PipelineDecoder<P, D> {
    pre: P,
    main: D,
}

impl<P: Predecoder, D: Decoder> PipelineDecoder<P, D> {
    /// Composes `pre + main` with the paper's HW > 10 engagement rule.
    pub fn new(pre: P, main: D) -> Self {
        PipelineDecoder { pre, main }
    }

    /// Access to the inner predecoder (for stats collection).
    pub fn predecoder(&mut self) -> &mut P {
        &mut self.pre
    }

    /// Predecodes above the engagement threshold, then hands what is
    /// left to the main decoder through `solve`.
    fn run(
        &mut self,
        dets: &[DetectorId],
        mut solve: impl FnMut(&mut D, &[DetectorId]) -> DecodeOutcome,
    ) -> DecodeOutcome {
        if dets.len() <= ENGAGE_ABOVE_HW {
            return solve(&mut self.main, dets);
        }
        let pre = self.pre.predecode(dets);
        if pre.aborted {
            return DecodeOutcome::failure();
        }
        let mut main_out = solve(&mut self.main, &pre.remaining);
        // A software main decoder (latency None) keeps the pipeline's
        // latency unknown: predecode-only nanoseconds would misrepresent
        // the composition as hardware-fast, and harnesses (the realtime
        // backlog simulator) fall back to their software models on None.
        let latency = main_out.latency_ns.map(|m| pre.latency_ns + m);
        if main_out.failed {
            return DecodeOutcome {
                obs_flip: 0,
                weight: None,
                latency_ns: latency,
                failed: true,
                matches: Vec::new(),
            };
        }
        let mut matches: Vec<MatchPair> = pre
            .pairs
            .iter()
            .map(|&(a, b)| MatchPair {
                a,
                b: MatchTarget::Detector(b),
            })
            .collect();
        matches.extend(pre.boundary_matches.iter().map(|&a| MatchPair {
            a,
            b: MatchTarget::Boundary,
        }));
        matches.append(&mut main_out.matches);
        DecodeOutcome {
            obs_flip: pre.obs_flip ^ main_out.obs_flip,
            weight: main_out.weight.map(|w| w + pre.weight),
            latency_ns: latency,
            failed: false,
            matches,
        }
    }
}

impl<P: Predecoder, D: Decoder> Decoder for PipelineDecoder<P, D> {
    fn decode(&mut self, dets: &[DetectorId]) -> DecodeOutcome {
        self.run(dets, |main, dets| main.decode(dets))
    }

    fn decode_with(&mut self, dets: &[DetectorId], ws: &mut DecodeWorkspace) -> DecodeOutcome {
        self.run(dets, |main, dets| main.decode_with(dets, ws))
    }
}

/// Parallel composition `A ‖ B`: both decoders run on the same syndrome
/// and the lower-weight valid solution wins.
#[derive(Clone, Debug)]
pub struct ParallelDecoder<A, B> {
    a: A,
    b: B,
}

impl<A: Decoder, B: Decoder> ParallelDecoder<A, B> {
    /// Composes `a ‖ b`.
    pub fn new(a: A, b: B) -> Self {
        ParallelDecoder { a, b }
    }

    /// Access to the first inner decoder.
    pub fn first(&mut self) -> &mut A {
        &mut self.a
    }

    /// Access to the second inner decoder.
    pub fn second(&mut self) -> &mut B {
        &mut self.b
    }
}

/// The `‖` select: the lower-weight valid solution, at the slower arm's
/// latency plus the comparison.
fn select(out_a: DecodeOutcome, out_b: DecodeOutcome) -> DecodeOutcome {
    let a_wins = match (out_a.failed, out_b.failed) {
        (true, true) => return DecodeOutcome::failure(),
        (false, false) => {
            // Lower total weight wins; ties go to A.
            out_a.weight.unwrap_or(i64::MAX) <= out_b.weight.unwrap_or(i64::MAX)
        }
        (_, b_failed) => b_failed,
    };
    let la = out_a.latency_ns.unwrap_or(0.0);
    let lb = out_b.latency_ns.unwrap_or(0.0);
    DecodeOutcome {
        latency_ns: Some(la.max(lb) + COMPARISON_OVERHEAD_NS),
        ..if a_wins { out_a } else { out_b }
    }
}

impl<A: Decoder, B: Decoder> Decoder for ParallelDecoder<A, B> {
    fn decode(&mut self, dets: &[DetectorId]) -> DecodeOutcome {
        select(self.a.decode(dets), self.b.decode(dets))
    }

    fn decode_with(&mut self, dets: &[DetectorId], ws: &mut DecodeWorkspace) -> DecodeOutcome {
        let out_a = self.a.decode_with(dets, ws);
        let out_b = self.b.decode_with(dets, ws);
        select(out_a, out_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CliquePredecoder, SmithPredecoder};
    use astrea::AstreaDecoder;
    use decoding_graph::{DecodingGraph, PathTable};
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

    fn random_syndrome(rng: &mut StdRng, nd: usize, hw: usize) -> Vec<u32> {
        let mut pool: Vec<u32> = (0..nd as u32).collect();
        for i in 0..hw {
            let j = rng.gen_range(i..nd);
            pool.swap(i, j);
        }
        let mut dets = pool[..hw].to_vec();
        dets.sort_unstable();
        dets
    }

    #[test]
    fn pipeline_skips_predecoding_at_low_hw() {
        let (_, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let astrea = AstreaDecoder::new(&graph, &paths);
        let smith = SmithPredecoder::new(&graph);
        let mut pipe = PipelineDecoder::new(smith, astrea);
        let mut rng = StdRng::seed_from_u64(61);
        let dets = random_syndrome(&mut rng, graph.num_detectors() as usize, 6);
        let out = pipe.decode(&dets);
        assert!(!out.failed);
        // Latency equals Astrea's HW=6 latency: no predecode pass charged.
        let astrea_alone = AstreaDecoder::new(&graph, &paths).latency_ns(6);
        assert_eq!(out.latency_ns, Some(astrea_alone));
    }

    #[test]
    fn smith_plus_astrea_fails_when_coverage_is_insufficient() {
        // A syndrome of >10 pairwise-nonadjacent detectors: Smith cannot
        // reduce it, Astrea cannot decode it -> failure.
        let (_, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let astrea = AstreaDecoder::new(&graph, &paths);
        let smith = SmithPredecoder::new(&graph);
        let mut pipe = PipelineDecoder::new(smith, astrea);
        // Greedily build an independent set of 12 detectors.
        let mut independent: Vec<u32> = Vec::new();
        for d in 0..graph.num_detectors() {
            if independent
                .iter()
                .all(|&x| graph.edge_between(x, d).is_none())
            {
                independent.push(d);
                if independent.len() == 12 {
                    break;
                }
            }
        }
        assert_eq!(independent.len(), 12);
        let out = pipe.decode(&independent);
        assert!(out.failed, "uncovered high-HW syndrome must fail");
    }

    #[test]
    fn clique_plus_astrea_fails_on_nontrivial_high_hw() {
        let (_, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let astrea = AstreaDecoder::new(&graph, &paths);
        let clique = CliquePredecoder::new(&graph);
        let mut pipe = PipelineDecoder::new(clique, astrea);
        let mut rng = StdRng::seed_from_u64(62);
        // Random 14-detector syndromes are essentially never all-trivial.
        let dets = random_syndrome(&mut rng, graph.num_detectors() as usize, 14);
        let out = pipe.decode(&dets);
        assert!(out.failed, "Clique forwards; Astrea rejects HW > 10");
    }

    #[test]
    fn pipeline_composes_obs_and_weight() {
        // Predecoder output must XOR/add with the main decoder's.
        let (dem, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let mut rng = StdRng::seed_from_u64(63);
        // Sample syndromes until one engages predecoding (HW > 10).
        for _ in 0..200 {
            let mech: Vec<usize> = (0..8).map(|_| rng.gen_range(0..dem.errors.len())).collect();
            let shot = dem.symptom_of(&mech);
            if shot.dets.len() <= 10 {
                continue;
            }
            let smith = SmithPredecoder::new(&graph);
            let astrea = AstreaDecoder::new(&graph, &paths);
            let mut pipe = PipelineDecoder::new(smith, astrea);
            let out = pipe.decode(&shot.dets);
            if out.failed {
                continue;
            }
            // Reconstruct by hand.
            let mut smith2 = SmithPredecoder::new(&graph);
            let pre = smith2.predecode(&shot.dets);
            let mut astrea2 = AstreaDecoder::new(&graph, &paths);
            let main = astrea2.decode(&pre.remaining);
            assert_eq!(out.obs_flip, pre.obs_flip ^ main.obs_flip);
            assert_eq!(out.weight, main.weight.map(|w| w + pre.weight));
            return;
        }
        panic!("no engaging syndrome found");
    }

    #[test]
    fn parallel_picks_lower_weight_solution() {
        let (_, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let mwpm = MwpmDecoder::new(&graph, &paths);
        let astrea = AstreaDecoder::new(&graph, &paths);
        let mut par = ParallelDecoder::new(astrea, mwpm);
        let mut rng = StdRng::seed_from_u64(64);
        let dets = random_syndrome(&mut rng, graph.num_detectors() as usize, 8);
        let out = par.decode(&dets);
        // Both are exact here, so the result must equal MWPM's weight.
        let mut alone = MwpmDecoder::new(&graph, &paths);
        assert_eq!(out.weight, alone.decode(&dets).weight);
    }

    #[test]
    fn parallel_falls_back_when_one_side_fails() {
        let (_, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        // Astrea fails above HW 10; MWPM succeeds.
        let astrea = AstreaDecoder::new(&graph, &paths);
        let mwpm = MwpmDecoder::new(&graph, &paths);
        let mut par = ParallelDecoder::new(astrea, mwpm);
        let mut rng = StdRng::seed_from_u64(65);
        let dets = random_syndrome(&mut rng, graph.num_detectors() as usize, 14);
        let out = par.decode(&dets);
        assert!(!out.failed);
        let mut alone = MwpmDecoder::new(&graph, &paths);
        assert_eq!(out.obs_flip, alone.decode(&dets).obs_flip);
    }

    #[test]
    fn software_main_keeps_pipeline_latency_unknown() {
        // Clique + MWPM on an engaging (HW > 10) syndrome: MWPM reports
        // no hardware latency, so the pipeline must report None rather
        // than the predecoder's lone nanoseconds (harnesses would
        // otherwise price a software decode at one match-unit cycle).
        let (_, graph) = fixture(5);
        let paths = PathTable::build(&graph);
        let mut pipe = PipelineDecoder::new(
            CliquePredecoder::new(&graph),
            MwpmDecoder::new(&graph, &paths),
        );
        let mut rng = StdRng::seed_from_u64(66);
        let dets = random_syndrome(&mut rng, graph.num_detectors() as usize, 14);
        let out = pipe.decode(&dets);
        assert!(!out.failed);
        assert_eq!(out.latency_ns, None);
    }

    #[test]
    fn parallel_charges_comparison_overhead() {
        let (_, graph) = fixture(3);
        let paths = PathTable::build(&graph);
        let a1 = AstreaDecoder::new(&graph, &paths);
        let a2 = AstreaDecoder::new(&graph, &paths);
        let mut par = ParallelDecoder::new(a1, a2);
        let bd_det = graph
            .edges()
            .iter()
            .find(|e| e.u == graph.boundary_node() || e.v == graph.boundary_node())
            .map(|e| {
                if e.u == graph.boundary_node() {
                    e.v
                } else {
                    e.u
                }
            })
            .unwrap();
        let out = par.decode(&[bd_det]);
        let single = AstreaDecoder::new(&graph, &paths).latency_ns(1);
        assert_eq!(out.latency_ns, Some(single + COMPARISON_OVERHEAD_NS));
    }
}
