//! Experiment context: everything one `(d, p)` configuration needs.

use astrea::{AstreaDecoder, AstreaGDecoder};
use decoding_graph::{Decoder, DecodingGraph, PathTable};
use mwpm::MwpmDecoder;
use predecoders::{CliquePredecoder, ParallelDecoder, PipelineDecoder, SmithPredecoder};
use promatch::{PromatchAstreaDecoder, PromatchConfig};
use qsim::circuit::Circuit;
use qsim::dem::DetectorErrorModel;
use std::sync::OnceLock;
use surface_code::{MemoryBasis, NoiseModel, RotatedSurfaceCode};
use unionfind::UnionFindDecoder;

/// Every decoder configuration appearing in the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecoderKind {
    /// Idealized (non-real-time) MWPM — the gold standard.
    Mwpm,
    /// Astrea alone (fails above HW 10).
    Astrea,
    /// Astrea-G alone.
    AstreaG,
    /// Union-find (the AFS baseline of Figure 4).
    UnionFind,
    /// Promatch + Astrea (the paper's real-time decoder).
    PromatchAstrea,
    /// (Promatch + Astrea) ‖ Astrea-G — the headline configuration.
    PromatchParAg,
    /// Smith et al. + Astrea.
    SmithAstrea,
    /// (Smith + Astrea) ‖ Astrea-G.
    SmithParAg,
    /// Clique + Astrea (NSM forwarding into the brute-force engine).
    CliqueAstrea,
    /// Clique + Astrea-G.
    CliqueAg,
    /// Clique + MWPM (the Figure 4 curve).
    CliqueMwpm,
}

impl DecoderKind {
    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            DecoderKind::Mwpm => "MWPM (Ideal)",
            DecoderKind::Astrea => "Astrea",
            DecoderKind::AstreaG => "Astrea-G (AG)",
            DecoderKind::UnionFind => "AFS (Union-Find)",
            DecoderKind::PromatchAstrea => "Promatch + Astrea",
            DecoderKind::PromatchParAg => "Promatch || AG",
            DecoderKind::SmithAstrea => "Smith + Astrea",
            DecoderKind::SmithParAg => "Smith || AG",
            DecoderKind::CliqueAstrea => "Clique + Astrea",
            DecoderKind::CliqueAg => "Clique + AG",
            DecoderKind::CliqueMwpm => "Clique + MWPM",
        }
    }

    /// All kinds in Table 2 order.
    pub fn table2() -> [DecoderKind; 6] {
        [
            DecoderKind::Mwpm,
            DecoderKind::PromatchParAg,
            DecoderKind::PromatchAstrea,
            DecoderKind::AstreaG,
            DecoderKind::SmithParAg,
            DecoderKind::SmithAstrea,
        ]
    }

    /// Every decoder configuration, in stable wire-code order.
    pub const ALL: [DecoderKind; 11] = [
        DecoderKind::Mwpm,
        DecoderKind::Astrea,
        DecoderKind::AstreaG,
        DecoderKind::UnionFind,
        DecoderKind::PromatchAstrea,
        DecoderKind::PromatchParAg,
        DecoderKind::SmithAstrea,
        DecoderKind::SmithParAg,
        DecoderKind::CliqueAstrea,
        DecoderKind::CliqueAg,
        DecoderKind::CliqueMwpm,
    ];

    /// Stable single-byte code for wire protocols and artifacts. Codes
    /// are append-only: existing assignments never change meaning.
    pub fn code(self) -> u8 {
        DecoderKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("every kind is in ALL") as u8
    }

    /// Inverse of [`DecoderKind::code`].
    pub fn from_code(code: u8) -> Option<DecoderKind> {
        DecoderKind::ALL.get(code as usize).copied()
    }

    /// Stable kebab-case key for CLIs and config files.
    pub fn key(self) -> &'static str {
        match self {
            DecoderKind::Mwpm => "mwpm",
            DecoderKind::Astrea => "astrea",
            DecoderKind::AstreaG => "astrea-g",
            DecoderKind::UnionFind => "union-find",
            DecoderKind::PromatchAstrea => "promatch-astrea",
            DecoderKind::PromatchParAg => "promatch-par-ag",
            DecoderKind::SmithAstrea => "smith-astrea",
            DecoderKind::SmithParAg => "smith-par-ag",
            DecoderKind::CliqueAstrea => "clique-astrea",
            DecoderKind::CliqueAg => "clique-ag",
            DecoderKind::CliqueMwpm => "clique-mwpm",
        }
    }

    /// Parses a [`DecoderKind::key`] string.
    pub fn parse(key: &str) -> Option<DecoderKind> {
        DecoderKind::ALL.iter().copied().find(|k| k.key() == key)
    }
}

/// A fully-built experiment configuration.
///
/// Owns the circuit, detector error model, decoding graph, and (built
/// on first use) the full-graph path table; decoders borrow from it, so
/// the context must outlive them.
#[derive(Clone, Debug)]
pub struct ExperimentContext {
    /// Code distance.
    pub distance: u32,
    /// Physical error rate of the uniform noise model.
    pub physical_error_rate: f64,
    /// Syndrome-extraction rounds (`d` throughout the paper).
    pub rounds: u32,
    /// The memory-Z circuit.
    pub circuit: Circuit,
    /// The extracted detector error model.
    pub dem: DetectorErrorModel,
    /// The decoding graph.
    pub graph: DecodingGraph,
    /// All-pairs shortest-path data over the whole graph. Created on
    /// first call — the window engine and the decode service only ever
    /// read per-window tables — and filled a source row at a time from
    /// then on (≈ 5.4 MB at d = 13 once every row has been asked).
    paths: OnceLock<PathTable>,
}

impl ExperimentContext {
    /// Builds the standard `d`-round memory-Z configuration at physical
    /// error rate `p` (the paper's experiment).
    pub fn new(distance: u32, p: f64) -> Self {
        Self::with_rounds(distance, distance, p)
    }

    /// Builds a configuration with an explicit round count.
    pub fn with_rounds(distance: u32, rounds: u32, p: f64) -> Self {
        Self::with_basis(MemoryBasis::Z, distance, rounds, p)
    }

    /// Builds a configuration for either memory basis (the paper uses Z
    /// only, footnote 4; X is the symmetric experiment).
    pub fn with_basis(basis: MemoryBasis, distance: u32, rounds: u32, p: f64) -> Self {
        Self::with_noise(basis, distance, rounds, &NoiseModel::uniform(p), p)
    }

    /// Builds a configuration under an arbitrary noise model — the entry
    /// point for scenario studies (circuit-level SD6, biased idling,
    /// custom ablations). `p` is the scenario's nominal physical error
    /// rate, recorded for reporting; the channels actually applied come
    /// entirely from `noise`.
    ///
    /// # Panics
    ///
    /// Panics if `noise` fails validation.
    pub fn with_noise(
        basis: MemoryBasis,
        distance: u32,
        rounds: u32,
        noise: &NoiseModel,
        p: f64,
    ) -> Self {
        noise.validate().expect("noise model must validate");
        let code = RotatedSurfaceCode::new(distance);
        let circuit = code.memory_circuit(basis, rounds, noise);
        let dem = qsim::extract_dem(&circuit);
        let graph = DecodingGraph::from_dem(&dem);
        ExperimentContext {
            distance,
            physical_error_rate: p,
            rounds,
            circuit,
            dem,
            graph,
            paths: OnceLock::new(),
        }
    }

    /// All-pairs shortest-path data over the whole graph, created on
    /// first call; its rows fill as decoders ask.
    pub fn paths(&self) -> &PathTable {
        self.paths.get_or_init(|| PathTable::build(&self.graph))
    }

    /// Instantiates a decoder of the given kind, borrowing this context.
    pub fn decoder(&self, kind: DecoderKind) -> Box<dyn Decoder + Send + '_> {
        build_decoder(kind, &self.graph, self.paths())
    }

    /// A Promatch + Astrea decoder with a custom Promatch configuration
    /// (used by the `repro ablate-*` experiments).
    pub fn promatch_with(&self, config: PromatchConfig) -> PromatchAstreaDecoder<'_> {
        PromatchAstreaDecoder::with_config(&self.graph, self.paths(), config)
    }
}

/// Instantiates a decoder of the given kind over a standalone graph and
/// path table — for callers that obtained their decoding problem from
/// somewhere other than a memory-experiment circuit (e.g. a `.dem`
/// fixture file).
pub fn build_decoder<'a>(
    kind: DecoderKind,
    graph: &'a DecodingGraph,
    paths: &'a PathTable,
) -> Box<dyn Decoder + Send + 'a> {
    match kind {
        DecoderKind::Mwpm => Box::new(MwpmDecoder::new(graph, paths)),
        DecoderKind::Astrea => Box::new(AstreaDecoder::new(graph, paths)),
        DecoderKind::AstreaG => Box::new(AstreaGDecoder::new(graph, paths)),
        DecoderKind::UnionFind => Box::new(UnionFindDecoder::new(graph)),
        DecoderKind::PromatchAstrea => Box::new(PromatchAstreaDecoder::new(graph, paths)),
        DecoderKind::PromatchParAg => Box::new(ParallelDecoder::new(
            PromatchAstreaDecoder::new(graph, paths),
            AstreaGDecoder::new(graph, paths),
        )),
        DecoderKind::SmithAstrea => Box::new(PipelineDecoder::new(
            SmithPredecoder::new(graph),
            AstreaDecoder::new(graph, paths),
        )),
        DecoderKind::SmithParAg => Box::new(ParallelDecoder::new(
            PipelineDecoder::new(
                SmithPredecoder::new(graph),
                AstreaDecoder::new(graph, paths),
            ),
            AstreaGDecoder::new(graph, paths),
        )),
        DecoderKind::CliqueAstrea => Box::new(PipelineDecoder::new(
            CliquePredecoder::new(graph),
            AstreaDecoder::new(graph, paths),
        )),
        DecoderKind::CliqueAg => Box::new(PipelineDecoder::new(
            CliquePredecoder::new(graph),
            AstreaGDecoder::new(graph, paths),
        )),
        DecoderKind::CliqueMwpm => Box::new(PipelineDecoder::new(
            CliquePredecoder::new(graph),
            MwpmDecoder::new(graph, paths),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_consistent_artifacts() {
        let ctx = ExperimentContext::new(3, 1e-3);
        assert_eq!(ctx.distance, 3);
        assert_eq!(ctx.rounds, 3);
        assert_eq!(ctx.circuit.num_detectors(), 16);
        assert_eq!(ctx.graph.num_detectors(), 16);
        assert_eq!(ctx.paths().num_detectors(), 16);
        assert!(ctx.dem.validate().is_ok());
    }

    #[test]
    fn every_decoder_kind_instantiates_and_decodes_empty() {
        let ctx = ExperimentContext::new(3, 1e-3);
        let kinds = [
            DecoderKind::Mwpm,
            DecoderKind::Astrea,
            DecoderKind::AstreaG,
            DecoderKind::UnionFind,
            DecoderKind::PromatchAstrea,
            DecoderKind::PromatchParAg,
            DecoderKind::SmithAstrea,
            DecoderKind::SmithParAg,
            DecoderKind::CliqueAstrea,
            DecoderKind::CliqueAg,
            DecoderKind::CliqueMwpm,
        ];
        for kind in kinds {
            let mut dec = ctx.decoder(kind);
            let out = dec.decode(&[]);
            assert!(!out.failed, "{}", kind.label());
            assert_eq!(out.obs_flip, 0, "{}", kind.label());
        }
    }

    #[test]
    fn decoders_correct_single_mechanisms() {
        let ctx = ExperimentContext::new(3, 1e-3);
        for kind in [
            DecoderKind::Mwpm,
            DecoderKind::PromatchAstrea,
            DecoderKind::PromatchParAg,
            DecoderKind::SmithParAg,
        ] {
            let mut dec = ctx.decoder(kind);
            for e in &ctx.dem.errors {
                let out = dec.decode(e.dets.as_slice());
                assert!(!out.failed, "{}", kind.label());
                assert_eq!(out.obs_flip, e.obs, "{}", kind.label());
            }
        }
    }

    #[test]
    fn with_noise_builds_circuit_level_scenarios() {
        let sd6 = ExperimentContext::with_noise(MemoryBasis::Z, 3, 3, &NoiseModel::sd6(1e-3), 1e-3);
        let uni = ExperimentContext::new(3, 1e-3);
        assert_eq!(sd6.circuit.num_detectors(), uni.circuit.num_detectors());
        // The idle channel adds error mass but keeps the DEM well-formed.
        assert!(sd6.dem.expected_error_count() > uni.dem.expected_error_count());
        assert!(sd6.dem.validate().is_ok());
        let mut dec = sd6.decoder(DecoderKind::Mwpm);
        for e in &sd6.dem.errors {
            let out = dec.decode(e.dets.as_slice());
            assert!(!out.failed);
            assert_eq!(out.obs_flip, e.obs);
        }
    }

    #[test]
    fn standalone_decoder_factory_matches_context_decoders() {
        // A decoder built from the context's own parts must behave
        // identically to one built through the context.
        let ctx = ExperimentContext::new(3, 1e-3);
        for kind in DecoderKind::table2() {
            let mut a = ctx.decoder(kind);
            let mut b = build_decoder(kind, &ctx.graph, ctx.paths());
            for e in ctx.dem.errors.iter().take(8) {
                assert_eq!(
                    a.decode(e.dets.as_slice()),
                    b.decode(e.dets.as_slice()),
                    "{}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<&str> = DecoderKind::table2().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn wire_codes_and_keys_round_trip() {
        use std::collections::HashSet;
        let mut codes = HashSet::new();
        let mut keys = HashSet::new();
        for kind in DecoderKind::ALL {
            assert_eq!(DecoderKind::from_code(kind.code()), Some(kind));
            assert_eq!(DecoderKind::parse(kind.key()), Some(kind));
            assert!(codes.insert(kind.code()), "{:?}", kind);
            assert!(keys.insert(kind.key()), "{:?}", kind);
        }
        assert_eq!(codes.len(), DecoderKind::ALL.len());
        assert_eq!(DecoderKind::from_code(200), None);
        assert_eq!(DecoderKind::parse("bogus"), None);
        // Code 0 is pinned to MWPM — the append-only contract's anchor.
        assert_eq!(DecoderKind::Mwpm.code(), 0);
    }
}
