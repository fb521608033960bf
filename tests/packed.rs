//! Packed-datapath equivalence suite.
//!
//! The bit-packed window hot loop ([`Datapath::Packed`]) must be
//! bit-identical to the byte-per-detector reference path
//! ([`Datapath::Byte`]) — same committed corrections, same failure
//! flags, same per-window records, same predecoder counters — for every
//! Table-2 decoder, every tested `(window, commit)` split, and both
//! predecode modes. Equality is asserted on whole result structures, so
//! any divergence (a mis-rebased word seam, a dropped high bit, a
//! cancellation stride bug) fails loudly rather than washing out in an
//! aggregate.
//!
//! CI runs this suite in release at `PROMATCH_THREADS=1` and `=4`, and
//! once more under `RUSTFLAGS="-C target-cpu=native"` so the AVX2
//! kernels are the code under test, not just the scalar fallbacks.

use promatch_repro::decoding_graph::{LayerMap, SeamPolicy, WindowCache};
use promatch_repro::ler::{DecoderKind, ExperimentContext};
use promatch_repro::qsim::FrameSampler;
use promatch_repro::realtime::{
    run_stream, BacklogConfig, Datapath, Instruments, PredecodeMode, SlidingWindowDecoder,
    StreamRunConfig, WindowConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// The shared d = 3, 9-round context (10 detector layers), matching the
/// realtime equivalence suite.
fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::with_rounds(3, 9, 1e-3))
}

/// The `(window, commit)` splits exercised, including the degenerate
/// whole-shot window.
const SPLITS: [(u32, u32); 4] = [(4, 2), (5, 3), (6, 3), (10, 10)];

/// One streaming config, identical across datapaths except for the path
/// under test.
fn stream_cfg(
    datapath: Datapath,
    (window, commit): (u32, u32),
    predecode: PredecodeMode,
    seed: u64,
    shots: usize,
) -> StreamRunConfig {
    StreamRunConfig {
        shots,
        seed,
        window: WindowConfig::new(window, commit).unwrap(),
        backlog: BacklogConfig::with_commit_deadline(1000.0, commit),
        predecode,
        datapath,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Full-run equivalence: for every Table-2 decoder, a packed stream
    /// run equals the byte reference run structure-for-structure —
    /// failures, L1/escalation counters, and the whole per-window
    /// backlog trace.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "statistical suite runs in release (see CI)"
    )]
    fn packed_stream_runs_match_byte_reference(
        split_pick in 0usize..SPLITS.len(),
        predecode_batch in any::<bool>(),
        seed in 0u64..1 << 20,
    ) {
        let ctx = ctx();
        let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
        let split = SPLITS[split_pick];
        let predecode = if predecode_batch {
            PredecodeMode::Batch
        } else {
            PredecodeMode::Off
        };
        for kind in DecoderKind::table2() {
            let byte = run_stream(
                &ctx.graph,
                &ctx.circuit,
                kind,
                &stream_cfg(Datapath::Byte, split, predecode, seed, 16),
                &cache,
                Instruments::default(),
            );
            let packed = run_stream(
                &ctx.graph,
                &ctx.circuit,
                kind,
                &stream_cfg(Datapath::Packed, split, predecode, seed, 16),
                &cache,
                Instruments::default(),
            );
            prop_assert_eq!(
                &byte, &packed,
                "{}: datapaths diverge (w={}, c={}, {:?}, seed {})",
                kind.label(), split.0, split.1, predecode, seed
            );
        }
    }
}

/// Per-shot equivalence on naturally sampled syndromes: the two
/// datapaths' [`WindowedOutcome`]s — window records included — are
/// identical shot by shot. Ungated so `--test packed` exercises the
/// packed kernels in debug builds too.
#[test]
fn packed_outcomes_match_byte_outcomes_shot_by_shot() {
    let ctx = ctx();
    let layers = LayerMap::from_graph(&ctx.graph).unwrap();
    let mut rng = StdRng::seed_from_u64(0xB17);
    let sampled = FrameSampler::new(&ctx.circuit).sample_shots(48, &mut rng);
    for (window, commit) in SPLITS {
        let cfg = WindowConfig::new(window, commit).unwrap();
        for predecode in [PredecodeMode::Off, PredecodeMode::Batch] {
            for kind in [
                DecoderKind::UnionFind,
                DecoderKind::Mwpm,
                DecoderKind::AstreaG,
            ] {
                let mut byte = SlidingWindowDecoder::new(&ctx.graph, layers.clone(), kind, cfg)
                    .with_predecode(predecode)
                    .with_datapath(Datapath::Byte);
                let mut packed = SlidingWindowDecoder::new(&ctx.graph, layers.clone(), kind, cfg)
                    .with_predecode(predecode)
                    .with_datapath(Datapath::Packed);
                for (i, shot) in sampled.iter().enumerate() {
                    let b = byte.decode_shot(&shot.dets);
                    let p = packed.decode_shot(&shot.dets);
                    assert_eq!(
                        b,
                        p,
                        "{}: shot {i} diverges (w={window}, c={commit}, {predecode:?})",
                        kind.label()
                    );
                }
            }
        }
    }
}
