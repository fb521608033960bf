//! Zero-copy ingest equivalence suite.
//!
//! The arena-backed ingest fuses the copies a round used to make —
//! sampler → sparse shot list → window extraction → decoder repack —
//! into one bit-packed round buffer: the sampler transposes straight
//! into the stream's arena, [`SyndromeStream::next_shot_packed`] hands
//! out a borrowed word view, and
//! [`SlidingWindowDecoder::decode_shot_packed_into`] consumes the view
//! in place. These tests pin the fused path to the sparse reference
//! path ([`SlidingWindowDecoder::decode_shot_reference`]) at every
//! fusion seam:
//!
//! * whole-`StreamRunResult` equality of `run_stream` (the arena path)
//!   against the reference replay of the same stream for **all**
//!   Table-2 decoders × all tested `(window, commit)` splits × both
//!   predecode modes (release-gated proptest, random seeds);
//! * stream-level equality of `next_shot_packed` views against
//!   `next_shot` sparse shots across arena-refill boundaries (ungated);
//! * per-shot equality of `decode_shot_packed_into` fed from live arena
//!   views against the reference decoder fed sparse detectors (ungated);
//! * per-shot equality of `decode_shot` on frame-sampled shots against
//!   the reference decoder, window records included (ungated).
//!
//! CI runs the release suite at `PROMATCH_THREADS=1` and `=4`.

mod common;

use common::{ctx, reference_run, stream_cfg, SPLITS};
use promatch_repro::decoding_graph::packed::for_each_set_bit;
use promatch_repro::decoding_graph::{LayerMap, SeamPolicy, WindowCache};
use promatch_repro::ler::DecoderKind;
use promatch_repro::qsim::FrameSampler;
use promatch_repro::realtime::{
    run_stream, Instruments, PredecodeMode, SlidingWindowDecoder, SyndromeStream, WindowConfig,
    WindowedOutcome,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exhaustive fused-path equivalence: for one random seed, *every*
    /// Table-2 decoder × split × predecode mode produces an arena-ingest
    /// run equal to the reference replay structure for structure —
    /// failures, L1/escalation counters, and the whole per-window
    /// backlog trace.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "statistical suite runs in release (see CI)"
    )]
    fn arena_stream_runs_match_the_reference_replay_everywhere(
        seed in 0u64..1 << 20,
    ) {
        let ctx = ctx();
        let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
        for split in SPLITS {
            for predecode in [PredecodeMode::Off, PredecodeMode::Batch] {
                let cfg = stream_cfg(split, predecode, seed, 16);
                for kind in DecoderKind::table2() {
                    let want = reference_run(&ctx.graph, &ctx.circuit, kind, &cfg, &cache);
                    let got = run_stream(
                        &ctx.graph,
                        &ctx.circuit,
                        kind,
                        &cfg,
                        &cache,
                        Instruments::default(),
                    );
                    prop_assert_eq!(
                        &want, &got,
                        "{}: fused arena path diverges (w={}, c={}, {:?}, seed {})",
                        kind.label(), split.0, split.1, predecode, seed
                    );
                }
            }
        }
    }
}

/// The packed view and the sparse shot are two reads of the same arena
/// row: identical seeds yield identical syndromes and observables, shot
/// for shot, across arena-refill boundaries (the stream refills every
/// 256 shots). Ungated so `--test zerocopy` checks the seam in debug
/// builds too.
#[test]
fn packed_views_match_sparse_shots_across_refills() {
    let ctx = ctx();
    let layers = LayerMap::from_graph(&ctx.graph).unwrap();
    let mut sparse_stream = SyndromeStream::new(&ctx.circuit, layers.clone(), 0x2EC0);
    let mut packed_stream = SyndromeStream::new(&ctx.circuit, layers, 0x2EC0);
    let mut unpacked = Vec::new();
    // 2 refills + a partial third (the refill chunk is 256 shots).
    for shot_idx in 0..600u32 {
        let sparse = sparse_stream.next_shot();
        let packed = packed_stream.next_shot_packed();
        assert_eq!(sparse.obs, packed.obs, "shot {shot_idx}: obs diverge");
        unpacked.clear();
        for_each_set_bit(packed.words, |d| unpacked.push(d as u32));
        assert_eq!(sparse.dets, unpacked, "shot {shot_idx}: syndromes diverge");
    }
}

/// Zero-copy decode ingest: `decode_shot_packed_into` fed live arena
/// views commits exactly what the byte-per-detector reference path
/// commits from the sparse reads of an identically seeded stream.
/// Ungated.
#[test]
fn packed_into_outcomes_match_byte_outcomes_shot_by_shot() {
    let ctx = ctx();
    let layers = LayerMap::from_graph(&ctx.graph).unwrap();
    for (window, commit) in SPLITS {
        let cfg = WindowConfig::new(window, commit).unwrap();
        for predecode in [PredecodeMode::Off, PredecodeMode::Batch] {
            for kind in [
                DecoderKind::UnionFind,
                DecoderKind::Mwpm,
                DecoderKind::AstreaG,
            ] {
                let mut sparse_stream = SyndromeStream::new(&ctx.circuit, layers.clone(), 0xA12E);
                let mut packed_stream = SyndromeStream::new(&ctx.circuit, layers.clone(), 0xA12E);
                let decoder = || {
                    SlidingWindowDecoder::new(&ctx.graph, layers.clone(), kind, cfg)
                        .with_predecode(predecode)
                };
                let (mut reference, mut packed) = (decoder(), decoder());
                let mut out = WindowedOutcome::default();
                for shot_idx in 0..24 {
                    let sparse = sparse_stream.next_shot();
                    let view = packed_stream.next_shot_packed();
                    let want = reference.decode_shot_reference(&sparse.dets);
                    packed.decode_shot_packed_into(view.words, &mut out);
                    assert_eq!(
                        want,
                        out,
                        "{}: shot {shot_idx} diverges (w={window}, c={commit}, {predecode:?})",
                        kind.label()
                    );
                }
            }
        }
    }
}

/// Per-shot equivalence on naturally sampled syndromes: the packed
/// path's [`WindowedOutcome`]s — window records included — equal those
/// of the byte-per-detector reference path, shot by shot. Ungated so
/// `--test zerocopy` exercises the packed kernels in debug builds too.
///
/// [`WindowedOutcome`]: promatch_repro::realtime::WindowedOutcome
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
                let decoder = || {
                    SlidingWindowDecoder::new(&ctx.graph, layers.clone(), kind, cfg)
                        .with_predecode(predecode)
                };
                let (mut reference, mut packed) = (decoder(), decoder());
                for (i, shot) in sampled.iter().enumerate() {
                    let want = reference.decode_shot_reference(&shot.dets);
                    let got = packed.decode_shot(&shot.dets);
                    assert_eq!(
                        want,
                        got,
                        "{}: shot {i} diverges (w={window}, c={commit}, {predecode:?})",
                        kind.label()
                    );
                }
            }
        }
    }
}
