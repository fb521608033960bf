//! Fixtures shared by the window-engine suites (packed, zero-copy,
//! predecode, realtime): the d = 3, 9-round context, the tested
//! `(window, commit)` splits, the commit-step and confined-mechanism
//! helpers, and the run-level oracle.

// Each suite compiles this module on its own and uses only some of it.
#![allow(dead_code)]

use promatch_repro::decoding_graph::{DecodingGraph, LayerMap, WindowCache};
use promatch_repro::ler::{DecoderKind, ExperimentContext};
use promatch_repro::qsim::Circuit;
use promatch_repro::realtime::{
    fallback_latency_model, service_ns, simulate_backlog, BacklogConfig, PredecodeMode,
    SlidingWindowDecoder, StreamRunConfig, StreamRunResult, SyndromeStream, WindowConfig,
    WindowTiming,
};
use std::sync::{Arc, OnceLock};

/// The shared d = 3, 9-round context (10 detector layers).
pub fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::with_rounds(3, 9, 1e-3))
}

/// The `(window, commit)` splits exercised, including the degenerate
/// whole-shot window.
pub const SPLITS: [(u32, u32); 4] = [(4, 2), (5, 3), (6, 3), (10, 10)];

/// A stream run of `shots` seeded shots over one `(window, commit)`
/// split, with the commit-period deadline at 1 µs rounds.
pub fn stream_cfg(
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
    }
}

/// The commit-step positions of a `(window, commit)` split over
/// `num_layers` layers (mirrors the sliding-window loop).
pub fn steps(window: u32, commit: u32, num_layers: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut s = 0u32;
    loop {
        let hi = (s + window).min(num_layers);
        let commit_end = if hi == num_layers {
            num_layers
        } else {
            s + commit
        };
        out.push((s, commit_end));
        if hi == num_layers {
            return out;
        }
        s += commit;
    }
}

/// DEM mechanisms of [`ctx`] whose defects sit strictly inside the
/// commit region of step `(s, commit_end)`, one layer clear of the
/// bottom seam.
pub fn confined_mechanisms(s: u32, commit_end: u32, layers: &LayerMap) -> Vec<usize> {
    let lo = if s == 0 { 0 } else { s + 1 };
    ctx()
        .dem
        .errors
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            e.dets.iter().all(|d| {
                let l = layers.layer_of(d);
                l >= lo && l < commit_end
            })
        })
        .map(|(i, _)| i)
        .collect()
}

/// What [`promatch_repro::realtime::run_stream`] must return, rebuilt
/// from the reference path: the same seeded stream, read as sparse
/// shots and decoded by
/// [`SlidingWindowDecoder::decode_shot_reference`], each window turned
/// into a [`WindowTiming`] the way `run_stream` does, and the backlog
/// simulated over them.
pub fn reference_run(
    graph: &DecodingGraph,
    circuit: &Circuit,
    kind: DecoderKind,
    cfg: &StreamRunConfig,
    cache: &Arc<WindowCache>,
) -> StreamRunResult {
    let layers = Arc::new(LayerMap::from_graph(graph).unwrap());
    let layers_per_shot = layers.num_layers();
    let mut stream = SyndromeStream::with_shared_layers(circuit, Arc::clone(&layers), cfg.seed);
    let mut swd =
        SlidingWindowDecoder::with_cache(graph, layers, kind, cfg.window, Arc::clone(cache))
            .with_predecode(cfg.predecode);
    let fallback = fallback_latency_model(kind);
    let mut timings = Vec::new();
    let (mut failures, mut decode_failures, mut l1_rounds, mut escalated_windows) = (0, 0, 0, 0);
    for shot_idx in 0..cfg.shots as u64 {
        let shot = stream.next_shot();
        let out = swd.decode_shot_reference(&shot.dets);
        decode_failures += u64::from(out.failed);
        failures += u64::from(out.failed || out.obs_flip != shot.obs);
        l1_rounds += out.l1_rounds();
        escalated_windows += out.escalated_windows();
        let base_round = shot_idx * layers_per_shot as u64;
        timings.extend(out.windows.iter().map(|w| WindowTiming {
            ready_round: base_round + w.hi_layer as u64,
            service_ns: service_ns(w.latency_ns, w.solver_hw, fallback.as_ref()),
        }));
    }
    StreamRunResult {
        shots: cfg.shots,
        layers_per_shot,
        failures,
        decode_failures,
        ler: if cfg.shots == 0 {
            0.0
        } else {
            failures as f64 / cfg.shots as f64
        },
        l1_rounds,
        escalated_windows,
        backlog: simulate_backlog(&timings, &cfg.backlog),
    }
}
