//! The run-level oracle shared by the packed and zero-copy equivalence
//! suites.

use promatch_repro::decoding_graph::{DecodingGraph, LayerMap, WindowCache};
use promatch_repro::ler::DecoderKind;
use promatch_repro::qsim::Circuit;
use promatch_repro::realtime::{
    fallback_latency_model, service_ns, simulate_backlog, SlidingWindowDecoder, StreamRunConfig,
    StreamRunResult, SyndromeStream, WindowTiming,
};
use std::sync::Arc;

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
