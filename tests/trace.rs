//! Integration tests of the causal flight recorder.
//!
//! Two guarantees, matching the PR's acceptance criteria:
//!
//! 1. **Trace purity (property test).** Arming the flight recorder on a
//!    streaming run never changes the decode outcome: for every Table-2
//!    decoder, with predecoding off and in batch mode, the traced run's
//!    [`StreamRunResult`] is bit-identical to the untraced run over the
//!    same shared window cache. Tracing is a side channel, not a
//!    participant.
//!
//! 2. **Export round-trip.** A traced run's dump survives
//!    `render_dump -> parse_dump` losslessly, the tenant/last filters
//!    behave, and the Chrome-trace export is well-formed JSON with
//!    monotonic per-shard tracks.

use promatch_repro::decoding_graph::{LayerMap, SeamPolicy, WindowCache};
use promatch_repro::ler::{DecoderKind, ExperimentContext};
use promatch_repro::realtime::{
    run_stream, BacklogConfig, Instruments, PredecodeMode, SlidingWindowDecoder, StreamRunConfig,
    SyndromeStream, WindowConfig, WindowRecord,
};
use promatch_repro::telemetry::{
    parse_dump, render_chrome_trace, render_dump, TraceBuf, TraceDump, TraceKind,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The shared d = 3, 5-round context (6 detector layers) — small enough
/// that the full decoder × mode matrix stays fast under proptest.
fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::with_rounds(3, 5, 2e-3))
}

/// One shared window cache, like a real multi-run deployment.
fn cache() -> &'static Arc<WindowCache> {
    static CACHE: OnceLock<Arc<WindowCache>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(WindowCache::new(&ctx().graph, SeamPolicy::Cut)))
}

fn cfg(seed: u64, predecode: PredecodeMode) -> StreamRunConfig {
    StreamRunConfig {
        shots: 3,
        seed,
        window: WindowConfig::new(4, 2).unwrap(),
        backlog: BacklogConfig::with_commit_deadline(1000.0, 2),
        predecode,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Trace-armed ≡ untraced, for every Table-2 decoder × predecode
    /// off|batch, on randomly seeded streams.
    #[test]
    fn tracing_is_a_pure_side_channel(seed in any::<u64>()) {
        let ctx = ctx();
        for kind in DecoderKind::table2() {
            for predecode in [PredecodeMode::Off, PredecodeMode::Batch] {
                let cfg = cfg(seed, predecode);
                let plain = run_stream(
                    &ctx.graph, &ctx.circuit, kind, &cfg, cache(), Instruments::default(),
                );
                let buf = Arc::new(TraceBuf::new(4096));
                let armed = Instruments {
                    trace: Some((Arc::clone(&buf), 7)),
                    ..Instruments::default()
                };
                let traced = run_stream(&ctx.graph, &ctx.circuit, kind, &cfg, cache(), armed);
                prop_assert_eq!(
                    &plain, &traced,
                    "tracing changed the result for {:?} / {:?}",
                    kind, predecode
                );
                // At least one event per window step actually landed.
                prop_assert!(
                    buf.recorded() >= plain.backlog.windows as u64,
                    "{:?}/{:?}: {} events for {} windows",
                    kind, predecode, buf.recorded(), plain.backlog.windows
                );
            }
        }
    }
}

/// Decodes one traced MWPM stream shot by shot and returns its dump
/// plus every shot's window records.
fn traced_dump(tenant: u32) -> (TraceDump, Arc<TraceBuf>, Vec<Vec<WindowRecord>>) {
    let ctx = ctx();
    let buf = Arc::new(TraceBuf::new(4096));
    let layers = LayerMap::from_graph(&ctx.graph).unwrap();
    let mut stream = SyndromeStream::new(&ctx.circuit, layers.clone(), 7);
    let window = WindowConfig::new(4, 2).unwrap();
    let mut swd = SlidingWindowDecoder::new(&ctx.graph, layers, DecoderKind::Mwpm, window)
        .with_predecode(PredecodeMode::Batch);
    swd.set_trace(Arc::clone(&buf), tenant);
    let records = (0..40)
        .map(|_| swd.decode_shot(&stream.next_shot().dets).windows)
        .collect();
    (
        TraceDump::collect("test", &[Arc::clone(&buf)]),
        buf,
        records,
    )
}

#[test]
fn dump_round_trips_and_filters() {
    let (dump, buf, records) = traced_dump(7);
    assert!(!dump.is_empty());
    assert_eq!(buf.dropped(), 0, "4096-slot ring must not wrap here");

    // Lossless text round-trip.
    let parsed = parse_dump(&render_dump(&dump)).expect("parses back");
    assert_eq!(parsed.reason, "test");
    assert_eq!(parsed.shards.len(), dump.shards.len());
    assert_eq!(parsed.shards[0].events, dump.shards[0].events);
    assert_eq!(parsed.shards[0].recorded, dump.shards[0].recorded);

    // Every event carries the tenant it was armed with, and the causal
    // key space is what the harness promises: one WindowOpen per window.
    let events = &dump.shards[0].events;
    assert!(events.iter().all(|e| e.tenant == 7));
    let opens = events
        .iter()
        .filter(|e| e.kind == TraceKind::WindowOpen)
        .count();
    assert_eq!(opens, records.iter().map(Vec::len).sum::<usize>());

    // `SolveStart` carries the residual weight handed to the solver: one
    // per window record that reached it, keyed `(shot, window)`.
    let starts: Vec<_> = events
        .iter()
        .filter(|e| e.kind == TraceKind::SolveStart)
        .map(|e| (e.seq as usize, e.window_idx as usize, e.arg as usize))
        .collect();
    let solved: Vec<_> = records
        .iter()
        .enumerate()
        .flat_map(|(shot, ws)| (0..).zip(ws).map(move |(w, r)| (shot, w, r.solver_hw)))
        .filter(|&(_, _, hw)| hw > 0)
        .collect();
    assert!(!solved.is_empty(), "no window reached the solver");
    assert_eq!(starts, solved);

    // Filters: a foreign tenant empties the dump; retain_last truncates.
    let mut other = dump.clone();
    other.retain_tenant(3);
    assert!(other.is_empty());
    let mut last = dump.clone();
    last.retain_last(2);
    assert_eq!(last.shards[0].events.len(), 2);
    assert_eq!(
        last.shards[0].events[1],
        dump.shards[0].events[dump.shards[0].events.len() - 1]
    );
}

#[test]
fn chrome_trace_export_is_well_formed_and_monotonic() {
    let (dump, _, _) = traced_dump(2);
    let json = render_chrome_trace(&dump);
    assert!(json.starts_with("{\"displayTimeUnit\": \"ns\""));
    assert!(json.contains("\"traceEvents\": ["));
    assert!(json.trim_end().ends_with("]}"));
    // Solve spans come in balanced begin/end pairs.
    let begins = json.matches("\"ph\": \"B\"").count();
    let ends = json.matches("\"ph\": \"E\"").count();
    assert_eq!(begins, ends);
    assert!(json.contains("\"ph\": \"i\""));
    // Each shard is one pid track; timestamps are emitted sorted, so the
    // `ts` values must be non-decreasing in document order per pid. With
    // one shard, document order is track order.
    let mut prev = -1.0f64;
    for piece in json.split("\"ts\": ").skip(1) {
        let num: f64 = piece
            .split(',')
            .next()
            .unwrap()
            .parse()
            .expect("ts is a number");
        assert!(num >= prev, "track not monotonic: {num} after {prev}");
        prev = num;
    }
}
