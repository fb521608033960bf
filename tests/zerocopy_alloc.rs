//! Allocation pin for the zero-copy decode hot loop.
//!
//! The shard hot loop's steady state — defect-free rounds arriving as
//! packed arena words — must decode with **zero** heap allocations:
//! [`SlidingWindowDecoder::decode_shot_packed_into`] reuses its scratch
//! state, the caller's outcome buffers ping-pong to steady capacity, and
//! an empty defect set never wakes an allocating solver path. A counting
//! global allocator pins that claim exactly; any regression (a stray
//! `Vec` per window, a re-packed syndrome, a solver warm-up leak) fails
//! this test with a nonzero count rather than washing out as a few
//! nanoseconds of tail latency.
//!
//! The decoder runs with stage spans attached at a 1-in-1 sampling
//! rate **and** the causal flight recorder armed, so the pin also
//! covers both telemetry record paths: timing a window step into a
//! [`telemetry::StageSpans`] histogram and logging trace events into a
//! [`telemetry::TraceBuf`] ring must never touch the heap — including
//! when the ring wraps and overwrites old slots.
//!
//! The L1 tier's distance rows are the one thing that *does* allocate
//! after construction — once per source detector per scenario. The
//! second half pins that this warm-up is finite (a second pass over the
//! same traffic fills no row) and that reading a filled row never
//! touches the heap.
//!
//! The reply side of the service has the same shape: a shard sweep
//! appends every `CommitResult` into one recycled buffer
//! ([`Frame::encode_into`]) and hands it to the session's [`ReplySink`]
//! in one `send_wire`, and the router's own replies go through the
//! sink's recycled buffer — so a warm session must take a thousand
//! commits down either path without one allocation event.
//!
//! The solver side is pinned on a dense stream: the window engine lends
//! every window's short-lived decoder one long-lived workspace, so a
//! warm solve allocates what it returns (a small constant) whatever the
//! Hamming weight — with the L1 tier on as well, whose pooled scratch and
//! result lists add nothing to the count.
//!
//! This binary holds a single test so no concurrent test thread can
//! attribute its allocations to the measured region.

use promatch_repro::decoding_graph::{LayerMap, SeamPolicy, WindowCache};
use promatch_repro::ler::{DecoderKind, ExperimentContext};
use promatch_repro::realtime::{
    PredecodeMode, SlidingWindowDecoder, SyndromeStream, WindowConfig, WindowedOutcome,
};
use promatch_repro::service::{Frame, FrameSink, ReplySink, ServiceError};
use promatch_repro::surface_code::{MemoryBasis, NoiseModel};
use promatch_repro::telemetry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Counts allocation *events* (alloc, alloc_zeroed, realloc); frees are
/// free.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_packed_decode_makes_zero_allocations() {
    let ctx = ExperimentContext::with_rounds(3, 5, 2e-3);
    let layers = LayerMap::from_graph(&ctx.graph).unwrap();
    let cfg = WindowConfig::new(4, 2).unwrap();
    for predecode in [PredecodeMode::Off, PredecodeMode::Batch] {
        for kind in [DecoderKind::Mwpm, DecoderKind::PromatchParAg] {
            // Sample every window step: the steady-state claim must
            // hold with the telemetry record path fully exercised.
            let spans = Arc::new(telemetry::StageSpans::new());
            // A ring small enough that the measured region wraps it,
            // proving overwrite is allocation-free too.
            let trace = Arc::new(telemetry::TraceBuf::new(64));
            let mut swd = SlidingWindowDecoder::new(&ctx.graph, layers.clone(), kind, cfg)
                .with_predecode(predecode);
            swd.set_spans(Arc::clone(&spans), 1);
            swd.set_trace(Arc::clone(&trace), 0);
            let mut out = WindowedOutcome::default();
            // Warm-up: real sampled shots size the decoder's scratch,
            // window records, and activation pools to steady capacity
            // (defectful shots may allocate inside solvers — that is
            // the cold path, not the claim under test).
            let mut stream = SyndromeStream::new(&ctx.circuit, layers.clone(), 0x5EED);
            for _ in 0..8 {
                let shot = stream.next_shot_packed();
                swd.decode_shot_packed_into(shot.words, &mut out);
            }
            let quiet = vec![0u64; stream.words_per_shot()];
            swd.decode_shot_packed_into(&quiet, &mut out);
            // Steady state: defect-free rounds, the overwhelmingly
            // common case the arena path optimizes. Zero allocations
            // per shot, hence zero per round.
            let before = ALLOC_EVENTS.load(Ordering::Relaxed);
            for _ in 0..64 {
                swd.decode_shot_packed_into(&quiet, &mut out);
            }
            let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
            assert_eq!(
                events,
                0,
                "{} ({predecode:?}): steady-state packed decode allocated",
                kind.label()
            );
            // The instrumentation was live for the whole region, not a
            // disabled no-op: every step rolled up into WindowTotal.
            let steps = spans.stage(telemetry::Stage::WindowTotal).snapshot();
            assert!(
                steps.count >= 64,
                "{} ({predecode:?}): spans recorded only {} steps",
                kind.label(),
                steps.count
            );
            // Same for the flight recorder: at least one event per
            // measured shot landed, and the 64-slot ring wrapped
            // inside the zero-allocation region.
            assert!(
                trace.recorded() >= 64,
                "{} ({predecode:?}): trace recorded only {} events",
                kind.label(),
                trace.recorded()
            );
            assert!(
                trace.dropped() > 0,
                "{} ({predecode:?}): ring never wrapped — overwrite \
                 path unexercised",
                kind.label()
            );
        }
    }
    l1_rows_fill_once_and_read_without_allocating();
    commit_results_append_into_a_warm_buffer_without_allocating();
    warm_solves_allocate_a_constant_per_window();
}

/// Called from the one test above (see the module docs on why this
/// binary has a single `#[test]`).
fn l1_rows_fill_once_and_read_without_allocating() {
    // Dense enough that most windows are complex and L1 asks cross
    // distances from many sources.
    let ctx = ExperimentContext::with_noise(MemoryBasis::Z, 5, 5, &NoiseModel::sd6(5e-3), 5e-3);
    let layers = Arc::new(LayerMap::from_graph(&ctx.graph).unwrap());
    let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
    let table = Arc::clone(cache.no_transit());
    let mut swd = SlidingWindowDecoder::with_cache(
        &ctx.graph,
        Arc::clone(&layers),
        DecoderKind::PromatchParAg,
        WindowConfig::new(4, 2).unwrap(),
        cache,
    )
    .with_predecode(PredecodeMode::Batch);
    let mut stream = SyndromeStream::new(&ctx.circuit, (*layers).clone(), 0x10_0C);
    let wps = stream.words_per_shot();
    let mut pool = Vec::new();
    for _ in 0..96 {
        pool.extend_from_slice(stream.next_shot_packed().words);
    }
    let mut out = WindowedOutcome::default();
    let mut pass = |swd: &mut SlidingWindowDecoder<'_>| {
        let mut escalated = 0;
        for shot in pool.chunks_exact(wps) {
            swd.decode_shot_packed_into(shot, &mut out);
            escalated += out.escalated_windows();
        }
        escalated
    };
    assert_eq!(table.rows_filled(), 0, "rows are lazy");
    let escalated = pass(&mut swd);
    assert!(escalated > 0, "the pool must contain complex windows");
    let warm = table.rows_filled();
    assert!(warm > 0 && warm <= table.num_detectors());
    assert_eq!(pass(&mut swd), escalated);
    assert_eq!(table.rows_filled(), warm, "second pass filled a row");

    // The row path itself: a filled row and the escape vector are
    // plain indexed loads.
    let n = table.num_detectors() as u32;
    let sources: Vec<u32> = (0..n).step_by(7).collect();
    for &u in &sources {
        table.within(u, u, 0);
    }
    let filled = table.rows_filled();
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    let mut hits = 0usize;
    for &u in &sources {
        for v in 0..n {
            hits += usize::from(table.within(u, v, table.escape(v)));
        }
    }
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
    assert_eq!(events, 0, "reading filled rows allocated");
    assert_eq!(table.rows_filled(), filled);
    assert!(hits >= sources.len(), "every source reaches itself");
}

/// Called from the one test above, like the L1 half.
fn commit_results_append_into_a_warm_buffer_without_allocating() {
    let commit = |shot: u64| Frame::CommitResult {
        qubit: (shot % 16) as u32,
        shot,
        obs_flip: shot & 1,
        failed: false,
        shed: false,
        shed_reason: 0,
        windows: 3,
        service_ns_total: 812.5,
    };
    let mut wire = Vec::new();
    for shot in 0..1000 {
        commit(shot).encode_into(&mut wire).unwrap();
    }
    let warm_len = wire.len();
    wire.clear();
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    for shot in 0..1000 {
        commit(shot).encode_into(&mut wire).unwrap();
    }
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
    assert_eq!(events, 0, "appending commits into a warm buffer allocated");
    assert_eq!(wire.len(), warm_len);

    // The whole reply path of a warm session: shard sweeps of 16 commits
    // (the default `batch_max`) encoded into the sweep's scratch and
    // sent with one `send_wire` each, and the router's replies encoded
    // into the sink's own recycled buffer.
    let sent = Arc::new(AtomicUsize::new(0));
    let sink = ReplySink::new(Box::new(ByteCount(Arc::clone(&sent))));
    let mut scratch = Vec::new();
    let mut session = || {
        for first in (0..1000).step_by(16) {
            scratch.clear();
            for shot in first..(first + 16).min(1000) {
                commit(shot).encode_into(&mut scratch).unwrap();
            }
            sink.send_wire(&scratch);
        }
        for shot in 0..1000 {
            sink.send(&commit(shot));
        }
    };
    session();
    let before = ALLOC_EVENTS.load(Ordering::Relaxed);
    session();
    let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
    assert_eq!(events, 0, "a warm session's reply path allocated");
    assert_eq!(
        sent.load(Ordering::Relaxed),
        4 * warm_len,
        "every reply left"
    );
}

/// A transport that only counts the bytes it is handed: writing to a
/// socket allocates nothing either, so the count isolates the service's
/// own reply path.
struct ByteCount(Arc<AtomicUsize>);

impl FrameSink for ByteCount {
    fn send(&mut self, frame: &Frame) -> Result<(), ServiceError> {
        self.send_wire(&frame.to_wire()?)
    }

    fn send_wire(&mut self, wire: &[u8]) -> Result<(), ServiceError> {
        self.0.fetch_add(wire.len(), Ordering::Relaxed);
        Ok(())
    }

    fn shutdown(&mut self) {}
}

/// Called from the one test above, like the L1 half.
///
/// The solver side of a dense stream: the engine lends each window's
/// decoder one workspace it keeps for its own lifetime, so once that is
/// warm a solve allocates what it hands back and nothing else — the
/// window's boxed decoder, one match list per arm of Promatch ‖ AG, and
/// the merged list when Promatch prematched — whatever the Hamming
/// weight. The pool is 64 sampled shots that escalate past L1 plus eight
/// stacks of eight of them XOR-ed together, which carry windows far
/// beyond Astrea's reach. The pin runs twice: with the L1 tier off, so
/// every non-empty window reaches the solver at its full weight, and
/// with it on, where the tier must add nothing to the count — its
/// scratch and result lists are pooled, so an L1-resolved non-empty
/// window allocates nothing at all — and must search nothing either:
/// the distance rows and the per-edge memo are warm after one pass.
fn warm_solves_allocate_a_constant_per_window() {
    const EVENTS_PER_SOLVE: u64 = 4;
    let ctx = ExperimentContext::new(7, 1e-3);
    let layers = Arc::new(LayerMap::from_graph(&ctx.graph).unwrap());
    let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
    let table = Arc::clone(cache.no_transit());
    let engine = |predecode| {
        SlidingWindowDecoder::with_cache(
            &ctx.graph,
            Arc::clone(&layers),
            DecoderKind::PromatchParAg,
            WindowConfig::new(4, 2).unwrap(),
            Arc::clone(&cache),
        )
        .with_predecode(predecode)
    };
    let mut stream = SyndromeStream::new(&ctx.circuit, (*layers).clone(), 0xD7);
    let wps = stream.words_per_shot();
    let mut out = WindowedOutcome::default();
    let mut pool = Vec::new();
    let mut l1 = engine(PredecodeMode::Batch);
    while pool.len() < 64 * wps {
        let shot = stream.next_shot_packed();
        l1.decode_shot_packed_into(shot.words, &mut out);
        if out.escalated_windows() > 0 {
            pool.extend_from_slice(shot.words);
        }
    }
    for stack in 0..8 {
        let mut words = vec![0u64; wps];
        for shot in pool[stack * 8 * wps..][..8 * wps].chunks_exact(wps) {
            words.iter_mut().zip(shot).for_each(|(w, s)| *w ^= s);
        }
        pool.extend_from_slice(&words);
    }

    // The tier strips what it can prove, so fewer windows reach the solver.
    for (predecode, min_solves) in [(PredecodeMode::Off, 128), (PredecodeMode::Batch, 100)] {
        let mut swd = engine(predecode);
        for shot in pool.chunks_exact(wps) {
            swd.decode_shot_packed_into(shot, &mut out);
        }
        let searched = (table.rows_filled(), table.alternatives_filled());
        let (mut solves, mut heaviest, mut l1_resolved) = (0u64, 0, 0);
        for shot in pool.chunks_exact(wps) {
            let before = ALLOC_EVENTS.load(Ordering::Relaxed);
            swd.decode_shot_packed_into(shot, &mut out);
            let events = ALLOC_EVENTS.load(Ordering::Relaxed) - before;
            let solved = out.windows.iter().filter(|w| w.solver_hw > 0).count() as u64;
            let hw = out.windows.iter().map(|w| w.solver_hw).max().unwrap();
            assert!(
                events <= EVENTS_PER_SOLVE * solved,
                "{predecode:?}: {events} allocation events over {solved} warm solves \
                 (heaviest HW {hw})"
            );
            solves += solved;
            heaviest = heaviest.max(hw);
            l1_resolved += out
                .windows
                .iter()
                .filter(|w| w.l1_resolved && w.hw > 0)
                .count();
        }
        assert!(
            solves >= min_solves,
            "{predecode:?}: only {solves} solves measured"
        );
        assert!(
            heaviest > 20,
            "{predecode:?}: heaviest window only HW {heaviest}"
        );
        assert_eq!(
            searched,
            (table.rows_filled(), table.alternatives_filled()),
            "{predecode:?}: the warm pass filled a row or a memo byte"
        );
        if predecode == PredecodeMode::Batch {
            assert!(searched.0 > 0 && searched.1 > 0, "the tier never asked");
            assert!(l1_resolved > 0, "no non-empty window resolved at L1");
        }
    }
}
