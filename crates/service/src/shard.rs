//! Shard workers: the decode engines of the worker pool.
//!
//! Each shard is one OS thread that *owns* the long-lived decode state
//! of the tenants assigned to it — a [`SlidingWindowDecoder`] (window
//! graph `Arc`s memoized from the scenario's shared
//! [`decoding_graph::WindowCache`]), the tenant's latency model, shot
//! sequence counters, and the shard's modeled arrival timeline. Nothing
//! on the decode path takes a cross-shard lock: cold control traffic
//! (register, stats, ring attachment) arrives on the shard's private
//! channel; hot submissions arrive on lock-free SPSC rings (one per
//! attached session, see [`crate::spsc`]) whose slots carry the shot's
//! syndrome as packed words written by the session router straight from
//! the wire.
//!
//! The shard loop drains control messages first (so a registration is
//! always applied before any submission that was admitted after it),
//! then sweeps each ring — up to `batch_max` slots per ring per pass —
//! feeding every slot's packed words to
//! [`SlidingWindowDecoder::decode_shot_packed_into`] without ever
//! materializing a sparse detector list: the words move from the wire
//! arena to the decoder's bit-set with zero per-round heap allocations.
//! (`Datapath::Byte` tenants take the reference path instead: the words
//! are expanded to a recycled sparse buffer and decoded byte-wise,
//! bit-identical by construction.) An idle shard parks on its
//! [`ShardWaker`] with a timeout, so a lost wakeup race costs bounded
//! latency, never a hang.

use crate::admission::{simulate_shard, TenantGate, WindowArrival};
use crate::postmortem::TraceSet;
use crate::protocol::{Frame, TenantStatsWire};
use crate::server::{ScenarioContext, ServiceConfig};
use crate::spsc::{Consumer, ShardWaker, SubmitSlot};
use decoding_graph::packed::for_each_set_bit;
use decoding_graph::LatencyModel;
use ler::DecoderKind;
use realtime::{
    fallback_latency_model, service_ns, Datapath, PredecodeMode, SlidingWindowDecoder,
    WindowConfig, WindowedOutcome,
};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;
use telemetry::{ShardMetrics, Stage, TraceBuf, TraceKind, SHARD_TENANT};

/// A control request routed to one shard. Replies travel back through
/// the originating session's frame channel. Submissions do NOT travel
/// this channel — they arrive on the SPSC rings attached here.
pub(crate) enum ShardRequest {
    /// Attach a tenant to this shard.
    Register {
        qubit: u32,
        scenario: usize,
        kind: DecoderKind,
        window: WindowConfig,
        predecode: PredecodeMode,
        datapath: Datapath,
        gate: Arc<TenantGate>,
        reply: Sender<Frame>,
    },
    /// Attach one session's submission ring to this shard.
    AttachRing {
        ring: Consumer,
        reply: Sender<Frame>,
    },
    /// Report per-tenant SLO accounting for this shard's tenants.
    Stats { reply: Sender<Vec<TenantStatsWire>> },
}

/// One tenant's decode state, owned by its shard.
struct Tenant<'a> {
    qubit: u32,
    decoder: SlidingWindowDecoder<'a>,
    fallback: Box<dyn LatencyModel + Send>,
    datapath: Datapath,
    layers_per_shot: u32,
    next_shot: u64,
    shots: u64,
    windows: u64,
    /// Round layers the L1 batch predecoder finalized without waking a
    /// matching solver (zero with predecoding off).
    l1_rounds: u64,
    /// Windows escalated past the L1 tier to the matching solver.
    escalated_windows: u64,
    gate: Arc<TenantGate>,
    /// Recycled outcome buffer for the packed ingest path (the window
    /// records `Vec` keeps its capacity across shots).
    out: WindowedOutcome,
    /// Recycled sparse detector buffer for the byte reference path.
    sparse: Vec<u32>,
}

/// Windows one shot's decode produces: the number of window steps of
/// the sliding-window loop over `layers` round layers.
#[cfg(test)]
fn windows_per_shot(layers: u32, cfg: WindowConfig) -> u32 {
    if layers <= cfg.window {
        1
    } else {
        1 + (layers - cfg.window).div_ceil(cfg.commit)
    }
}

/// Per-shard bound on the modeled arrival timeline kept for stats. The
/// reaction/shed simulation covers the first `TIMELINE_CAP` windows; a
/// longer-lived shard keeps exact shot/window *totals* (tenant
/// counters) but stops extending the modeled sample, so stats memory
/// and `StatsRequest` cost stay bounded over unbounded uptime.
const TIMELINE_CAP: usize = 1 << 18;

/// How long an idle shard parks before re-checking its rings. Bounds
/// the latency of a lost wakeup race (and of control messages sent
/// without a wake).
const IDLE_PARK: Duration = Duration::from_micros(500);

/// Shard-local flight-recorder state: the shard's ring, the shared
/// trigger latch, and the escalation-storm gauge (a bitmask of the
/// last 64 windows — 1 = escalated past L1).
struct ShardTrace {
    buf: Arc<TraceBuf>,
    set: Arc<TraceSet>,
    storm_bits: u64,
    storm_seen: u32,
    storm_latched: bool,
}

impl ShardTrace {
    /// Folds one decoded shot's window/escalation counts into the
    /// storm gauge and triggers the postmortem when the escalated
    /// fraction of the last 64 windows crosses `threshold`.
    fn observe_shot(&mut self, windows: u64, escalated: u64, threshold: f64) {
        if threshold <= 0.0 {
            return;
        }
        for i in 0..windows {
            self.storm_bits = (self.storm_bits << 1) | u64::from(i < escalated);
        }
        self.storm_seen = self
            .storm_seen
            .saturating_add(windows.min(64) as u32)
            .min(64);
        if self.storm_seen >= 64 && !self.storm_latched {
            let frac = f64::from(self.storm_bits.count_ones()) / 64.0;
            if frac > threshold {
                self.storm_latched = true;
                self.set.trigger("escalation-storm");
            }
        }
    }
}

/// The shard's modeled arrival sample, bounded by [`TIMELINE_CAP`].
struct Timeline {
    arrivals: Vec<WindowArrival>,
    dropped: u64,
}

impl Timeline {
    fn new() -> Self {
        Timeline {
            arrivals: Vec::new(),
            dropped: 0,
        }
    }

    fn push(&mut self, arrival: WindowArrival) {
        if self.arrivals.len() < TIMELINE_CAP {
            self.arrivals.push(arrival);
        } else {
            self.dropped += 1;
        }
    }
}

/// Runs one shard until the control channel is gone and every attached
/// ring has been drained and closed.
pub(crate) fn run_shard(
    shard_id: usize,
    cfg: &ServiceConfig,
    scenarios: &[ScenarioContext],
    rx: Receiver<ShardRequest>,
    waker: Arc<ShardWaker>,
    metrics: Arc<ShardMetrics>,
    trace: Option<Arc<TraceSet>>,
) {
    waker.register();
    let mut tenants: HashMap<u32, Tenant<'_>> = HashMap::new();
    let mut timeline = Timeline::new();
    let mut rings: Vec<(Consumer, Sender<Frame>)> = Vec::new();
    let mut control_open = true;
    let mut tr: Option<ShardTrace> = trace.map(|set| ShardTrace {
        buf: Arc::clone(set.buf(shard_id)),
        set,
        storm_bits: 0,
        storm_seen: 0,
        storm_latched: false,
    });
    let mut high_water_latched = false;
    // Wakes are counted at the waker (the producer side swaps the
    // parked flag); fold them into the telemetry counter by delta.
    let mut last_wakes = 0u64;
    loop {
        // Control first: a registration is always applied before any
        // submission swept afterwards (clients wait for the ack before
        // submitting, and the ack is sent from here).
        while control_open {
            match rx.try_recv() {
                Ok(ShardRequest::Register {
                    qubit,
                    scenario,
                    kind,
                    window,
                    predecode,
                    datapath,
                    gate,
                    reply,
                }) => {
                    let sc = &scenarios[scenario];
                    let mut decoder = SlidingWindowDecoder::with_cache(
                        &sc.context().graph,
                        Arc::clone(sc.layers()),
                        kind,
                        window,
                        Arc::clone(sc.window_cache()),
                    )
                    .with_predecode(predecode)
                    .with_datapath(datapath);
                    decoder.set_spans(Arc::clone(&metrics.stages), cfg.metrics_sample);
                    if let Some(t) = &tr {
                        decoder.set_trace(Arc::clone(&t.buf), qubit);
                    }
                    let layers_per_shot = sc.layers().num_layers();
                    tenants.insert(
                        qubit,
                        Tenant {
                            qubit,
                            decoder,
                            fallback: fallback_latency_model(kind),
                            datapath,
                            layers_per_shot,
                            next_shot: 0,
                            shots: 0,
                            windows: 0,
                            l1_rounds: 0,
                            escalated_windows: 0,
                            gate,
                            out: WindowedOutcome::default(),
                            sparse: Vec::new(),
                        },
                    );
                    let _ = reply.send(Frame::RegisterAck {
                        qubit,
                        ok: true,
                        shard: shard_id as u32,
                        message: String::new(),
                    });
                }
                Ok(ShardRequest::AttachRing { ring, reply }) => {
                    rings.push((ring, reply));
                }
                Ok(ShardRequest::Stats { reply }) => {
                    let _ = reply.send(shard_stats(shard_id, cfg, &tenants, &timeline.arrivals));
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => control_open = false,
            }
        }
        // Hot path: sweep every ring, at most batch_max slots per ring
        // per pass so control traffic and sibling rings stay live.
        let depth: usize = rings.iter().map(|(ring, _)| ring.len()).sum();
        metrics.ring_depth.set(depth as u64);
        if let Some(t) = &tr {
            if cfg.ring_high_water > 0 && depth as u32 >= cfg.ring_high_water && !high_water_latched
            {
                high_water_latched = true;
                t.set.trigger("ring-high-water");
            }
        }
        let mut swept = 0usize;
        for (ring, reply) in &mut rings {
            let n = ring.len().min(cfg.batch_max);
            for i in 0..n {
                process_slot(
                    &mut tenants,
                    &mut timeline,
                    ring.slot(i),
                    reply,
                    &metrics,
                    cfg,
                    &mut tr,
                );
            }
            ring.advance(n);
            swept += n;
        }
        rings.retain(|(ring, _)| !ring.is_done());
        let wakes = waker.wake_count();
        if wakes > last_wakes {
            metrics.wakes.add(wakes - last_wakes);
            if let Some(t) = &tr {
                t.buf.record(
                    SHARD_TENANT,
                    0,
                    0,
                    TraceKind::Wake,
                    (wakes - last_wakes) as u32,
                );
            }
            last_wakes = wakes;
        }
        if !control_open && rings.is_empty() {
            break;
        }
        if swept == 0 {
            waker.prepare_park();
            // Re-check after raising the parked flag: a producer that
            // published in between will have seen the flag and skips
            // the park via `wake`.
            if rings.iter().all(|(ring, _)| ring.is_empty()) {
                metrics.parks.inc();
                if let Some(t) = &tr {
                    t.buf.record(SHARD_TENANT, 0, 0, TraceKind::Park, 0);
                }
                waker.park_timeout(IDLE_PARK);
            }
        }
    }
}

/// Decodes one published ring slot: replay check, decode through the
/// tenant's datapath, bill the modeled timeline, and reply.
fn process_slot(
    tenants: &mut HashMap<u32, Tenant<'_>>,
    timeline: &mut Timeline,
    slot: &mut SubmitSlot,
    reply: &Sender<Frame>,
    metrics: &ShardMetrics,
    cfg: &ServiceConfig,
    tr: &mut Option<ShardTrace>,
) {
    let (qubit, shot) = (slot.qubit, slot.shot);
    if slot.enq != 0 {
        // The router's sampler stamped the publish: the elapsed time to
        // this pickup is the SPSC queueing delay (ingest stage).
        let delay_ns = telemetry::since_ns(slot.enq);
        metrics.stages.record(Stage::Ingest, delay_ns);
        if let Some(t) = tr.as_mut() {
            // A sampled submission that queued past the reaction
            // deadline before decode even started cannot make it: log
            // the miss (arg = elapsed µs) and freeze a postmortem.
            if delay_ns as f64 > cfg.deadline_ns {
                t.buf.record(
                    qubit,
                    shot,
                    0,
                    TraceKind::DeadlineMiss,
                    (delay_ns / 1_000).min(u32::MAX as u64) as u32,
                );
                t.set.trigger("deadline-miss");
            }
        }
        slot.enq = 0;
    }
    let Some(tenant) = tenants.get_mut(&qubit) else {
        let _ = reply.send(Frame::Error {
            message: format!("qubit {qubit} is not registered on this shard"),
        });
        return;
    };
    // Sequence numbers must be strictly increasing — gaps are fine (a
    // shot shed at the session router never reaches the shard).
    let next = tenant.next_shot;
    if shot < next {
        let _ = reply.send(Frame::Error {
            message: format!(
                "qubit {qubit}: shot {shot} replayed or out of order (next is {next})"
            ),
        });
        tenant.gate.complete();
        return;
    }
    if tr.is_some() {
        // Pin the trace's causal key to the wire shot id (sheds leave
        // gaps the decoder's own counter would not).
        tenant.decoder.set_trace_seq(shot);
    }
    match tenant.datapath {
        Datapath::Packed => {
            // Zero-copy: the wire arena's words feed the decoder's
            // bit-set directly; `out` recycles its window buffer.
            let Tenant { decoder, out, .. } = tenant;
            decoder.decode_shot_packed_into(&slot.words, out);
        }
        Datapath::Byte => {
            // Reference path: expand the words back to the sparse list
            // the byte datapath consumes (buffer recycled, but the
            // decode itself allocates — that is the point of keeping it).
            tenant.sparse.clear();
            let sparse = &mut tenant.sparse;
            for_each_set_bit(&slot.words, |d| sparse.push(d as u32));
            tenant.out = tenant.decoder.decode_shot(&tenant.sparse);
        }
    }
    let base_round = shot * tenant.layers_per_shot as u64;
    let mut total_ns = 0.0;
    for w in &tenant.out.windows {
        // L1-resolved windows carry the fixed predecoder charge in
        // `latency_ns`; escalated ones bill the solver for the residual
        // weight only, so the fallback model sees `solver_hw`, not the
        // pre-cancellation `hw`.
        let ns = service_ns(w.latency_ns, w.solver_hw, tenant.fallback.as_ref());
        timeline.push(WindowArrival {
            qubit,
            ready_round: base_round + w.hi_layer as u64,
            service_ns: ns,
        });
        total_ns += ns;
    }
    tenant.windows += tenant.out.windows.len() as u64;
    tenant.l1_rounds += tenant.out.l1_rounds();
    tenant.escalated_windows += tenant.out.escalated_windows();
    tenant.shots += 1;
    metrics.shots.inc();
    metrics.rounds.add(tenant.layers_per_shot as u64);
    metrics.l1_rounds.add(tenant.out.l1_rounds());
    metrics
        .escalated_windows
        .add(tenant.out.escalated_windows());
    tenant.next_shot = shot + 1;
    tenant.gate.complete();
    if let Some(t) = tr.as_mut() {
        t.observe_shot(
            tenant.out.windows.len() as u64,
            tenant.out.escalated_windows(),
            cfg.storm_threshold,
        );
    }
    let _ = reply.send(Frame::CommitResult {
        qubit,
        shot,
        obs_flip: tenant.out.obs_flip,
        failed: tenant.out.failed,
        shed: false,
        shed_reason: 0,
        windows: tenant.out.windows.len() as u32,
        service_ns_total: total_ns,
    });
}

/// Runs the shard's modeled admission simulation and merges it with the
/// live counters into wire rows (one per tenant, zeros included).
fn shard_stats(
    shard_id: usize,
    cfg: &ServiceConfig,
    tenants: &HashMap<u32, Tenant<'_>>,
    timeline: &[WindowArrival],
) -> Vec<TenantStatsWire> {
    let mut arrivals = timeline.to_vec();
    let reports = simulate_shard(&mut arrivals, &cfg.admission());
    let by_qubit: HashMap<u32, _> = reports.into_iter().map(|r| (r.qubit, r)).collect();
    let mut rows: Vec<TenantStatsWire> = tenants
        .values()
        .map(|t| {
            let modeled = by_qubit.get(&t.qubit);
            TenantStatsWire {
                qubit: t.qubit,
                shard: shard_id as u32,
                shots: t.shots,
                windows: t.windows,
                // A gate-shed submission never opened a window, so it
                // counts once — scaling by windows-per-shot would
                // fabricate window work that was never queued.
                shed: t.gate.shed_count() + modeled.map_or(0, |r| r.shed),
                deadline_misses: modeled.map_or(0, |r| r.deadline_misses),
                mean_ns: modeled.map_or(0.0, |r| r.reaction.mean_ns),
                p50_ns: modeled.map_or(0.0, |r| r.reaction.p50_ns),
                p99_ns: modeled.map_or(0.0, |r| r.reaction.p99_ns),
                max_ns: modeled.map_or(0.0, |r| r.reaction.max_ns),
                l1_rounds: t.l1_rounds,
                escalated_windows: t.escalated_windows,
            }
        })
        .collect();
    rows.sort_by_key(|r| r.qubit);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoding_graph::packed::words_for;
    use decoding_graph::LayerMap;
    use ler::{DecoderKind, ExperimentContext};

    fn test_tenant(
        qubit: u32,
        decoder: SlidingWindowDecoder<'_>,
        gate: Arc<TenantGate>,
    ) -> Tenant<'_> {
        let layers_per_shot = decoder.layers().num_layers();
        let datapath = decoder.datapath();
        Tenant {
            qubit,
            decoder,
            fallback: fallback_latency_model(DecoderKind::Mwpm),
            datapath,
            layers_per_shot,
            next_shot: 0,
            shots: 0,
            windows: 0,
            l1_rounds: 0,
            escalated_windows: 0,
            gate,
            out: WindowedOutcome::default(),
            sparse: Vec::new(),
        }
    }

    fn pack_slot(qubit: u32, shot: u64, dets: &[u32], num_dets: u32) -> SubmitSlot {
        let mut words = vec![0u64; words_for(num_dets as usize).max(1)];
        for &d in dets {
            words[d as usize / 64] |= 1u64 << (d % 64);
        }
        SubmitSlot {
            qubit,
            shot,
            enq: 0,
            words,
        }
    }

    #[test]
    fn windows_per_shot_matches_the_decode_loop() {
        let ctx = ExperimentContext::with_rounds(3, 5, 1e-3);
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        for (w, c) in [(1u32, 1u32), (3, 1), (3, 2), (4, 2), (6, 3), (6, 6)] {
            let cfg = WindowConfig::new(w, c).unwrap();
            let mut swd =
                SlidingWindowDecoder::new(&ctx.graph, layers.clone(), DecoderKind::Mwpm, cfg);
            let out = swd.decode_shot(&[]);
            assert_eq!(
                out.windows.len() as u32,
                windows_per_shot(layers.num_layers(), cfg),
                "w={w} c={c}"
            );
        }
    }

    #[test]
    fn l1_resolved_windows_cut_the_modeled_reaction_tail() {
        // Satellite of the predecode tier: L1-resolved windows must be
        // billed the fixed predecoder charge, not the solver's latency
        // model, so the modeled p99 collapses when L1 resolves the
        // stream. Runs the real ring path (process_slot per published
        // slot) against the same single-mechanism shots with
        // predecoding off and on.
        use crate::admission::AdmissionConfig;
        let ctx = ExperimentContext::with_rounds(3, 6, 1e-3);
        let cfg = WindowConfig::new(4, 2).unwrap();
        let admission = AdmissionConfig {
            round_ns: 1000.0,
            deadline_ns: 100_000.0,
            queue_capacity: 64,
        };
        let shots: Vec<Vec<u32>> = ctx
            .dem
            .errors
            .iter()
            .take(48)
            .map(|e| e.dets.as_slice().to_vec())
            .collect();
        let mut p99 = Vec::new();
        let mut counters = Vec::new();
        for mode in [PredecodeMode::Off, PredecodeMode::Batch] {
            let layers = LayerMap::from_graph(&ctx.graph).unwrap();
            let num_dets = layers.num_detectors();
            let decoder = SlidingWindowDecoder::new(&ctx.graph, layers, DecoderKind::Mwpm, cfg)
                .with_predecode(mode);
            let gate = Arc::new(TenantGate::new(shots.len()));
            for _ in &shots {
                assert!(gate.try_admit());
            }
            let mut tenants = HashMap::new();
            tenants.insert(0, test_tenant(0, decoder, gate));
            let (tx, rx) = std::sync::mpsc::channel();
            let mut timeline = Timeline::new();
            let metrics = ShardMetrics::default();
            for (i, dets) in shots.iter().enumerate() {
                let mut slot = pack_slot(0, i as u64, dets, num_dets);
                process_slot(
                    &mut tenants,
                    &mut timeline,
                    &mut slot,
                    &tx,
                    &metrics,
                    &ServiceConfig::default(),
                    &mut None,
                );
            }
            drop(tx);
            for frame in rx.iter() {
                match frame {
                    Frame::CommitResult { failed, .. } => assert!(!failed),
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            let reports = simulate_shard(&mut timeline.arrivals, &admission);
            assert_eq!(reports.len(), 1);
            p99.push(reports[0].reaction.p99_ns);
            let t = &tenants[&0];
            counters.push((t.l1_rounds, t.escalated_windows));
            // The shard-level telemetry counters mirror the tenant's.
            assert_eq!(metrics.shots.get(), shots.len() as u64);
            assert_eq!(metrics.l1_rounds.get(), t.l1_rounds);
            assert_eq!(metrics.escalated_windows.get(), t.escalated_windows);
            assert_eq!(
                metrics.rounds.get(),
                shots.len() as u64 * t.layers_per_shot as u64
            );
        }
        assert_eq!(counters[0], (0, 0), "off mode keeps zero L1 counters");
        assert!(counters[1].0 > 0, "batch mode resolves rounds at L1");
        assert!(
            p99[1] < p99[0],
            "L1 billing must cut the modeled p99: batch {} vs off {}",
            p99[1],
            p99[0]
        );
    }

    #[test]
    fn packed_and_byte_tenants_commit_identical_results() {
        // The ring always carries packed words; a Datapath::Byte tenant
        // must decode them through the sparse reference path to the
        // exact same outcome a Packed tenant reaches zero-copy.
        let ctx = ExperimentContext::with_rounds(3, 6, 1e-3);
        let cfg = WindowConfig::new(4, 2).unwrap();
        let shots: Vec<Vec<u32>> = ctx
            .dem
            .errors
            .iter()
            .take(24)
            .map(|e| e.dets.as_slice().to_vec())
            .collect();
        let mut replies = Vec::new();
        for dp in [Datapath::Packed, Datapath::Byte] {
            let layers = LayerMap::from_graph(&ctx.graph).unwrap();
            let num_dets = layers.num_detectors();
            let decoder = SlidingWindowDecoder::new(&ctx.graph, layers, DecoderKind::Mwpm, cfg)
                .with_datapath(dp);
            let gate = Arc::new(TenantGate::new(shots.len()));
            for _ in &shots {
                assert!(gate.try_admit());
            }
            let mut tenants = HashMap::new();
            tenants.insert(3, test_tenant(3, decoder, gate));
            let (tx, rx) = std::sync::mpsc::channel();
            let mut timeline = Timeline::new();
            let metrics = ShardMetrics::default();
            for (i, dets) in shots.iter().enumerate() {
                let mut slot = pack_slot(3, i as u64, dets, num_dets);
                process_slot(
                    &mut tenants,
                    &mut timeline,
                    &mut slot,
                    &tx,
                    &metrics,
                    &ServiceConfig::default(),
                    &mut None,
                );
            }
            drop(tx);
            replies.push(rx.iter().collect::<Vec<Frame>>());
            assert_eq!(tenants[&3].gate.in_flight(), 0);
        }
        assert_eq!(
            replies[0], replies[1],
            "byte path is the bit-identical reference"
        );
        assert_eq!(replies[0].len(), shots.len());
    }

    #[test]
    fn replayed_slots_are_rejected_and_release_the_gate() {
        let ctx = ExperimentContext::with_rounds(3, 4, 1e-3);
        let cfg = WindowConfig::new(4, 2).unwrap();
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        let num_dets = layers.num_detectors();
        let decoder = SlidingWindowDecoder::new(&ctx.graph, layers, DecoderKind::Mwpm, cfg);
        let gate = Arc::new(TenantGate::new(4));
        let mut tenants = HashMap::new();
        tenants.insert(1, test_tenant(1, decoder, Arc::clone(&gate)));
        let (tx, rx) = std::sync::mpsc::channel();
        let mut timeline = Timeline::new();
        let metrics = ShardMetrics::default();
        for (shot, expect_err) in [(0u64, false), (0, true), (5, false), (2, true)] {
            assert!(gate.try_admit());
            let mut slot = pack_slot(1, shot, &[], num_dets);
            process_slot(
                &mut tenants,
                &mut timeline,
                &mut slot,
                &tx,
                &metrics,
                &ServiceConfig::default(),
                &mut None,
            );
            match rx.try_recv().unwrap() {
                Frame::Error { message } => {
                    assert!(expect_err, "unexpected reject: {message}");
                    assert!(message.contains("replayed or out of order"), "{message}");
                }
                Frame::CommitResult { shot: s, .. } => {
                    assert!(!expect_err, "shot {s} should have been rejected");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(gate.in_flight(), 0, "rejects release the gate slot");
        // An unregistered qubit is rejected without touching any gate.
        let mut slot = pack_slot(9, 0, &[], num_dets);
        process_slot(
            &mut tenants,
            &mut timeline,
            &mut slot,
            &tx,
            &metrics,
            &ServiceConfig::default(),
            &mut None,
        );
        match rx.try_recv().unwrap() {
            Frame::Error { message } => {
                assert!(
                    message.contains("not registered on this shard"),
                    "{message}"
                )
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn gate_sheds_are_not_scaled_by_windows_per_shot() {
        // A gate-shed submission never reaches the shard, so it opens
        // zero windows; the stats row must count it once, not multiply
        // it into window units. Floods a gate of capacity 2 with 10
        // admissions (8 shed), decodes nothing, and pins the exact row
        // across repeated stats calls (determinism: stats are a pure
        // function of the counters and the modeled timeline).
        let ctx = ExperimentContext::with_rounds(3, 6, 1e-3);
        let cfg = WindowConfig::new(4, 2).unwrap();
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        let decoder = SlidingWindowDecoder::new(&ctx.graph, layers, DecoderKind::Mwpm, cfg);
        assert!(
            windows_per_shot(decoder.layers().num_layers(), cfg) > 1,
            "the regression needs a multi-window split to be visible"
        );
        let gate = Arc::new(TenantGate::new(2));
        for _ in 0..10 {
            let _ = gate.try_admit();
        }
        assert_eq!(gate.shed_count(), 8);
        let mut tenants = HashMap::new();
        tenants.insert(7, test_tenant(7, decoder, gate));
        let scfg = ServiceConfig::default();
        let first = shard_stats(0, &scfg, &tenants, &[]);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].shed, 8, "one shed per rejected submission");
        assert_eq!(first[0].windows, 0, "shed submissions open no windows");
        let second = shard_stats(0, &scfg, &tenants, &[]);
        assert_eq!(first, second, "stats are deterministic");
    }

    #[test]
    fn timeline_push_is_bounded() {
        let mut t = Timeline::new();
        let arrival = WindowArrival {
            qubit: 0,
            ready_round: 1,
            service_ns: 1.0,
        };
        for _ in 0..8 {
            t.push(arrival);
        }
        assert_eq!(t.arrivals.len(), 8);
        assert_eq!(t.dropped, 0);
        // Fill to the cap without allocating the whole thing: simulate
        // by checking the branch directly.
        t.arrivals.resize(
            TIMELINE_CAP,
            WindowArrival {
                qubit: 0,
                ready_round: 0,
                service_ns: 0.0,
            },
        );
        t.push(arrival);
        t.push(arrival);
        assert_eq!(t.arrivals.len(), TIMELINE_CAP);
        assert_eq!(t.dropped, 2);
    }
}
