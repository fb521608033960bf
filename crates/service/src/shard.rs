//! Shard workers: the decode engines of the worker pool.
//!
//! Each shard *owns* the long-lived decode state of the tenants assigned
//! to it — a [`SlidingWindowDecoder`] (window graph `Arc`s memoized from
//! the scenario's shared [`decoding_graph::WindowCache`]), the tenant's
//! latency model, shot sequence counters, and the shard's streaming
//! admission model ([`crate::admission`]). That state, the shard's
//! rings, its control receiver, its trace state and its reply scratch
//! sit in one `ShardCore` behind one mutex, and whoever holds the lock
//! sweeps: the shard's own thread, or a session router that found the
//! thread parked and sweeps in its place ([`Shard::sweep_inline`]).
//! Nothing on the decode path takes a cross-shard lock: cold control
//! traffic (register, stats, ring attachment) arrives on the shard's
//! private channel; hot submissions arrive on lock-free SPSC rings (one
//! per attached session, see [`crate::spsc`]) whose slots carry the
//! shot's syndrome as packed words written by the session router
//! straight from the wire.
//!
//! A sweep drains control messages first (so a registration is always
//! applied before any submission that was admitted after it), then
//! visits each ring — up to `BATCH_MAX` slots per ring per pass —
//! feeding every slot's packed words to
//! [`SlidingWindowDecoder::decode_shot_packed_into`] without ever
//! materializing a sparse detector list: the words move from the wire
//! arena to the decoder's bit-set with zero per-round heap allocations.
//! A ring's replies are encoded back to back into the core's recycled
//! buffer and leave through the session's [`ReplySink`] in one write.
//! Only then does the sweep release the batch's decoded windows, which
//! decoding only buffered, into the admission model up to the shard's
//! watermark: no modeled accounting sits between a decode and its
//! reply. The shard keeps no arrival timeline; a stats request reads the
//! model's committed state.
//! An idle shard thread parks on its [`ShardWaker`] with a timeout, so a
//! lost wakeup race costs bounded latency, never a hang.

use crate::admission::{AdmissionModel, Miss, TenantGate, WindowArrival};
use crate::postmortem::TraceSet;
use crate::protocol::{Frame, TenantStatsWire};
use crate::server::{ScenarioContext, ServiceConfig};
use crate::spsc::{Consumer, ShardWaker, SubmitSlot};
use crate::transport::ReplySink;
use decoding_graph::LatencyModel;
use ler::DecoderKind;
use realtime::{
    fallback_latency_model, service_ns, PredecodeMode, SlidingWindowDecoder, WindowConfig,
    WindowedOutcome,
};
use std::collections::HashMap;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use telemetry::{ShardMetrics, Stage, TraceBuf, TraceKind, SHARD_TENANT};

/// A control request routed to one shard. Submissions do NOT travel
/// this channel — they arrive on the SPSC rings attached here.
pub(crate) enum ShardRequest {
    /// Attach a tenant to this shard; the ack goes to `reply`.
    Register {
        qubit: u32,
        scenario: usize,
        kind: DecoderKind,
        window: WindowConfig,
        predecode: PredecodeMode,
        gate: Arc<TenantGate>,
        reply: Arc<ReplySink>,
    },
    /// Attach one session's submission ring to this shard; the ring's
    /// commits go to `reply`.
    AttachRing {
        ring: Consumer,
        reply: Arc<ReplySink>,
    },
    /// Report per-tenant SLO accounting for this shard's tenants.
    Stats { reply: Sender<Vec<TenantStatsWire>> },
}

/// One tenant's decode state, owned by its shard.
struct Tenant<'a> {
    qubit: u32,
    decoder: SlidingWindowDecoder<'a>,
    fallback: Box<dyn LatencyModel + Send>,
    /// The `(window, commit)` split the decoder runs.
    window: WindowConfig,
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
    /// Recycled outcome buffer (the window records `Vec` keeps its
    /// capacity across shots).
    out: WindowedOutcome,
}

/// Windows one shot's decode produces: the number of window steps of
/// the sliding-window loop over `layers` round layers.
fn windows_per_shot(layers: u32, cfg: WindowConfig) -> u32 {
    if layers <= cfg.window {
        1
    } else {
        1 + (layers - cfg.window).div_ceil(cfg.commit)
    }
}

/// The index within its shot of the window that ends at layer `hi`:
/// window `k` ends at `min(k × commit + window, layers)`.
fn window_index(hi: u32, layers: u32, cfg: WindowConfig) -> u32 {
    if hi < layers {
        (hi - cfg.window) / cfg.commit
    } else {
        windows_per_shot(layers, cfg) - 1
    }
}

/// Most slots a sweep takes from one ring per pass: bounds the
/// per-tenant decode batch, so control traffic and sibling rings stay
/// live.
const BATCH_MAX: usize = 16;

/// How long an idle shard parks before re-checking its rings. Bounds
/// the latency of a lost wakeup race (and of control messages sent
/// without a wake).
const IDLE_PARK: Duration = Duration::from_micros(500);

/// Shard-local flight-recorder state: the shard's ring, the shared
/// trigger latch, the escalation-storm gauge (a bitmask of the last 64
/// windows — 1 = escalated past L1), and the ring-depth latch.
struct ShardTrace {
    buf: Arc<TraceBuf>,
    set: Arc<TraceSet>,
    storm_bits: u64,
    storm_seen: u32,
    storm_latched: bool,
    high_water_latched: bool,
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

    /// Logs a window the admission model served past the deadline, keyed
    /// by its tenant, shot and window, with its modeled reaction, and
    /// triggers the postmortem.
    fn deadline_miss(&self, tenants: &HashMap<u32, Tenant<'_>>, miss: Miss) {
        let t = tenants
            .get(&miss.qubit)
            .expect("only registered tenants decode windows, and none leaves");
        // A window ends at a layer in 1..=layers of its shot.
        let layers = u64::from(t.layers_per_shot);
        let shot = (miss.ready_round - 1) / layers;
        let hi = (miss.ready_round - shot * layers) as u32;
        let window = window_index(hi, t.layers_per_shot, t.window);
        // The cast saturates: a reaction past u32::MAX ns reads as that.
        let arg = miss.reaction_ns as u32;
        let kind = TraceKind::DeadlineMiss;
        self.buf.record(miss.qubit, shot, window, kind, arg);
        self.set.trigger("deadline-miss");
    }
}

/// One decode shard: the sweep state, behind the lock its thread and
/// the session routers share, and the waker its thread parks on.
pub(crate) struct Shard<'a> {
    core: Mutex<ShardCore<'a>>,
    waker: ShardWaker,
}

/// Everything a sweep touches. At most one thread sweeps a shard at a
/// time: the one holding this lock.
struct ShardCore<'a> {
    id: usize,
    cfg: &'a ServiceConfig,
    scenarios: &'a [ScenarioContext],
    metrics: Arc<ShardMetrics>,
    control: Receiver<ShardRequest>,
    control_open: bool,
    tenants: HashMap<u32, Tenant<'a>>,
    model: AdmissionModel,
    rings: Vec<(Consumer, Arc<ReplySink>)>,
    tr: Option<ShardTrace>,
    /// One ring sweep's replies, encoded back to back (recycled).
    wire: Vec<u8>,
}

impl<'a> Shard<'a> {
    pub(crate) fn new(
        id: usize,
        cfg: &'a ServiceConfig,
        scenarios: &'a [ScenarioContext],
        control: Receiver<ShardRequest>,
        metrics: Arc<ShardMetrics>,
        trace: Option<Arc<TraceSet>>,
    ) -> Self {
        let tr = trace.map(|set| ShardTrace {
            buf: Arc::clone(set.buf(id)),
            set,
            storm_bits: 0,
            storm_seen: 0,
            storm_latched: false,
            high_water_latched: false,
        });
        Shard {
            core: Mutex::new(ShardCore {
                id,
                cfg,
                scenarios,
                metrics,
                control,
                control_open: true,
                tenants: HashMap::new(),
                model: AdmissionModel::new(cfg.admission()),
                rings: Vec::new(),
                tr,
                wire: Vec::new(),
            }),
            waker: ShardWaker::new(),
        }
    }

    /// The waker the shard thread parks on.
    pub(crate) fn waker(&self) -> &ShardWaker {
        &self.waker
    }

    fn lock(&self) -> MutexGuard<'_, ShardCore<'a>> {
        self.core.lock().expect("shard poisoned")
    }

    /// The shard thread: sweeps until the control channel is gone and
    /// every attached ring has been drained and closed, parking whenever
    /// a sweep finds nothing.
    pub(crate) fn run(&self) {
        self.waker.register();
        // Wakes are counted at the waker (the producer side swaps the
        // parked flag); fold them into the telemetry counter by delta.
        let mut last_wakes = 0u64;
        let mut unwoken = false;
        loop {
            let mut core = self.lock();
            let swept = core.step();
            if std::mem::take(&mut unwoken) && swept > 0 {
                core.metrics.timeout_pickups.inc();
            }
            let wakes = self.waker.wake_count();
            if wakes > last_wakes {
                core.record_wakes(wakes - last_wakes);
                last_wakes = wakes;
            }
            if core.finished() {
                break;
            }
            if swept > 0 {
                continue;
            }
            self.waker.prepare_park();
            // Re-check after raising the parked flag: a producer that
            // published in between will have seen the flag, and either
            // wakes this thread or sweeps inline once the lock is free.
            if core.has_pending() {
                self.waker.cancel_park();
                continue;
            }
            core.metrics.parks.inc();
            if let Some(t) = &core.tr {
                t.buf.record(SHARD_TENANT, 0, 0, TraceKind::Park, 0);
            }
            drop(core);
            unwoken = self.waker.park_timeout(IDLE_PARK);
        }
    }

    /// Sweeps the shard on the calling router thread — one `try_lock`ed
    /// pass while the shard thread sleeps on — and wakes the thread
    /// instead when the lock is taken or work is left after the pass.
    fn sweep_inline(&self) {
        if let Ok(mut core) = self.core.try_lock() {
            core.step();
            core.metrics.inline_sweeps.inc();
            if !core.has_pending() {
                return;
            }
        }
        self.waker.wake();
    }
}

/// A router's hand-off of the shards it published to since its last
/// one (`dirty`, cleared here): it wakes every such shard except one
/// whose thread is parked, then sweeps that one itself, so an idle
/// shard costs its client no thread wake at all.
pub(crate) fn hand_off(shards: &[Shard<'_>], dirty: &mut [bool]) {
    let mut inline = None;
    for (shard, dirty) in shards.iter().zip(dirty.iter_mut()) {
        if !std::mem::take(dirty) {
            continue;
        }
        if inline.is_none() && shard.waker.is_parked() {
            inline = Some(shard);
        } else {
            // Also for a shard that reads as running: the wake's swap,
            // unlike the plain read above, orders this router's
            // publishes before its look at the flag, so a shard raising
            // the flag right now either finds the slots in its re-check
            // or is woken.
            shard.waker.wake();
        }
    }
    if let Some(shard) = inline {
        shard.sweep_inline();
    }
}

impl ShardCore<'_> {
    /// One pass: every queued control request, then at most
    /// `BATCH_MAX` slots per ring, so control traffic and sibling rings
    /// stay live. Returns the slots swept.
    fn step(&mut self) -> usize {
        // Control first: a registration is always applied before any
        // submission swept afterwards (clients wait for the ack before
        // submitting, and the ack is sent from here).
        while self.control_open {
            match self.control.try_recv() {
                Ok(request) => self.apply(request),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => self.control_open = false,
            }
        }
        let depth: usize = self.rings.iter().map(|(ring, _)| ring.len()).sum();
        self.metrics.ring_depth.set(depth as u64);
        if let Some(t) = &mut self.tr {
            let high_water = self.cfg.ring_high_water;
            if high_water > 0 && depth as u32 >= high_water && !t.high_water_latched {
                t.high_water_latched = true;
                t.set.trigger("ring-high-water");
            }
        }
        let mut swept = 0usize;
        for (ring, reply) in &mut self.rings {
            let n = ring.len().min(BATCH_MAX);
            if n == 0 {
                continue;
            }
            self.wire.clear();
            for i in 0..n {
                process_slot(
                    &mut self.tenants,
                    &mut self.model,
                    ring.slot(i),
                    &mut self.wire,
                    &self.metrics,
                    self.cfg,
                    &mut self.tr,
                );
            }
            ring.advance(n);
            reply.send_wire(&self.wire);
            let (tenants, tr) = (&self.tenants, &self.tr);
            self.model.release(watermark(tenants), |miss| {
                if let Some(t) = tr {
                    t.deadline_miss(tenants, miss);
                }
            });
            swept += n;
        }
        self.rings.retain(|(ring, _)| !ring.is_done());
        swept
    }

    fn apply(&mut self, request: ShardRequest) {
        match request {
            ShardRequest::Register {
                qubit,
                scenario,
                kind,
                window,
                predecode,
                gate,
                reply,
            } => {
                let scenarios = self.scenarios;
                let sc = &scenarios[scenario];
                let mut decoder = SlidingWindowDecoder::with_cache(
                    &sc.context().graph,
                    Arc::clone(sc.layers()),
                    kind,
                    window,
                    Arc::clone(sc.window_cache()),
                )
                .with_predecode(predecode);
                decoder.set_spans(Arc::clone(&self.metrics.stages), self.cfg.metrics_sample);
                if let Some(t) = &self.tr {
                    decoder.set_trace(Arc::clone(&t.buf), qubit);
                }
                let layers_per_shot = sc.layers().num_layers();
                self.tenants.insert(
                    qubit,
                    Tenant {
                        qubit,
                        decoder,
                        fallback: fallback_latency_model(kind),
                        window,
                        layers_per_shot,
                        next_shot: 0,
                        shots: 0,
                        windows: 0,
                        l1_rounds: 0,
                        escalated_windows: 0,
                        gate,
                        out: WindowedOutcome::default(),
                    },
                );
                reply.send(&Frame::RegisterAck {
                    qubit,
                    ok: true,
                    shard: self.id as u32,
                    message: String::new(),
                });
            }
            ShardRequest::AttachRing { ring, reply } => self.rings.push((ring, reply)),
            ShardRequest::Stats { reply } => {
                let _ = reply.send(shard_stats(self.id, &self.tenants, &self.model));
            }
        }
    }

    /// Whether an attached ring holds a published, unswept slot.
    fn has_pending(&self) -> bool {
        self.rings.iter().any(|(ring, _)| !ring.is_empty())
    }

    /// The control channel is gone and every ring drained and closed.
    fn finished(&self) -> bool {
        !self.control_open && self.rings.is_empty()
    }

    fn record_wakes(&self, wakes: u64) {
        self.metrics.wakes.add(wakes);
        if let Some(t) = &self.tr {
            t.buf
                .record(SHARD_TENANT, 0, 0, TraceKind::Wake, wakes as u32);
        }
    }
}

/// Decodes one published ring slot: replay check, decode, buffer the
/// decoded windows in the admission model, and append the reply to
/// `wire`. A shard's replies are far below the frame-size limit, so
/// encoding them cannot fail (and a failure would leave `wire` as it
/// was).
fn process_slot(
    tenants: &mut HashMap<u32, Tenant<'_>>,
    model: &mut AdmissionModel,
    slot: &mut SubmitSlot,
    wire: &mut Vec<u8>,
    metrics: &ShardMetrics,
    cfg: &ServiceConfig,
    tr: &mut Option<ShardTrace>,
) {
    let (qubit, shot) = (slot.qubit, slot.shot);
    if slot.enq != 0 {
        // The router's sampler stamped the publish: the elapsed time to
        // this pickup is the SPSC queueing delay (ingest stage).
        metrics
            .stages
            .record(Stage::Ingest, telemetry::since_ns(slot.enq));
        slot.enq = 0;
    }
    let Some(tenant) = tenants.get_mut(&qubit) else {
        let _ = Frame::Error {
            message: format!("qubit {qubit} is not registered on this shard"),
        }
        .encode_into(wire);
        return;
    };
    // Sequence numbers must be strictly increasing — gaps are fine (a
    // shot shed at the session router never reaches the shard) — and
    // the client-chosen number must leave the shot's rounds countable.
    let next = tenant.next_shot;
    let reject = if shot < next {
        Some(format!(
            "qubit {qubit}: shot {shot} replayed or out of order (next is {next})"
        ))
    } else if shot
        .checked_add(1)
        .and_then(|end| end.checked_mul(tenant.layers_per_shot as u64))
        .is_none()
    {
        Some(format!(
            "qubit {qubit}: shot {shot} overflows the round counter"
        ))
    } else {
        None
    };
    if let Some(message) = reject {
        let _ = Frame::Error { message }.encode_into(wire);
        tenant.gate.complete();
        return;
    }
    if tr.is_some() {
        // Pin the trace's causal key to the wire shot id (sheds leave
        // gaps the decoder's own counter would not).
        tenant.decoder.set_trace_seq(shot);
    }
    // Zero-copy: the wire arena's words feed the decoder's bit-set
    // directly; `out` recycles its window buffer.
    tenant
        .decoder
        .decode_shot_packed_into(&slot.words, &mut tenant.out);
    let base_round = shot * tenant.layers_per_shot as u64;
    let mut total_ns = 0.0;
    for w in &tenant.out.windows {
        // L1-resolved windows carry the fixed predecoder charge in
        // `latency_ns`; escalated ones bill the solver for the residual
        // weight only, so the fallback model sees `solver_hw`, not the
        // pre-cancellation `hw`.
        let ns = service_ns(w.latency_ns, w.solver_hw, tenant.fallback.as_ref());
        model.push(WindowArrival {
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
    let _ = Frame::CommitResult {
        qubit,
        shot,
        obs_flip: tenant.out.obs_flip,
        failed: tenant.out.failed,
        shed: false,
        shed_reason: 0,
        windows: tenant.out.windows.len() as u32,
        service_ns_total: total_ns,
    }
    .encode_into(wire);
}

/// The least `(next_shot × layers_per_shot, qubit)` over `tenants`. A
/// shard refuses every shot below a tenant's `next_shot`, so no window
/// still to come is keyed below it.
fn watermark(tenants: &HashMap<u32, Tenant<'_>>) -> (u64, u32) {
    tenants
        .values()
        .map(|t| (t.next_shot * u64::from(t.layers_per_shot), t.qubit))
        .min()
        .unwrap_or((u64::MAX, u32::MAX))
}

/// Reads the shard's admission model and merges it with the live
/// counters into wire rows (one per tenant, zeros included).
fn shard_stats(
    shard_id: usize,
    tenants: &HashMap<u32, Tenant<'_>>,
    model: &AdmissionModel,
) -> Vec<TenantStatsWire> {
    let reports = model.reports();
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
        window: WindowConfig,
        gate: Arc<TenantGate>,
    ) -> Tenant<'_> {
        let layers_per_shot = decoder.layers().num_layers();
        Tenant {
            qubit,
            decoder,
            fallback: fallback_latency_model(DecoderKind::Mwpm),
            window,
            layers_per_shot,
            next_shot: 0,
            shots: 0,
            windows: 0,
            l1_rounds: 0,
            escalated_windows: 0,
            gate,
            out: WindowedOutcome::default(),
        }
    }

    /// Every frame in a sweep's reply buffer, in order.
    fn frames(wire: &[u8]) -> Vec<Frame> {
        let mut rest = wire;
        std::iter::from_fn(|| Frame::read_from(&mut rest).unwrap()).collect()
    }

    /// The one reply `process_slot` appended, taken out of `wire`.
    fn take_one(wire: &mut Vec<u8>) -> Frame {
        let mut replies = frames(wire);
        wire.clear();
        assert_eq!(replies.len(), 1, "{replies:?}");
        replies.pop().unwrap()
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
            for (k, win) in out.windows.iter().enumerate() {
                let index = window_index(win.hi_layer, layers.num_layers(), cfg);
                assert_eq!(index, k as u32, "w={w} c={c}");
            }
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
            tenants.insert(0, test_tenant(0, decoder, cfg, gate));
            let mut wire = Vec::new();
            let mut model = AdmissionModel::new(admission);
            let metrics = ShardMetrics::default();
            for (i, dets) in shots.iter().enumerate() {
                let mut slot = pack_slot(0, i as u64, dets, num_dets);
                process_slot(
                    &mut tenants,
                    &mut model,
                    &mut slot,
                    &mut wire,
                    &metrics,
                    &ServiceConfig::default(),
                    &mut None,
                );
            }
            for frame in frames(&wire) {
                match frame {
                    Frame::CommitResult { failed, .. } => assert!(!failed),
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            let reports = model.reports();
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
    fn tenant_commits_match_the_reference_decode() {
        // The ring carries packed words, decoded zero-copy; every commit
        // must carry exactly what the standalone sparse reference path
        // decodes from the same detectors.
        let ctx = ExperimentContext::with_rounds(3, 6, 1e-3);
        let cfg = WindowConfig::new(4, 2).unwrap();
        let shots: Vec<Vec<u32>> = ctx
            .dem
            .errors
            .iter()
            .take(24)
            .map(|e| e.dets.as_slice().to_vec())
            .collect();
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        let num_dets = layers.num_detectors();
        let decoder = SlidingWindowDecoder::new(&ctx.graph, layers.clone(), DecoderKind::Mwpm, cfg);
        let mut oracle = SlidingWindowDecoder::new(&ctx.graph, layers, DecoderKind::Mwpm, cfg);
        let fallback = fallback_latency_model(DecoderKind::Mwpm);
        let gate = Arc::new(TenantGate::new(shots.len()));
        for _ in &shots {
            assert!(gate.try_admit());
        }
        let mut tenants = HashMap::new();
        tenants.insert(3, test_tenant(3, decoder, cfg, gate));
        let mut wire = Vec::new();
        let mut model = AdmissionModel::new(ServiceConfig::default().admission());
        let metrics = ShardMetrics::default();
        for (i, dets) in shots.iter().enumerate() {
            let mut slot = pack_slot(3, i as u64, dets, num_dets);
            process_slot(
                &mut tenants,
                &mut model,
                &mut slot,
                &mut wire,
                &metrics,
                &ServiceConfig::default(),
                &mut None,
            );
            let want = oracle.decode_shot_reference(dets);
            let service_ns_total = want
                .windows
                .iter()
                .map(|w| service_ns(w.latency_ns, w.solver_hw, fallback.as_ref()))
                .sum();
            assert_eq!(
                take_one(&mut wire),
                Frame::CommitResult {
                    qubit: 3,
                    shot: i as u64,
                    obs_flip: want.obs_flip,
                    failed: want.failed,
                    shed: false,
                    shed_reason: 0,
                    windows: want.windows.len() as u32,
                    service_ns_total,
                },
                "shot {i}"
            );
        }
        assert_eq!(tenants[&3].gate.in_flight(), 0);
    }

    #[test]
    fn stats_equal_simulate_shard_over_the_decoded_windows() {
        // Three tenants interleave, each at its own pace: tenant 4 runs
        // two shots ahead per turn, tenant 6 skips every other shot. The
        // model is released to the shard's watermark after every slot,
        // as a sweep releases it, and its stats must equal the full
        // re-simulation of the windows the reference decode bills.
        use crate::admission::{simulate_shard, AdmissionConfig};
        let ctx = ExperimentContext::with_rounds(3, 6, 1e-3);
        let cfg = WindowConfig::new(4, 2).unwrap();
        let admission = AdmissionConfig {
            round_ns: 1000.0,
            deadline_ns: 1500.0,
            queue_capacity: 2,
        };
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        let num_dets = layers.num_detectors();
        let fallback = fallback_latency_model(DecoderKind::Mwpm);
        let mut oracle =
            SlidingWindowDecoder::new(&ctx.graph, layers.clone(), DecoderKind::Mwpm, cfg);
        let mut tenants = HashMap::new();
        for q in [1u32, 4, 6] {
            let decoder =
                SlidingWindowDecoder::new(&ctx.graph, layers.clone(), DecoderKind::Mwpm, cfg);
            tenants.insert(
                q,
                test_tenant(q, decoder, cfg, Arc::new(TenantGate::new(1))),
            );
        }
        let mut order = Vec::new();
        for turn in 0..12u64 {
            let ahead = [(4, 2 * turn), (4, 2 * turn + 1)];
            let (first, last) = if turn % 2 == 0 {
                ((1u32, turn), (6, 2 * turn))
            } else {
                ((6, 2 * turn), (1, turn))
            };
            order.push(first);
            order.extend(ahead);
            order.push(last);
        }
        let mut model = AdmissionModel::new(admission);
        let (mut wire, metrics) = (Vec::new(), ShardMetrics::default());
        let mut arrivals = Vec::new();
        for (k, &(q, shot)) in order.iter().enumerate() {
            let dets = ctx.dem.errors[k % ctx.dem.errors.len()].dets.as_slice();
            assert!(tenants[&q].gate.try_admit());
            let mut slot = pack_slot(q, shot, dets, num_dets);
            process_slot(
                &mut tenants,
                &mut model,
                &mut slot,
                &mut wire,
                &metrics,
                &ServiceConfig::default(),
                &mut None,
            );
            model.release(watermark(&tenants), |_| {});
            let base_round = shot * tenants[&q].layers_per_shot as u64;
            for w in oracle.decode_shot_reference(dets).windows {
                arrivals.push(WindowArrival {
                    qubit: q,
                    ready_round: base_round + w.hi_layer as u64,
                    service_ns: service_ns(w.latency_ns, w.solver_hw, fallback.as_ref()),
                });
            }
        }
        assert!(frames(&wire)
            .iter()
            .all(|f| matches!(f, Frame::CommitResult { .. })));
        let reports = model.reports();
        assert_eq!(reports, simulate_shard(&mut arrivals, &admission));
        assert_eq!(reports.len(), 3);
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
        tenants.insert(1, test_tenant(1, decoder, cfg, Arc::clone(&gate)));
        let mut wire = Vec::new();
        let mut model = AdmissionModel::new(ServiceConfig::default().admission());
        let metrics = ShardMetrics::default();
        let (replayed, uncountable) = (
            Some("replayed or out of order"),
            Some("overflows the round counter"),
        );
        for (shot, expect_err) in [
            (0u64, None),
            (0, replayed),
            (5, None),
            (2, replayed),
            // The shot's rounds would overflow the round counter.
            (u64::MAX / 2, uncountable),
            (u64::MAX, uncountable),
            (6, None),
        ] {
            assert!(gate.try_admit());
            let mut slot = pack_slot(1, shot, &[], num_dets);
            process_slot(
                &mut tenants,
                &mut model,
                &mut slot,
                &mut wire,
                &metrics,
                &ServiceConfig::default(),
                &mut None,
            );
            match take_one(&mut wire) {
                Frame::Error { message } => {
                    let why = expect_err.unwrap_or_else(|| panic!("unexpected reject: {message}"));
                    assert!(message.contains(why), "{message}");
                }
                Frame::CommitResult { shot: s, .. } => {
                    assert!(expect_err.is_none(), "shot {s} should have been rejected");
                }
                other => panic!("unexpected reply {other:?}"),
            }
        }
        assert_eq!(gate.in_flight(), 0, "rejects release the gate slot");
        // An unregistered qubit is rejected without touching any gate.
        let mut slot = pack_slot(9, 0, &[], num_dets);
        process_slot(
            &mut tenants,
            &mut model,
            &mut slot,
            &mut wire,
            &metrics,
            &ServiceConfig::default(),
            &mut None,
        );
        match take_one(&mut wire) {
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
        // function of the counters and the admission model).
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
        tenants.insert(7, test_tenant(7, decoder, cfg, gate));
        let model = AdmissionModel::new(ServiceConfig::default().admission());
        let first = shard_stats(0, &tenants, &model);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].shed, 8, "one shed per rejected submission");
        assert_eq!(first[0].windows, 0, "shed submissions open no windows");
        let second = shard_stats(0, &tenants, &model);
        assert_eq!(first, second, "stats are deterministic");
    }

    /// One shard around a small scenario, with an in-process session whose
    /// tenant 0 and ring are queued for registration (the first sweep
    /// applies both and acks).
    struct Fixture<'a> {
        shard: Shard<'a>,
        metrics: Arc<ShardMetrics>,
        control: Sender<ShardRequest>,
        producer: crate::spsc::Producer,
        gate: Arc<TenantGate>,
        client: crate::transport::Endpoint,
        words: usize,
    }

    fn scenario() -> Vec<ScenarioContext> {
        let ctx = Arc::new(ExperimentContext::with_rounds(3, 4, 1e-3));
        vec![ScenarioContext::new("handoff", ctx).unwrap()]
    }

    fn fixture<'a>(cfg: &'a ServiceConfig, scenarios: &'a [ScenarioContext]) -> Fixture<'a> {
        let (control, rx) = std::sync::mpsc::channel();
        let metrics = Arc::new(ShardMetrics::default());
        let shard = Shard::new(0, cfg, scenarios, rx, Arc::clone(&metrics), None);
        let (client, server_end) = crate::transport::channel_pair();
        let reply = Arc::new(ReplySink::new(server_end.sink));
        let gate = Arc::new(TenantGate::new(1 << 16));
        control
            .send(ShardRequest::Register {
                qubit: 0,
                scenario: 0,
                kind: DecoderKind::Mwpm,
                window: WindowConfig::new(3, 2).unwrap(),
                predecode: PredecodeMode::Off,
                gate: Arc::clone(&gate),
                reply: Arc::clone(&reply),
            })
            .unwrap();
        let (producer, ring) = crate::spsc::ring(64);
        control
            .send(ShardRequest::AttachRing { ring, reply })
            .unwrap();
        let words = words_for(scenarios[0].layers().num_detectors() as usize).max(1);
        Fixture {
            shard,
            metrics,
            control,
            producer,
            gate,
            client,
            words,
        }
    }

    /// Publishes an empty shot `shot` of tenant 0, as a router would.
    fn publish(producer: &mut crate::spsc::Producer, gate: &TenantGate, words: usize, shot: u64) {
        assert!(gate.try_admit());
        let slot = producer.try_claim().expect("ring has room");
        slot.qubit = 0;
        slot.shot = shot;
        slot.enq = 0;
        slot.words.clear();
        slot.words.resize(words, 0);
        producer.publish();
    }

    /// Reads the registration ack, then commits for `shots` in order.
    fn expect_commits(client: &mut crate::transport::Endpoint, shots: std::ops::Range<u64>) {
        match client.source.recv().unwrap() {
            Some(Frame::RegisterAck { ok: true, .. }) => {}
            other => panic!("registration answered {other:?}"),
        }
        for want in shots {
            match client.source.recv().unwrap() {
                Some(Frame::CommitResult {
                    shot, shed: false, ..
                }) => assert_eq!(shot, want),
                other => panic!("shot {want} answered {other:?}"),
            }
        }
    }

    #[test]
    fn a_parked_shard_with_a_free_lock_is_swept_inline_without_a_wake() {
        let (cfg, scenarios) = (ServiceConfig::default(), scenario());
        let mut f = fixture(&cfg, &scenarios);
        publish(&mut f.producer, &f.gate, f.words, 0);
        // The shard thread parked (raised its flag) before the publish.
        f.shard.waker.prepare_park();
        hand_off(std::slice::from_ref(&f.shard), &mut [true]);
        assert_eq!(f.shard.waker.wake_count(), 0, "nobody was woken");
        assert!(f.shard.waker.is_parked(), "the thread sleeps on");
        assert_eq!(f.metrics.inline_sweeps.get(), 1);
        expect_commits(&mut f.client, 0..1);
    }

    #[test]
    fn a_held_shard_lock_turns_the_hand_off_into_one_wake() {
        let (cfg, scenarios) = (ServiceConfig::default(), scenario());
        let mut f = fixture(&cfg, &scenarios);
        publish(&mut f.producer, &f.gate, f.words, 0);
        f.shard.waker.prepare_park();
        let held = f.shard.lock();
        hand_off(std::slice::from_ref(&f.shard), &mut [true]);
        assert_eq!(f.shard.waker.wake_count(), 1, "exactly one wake");
        assert!(!f.shard.waker.is_parked());
        drop(held);
        assert_eq!(f.metrics.inline_sweeps.get(), 0);
        // The woken thread's sweep finds the slot.
        assert_eq!(f.shard.lock().step(), 1);
        expect_commits(&mut f.client, 0..1);
    }

    #[test]
    fn a_running_shard_is_neither_swept_inline_nor_counted_as_woken() {
        let (cfg, scenarios) = (ServiceConfig::default(), scenario());
        let mut f = fixture(&cfg, &scenarios);
        publish(&mut f.producer, &f.gate, f.words, 0);
        hand_off(std::slice::from_ref(&f.shard), &mut [true]);
        assert_eq!(f.shard.waker.wake_count(), 0);
        assert_eq!(f.metrics.inline_sweeps.get(), 0);
        // The running thread's next sweep takes the slot.
        assert_eq!(f.shard.lock().step(), 1);
        expect_commits(&mut f.client, 0..1);
        // A shard nobody published to is left alone altogether.
        f.shard.waker.prepare_park();
        hand_off(std::slice::from_ref(&f.shard), &mut [false]);
        assert_eq!(f.shard.waker.wake_count(), 0);
        assert_eq!(f.metrics.inline_sweeps.get(), 0);
    }

    #[test]
    fn work_left_after_an_inline_pass_falls_back_to_a_wake() {
        let (cfg, scenarios) = (ServiceConfig::default(), scenario());
        let mut f = fixture(&cfg, &scenarios);
        let shots = BATCH_MAX as u64 + 1;
        for shot in 0..shots {
            publish(&mut f.producer, &f.gate, f.words, shot);
        }
        f.shard.waker.prepare_park();
        hand_off(std::slice::from_ref(&f.shard), &mut [true]);
        assert_eq!(f.metrics.inline_sweeps.get(), 1);
        assert_eq!(f.shard.waker.wake_count(), 1, "one slot was left");
        assert_eq!(f.shard.lock().step(), 1);
        expect_commits(&mut f.client, 0..shots);
    }

    #[test]
    fn inline_and_thread_sweeps_alternate_over_one_tenant_in_shot_order() {
        const SHOTS: u64 = 64;
        let (cfg, scenarios) = (ServiceConfig::default(), scenario());
        let Fixture {
            shard,
            metrics,
            control,
            mut producer,
            gate,
            mut client,
            words,
        } = fixture(&cfg, &scenarios);
        std::thread::scope(|scope| {
            let shard = &shard;
            scope.spawn(move || shard.run());
            for shot in 0..SHOTS {
                publish(&mut producer, &gate, words, shot);
                if shot % 2 == 0 {
                    // Hand off to the parked thread: swept here, unless
                    // the thread's idle timeout wins the lock race.
                    while !shard.waker.is_parked() {
                        std::thread::yield_now();
                    }
                    hand_off(std::slice::from_ref(shard), &mut [true]);
                } else {
                    shard.waker.wake();
                }
            }
            expect_commits(&mut client, 0..SHOTS);
            // Closing the ring and the control channel ends the thread.
            drop(producer);
            drop(control);
            shard.waker.wake();
        });
        assert!(metrics.inline_sweeps.get() > 0, "no sweep ran inline");
        assert!(shard.waker.wake_count() > 0, "no sweep ran on the thread");
        assert_eq!(gate.in_flight(), 0);
    }
}
