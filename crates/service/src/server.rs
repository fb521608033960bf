//! The multi-tenant decode server.
//!
//! A [`DecodeServer`] is configured with a [`ServiceConfig`] and a set
//! of preloaded [`ScenarioContext`]s (one per scenario it will accept
//! registrations for — graph, path table, layer map, and shared window
//! cache, all behind `Arc` so Q tenants share one copy of the immutable
//! state). [`DecodeServer::serve`] runs the worker pool over any
//! number of transport sessions:
//!
//! ```text
//!  client ──frames──▶ router (1/session) ──SPSC ring──▶ shard 0..S-1
//!            │  one buffered  │  publish the burst; then   │ tenants' decoders,
//!            │  read / burst  │  wake busy shards, sweep   │ rings, timeline and
//!            │                │  one parked shard itself   │ reply scratch behind
//!            │                │                            │ one lock: its thread
//!            │                │                            │ or a router sweeps
//!  client ◀─frames── reply sink (1/session) ◀── one send_wire per ring sweep
//!            │  TCP_NODELAY,  │  sink + recycled buffer behind one lock; the
//!            │  write timeout │  router's own replies take the same lock
//! ```
//!
//! Nothing on the TCP path waits on a kernel timer or pays a syscall per
//! frame: [`tcp_endpoint`] sets `TCP_NODELAY`, so a reply written while
//! an earlier one is un-ACKed leaves now rather than with the client's
//! next submit (or its 40 ms delayed ACK); the router's source reads a
//! whole burst of submits with one `read`; and one shard sweep's replies
//! to a session leave in one `write`, issued by whichever thread swept.
//!
//! A session costs one thread, its router. The router publishes a
//! burst's submissions without waking anyone; once its source holds no
//! further whole frame, it wakes every shard it published to except one
//! whose thread is parked, and sweeps that one itself. On an idle
//! service a commit therefore costs two thread wakes — router (socket
//! readable) and client (socket readable) — with the decode run to
//! completion on the router in between. A router that loses the shard's
//! lock, or leaves work after its pass, wakes the shard thread instead.
//! Because shards write to sockets, every server-side socket — accepted
//! or in-process — carries a 100 ms write timeout: a peer that stops
//! reading stalls a shard at most once, for that long, and then loses
//! its session.
//!
//! Tenants are pinned: a qubit's decode state lives on exactly one shard
//! (assigned at registration by stable hash, with a deterministic
//! least-loaded fallback — "work stealing at enqueue" — when the hash
//! shard is already busier than the lightest one). The submit hot path
//! touches only the tenant's own [`crate::admission::TenantGate`]
//! atomics and the owning shard's ring; no cross-shard locks.

use crate::admission::{ShedReason, TenantGate};
use crate::postmortem::TraceSet;
use crate::protocol::{Frame, ServiceError, TenantStatsWire};
use crate::shard::{hand_off, Shard, ShardRequest};
use crate::spsc::{self, Producer};
use crate::transport::{server_side, tcp_endpoint, Endpoint, FrameSource, ReplySink};
use decoding_graph::packed::words_for;
use decoding_graph::{LayerMap, SeamPolicy, WindowCache};
use ler::{DecoderKind, ExperimentContext};
use realtime::{Datapath, PredecodeMode, WindowConfig};
use std::collections::{HashMap, HashSet};
use std::net::TcpListener;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use crate::admission::AdmissionConfig;

/// Sizing and SLO parameters of one server.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceConfig {
    /// Decode shards (worker threads).
    pub shards: usize,
    /// Syndrome measurement round period, ns (the modeled cadence every
    /// tenant produces rounds at).
    pub round_ns: f64,
    /// Reaction deadline per window, ns.
    pub deadline_ns: f64,
    /// Modeled bound on one tenant's waiting windows (see
    /// [`crate::admission::simulate_shard`]).
    pub queue_capacity: usize,
    /// Live bound on one tenant's in-flight shots; submissions beyond it
    /// are shed at the session router without decoding.
    pub max_inflight_shots: usize,
    /// Stage-span sampling period: 1 in `metrics_sample` window steps
    /// (and submissions) gets span timestamps. 0 disables spans
    /// entirely; counters and gauges are always live.
    pub metrics_sample: u32,
    /// Flight-recorder ring capacity per shard, in events (rounded up
    /// to a power of two). 0 disables tracing entirely: no rings are
    /// built and the hot paths stay branch-free.
    pub trace_capacity: usize,
    /// Postmortem dump-file prefix (`{prefix}-{reason}-{millis}.trace`).
    /// `None` writes no dump file — triggers still latch and count, and
    /// in-process readers still see the rings through
    /// [`DecodeServer::trace`]. Dump files are the one route a trace
    /// leaves the process by.
    pub trace_dump_prefix: Option<String>,
    /// Escalation-storm postmortem threshold: trigger when the fraction
    /// of a shard's last 64 windows that escalated past the L1
    /// predecoder exceeds this. 0 disables the detector.
    pub storm_threshold: f64,
    /// SPSC ring-depth high-water mark: trigger a postmortem when a
    /// shard observes this many pending submissions across its rings.
    /// 0 disables the detector.
    pub ring_high_water: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 1,
            round_ns: 1000.0,
            deadline_ns: 2000.0,
            queue_capacity: 4,
            max_inflight_shots: 4,
            metrics_sample: 8,
            trace_capacity: 0,
            trace_dump_prefix: None,
            storm_threshold: 0.0,
            ring_high_water: 0,
        }
    }
}

impl ServiceConfig {
    /// Validates the sizing parameters.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shards must be at least 1".into());
        }
        if !self.round_ns.is_finite() || self.round_ns <= 0.0 {
            return Err(format!("round_ns must be positive, got {}", self.round_ns));
        }
        if !self.deadline_ns.is_finite() || self.deadline_ns <= 0.0 {
            return Err(format!(
                "deadline_ns must be positive, got {}",
                self.deadline_ns
            ));
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be at least 1".into());
        }
        if self.max_inflight_shots == 0 {
            return Err("max_inflight_shots must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.storm_threshold) {
            return Err(format!(
                "storm_threshold must be a fraction in [0, 1], got {}",
                self.storm_threshold
            ));
        }
        Ok(())
    }

    /// The modeled admission parameters shards simulate under.
    pub fn admission(&self) -> AdmissionConfig {
        AdmissionConfig {
            round_ns: self.round_ns,
            deadline_ns: self.deadline_ns,
            queue_capacity: self.queue_capacity,
        }
    }
}

/// One scenario's shared read-only decode state: experiment context
/// (circuit, DEM, graph, path table), layer map, and window cache, all
/// behind `Arc` so every tenant of the scenario shares a single copy.
#[derive(Clone, Debug)]
pub struct ScenarioContext {
    name: String,
    ctx: Arc<ExperimentContext>,
    layers: Arc<LayerMap>,
    cache: Arc<WindowCache>,
}

impl ScenarioContext {
    /// Wraps a (typically registry-cached) experiment context for
    /// serving under `name`.
    ///
    /// # Errors
    ///
    /// Returns a message if the context's graph has no layer structure.
    pub fn new(name: impl Into<String>, ctx: Arc<ExperimentContext>) -> Result<Self, String> {
        let layers = Arc::new(LayerMap::from_graph(&ctx.graph)?);
        let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
        Ok(ScenarioContext {
            name: name.into(),
            ctx,
            layers,
            cache,
        })
    }

    /// The scenario name clients register against.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared experiment context.
    pub fn context(&self) -> &Arc<ExperimentContext> {
        &self.ctx
    }

    /// The shared detector ⇄ layer map.
    pub fn layers(&self) -> &Arc<LayerMap> {
        &self.layers
    }

    /// The shared window-subgraph cache.
    pub fn window_cache(&self) -> &Arc<WindowCache> {
        &self.cache
    }
}

/// SplitMix64 — the stable qubit→shard hash, and the per-tenant seed
/// mixer of [`crate::loadgen::qubit_seed`].
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The stable home shard of a qubit (before load balancing).
pub fn preferred_shard(qubit: u32, shards: usize) -> usize {
    (splitmix64(qubit as u64) % shards as u64) as usize
}

/// A registered tenant's routing entry, held by the session that
/// registered it. Carries the scenario's detector-space geometry so the
/// session router can validate and bit-pack submissions without
/// touching shared state.
#[derive(Debug)]
struct TenantRoute {
    shard: usize,
    gate: Arc<TenantGate>,
    /// Detectors in the tenant's decoding graph (wire dets must be
    /// `< num_dets`).
    num_dets: u32,
    /// Packed words per shot (`words_for(num_dets)`, at least 1).
    wps: usize,
}

/// The server-wide registration state: which qubits are taken (for the
/// duplicate check) and how many tenants each shard holds. Routes live
/// only in the registering session, so no session can submit for
/// another's tenant.
struct Registry {
    inner: Mutex<RegistryInner>,
}

struct RegistryInner {
    qubits: HashSet<u32>,
    loads: Vec<usize>,
}

impl Registry {
    fn new(shards: usize) -> Self {
        Registry {
            inner: Mutex::new(RegistryInner {
                qubits: HashSet::new(),
                loads: vec![0; shards],
            }),
        }
    }

    /// Assigns `qubit` a shard: its stable hash home, unless that shard
    /// is already busier than the least-loaded one (then the tenant is
    /// "stolen" to the least-loaded shard, lowest id on ties —
    /// deterministic for a fixed registration order).
    fn assign(
        &self,
        qubit: u32,
        gate: Arc<TenantGate>,
        num_dets: u32,
    ) -> Result<TenantRoute, String> {
        let mut g = self.inner.lock().expect("registry poisoned");
        if !g.qubits.insert(qubit) {
            return Err(format!("qubit {qubit} is already registered"));
        }
        let pref = preferred_shard(qubit, g.loads.len());
        let (min_shard, &min_load) = g
            .loads
            .iter()
            .enumerate()
            .min_by_key(|&(i, &l)| (l, i))
            .expect("at least one shard");
        let shard = if g.loads[pref] > min_load {
            min_shard
        } else {
            pref
        };
        g.loads[shard] += 1;
        Ok(TenantRoute {
            shard,
            gate,
            num_dets,
            wps: words_for(num_dets as usize).max(1),
        })
    }
}

/// A configured, scenario-loaded decode server.
#[derive(Debug)]
pub struct DecodeServer {
    cfg: ServiceConfig,
    scenarios: Vec<ScenarioContext>,
    metrics: Arc<telemetry::Registry>,
    trace: Option<Arc<TraceSet>>,
}

impl DecodeServer {
    /// Builds a server for `scenarios` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns a message for an invalid config, no scenarios, or
    /// duplicate scenario names.
    pub fn new(cfg: ServiceConfig, scenarios: Vec<ScenarioContext>) -> Result<Self, String> {
        cfg.validate()?;
        if scenarios.is_empty() {
            return Err("a decode server needs at least one scenario".into());
        }
        for (i, a) in scenarios.iter().enumerate() {
            if scenarios[..i].iter().any(|b| b.name == a.name) {
                return Err(format!("duplicate scenario name '{}'", a.name));
            }
        }
        let metrics = Arc::new(telemetry::Registry::new(cfg.shards));
        let trace = (cfg.trace_capacity > 0).then(|| {
            Arc::new(TraceSet::new(
                cfg.shards,
                cfg.trace_capacity,
                cfg.trace_dump_prefix.clone(),
            ))
        });
        Ok(DecodeServer {
            cfg,
            scenarios,
            metrics,
            trace,
        })
    }

    /// The server's sizing and SLO parameters.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The server's live telemetry registry. Snapshot it from any
    /// thread — the record side is lock-free, so reading never stalls
    /// decode. Out of process, counters leave by one route: a
    /// `telemetry::MetricsServer` serving `/metrics`.
    pub fn metrics(&self) -> &Arc<telemetry::Registry> {
        &self.metrics
    }

    /// The server's flight recorder, when `trace_capacity > 0`: one
    /// ring per shard plus the postmortem trigger latch. Snapshot it
    /// from any thread with [`TraceSet::collect`] — recording is
    /// wait-free, so reading never stalls decode. Out of process,
    /// traces leave by dump files only.
    pub fn trace(&self) -> Option<&Arc<TraceSet>> {
        self.trace.as_ref()
    }

    /// Serves the given transport sessions to completion (each ends on
    /// `Shutdown` or peer close), then tears the worker pool down.
    pub fn serve(&self, endpoints: Vec<Endpoint>) {
        let (tx, rx) = channel();
        for ep in endpoints {
            tx.send(ep).expect("receiver alive");
        }
        drop(tx);
        self.serve_stream(rx);
    }

    /// Accepts `sessions` TCP connections on `listener` (bind it to port
    /// 0 for an ephemeral port) and serves them concurrently.
    ///
    /// # Errors
    ///
    /// Propagates accept/clone failures; sessions already started keep
    /// running to completion first.
    pub fn serve_tcp(&self, listener: &TcpListener, sessions: usize) -> Result<(), ServiceError> {
        let (tx, rx) = channel();
        std::thread::scope(|scope| {
            let acceptor = scope.spawn(move || -> Result<(), ServiceError> {
                for _ in 0..sessions {
                    let (stream, _) = listener.accept()?;
                    let ep = server_side(tcp_endpoint(stream)?)?;
                    if tx.send(ep).is_err() {
                        break;
                    }
                }
                Ok(())
            });
            self.serve_stream(rx);
            acceptor.join().expect("acceptor panicked")
        })
    }

    /// Core loop: spawn the shards, then one router thread per arriving
    /// endpoint; return once every session and shard is done.
    fn serve_stream(&self, endpoints: Receiver<Endpoint>) {
        let registry = Registry::new(self.cfg.shards);
        let (shard_txs, shards): (Vec<Sender<ShardRequest>>, Vec<Shard<'_>>) = (0..self.cfg.shards)
            .map(|sid| {
                let (tx, rx) = channel();
                let metrics = Arc::clone(self.metrics.shard(sid));
                let shard = Shard::new(
                    sid,
                    &self.cfg,
                    &self.scenarios,
                    rx,
                    metrics,
                    self.trace.clone(),
                );
                (tx, shard)
            })
            .unzip();
        std::thread::scope(|scope| {
            for shard in &shards {
                scope.spawn(move || shard.run());
            }
            let (registry, shards) = (&registry, &shards);
            for ep in endpoints {
                let Endpoint { sink, source } = ep;
                let reply = Arc::new(ReplySink::new(sink));
                let shard_txs = shard_txs.clone();
                scope.spawn(move || {
                    route_session(
                        source,
                        reply,
                        shard_txs,
                        shards,
                        registry,
                        &self.cfg,
                        &self.scenarios,
                        &self.metrics,
                        self.trace.as_ref(),
                    );
                });
            }
            drop(shard_txs);
        });
    }
}

/// Validates a registration frame against the server's scenarios.
/// Packed is the only datapath: any other datapath code is refused.
fn validate_register(
    scenarios: &[ScenarioContext],
    decoder: u8,
    window: u32,
    commit: u32,
    predecode: u8,
    datapath: u8,
    scenario: &str,
) -> Result<(usize, DecoderKind, WindowConfig, PredecodeMode), String> {
    let idx = scenarios
        .iter()
        .position(|s| s.name == scenario)
        .ok_or_else(|| {
            let known: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
            format!(
                "unknown scenario '{scenario}' (this server loaded: {})",
                known.join(", ")
            )
        })?;
    let kind =
        DecoderKind::from_code(decoder).ok_or_else(|| format!("unknown decoder code {decoder}"))?;
    let pd = PredecodeMode::from_code(predecode)
        .ok_or_else(|| format!("unknown predecode code {predecode}"))?;
    if Datapath::from_code(datapath).is_none() {
        return Err(format!(
            "unknown datapath code {datapath}: packed (1) is the only datapath, \
             the byte datapath (0) was retired"
        ));
    }
    let wc = WindowConfig::new(window, commit)?;
    let layers = scenarios[idx].layers().num_layers();
    if wc.window > layers {
        return Err(format!(
            "window {window} exceeds the {layers} round layers of scenario {scenario}"
        ));
    }
    Ok((idx, kind, wc, pd))
}

/// Slots per (session, shard) submission ring. Power of two, far above
/// any sane in-flight budget: the per-tenant gate is the intended
/// backpressure; a full ring only happens when a shard stalls outright,
/// and then the submission is shed (the admission is converted via
/// [`TenantGate::shed_admitted`]).
const RING_CAPACITY: usize = 1024;

/// A shed reply for a submission that never reached a decoder, tagged
/// with why it was shed.
fn shed_commit(qubit: u32, shot: u64, reason: ShedReason) -> Frame {
    Frame::CommitResult {
        qubit,
        shot,
        obs_flip: 0,
        failed: true,
        shed: true,
        shed_reason: reason.code(),
        windows: 0,
        service_ns_total: 0.0,
    }
}

/// One session's request router: reads frames until shutdown/EOF and
/// forwards them to the owning shards.
///
/// Submissions take a zero-copy fast path: the wire body is peeked by
/// type ([`Frame::body_type`]), parsed in place as a
/// [`crate::protocol::SubmitBody`] view, validated, and bit-packed
/// straight into a recycled SPSC ring slot — no `Frame`, no `Vec<u32>`
/// of detectors, no allocation per submission once the session's ring
/// to the owning shard exists.
#[allow(clippy::too_many_arguments)]
fn route_session(
    mut source: FrameSource,
    reply: Arc<ReplySink>,
    shard_txs: Vec<Sender<ShardRequest>>,
    shards: &[Shard<'_>],
    registry: &Registry,
    cfg: &ServiceConfig,
    scenarios: &[ScenarioContext],
    metrics: &telemetry::Registry,
    trace: Option<&Arc<TraceSet>>,
) {
    // The routes of the tenants this session registered: a submit for
    // any other qubit is refused, and steady-state submits touch no lock.
    let mut routes: HashMap<u32, TenantRoute> = HashMap::new();
    // One lazily attached ring per shard this session submits to.
    let mut rings: HashMap<usize, Producer> = HashMap::new();
    // The frame body buffer, recycled across the whole session.
    let mut body: Vec<u8> = Vec::new();
    // 1-in-N ingest-span sampler: a hit stamps the ring slot's `enq`
    // with a raw timestamp the shard turns into an SPSC-delay span.
    let mut sampler = telemetry::Sampler::new(cfg.metrics_sample);
    // Shards published to since the last hand-off.
    let mut dirty = vec![false; shards.len()];
    loop {
        // No published slot waits on a blocking read: hand off first.
        if !source.has_buffered() {
            hand_off(shards, &mut dirty);
        }
        match source.recv_body(&mut body) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                reply.send(&Frame::Error {
                    message: e.to_string(),
                });
                break;
            }
        }
        if Frame::body_type(&body) == Some(2) {
            // SubmitRounds fast path (type 2): parse the body in place.
            let sb = match Frame::decode_submit_body(&body) {
                Ok(sb) => sb,
                Err(e) => {
                    reply.send(&Frame::Error {
                        message: e.to_string(),
                    });
                    break;
                }
            };
            let (qubit, shot) = (sb.qubit, sb.shot);
            let Some(route) = routes.get(&qubit) else {
                reply.send(&Frame::Error {
                    message: format!("qubit {qubit} is not registered on this session"),
                });
                continue;
            };
            if !route.gate.try_admit() {
                // Live admission: in-flight cap hit, shed without
                // decoding.
                metrics.shard(route.shard).sheds.inc();
                if let Some(t) = trace {
                    t.buf(route.shard).record(
                        qubit,
                        shot,
                        0,
                        telemetry::TraceKind::Shed,
                        ShedReason::InflightCap.code() as u32,
                    );
                    t.trigger("shed");
                }
                reply.send(&shed_commit(qubit, shot, ShedReason::InflightCap));
                continue;
            }
            let producer = rings.entry(route.shard).or_insert_with(|| {
                let (producer, consumer) = spsc::ring(RING_CAPACITY);
                // No wake: the hand-off after the publish below covers
                // the attachment too, since a sweep drains control first.
                let _ = shard_txs[route.shard].send(ShardRequest::AttachRing {
                    ring: consumer,
                    reply: Arc::clone(&reply),
                });
                producer
            });
            match producer.try_claim() {
                Some(slot) => {
                    slot.qubit = qubit;
                    slot.shot = shot;
                    slot.enq = if sampler.hit() { telemetry::now() } else { 0 };
                    slot.words.clear();
                    slot.words.resize(route.wps, 0);
                    // Validate while packing: sorted, unique, in range.
                    let mut prev: Option<u32> = None;
                    let mut problem = None;
                    for d in sb.dets() {
                        if prev.is_some_and(|p| p >= d) {
                            problem = Some(format!("qubit {qubit}: detectors not sorted/unique"));
                            break;
                        }
                        if d >= route.num_dets {
                            problem = Some(format!(
                                "qubit {qubit}: detector out of range (graph has {})",
                                route.num_dets
                            ));
                            break;
                        }
                        slot.words[d as usize / 64] |= 1u64 << (d % 64);
                        prev = Some(d);
                    }
                    match problem {
                        Some(message) => {
                            // The claimed slot is never published — the
                            // next claim recycles it.
                            reply.send(&Frame::Error { message });
                            route.gate.complete();
                        }
                        None => {
                            // No wake: the shard is handed off once the
                            // burst is in.
                            producer.publish();
                            dirty[route.shard] = true;
                        }
                    }
                }
                None => {
                    // Ring full: the shard is stalled. Convert the
                    // admission into a shed so the gate slot frees.
                    route.gate.shed_admitted(ShedReason::QueueFull);
                    metrics.shard(route.shard).sheds.inc();
                    if let Some(t) = trace {
                        t.buf(route.shard).record(
                            qubit,
                            shot,
                            0,
                            telemetry::TraceKind::Shed,
                            ShedReason::QueueFull.code() as u32,
                        );
                        t.trigger("shed");
                    }
                    reply.send(&shed_commit(qubit, shot, ShedReason::QueueFull));
                }
            }
            continue;
        }
        // Every other frame is control or the session's end: no shard
        // this session published to is left waiting behind it.
        hand_off(shards, &mut dirty);
        let frame = match Frame::decode(&body) {
            Ok(frame) => frame,
            Err(e) => {
                reply.send(&Frame::Error {
                    message: e.to_string(),
                });
                break;
            }
        };
        match frame {
            Frame::RegisterQubit {
                qubit,
                decoder,
                window,
                commit,
                predecode,
                datapath,
                scenario,
            } => {
                let outcome = validate_register(
                    scenarios, decoder, window, commit, predecode, datapath, &scenario,
                )
                .and_then(|(idx, kind, wc, pd)| {
                    let gate = Arc::new(TenantGate::new(cfg.max_inflight_shots));
                    let num_dets = scenarios[idx].layers().num_detectors();
                    let route = registry.assign(qubit, Arc::clone(&gate), num_dets)?;
                    Ok((idx, kind, wc, pd, gate, route))
                });
                match outcome {
                    Err(message) => {
                        reply.send(&Frame::RegisterAck {
                            qubit,
                            ok: false,
                            shard: 0,
                            message,
                        });
                    }
                    Ok((idx, kind, wc, pd, gate, route)) => {
                        let shard = route.shard;
                        routes.insert(qubit, route);
                        // The shard sends the ack so that it is ordered
                        // after the tenant state actually exists.
                        let _ = shard_txs[shard].send(ShardRequest::Register {
                            qubit,
                            scenario: idx,
                            kind,
                            window: wc,
                            predecode: pd,
                            gate,
                            reply: Arc::clone(&reply),
                        });
                        shards[shard].waker().wake();
                    }
                }
            }
            Frame::SubmitRounds { .. } => {
                unreachable!("type-2 bodies take the fast path above")
            }
            Frame::StatsRequest => {
                let (stx, srx) = channel();
                for (tx, shard) in shard_txs.iter().zip(shards) {
                    let _ = tx.send(ShardRequest::Stats { reply: stx.clone() });
                    shard.waker().wake();
                }
                drop(stx);
                let mut tenants: Vec<TenantStatsWire> = srx.iter().flatten().collect();
                tenants.sort_by_key(|t| t.qubit);
                reply.send(&Frame::StatsReport { tenants });
            }
            Frame::Shutdown => {
                reply.send(&Frame::ShutdownAck);
                break;
            }
            other => {
                reply.send(&Frame::Error {
                    message: format!("unexpected frame type {} from a client", other.type_code()),
                });
            }
        }
    }
    // Close the rings, then hand their shards off once more: each sweeps
    // what is left and drops its closed ring — and with it this session's
    // reply sink — now rather than at its next idle timeout.
    for (shard, producer) in rings {
        drop(producer);
        dirty[shard] = true;
    }
    hand_off(shards, &mut dirty);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_names_the_offending_field() {
        assert!(ServiceConfig::default().validate().is_ok());
        let cases: [(ServiceConfig, &str); 6] = [
            (
                ServiceConfig {
                    shards: 0,
                    ..Default::default()
                },
                "shards",
            ),
            (
                ServiceConfig {
                    round_ns: 0.0,
                    ..Default::default()
                },
                "round_ns",
            ),
            (
                ServiceConfig {
                    deadline_ns: -5.0,
                    ..Default::default()
                },
                "deadline_ns",
            ),
            (
                ServiceConfig {
                    queue_capacity: 0,
                    ..Default::default()
                },
                "queue_capacity",
            ),
            (
                ServiceConfig {
                    max_inflight_shots: 0,
                    ..Default::default()
                },
                "max_inflight",
            ),
            (
                ServiceConfig {
                    storm_threshold: 1.5,
                    ..Default::default()
                },
                "storm_threshold",
            ),
        ];
        for (cfg, field) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(field), "{err} should mention {field}");
        }
    }

    #[test]
    fn preferred_shard_is_stable_and_in_range() {
        for shards in 1..6 {
            for q in 0..64 {
                let s = preferred_shard(q, shards);
                assert!(s < shards);
                assert_eq!(s, preferred_shard(q, shards), "stable");
            }
        }
        // The hash actually spreads qubits (not all on shard 0).
        let spread: std::collections::HashSet<usize> =
            (0..16).map(|q| preferred_shard(q, 4)).collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn registration_steals_to_the_least_loaded_shard() {
        let registry = Registry::new(2);
        let mut loads = [0usize; 2];
        for q in 0..10 {
            let route = registry
                .assign(q, Arc::new(TenantGate::new(1)), 70)
                .unwrap();
            loads[route.shard] += 1;
            assert_eq!(route.num_dets, 70);
            assert_eq!(route.wps, 2, "70 detectors pack into 2 words");
            // Work stealing at enqueue keeps the imbalance within 1.
            assert!(
                loads[0].abs_diff(loads[1]) <= 1,
                "after qubit {q}: {loads:?}"
            );
        }
        // Double registration is rejected.
        let err = registry
            .assign(3, Arc::new(TenantGate::new(1)), 70)
            .unwrap_err();
        assert!(err.contains("already registered"));
    }

    #[test]
    fn register_validation_rejects_bad_frames() {
        let ctx = Arc::new(ExperimentContext::with_rounds(3, 3, 1e-3));
        let scenarios = vec![ScenarioContext::new("test", ctx).unwrap()];
        // 4 layers: window 4 ok, window 5 too big.
        assert!(validate_register(&scenarios, 0, 4, 2, 0, 1, "test").is_ok());
        let (_, _, _, pd) = validate_register(&scenarios, 0, 4, 2, 1, 1, "test").unwrap();
        assert_eq!(pd, PredecodeMode::Batch);
        assert!(validate_register(&scenarios, 0, 5, 2, 0, 1, "test")
            .unwrap_err()
            .contains("exceeds"));
        assert!(validate_register(&scenarios, 0, 4, 0, 0, 1, "test").is_err());
        assert!(validate_register(&scenarios, 0, 2, 3, 0, 1, "test").is_err());
        assert!(validate_register(&scenarios, 250, 4, 2, 0, 1, "test")
            .unwrap_err()
            .contains("decoder code"));
        assert!(validate_register(&scenarios, 0, 4, 2, 9, 1, "test")
            .unwrap_err()
            .contains("predecode code"));
        // Packed (1) is the only datapath; the retired byte code 0 and
        // unknown codes are refused.
        for code in [0, 2, 9] {
            assert!(validate_register(&scenarios, 0, 4, 2, 0, code, "test")
                .unwrap_err()
                .contains("datapath code"));
        }
        assert!(validate_register(&scenarios, 0, 4, 2, 0, 0, "test")
            .unwrap_err()
            .contains("byte datapath (0) was retired"));
        assert!(validate_register(&scenarios, 0, 4, 2, 0, 1, "nope")
            .unwrap_err()
            .contains("unknown scenario"));
    }

    #[test]
    fn server_rejects_empty_or_duplicate_scenarios() {
        assert!(DecodeServer::new(ServiceConfig::default(), Vec::new()).is_err());
        let ctx = Arc::new(ExperimentContext::with_rounds(3, 2, 1e-3));
        let a = ScenarioContext::new("dup", Arc::clone(&ctx)).unwrap();
        let b = ScenarioContext::new("dup", ctx).unwrap();
        let err = DecodeServer::new(ServiceConfig::default(), vec![a, b]).unwrap_err();
        assert!(err.contains("duplicate"));
    }
}
