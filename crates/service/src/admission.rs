//! Admission control and per-tenant SLO accounting.
//!
//! Two cooperating mechanisms bound a tenant's impact on shared decode
//! resources:
//!
//! * **Live gating** — [`TenantGate`], a lock-free per-tenant in-flight
//!   shot counter checked at enqueue. A client that floods past its
//!   budget gets an immediate shed [`crate::protocol::Frame::
//!   CommitResult`] instead of queue growth; a well-behaved closed-loop
//!   client (in-flight ≤ capacity) is never shed. This is the only
//!   admission state the hot submit path touches, and it is per-tenant
//!   atomics — no cross-shard locks.
//! * **Modeled accounting** — the multi-tenant generalization of
//!   [`realtime::simulate_backlog`]. Each shard is one modeled decode
//!   engine serving its tenants' windows FIFO in modeled ready order,
//!   `(ready_round, qubit)` (windows arrive on the syndrome cadence, not
//!   the wall clock, so reports are deterministic and
//!   machine-independent). A window arriving while its tenant already
//!   has `queue_capacity` windows waiting is **shed**; served windows
//!   whose reaction exceeds the deadline are **deadline misses**.
//!   Per-tenant reaction mean, p50, p99 and max are bit-identical to
//!   [`realtime::LatencyStats::from_samples`] over the served windows.
//!
//! A live shard runs the model as its windows are decoded, in memory
//! that does not grow with uptime (`AdmissionModel`). Decoded windows
//! wait in a small reorder buffer until the shard's *watermark* — the
//! least `(next_shot × layers_per_shot, qubit)` over its tenants, below
//! which no tenant can still submit — releases them in modeled order
//! into the committed FIFO state: the engine's next free time and, per
//! tenant, its window, shed and miss counts, its in-queue finish times
//! and its reactions as sorted `(value, count)` runs. A stats request
//! clones that state and drains the buffer into the clone, so it equals
//! [`simulate_shard`] over every window decoded so far.
//!
//! The one difference from a full re-simulation: a window keyed below a
//! watermark the shard already released is modeled behind everything
//! released, where a re-sort would place it in the past. Only a qubit
//! registered (or re-registered) after its peers' windows were released
//! submits such windows. The same holds for windows a full buffer
//! releases early: a registered tenant that stops submitting holds the
//! watermark back, and past `REORDER_CAP` buffered windows the lowest
//! keys are released anyway, so the buffer stays bounded.

use realtime::LatencyStats;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Timing and bounds of one shard's modeled decode queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionConfig {
    /// Syndrome measurement round period in nanoseconds.
    pub round_ns: f64,
    /// Reaction deadline per window, ns.
    pub deadline_ns: f64,
    /// Modeled bound on one tenant's waiting windows; arrivals beyond it
    /// are shed.
    pub queue_capacity: usize,
}

/// One decoded window's modeled arrival, tagged with its tenant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowArrival {
    /// Tenant (logical qubit) id.
    pub qubit: u32,
    /// Global round index after which the window is decodable.
    pub ready_round: u64,
    /// Modeled decode service time, ns.
    pub service_ns: f64,
}

/// Per-tenant outcome of one shard's modeled admission simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantReport {
    /// Tenant id.
    pub qubit: u32,
    /// Windows that arrived for this tenant.
    pub windows: u64,
    /// Windows actually served (windows − shed).
    pub served: u64,
    /// Windows shed by the bounded per-tenant queue.
    pub shed: u64,
    /// Served windows whose reaction exceeded the deadline.
    pub deadline_misses: u64,
    /// Reaction-time distribution of the served windows.
    pub reaction: LatencyStats,
}

/// Runs one shard's modeled FIFO decode engine over `arrivals` and
/// returns per-tenant reports, sorted by qubit id.
///
/// `arrivals` is sorted in place by `(ready_round, qubit)` — the modeled
/// arrival order — so callers may pass windows in any collection order
/// (real submissions interleave nondeterministically across tenants; the
/// modeled timeline must not).
pub fn simulate_shard(arrivals: &mut [WindowArrival], cfg: &AdmissionConfig) -> Vec<TenantReport> {
    arrivals.sort_by_key(|w| (w.ready_round, w.qubit));
    let mut fifo = Fifo::new(*cfg);
    for w in arrivals.iter() {
        fifo.serve(w.ready_round, w.qubit, w.service_ns);
    }
    fifo.into_reports()
}

/// Most windows the reorder buffer holds after a release. A shard whose
/// tenants all submit keeps about two shots' windows per tenant; only a
/// stalled watermark (a registered tenant that stopped submitting, or one
/// registered far behind its peers) fills it.
const REORDER_CAP: usize = 1 << 16;

/// A buffered window: `(ready_round, qubit, arrival sequence, service_ns
/// bits)`, so the heap pops in modeled order and, among equal keys, in
/// collection order.
type Pending = Reverse<(u64, u32, u64, u64)>;

/// One shard's streaming admission model: the committed FIFO state plus
/// the windows the watermark has not released yet (see the module docs).
#[derive(Debug)]
pub(crate) struct AdmissionModel {
    fifo: Fifo,
    /// Decoded windows not yet released, least key on top.
    pending: BinaryHeap<Pending>,
    /// Windows pushed so far: the next one's sequence number.
    pushed: u64,
}

impl AdmissionModel {
    pub(crate) fn new(cfg: AdmissionConfig) -> Self {
        AdmissionModel {
            fifo: Fifo::new(cfg),
            pending: BinaryHeap::new(),
            pushed: 0,
        }
    }

    /// Buffers one decoded window; [`AdmissionModel::release`] models it.
    pub(crate) fn push(&mut self, w: WindowArrival) {
        let entry = (w.ready_round, w.qubit, self.pushed, w.service_ns.to_bits());
        self.pending.push(Reverse(entry));
        self.pushed += 1;
    }

    /// Folds every buffered window keyed below `watermark` into the
    /// committed state, in `(ready_round, qubit)` order (collection order
    /// among equal keys), then the least keys beyond [`REORDER_CAP`].
    /// Each released window served past the deadline goes to `missed`,
    /// in release order: the model's misses are the only ones there are.
    pub(crate) fn release(&mut self, watermark: (u64, u32), mut missed: impl FnMut(Miss)) {
        while let Some(&Reverse((ready_round, qubit, _, bits))) = self.pending.peek() {
            if (ready_round, qubit) >= watermark && self.pending.len() <= REORDER_CAP {
                break;
            }
            self.pending.pop();
            if let Some(reaction_ns) = self.fifo.serve(ready_round, qubit, f64::from_bits(bits)) {
                missed(Miss {
                    qubit,
                    ready_round,
                    reaction_ns,
                });
            }
        }
    }

    /// Per-tenant reports over every window pushed so far, sorted by
    /// qubit id: the committed state's clone with the buffer drained
    /// into it.
    pub(crate) fn reports(&self) -> Vec<TenantReport> {
        let mut fifo = self.fifo.clone();
        let mut rest = self.pending.clone().into_vec();
        rest.sort_unstable_by_key(|&Reverse(entry)| entry);
        for Reverse((ready_round, qubit, _, bits)) in rest {
            fifo.serve(ready_round, qubit, f64::from_bits(bits));
        }
        fifo.into_reports()
    }
}

/// A released window the model served past the reaction deadline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Miss {
    pub(crate) qubit: u32,
    /// The window's modeled arrival round (see [`WindowArrival`]).
    pub(crate) ready_round: u64,
    /// Its modeled reaction, ns: above the deadline.
    pub(crate) reaction_ns: f64,
}

/// The committed state of one modeled FIFO decode engine.
#[derive(Clone, Debug)]
struct Fifo {
    cfg: AdmissionConfig,
    /// Modeled time the engine finishes its last served window, ns.
    server_free: f64,
    tenants: HashMap<u32, TenantFifo>,
}

/// One tenant's committed accounting.
#[derive(Clone, Debug, Default)]
struct TenantFifo {
    windows: u64,
    shed: u64,
    misses: u64,
    reactions: Reactions,
    /// Modeled finish times of this tenant's in-queue windows
    /// (non-decreasing; drained as modeled time advances).
    in_queue: VecDeque<f64>,
}

impl Fifo {
    fn new(cfg: AdmissionConfig) -> Self {
        Fifo {
            cfg,
            server_free: 0.0,
            tenants: HashMap::new(),
        }
    }

    /// Serves (or sheds) the next window in modeled arrival order, and
    /// returns its reaction when that misses the deadline.
    fn serve(&mut self, ready_round: u64, qubit: u32, service_ns: f64) -> Option<f64> {
        let cfg = &self.cfg;
        let ready = ready_round as f64 * cfg.round_ns;
        let acc = self.tenants.entry(qubit).or_default();
        acc.windows += 1;
        while acc.in_queue.front().is_some_and(|&f| f <= ready) {
            acc.in_queue.pop_front();
        }
        if acc.in_queue.len() >= cfg.queue_capacity {
            acc.shed += 1;
            return None;
        }
        let start = self.server_free.max(ready);
        let finish = start + service_ns;
        self.server_free = finish;
        let reaction = finish - ready;
        let missed = reaction > cfg.deadline_ns;
        acc.misses += u64::from(missed);
        acc.reactions.record(reaction);
        acc.in_queue.push_back(finish);
        missed.then_some(reaction)
    }

    fn into_reports(self) -> Vec<TenantReport> {
        let mut reports: Vec<TenantReport> = self
            .tenants
            .into_iter()
            .map(|(qubit, acc)| TenantReport {
                qubit,
                windows: acc.windows,
                served: acc.reactions.count(),
                shed: acc.shed,
                deadline_misses: acc.misses,
                reaction: acc.reactions.stats(),
            })
            .collect();
        reports.sort_by_key(|r| r.qubit);
        reports
    }
}

/// A tenant's served reaction times as `(value, count)` runs in
/// increasing value order: one run per distinct value, so a stream of
/// windows whose reactions take a dozen values stores a dozen runs.
#[derive(Clone, Debug, Default)]
struct Reactions {
    runs: Vec<(f64, u64)>,
}

impl Reactions {
    fn record(&mut self, reaction: f64) {
        let at = self
            .runs
            .binary_search_by(|(v, _)| v.partial_cmp(&reaction).expect("latencies are finite"));
        match at {
            Ok(i) => self.runs[i].1 += 1,
            Err(i) => self.runs.insert(i, (reaction, 1)),
        }
    }

    fn count(&self) -> u64 {
        self.runs.iter().map(|&(_, c)| c).sum()
    }

    /// [`LatencyStats::from_samples`] of the recorded samples, bit for
    /// bit: the percentiles index the sorted samples the runs spell out,
    /// and the mean adds them in ascending order, one add per sample.
    fn stats(&self) -> LatencyStats {
        let n = self.count();
        let Some(&(max_ns, _)) = self.runs.last() else {
            return LatencyStats::from_samples(&mut []);
        };
        let nth = |mut rank: u64| {
            for &(v, c) in &self.runs {
                if rank < c {
                    return v;
                }
                rank -= c;
            }
            unreachable!("rank {rank} lies past the samples")
        };
        let pct = |q: f64| nth((q * (n - 1) as f64).round() as u64);
        let samples = self
            .runs
            .iter()
            .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize));
        LatencyStats {
            mean_ns: samples.sum::<f64>() / n as f64,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            max_ns,
        }
    }
}

/// Why a submission was shed. Carried on the shed `CommitResult` (two
/// flag bits on the wire) and as the Shed trace event's argument, so
/// overload postmortems can tell an admission-gate rejection from a full
/// submission ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ShedReason {
    /// The tenant's in-flight cap was reached at the admission gate.
    InflightCap = 1,
    /// The gate admitted the shot but the shard's submission ring was
    /// full.
    QueueFull = 2,
    /// The shot was dropped while draining (session teardown). No live
    /// site sheds with this today — it is reserved for shutdown-time
    /// shedding and exercised only by unit tests.
    Drain = 3,
}

impl ShedReason {
    /// Stable wire/trace code (0 is "not shed").
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`ShedReason::code`]; `0` and unknown codes map to
    /// `None`.
    pub fn from_code(code: u8) -> Option<ShedReason> {
        match code {
            1 => Some(ShedReason::InflightCap),
            2 => Some(ShedReason::QueueFull),
            3 => Some(ShedReason::Drain),
            _ => None,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::InflightCap => "inflight-cap",
            ShedReason::QueueFull => "queue-full",
            ShedReason::Drain => "drain",
        }
    }
}

/// Lock-free live admission gate: bounds one tenant's in-flight shots.
#[derive(Debug)]
pub struct TenantGate {
    capacity: usize,
    in_flight: AtomicUsize,
    shed: AtomicU64,
    /// Per-reason shed counters, indexed by `ShedReason::code() - 1`.
    /// They sum to `shed`.
    shed_by_reason: [AtomicU64; 3],
}

impl TenantGate {
    /// A gate admitting at most `capacity` concurrent in-flight shots.
    pub fn new(capacity: usize) -> Self {
        TenantGate {
            capacity,
            in_flight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            shed_by_reason: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    fn count_shed(&self, reason: ShedReason) {
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.shed_by_reason[reason.code() as usize - 1].fetch_add(1, Ordering::Relaxed);
    }

    /// Tries to admit one shot; on rejection the shed counter advances
    /// under [`ShedReason::InflightCap`].
    pub fn try_admit(&self) -> bool {
        let admitted = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            self.count_shed(ShedReason::InflightCap);
        }
        admitted
    }

    /// Marks one admitted shot as finished.
    pub fn complete(&self) {
        let prev = self.in_flight.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "complete() without a matching try_admit()");
    }

    /// Converts one admitted shot into a shed: releases its in-flight
    /// slot and advances the shed counter under `reason`. Used when a
    /// shot passes the gate but the downstream submission ring is full
    /// ([`ShedReason::QueueFull`]) or the session is torn down with the
    /// shot still queued ([`ShedReason::Drain`]).
    pub fn shed_admitted(&self, reason: ShedReason) {
        let prev = self.in_flight.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "shed_admitted() without a matching try_admit()");
        self.count_shed(reason);
    }

    /// Shots currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Shots shed so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Shots shed so far for `reason`.
    pub fn shed_count_for(&self, reason: ShedReason) -> u64 {
        self.shed_by_reason[reason.code() as usize - 1].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use realtime::{simulate_backlog, BacklogConfig, WindowTiming};

    fn uniform(qubit: u32, n: u64, every: u64, service: f64) -> Vec<WindowArrival> {
        (0..n)
            .map(|i| WindowArrival {
                qubit,
                ready_round: (i + 1) * every,
                service_ns: service,
            })
            .collect()
    }

    /// A modeled service time: mostly one of a few fixed latencies, as a
    /// hardware latency model reports them, sometimes any value.
    fn service_time(rng: &mut StdRng) -> f64 {
        const FIXED: [f64; 5] = [120.0, 480.0, 960.0, 1500.0, 3200.0];
        if rng.gen_bool(0.8) {
            FIXED[rng.gen_range(0..FIXED.len())]
        } else {
            rng.gen_range(50.0..4000.0)
        }
    }

    fn bits(s: &LatencyStats) -> [u64; 4] {
        [s.mean_ns, s.p50_ns, s.p99_ns, s.max_ns].map(f64::to_bits)
    }

    /// Feeds `windows` windows of `tenants` random streams through the
    /// streaming model as a shard does, and holds about `snapshots` stats
    /// snapshots, and the last, to `simulate_shard` over the windows
    /// decoded so far. Streams share the syndrome cadence: the next to
    /// submit is the one whose next shot starts first, give or take a few
    /// rounds of jitter, so tenants with different rounds per shot and
    /// shot gaps interleave at random but keep pace in rounds. Some
    /// register before any window is decoded, at shot 0; the rest register
    /// with their first window, late ones beyond every window decoded so
    /// far, so no window is keyed below one the model already released.
    fn stream_matches_batch(
        seed: u64,
        tenants: usize,
        windows: usize,
        snapshots: usize,
    ) -> Result<(), TestCaseError> {
        const JITTER: u64 = 12;
        struct Stream {
            qubit: u32,
            layers: u64,
            /// `next_shot` once registered.
            next_shot: Option<u64>,
            /// The shot it submits next.
            shot: u64,
            /// The round it submits at.
            due: u64,
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let queue_capacity = if rng.gen_bool(0.2) {
            usize::MAX
        } else {
            rng.gen_range(1..=8)
        };
        let cfg = AdmissionConfig {
            round_ns: 1000.0,
            deadline_ns: rng.gen_range(500.0..20_000.0),
            queue_capacity,
        };
        let late_rounds = 3 * windows as u64 / tenants as u64 + 1;
        let mut streams: Vec<Stream> = (0..tenants)
            .map(|i| {
                let early = rng.gen_bool(0.5);
                Stream {
                    qubit: 3 * i as u32 + rng.gen_range(0..3),
                    layers: rng.gen_range(1..=6),
                    next_shot: early.then_some(0),
                    shot: rng.gen_range(0..3),
                    due: rng.gen_range(0..if early { JITTER } else { late_rounds }),
                }
            })
            .collect();
        let mut model = AdmissionModel::new(cfg);
        let mut decoded: Vec<WindowArrival> = Vec::new();
        // Per qubit, the misses `release` reported.
        let mut missed: HashMap<u32, u64> = HashMap::new();
        let mut count_miss = |m: Miss| {
            assert!(m.reaction_ns > cfg.deadline_ns, "{m:?}");
            *missed.entry(m.qubit).or_default() += 1;
        };
        let snapshot_p = (snapshots as f64 / windows as f64).min(1.0);
        while decoded.len() < windows {
            let s = streams.iter_mut().min_by_key(|s| s.due).expect("a stream");
            if s.next_shot.is_none() {
                if let Some(frontier) = decoded.iter().map(|w| w.ready_round).max() {
                    s.shot = frontier / s.layers + 1 + rng.gen_range(0..3);
                }
                s.next_shot = Some(0);
            }
            let mut his: Vec<u64> = (0..rng.gen_range(1..=3))
                .map(|_| rng.gen_range(0..=s.layers))
                .collect();
            his.sort_unstable();
            for hi in his {
                let w = WindowArrival {
                    qubit: s.qubit,
                    ready_round: s.shot * s.layers + hi,
                    service_ns: service_time(&mut rng),
                };
                model.push(w);
                decoded.push(w);
            }
            s.next_shot = Some(s.shot + 1);
            s.shot += 1 + rng.gen_range(0..3);
            s.due = s.shot * s.layers + rng.gen_range(0..JITTER);
            if rng.gen_bool(0.5) {
                let watermark = streams
                    .iter()
                    .filter_map(|s| Some((s.next_shot? * s.layers, s.qubit)))
                    .min()
                    .unwrap_or((u64::MAX, u32::MAX));
                model.release(watermark, &mut count_miss);
            }
            prop_assert!(model.pending.len() < REORDER_CAP);
            if rng.gen_bool(snapshot_p) {
                let batch = simulate_shard(&mut decoded.clone(), &cfg);
                prop_assert_eq!(model.reports(), batch, "after {} windows", decoded.len());
            }
        }
        let reports = simulate_shard(&mut decoded, &cfg);
        prop_assert_eq!(model.reports(), reports.clone());
        model.release((u64::MAX, u32::MAX), &mut count_miss);
        for r in reports {
            let released = missed.get(&r.qubit).copied().unwrap_or(0);
            prop_assert_eq!(released, r.deadline_misses, "qubit {}", r.qubit);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// With one tenant and an effectively unbounded queue, the
        /// multi-tenant model degenerates to realtime's single-server
        /// FIFO — held to it number for number, over random service times
        /// and bursty ready rounds (a few windows ready at once, then a
        /// lull).
        #[test]
        fn single_tenant_unbounded_matches_the_backlog_simulator(
            seed in any::<u64>(),
            n in 1usize..300,
            deadline_ns in 500.0f64..20_000.0,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ready_round = 0u64;
            let arrivals: Vec<WindowArrival> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        ready_round += rng.gen_range(1..=12);
                    }
                    WindowArrival {
                        qubit: 5,
                        ready_round,
                        service_ns: service_time(&mut rng),
                    }
                })
                .collect();
            let cfg = AdmissionConfig {
                round_ns: 1000.0,
                deadline_ns,
                queue_capacity: usize::MAX,
            };
            let reports = simulate_shard(&mut arrivals.clone(), &cfg);
            let timings: Vec<WindowTiming> = arrivals
                .iter()
                .map(|w| WindowTiming {
                    ready_round: w.ready_round,
                    service_ns: w.service_ns,
                })
                .collect();
            let backlog = simulate_backlog(
                &timings,
                &BacklogConfig {
                    round_ns: 1000.0,
                    deadline_ns,
                },
            );
            prop_assert_eq!(reports.len(), 1);
            let r = &reports[0];
            prop_assert_eq!((r.qubit, r.windows, r.served, r.shed), (5, n as u64, n as u64, 0));
            prop_assert_eq!(bits(&r.reaction), bits(&backlog.reaction));
            prop_assert_eq!(
                r.deadline_misses as f64 / r.windows as f64,
                backlog.miss_fraction
            );
        }

        /// The runs keep one entry per distinct value and reproduce
        /// `LatencyStats::from_samples` bit for bit, the mean included.
        #[test]
        fn reaction_runs_reproduce_from_samples_bit_for_bit(
            seed in any::<u64>(),
            n in 0usize..400,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut samples: Vec<f64> = (0..n)
                .map(|_| service_time(&mut rng) * rng.gen_range(1..=3) as f64 / 7.0)
                .collect();
            let mut reactions = Reactions::default();
            for &s in &samples {
                reactions.record(s);
            }
            prop_assert!(reactions.runs.windows(2).all(|p| p[0].0 < p[1].0));
            prop_assert_eq!(reactions.count(), n as u64);
            prop_assert_eq!(
                bits(&reactions.stats()),
                bits(&LatencyStats::from_samples(&mut samples))
            );
        }

        /// Every stats snapshot of the streaming model equals the full
        /// re-simulation of the windows decoded so far.
        #[test]
        fn streaming_snapshots_equal_simulate_shard(
            seed in any::<u64>(),
            tenants in 1usize..=20,
            windows in 1usize..600,
        ) {
            stream_matches_batch(seed, tenants, windows, 6)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// `streaming_snapshots_equal_simulate_shard` at 10^5 windows.
        #[test]
        #[ignore = "10^5 windows per case; run in release"]
        fn streaming_snapshots_equal_simulate_shard_at_scale(
            seed in any::<u64>(),
            tenants in 1usize..=20,
        ) {
            stream_matches_batch(seed, tenants, 100_000, 12)?;
        }
    }

    #[test]
    fn a_million_lockstep_windows_keep_the_model_bounded() {
        // 16 tenants submit shot after shot in lockstep, four windows a
        // shot, the last ending on the shot boundary; the model is
        // released after every shot, as a shard's sweep releases it.
        const TENANTS: u32 = 16;
        const LAYERS: u64 = 8;
        const HI: [u64; 4] = [2, 4, 6, 8];
        const SERVICE: [f64; 4] = [40.0, 60.0, 100.0, 150.0];
        let shots = 1_000_000 / (TENANTS as u64 * HI.len() as u64);
        let cfg = AdmissionConfig {
            round_ns: 1000.0,
            deadline_ns: 4000.0,
            queue_capacity: 4,
        };
        let mut model = AdmissionModel::new(cfg);
        let mut next_shot = [0u64; TENANTS as usize];
        let mut decoded = Vec::with_capacity(1_000_000);
        let distinct_runs = |model: &AdmissionModel| {
            let mut runs = model.fifo.tenants.values().map(|t| &t.reactions.runs);
            runs.all(|r| r.windows(2).all(|p| p[0].0 < p[1].0))
        };
        for shot in 0..shots {
            for q in 0..TENANTS {
                for (i, &hi) in HI.iter().enumerate() {
                    let w = WindowArrival {
                        qubit: q,
                        ready_round: shot * LAYERS + hi,
                        service_ns: SERVICE[(shot as usize * 7 + q as usize * 3 + i) % 4],
                    };
                    model.push(w);
                    decoded.push(w);
                }
                next_shot[q as usize] = shot + 1;
                let watermark = (0..TENANTS)
                    .map(|t| (next_shot[t as usize] * LAYERS, t))
                    .min()
                    .unwrap();
                model.release(watermark, |_| {});
                assert!(
                    model.pending.len() <= 2 * HI.len() * TENANTS as usize,
                    "shot {shot}, tenant {q}: {} windows buffered",
                    model.pending.len()
                );
            }
            if shot % 1024 == 0 {
                assert!(distinct_runs(&model), "shot {shot}: a value stored twice");
            }
        }
        assert!(distinct_runs(&model));
        let runs: usize = model
            .fifo
            .tenants
            .values()
            .map(|t| t.reactions.runs.len())
            .sum();
        assert!(runs < 1_000, "{runs} runs for {} windows", decoded.len());
        assert_eq!(decoded.len(), 1_000_000);
        assert_eq!(model.reports(), simulate_shard(&mut decoded, &cfg));
    }

    #[test]
    fn a_window_keyed_below_the_released_watermark_is_modeled_behind_it() {
        // Tenant 0 runs ten shots and the shard releases them; tenant 1
        // registers only then and submits shot 0, keyed below all of
        // them. The model serves it behind the released windows, where a
        // full re-sort puts it first.
        let cfg = AdmissionConfig {
            round_ns: 1000.0,
            deadline_ns: 100_000.0,
            queue_capacity: usize::MAX,
        };
        let mut model = AdmissionModel::new(cfg);
        // Tenant 0's shot `i` (two layers a shot) ends one window at
        // round 2i + 1.
        let mut decoded: Vec<WindowArrival> = (0..10)
            .map(|i| WindowArrival {
                qubit: 0,
                ready_round: 2 * i + 1,
                service_ns: 500.0,
            })
            .collect();
        let alone = simulate_shard(&mut decoded.clone(), &cfg);
        for (shot, &w) in decoded.iter().enumerate() {
            model.push(w);
            model.release((2 * (shot as u64 + 1), 0), |_| {});
        }
        assert!(model.pending.is_empty(), "tenant 0's windows are released");
        let late = WindowArrival {
            qubit: 1,
            ready_round: 1,
            service_ns: 500.0,
        };
        model.push(late);
        let mut missed = Vec::new();
        model.release((2, 1), |m| missed.push(m));
        // Its 19 000 ns reaction is within the 100 µs deadline.
        assert!(missed.is_empty(), "{missed:?}");
        assert!(model.pending.is_empty());
        decoded.push(late);
        let streamed = model.reports();
        let resorted = simulate_shard(&mut decoded, &cfg);
        assert_eq!(streamed[0], alone[0]);
        assert_eq!(resorted[0], alone[0]);
        // Ready at 1 000 ns, served after the last release (19 000 to
        // 19 500 ns): done at 20 000 ns. Re-sorted, it would follow
        // tenant 0's first window and be done at 2 000 ns.
        assert_eq!(streamed[1].reaction.max_ns, 19_000.0);
        assert_eq!(resorted[1].reaction.max_ns, 1_000.0);
    }

    #[test]
    fn a_stalled_watermark_keeps_the_buffer_bounded() {
        // Tenant 0 registered and never submitted, so the watermark stays
        // at (0, 0); tenant 1's windows are released past the cap anyway,
        // in order, so the reports still equal the full re-simulation.
        let cfg = AdmissionConfig {
            round_ns: 1000.0,
            deadline_ns: 5000.0,
            queue_capacity: 4,
        };
        let mut model = AdmissionModel::new(cfg);
        let mut decoded = uniform(1, 2 * REORDER_CAP as u64 + 5, 1, 700.0);
        for &w in &decoded {
            model.push(w);
            model.release((0, 0), |_| {});
            assert!(model.pending.len() <= REORDER_CAP);
        }
        assert_eq!(model.pending.len(), REORDER_CAP);
        assert_eq!(model.reports(), simulate_shard(&mut decoded, &cfg));
    }

    #[test]
    fn fair_interleaving_of_two_identical_tenants() {
        // Two tenants on the same cadence, capacity ample, light load:
        // identical per-tenant distributions.
        let mut arrivals = uniform(0, 50, 4, 500.0);
        arrivals.extend(uniform(1, 50, 4, 500.0));
        let cfg = AdmissionConfig {
            round_ns: 1000.0,
            deadline_ns: 4000.0,
            queue_capacity: 8,
        };
        let reports = simulate_shard(&mut arrivals, &cfg);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].qubit, 0);
        assert_eq!(reports[1].qubit, 1);
        assert_eq!(reports[0].shed + reports[1].shed, 0);
        assert_eq!(reports[0].deadline_misses, 0);
        // Tenant 0 is served first at each tie, tenant 1 queues behind it.
        assert_eq!(reports[0].reaction.p50_ns, 500.0);
        assert_eq!(reports[1].reaction.p50_ns, 1000.0);
    }

    #[test]
    fn collection_order_does_not_change_the_reports() {
        let mut a = uniform(0, 30, 3, 800.0);
        a.extend(uniform(1, 30, 5, 400.0));
        let mut b: Vec<WindowArrival> = a.iter().rev().copied().collect();
        let cfg = AdmissionConfig {
            round_ns: 1000.0,
            deadline_ns: 3000.0,
            queue_capacity: 4,
        };
        assert_eq!(simulate_shard(&mut a, &cfg), simulate_shard(&mut b, &cfg));
    }

    #[test]
    fn overloaded_tenant_sheds_beyond_its_queue_capacity() {
        // Service 5× the arrival period: the queue saturates at the
        // capacity and every further arrival sheds.
        let mut arrivals = uniform(2, 60, 1, 5000.0);
        let cfg = AdmissionConfig {
            round_ns: 1000.0,
            deadline_ns: 1000.0,
            queue_capacity: 3,
        };
        let reports = simulate_shard(&mut arrivals, &cfg);
        let r = &reports[0];
        assert_eq!(r.windows, 60);
        assert!(r.shed > 30, "saturated queue sheds most arrivals: {r:?}");
        assert_eq!(r.served + r.shed, r.windows);
        // Whatever is served waits behind at most `capacity` windows.
        assert!(r.reaction.max_ns <= 3.0 * 5000.0 + 5000.0);
        // Shedding bounds the backlog, not the lateness of served work.
        assert!(r.deadline_misses > 0);
    }

    #[test]
    fn shedding_protects_the_other_tenant() {
        // Tenant 0 floods (service ≫ cadence); tenant 1 is light. With a
        // tight queue bound, tenant 1 still meets a generous deadline.
        let mut arrivals = uniform(0, 40, 1, 4000.0);
        arrivals.extend(uniform(1, 10, 8, 100.0));
        let cfg = AdmissionConfig {
            round_ns: 1000.0,
            deadline_ns: 10_000.0,
            queue_capacity: 2,
        };
        let reports = simulate_shard(&mut arrivals, &cfg);
        let flood = &reports[0];
        let light = &reports[1];
        assert!(flood.shed > 0);
        assert_eq!(light.shed, 0);
        assert_eq!(light.deadline_misses, 0, "{light:?}");
    }

    #[test]
    fn gate_admits_up_to_capacity_and_counts_sheds() {
        let gate = TenantGate::new(2);
        assert!(gate.try_admit());
        assert!(gate.try_admit());
        assert!(!gate.try_admit());
        assert_eq!(gate.in_flight(), 2);
        assert_eq!(gate.shed_count(), 1);
        assert_eq!(gate.shed_count_for(ShedReason::InflightCap), 1);
        assert_eq!(gate.shed_count_for(ShedReason::QueueFull), 0);
        gate.complete();
        assert!(gate.try_admit());
        assert_eq!(gate.shed_count(), 1);
        gate.complete();
        gate.complete();
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn shedding_an_admitted_shot_frees_its_slot() {
        let gate = TenantGate::new(1);
        assert!(gate.try_admit());
        gate.shed_admitted(ShedReason::QueueFull);
        assert_eq!(gate.in_flight(), 0, "the in-flight slot is released");
        assert_eq!(gate.shed_count(), 1, "the shed is still counted");
        assert_eq!(gate.shed_count_for(ShedReason::QueueFull), 1);
        assert!(gate.try_admit(), "the freed slot admits again");
        gate.complete();
    }

    #[test]
    fn shed_reasons_partition_the_total_and_round_trip_their_codes() {
        let gate = TenantGate::new(1);
        assert!(gate.try_admit());
        assert!(!gate.try_admit()); // inflight-cap
        gate.shed_admitted(ShedReason::QueueFull);
        assert!(gate.try_admit());
        gate.shed_admitted(ShedReason::Drain);
        let by_reason: u64 = [
            ShedReason::InflightCap,
            ShedReason::QueueFull,
            ShedReason::Drain,
        ]
        .into_iter()
        .map(|r| gate.shed_count_for(r))
        .sum();
        assert_eq!(by_reason, gate.shed_count());
        for r in [
            ShedReason::InflightCap,
            ShedReason::QueueFull,
            ShedReason::Drain,
        ] {
            assert_eq!(ShedReason::from_code(r.code()), Some(r));
            assert!(!r.label().is_empty());
        }
        assert_eq!(ShedReason::from_code(0), None);
        assert_eq!(ShedReason::from_code(4), None);
    }
}
