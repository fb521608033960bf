//! Causal flight recorder: a wait-free, fixed-size-record trace ring.
//!
//! The metrics layer ([`crate::registry`]) answers aggregate questions —
//! "what is the p99 solve latency" — but cannot explain *which* tenant's
//! window escalated or what a shard was doing in the microseconds before
//! a deadline miss. [`TraceBuf`] is the event-level complement: one ring
//! per decode shard, each record causally keyed by
//! `(tenant, seq, window_idx)` plus a [`TraceKind`] and a small argument
//! word, recorded wait-free (one `fetch_add` to claim a slot, a seqlock
//! version bump around five relaxed stores) with **zero allocation** on
//! the record path. The disabled path costs the caller a single
//! `Option` check — holders arm tracing by installing an
//! `Arc<TraceBuf>` and leave `None` otherwise.
//!
//! The ring holds the last `capacity` events; older records are
//! overwritten and counted in [`TraceBuf::dropped`]. Readers
//! ([`TraceBuf::snapshot`]) run concurrently with writers: each slot
//! carries a version word (odd = write in flight), and a torn slot is
//! skipped rather than surfaced. Timestamps are nanoseconds since the
//! buffer's epoch ([`crate::now`] raw stamps converted through the
//! calibrated clock), so rings created with a shared epoch lie on one
//! timeline.
//!
//! On top of the ring sit the offline surfaces:
//!
//! * [`TraceDump`] — a plain-text, line-oriented dump format
//!   ([`render_dump`] / [`parse_dump`]) used by triggered postmortems
//!   and end-of-run snapshots;
//! * [`render_chrome_trace`] — a Chrome-trace/Perfetto JSON exporter
//!   (`pid` = shard, `tid` = tenant; SolveStart/SolveEnd become `B`/`E`
//!   duration spans, everything else an instant event), so any dump
//!   opens in `chrome://tracing` or the Perfetto UI.

use crate::clock;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Tenant id used for shard-scoped events (Park / Wake) that belong to
/// no tenant.
pub const SHARD_TENANT: u32 = u32::MAX;

/// What happened. One code per causal edge of a window's life, plus the
/// shard-loop events around it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A sliding-window step opened for a shot (`arg` = active defect
    /// count).
    WindowOpen = 0,
    /// The L1 batch predecoder fully resolved the window (`arg` =
    /// defect count it retired).
    L1Resolve = 1,
    /// The window escalated past L1 (`arg` = `residual_len << 8 |
    /// cause`, cause per `predecoders::EscalateCause`).
    Escalate = 2,
    /// The L2 solver began on this window (`arg` = residual Hamming
    /// weight handed to the solver, the window record's `solver_hw`).
    SolveStart = 3,
    /// The L2 solver finished (`arg` = 1 when the window failed).
    SolveEnd = 4,
    /// Matches committed below the commit boundary (`arg` = count).
    Commit = 5,
    /// Matches deferred across the seam into the next window (`arg` =
    /// count).
    Defer = 6,
    /// A submission was shed (`arg` = shed reason code).
    Shed = 7,
    /// The shard's admission model served the window past the reaction
    /// deadline (`arg` = the window's modeled reaction in decoder-model
    /// ns, the clock of the deadline, saturating at `u32::MAX`).
    DeadlineMiss = 8,
    /// The shard parked idle (`arg` = 0; tenant = [`SHARD_TENANT`]).
    Park = 9,
    /// The shard observed delivered unparks (`arg` = wake delta; tenant
    /// = [`SHARD_TENANT`]).
    Wake = 10,
}

impl TraceKind {
    /// Number of kinds.
    pub const COUNT: usize = 11;

    /// Every kind, in code order.
    pub const ALL: [TraceKind; TraceKind::COUNT] = [
        TraceKind::WindowOpen,
        TraceKind::L1Resolve,
        TraceKind::Escalate,
        TraceKind::SolveStart,
        TraceKind::SolveEnd,
        TraceKind::Commit,
        TraceKind::Defer,
        TraceKind::Shed,
        TraceKind::DeadlineMiss,
        TraceKind::Park,
        TraceKind::Wake,
    ];

    /// Stable snake_case label (dump lines, exporter event names).
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::WindowOpen => "window_open",
            TraceKind::L1Resolve => "l1_resolve",
            TraceKind::Escalate => "escalate",
            TraceKind::SolveStart => "solve_start",
            TraceKind::SolveEnd => "solve_end",
            TraceKind::Commit => "commit",
            TraceKind::Defer => "defer",
            TraceKind::Shed => "shed",
            TraceKind::DeadlineMiss => "deadline_miss",
            TraceKind::Park => "park",
            TraceKind::Wake => "wake",
        }
    }

    /// Inverse of `kind as u8`.
    pub fn from_code(code: u8) -> Option<TraceKind> {
        TraceKind::ALL.get(code as usize).copied()
    }

    /// Inverse of [`TraceKind::label`].
    pub fn from_label(label: &str) -> Option<TraceKind> {
        TraceKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// One fixed-size flight-recorder record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the ring's epoch.
    pub ts_ns: u64,
    /// Tenant (logical qubit) id, or [`SHARD_TENANT`].
    pub tenant: u32,
    /// Causal sequence number — the shot id on the service path.
    pub seq: u64,
    /// Window index within the shot.
    pub window_idx: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific argument word.
    pub arg: u32,
}

/// One ring slot: a seqlock version word plus the event, flattened into
/// relaxed-atomic words so concurrent snapshot reads are well-defined.
struct Slot {
    /// Even = stable, odd = write in flight.
    ver: AtomicU64,
    ts: AtomicU64,
    seq: AtomicU64,
    /// `tenant << 32 | window_idx`.
    key: AtomicU64,
    /// `arg << 8 | kind`.
    meta: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            ver: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            key: AtomicU64::new(0),
            meta: AtomicU64::new(0),
        }
    }
}

/// The flight recorder: a lock-free ring of the last `capacity` events.
///
/// Writers are wait-free (`record` is one `fetch_add` plus bounded
/// stores); readers never block writers. The intended topology is one
/// ring per decode shard with the shard thread as the dominant writer —
/// occasional foreign writers (the session router recording a shed) are
/// safe, and a writer lapped by a full ring of concurrent records can at
/// worst tear a slot, which snapshots detect by version and skip.
pub struct TraceBuf {
    epoch: u64,
    head: AtomicU64,
    mask: u64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for TraceBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuf")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .finish()
    }
}

impl TraceBuf {
    /// A ring of `capacity` slots (rounded up to a power of two, min 2),
    /// with its epoch taken now.
    pub fn new(capacity: usize) -> Self {
        TraceBuf::with_epoch(capacity, clock::now())
    }

    /// A ring whose timestamps are relative to `epoch` (a [`crate::now`]
    /// raw stamp). Rings sharing one epoch lie on one timeline.
    pub fn with_epoch(capacity: usize, epoch: u64) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        TraceBuf {
            epoch,
            head: AtomicU64::new(0),
            mask: (cap - 1) as u64,
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records one event. Wait-free, allocation-free: one slot claim,
    /// one timestamp conversion, five relaxed stores under a seqlock
    /// version bump.
    #[inline]
    pub fn record(&self, tenant: u32, seq: u64, window_idx: u32, kind: TraceKind, arg: u32) {
        let ts = clock::since_ns(self.epoch);
        let n = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n & self.mask) as usize];
        // Seqlock write: Acquire on the claim keeps the data stores
        // after it; Release on the publish keeps them before it.
        let v = slot.ver.fetch_add(1, Ordering::Acquire);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Relaxed);
        slot.key
            .store((tenant as u64) << 32 | window_idx as u64, Ordering::Relaxed);
        slot.meta
            .store((arg as u64) << 8 | kind as u64, Ordering::Relaxed);
        slot.ver.store(v.wrapping_add(2), Ordering::Release);
    }

    /// Events recorded over the ring's lifetime.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events overwritten by the ring wrapping (lifetime total).
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Copies out the surviving events, oldest first. Safe against
    /// concurrent writers: slots mid-write (or overwritten during the
    /// read) fail their version check and are skipped. The result is
    /// sorted by timestamp, so exported tracks are monotonic.
    pub fn snapshot(&self) -> TraceSnapshot {
        let head = self.head.load(Ordering::Acquire);
        let start = head.saturating_sub(self.slots.len() as u64);
        let mut events = Vec::with_capacity((head - start) as usize);
        for n in start..head {
            let slot = &self.slots[(n & self.mask) as usize];
            let v0 = slot.ver.load(Ordering::Acquire);
            if !v0.is_multiple_of(2) {
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let seq = slot.seq.load(Ordering::Relaxed);
            let key = slot.key.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.ver.load(Ordering::Relaxed) != v0 {
                continue;
            }
            let Some(kind) = TraceKind::from_code((meta & 0xFF) as u8) else {
                continue;
            };
            events.push(TraceEvent {
                ts_ns: ts,
                tenant: (key >> 32) as u32,
                seq,
                window_idx: key as u32,
                kind,
                arg: (meta >> 8) as u32,
            });
        }
        events.sort_by_key(|e| e.ts_ns);
        TraceSnapshot {
            recorded: head,
            dropped: head.saturating_sub(self.slots.len() as u64),
            events,
        }
    }
}

/// A point-in-time copy of one ring's surviving events plus its
/// lifetime counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// Events recorded over the ring's lifetime.
    pub recorded: u64,
    /// Events the ring overwrote before this snapshot.
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// One shard's slice of a [`TraceDump`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceShard {
    /// Shard id.
    pub shard: u32,
    /// Lifetime events recorded by the shard's ring.
    pub recorded: u64,
    /// Lifetime events its ring overwrote.
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A whole-server trace snapshot: what postmortems write and
/// `repro trace` converts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDump {
    /// Why the dump was taken (`"shed"`, `"deadline-miss"`,
    /// `"escalation-storm"`, `"ring-high-water"`, `"end-of-run"`, ...).
    pub reason: String,
    /// Per-shard snapshots, in shard order.
    pub shards: Vec<TraceShard>,
}

impl TraceDump {
    /// Snapshots every ring (index = shard id) under one reason.
    pub fn collect(reason: &str, bufs: &[std::sync::Arc<TraceBuf>]) -> TraceDump {
        TraceDump {
            reason: reason.to_string(),
            shards: bufs
                .iter()
                .enumerate()
                .map(|(shard, buf)| {
                    let snap = buf.snapshot();
                    TraceShard {
                        shard: shard as u32,
                        recorded: snap.recorded,
                        dropped: snap.dropped,
                        events: snap.events,
                    }
                })
                .collect(),
        }
    }

    /// Keeps only `tenant`'s events (shard-scoped Park/Wake events are
    /// kept too — they explain gaps in any tenant's track).
    pub fn retain_tenant(&mut self, tenant: u32) {
        for shard in &mut self.shards {
            shard
                .events
                .retain(|e| e.tenant == tenant || e.tenant == SHARD_TENANT);
        }
    }

    /// Keeps only the newest `n` events per shard.
    pub fn retain_last(&mut self, n: usize) {
        for shard in &mut self.shards {
            let len = shard.events.len();
            if len > n {
                shard.events.drain(..len - n);
            }
        }
    }

    /// Total surviving events across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.events.len()).sum()
    }

    /// Whether no shard has a surviving event.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Renders a dump in the line-oriented postmortem format: a header with
/// the reason, one `# shard` counter line per ring, then one
/// tab-separated event line per record
/// (`shard ts_ns tenant seq window kind arg`). [`parse_dump`] is the
/// exact inverse.
pub fn render_dump(dump: &TraceDump) -> String {
    let mut out = String::new();
    out.push_str("# promatch-trace-dump v1\n");
    out.push_str(&format!("# reason: {}\n", dump.reason));
    for shard in &dump.shards {
        out.push_str(&format!(
            "# shard {} recorded={} dropped={}\n",
            shard.shard, shard.recorded, shard.dropped
        ));
        for e in &shard.events {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                shard.shard,
                e.ts_ns,
                e.tenant,
                e.seq,
                e.window_idx,
                e.kind.label(),
                e.arg
            ));
        }
    }
    out
}

/// Parses the [`render_dump`] format back into a [`TraceDump`].
pub fn parse_dump(text: &str) -> Result<TraceDump, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some("# promatch-trace-dump v1") => {}
        other => return Err(format!("not a trace dump (first line: {other:?})")),
    }
    let mut reason = String::new();
    let mut shards: Vec<TraceShard> = Vec::new();
    for (ln, line) in lines.enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(r) = line.strip_prefix("# reason: ") {
            reason = r.to_string();
            continue;
        }
        if let Some(rest) = line.strip_prefix("# shard ") {
            let mut parts = rest.split_whitespace();
            let shard: u32 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("line {}: bad shard header", ln + 2))?;
            let mut recorded = 0u64;
            let mut dropped = 0u64;
            for p in parts {
                if let Some(v) = p.strip_prefix("recorded=") {
                    recorded = v
                        .parse()
                        .map_err(|_| format!("line {}: bad recorded", ln + 2))?;
                } else if let Some(v) = p.strip_prefix("dropped=") {
                    dropped = v
                        .parse()
                        .map_err(|_| format!("line {}: bad dropped", ln + 2))?;
                }
            }
            shards.push(TraceShard {
                shard,
                recorded,
                dropped,
                events: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let mut f = line.split('\t');
        let mut field = |name: &str| {
            f.next()
                .ok_or_else(|| format!("line {}: missing {name}", ln + 2))
        };
        let shard: u32 = field("shard")?
            .parse()
            .map_err(|_| format!("line {}: bad shard", ln + 2))?;
        let ts_ns: u64 = field("ts")?
            .parse()
            .map_err(|_| format!("line {}: bad ts", ln + 2))?;
        let tenant: u32 = field("tenant")?
            .parse()
            .map_err(|_| format!("line {}: bad tenant", ln + 2))?;
        let seq: u64 = field("seq")?
            .parse()
            .map_err(|_| format!("line {}: bad seq", ln + 2))?;
        let window_idx: u32 = field("window")?
            .parse()
            .map_err(|_| format!("line {}: bad window", ln + 2))?;
        let kind_label = field("kind")?;
        let kind = TraceKind::from_label(kind_label)
            .ok_or_else(|| format!("line {}: unknown kind '{kind_label}'", ln + 2))?;
        let arg: u32 = field("arg")?
            .parse()
            .map_err(|_| format!("line {}: bad arg", ln + 2))?;
        let entry = match shards.iter_mut().find(|s| s.shard == shard) {
            Some(s) => s,
            None => {
                shards.push(TraceShard {
                    shard,
                    recorded: 0,
                    dropped: 0,
                    events: Vec::new(),
                });
                shards.last_mut().expect("just pushed")
            }
        };
        entry.events.push(TraceEvent {
            ts_ns,
            tenant,
            seq,
            window_idx,
            kind,
            arg,
        });
    }
    Ok(TraceDump { reason, shards })
}

/// Renders a dump as Chrome-trace/Perfetto JSON (the "JSON Array
/// Format" inside an object wrapper): `pid` = shard, `tid` = tenant,
/// `ts` in microseconds. [`TraceKind::SolveStart`] /
/// [`TraceKind::SolveEnd`] become `B`/`E` duration spans named
/// `solve`; every other kind is an instant event (`ph: "i"`, thread
/// scope). Events are emitted in timestamp order per shard, so every
/// track is monotonic.
pub fn render_chrome_trace(dump: &TraceDump) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\": \"ns\", \"otherData\": {\"reason\": \"");
    // The reason is machine-generated (no quotes/backslashes), but stay
    // defensive.
    for c in dump.reason.chars() {
        match c {
            '"' | '\\' => {}
            c if (c as u32) < 0x20 => {}
            c => out.push(c),
        }
    }
    out.push_str("\"}, \"traceEvents\": [\n");
    let mut first = true;
    for shard in &dump.shards {
        let mut events = shard.events.clone();
        events.sort_by_key(|e| e.ts_ns);
        for e in &events {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let (name, ph) = match e.kind {
                TraceKind::SolveStart => ("solve", "B"),
                TraceKind::SolveEnd => ("solve", "E"),
                k => (k.label(), "i"),
            };
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"decode\", \"ph\": \"{}\", \
                 \"ts\": {}.{:03}, \"pid\": {}, \"tid\": {}",
                name,
                ph,
                e.ts_ns / 1000,
                e.ts_ns % 1000,
                shard.shard,
                e.tenant,
            ));
            if ph == "i" {
                out.push_str(", \"s\": \"t\"");
            }
            out.push_str(&format!(
                ", \"args\": {{\"seq\": {}, \"window\": {}, \"arg\": {}}}}}",
                e.seq, e.window_idx, e.arg
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(buf: &TraceBuf, tenant: u32, seq: u64, kind: TraceKind) {
        buf.record(tenant, seq, 0, kind, 7);
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in TraceKind::ALL {
            assert_eq!(TraceKind::from_code(kind as u8), Some(kind));
            assert_eq!(TraceKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(TraceKind::from_code(TraceKind::COUNT as u8), None);
        assert_eq!(TraceKind::from_label("no_such_kind"), None);
    }

    #[test]
    fn ring_keeps_events_in_order_below_capacity() {
        let buf = TraceBuf::new(8);
        for seq in 0..5u64 {
            buf.record(3, seq, seq as u32, TraceKind::WindowOpen, seq as u32 * 2);
        }
        let snap = buf.snapshot();
        assert_eq!(snap.recorded, 5);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 5);
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.tenant, 3);
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.window_idx, i as u32);
            assert_eq!(e.kind, TraceKind::WindowOpen);
            assert_eq!(e.arg, i as u32 * 2);
        }
        // Timestamps are monotone non-decreasing within one writer.
        for w in snap.events.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let buf = TraceBuf::new(4);
        assert_eq!(buf.capacity(), 4);
        for seq in 0..10u64 {
            ev(&buf, 0, seq, TraceKind::Commit);
        }
        assert_eq!(buf.recorded(), 10);
        assert_eq!(buf.dropped(), 6);
        let snap = buf.snapshot();
        assert_eq!(snap.dropped, 6);
        // Only the newest `capacity` events survive.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(TraceBuf::new(3).capacity(), 4);
        assert_eq!(TraceBuf::new(0).capacity(), 2);
        assert_eq!(TraceBuf::new(1024).capacity(), 1024);
    }

    #[test]
    fn concurrent_writers_never_corrupt_a_snapshot() {
        let buf = Arc::new(TraceBuf::new(64));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let buf = Arc::clone(&buf);
                scope.spawn(move || {
                    for seq in 0..2_000u64 {
                        buf.record(t, seq, seq as u32, TraceKind::WindowOpen, t);
                    }
                });
            }
            // Snapshot while the writers run: every surviving event must
            // be internally consistent (tenant echoes arg).
            for _ in 0..50 {
                for e in buf.snapshot().events {
                    assert_eq!(e.tenant, e.arg);
                    assert_eq!(e.seq as u32, e.window_idx);
                }
            }
        });
        assert_eq!(buf.recorded(), 8_000);
        assert_eq!(buf.snapshot().events.len(), 64);
    }

    fn sample_dump() -> TraceDump {
        let a = Arc::new(TraceBuf::new(8));
        let b = Arc::new(TraceBuf::with_epoch(8, 0));
        a.record(1, 10, 0, TraceKind::WindowOpen, 3);
        a.record(1, 10, 0, TraceKind::SolveStart, 1);
        a.record(1, 10, 0, TraceKind::SolveEnd, 0);
        a.record(1, 10, 0, TraceKind::Commit, 2);
        b.record(2, 11, 1, TraceKind::Escalate, (5 << 8) | 2);
        b.record(SHARD_TENANT, 0, 0, TraceKind::Park, 0);
        TraceDump::collect("end-of-run", &[a, b])
    }

    #[test]
    fn dump_renders_and_parses_back_exactly() {
        let dump = sample_dump();
        let text = render_dump(&dump);
        let parsed = parse_dump(&text).expect("round trip");
        assert_eq!(parsed, dump);
        assert!(parse_dump("not a dump").is_err());
        assert!(parse_dump("# promatch-trace-dump v1\n0\tbad\n").is_err());
    }

    #[test]
    fn dump_filters_by_tenant_and_last_n() {
        let mut dump = sample_dump();
        assert_eq!(dump.len(), 6);
        dump.retain_tenant(2);
        // Tenant 2's event plus the shard-scoped park survive.
        assert_eq!(dump.shards[0].events.len(), 0);
        assert_eq!(dump.shards[1].events.len(), 2);
        let mut dump = sample_dump();
        dump.retain_last(1);
        assert_eq!(dump.shards[0].events.len(), 1);
        assert_eq!(dump.shards[0].events[0].kind, TraceKind::Commit);
        assert_eq!(dump.shards[1].events.len(), 1);
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let dump = sample_dump();
        let json = render_chrome_trace(&dump);
        // Structural well-formedness without a JSON parser dependency:
        // balanced braces/brackets, no trailing comma, one record per
        // event, solve span emitted as a B/E pair.
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n]"));
        assert_eq!(json.matches("\"name\"").count(), dump.len());
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 1);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 1);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"reason\": \"end-of-run\""));
        // Instant events carry a scope; duration events do not.
        assert_eq!(json.matches("\"s\": \"t\"").count(), dump.len() - 2);
    }

    #[test]
    fn chrome_trace_tracks_are_monotonic() {
        let buf = Arc::new(TraceBuf::new(16));
        for seq in 0..10u64 {
            buf.record(0, seq, 0, TraceKind::WindowOpen, 0);
        }
        let dump = TraceDump::collect("t", &[buf]);
        let json = render_chrome_trace(&dump);
        let mut last = -1.0f64;
        for line in json.lines().filter(|l| l.contains("\"ts\"")) {
            let ts: f64 = line
                .split("\"ts\": ")
                .nth(1)
                .and_then(|r| r.split(',').next())
                .and_then(|v| v.parse().ok())
                .expect("ts field parses");
            assert!(ts >= last, "timestamps regress: {ts} after {last}");
            last = ts;
        }
    }

    #[test]
    fn shared_epoch_rings_share_a_timeline() {
        let epoch = crate::now();
        let a = TraceBuf::with_epoch(4, epoch);
        let b = TraceBuf::with_epoch(4, epoch);
        a.record(0, 0, 0, TraceKind::WindowOpen, 0);
        b.record(0, 0, 0, TraceKind::WindowOpen, 0);
        let (ea, eb) = (a.snapshot().events[0], b.snapshot().events[0]);
        // b recorded after a on one timeline.
        assert!(eb.ts_ns >= ea.ts_ns);
    }
}
