//! The service workloads: an open-loop load generator against a real
//! `DecodeServer` over loopback TCP.
//!
//! The generator is two threads and one connection. The sender writes
//! pre-encoded `SubmitRounds` frames on a fixed schedule — one frame
//! every `1/rate` seconds (paced), or every tenant's frame at the same
//! instant (burst) — whether or not earlier commits have come back. The
//! receiver stamps each `CommitResult` as it arrives and charges it from
//! the instant its submit was *due*, so a stall anywhere — generator
//! included — lengthens the latency of everything scheduled behind it.
//! The rate is frozen far below what one shard sustains: a saturating
//! loop on this 2-vCPU box has four runnable threads on two cores and
//! does not repeat; CPU cost per round is how capacity is read instead.

use crate::engine::{
    best_cpu_s, decode_slice, demoted_metrics, realtime_metrics, time_metrics, within_limit_metric,
    Reference, RunOptions, Scenario, SliceSample,
};
use crate::gen::{HwProfile, Pool};
use crate::layers::{self, LayerValue};
use crate::report::{Metric, RunReport};
use crate::spec::{Drive, Workload, MIN_SLICES, ROUND_NS};
use crate::stats::{percentile, samples_beyond};
use crate::sys::{peak_rss_mb, process_cpu_ns, set_thread_timer_slack_ns, thread_cpu_ns};
use crate::trace::{SpanId, Tracer, ROOT};
use decoding_graph::latency::CYCLE_NS;
use service::{DecodeServer, Frame, ServiceConfig, ServiceError, TenantStatsWire, MAX_FRAME_LEN};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use telemetry::{RegistrySnapshot, Stage, StageSpans};

/// Shots one tenant may have in flight before the live gate sheds. The
/// schedule keeps one or two in flight; the gate must not be what a
/// scheduling hiccup trips over.
const MAX_INFLIGHT: usize = 256;

/// How long the receiver waits for a commit before the run is declared
/// incorrect instead of hanging.
const RECV_TIMEOUT: Duration = Duration::from_secs(20);

/// Lead between spawning a slice's threads and its first due time.
const SLICE_LEAD: Duration = Duration::from_millis(5);

/// How many times faster than the schedule a late sender may catch up.
const CATCH_UP_RATE: u64 = 2;

/// Shots per tenant of the closed-loop saturation probe, in pool passes.
const CLOSED_LOOP_PASSES: usize = 2;
/// Shots each tenant keeps in flight in the closed-loop probe.
const CLOSED_LOOP_INFLIGHT: usize = 4;

fn read_frame(rx: &mut BufReader<TcpStream>, body: &mut Vec<u8>) -> Result<Frame, String> {
    let mut len = [0u8; 4];
    rx.read_exact(&mut len)
        .map_err(|e| format!("receive: {e}"))?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(format!("receive: frame of {len} bytes"));
    }
    body.resize(len, 0);
    rx.read_exact(body).map_err(|e| format!("receive: {e}"))?;
    Frame::decode(body).map_err(|e| format!("receive: {e}"))
}

fn write_frame(tx: &mut TcpStream, frame: &Frame) -> Result<(), String> {
    let wire = frame.to_wire().map_err(|e| format!("encode: {e}"))?;
    tx.write_all(&wire).map_err(|e| format!("send: {e}"))
}

/// One shot's commit as the receiver saw it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Commit {
    obs_flip: u64,
    failed: bool,
    shed: bool,
    seen: bool,
}

impl Commit {
    fn delivered(&self) -> bool {
        self.seen && !self.shed
    }

    fn usable(&self) -> bool {
        self.delivered() && !self.failed
    }
}

/// The frames of one slice, encoded and grouped by due time.
struct EncodedSlice {
    wire: Vec<u8>,
    /// End offset in `wire` of each group of frames due together.
    group_ends: Vec<usize>,
}

/// Shot `j` of tenant `q` is submission `j × tenants + q` of a slice.
fn encode_slice(w: &Workload, pools: &[Pool], base_seq: u64) -> EncodedSlice {
    let mut wire = Vec::new();
    let mut group_ends = Vec::new();
    for j in 0..w.pool_shots {
        for (q, pool) in pools.iter().enumerate() {
            pool.encode_submit(j, q as u32, base_seq + j as u64, &mut wire);
            if w.drive == Drive::Paced {
                group_ends.push(wire.len());
            }
        }
        if w.drive == Drive::Burst {
            group_ends.push(wire.len());
        }
    }
    EncodedSlice { wire, group_ends }
}

/// Nanoseconds between the due times of consecutive groups.
fn group_interval_ns(w: &Workload) -> u64 {
    let frames = if w.drive == Drive::Burst {
        w.tenants
    } else {
        1
    };
    (frames as f64 * 1e9 / w.shots_per_s).round() as u64
}

/// Sleeps, then spins, until `due`: a sleep alone overshoots by however
/// long the thread takes to be scheduled again, a spin alone takes one
/// of the box's two cores from the server.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(40);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What one service slice produced beyond its [`SliceSample`].
struct SvcSlice {
    sample: SliceSample,
    commits: Vec<Commit>,
    /// How late each group left against its due time, ns.
    lateness_ns: Vec<u32>,
    /// CPU seconds of the generator's own two threads.
    loadgen_cpu_s: f64,
    /// The first due time.
    start: Instant,
    /// Commit latency by submission index, ns (`sample` holds them
    /// sorted); `u32::MAX` where no usable commit came back.
    by_submission_ns: Vec<u32>,
}

impl AsRef<SliceSample> for SvcSlice {
    fn as_ref(&self) -> &SliceSample {
        &self.sample
    }
}

impl SvcSlice {
    /// One span per shot, due time to commit, under `parent`.
    fn record_spans(&self, w: &Workload, tracer: &mut Tracer, parent: SpanId) {
        let per_group = if w.drive == Drive::Burst {
            w.tenants as usize
        } else {
            1
        };
        let interval_ns = group_interval_ns(w);
        for (k, &lat) in self.by_submission_ns.iter().enumerate() {
            if lat != u32::MAX {
                let due = self.start + Duration::from_nanos(interval_ns * (k / per_group) as u64);
                tracer.record(
                    "service.due_to_commit",
                    parent,
                    k as u64,
                    due,
                    due + Duration::from_nanos(lat as u64),
                );
            }
        }
    }
}

/// A running server with one registered, warmed-up client connection.
struct Instance {
    sc: Scenario,
    server: Arc<DecodeServer>,
    server_thread: Option<JoinHandle<Result<(), ServiceError>>>,
    tx: TcpStream,
    rx: BufReader<TcpStream>,
    body: Vec<u8>,
    /// The shot number every tenant's next submission carries.
    next_seq: u64,
}

impl Instance {
    /// Cold start: context, scenario, server, connection, tenant
    /// registration, and every tenant's first commit
    /// (`Workload::setup_fill_shots`).
    fn start(w: &Workload, pools: &[Pool], metrics_sample: u32) -> Result<Instance, String> {
        let sc = Scenario::build(w);
        let cfg = ServiceConfig {
            shards: 1,
            round_ns: ROUND_NS,
            deadline_ns: ROUND_NS * w.commit as f64,
            max_inflight_shots: MAX_INFLIGHT,
            metrics_sample,
            trace_capacity: 0,
            ..ServiceConfig::default()
        };
        let server = Arc::new(DecodeServer::new(cfg, vec![sc.scenario.clone()])?);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let serving = Arc::clone(&server);
        let server_thread = std::thread::spawn(move || serving.serve_tcp(&listener, 1));
        let tx = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        tx.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let rx = tx.try_clone().map_err(|e| format!("clone: {e}"))?;
        rx.set_read_timeout(Some(RECV_TIMEOUT))
            .map_err(|e| format!("timeout: {e}"))?;
        let mut inst = Instance {
            sc,
            server,
            server_thread: Some(server_thread),
            tx,
            rx: BufReader::with_capacity(1 << 16, rx),
            body: Vec::new(),
            next_seq: 0,
        };
        for qubit in 0..w.tenants {
            write_frame(
                &mut inst.tx,
                &Frame::RegisterQubit {
                    qubit,
                    decoder: crate::spec::DECODER.code(),
                    window: w.window,
                    commit: w.commit,
                    predecode: crate::spec::PREDECODE.code(),
                    datapath: crate::spec::DATAPATH.code(),
                    scenario: w.name.into(),
                },
            )?;
        }
        for _ in 0..w.tenants {
            match read_frame(&mut inst.rx, &mut inst.body)? {
                Frame::RegisterAck { ok: true, .. } => {}
                other => return Err(format!("registration answered {other:?}")),
            }
        }
        // One shot in flight at a time: a reply that leaves alone is
        // never held back by Nagle on the server's socket, so the fill
        // costs its decodes and round trips, not 40 ms ACK timers.
        let mut wire = Vec::new();
        for j in 0..w.setup_fill_shots().min(w.pool_shots) {
            for (q, pool) in pools.iter().enumerate() {
                wire.clear();
                pool.encode_submit(j, q as u32, inst.next_seq, &mut wire);
                inst.tx.write_all(&wire).map_err(|e| format!("send: {e}"))?;
                match read_frame(&mut inst.rx, &mut inst.body)? {
                    Frame::CommitResult { shed: false, .. } => {}
                    other => return Err(format!("fill shot answered {other:?}")),
                }
            }
            inst.next_seq += 1;
        }
        Ok(inst)
    }

    /// Runs one slice: every pool shot of every tenant, once, on the
    /// workload's schedule.
    fn slice(&mut self, w: &Workload, pools: &[Pool]) -> Result<SvcSlice, String> {
        let base_seq = self.next_seq;
        self.next_seq += w.pool_shots as u64;
        let encoded = encode_slice(w, pools, base_seq);
        let interval_ns = group_interval_ns(w);
        let per_group = if w.drive == Drive::Burst {
            w.tenants as usize
        } else {
            1
        };
        let tenants = w.tenants as usize;
        let expect = tenants * w.pool_shots;
        let (tx, rx, body) = (&mut self.tx, &mut self.rx, &mut self.body);
        let cpu0 = process_cpu_ns();
        let start = Instant::now() + SLICE_LEAD;
        let due = |group: usize| start + Duration::from_nanos(interval_ns * group as u64);
        // A generator that fell behind (this thread or the whole VM was
        // descheduled) catches up at no more than CATCH_UP_RATE times the
        // schedule rate: its own stall must not reach the server as a
        // line-rate flood that overflows the submission ring. Every late
        // frame is still charged from its due time.
        let catch_up_gap = Duration::from_nanos(interval_ns / CATCH_UP_RATE);

        let (sent, received) = std::thread::scope(|scope| {
            let sender = scope.spawn(|| -> Result<(Vec<u32>, u64), String> {
                set_thread_timer_slack_ns(1_000);
                let cpu = thread_cpu_ns();
                let mut lateness = Vec::with_capacity(encoded.group_ends.len());
                let mut begin = 0;
                let mut earliest = start;
                for (g, &end) in encoded.group_ends.iter().enumerate() {
                    wait_until(due(g).max(earliest));
                    let now = Instant::now();
                    lateness.push((now - due(g)).as_nanos().min(u32::MAX as u128) as u32);
                    tx.write_all(&encoded.wire[begin..end])
                        .map_err(|e| format!("send: {e}"))?;
                    begin = end;
                    earliest = now + catch_up_gap;
                }
                Ok((lateness, thread_cpu_ns() - cpu))
            });
            let receiver = scope.spawn(
                || -> Result<(Vec<u32>, Vec<Commit>, Instant, u64), String> {
                    let cpu = thread_cpu_ns();
                    let mut latencies = vec![u32::MAX; expect];
                    let mut commits = vec![Commit::default(); expect];
                    let mut last = start;
                    for _ in 0..expect {
                        let frame = read_frame(rx, body)?;
                        last = Instant::now();
                        let Frame::CommitResult {
                            qubit,
                            shot,
                            obs_flip,
                            failed,
                            shed,
                            ..
                        } = frame
                        else {
                            return Err(format!("expected a commit, got {frame:?}"));
                        };
                        let k = shot
                            .checked_sub(base_seq)
                            .map(|j| j as usize * tenants + qubit as usize)
                            .filter(|&k| k < expect && qubit < tenants as u32 && !commits[k].seen)
                            .ok_or_else(|| {
                                format!("unsolicited commit: qubit {qubit} shot {shot}")
                            })?;
                        commits[k] = Commit {
                            obs_flip,
                            failed,
                            shed,
                            seen: true,
                        };
                        latencies[k] =
                            last.saturating_duration_since(due(k / per_group))
                                .as_nanos()
                                .min(u32::MAX as u128 - 1) as u32;
                    }
                    Ok((latencies, commits, last, thread_cpu_ns() - cpu))
                },
            );
            (
                sender.join().expect("sender thread panicked"),
                receiver.join().expect("receiver thread panicked"),
            )
        });
        let cpu_ns = process_cpu_ns() - cpu0;
        let (lateness_ns, sender_cpu) = sent?;
        let (mut latencies_ns, commits, last, receiver_cpu) = received?;
        // A shot without a usable commit missed every limit.
        for (lat, c) in latencies_ns.iter_mut().zip(&commits) {
            if !c.usable() {
                *lat = u32::MAX;
            }
        }
        let by_submission_ns = latencies_ns.clone();
        latencies_ns.sort_unstable();
        let loadgen_cpu_ns = sender_cpu + receiver_cpu;
        Ok(SvcSlice {
            sample: SliceSample {
                // First due time to last commit.
                wall_s: (last - start).as_secs_f64(),
                cpu_s: cpu_ns.saturating_sub(loadgen_cpu_ns) as f64 / 1e9,
                latencies_ns,
                diverged: 0,
            },
            commits,
            lateness_ns,
            loadgen_cpu_s: loadgen_cpu_ns as f64 / 1e9,
            start,
            by_submission_ns,
        })
    }

    /// Per-tenant modeled-hardware accounting over everything decoded so
    /// far.
    fn stats(&mut self) -> Result<Vec<TenantStatsWire>, String> {
        write_frame(&mut self.tx, &Frame::StatsRequest)?;
        match read_frame(&mut self.rx, &mut self.body)? {
            Frame::StatsReport { tenants } => Ok(tenants),
            other => Err(format!("stats request answered {other:?}")),
        }
    }

    /// Closed-loop saturation: every tenant keeps
    /// [`CLOSED_LOOP_INFLIGHT`] shots outstanding until it has sent
    /// [`CLOSED_LOOP_PASSES`] passes of its pool. Returns rounds/s.
    fn closed_loop(&mut self, w: &Workload, pools: &[Pool]) -> Result<f64, String> {
        let per_tenant = w.pool_shots * CLOSED_LOOP_PASSES;
        let base_seq = self.next_seq;
        self.next_seq += per_tenant as u64;
        // Frame `j` of tenant `q` sits at `offsets[q][j]..offsets[q][j + 1]`.
        let mut wires: Vec<Vec<u8>> = Vec::new();
        let mut offsets: Vec<Vec<usize>> = Vec::new();
        for (q, pool) in pools.iter().enumerate() {
            let (mut wire, mut ends) = (Vec::new(), vec![0]);
            for j in 0..per_tenant {
                pool.encode_submit(j % w.pool_shots, q as u32, base_seq + j as u64, &mut wire);
                ends.push(wire.len());
            }
            wires.push(wire);
            offsets.push(ends);
        }
        let mut next = vec![0usize; pools.len()];
        let mut outstanding = 0usize;
        let start = Instant::now();
        for _ in 0..CLOSED_LOOP_INFLIGHT.min(per_tenant) {
            for q in 0..pools.len() {
                let j = next[q];
                self.tx
                    .write_all(&wires[q][offsets[q][j]..offsets[q][j + 1]])
                    .map_err(|e| format!("send: {e}"))?;
                next[q] += 1;
                outstanding += 1;
            }
        }
        while outstanding > 0 {
            let Frame::CommitResult {
                qubit, shed: false, ..
            } = read_frame(&mut self.rx, &mut self.body)?
            else {
                return Err("closed loop: expected an unshed commit".into());
            };
            outstanding -= 1;
            let q = qubit as usize;
            if next[q] < per_tenant {
                let j = next[q];
                self.tx
                    .write_all(&wires[q][offsets[q][j]..offsets[q][j + 1]])
                    .map_err(|e| format!("send: {e}"))?;
                next[q] += 1;
                outstanding += 1;
            }
        }
        let rounds = (pools.len() * per_tenant) as f64 * self.sc.layers().num_layers() as f64;
        Ok(rounds / start.elapsed().as_secs_f64())
    }

    /// Ends the session and joins the server.
    fn shutdown(mut self) -> Result<(), String> {
        write_frame(&mut self.tx, &Frame::Shutdown)?;
        match read_frame(&mut self.rx, &mut self.body)? {
            Frame::ShutdownAck => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        self.server_thread
            .take()
            .expect("server thread is joined once")
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// Counts and checks one slice's commits against the engine replay of
/// the same pools; returns `[delivered, usable, logical successes]`.
fn score(slice: &mut SvcSlice, pools: &[Pool], references: &[Reference]) -> [u64; 3] {
    let tenants = pools.len();
    let (mut delivered, mut usable, mut successes) = (0, 0, 0);
    for (k, c) in slice.commits.iter().enumerate() {
        let (j, q) = (k / tenants, k % tenants);
        delivered += u64::from(c.delivered());
        usable += u64::from(c.usable());
        successes += u64::from(c.usable() && c.obs_flip == pools[q].obs[j]);
        // A shed or missing commit is a failed operation, counted above;
        // a commit that did come back must be the engine's, bit for bit.
        let differs = c.delivered()
            && (c.obs_flip != references[q].obs_flip[j] || c.failed != references[q].failed[j]);
        slice.sample.diverged += u64::from(differs);
    }
    [delivered, usable, successes]
}

/// `service.shard.*` and friends from the server's registry, as the
/// change between two snapshots taken around `slices`.
fn shard_metrics(
    before: &RegistrySnapshot,
    after: &RegistrySnapshot,
    slices: &[SvcSlice],
    probes: &[LayerValue],
) -> Vec<LayerValue> {
    let (b, a) = (&before.shards[0], &after.shards[0]);
    let stage = |st: Stage| {
        let (hb, ha) = (&b.stages[st as usize], &a.stages[st as usize]);
        (
            (ha.sum - hb.sum) as f64,
            (ha.count - hb.count).max(1) as f64,
        )
    };
    let shots = (a.shots - b.shots).max(1) as f64;
    let wall_s: f64 = slices.iter().map(|s| s.sample.wall_s).sum();
    let (ingest_ns, ingest_n) = stage(Stage::Ingest);
    let (total_ns, _) = stage(Stage::WindowTotal);
    let rtt_us = slices
        .iter()
        .map(|s| s.sample.latency_sum_ns())
        .sum::<f64>()
        / shots
        / 1e3;
    let probe = |name: &str| {
        probes
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let mut lateness: Vec<u32> = slices
        .iter()
        .flat_map(|s| s.lateness_ns.iter().copied())
        .collect();
    lateness.sort_unstable();
    // What the isolated layer probes account for in one shot's round
    // trip: submit encode, one transport round trip (two hops), the
    // ring wait, the window steps, commit encode.
    let accounted_us = probe("service.protocol.encode_submit_ns") / 1e3
        + probe("service.transport.tcp_rtt_us_p50")
        + ingest_ns / ingest_n / 1e3
        + total_ns / shots / 1e3
        + probe("service.protocol.encode_commit_ns") / 1e3;
    vec![
        (
            "service.shard.ingest_wait_us_mean",
            ingest_ns / ingest_n / 1e3,
        ),
        (
            "service.shard.parks_per_kshot",
            (a.parks - b.parks) as f64 / shots * 1e3,
        ),
        (
            "service.shard.wakes_per_kshot",
            (a.wakes - b.wakes) as f64 / shots * 1e3,
        ),
        ("service.shard.ring_depth_max", a.ring_depth_max as f64),
        ("service.shard.busy_fraction", total_ns / 1e9 / wall_s),
        ("service.sheds", (a.sheds - b.sheds) as f64),
        ("service.rtt_us_mean", rtt_us),
        ("service.unattributed_us_per_shot", rtt_us - accounted_us),
        (
            "loadgen.send_lateness_us_p99",
            percentile(&lateness, 0.99) as f64 / 1e3,
        ),
        (
            "loadgen.cpu_fraction",
            slices.iter().map(|s| s.loadgen_cpu_s).sum::<f64>() / wall_s,
        ),
    ]
}

/// Runs one service workload.
pub fn run(w: &Workload, opts: &RunOptions, tracer: &mut Tracer) -> RunReport {
    let mut problems: Vec<String> = Vec::new();
    match run_inner(w, opts, tracer, &mut problems) {
        Ok(report) => report,
        Err(e) => {
            problems.push(e);
            RunReport {
                workload: *w,
                seed: opts.seed,
                traced: opts.traced,
                attempted: 1,
                failed: 1,
                problems,
                metrics: Vec::new(),
                also: Vec::new(),
                notes: Vec::new(),
            }
        }
    }
}

fn run_inner(
    w: &Workload,
    opts: &RunOptions,
    tracer: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<RunReport, String> {
    // Inputs and their engine replay, from a scenario of their own.
    let gen_span = tracer.open("inputs.generate", ROOT);
    let (pools, references) = {
        let sc = Scenario::build(w);
        let pools: Vec<Pool> = (0..w.tenants)
            .map(|q| Pool::generate(&sc.ctx().circuit, sc.layers(), opts.seed, q, w.pool_shots))
            .collect();
        let mut dec = sc.decoder(w);
        let references: Vec<Reference> = pools
            .iter()
            .map(|p| Reference::replay(&mut dec, p))
            .collect();
        (pools, references)
    };
    tracer.close(gen_span);
    let hw = HwProfile::of(&pools);

    let setup_span = tracer.open("setup", ROOT);
    let mut setup_times: Vec<f64> = Vec::new();
    let mut kept: Option<Instance> = None;
    while opts.repeat_setup(setup_times.len(), setup_times.iter().sum()) {
        if let Some(prev) = kept.take() {
            prev.shutdown()?;
        }
        let t = Instant::now();
        kept = Some(Instance::start(w, &pools, 0)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    tracer.close(setup_span);
    let mut inst = kept.expect("at least one set-up repeat");
    let layers_per_shot = inst.sc.layers().num_layers() as f64;
    let rounds = w.shots_per_slice() as f64 * layers_per_shot;

    // Runs slices for `seconds`, checks each against the engine replay,
    // and sums [delivered, usable, logical successes] over them.
    let run_slices = |inst: &mut Instance,
                      seconds: f64,
                      what: &'static str,
                      tracer: &mut Tracer,
                      shot_spans: bool,
                      problems: &mut Vec<String>|
     -> Result<(Vec<SvcSlice>, [u64; 3]), String> {
        let mut totals = [0; 3];
        let slices = opts.run_slices(seconds, |i| {
            let id = tracer.open(what, ROOT);
            let mut s = inst.slice(w, &pools)?;
            tracer.close(id);
            if shot_spans {
                s.record_spans(w, tracer, id);
            }
            for (total, part) in totals.iter_mut().zip(score(&mut s, &pools, &references)) {
                *total += part;
            }
            if s.sample.diverged != 0 {
                problems.push(format!(
                    "{what} {i}: {} commits differ from the engine replay of the same pools",
                    s.sample.diverged
                ));
            }
            Ok(s)
        })?;
        Ok((slices, totals))
    };

    // Discarded warm-up slice (it also fills the window cache).
    let mut warm = inst.slice(w, &pools)?;
    score(&mut warm, &pools, &references);
    if warm.sample.diverged != 0 {
        problems.push("warm-up: commits differ from the engine replay".into());
    }
    // The modeled-hardware accounting is read after a fixed number of
    // slices — set-up, warm-up and exactly MIN_SLICES pools, the same
    // windows on every run — and the clock decides only how many more
    // slices follow.
    let (plain_s, traced_s) = opts.phase_seconds();
    let measured = Instant::now();
    let (mut plain, mut totals) = run_slices(&mut inst, 0.0, "slice", tracer, false, problems)?;
    debug_assert_eq!(plain.len(), MIN_SLICES);
    let stats = inst.stats()?;
    let left_s = plain_s - measured.elapsed().as_secs_f64();
    let (more, more_totals) = run_slices(&mut inst, left_s, "slice", tracer, false, problems)?;
    plain.extend(more);
    for (total, part) in totals.iter_mut().zip(more_totals) {
        *total += part;
    }
    let [delivered, usable, successes] = totals;
    let plain_n = plain.len();
    let cache_builds = inst.sc.scenario.window_cache().builds();
    let context_build_s = inst.sc.context_build_s;
    inst.shutdown()?;

    let attempted = (plain_n * w.shots_per_slice()) as u64;
    let model_windows: u64 = stats.iter().map(|t| t.windows).sum();
    let model_late: u64 = stats.iter().map(|t| t.shed + t.deadline_misses).sum();
    // Mean over tenants: each tenant's p99 is an order statistic of a
    // few thousand windows, and the worst of sixteen of those moves with
    // the seed far more than their mean does.
    let model_p99_ns = stats.iter().map(|t| t.p99_ns).sum::<f64>() / stats.len().max(1) as f64;
    let mut metrics = vec![Metric::best_slice("setup_s", "s", &setup_times, false)];
    metrics.extend(time_metrics(&plain, rounds));
    metrics.extend([
        within_limit_metric(&plain, w),
        Metric::exact(
            "delivered_fraction",
            "ratio",
            delivered as f64 / attempted as f64,
        ),
        Metric::exact(
            "logical_success_fraction",
            "ratio",
            successes as f64 / attempted as f64,
        ),
        Metric::exact(
            "model_reaction_p99_cycles",
            "cycles",
            model_p99_ns / CYCLE_NS,
        ),
        Metric::exact(
            "model_deadline_met_fraction",
            "ratio",
            1.0 - model_late as f64 / model_windows.max(1) as f64,
        ),
    ]);
    let mut lateness: Vec<u32> = plain
        .iter()
        .flat_map(|s| s.lateness_ns.iter().copied())
        .collect();
    lateness.sort_unstable();
    let mut notes = vec![
        ("pool_hw_classes", hw.classes_line()),
        (
            "pool",
            format!(
                "{} tenants x {} shots per slice at {} shots/s, hw mean {:.3} p99 {} max {}",
                w.tenants, w.pool_shots, w.shots_per_s, hw.mean, hw.p99, hw.max
            ),
        ),
        (
            "slices",
            format!("{plain_n} untraced in {plain_s} s, 1 warm-up discarded"),
        ),
        (
            "latency_samples",
            format!(
                "{} per slice, {} beyond p99",
                w.shots_per_slice(),
                samples_beyond(w.shots_per_slice(), 0.99)
            ),
        ),
        (
            "send_lateness_us",
            format!(
                "p50 {:.1} p99 {:.1} max {:.1}",
                percentile(&lateness, 0.50) as f64 / 1e3,
                percentile(&lateness, 0.99) as f64 / 1e3,
                lateness.last().copied().unwrap_or(0) as f64 / 1e3
            ),
        ),
    ];

    let mut layer: Vec<LayerValue> = Vec::new();
    if opts.traced {
        // Isolated layer probes first, while no server thread competes
        // for the cores.
        let sc = Scenario::build(w);
        layer.extend(layers::static_probes(
            &layers::ProbeInputs {
                sc: &sc,
                w,
                pools: &pools,
                references: &references,
                hw: &hw,
                context_build_s,
                cache_builds,
            },
            tracer,
        ));

        // The window engine's stage spans, from an engine replay of the
        // tenants' pools on this thread.
        let spans = Arc::new(StageSpans::new());
        let mut dec = sc.decoder(w);
        for p in &pools {
            let _ = Reference::replay(&mut dec, p);
        }
        dec.set_spans(Arc::clone(&spans), 1);
        let replay = tracer.open("realtime.engine_replay", ROOT);
        let mut wall_ns = 0.0;
        for (p, r) in pools.iter().zip(&references) {
            let s = decode_slice(&mut dec, p, r, 1, Some((&mut *tracer, replay)));
            wall_ns += s.latency_sum_ns();
        }
        tracer.close(replay);
        layer.extend(realtime_metrics(
            &spans,
            (pools.len() * w.pool_shots) as f64,
            wall_ns,
        ));

        // The same slices against a server with 1-in-1 stage spans on.
        let mut inst = Instance::start(w, &pools, 1)?;
        inst.slice(w, &pools)?;
        let before = inst.server.metrics().snapshot();
        let (traced, _) = run_slices(&mut inst, traced_s, "slice.traced", tracer, true, problems)?;
        let after = inst.server.metrics().snapshot();
        let shard = shard_metrics(&before, &after, &traced, &layer);
        layer.extend(shard);
        let (closed, _) = tracer.time("service.closed_loop", ROOT, || inst.closed_loop(w, &pools));
        layer.push(("service.closed_loop_rounds_per_s", closed?));
        inst.shutdown()?;
        layer.push((
            "trace.overhead_fraction",
            best_cpu_s(&traced) / best_cpu_s(&plain) - 1.0,
        ));
        notes.push(("traced_slices", format!("{} in {traced_s} s", traced.len())));
        notes.push(("spans_recorded", tracer.len().to_string()));
    }
    metrics.push(Metric::exact("peak_rss_mb", "MB", peak_rss_mb()));

    let (metrics, also) =
        layers::result_metrics(opts.traced, metrics, demoted_metrics(&plain, rounds), layer);
    Ok(RunReport {
        workload: *w,
        seed: opts.seed,
        traced: opts.traced,
        attempted,
        failed: attempted - usable,
        problems: std::mem::take(problems),
        metrics,
        also,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, WORKLOADS};

    #[test]
    fn paced_sends_frame_by_frame_and_burst_sends_a_frame_per_tenant_at_once() {
        let (paced, burst) = (
            workload("svc-paced-d5").unwrap().smoke(),
            workload("svc-burst-d5").unwrap().smoke(),
        );
        let sc = Scenario::build(&paced);
        let pools: Vec<Pool> = (0..paced.tenants)
            .map(|q| Pool::generate(&sc.ctx().circuit, sc.layers(), 1, q, paced.pool_shots))
            .collect();
        let (p, b) = (
            encode_slice(&paced, &pools, 100),
            encode_slice(&burst, &pools, 100),
        );
        assert_eq!(p.wire, b.wire, "same frames, same order");
        assert_eq!(p.group_ends.len(), paced.shots_per_slice());
        assert_eq!(b.group_ends.len(), burst.pool_shots);
        assert_eq!(p.group_ends.last(), Some(&p.wire.len()));
        assert_eq!(b.group_ends.last(), Some(&b.wire.len()));
        // Same mean rate: a burst period is `tenants` paced periods.
        assert_eq!(group_interval_ns(&paced), 125_000);
        assert_eq!(group_interval_ns(&burst), 125_000 * burst.tenants as u64);
        // The second frame on the wire is tenant 1's shot 0, numbered 100.
        let second =
            Frame::decode_submit_body(&p.wire[p.group_ends[0] + 4..p.group_ends[1]]).unwrap();
        assert_eq!((second.qubit, second.shot), (1, 100));
    }

    #[test]
    fn scoring_counts_sheds_as_failures_and_wrong_commits_as_divergence() {
        let w = WORKLOADS[2].smoke();
        let sc = Scenario::build(&w);
        let pools: Vec<Pool> = (0..2)
            .map(|q| Pool::generate(&sc.ctx().circuit, sc.layers(), 1, q, 8))
            .collect();
        let mut dec = sc.decoder(&w);
        let references: Vec<Reference> = pools
            .iter()
            .map(|p| Reference::replay(&mut dec, p))
            .collect();
        let commits: Vec<Commit> = (0..16)
            .map(|k| Commit {
                obs_flip: references[k % 2].obs_flip[k / 2],
                failed: references[k % 2].failed[k / 2],
                shed: false,
                seen: true,
            })
            .collect();
        let slice = |commits: Vec<Commit>| SvcSlice {
            sample: SliceSample {
                wall_s: 1.0,
                cpu_s: 1.0,
                latencies_ns: Vec::new(),
                diverged: 0,
            },
            commits,
            lateness_ns: Vec::new(),
            loadgen_cpu_s: 0.0,
            start: Instant::now(),
            by_submission_ns: Vec::new(),
        };
        let mut clean = slice(commits.clone());
        let [delivered, usable, _] = score(&mut clean, &pools, &references);
        let failures = references
            .iter()
            .map(Reference::decode_failures)
            .sum::<u64>();
        assert_eq!(
            (delivered, usable, clean.sample.diverged),
            (16, 16 - failures, 0)
        );

        let mut bad = commits;
        bad[3].shed = true;
        bad[5].seen = false;
        bad[6].obs_flip ^= 1;
        let mut bad = slice(bad);
        let [delivered, _, _] = score(&mut bad, &pools, &references);
        assert_eq!(
            delivered, 14,
            "a shed and a missing commit are not delivered"
        );
        assert_eq!(bad.sample.diverged, 1, "only the wrong correction diverges");
    }
}
