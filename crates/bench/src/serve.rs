//! `repro serve` — the multi-tenant decode-service study.
//!
//! Boots a [`service::DecodeServer`] loaded with one named scenario
//! (its context pulled from the process-wide `Arc` cache, so Q tenants
//! and repeated invocations share one graph + path table), drives it
//! with the closed-loop load generator in process (a Unix socket pair,
//! the default) or over loopback TCP, and
//! reports one [`ServicePoint`] per tenant — throughput (rounds/s),
//! reaction percentiles, shed and deadline-miss counters, client-side
//! logical failures — with the whole-run aggregate throughput in the
//! [`ServiceSummary`].

use crate::scale::{parse_positive, parse_threads};
use crate::scenario::Scenario;
use ler::DecoderKind;
use realtime::{Datapath, PredecodeMode};
use service::{
    channel_pair, run_loadgen, tcp_endpoint, DecodeServer, LoadgenConfig, LoadgenReport,
    ScenarioContext, ServiceConfig,
};
use std::io::Write;
use std::time::Instant;

/// Which transport a `repro serve` run uses between the load generator
/// and the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeTransport {
    /// An in-process Unix socket pair carrying the same wire bytes as TCP
    /// (default).
    Channel,
    /// Loopback TCP on an ephemeral port (bind to port 0).
    Tcp,
}

/// Configuration of a `repro serve` run. `None` fields fall back to the
/// scenario's own defaults.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Synthetic logical qubits (tenants) to drive.
    pub qubits: u32,
    /// Decode shards of the worker pool.
    pub shards: usize,
    /// Syndrome rounds per second per qubit (sets the modeled cadence;
    /// default 2.5e5, i.e. a 4 µs round).
    pub rate: f64,
    /// Shots to stream per tenant.
    pub shots: u64,
    /// Base stream seed (tenant q streams with
    /// [`service::qubit_seed`]`(seed, q)`, a SplitMix64 mix).
    pub seed: u64,
    /// Decoder every tenant registers (default: the paper's headline
    /// real-time configuration, Promatch ‖ AG).
    pub decoder: DecoderKind,
    /// Sliding-window size in round layers (default: scenario's).
    pub window: Option<u32>,
    /// Committed layers per window step (default: scenario's).
    pub commit: Option<u32>,
    /// Reaction deadline in nanoseconds (default: `commit × round`,
    /// the steady-state throughput condition).
    pub deadline_ns: Option<f64>,
    /// Batch-predecoder (L1) mode every tenant registers with.
    pub predecode: PredecodeMode,
    /// Syndrome datapath every tenant registers with: `packed` rides the
    /// zero-copy arena ingest (default), `byte` the reference path.
    pub datapath: Datapath,
    /// Modeled bound on one tenant's waiting windows.
    pub queue: usize,
    /// Closed-loop depth: outstanding shots per tenant (also the live
    /// admission budget, so a well-behaved run never sheds).
    pub inflight: usize,
    /// Transport between load generator and server.
    pub transport: ServeTransport,
    /// Bind address for the live Prometheus-text `/metrics` endpoint
    /// (e.g. `127.0.0.1:9464`; port 0 picks an ephemeral port). `None`
    /// leaves the endpoint off.
    pub metrics_addr: Option<String>,
    /// Span-sampling rate: 1-in-N window steps / submissions get stage
    /// timestamps (0 disables spans; counters and gauges always run).
    pub metrics_sample: u32,
    /// Flight-recorder ring capacity per shard, in events (rounded up
    /// to a power of two by the recorder). 0 leaves the causal trace
    /// layer off entirely — no rings, no postmortem triggers.
    pub trace: usize,
    /// Path to write the end-of-run flight-recorder dump to. Its
    /// `.trace`-stripped stem also prefixes triggered postmortem dumps
    /// (`{stem}-{reason}-{millis}.trace`). `None` disables dump files;
    /// triggers still count into the `trace` summary.
    pub trace_out: Option<String>,
    /// Escalation-storm postmortem threshold: trigger when more than
    /// this fraction of a shard's last 64 windows escalated past L1
    /// (0 disables the storm trigger).
    pub storm_threshold: f64,
    /// SPSC ring high-water postmortem threshold: trigger when any
    /// shard's submission ring reaches this depth (0 disables).
    pub ring_high_water: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            qubits: 4,
            shards: 2,
            rate: 2.5e5,
            shots: 200,
            seed: 2024,
            decoder: DecoderKind::PromatchParAg,
            window: None,
            commit: None,
            deadline_ns: None,
            predecode: PredecodeMode::Off,
            datapath: Datapath::Packed,
            queue: 4,
            inflight: 2,
            transport: ServeTransport::Channel,
            metrics_addr: None,
            metrics_sample: 8,
            trace: 0,
            trace_out: None,
            storm_threshold: 0.0,
            ring_high_water: 0,
        }
    }
}

impl ServeConfig {
    /// Parses `key=value` overrides (`qubits=`, `shards=`, `rate=`,
    /// `shots=`, `seed=`, `decoder=`, `window=`, `commit=`, `deadline=`,
    /// `predecode=`, `datapath=`, `queue=`, `inflight=`, `transport=`,
    /// `metrics-addr=`, `metrics-sample=`, `trace=`,
    /// `trace-out=`, `storm-threshold=`, `ring-high-water=`), rejecting
    /// zero sizes with a clear error.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown keys or invalid values.
    pub fn apply_overrides(&mut self, args: &[String]) -> Result<(), String> {
        for arg in args {
            let Some((key, value)) = arg.split_once('=') else {
                return Err(format!("expected key=value, got '{arg}'"));
            };
            match key {
                "qubits" => self.qubits = parse_positive("qubits", value)? as u32,
                "shards" => self.shards = parse_positive("shards", value)? as usize,
                "rate" => {
                    self.rate = value.parse().map_err(|e| format!("rate: {e}"))?;
                    if !self.rate.is_finite() || self.rate <= 0.0 {
                        return Err(format!("rate must be positive, got {value}"));
                    }
                }
                "shots" => self.shots = parse_positive("shots", value)?,
                "seed" => self.seed = value.parse().map_err(|e| format!("seed: {e}"))?,
                "decoder" => {
                    self.decoder = DecoderKind::parse(value).ok_or_else(|| {
                        let known: Vec<&str> = DecoderKind::ALL.iter().map(|k| k.key()).collect();
                        format!("unknown decoder '{value}' (known: {})", known.join(", "))
                    })?;
                }
                "window" => {
                    self.window = Some(parse_positive("window", value)? as u32);
                }
                "commit" => {
                    self.commit = Some(parse_positive("commit", value)? as u32);
                }
                "deadline" => {
                    self.deadline_ns = Some(value.parse().map_err(|e| format!("deadline: {e}"))?);
                }
                "predecode" => {
                    self.predecode =
                        PredecodeMode::parse(value).map_err(|e| format!("predecode: {e}"))?;
                }
                "datapath" => {
                    self.datapath = Datapath::parse(value).map_err(|e| format!("datapath: {e}"))?;
                }
                "queue" => self.queue = parse_positive("queue", value)? as usize,
                "inflight" => self.inflight = parse_positive("inflight", value)? as usize,
                "transport" => {
                    self.transport = match value {
                        "channel" => ServeTransport::Channel,
                        "tcp" => ServeTransport::Tcp,
                        other => {
                            return Err(format!("unknown transport '{other}' (channel|tcp)"));
                        }
                    };
                }
                "metrics-addr" => self.metrics_addr = Some(value.to_string()),
                "metrics-sample" => {
                    self.metrics_sample =
                        value.parse().map_err(|e| format!("metrics-sample: {e}"))?;
                }
                "trace" => self.trace = value.parse().map_err(|e| format!("trace: {e}"))?,
                "trace-out" => self.trace_out = Some(value.to_string()),
                "storm-threshold" => {
                    self.storm_threshold =
                        value.parse().map_err(|e| format!("storm-threshold: {e}"))?;
                }
                "ring-high-water" => {
                    self.ring_high_water =
                        value.parse().map_err(|e| format!("ring-high-water: {e}"))?;
                }
                // `threads=` is accepted for CLI symmetry with the other
                // subcommands: the worker pool's parallelism is its shard
                // count.
                "threads" => self.shards = parse_threads(value)?,
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        Ok(())
    }

    /// The modeled round period, ns.
    pub fn round_ns(&self) -> f64 {
        1e9 / self.rate
    }
}

/// One `(scenario, tenant)` row of a multi-tenant decode-service run
/// (`repro serve`).
#[derive(Clone, Debug)]
pub struct ServicePoint {
    /// Scenario name the service was loaded with.
    pub scenario: String,
    /// Paper-style decoder label every tenant registered.
    pub decoder: &'static str,
    /// Tenants driven in the run.
    pub qubits: u32,
    /// Decode shards of the worker pool.
    pub shards: usize,
    /// This row's tenant id.
    pub qubit: u32,
    /// Shard that owned the tenant.
    pub shard: u32,
    /// Sliding-window size in round layers.
    pub window: u32,
    /// Committed layers per window step.
    pub commit: u32,
    /// Predecode mode label (`off` or `batch`).
    pub predecode: &'static str,
    /// Syndrome datapath label (`packed` or `byte`) every tenant
    /// registered: packed rides the zero-copy arena ingest, byte is the
    /// bit-identical reference path.
    pub datapath: &'static str,
    /// Syndrome round period, ns (from the `--rate` flag).
    pub round_ns: f64,
    /// Reaction deadline per window, ns.
    pub deadline_ns: f64,
    /// Shots committed for this tenant.
    pub shots: u64,
    /// Windows decoded for this tenant.
    pub windows: u64,
    /// Windows shed by admission control.
    pub shed: u64,
    /// Windows whose modeled reaction exceeded the deadline.
    pub deadline_misses: u64,
    /// Median modeled reaction time, ns.
    pub p50_ns: f64,
    /// 99th-percentile modeled reaction time, ns.
    pub p99_ns: f64,
    /// Worst modeled reaction time, ns.
    pub max_ns: f64,
    /// Mean modeled reaction time, ns.
    pub mean_ns: f64,
    /// Fraction of this tenant's submitted rounds the L1 tier resolved
    /// before any matching solver ran (0 with predecoding off).
    pub l1_rounds_fraction: f64,
    /// Fraction of this tenant's windows escalated past the L1 tier.
    pub escalation_fraction: f64,
    /// Logical failures scored client-side for this tenant.
    pub failures: u64,
    /// This tenant's measured decode throughput, syndrome rounds per
    /// wall-clock second (`shots × layers_per_shot / wall_seconds`).
    /// The whole-service aggregate lives in [`ServiceSummary`].
    pub rounds_per_s: f64,
}

/// Whole-run aggregate of a `repro serve` study.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceSummary {
    /// Whole-service decode throughput, syndrome rounds per second.
    pub rounds_per_s: f64,
    /// Aggregate throughput normalized to one decode shard.
    pub rounds_per_s_per_shard: f64,
    /// Deepest SPSC submission-ring occupancy any shard observed over
    /// the run (from the telemetry ring-depth gauges).
    pub max_ring_depth: u64,
}

/// One stage row of the serve-run telemetry breakdown: the merged
/// cross-shard latency histogram of one pipeline stage, folded to
/// count/sum/percentiles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageBreakdownRow {
    /// Stage label (`ingest`, `predecode`, `window`, `solve`, `commit`,
    /// `window_total`).
    pub stage: &'static str,
    /// Sampled spans recorded for the stage.
    pub count: u64,
    /// Summed span duration, ns.
    pub sum_ns: u64,
    /// Median span duration, ns.
    pub p50_ns: u64,
    /// 99th-percentile span duration, ns.
    pub p99_ns: u64,
    /// Worst span duration, ns.
    pub max_ns: u64,
}

/// The per-stage telemetry breakdown of a `repro serve` run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Span-sampling rate the run used (1-in-N window steps; 0 = spans
    /// disabled, counters only).
    pub sample_every: u32,
    /// Deepest SPSC ring occupancy any shard observed.
    pub max_ring_depth: u64,
    /// One row per pipeline stage, merged across shards.
    pub stages: Vec<StageBreakdownRow>,
}

/// The flight-recorder rollup of a trace-armed `repro serve` run
/// (`None` from [`run_serve`] when tracing was off).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events recorded across every shard's flight-recorder ring over
    /// the run's lifetime.
    pub events: u64,
    /// Events the rings overwrote before the end-of-run snapshot (ring
    /// wrap; the recorder never blocks the hot path to preserve them).
    pub dropped: u64,
    /// Postmortem triggers fired over the run (shed, deadline miss,
    /// escalation storm, ring high-water). Only the first writes a dump
    /// file; the rest just count.
    pub dump_triggers: u64,
}

/// Runs the decode-service study of one scenario, printing the tables
/// to `w` and returning the per-tenant points, the whole-run aggregate,
/// the per-stage telemetry breakdown and (trace-armed runs only) the
/// flight-recorder rollup.
///
/// # Errors
///
/// Propagates I/O errors from the progress writer; service-level errors
/// (invalid window, transport failures) are reported as
/// [`std::io::ErrorKind::InvalidInput`] / [`std::io::ErrorKind::Other`].
pub fn run_serve(
    scenario: &Scenario,
    cfg: &ServeConfig,
    w: &mut dyn Write,
) -> std::io::Result<(
    Vec<ServicePoint>,
    ServiceSummary,
    TelemetrySummary,
    Option<TraceSummary>,
)> {
    let invalid = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
    let window = cfg.window.unwrap_or(scenario.rt_window);
    let commit = cfg.commit.unwrap_or(scenario.rt_commit);
    let round_ns = cfg.round_ns();
    let deadline_ns = cfg.deadline_ns.unwrap_or(round_ns * commit as f64);
    writeln!(
        w,
        "# serve {}: {} noise, d={}, rounds={}, p={:.0e}",
        scenario.name,
        scenario.noise.label(),
        scenario.distance,
        scenario.rounds,
        scenario.p
    )?;
    writeln!(
        w,
        "# qubits={} shards={} decoder={} window={window} commit={commit} \
         predecode={} datapath={} rate={:.0}/s (round={round_ns:.0}ns) \
         deadline={deadline_ns:.0}ns queue={} inflight={} shots/qubit={} \
         seed={} transport={:?}",
        cfg.qubits,
        cfg.shards,
        cfg.decoder.key(),
        cfg.predecode.label(),
        cfg.datapath.label(),
        cfg.rate,
        cfg.queue,
        cfg.inflight,
        cfg.shots,
        cfg.seed,
        cfg.transport,
    )?;
    // Registration-time measurement: the first shared_context call per
    // process builds the immutable state, every later one (the next
    // subcommand, the next serve run) is an Arc clone.
    let build_started = Instant::now();
    let ctx = scenario.shared_context();
    let cold = build_started.elapsed();
    let warm_started = Instant::now();
    let _again = scenario.shared_context();
    let warm = warm_started.elapsed();
    writeln!(
        w,
        "# context: {:.1?} ({} detectors; cached lookup {:.1?})",
        cold,
        ctx.graph.num_detectors(),
        warm
    )?;
    let scenario_ctx =
        ScenarioContext::new(scenario.name, std::sync::Arc::clone(&ctx)).map_err(invalid)?;
    // Triggered postmortems share the end-of-run dump path's stem:
    // `run.trace` freezes to `run-shed-<millis>.trace` and friends.
    let dump_prefix = cfg
        .trace_out
        .as_deref()
        .map(|p| p.strip_suffix(".trace").unwrap_or(p).to_string());
    let service_cfg = ServiceConfig {
        shards: cfg.shards,
        round_ns,
        deadline_ns,
        queue_capacity: cfg.queue,
        max_inflight_shots: cfg.inflight,
        batch_max: 16,
        metrics_sample: cfg.metrics_sample,
        trace_capacity: cfg.trace,
        trace_dump_prefix: dump_prefix,
        storm_threshold: cfg.storm_threshold,
        ring_high_water: cfg.ring_high_water,
    };
    let server = DecodeServer::new(service_cfg, vec![scenario_ctx.clone()]).map_err(invalid)?;
    let registry = std::sync::Arc::clone(server.metrics());
    // Live exposition: the /metrics endpoint serves Prometheus text for
    // the whole run; port 0 binds an ephemeral port (printed below).
    let _metrics_server = match &cfg.metrics_addr {
        Some(addr) => {
            let srv = telemetry::MetricsServer::spawn(addr, std::sync::Arc::clone(&registry))?;
            writeln!(w, "# metrics: http://{}/metrics", srv.local_addr())?;
            Some(srv)
        }
        None => None,
    };
    let loadgen_cfg = LoadgenConfig {
        scenario: scenario.name.to_string(),
        qubits: cfg.qubits,
        shots_per_qubit: cfg.shots,
        seed: cfg.seed,
        decoder: cfg.decoder,
        window,
        commit,
        inflight: cfg.inflight,
        predecode: cfg.predecode,
        datapath: cfg.datapath,
    };
    let service_err = |e: service::ServiceError| std::io::Error::other(e.to_string());
    let report: LoadgenReport = match cfg.transport {
        ServeTransport::Channel => {
            let (client, server_end) = channel_pair();
            std::thread::scope(|scope| {
                scope.spawn(|| server.serve(vec![server_end]));
                run_loadgen(client, &ctx, scenario_ctx.layers(), &loadgen_cfg)
            })
            .map_err(service_err)?
        }
        ServeTransport::Tcp => {
            // Ephemeral port: parallel runs (e.g. CI) never collide.
            let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            std::thread::scope(|scope| {
                let srv = scope.spawn(|| server.serve_tcp(&listener, 1));
                let endpoint =
                    tcp_endpoint(std::net::TcpStream::connect(addr)?).map_err(service_err)?;
                let report = run_loadgen(endpoint, &ctx, scenario_ctx.layers(), &loadgen_cfg)
                    .map_err(service_err)?;
                srv.join()
                    .expect("server thread panicked")
                    .map_err(service_err)?;
                Ok::<_, std::io::Error>(report)
            })?
        }
    };
    // The run's final telemetry state; everything below reads this one
    // consistent snapshot.
    let snap = registry.snapshot();
    let telemetry_summary = TelemetrySummary {
        sample_every: cfg.metrics_sample,
        max_ring_depth: snap.max_ring_depth(),
        stages: telemetry::Stage::ALL
            .iter()
            .map(|&st| {
                let h = snap.merged_stage(st);
                StageBreakdownRow {
                    stage: st.label(),
                    count: h.count,
                    sum_ns: h.sum,
                    p50_ns: h.quantile(0.5),
                    p99_ns: h.quantile(0.99),
                    max_ns: h.max,
                }
            })
            .collect(),
    };
    // Flight-recorder rollup and end-of-run dump. Triggered postmortems
    // (shed, deadline miss, storm, high-water) already froze their own
    // dump during the run; the end-of-run dump is the final ring state.
    let trace_summary = server.trace().map(|trace| {
        if let Some(path) = &cfg.trace_out {
            let dump = trace.collect("end-of-run");
            if let Err(e) = std::fs::write(path, telemetry::render_dump(&dump)) {
                let _ = writeln!(w, "# trace: failed to write {path}: {e}");
            } else {
                let _ = writeln!(w, "# trace: wrote {path} ({} events)", dump.len());
            }
        }
        if let Some(path) = trace.dump_path() {
            let _ = writeln!(w, "# trace: postmortem frozen at {path}");
        }
        TraceSummary {
            events: trace.events_recorded(),
            dropped: trace.events_dropped(),
            dump_triggers: trace.triggers(),
        }
    });
    if let Some(t) = &trace_summary {
        writeln!(
            w,
            "# trace: {} events recorded ({} dropped), {} dump triggers",
            t.events, t.dropped, t.dump_triggers
        )?;
    }
    let aggregate_rounds_per_s = report.rounds_per_second();
    let summary = ServiceSummary {
        rounds_per_s: aggregate_rounds_per_s,
        rounds_per_s_per_shard: aggregate_rounds_per_s / cfg.shards.max(1) as f64,
        max_ring_depth: snap.max_ring_depth(),
    };
    writeln!(
        w,
        "# {} shots ({} rounds) in {:.3}s -> {:.0} rounds/s decoded \
         ({:.0}/shard across {})",
        report.shots_submitted,
        report.rounds_submitted,
        report.wall_seconds,
        aggregate_rounds_per_s,
        summary.rounds_per_s_per_shard,
        cfg.shards,
    )?;
    writeln!(
        w,
        "# telemetry: max ring depth {} across {} shards (sample 1-in-{})",
        summary.max_ring_depth, cfg.shards, cfg.metrics_sample,
    )?;
    for row in &telemetry_summary.stages {
        if row.count > 0 {
            writeln!(
                w,
                "#   stage {:<13} p50 {:>7} ns  p99 {:>7} ns  max {:>8} ns  ({} spans)",
                row.stage, row.p50_ns, row.p99_ns, row.max_ns, row.count,
            )?;
        }
    }
    writeln!(
        w,
        "{:<6} {:>5} {:>7} {:>8} {:>5} {:>7} {:>9} {:>9} {:>9} {:>7} {:>10}",
        "qubit",
        "shard",
        "shots",
        "windows",
        "shed",
        "misses",
        "p50 ns",
        "p99 ns",
        "max ns",
        "L1%",
        "fail/shot"
    )?;
    let layers_per_shot = u64::from(scenario_ctx.layers().num_layers());
    let mut points = Vec::new();
    for (tenant, stats) in report.tenants.iter().zip(&report.stats) {
        // L1-resolved rounds over all streamed rounds; escalations over
        // all decoded windows. Both are zero with predecoding off.
        let l1_rounds_fraction = if stats.shots > 0 {
            stats.l1_rounds as f64 / (stats.shots * layers_per_shot) as f64
        } else {
            0.0
        };
        let escalation_fraction = if stats.windows > 0 {
            stats.escalated_windows as f64 / stats.windows as f64
        } else {
            0.0
        };
        // Per-tenant throughput: this tenant's committed rounds over its
        // *own* first-submit→last-commit wall clock (dividing by the
        // whole-run wall clock would stamp every equal-shots tenant with
        // one identical number).
        let rounds_per_s = if tenant.wall_seconds > 0.0 {
            (stats.shots * layers_per_shot) as f64 / tenant.wall_seconds
        } else {
            0.0
        };
        writeln!(
            w,
            "{:<6} {:>5} {:>7} {:>8} {:>5} {:>7} {:>9.0} {:>9.0} {:>9.0} {:>6.1}% {:>10}",
            tenant.qubit,
            tenant.shard,
            stats.shots,
            stats.windows,
            stats.shed,
            stats.deadline_misses,
            stats.p50_ns,
            stats.p99_ns,
            stats.max_ns,
            100.0 * l1_rounds_fraction,
            format!("{}/{}", tenant.failures, tenant.commits.len()),
        )?;
        points.push(ServicePoint {
            scenario: scenario.name.to_string(),
            decoder: cfg.decoder.label(),
            qubits: cfg.qubits,
            shards: cfg.shards,
            qubit: tenant.qubit,
            shard: tenant.shard,
            window,
            commit,
            predecode: cfg.predecode.label(),
            datapath: cfg.datapath.label(),
            round_ns,
            deadline_ns,
            shots: stats.shots,
            windows: stats.windows,
            shed: stats.shed,
            deadline_misses: stats.deadline_misses,
            p50_ns: stats.p50_ns,
            p99_ns: stats.p99_ns,
            max_ns: stats.max_ns,
            mean_ns: stats.mean_ns,
            l1_rounds_fraction,
            escalation_fraction,
            failures: tenant.failures,
            rounds_per_s,
        });
    }
    let total_misses: u64 = points.iter().map(|p| p.deadline_misses).sum();
    let total_shed: u64 = points.iter().map(|p| p.shed).sum();
    writeln!(
        w,
        "# total: {total_shed} shed, {total_misses} deadline misses across {} tenants",
        points.len()
    )?;
    if cfg.predecode != PredecodeMode::Off {
        let rounds: u64 = points.iter().map(|p| p.shots * layers_per_shot).sum();
        let l1: f64 = points
            .iter()
            .map(|p| p.l1_rounds_fraction * (p.shots * layers_per_shot) as f64)
            .sum();
        writeln!(
            w,
            "# predecode={}: {:.1}% of {rounds} rounds resolved at L1 before any solver",
            cfg.predecode.label(),
            100.0 * l1 / rounds.max(1) as f64,
        )?;
    }
    Ok((points, summary, telemetry_summary, trace_summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioRegistry;

    #[test]
    fn overrides_parse_and_reject_zeros() {
        let mut cfg = ServeConfig::default();
        cfg.apply_overrides(&[
            "qubits=8".into(),
            "shards=4".into(),
            "rate=1e6".into(),
            "shots=64".into(),
            "seed=9".into(),
            "decoder=astrea-g".into(),
            "window=3".into(),
            "commit=1".into(),
            "deadline=5000".into(),
            "predecode=batch".into(),
            "datapath=byte".into(),
            "queue=6".into(),
            "inflight=3".into(),
            "transport=tcp".into(),
            "metrics-addr=127.0.0.1:0".into(),
            "metrics-sample=4".into(),
            "trace=256".into(),
            "trace-out=/tmp/run.trace".into(),
            "storm-threshold=0.75".into(),
            "ring-high-water=6".into(),
        ])
        .unwrap();
        assert_eq!(cfg.qubits, 8);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.rate, 1e6);
        assert_eq!(cfg.round_ns(), 1000.0);
        assert_eq!(cfg.shots, 64);
        assert_eq!(cfg.decoder, DecoderKind::AstreaG);
        assert_eq!(cfg.window, Some(3));
        assert_eq!(cfg.commit, Some(1));
        assert_eq!(cfg.deadline_ns, Some(5000.0));
        assert_eq!(cfg.predecode, PredecodeMode::Batch);
        assert_eq!(cfg.datapath, Datapath::Byte);
        assert_eq!(cfg.queue, 6);
        assert_eq!(cfg.inflight, 3);
        assert_eq!(cfg.transport, ServeTransport::Tcp);
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.metrics_sample, 4);
        assert_eq!(cfg.trace, 256);
        assert_eq!(cfg.trace_out.as_deref(), Some("/tmp/run.trace"));
        assert_eq!(cfg.storm_threshold, 0.75);
        assert_eq!(cfg.ring_high_water, 6);
        // Zeros are rejected with a clear message, per flag.
        for bad in ["qubits=0", "shards=0", "shots=0", "queue=0", "inflight=0"] {
            let err = cfg.apply_overrides(&[bad.into()]).unwrap_err();
            assert!(err.contains("at least 1"), "{bad}: {err}");
        }
        assert!(cfg.apply_overrides(&["rate=0".into()]).is_err());
        assert!(cfg.apply_overrides(&["metrics-sample=x".into()]).is_err());
        assert!(cfg.apply_overrides(&["trace=x".into()]).is_err());
        assert!(cfg.apply_overrides(&["storm-threshold=x".into()]).is_err());
        assert!(cfg.apply_overrides(&["ring-high-water=x".into()]).is_err());
        assert!(cfg.apply_overrides(&["decoder=bogus".into()]).is_err());
        assert!(cfg.apply_overrides(&["transport=smoke".into()]).is_err());
        assert!(cfg.apply_overrides(&["predecode=pinball".into()]).is_err());
        assert!(cfg.apply_overrides(&["datapath=sparse".into()]).is_err());
        assert!(cfg.apply_overrides(&["nope=1".into()]).is_err());
        assert!(cfg.apply_overrides(&["out=x.json".into()]).is_err());
    }

    #[test]
    fn tiny_serve_study_runs_end_to_end() {
        let dir = std::env::temp_dir().join("promatch_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("cc-d3").unwrap();
        let trace_out = dir.join("run.trace");
        let mut cfg = ServeConfig {
            qubits: 4,
            shards: 2,
            shots: 20,
            seed: 5,
            decoder: DecoderKind::Mwpm,
            // The default µs-scale deadline trips the wall-clock
            // deadline-miss postmortem under parallel-test load; pin it
            // far out so `dump_triggers == 0` below is deterministic.
            deadline_ns: Some(1e12),
            metrics_addr: Some("127.0.0.1:0".into()),
            metrics_sample: 1,
            trace: 512,
            trace_out: Some(trace_out.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let mut sink = Vec::new();
        let (points, summary, tel, trace) = run_serve(sc, &cfg, &mut sink).unwrap();
        // One service point per tenant, in tenant order.
        assert_eq!(points.len(), 4);
        for (q, p) in points.iter().enumerate() {
            assert_eq!(p.scenario, "cc-d3");
            assert_eq!(p.decoder, DecoderKind::Mwpm.label());
            assert_eq!((p.qubits, p.shards, p.qubit), (4, 2, q as u32));
            assert_eq!(p.predecode, "off");
            assert_eq!(p.datapath, "packed");
            assert_eq!(p.l1_rounds_fraction, 0.0);
            assert!(p.rounds_per_s > 0.0);
            // The closed loop within its admission budget never sheds.
            assert_eq!(p.shed, 0);
        }
        assert!(summary.rounds_per_s > 0.0);
        assert_eq!(summary.max_ring_depth, tel.max_ring_depth);
        // The per-stage breakdown rides along (sample 1 records spans
        // for every submission and window step).
        assert_eq!(tel.sample_every, 1);
        assert_eq!(tel.stages.len(), telemetry::Stage::ALL.len());
        assert!(tel
            .stages
            .iter()
            .any(|s| s.stage == "window_total" && s.count > 0));
        let log = String::from_utf8(sink).unwrap();
        assert!(log.contains("rounds/s decoded"), "{log}");
        assert!(log.contains("cached lookup"), "{log}");
        assert!(log.contains("# metrics: http://"), "{log}");
        assert!(log.contains("max ring depth"), "{log}");
        assert!(log.contains("# total: 0 shed,"), "{log}");
        // The flight recorder was armed: the run returns the trace
        // rollup, the end-of-run dump parses, and a clean run fires no
        // postmortem triggers.
        let trace = trace.expect("trace-armed run returns a rollup");
        assert!(trace.events > 0);
        assert_eq!(trace.dump_triggers, 0);
        assert!(log.contains("0 dump triggers"), "{log}");
        let dump_text = std::fs::read_to_string(&trace_out).unwrap();
        let dump = telemetry::parse_dump(&dump_text).unwrap();
        assert_eq!(dump.reason, "end-of-run");
        assert!(!dump.is_empty(), "armed run recorded no events");
        std::fs::remove_file(&trace_out).unwrap();
        // The TCP transport produces the same commit streams (spot-check
        // via identical failure counts and shot totals).
        cfg.transport = ServeTransport::Tcp;
        cfg.metrics_addr = None;
        cfg.trace = 0;
        cfg.trace_out = None;
        let mut sink_tcp = Vec::new();
        let (tcp_points, tcp_summary, tcp_tel, tcp_trace) =
            run_serve(sc, &cfg, &mut sink_tcp).unwrap();
        // Tracing off: no rollup.
        assert!(tcp_trace.is_none());
        // Sampled spans landed in the telemetry summary and the deepest
        // observed ring occupancy is surfaced in the service summary.
        assert!(tcp_tel
            .stages
            .iter()
            .any(|s| s.stage == "window_total" && s.count > 0));
        assert!(tcp_summary.max_ring_depth > 0);
        assert_eq!(tcp_points.len(), 4);
        for p in &tcp_points {
            assert_eq!(p.shots, 20);
            // Each row's rate divides this tenant's rounds by its *own*
            // first-submit→last-commit span. That span is at most the
            // whole run's, so every equal-shots tenant clears its
            // aggregate share (aggregate / qubits), with slack for the
            // ramp-up before the tenant's first submission.
            assert!(p.rounds_per_s > 0.0);
            assert!(
                p.rounds_per_s * (1.0 + 1e-9) >= tcp_summary.rounds_per_s / 4.0,
                "tenant {} rate {} below aggregate share {}",
                p.qubit,
                p.rounds_per_s,
                tcp_summary.rounds_per_s / 4.0
            );
        }
        // Per-tenant wall clocks differ, so the rows are no longer four
        // copies of one number.
        let min = tcp_points
            .iter()
            .map(|p| p.rounds_per_s)
            .fold(f64::MAX, f64::min);
        let max = tcp_points
            .iter()
            .map(|p| p.rounds_per_s)
            .fold(0.0, f64::max);
        assert!(max > min, "all tenant rows carry one identical rate {min}");
        // With batch predecoding the same tiny run sheds most rounds at
        // L1 (cc-d3 at its default p is sparse) and tags the points.
        cfg.transport = ServeTransport::Channel;
        cfg.predecode = PredecodeMode::Batch;
        let mut sink_l1 = Vec::new();
        let (l1_points, _, _, _) = run_serve(sc, &cfg, &mut sink_l1).unwrap();
        assert_eq!(l1_points.len(), 4);
        for p in &l1_points {
            assert_eq!(p.predecode, "batch");
            assert!(p.l1_rounds_fraction > 0.5, "{}", p.l1_rounds_fraction);
            assert!(p.escalation_fraction < 0.5, "{}", p.escalation_fraction);
        }
        let log_l1 = String::from_utf8(sink_l1).unwrap();
        assert!(log_l1.contains("resolved at L1"), "{log_l1}");
        // The byte reference datapath tags its points and produces the
        // same per-tenant failures as the packed runs above.
        cfg.predecode = PredecodeMode::Off;
        cfg.datapath = Datapath::Byte;
        let mut sink_byte = Vec::new();
        let (byte_points, _, _, _) = run_serve(sc, &cfg, &mut sink_byte).unwrap();
        for (b, p) in byte_points.iter().zip(&tcp_points) {
            assert_eq!(b.datapath, "byte");
            assert_eq!(b.failures, p.failures, "qubit {}", b.qubit);
            assert_eq!(b.windows, p.windows);
        }
    }

    #[test]
    fn oversized_window_is_reported_as_invalid_input() {
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("cc-d3").unwrap(); // 2 layers
        let cfg = ServeConfig {
            window: Some(5),
            commit: Some(2),
            shots: 2,
            qubits: 1,
            ..ServeConfig::default()
        };
        let mut sink = Vec::new();
        let err = run_serve(sc, &cfg, &mut sink).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Other);
        assert!(err.to_string().contains("exceeds"), "{err}");
    }
}
