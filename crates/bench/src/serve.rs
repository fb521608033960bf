//! `repro serve` — the multi-tenant decode-service study.
//!
//! Boots a [`service::DecodeServer`] loaded with one named scenario
//! (its context pulled from the process-wide `Arc` cache, so Q tenants
//! and repeated invocations share one graph + path table), drives it
//! with the closed-loop load generator in process (a Unix socket pair,
//! the default) or over loopback TCP, and prints the whole-run
//! throughput (rounds/s), the per-stage telemetry breakdown, and one
//! row per tenant — shots, windows, shed and deadline-miss counters,
//! modeled reaction percentiles, L1-resolved rounds and client-side
//! logical failures.

use crate::scale::{for_each_override, parse, parse_positive, parse_threads};
use crate::scenario::Scenario;
use ler::DecoderKind;
use realtime::PredecodeMode;
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
    /// `predecode=`, `queue=`, `inflight=`, `transport=`,
    /// `metrics-addr=`, `metrics-sample=`, `trace=`,
    /// `trace-out=`, `storm-threshold=`, `ring-high-water=`), rejecting
    /// zero sizes with a clear error.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown keys or invalid values.
    pub fn apply_overrides(&mut self, args: &[String]) -> Result<(), String> {
        for_each_override(args, |key, value| {
            match key {
                "qubits" => self.qubits = parse_positive(key, value)? as u32,
                "shards" => self.shards = parse_positive(key, value)? as usize,
                "rate" => {
                    self.rate = parse(key, value)?;
                    if !self.rate.is_finite() || self.rate <= 0.0 {
                        return Err(format!("rate must be positive, got {value}"));
                    }
                }
                "shots" => self.shots = parse_positive(key, value)?,
                "seed" => self.seed = parse(key, value)?,
                "decoder" => {
                    self.decoder = DecoderKind::parse(value).ok_or_else(|| {
                        let known: Vec<&str> = DecoderKind::ALL.iter().map(|k| k.key()).collect();
                        format!("unknown decoder '{value}' (known: {})", known.join(", "))
                    })?;
                }
                "window" => self.window = Some(parse_positive(key, value)? as u32),
                "commit" => self.commit = Some(parse_positive(key, value)? as u32),
                "deadline" => self.deadline_ns = Some(parse(key, value)?),
                "predecode" => {
                    self.predecode =
                        PredecodeMode::parse(value).map_err(|e| format!("predecode: {e}"))?;
                }
                "queue" => self.queue = parse_positive(key, value)? as usize,
                "inflight" => self.inflight = parse_positive(key, value)? as usize,
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
                "metrics-sample" => self.metrics_sample = parse(key, value)?,
                "trace" => self.trace = parse(key, value)?,
                "trace-out" => self.trace_out = Some(value.to_string()),
                "storm-threshold" => self.storm_threshold = parse(key, value)?,
                "ring-high-water" => self.ring_high_water = parse(key, value)?,
                // `threads=` is accepted for CLI symmetry with the other
                // subcommands: the worker pool's parallelism is its shard
                // count.
                "threads" => self.shards = parse_threads(value)?,
                _ => return Ok(false),
            }
            Ok(true)
        })
    }

    /// The modeled round period, ns.
    pub fn round_ns(&self) -> f64 {
        1e9 / self.rate
    }
}

/// Runs the decode-service study of one scenario, printing to `w` the
/// flight-recorder rollup (trace-armed runs only), the whole-run
/// throughput, the per-stage telemetry breakdown and the per-tenant
/// table.
///
/// # Errors
///
/// Propagates I/O errors from the progress writer; service-level errors
/// (invalid window, transport failures) are reported as
/// [`std::io::ErrorKind::InvalidInput`] / [`std::io::ErrorKind::Other`].
pub fn run_serve(scenario: &Scenario, cfg: &ServeConfig, w: &mut dyn Write) -> std::io::Result<()> {
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
         predecode={} rate={:.0}/s (round={round_ns:.0}ns) \
         deadline={deadline_ns:.0}ns queue={} inflight={} shots/qubit={} \
         seed={} transport={:?}",
        cfg.qubits,
        cfg.shards,
        cfg.decoder.key(),
        cfg.predecode.label(),
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
    // Flight-recorder rollup and end-of-run dump. Triggered postmortems
    // (shed, deadline miss, storm, high-water) already froze their own
    // dump during the run; the end-of-run dump is the final ring state.
    if let Some(trace) = server.trace() {
        if let Some(path) = &cfg.trace_out {
            let dump = trace.collect("end-of-run");
            if let Err(e) = std::fs::write(path, telemetry::render_dump(&dump)) {
                writeln!(w, "# trace: failed to write {path}: {e}")?;
            } else {
                writeln!(w, "# trace: wrote {path} ({} events)", dump.len())?;
            }
        }
        if let Some(path) = trace.dump_path() {
            writeln!(w, "# trace: postmortem frozen at {path}")?;
        }
        writeln!(
            w,
            "# trace: {} events recorded ({} dropped), {} dump triggers",
            trace.events_recorded(),
            trace.events_dropped(),
            trace.triggers()
        )?;
    }
    let rounds_per_s = report.rounds_per_second();
    writeln!(
        w,
        "# {} shots ({} rounds) in {:.3}s -> {:.0} rounds/s decoded \
         ({:.0}/shard across {})",
        report.shots_submitted,
        report.rounds_submitted,
        report.wall_seconds,
        rounds_per_s,
        rounds_per_s / cfg.shards.max(1) as f64,
        cfg.shards,
    )?;
    // The run's final telemetry state: the ring-depth gauge and one
    // merged cross-shard histogram per stage.
    let snap = registry.snapshot();
    writeln!(
        w,
        "# telemetry: max ring depth {} across {} shards (sample 1-in-{})",
        snap.max_ring_depth(),
        cfg.shards,
        cfg.metrics_sample,
    )?;
    for stage in telemetry::Stage::ALL {
        let h = snap.merged_stage(stage);
        if h.count > 0 {
            writeln!(
                w,
                "#   stage {:<13} p50 {:>7} ns  p99 {:>7} ns  max {:>8} ns  ({} spans)",
                stage.label(),
                h.quantile(0.5),
                h.quantile(0.99),
                h.max,
                h.count,
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
    let layers_per_shot = u64::from(report.layers_per_shot);
    for (tenant, stats) in report.tenants.iter().zip(&report.stats) {
        // L1-resolved rounds over all streamed rounds (zero with
        // predecoding off).
        let l1_rounds_fraction = if stats.shots > 0 {
            stats.l1_rounds as f64 / (stats.shots * layers_per_shot) as f64
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
    }
    let total_misses: u64 = report.stats.iter().map(|s| s.deadline_misses).sum();
    let total_shed: u64 = report.stats.iter().map(|s| s.shed).sum();
    writeln!(
        w,
        "# total: {total_shed} shed, {total_misses} deadline misses across {} tenants",
        report.tenants.len()
    )?;
    if cfg.predecode != PredecodeMode::Off {
        let rounds: u64 = report.stats.iter().map(|s| s.shots * layers_per_shot).sum();
        let l1: u64 = report.stats.iter().map(|s| s.l1_rounds).sum();
        writeln!(
            w,
            "# predecode={}: {:.1}% of {rounds} rounds resolved at L1 before any solver",
            cfg.predecode.label(),
            100.0 * l1 as f64 / rounds.max(1) as f64,
        )?;
    }
    Ok(())
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
        // Packed is the only datapath: the option is gone.
        for dp in ["datapath=byte", "datapath=packed"] {
            let err = cfg.apply_overrides(&[dp.into()]).unwrap_err();
            assert!(err.contains("unknown option 'datapath'"), "{err}");
        }
        assert!(cfg.apply_overrides(&["nope=1".into()]).is_err());
        assert!(cfg.apply_overrides(&["out=x.json".into()]).is_err());
    }

    /// The per-tenant rows of a printed study, split into columns
    /// (`qubit shard shots windows shed misses p50 p99 max L1% fail/shot`).
    fn tenant_rows(log: &str) -> Vec<Vec<&str>> {
        log.lines()
            .skip_while(|l| !l.starts_with("qubit "))
            .skip(1)
            .take_while(|l| !l.starts_with('#'))
            .map(|l| l.split_whitespace().collect())
            .collect()
    }

    /// The number printed right after the first `prefix` in `log`.
    fn number_after(log: &str, prefix: &str) -> f64 {
        let (_, rest) = log
            .split_once(prefix)
            .unwrap_or_else(|| panic!("no '{prefix}' in:\n{log}"));
        let digits: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        digits.parse().unwrap_or_else(|e| panic!("{prefix}: {e}"))
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
            metrics_addr: Some("127.0.0.1:0".into()),
            metrics_sample: 1,
            trace: 512,
            trace_out: Some(trace_out.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let mut sink = Vec::new();
        run_serve(sc, &cfg, &mut sink).unwrap();
        let log = String::from_utf8(sink).unwrap();
        assert!(log.contains("decoder=mwpm"), "{log}");
        assert!(number_after(&log, "-> ") > 0.0, "{log}");
        assert!(log.contains("cached lookup"), "{log}");
        assert!(log.contains("# metrics: http://"), "{log}");
        assert!(log.contains("max ring depth"), "{log}");
        assert!(log.contains("(sample 1-in-1)"), "{log}");
        // One row per tenant, in tenant order; with predecoding off no
        // round resolves at L1, and the closed loop within its admission
        // budget never sheds.
        let rows = tenant_rows(&log);
        assert_eq!(rows.len(), 4, "{log}");
        for (q, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), 11, "{log}");
            assert_eq!(
                (row[0], row[2], row[4]),
                (q.to_string().as_str(), "20", "0")
            );
            assert_eq!(row[9], "0.0%", "{log}");
        }
        assert!(log.contains("# total: 0 shed,"), "{log}");
        // The per-stage breakdown rides along (sample 1 records spans for
        // every submission and window step).
        assert!(
            number_after(&log, "#   stage window_total  p50 ") > 0.0,
            "{log}"
        );
        // The flight recorder was armed: the run prints its rollup, the
        // end-of-run dump parses, and a clean run fires no postmortem
        // triggers.
        let rollup = log
            .lines()
            .find(|l| l.contains("events recorded"))
            .unwrap_or_else(|| panic!("{log}"));
        assert!(number_after(rollup, "# trace: ") > 0.0, "{rollup}");
        assert!(rollup.ends_with(", 0 dump triggers"), "{rollup}");
        let dump_text = std::fs::read_to_string(&trace_out).unwrap();
        let dump = telemetry::parse_dump(&dump_text).unwrap();
        assert_eq!(dump.reason, "end-of-run");
        assert!(!dump.is_empty(), "armed run recorded no events");
        std::fs::remove_file(&trace_out).unwrap();
        // The TCP transport produces the same commit streams (spot-check
        // via identical shot, window and failure counts per tenant).
        cfg.transport = ServeTransport::Tcp;
        cfg.metrics_addr = None;
        cfg.trace = 0;
        cfg.trace_out = None;
        let mut sink_tcp = Vec::new();
        run_serve(sc, &cfg, &mut sink_tcp).unwrap();
        let log_tcp = String::from_utf8(sink_tcp).unwrap();
        // Tracing off: no rollup.
        assert!(!log_tcp.contains("# trace:"), "{log_tcp}");
        // Sampled spans landed in the breakdown and the deepest observed
        // ring occupancy is printed.
        assert!(log_tcp.contains("#   stage window_total "), "{log_tcp}");
        assert!(number_after(&log_tcp, "max ring depth ") > 0.0, "{log_tcp}");
        let counts = |rows: &[Vec<&str>]| -> Vec<[String; 4]> {
            rows.iter()
                .map(|r| [r[0], r[2], r[3], r[10]].map(String::from))
                .collect()
        };
        assert_eq!(counts(&tenant_rows(&log_tcp)), counts(&rows), "{log_tcp}");
        // With batch predecoding the same tiny run resolves most rounds
        // at L1 (cc-d3 at its default p is sparse).
        cfg.transport = ServeTransport::Channel;
        cfg.predecode = PredecodeMode::Batch;
        let mut sink_l1 = Vec::new();
        run_serve(sc, &cfg, &mut sink_l1).unwrap();
        let log_l1 = String::from_utf8(sink_l1).unwrap();
        let rows_l1 = tenant_rows(&log_l1);
        assert_eq!(rows_l1.len(), 4, "{log_l1}");
        for row in &rows_l1 {
            let l1: f64 = row[9].trim_end_matches('%').parse().unwrap();
            assert!(l1 > 50.0, "{log_l1}");
        }
        assert!(log_l1.contains("predecode=batch"), "{log_l1}");
        assert!(log_l1.contains("resolved at L1"), "{log_l1}");
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
