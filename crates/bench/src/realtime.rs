//! `repro realtime` — streaming reaction-time snapshots per scenario.
//!
//! Runs the realtime runtime (`crates/realtime`) over a named scenario:
//! every decoder in the scenario's set streams the same seeded shots
//! round-by-round, decodes them through sliding windows, and feeds the
//! modeled per-window latencies into the backlog simulator. The output
//! is the tail-latency view of a scenario: p50/p99/max reaction times,
//! backlog-depth traces, and deadline-miss fractions, one modeled and
//! one measured [`LatencyPoint`] per decoder.

use crate::scenario::Scenario;
use decoding_graph::{SeamPolicy, WindowCache};
use ler::effective_threads;
use realtime::{
    run_stream, BacklogConfig, Datapath, Instruments, PredecodeMode, StreamRunConfig,
    StreamRunResult, WindowConfig,
};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `(scenario, decoder)` streaming reaction-time point from the
/// realtime backlog simulation (`repro realtime`).
#[derive(Clone, Debug)]
pub struct LatencyPoint {
    /// Scenario name the point was measured under.
    pub scenario: String,
    /// Paper-style decoder label.
    pub decoder: &'static str,
    /// Sliding-window size in round layers.
    pub window: u32,
    /// Committed layers per window step.
    pub commit: u32,
    /// Predecode mode label (`off` or `batch`).
    pub predecode: &'static str,
    /// Syndrome datapath label (`packed` or `byte`).
    pub datapath: &'static str,
    /// Where this row's percentiles come from: `modeled` rows carry the
    /// backlog simulation's reaction times (deterministic, seeded);
    /// `measured` rows restate the same run with wall-clock window-step
    /// decode times from the stage spans (machine-dependent).
    pub timing: &'static str,
    /// Syndrome round period, ns.
    pub round_ns: f64,
    /// Shots streamed.
    pub shots: usize,
    /// Round layers per shot.
    pub layers_per_shot: u32,
    /// Median reaction time, ns.
    pub p50_ns: f64,
    /// 99th-percentile reaction time, ns.
    pub p99_ns: f64,
    /// Worst reaction time, ns.
    pub max_ns: f64,
    /// Mean reaction time, ns.
    pub mean_ns: f64,
    /// Fraction of windows missing the reaction deadline.
    pub miss_fraction: f64,
    /// Deepest decode backlog observed.
    pub max_backlog: usize,
    /// Mean decode backlog.
    pub mean_backlog: f64,
    /// Fraction of streamed rounds the L1 tier resolved before any
    /// matching solver ran (0 with predecoding off).
    pub l1_rounds_fraction: f64,
    /// Fraction of windows escalated past the L1 tier to the solver.
    pub escalation_fraction: f64,
    /// Streaming logical failures over the run.
    pub failures: u64,
    /// Measured streaming decode throughput of this run's single worker
    /// thread: syndrome rounds decoded per wall-clock second (stream
    /// sampling included, backlog modeling excluded).
    pub rounds_per_s_per_core: f64,
}

/// Configuration of a `repro realtime` run. `None` fields fall back to
/// the scenario's own defaults.
#[derive(Clone, Debug)]
pub struct RealtimeRunConfig {
    /// Sliding-window size in round layers (default: scenario's).
    pub window: Option<u32>,
    /// Committed layers per window step (default: scenario's).
    pub commit: Option<u32>,
    /// Syndrome round period in nanoseconds.
    pub round_ns: f64,
    /// Reaction deadline in nanoseconds (default: `commit × round_ns`,
    /// the steady-state throughput condition).
    pub deadline_ns: Option<f64>,
    /// Batch-predecoder (L1) mode applied ahead of every decoder.
    pub predecode: PredecodeMode,
    /// Syndrome datapath of the sliding-window hot loop (packed is the
    /// fast default; byte is the bit-identical reference path).
    pub datapath: Datapath,
    /// Shots to stream per decoder.
    pub shots: usize,
    /// Stream RNG seed (every decoder sees identical shots).
    pub seed: u64,
    /// Worker threads for the per-decoder fan-out (0 =
    /// `PROMATCH_THREADS` / available parallelism). Results are
    /// thread-count independent.
    pub threads: usize,
}

impl Default for RealtimeRunConfig {
    fn default() -> Self {
        RealtimeRunConfig {
            window: None,
            commit: None,
            round_ns: 1000.0,
            deadline_ns: None,
            predecode: PredecodeMode::Off,
            datapath: Datapath::Packed,
            shots: 200,
            seed: 2024,
            threads: 0,
        }
    }
}

impl RealtimeRunConfig {
    /// Parses `key=value` overrides (`shots=`, `seed=`, `round=`,
    /// `deadline=`, `window=`, `commit=`, `predecode=`, `datapath=`,
    /// `threads=`).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown keys or unparsable values.
    pub fn apply_overrides(&mut self, args: &[String]) -> Result<(), String> {
        for arg in args {
            let Some((key, value)) = arg.split_once('=') else {
                return Err(format!("expected key=value, got '{arg}'"));
            };
            match key {
                "shots" => self.shots = value.parse().map_err(|e| format!("shots: {e}"))?,
                "seed" => self.seed = value.parse().map_err(|e| format!("seed: {e}"))?,
                "round" => self.round_ns = value.parse().map_err(|e| format!("round: {e}"))?,
                "deadline" => {
                    self.deadline_ns = Some(value.parse().map_err(|e| format!("deadline: {e}"))?);
                }
                "window" => self.window = Some(value.parse().map_err(|e| format!("window: {e}"))?),
                "commit" => self.commit = Some(value.parse().map_err(|e| format!("commit: {e}"))?),
                "predecode" => {
                    self.predecode =
                        PredecodeMode::parse(value).map_err(|e| format!("predecode: {e}"))?;
                }
                "datapath" => {
                    self.datapath = Datapath::parse(value).map_err(|e| format!("datapath: {e}"))?;
                }
                "threads" => self.threads = crate::scale::parse_threads(value)?,
                other => return Err(format!("unknown option '{other}'")),
            }
        }
        Ok(())
    }

    /// Resolves the `(window, commit, deadline)` triple against a
    /// scenario's defaults.
    ///
    /// # Errors
    ///
    /// Returns a message for an invalid `(window, commit)` split.
    pub fn resolve(&self, scenario: &Scenario) -> Result<(WindowConfig, BacklogConfig), String> {
        let window = self.window.unwrap_or(scenario.rt_window);
        let commit = self.commit.unwrap_or(scenario.rt_commit);
        let wc = WindowConfig::new(window, commit)?;
        let backlog = match self.deadline_ns {
            Some(deadline_ns) => BacklogConfig {
                round_ns: self.round_ns,
                deadline_ns,
            },
            None => BacklogConfig::with_commit_deadline(self.round_ns, commit),
        };
        Ok((wc, backlog))
    }
}

/// Runs the streaming study of one scenario, printing the table to `w`
/// and returning a modeled and a measured point per decoder.
///
/// Every decoder streams identical shots (same seed); the per-decoder
/// runs are independent, so they are fanned out over worker threads
/// round-robin without affecting the results.
///
/// # Errors
///
/// Propagates I/O errors from the progress writer, and reports an
/// invalid window configuration as [`std::io::ErrorKind::InvalidInput`].
pub fn run_scenario_realtime(
    scenario: &Scenario,
    cfg: &RealtimeRunConfig,
    w: &mut dyn Write,
) -> std::io::Result<Vec<LatencyPoint>> {
    let (wc, backlog) = cfg
        .resolve(scenario)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let layers = scenario.rounds + 1;
    if wc.window > layers {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "window {} exceeds the {} round layers of scenario {}",
                wc.window, layers, scenario.name
            ),
        ));
    }
    writeln!(
        w,
        "# realtime {}: {} noise, d={}, rounds={}, p={:.0e}",
        scenario.name,
        scenario.noise.label(),
        scenario.distance,
        scenario.rounds,
        scenario.p
    )?;
    writeln!(
        w,
        "# window={} commit={} predecode={} datapath={} round={}ns deadline={}ns \
         shots={} seed={}",
        wc.window,
        wc.commit,
        cfg.predecode.label(),
        cfg.datapath.label(),
        backlog.round_ns,
        backlog.deadline_ns,
        cfg.shots,
        cfg.seed
    )?;
    writeln!(w, "# building context...")?;
    let ctx = scenario.shared_context();
    let run_cfg = StreamRunConfig {
        shots: cfg.shots,
        seed: cfg.seed,
        window: wc,
        backlog,
        predecode: cfg.predecode,
        datapath: cfg.datapath,
    };
    let threads = effective_threads(cfg.threads)
        .min(scenario.decoders.len())
        .max(1);
    // Every decoder walks the same window positions over the same graph,
    // so the whole fan-out shares one window cache: each subgraph + path
    // table is built once, not once per decoder.
    let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
    // Every run also records wall-clock stage spans (sample 1-in-1) so
    // the study can emit a `measured` latency row next to each modeled
    // one; spans are a pure side channel, so determinism is unaffected.
    let spans: Vec<Arc<telemetry::StageSpans>> = (0..scenario.decoders.len())
        .map(|_| Arc::new(telemetry::StageSpans::new()))
        .collect();
    // Independent per-decoder runs, fanned out round-robin: results land
    // in input order regardless of the thread count.
    let results: Vec<(StreamRunResult, Duration)> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let ctx = &ctx;
            let cache = &cache;
            let kinds = &scenario.decoders;
            let spans = &spans;
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                for i in (t..kinds.len()).step_by(threads) {
                    // Per-run wall time on this worker thread: each run
                    // is single-threaded, so the elapsed time is a
                    // one-core throughput measurement.
                    let started = Instant::now();
                    let instruments = Instruments {
                        spans: Some((Arc::clone(&spans[i]), 1)),
                        ..Instruments::default()
                    };
                    let run = run_stream(
                        &ctx.graph,
                        &ctx.circuit,
                        kinds[i],
                        &run_cfg,
                        cache,
                        instruments,
                    );
                    local.push((i, run, started.elapsed()));
                }
                local
            }));
        }
        let mut slots: Vec<Option<(StreamRunResult, Duration)>> =
            vec![None; scenario.decoders.len()];
        for h in handles {
            for (i, r, elapsed) in h.join().expect("realtime worker panicked") {
                slots[i] = Some((r, elapsed));
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every decoder ran"))
            .collect()
    });
    writeln!(
        w,
        "{:<24} {:>9} {:>9} {:>9} {:>7} {:>6} {:>9} {:>12}",
        "decoder", "p50 ns", "p99 ns", "max ns", "miss%", "maxQ", "fail/shot", "rounds/s/core"
    )?;
    let mut points = Vec::new();
    for ((kind, (run, elapsed)), sp) in scenario.decoders.iter().zip(&results).zip(&spans) {
        let streamed_rounds = run.shots as f64 * run.layers_per_shot as f64;
        let rounds_per_s_per_core = if elapsed.as_secs_f64() > 0.0 {
            streamed_rounds / elapsed.as_secs_f64()
        } else {
            0.0
        };
        writeln!(
            w,
            "{:<24} {:>9.0} {:>9.0} {:>9.0} {:>6.1}% {:>6} {:>9} {:>12.0}",
            kind.label(),
            run.backlog.reaction.p50_ns,
            run.backlog.reaction.p99_ns,
            run.backlog.reaction.max_ns,
            100.0 * run.backlog.miss_fraction,
            run.backlog.max_backlog,
            format!("{}/{}", run.failures, run.shots),
            rounds_per_s_per_core,
        )?;
        let buckets = run.backlog.trace_buckets(24);
        let depths: Vec<String> = buckets.iter().map(|d| d.to_string()).collect();
        writeln!(w, "  backlog depth over stream: [{}]", depths.join(" "))?;
        let modeled = LatencyPoint {
            scenario: scenario.name.to_string(),
            decoder: kind.label(),
            window: wc.window,
            commit: wc.commit,
            predecode: cfg.predecode.label(),
            datapath: cfg.datapath.label(),
            timing: "modeled",
            round_ns: backlog.round_ns,
            shots: run.shots,
            layers_per_shot: run.layers_per_shot,
            p50_ns: run.backlog.reaction.p50_ns,
            p99_ns: run.backlog.reaction.p99_ns,
            max_ns: run.backlog.reaction.max_ns,
            mean_ns: run.backlog.reaction.mean_ns,
            miss_fraction: run.backlog.miss_fraction,
            max_backlog: run.backlog.max_backlog,
            mean_backlog: run.backlog.mean_backlog,
            l1_rounds_fraction: run.l1_rounds_fraction(),
            escalation_fraction: run.escalation_fraction(),
            failures: run.failures,
            rounds_per_s_per_core,
        };
        // The measured companion restates the same run with wall-clock
        // window-step times from the stage spans in place of the modeled
        // reaction percentiles. Everything else is shared with the
        // modeled row (it *is* the same run).
        let steps = sp.stage(telemetry::Stage::WindowTotal).snapshot();
        writeln!(
            w,
            "  measured window step: p50 {} p99 {} max {} ns over {} steps",
            steps.quantile(0.5),
            steps.quantile(0.99),
            steps.max,
            steps.count,
        )?;
        let measured = LatencyPoint {
            timing: "measured",
            p50_ns: steps.quantile(0.5) as f64,
            p99_ns: steps.quantile(0.99) as f64,
            max_ns: steps.max as f64,
            mean_ns: steps.mean(),
            ..modeled.clone()
        };
        points.push(modeled);
        points.push(measured);
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioRegistry;

    #[test]
    fn overrides_parse_and_reject() {
        let mut cfg = RealtimeRunConfig::default();
        cfg.apply_overrides(&[
            "shots=16".into(),
            "seed=5".into(),
            "round=500".into(),
            "deadline=2500".into(),
            "window=3".into(),
            "commit=2".into(),
            "predecode=batch".into(),
            "datapath=byte".into(),
            "threads=2".into(),
        ])
        .unwrap();
        assert_eq!(cfg.shots, 16);
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.round_ns, 500.0);
        assert_eq!(cfg.deadline_ns, Some(2500.0));
        assert_eq!(cfg.window, Some(3));
        assert_eq!(cfg.commit, Some(2));
        assert_eq!(cfg.predecode, PredecodeMode::Batch);
        assert_eq!(cfg.datapath, Datapath::Byte);
        assert_eq!(cfg.threads, 2);
        assert!(cfg.apply_overrides(&["nope=1".into()]).is_err());
        assert!(cfg.apply_overrides(&["out=x.json".into()]).is_err());
        assert!(cfg.apply_overrides(&["shots".into()]).is_err());
        assert!(cfg.apply_overrides(&["predecode=pinball".into()]).is_err());
        assert!(cfg.apply_overrides(&["datapath=nibble".into()]).is_err());
    }

    #[test]
    fn resolve_uses_scenario_defaults_and_commit_deadline() {
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("sd6-d5").unwrap();
        let cfg = RealtimeRunConfig::default();
        let (wc, backlog) = cfg.resolve(sc).unwrap();
        assert_eq!(wc.window, sc.rt_window);
        assert_eq!(wc.commit, sc.rt_commit);
        assert_eq!(backlog.deadline_ns, backlog.round_ns * sc.rt_commit as f64);
        // Invalid override split is rejected.
        let mut bad = RealtimeRunConfig::default();
        bad.apply_overrides(&["window=2".into(), "commit=3".into()])
            .unwrap();
        assert!(bad.resolve(sc).is_err());
    }

    #[test]
    fn every_scenario_has_a_valid_realtime_default() {
        for sc in ScenarioRegistry::builtin().iter() {
            let wc = WindowConfig::new(sc.rt_window, sc.rt_commit)
                .unwrap_or_else(|e| panic!("{}: {e}", sc.name));
            assert!(
                wc.window <= sc.rounds + 1,
                "{}: window exceeds layers",
                sc.name
            );
        }
    }

    #[test]
    fn tiny_realtime_study_runs_end_to_end() {
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("cc-d3").unwrap();
        let mut cfg = RealtimeRunConfig {
            shots: 24,
            seed: 3,
            threads: 2,
            ..RealtimeRunConfig::default()
        };
        let mut sink = Vec::new();
        let all2 = run_scenario_realtime(sc, &cfg, &mut sink).unwrap();
        for p in &all2 {
            assert_eq!(p.scenario, "cc-d3");
            assert_eq!((p.window, p.commit), (sc.rt_window, sc.rt_commit));
            assert_eq!(p.predecode, "off");
            assert_eq!(p.datapath, "packed");
            assert_eq!((p.shots, p.layers_per_shot), (24, sc.rounds + 1));
            assert_eq!(p.l1_rounds_fraction, 0.0);
            assert!((0.0..=1.0).contains(&p.miss_fraction));
        }
        let log = String::from_utf8(sink).unwrap();
        assert!(
            log.contains("# realtime cc-d3: code-capacity noise"),
            "{log}"
        );
        assert!(log.contains("predecode=off datapath=packed"), "{log}");
        assert!(log.contains("backlog depth over stream"));
        assert!(log.contains("measured window step"), "{log}");
        // Same seed, different thread count: identical modeled points
        // (wall-clock throughput and the measured rows are the
        // legitimate exceptions — they time real execution).
        let modeled = |pts: &[LatencyPoint]| -> Vec<LatencyPoint> {
            pts.iter()
                .filter(|p| p.timing == "modeled")
                .cloned()
                .collect()
        };
        cfg.threads = 1;
        let mut sink1 = Vec::new();
        let all1 = run_scenario_realtime(sc, &cfg, &mut sink1).unwrap();
        // One modeled + one measured row per decoder.
        assert_eq!(all1.len(), 2 * sc.decoders.len());
        for pair in all1.chunks(2) {
            assert_eq!(pair[0].timing, "modeled");
            assert_eq!(pair[1].timing, "measured");
            assert_eq!(pair[0].decoder, pair[1].decoder);
            assert!(pair[1].p50_ns > 0.0, "measured p50 comes from real time");
        }
        let p1 = modeled(&all1);
        cfg.threads = 3;
        let mut sink3 = Vec::new();
        let p3 = modeled(&run_scenario_realtime(sc, &cfg, &mut sink3).unwrap());
        assert_eq!(p1.len(), p3.len());
        for (a, b) in p1.iter().zip(&p3) {
            assert_eq!(a.p50_ns, b.p50_ns);
            assert_eq!(a.max_ns, b.max_ns);
            assert_eq!(a.failures, b.failures);
            assert!(a.rounds_per_s_per_core > 0.0);
        }
        // The byte reference path produces the same decode outcomes.
        cfg.datapath = Datapath::Byte;
        let mut sink_byte = Vec::new();
        let pb = modeled(&run_scenario_realtime(sc, &cfg, &mut sink_byte).unwrap());
        for (a, b) in p1.iter().zip(&pb) {
            assert_eq!(b.datapath, "byte");
            assert_eq!(a.p50_ns, b.p50_ns);
            assert_eq!(a.max_ns, b.max_ns);
            assert_eq!(a.failures, b.failures);
        }
    }

    #[test]
    fn oversized_window_is_reported() {
        let reg = ScenarioRegistry::builtin();
        let sc = reg.get("cc-d3").unwrap(); // 2 layers
        let mut cfg = RealtimeRunConfig::default();
        cfg.apply_overrides(&["window=5".into(), "commit=2".into()])
            .unwrap();
        let mut sink = Vec::new();
        let err = run_scenario_realtime(sc, &cfg, &mut sink).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }
}
