//! `repro realtime` — streaming reaction-time snapshots per scenario.
//!
//! Runs the realtime runtime (`crates/realtime`) over a named scenario:
//! every decoder in the scenario's set streams the same seeded shots
//! round-by-round, decodes them through sliding windows, and feeds the
//! modeled per-window latencies into the backlog simulator. The output
//! is the tail-latency view of a scenario: per decoder, one row of
//! modeled p50/p99/max reaction times, deadline-miss fraction and
//! deepest backlog, then its backlog-depth trace and the measured
//! (wall-clock) window-step times of the same run.

use crate::scale::{for_each_override, parse, parse_positive, parse_threads};
use crate::scenario::Scenario;
use decoding_graph::{SeamPolicy, WindowCache};
use ler::effective_threads;
use realtime::{
    run_stream, BacklogConfig, Instruments, PredecodeMode, StreamRunConfig, StreamRunResult,
    WindowConfig,
};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
            shots: 200,
            seed: 2024,
            threads: 0,
        }
    }
}

impl RealtimeRunConfig {
    /// Parses `key=value` overrides (`shots=`, `seed=`, `round=`,
    /// `deadline=`, `window=`, `commit=`, `predecode=`, `threads=`).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown keys, unparsable values, and a zero
    /// `shots`.
    pub fn apply_overrides(&mut self, args: &[String]) -> Result<(), String> {
        for_each_override(args, |key, value| {
            match key {
                "shots" => self.shots = parse_positive(key, value)? as usize,
                "seed" => self.seed = parse(key, value)?,
                "round" => self.round_ns = parse(key, value)?,
                "deadline" => self.deadline_ns = Some(parse(key, value)?),
                "window" => self.window = Some(parse(key, value)?),
                "commit" => self.commit = Some(parse(key, value)?),
                "predecode" => {
                    self.predecode =
                        PredecodeMode::parse(value).map_err(|e| format!("predecode: {e}"))?;
                }
                "threads" => self.threads = parse_threads(value)?,
                _ => return Ok(false),
            }
            Ok(true)
        })
    }

    /// Resolves the `(window, commit, deadline)` triple against a
    /// scenario's defaults.
    ///
    /// # Errors
    ///
    /// Returns a message for an invalid `(window, commit)` split, and for
    /// a round period or deadline that is not a positive number (the
    /// values the decode service refuses too).
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
        for (name, ns) in [
            ("round", backlog.round_ns),
            ("deadline", backlog.deadline_ns),
        ] {
            if !ns.is_finite() || ns <= 0.0 {
                return Err(format!("{name} must be positive, got {ns}"));
            }
        }
        Ok((wc, backlog))
    }
}

/// Runs the streaming study of one scenario, printing the table to `w`:
/// a modeled row, its backlog trace and its measured window-step times
/// per decoder.
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
) -> std::io::Result<()> {
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
        "# window={} commit={} predecode={} round={}ns deadline={}ns shots={} seed={}",
        wc.window,
        wc.commit,
        cfg.predecode.label(),
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
    };
    let threads = effective_threads(cfg.threads)
        .min(scenario.decoders.len())
        .max(1);
    // Every decoder walks the same window positions over the same graph,
    // so the whole fan-out shares one window cache: each subgraph + path
    // table is built once, not once per decoder.
    let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
    // Every run also records wall-clock stage spans (sample 1-in-1) so
    // the study can print measured window-step times under each modeled
    // row; spans are a pure side channel, so determinism is unaffected.
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
        // The same run's wall-clock window-step times, from the stage
        // spans.
        let steps = sp.stage(telemetry::Stage::WindowTotal).snapshot();
        writeln!(
            w,
            "  measured window step: p50 {} p99 {} max {} ns over {} steps",
            steps.quantile(0.5),
            steps.quantile(0.99),
            steps.max,
            steps.count,
        )?;
    }
    Ok(())
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
        assert_eq!(cfg.threads, 2);
        assert!(cfg.apply_overrides(&["nope=1".into()]).is_err());
        assert!(cfg.apply_overrides(&["out=x.json".into()]).is_err());
        assert!(cfg.apply_overrides(&["shots".into()]).is_err());
        assert!(cfg.apply_overrides(&["predecode=pinball".into()]).is_err());
        let err = cfg.apply_overrides(&["shots=0".into()]).unwrap_err();
        assert_eq!(err, "shots must be at least 1");
        // Packed is the only datapath: the option is gone.
        for dp in ["datapath=byte", "datapath=packed"] {
            let err = cfg.apply_overrides(&[dp.into()]).unwrap_err();
            assert!(err.contains("unknown option 'datapath'"), "{err}");
        }
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
        // A round period or deadline the decode service would refuse is
        // refused here too, whether set directly or derived.
        for args in [
            ["round=0", "seed=1"],
            ["round=-5", "seed=1"],
            ["round=inf", "seed=1"],
            ["deadline=nan", "seed=1"],
            ["deadline=0", "seed=1"],
            ["deadline=-1", "seed=1"],
        ] {
            let mut bad = RealtimeRunConfig::default();
            bad.apply_overrides(&args.map(String::from)).unwrap();
            let err = bad.resolve(sc).unwrap_err();
            assert!(err.contains("must be positive"), "{args:?}: {err}");
        }
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

    /// The thread-count-independent part of a printed study: each
    /// decoder row without its wall-clock `rounds/s/core` column, and
    /// each backlog trace.
    fn modeled_lines(log: &str) -> Vec<&str> {
        log.lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("  measured"))
            .map(|l| {
                if l.starts_with("  backlog") {
                    l
                } else {
                    l.rsplit_once(' ').map_or(l, |(head, _)| head.trim_end())
                }
            })
            .collect()
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
        run_scenario_realtime(sc, &cfg, &mut sink).unwrap();
        let log = String::from_utf8(sink).unwrap();
        assert!(
            log.contains("# realtime cc-d3: code-capacity noise"),
            "{log}"
        );
        assert!(
            log.contains(&format!(
                "# window={} commit={} predecode=off round=",
                sc.rt_window, sc.rt_commit
            )),
            "{log}"
        );
        // Per decoder: a modeled row, its backlog trace and the measured
        // window steps of the same run, in decoder order.
        let body: Vec<&str> = log
            .lines()
            .skip_while(|l| !l.starts_with("decoder "))
            .skip(1)
            .filter(|l| !l.is_empty())
            .collect();
        assert_eq!(body.len(), 3 * sc.decoders.len(), "{log}");
        for (kind, lines) in sc.decoders.iter().zip(body.chunks(3)) {
            let cols: Vec<&str> = lines[0][24..].split_whitespace().collect();
            assert!(lines[0].starts_with(kind.label()), "{log}");
            let miss: f64 = cols[3].trim_end_matches('%').parse().unwrap();
            assert!((0.0..=100.0).contains(&miss), "{log}");
            assert!(cols[5].ends_with("/24"), "{log}");
            assert!(cols[6].parse::<f64>().unwrap() > 0.0, "{log}");
            assert!(lines[1].starts_with("  backlog depth over stream: ["));
            // The measured p50 comes from real time.
            let p50 = lines[2]
                .strip_prefix("  measured window step: p50 ")
                .and_then(|rest| rest.split(' ').next())
                .unwrap_or_else(|| panic!("{log}"));
            assert!(p50.parse::<u64>().unwrap() > 0, "{log}");
        }
        // Same seed, different thread count: identical modeled columns
        // (wall-clock throughput and the measured window steps are the
        // legitimate exceptions — they time real execution).
        let modeled = modeled_lines(&log);
        assert_eq!(modeled.len(), 1 + 2 * sc.decoders.len());
        for threads in [1, 3] {
            cfg.threads = threads;
            let mut other = Vec::new();
            run_scenario_realtime(sc, &cfg, &mut other).unwrap();
            let other = String::from_utf8(other).unwrap();
            assert_eq!(modeled_lines(&other), modeled, "threads={threads}");
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
