//! `repro` — regenerate any table or figure of the Promatch paper.
//!
//! ```text
//! repro <experiment> [--paper|--quick] [key=value ...]
//!
//! experiments:
//!   table2 table3 table4 table5 table6 table7 table8
//!   fig1b fig4 fig5 fig14 fig15 fig16 fig17
//!   ablate-singleton ablate-pathq ablate-astrea-units ablate-adaptive
//!   ablate-pipelines all
//!
//! options (after the experiment name):
//!   --quick | --paper        scale preset (default: --quick)
//!   distances=11,13          code distances
//!   shots=2000               injection samples per k
//!   kmax=24                  maximum injected error count
//!   p=1e-4                   physical error rate
//!   seed=2024                RNG seed
//!
//! scenario subcommands (named noise × distance × decoder workloads):
//!   repro scenarios                            list the registry
//!   repro ler --scenario <name> [--predecode off|batch] [key=value]
//!                                              LER study
//!   repro realtime --scenario <name> [--window W] [--commit C]
//!                  [--predecode off|batch] [key=value ...]
//!                                              streaming reaction-time study
//!   repro serve --scenario <name> --qubits Q --shards S [--rate R]
//!               [--decoder K] [--window W] [--commit C]
//!               [--predecode off|batch] [--metrics-addr HOST:PORT]
//!               [--metrics-sample N] [--trace N] [--trace-out PATH]
//!               [key=value ...]
//!                                              multi-tenant decode service
//!                                              (--metrics-addr serves live
//!                                              Prometheus text at /metrics;
//!                                              --trace N arms the causal
//!                                              flight recorder, N events
//!                                              per shard)
//!   repro trace <dump.trace> [--out trace.json] [--tenant T] [--last N]
//!                                              convert a flight-recorder
//!                                              dump to Chrome trace-event
//!                                              JSON (Perfetto-loadable)
//!
//! The experiments and scenario studies print their tables to stdout and
//! write no file unless a flag names one (`--trace-out`; `repro trace`
//! writes its `--out`). Timing and perf gating live in `crates/benchmark`.
//!
//! `--threads N` is accepted by every subcommand (equivalent to the
//! `threads=N` override; omit it to defer to PROMATCH_THREADS, then to
//! the machine's parallelism — an explicit 0 is rejected).
//! ```

#![forbid(unsafe_code)]

use bench_suite::{
    experiments, LerRunConfig, RealtimeRunConfig, Scale, Scenario, ScenarioRegistry, ServeConfig,
};
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("usage: repro <experiment> [--paper|--quick] [key=value ...]");
        eprintln!("experiments: table2 table3 table4 table5 table6 table7 table8");
        eprintln!("             fig1b fig4 fig5 fig14 fig15 fig16 fig17");
        eprintln!("             ablate-singleton ablate-pathq ablate-astrea-units");
        eprintln!("             ablate-adaptive ablate-pipelines all");
        eprintln!("       repro scenarios");
        eprintln!("       repro ler --scenario <name> [key=value ...]");
        eprintln!(
            "       repro realtime --scenario <name> [--window W] [--commit C] [key=value ...]"
        );
        eprintln!(
            "       repro serve --scenario <name> --qubits Q --shards S [--rate R] [key=value ...]"
        );
        eprintln!("       repro trace <dump.trace> [--out trace.json] [--tenant T] [--last N]");
        eprintln!("       (--threads N works with every subcommand)");
        return ExitCode::FAILURE;
    };
    if name == "serve" {
        return run_scenario_serve(&args[1..]);
    }
    if name == "trace" {
        return run_trace_export(&args[1..]);
    }
    if name == "scenarios" {
        let registry = ScenarioRegistry::builtin();
        println!("{:<14} {:<10} description", "name", "d/rounds");
        for sc in registry.iter() {
            println!(
                "{:<14} {:<10} {}",
                sc.name,
                format!("{}/{}", sc.distance, sc.rounds),
                sc.description
            );
        }
        return ExitCode::SUCCESS;
    }
    if name == "ler" {
        return run_scenario_ler(&args[1..]);
    }
    if name == "realtime" {
        return run_scenario_realtime(&args[1..]);
    }

    let mut scale = Scale::quick();
    let mut overrides = Vec::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::paper(),
            "--quick" => scale = Scale::quick(),
            other => match flag_value(other, &mut it, "--threads") {
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                Ok(Some(n)) => overrides.push(format!("threads={n}")),
                Ok(None) => overrides.push(other.to_string()),
            },
        }
    }
    if let Err(e) = scale.apply_overrides(&overrides) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let started = std::time::Instant::now();
    let result = run(name, &scale, &mut out);
    match result {
        Ok(true) => {
            let _ = writeln!(out, "\n[done in {:.1?}]", started.elapsed());
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("unknown experiment '{name}'");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("io error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses one `--flag value` / `--flag=value` occurrence. `Ok(Some)`
/// carries the value, `Ok(None)` means `arg` is not this flag, `Err`
/// means the space-separated form was missing its value.
fn flag_value(
    arg: &str,
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<Option<String>, String> {
    if arg == flag {
        return match it.next() {
            Some(v) => Ok(Some(v.clone())),
            None => Err(format!("{flag} needs a value")),
        };
    }
    Ok(arg
        .strip_prefix(flag)
        .and_then(|rest| rest.strip_prefix('='))
        .map(str::to_string))
}

/// `repro trace`: convert a flight-recorder dump (an end-of-run or
/// postmortem `.trace` file) to Chrome trace-event JSON — loadable in
/// Perfetto or `chrome://tracing`, one process per shard, one track per
/// tenant.
fn run_trace_export(args: &[String]) -> ExitCode {
    let mut input: Option<String> = None;
    let mut out = "trace.json".to_string();
    let mut tenant: Option<u32> = None;
    let mut last: Option<usize> = None;
    let mut it = args.iter();
    let fail = |e: String| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    };
    while let Some(arg) = it.next() {
        match flag_value(arg, &mut it, "--out") {
            Err(e) => return fail(e),
            Ok(Some(v)) => {
                out = v;
                continue;
            }
            Ok(None) => {}
        }
        match flag_value(arg, &mut it, "--tenant") {
            Err(e) => return fail(e),
            Ok(Some(v)) => {
                match v.parse() {
                    Ok(t) => tenant = Some(t),
                    Err(e) => return fail(format!("--tenant: {e}")),
                }
                continue;
            }
            Ok(None) => {}
        }
        match flag_value(arg, &mut it, "--last") {
            Err(e) => return fail(e),
            Ok(Some(v)) => {
                match v.parse() {
                    Ok(n) => last = Some(n),
                    Err(e) => return fail(format!("--last: {e}")),
                }
                continue;
            }
            Ok(None) => {}
        }
        if arg.starts_with("--") {
            return fail(format!("unknown flag '{arg}'"));
        }
        if input.is_some() {
            return fail(format!("multiple input files ('{arg}')"));
        }
        input = Some(arg.clone());
    }
    let Some(input) = input else {
        eprintln!("usage: repro trace <dump.trace> [--out trace.json] [--tenant T] [--last N]");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&input) {
        Ok(text) => text,
        Err(e) => return fail(format!("{input}: {e}")),
    };
    let mut dump = match telemetry::parse_dump(&text) {
        Ok(dump) => dump,
        Err(e) => return fail(format!("{input}: {e}")),
    };
    if let Some(t) = tenant {
        dump.retain_tenant(t);
    }
    if let Some(n) = last {
        dump.retain_last(n);
    }
    let json = telemetry::render_chrome_trace(&dump);
    if let Err(e) = std::fs::write(&out, json) {
        return fail(format!("{out}: {e}"));
    }
    println!(
        "# wrote {out} ({} events across {} shards, reason '{}')",
        dump.len(),
        dump.shards.len(),
        dump.reason
    );
    ExitCode::SUCCESS
}

/// The shared body of the `ler`, `realtime` and `serve` subcommands:
/// `--scenario <name>` selects the scenario, every `--<key> value` with
/// `<key>` in `flags` becomes the `key=value` override it abbreviates,
/// any other `--flag` is an error, and `run` applies the collected
/// overrides to its config and prints its tables.
fn run_scenario_subcommand(
    args: &[String],
    flags: &[&str],
    usage: &str,
    run: impl FnOnce(&Scenario, &[String], &mut dyn Write) -> Result<(), String>,
) -> ExitCode {
    let fail = |e: String| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    };
    let mut scenario_name: Option<String> = None;
    let mut overrides = Vec::new();
    let mut it = args.iter();
    'args: while let Some(arg) = it.next() {
        match flag_value(arg, &mut it, "--scenario") {
            Err(e) => return fail(e),
            Ok(Some(value)) => {
                scenario_name = Some(value);
                continue;
            }
            Ok(None) => {}
        }
        for key in flags {
            match flag_value(arg, &mut it, &format!("--{key}")) {
                Err(e) => return fail(e),
                Ok(Some(value)) => {
                    overrides.push(format!("{key}={value}"));
                    continue 'args;
                }
                Ok(None) => {}
            }
        }
        if arg.starts_with("--") {
            eprintln!("error: unknown flag '{arg}'");
            eprintln!("usage: {usage}");
            return ExitCode::FAILURE;
        }
        overrides.push(arg.clone());
    }
    let Some(scenario_name) = scenario_name else {
        eprintln!("usage: {usage}");
        return ExitCode::FAILURE;
    };
    let registry = ScenarioRegistry::builtin();
    let Some(scenario) = registry.get(&scenario_name) else {
        return fail(format!(
            "unknown scenario '{scenario_name}' (known: {})",
            registry.names().join(", ")
        ));
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let started = std::time::Instant::now();
    match run(scenario, &overrides, &mut out) {
        Ok(()) => {
            let _ = writeln!(out, "\n[done in {:.1?}]", started.elapsed());
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// `repro ler --scenario <name>`: Equation-1 LER study of a named
/// scenario.
fn run_scenario_ler(args: &[String]) -> ExitCode {
    run_scenario_subcommand(
        args,
        &["predecode", "threads"],
        "repro ler --scenario <name> [--predecode off|batch] [shots=N] [kmax=N] \
         [seed=N] [threads=N]",
        |scenario, overrides, out| {
            let mut cfg = LerRunConfig::default();
            cfg.apply_overrides(overrides)?;
            bench_suite::run_scenario_ler(scenario, &cfg, out).map_err(|e| e.to_string())
        },
    )
}

/// `repro realtime`: streaming reaction-time study of a named scenario
/// (sliding-window decoding + backlog simulation).
fn run_scenario_realtime(args: &[String]) -> ExitCode {
    run_scenario_subcommand(
        args,
        &["window", "commit", "predecode", "threads"],
        "repro realtime --scenario <name> [--window W] [--commit C] \
         [--predecode off|batch] [--threads N] [shots=N] [seed=N] [round=NS] \
         [deadline=NS]",
        |scenario, overrides, out| {
            let mut cfg = RealtimeRunConfig::default();
            cfg.apply_overrides(overrides)?;
            bench_suite::run_scenario_realtime(scenario, &cfg, out).map_err(|e| e.to_string())
        },
    )
}

/// `repro serve`: multi-tenant decode-service study.
fn run_scenario_serve(args: &[String]) -> ExitCode {
    run_scenario_subcommand(
        args,
        &[
            "qubits",
            "shards",
            "rate",
            "decoder",
            "window",
            "commit",
            "predecode",
            "transport",
            "metrics-addr",
            "metrics-sample",
            "trace",
            "trace-out",
            "storm-threshold",
            "ring-high-water",
            "threads",
        ],
        "repro serve --scenario <name> --qubits Q --shards S [--rate R] \
         [--decoder K] [--window W] [--commit C] [--predecode off|batch] \
         [--transport channel|tcp (in-process socket pair|loopback)] \
         [--metrics-addr HOST:PORT] \
         [--metrics-sample N] [--trace N] [--trace-out PATH] \
         [--storm-threshold F] [--ring-high-water N] \
         [shots=N] [seed=N] [deadline=NS] [queue=N] [inflight=N]",
        |scenario, overrides, out| {
            let mut cfg = ServeConfig::default();
            cfg.apply_overrides(overrides)?;
            bench_suite::run_serve(scenario, &cfg, out).map_err(|e| e.to_string())
        },
    )
}

fn run(name: &str, scale: &Scale, w: &mut dyn Write) -> std::io::Result<bool> {
    match name {
        "table2" => experiments::table2(scale, w)?,
        "table3" => experiments::table3(scale, w)?,
        "table4" | "table5" | "table4_5" => experiments::table4_5(scale, w)?,
        "table6" => experiments::table6(scale, w)?,
        "table7" => experiments::table7(scale, w)?,
        "table8" => experiments::table8(scale, w)?,
        "fig1b" => experiments::fig1b(scale, w)?,
        "fig4" => experiments::fig4(scale, w)?,
        "fig5" => experiments::fig5(scale, w)?,
        "fig14" => {
            // Figure 14 is the d = 11 sweep; at quick scale this is the
            // smaller configured distance.
            let d = *scale.distances.first().unwrap_or(&7);
            experiments::fig14_15(scale, d, w)?
        }
        "fig15" => experiments::fig14_15(scale, scale.max_distance(), w)?,
        "fig16" => {
            let d = *scale.distances.first().unwrap_or(&7);
            experiments::fig16_17(scale, d, w)?
        }
        "fig17" => experiments::fig16_17(scale, scale.max_distance(), w)?,
        "ablate-singleton" => experiments::ablate_singleton(scale, w)?,
        "ablate-pathq" => experiments::ablate_pathq(scale, w)?,
        "ablate-astrea-units" => experiments::ablate_astrea_units(scale, w)?,
        "ablate-adaptive" => experiments::ablate_adaptive(scale, w)?,
        "ablate-pipelines" => experiments::ablate_pipelines(scale, w)?,
        "all" => {
            experiments::table2(scale, w)?;
            experiments::table3(scale, w)?;
            experiments::table4_5(scale, w)?;
            experiments::table6(scale, w)?;
            experiments::table7(scale, w)?;
            experiments::table8(scale, w)?;
            experiments::fig1b(scale, w)?;
            experiments::fig4(scale, w)?;
            experiments::fig5(scale, w)?;
            let d_low = *scale.distances.first().unwrap_or(&7);
            experiments::fig14_15(scale, d_low, w)?;
            experiments::fig14_15(scale, scale.max_distance(), w)?;
            experiments::fig16_17(scale, d_low, w)?;
            experiments::fig16_17(scale, scale.max_distance(), w)?;
            experiments::ablate_singleton(scale, w)?;
            experiments::ablate_pathq(scale, w)?;
            experiments::ablate_astrea_units(scale, w)?;
            experiments::ablate_adaptive(scale, w)?;
            experiments::ablate_pipelines(scale, w)?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}
