//! `benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--out FILE] [--trace-out FILE] [--smoke]` runs one workload and
//! prints every metric by name with its unit; the last line of standard
//! output is the one-line JSON result. `benchmark --selfcheck [--runs N]`
//! runs the noise self-check against `BENCHMARK.json`.

use promatch_benchmark::engine::RunOptions;
use promatch_benchmark::selfcheck::{self, Declaration, SelfcheckOptions};
use promatch_benchmark::spec::{workload, DEFAULT_SECONDS, WORKLOADS};
use promatch_benchmark::trace::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE] [--smoke]
       benchmark --selfcheck [--runs N] [--seconds S] [--benchmark-json FILE] [--smoke]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    smoke: bool,
    selfcheck: bool,
    runs: usize,
    benchmark_json: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        out: None,
        trace_out: None,
        smoke: false,
        selfcheck: false,
        runs: 3,
        benchmark_json: PathBuf::from("BENCHMARK.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: cannot read \"{v}\""))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = num(&flag, value()?)?,
            "--seconds" => a.seconds = Some(num(&flag, value()?)?),
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not \"{other}\"")),
                }
            }
            "--out" => a.out = Some(value()?.into()),
            "--trace-out" => a.trace_out = Some(value()?.into()),
            "--runs" => a.runs = num(&flag, value()?)?,
            "--benchmark-json" => a.benchmark_json = value()?.into(),
            "--smoke" => a.smoke = true,
            "--selfcheck" => a.selfcheck = true,
            other => return Err(format!("unknown argument \"{other}\"")),
        }
    }
    if a.seconds.is_some_and(|s| !(s > 0.0 && s.is_finite())) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn run_selfcheck(a: &Args) -> Result<bool, String> {
    let text = std::fs::read_to_string(&a.benchmark_json)
        .map_err(|e| format!("{}: {e}", a.benchmark_json.display()))?;
    let decl = Declaration::parse(&text)?;
    let opts = SelfcheckOptions {
        runs: a.runs,
        seconds: a.seconds.unwrap_or(decl.run_seconds),
        smoke: a.smoke,
    };
    let (report, passed) = selfcheck::run(&decl, &opts)?;
    print!("{report}");
    Ok(passed)
}

fn run_one(a: &Args, name: &str) -> Result<bool, String> {
    let w = workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload \"{name}\" (known: {})", known.join(", "))
    })?;
    let opts = RunOptions {
        seed: a.seed,
        seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
        traced: a.traced,
        smoke: a.smoke,
    };
    let mut tracer = Tracer::new();
    let report = promatch_benchmark::run_workload(&w, &opts, &mut tracer);
    if a.traced {
        let path = a
            .trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!(".bench_trace/{}.spans.jsonl", w.name)));
        tracer
            .write(&path, w.name, a.seed)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans: {} written to {}", tracer.len(), path.display());
    }
    if let Some(path) = &a.out {
        std::fs::write(path, report.full_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", report.table());
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| match (&a.workload, a.selfcheck) {
        (None, true) => run_selfcheck(&a),
        (Some(name), false) => run_one(&a, name),
        _ => Err("give exactly one of --workload and --selfcheck".into()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
