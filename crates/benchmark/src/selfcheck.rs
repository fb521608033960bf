//! The noise self-check: does the benchmark agree with itself?
//!
//! Runs the whole suite as two interleaved sets of child processes on
//! identical code, then holds the two sets to the bounds
//! `BENCHMARK.json` fixes — the comparison every later change will be
//! put through, with the change left out. A metric whose set medians
//! differ by more than its bound, or whose run-to-run spread exceeds it,
//! would make that comparison meaningless; the check fails and says
//! which.
//!
//! The rule the table enforces by eye: a time-like metric whose spread
//! is over half its bound gets longer or more slices before anyone
//! touches the bound.

use crate::json::{self, Value};
use crate::spec::WORKLOADS;
use crate::stats::{median, quartiles};
use std::path::Path;
use std::process::Command;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Share of the first median the second may be worse by.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the self-check and the smoke test read.
#[derive(Clone, Debug, PartialEq)]
pub struct Declaration {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, in order.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics as `(name, unit)`, in order.
    pub per_layer: Vec<(String, String)>,
}

impl Declaration {
    /// Parses the text of a `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped key.
    pub fn parse(text: &str) -> Result<Declaration, String> {
        let doc = json::parse(text)?;
        let field = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string \"{key}\""))
        };
        let list = |key: &str| -> Result<&[Value], String> {
            doc.get(key)
                .map(Value::items)
                .filter(|items| !items.is_empty())
                .ok_or_else(|| format!("missing list \"{key}\""))
        };
        Ok(Declaration {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("missing number \"run_seconds\"")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: field(m, "name")?,
                        unit: field(m, "unit")?,
                        higher_is_better: match field(m, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("better: \"{other}\"")),
                        },
                        bound: m
                            .get("bound")
                            .and_then(Value::as_f64)
                            .ok_or("missing number \"bound\"")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
                .collect::<Result<_, String>>()?,
        })
    }
}

/// A result line's metrics: `(name, unit, value)`, in the line's order.
pub type ResultMetrics = Vec<(String, String, f64)>;

/// Parses a run's one-line result into `(correct, metrics)`.
///
/// # Errors
///
/// Returns a message when the line is not the contract's result object.
pub fn parse_result_line(line: &str) -> Result<(bool, ResultMetrics), String> {
    let doc = json::parse(line)?;
    let correct = doc
        .get("correct")
        .and_then(Value::as_bool)
        .ok_or("result line has no \"correct\"")?;
    let metrics = doc
        .get("metrics")
        .ok_or("result line has no \"metrics\"")?
        .members()
        .iter()
        .map(|(name, m)| {
            Ok((
                name.clone(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .ok_or("metric without unit")?
                    .to_string(),
                m.get("value")
                    .and_then(Value::as_f64)
                    .ok_or("metric without value")?,
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok((correct, metrics))
}

/// How far `second` is worse than `first`, as a share of `first`.
pub fn worse_by(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better {
        first - second
    } else {
        second - first
    };
    if first == 0.0 {
        delta
    } else {
        delta / first.abs()
    }
}

/// Interquartile range of `values` as a share of their median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        q3 - q1
    } else {
        (q3 - q1) / med.abs()
    }
}

/// What the self-check needs to start its child runs.
#[derive(Clone, Debug)]
pub struct SelfcheckOptions {
    /// Runs per set (at least 3).
    pub runs: usize,
    /// `--seconds` of each child run.
    pub seconds: f64,
    /// Pass `--smoke` to the children.
    pub smoke: bool,
}

fn child_run(
    exe: &Path,
    workload: &str,
    seed: u64,
    opts: &SelfcheckOptions,
) -> Result<ResultMetrics, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string(), "--trace", "0"]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let (correct, metrics) =
        parse_result_line(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !out.status.success() || !correct {
        return Err(format!(
            "{workload} seed {seed}: exit {:?}, correct {correct}",
            out.status.code()
        ));
    }
    Ok(metrics)
}

/// Runs the self-check and returns `(report, passed)`; the report is the
/// markdown committed as `NOISE.md`.
///
/// # Errors
///
/// Returns a message when a child run cannot be started, fails, or
/// prints something other than a result line.
pub fn run(decl: &Declaration, opts: &SelfcheckOptions) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let runs = opts.runs.max(3);
    // values[workload][metric][set] = one value per run.
    let mut values: Vec<Vec<[Vec<f64>; 2]>> = WORKLOADS
        .iter()
        .map(|_| {
            decl.end_to_end
                .iter()
                .map(|_| [Vec::new(), Vec::new()])
                .collect()
        })
        .collect();
    for r in 0..runs {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            // Interleave the sets, alternating which goes first, so slow
            // drift of the machine lands on both alike.
            let order = if r % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                eprintln!(
                    "selfcheck: run {}/{runs} set {} {}",
                    r + 1,
                    ["A", "B"][set],
                    w.name
                );
                let metrics = child_run(&exe, w.name, r as u64 + 1, opts)?;
                for (mi, d) in decl.end_to_end.iter().enumerate() {
                    let (_, _, v) = metrics
                        .iter()
                        .find(|(n, _, _)| *n == d.name)
                        .ok_or_else(|| format!("{}: no {} in the result line", w.name, d.name))?;
                    values[wi][mi][set].push(*v);
                }
            }
        }
    }

    let mut passed = true;
    let mut out = format!(
        "# Noise self-check\n\nTwo interleaved sets (A, B) of {runs} runs per workload on identical code, seeds 1..={runs} in both sets, `--seconds {}`{}. `worse` is how far the worse set median sits from the other, as a share of it; `spread` is the wider of the two sets' interquartile ranges as a share of the set median (`statistics.quantiles(n=4)`). A row breaches when `worse` or `spread` exceeds the bound (`setup_s`: `worse` only); `wide` marks a spread over half the bound.\n",
        opts.seconds,
        if opts.smoke { " `--smoke`" } else { "" }
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        out.push_str(&format!(
            "\n## {}\n\n| metric | unit | median A | median B | worse | spread | bound | verdict |\n|---|---|---:|---:|---:|---:|---:|---|\n",
            w.name
        ));
        for (mi, d) in decl.end_to_end.iter().enumerate() {
            let [a, b] = &values[wi][mi];
            let (ma, mb) = (median(a), median(b));
            let worse =
                worse_by(ma, mb, d.higher_is_better).max(worse_by(mb, ma, d.higher_is_better));
            let spread = spread(a).max(spread(b));
            let breach = worse > d.bound || (d.name != "setup_s" && spread > d.bound);
            passed &= !breach;
            let verdict = if breach {
                "BREACH"
            } else if spread > d.bound / 2.0 && d.bound > 0.0 {
                "ok (wide)"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "| `{}` | {} | {:.6} | {:.6} | {:.4} | {:.4} | {} | {} |\n",
                d.name, d.unit, ma, mb, worse, spread, d.bound, verdict
            ));
        }
        // The calibration record: every value the table was made from,
        // in run order (seed 1 first).
        out.push_str("\n<details><summary>values by run</summary>\n\n```\n");
        for (mi, d) in decl.end_to_end.iter().enumerate() {
            for (set, label) in values[wi][mi].iter().zip(["A", "B"]) {
                let row: Vec<String> = set.iter().map(|v| format!("{v:.6}")).collect();
                out.push_str(&format!("{} {label}: {}\n", d.name, row.join(" ")));
            }
        }
        out.push_str("```\n\n</details>\n");
    }
    out.push_str(&format!(
        "\n**{}**\n",
        if passed {
            "PASS: every metric on every workload holds its bound."
        } else {
            "FAIL: at least one metric breaches its bound."
        }
    ));
    Ok((out, passed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert_eq!(worse_by(100.0, 90.0, true), 0.1);
        assert_eq!(worse_by(100.0, 110.0, true), -0.1);
        assert_eq!(worse_by(10.0, 11.0, false), 0.1);
        assert_eq!(worse_by(1.0, 1.0, false), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), (8.25 - 2.75) / 5.5);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn declaration_and_result_line_parse() {
        let decl = Declaration::parse(
            r#"{"command": ["x"], "paths": ["p"], "run_seconds": 15,
                "workloads": [{"name": "a", "why": "w"}, {"name": "b", "why": "w"}],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
                "per_layer": [{"name": "l.x", "unit": "ns", "better": "lower"}]}"#,
        )
        .unwrap();
        assert_eq!(decl.workloads, ["a", "b"]);
        assert_eq!(decl.end_to_end[0].bound, 0.25);
        assert!(!decl.end_to_end[0].higher_is_better);
        assert_eq!(decl.per_layer, [("l.x".to_string(), "ns".to_string())]);
        assert!(Declaration::parse("{}").is_err());

        let (correct, metrics) = parse_result_line(
            r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#,
        )
        .unwrap();
        assert!(correct);
        assert_eq!(metrics, [("setup_s".to_string(), "s".to_string(), 0.5)]);
    }
}
