//! Runs the real binary on every workload with `--smoke` (tiny pools,
//! small code) and holds what it prints to what `BENCHMARK.json`
//! declares: same workloads, same metric names, same units, nothing
//! more and nothing less, on both the untraced and the traced run.

use promatch_benchmark::json;
use promatch_benchmark::selfcheck::{parse_result_line, Declaration};
use promatch_benchmark::spec::{DEFAULT_SECONDS, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::Command;

fn declaration() -> Declaration {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Declaration::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs one smoke workload; returns its metrics as `(name, unit)` and
/// the lines it printed before the result line.
fn smoke_run(workload: &str, traced: bool, extra: &[&str]) -> (Vec<(String, String)>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "3",
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("spawn the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={traced} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let (table, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .expect("a table, then the result line");
    let (correct, metrics) = parse_result_line(line).expect("last line is the result");
    assert!(
        correct,
        "{workload} trace={traced}: correct is false\n{stdout}"
    );
    assert!(
        metrics.iter().all(|(_, _, v)| v.is_finite()),
        "{workload}: non-finite metric in {line}"
    );
    (
        metrics.into_iter().map(|(n, u, _)| (n, u)).collect(),
        table.to_string(),
    )
}

fn owned(decl: &[(&str, &str)]) -> Vec<(String, String)> {
    decl.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn binary_and_benchmark_json_declare_the_same_things() {
    let decl = declaration();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(decl.workloads, names);
    let e2e: Vec<(String, String)> = decl
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    assert_eq!(e2e, owned(&END_TO_END));
    assert_eq!(decl.per_layer, owned(&PER_LAYER));
    assert!(decl
        .end_to_end
        .iter()
        .all(|m| (0.0..=0.25).contains(&m.bound)));
    assert!((1.0..=60.0).contains(&decl.run_seconds) && decl.run_seconds.fract() == 0.0);
    assert_eq!(decl.run_seconds, DEFAULT_SECONDS);
}

#[test]
fn every_workload_runs_correct_and_emits_exactly_the_declared_end_to_end_metrics() {
    let decl = declaration();
    let declared: Vec<(String, String)> = decl
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect();
    for w in &decl.workloads {
        let (metrics, table) = smoke_run(w, false, &[]);
        assert_eq!(metrics, declared, "{w}");
        // The run says why the workload exists and what its traffic was.
        assert!(
            table.contains("# why: ") && table.contains("# pool_hw_classes: "),
            "{table}"
        );
    }
}

#[test]
fn every_traced_workload_emits_exactly_the_declared_per_layer_metrics_and_a_span_file() {
    let decl = declaration();
    for w in &decl.workloads {
        let dir = std::env::temp_dir().join(format!("pb-smoke-{}-{w}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (spans, report) = (dir.join("spans.jsonl"), dir.join("report.json"));
        let (metrics, _) = smoke_run(
            w,
            true,
            &[
                "--trace-out",
                spans.to_str().unwrap(),
                "--out",
                report.to_str().unwrap(),
            ],
        );
        assert_eq!(metrics, decl.per_layer, "{w}");
        let text = std::fs::read_to_string(&spans).unwrap();
        let mut lines = text
            .lines()
            .map(|l| json::parse(l).expect("span lines are JSON"));
        let header = lines.next().expect("a header line");
        assert_eq!(header.get("workload").unwrap().as_str(), Some(w.as_str()));
        let n = lines
            .inspect(|s| {
                for key in ["id", "name", "start", "end", "parent", "shot"] {
                    assert!(s.get(key).is_some(), "{w}: span without {key}");
                }
            })
            .count();
        assert_eq!(header.get("spans").unwrap().as_f64(), Some(n as f64));
        assert!(n > 50, "{w}: only {n} spans");
        let full = json::parse(&std::fs::read_to_string(&report).unwrap()).expect("--out is JSON");
        assert_eq!(full.get("correct").unwrap().as_bool(), Some(true));
        // A traced run still measures the end-to-end set, on the side.
        assert_eq!(full.get("also").unwrap().members().len(), END_TO_END.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_bad_command_line_is_a_usage_error_not_a_run() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--trace", "2", "--workload", "svc-paced-d5"],
        &["--workload", "svc-paced-d5", "--selfcheck"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
