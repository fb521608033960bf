//! The repeatable performance benchmark behind `BENCHMARK.json`.
//!
//! Four workloads, each one command: pre-generate the inputs from a
//! seed, drive them through the workspace's public functions in
//! fixed-work slices, check every output, and print every metric by name
//! with its unit. See `README.md` beside this crate for what each metric
//! means, which clock it is on, and why the run is shaped the way it is.

pub mod engine;
pub mod gen;
pub mod json;
pub mod layers;
pub mod report;
pub mod selfcheck;
pub mod spec;
pub mod stats;
pub mod svc;
pub mod sys;
pub mod trace;

use engine::RunOptions;
use report::RunReport;
use spec::{Drive, Workload};
use trace::Tracer;

/// Runs one workload end to end and returns its report; spans of a
/// traced run accumulate in `tracer`.
pub fn run_workload(w: &Workload, opts: &RunOptions, tracer: &mut Tracer) -> RunReport {
    let w = if opts.smoke { w.smoke() } else { *w };
    match w.drive {
        Drive::Engine => engine::run(&w, opts, tracer),
        Drive::Paced | Drive::Burst => svc::run(&w, opts, tracer),
    }
}
