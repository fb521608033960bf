//! Reproduction harness regenerating every table and figure of the paper.
//!
//! The [`experiments`] module contains one entry point per table/figure
//! of the Promatch paper's evaluation (§6). The `repro` binary exposes
//! them as subcommands; integration tests call the quick-scale variants
//! directly.
//!
//! Absolute numbers differ from the paper (our substrate is a simulator,
//! not the authors' Stim + FPGA testbed); the reproduction criterion is
//! the *shape*: decoder ordering, approximate ratios, and crossovers.
//! See `EXPERIMENTS.md` for a side-by-side record.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod realtime;
pub mod scale;
pub mod scenario;
pub mod serve;

pub use self::realtime::{run_scenario_realtime, LatencyPoint, RealtimeRunConfig};
pub use scale::Scale;
pub use scenario::{
    run_scenario_ler, LerPoint, LerRunConfig, NoiseSpec, Scenario, ScenarioRegistry,
};
pub use serve::{
    run_serve, ServeConfig, ServeTransport, ServicePoint, ServiceSummary, StageBreakdownRow,
    TelemetrySummary, TraceSummary,
};

/// Formats a rate in the paper's scientific style (e.g. `2.6e-14`).
pub fn fmt_rate(x: f64) -> String {
    if x == 0.0 {
        "0 (none observed)".to_string()
    } else {
        format!("{x:.1e}")
    }
}

/// Formats a ratio against a baseline, like the paper's `(43×)`.
pub fn fmt_ratio(x: f64, baseline: f64) -> String {
    if baseline == 0.0 || x == 0.0 {
        "(n/a)".to_string()
    } else {
        format!("({:.1}x)", x / baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_formatting_matches_paper_style() {
        assert_eq!(fmt_rate(2.6e-14), "2.6e-14");
        assert_eq!(fmt_rate(0.0), "0 (none observed)");
    }

    #[test]
    fn ratio_formatting_handles_degenerate_cases() {
        assert_eq!(fmt_ratio(4.3e-13, 1e-14), "(43.0x)");
        assert_eq!(fmt_ratio(0.0, 1e-14), "(n/a)");
        assert_eq!(fmt_ratio(1e-13, 0.0), "(n/a)");
    }
}
