//! The unified hardware latency model interface.
//!
//! Every real-time claim in the workspace is *modeled*, not measured:
//! decoders and predecoders charge cycles at the 250 MHz clock the paper
//! assumes throughout, and harnesses convert modeled nanoseconds into
//! backlog and reaction-time distributions. Before this module each
//! crate carried its own copy of the clock constant (`astrea`,
//! `predecoders::smith`, `predecoders::clique`) and the pipeline
//! comparison overhead lived as a bare float; now they all come from
//! here, and anything that maps a syndrome's Hamming weight to modeled
//! time implements [`LatencyModel`], so the real-time backlog simulator
//! can drive every decoder family through one interface.

/// Nanoseconds per cycle at the 250 MHz clock used throughout the paper.
pub const CYCLE_NS: f64 = 4.0;

/// Cycles a parallel (`A ‖ B`) composition reserves for comparing the
/// two candidate solutions (§6.4 of the paper).
pub const COMPARISON_OVERHEAD_CYCLES: u64 = 10;

/// Comparison overhead of a parallel composition in nanoseconds
/// (10 cycles at 250 MHz).
pub const COMPARISON_OVERHEAD_NS: f64 = COMPARISON_OVERHEAD_CYCLES as f64 * CYCLE_NS;

/// The time predecoding plus main decoding may take per syndrome: the
/// 1 µs real-time deadline less the ‖ comparison, 960 ns (§6.4). A
/// decode that overruns it is a failure, counted as a logical error.
pub const TIME_BUDGET_NS: f64 = 1_000.0 - COMPARISON_OVERHEAD_NS;

/// Converts a cycle count at the shared 250 MHz clock to nanoseconds.
pub fn cycles_to_ns(cycles: u64) -> f64 {
    cycles as f64 * CYCLE_NS
}

/// Modeled latency of the L1 batch predecoder, in nanoseconds: two
/// cycles at the 250 MHz clock (one for the round-cancellation bit
/// operation, one for the local match units). Windows the L1 tier fully
/// resolves are charged this instead of the L2 decoder's model.
pub const BATCH_PREDECODE_NS: f64 = 2.0 * CYCLE_NS;

/// Maps a syndrome's Hamming weight to a modeled decode latency.
///
/// Implemented by `astrea::AstreaLatencyModel` (the brute-force engine's
/// cycle model) and by [`PolynomialLatency`], and usable as a trait
/// object by the real-time backlog simulator, which needs one service
/// time per decode regardless of the decoder family behind it.
pub trait LatencyModel {
    /// Modeled latency in nanoseconds for a syndrome of Hamming weight
    /// `hw`.
    fn latency_ns(&self, hw: usize) -> f64;
}

/// A polynomial-in-Hamming-weight model,
/// `base + linear·hw + quadratic·hw²` nanoseconds.
///
/// Stands in for *software* decoders that report no hardware latency of
/// their own (MWPM, union-find): the coefficients in use
/// (`realtime::fallback_latency_model`) are fitted to this repository's
/// own ns/shot measurements at d = 11, p = 1e-4 — PR 2's rows in
/// CHANGES.md — so the backlog simulator can place the software
/// baselines on the same timeline as the cycle-modeled hardware
/// decoders.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PolynomialLatency {
    /// Constant term, ns.
    pub base_ns: f64,
    /// Per-defect term, ns.
    pub linear_ns: f64,
    /// Per-defect-squared term, ns.
    pub quadratic_ns: f64,
}

impl LatencyModel for PolynomialLatency {
    fn latency_ns(&self, hw: usize) -> f64 {
        let h = hw as f64;
        self.base_ns + self.linear_ns * h + self.quadratic_ns * h * h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_overhead_is_ten_cycles() {
        assert_eq!(COMPARISON_OVERHEAD_NS, 40.0);
        assert_eq!(cycles_to_ns(COMPARISON_OVERHEAD_CYCLES), 40.0);
        assert_eq!(cycles_to_ns(1), CYCLE_NS);
    }

    #[test]
    fn batch_predecode_charge_is_two_cycles() {
        assert_eq!(BATCH_PREDECODE_NS, 8.0);
    }

    #[test]
    fn time_budget_is_one_microsecond_less_the_comparison() {
        assert_eq!(TIME_BUDGET_NS, 960.0);
    }

    #[test]
    fn polynomial_model_grows_with_hw() {
        let m = PolynomialLatency {
            base_ns: 100.0,
            linear_ns: 10.0,
            quadratic_ns: 1.0,
        };
        assert_eq!(m.latency_ns(0), 100.0);
        assert_eq!(m.latency_ns(4), 100.0 + 40.0 + 16.0);
        assert!(m.latency_ns(8) > m.latency_ns(4));
    }

    #[test]
    fn models_are_object_safe() {
        let model: Box<dyn LatencyModel> = Box::new(PolynomialLatency {
            base_ns: 0.0,
            linear_ns: 1.0,
            quadratic_ns: 0.0,
        });
        assert_eq!(model.latency_ns(3), 3.0);
    }
}
