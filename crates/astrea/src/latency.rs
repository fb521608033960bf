//! Cycle-level latency model for the Astrea brute-force engine.
//!
//! Astrea explores candidate matchings with wide hardware parallelism.
//! The model here charges `9 + ⌈M(hw) / U⌉` cycles at 250 MHz, where
//! `M(hw)` is the number of complete pairings of `hw` flipped bits (each
//! bit pairs with another bit, with one boundary match allowed for odd
//! weights — the double-factorial "telephone" numbers the Astrea paper
//! quotes: 945 matchings at HW = 10) and `U` is the number of parallel
//! match units, plus 9 cycles of pipeline setup. With the default
//! U = 9 the model lands on the paper's 456 ns for HW = 10.

use decoding_graph::latency::LatencyModel;

/// Nanoseconds per cycle at the 250 MHz clock used throughout the paper
/// (re-exported from the workspace-wide constant in `decoding-graph`).
pub use decoding_graph::latency::CYCLE_NS;

/// Fixed pipeline setup cycles per decode.
const SETUP_CYCLES: u64 = 9;

/// Latency model for Astrea's brute-force matching engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AstreaLatencyModel {
    /// Parallel matching units.
    pub parallel_units: u32,
}

impl Default for AstreaLatencyModel {
    fn default() -> Self {
        // Calibrated so hw = 10 costs 456 ns: (9 + ⌈945/9⌉) × 4 ns.
        AstreaLatencyModel { parallel_units: 9 }
    }
}

impl AstreaLatencyModel {
    /// Number of complete pairings of `hw` flipped bits (boundary match
    /// used by at most one bit, only when `hw` is odd — even-weight
    /// solutions that use the boundary in pairs are counted by the even
    /// sequence).
    ///
    /// Even hw: (hw−1)!! ; odd hw: hw!! (= hw · (hw−2)!!).
    pub fn matchings(hw: usize) -> u64 {
        match hw {
            0..=2 => 1,
            _ => {
                // (hw-1)!! for even, hw!! for odd; both satisfy
                // m(n) = (n odd ? n : n - 1) * m(n - 2).
                let factor = if hw % 2 == 1 {
                    hw as u64
                } else {
                    hw as u64 - 1
                };
                factor * Self::matchings(hw - 2)
            }
        }
    }

    /// Cycles to decode a syndrome of Hamming weight `hw`.
    pub fn cycles(&self, hw: usize) -> u64 {
        let m = Self::matchings(hw);
        SETUP_CYCLES + m.div_ceil(self.parallel_units as u64)
    }

    /// Modeled latency in nanoseconds for Hamming weight `hw`.
    pub fn latency_ns(&self, hw: usize) -> f64 {
        self.cycles(hw) as f64 * CYCLE_NS
    }

    /// The largest Hamming weight decodable within `budget_ns`
    /// nanoseconds, at most `max_hw`. Returns `None` if even the smallest
    /// nonzero weight does not fit.
    pub fn max_hw_within(&self, budget_ns: f64, max_hw: usize) -> Option<usize> {
        (0..=max_hw)
            .rev()
            .find(|&hw| self.latency_ns(hw) <= budget_ns)
    }
}

impl LatencyModel for AstreaLatencyModel {
    fn latency_ns(&self, hw: usize) -> f64 {
        AstreaLatencyModel::latency_ns(self, hw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matchings_match_telephone_numbers() {
        assert_eq!(AstreaLatencyModel::matchings(0), 1);
        assert_eq!(AstreaLatencyModel::matchings(2), 1);
        assert_eq!(AstreaLatencyModel::matchings(4), 3);
        assert_eq!(AstreaLatencyModel::matchings(6), 15);
        assert_eq!(AstreaLatencyModel::matchings(8), 105);
        // The Astrea paper's headline count for HW = 10.
        assert_eq!(AstreaLatencyModel::matchings(10), 945);
        assert_eq!(AstreaLatencyModel::matchings(3), 3);
        assert_eq!(AstreaLatencyModel::matchings(5), 15);
        assert_eq!(AstreaLatencyModel::matchings(9), 945);
    }

    #[test]
    fn default_model_reproduces_456ns_at_hw10() {
        let m = AstreaLatencyModel::default();
        assert_eq!(m.latency_ns(10), 456.0);
    }

    #[test]
    fn latency_is_monotone_in_hamming_weight() {
        let m = AstreaLatencyModel::default();
        for hw in 0..10 {
            assert!(m.latency_ns(hw) <= m.latency_ns(hw + 1), "hw={hw}");
        }
    }

    #[test]
    fn latency_model_trait_matches_inherent_method() {
        let m = AstreaLatencyModel::default();
        let dyn_m: &dyn LatencyModel = &m;
        for hw in 0..=10 {
            assert_eq!(dyn_m.latency_ns(hw), m.latency_ns(hw));
        }
    }

    #[test]
    fn max_hw_within_respects_budget() {
        let m = AstreaLatencyModel::default();
        assert_eq!(m.max_hw_within(1000.0, 10), Some(10));
        assert_eq!(m.max_hw_within(456.0, 10), Some(10));
        // HW 9 and 10 explore the same 945 pairings, so dropping below
        // 456 ns skips straight to HW 8.
        assert_eq!(m.max_hw_within(455.9, 10), Some(8));
        assert_eq!(m.max_hw_within(100.0, 10), Some(8));
        assert_eq!(m.max_hw_within(0.0, 10), None);
    }
}
