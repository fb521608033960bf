//! Order statistics for slice samples and run-to-run comparisons.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// computes them (the exclusive method), so a spread printed here is the
/// spread the acceptance pipeline will compute from the same values.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let n = data.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let n = data.len();
    if n % 2 == 1 {
        data[n / 2]
    } else {
        (data[n / 2 - 1] + data[n / 2]) / 2.0
    }
}

/// A time-like metric's per-slice values: the reported value is the best
/// slice (interference on a shared machine only ever slows a slice); the
/// slice median and quartiles ride along so the noise stays visible.
#[derive(Clone, Debug, PartialEq)]
pub struct SliceSummary {
    /// The best slice: the maximum when higher is better, else the minimum.
    pub best: f64,
    /// Median over slices.
    pub median: f64,
    /// First quartile over slices.
    pub q1: f64,
    /// Third quartile over slices.
    pub q3: f64,
    /// Every slice's value, in the order the slices ran.
    pub values: Vec<f64>,
}

impl SliceSummary {
    /// Summarises one value per slice.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    pub fn of(per_slice: &[f64], higher_is_better: bool) -> SliceSummary {
        let best = per_slice
            .iter()
            .copied()
            .reduce(if higher_is_better { f64::max } else { f64::min })
            .expect("at least one slice");
        let (q1, median, q3) = if per_slice.len() >= 2 {
            quartiles(per_slice)
        } else {
            (best, best, best)
        };
        SliceSummary {
            best,
            median,
            q1,
            q3,
            values: per_slice.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7u32], 0.99), 7);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(10_000, 0.99), 100);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn slice_summary_reports_the_best_slice() {
        let rates = [10.0, 12.0, 11.0];
        assert_eq!(SliceSummary::of(&rates, true).best, 12.0);
        assert_eq!(SliceSummary::of(&rates, false).best, 10.0);
        assert_eq!(SliceSummary::of(&rates, false).median, 11.0);
    }
}
