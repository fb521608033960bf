//! Pipeline stage spans: which part of a window's life took how long.
//!
//! The decode pipeline has five hot-path stages; a span is a pair of
//! [`crate::now`] reads bracketing one stage for one window step,
//! recorded into that stage's [`LogHistogram`]. A sixth roll-up
//! histogram ([`Stage::WindowTotal`]) times the whole step end-to-end —
//! per-stage *percentiles* do not add (p99s of independent stages are
//! not the p99 of their sum), so the roll-up is what the `measured`
//! latency rows of `repro realtime` quote.
//!
//! Sampling: timestamping every window at multi-M rounds/s would spend
//! a visible fraction of the round budget on clock reads, so each
//! instrumented writer owns a [`Sampler`] and only brackets 1-in-N
//! steps. Counters and gauges are *not* sampled — only span
//! timestamps are.

use crate::metrics::LogHistogram;

/// One hot-path pipeline stage (plus the whole-step roll-up).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// SPSC dequeue delay: submit-side publish to shard-side pickup.
    Ingest = 0,
    /// L1 batch-predecode pass (zero with predecoding off).
    Predecode = 1,
    /// Window extraction: arrival merge + packed window-word extraction.
    Window = 2,
    /// Matching solver over the escalated window group.
    Solve = 3,
    /// Commit/defer resolution of solver matches.
    Commit = 4,
    /// Whole window step end-to-end (the `measured` latency source).
    WindowTotal = 5,
}

impl Stage {
    /// Number of stages (histograms per [`StageSpans`]).
    pub const COUNT: usize = 6;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Ingest,
        Stage::Predecode,
        Stage::Window,
        Stage::Solve,
        Stage::Commit,
        Stage::WindowTotal,
    ];

    /// Stable lowercase label (Prometheus `stage` label / JSON key).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Predecode => "predecode",
            Stage::Window => "window",
            Stage::Solve => "solve",
            Stage::Commit => "commit",
            Stage::WindowTotal => "window_total",
        }
    }

    /// Inverse of `as u8` (wire decoding).
    #[must_use]
    pub fn from_index(i: usize) -> Option<Stage> {
        Stage::ALL.get(i).copied()
    }
}

/// One latency histogram per [`Stage`]. Writers record wait-free; the
/// struct is typically shared as an `Arc` between a shard's
/// [`crate::ShardMetrics`] and the tenant decoders it owns.
#[derive(Debug, Default)]
pub struct StageSpans {
    histograms: [LogHistogram; Stage::COUNT],
}

impl StageSpans {
    /// Empty spans.
    #[must_use]
    pub const fn new() -> Self {
        StageSpans {
            histograms: [const { LogHistogram::new() }; Stage::COUNT],
        }
    }

    /// Records one span duration (nanoseconds) for a stage. Wait-free,
    /// allocation-free.
    #[inline]
    pub fn record(&self, stage: Stage, ns: u64) {
        self.histograms[stage as usize].record(ns);
    }

    /// The histogram backing one stage.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> &LogHistogram {
        &self.histograms[stage as usize]
    }
}

/// 1-in-N sampling countdown for span timestamps.
///
/// Deliberately `&mut self` and non-atomic: every instrumented writer
/// (one shard loop, one decoder) owns its own sampler, so there is
/// nothing to contend on. `every = 0` disables sampling entirely,
/// `every = 1` samples every step.
#[derive(Clone, Copy, Debug)]
pub struct Sampler {
    every: u32,
    countdown: u32,
}

impl Sampler {
    /// A sampler firing on 1 of every `every` calls (0 = never).
    #[must_use]
    pub fn new(every: u32) -> Self {
        // Fire on the first call so short runs still produce data.
        Sampler {
            every,
            countdown: 1,
        }
    }

    /// Advances the countdown; true when this step should be sampled.
    #[inline]
    pub fn hit(&mut self) -> bool {
        if self.every == 0 {
            return false;
        }
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = self.every;
            true
        } else {
            false
        }
    }

    /// The configured period (0 = disabled).
    #[must_use]
    pub fn every(&self) -> u32 {
        self.every
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_and_indices_round_trip() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert_eq!(Stage::from_index(i), Some(*s));
            assert!(!s.label().is_empty());
        }
        assert_eq!(Stage::from_index(Stage::COUNT), None);
    }

    #[test]
    fn spans_record_into_the_right_stage() {
        let spans = StageSpans::new();
        spans.record(Stage::Solve, 500);
        spans.record(Stage::Solve, 700);
        spans.record(Stage::Commit, 10);
        assert_eq!(spans.stage(Stage::Solve).count(), 2);
        assert_eq!(spans.stage(Stage::Commit).count(), 1);
        assert_eq!(spans.stage(Stage::Ingest).count(), 0);
        assert_eq!(spans.stage(Stage::Solve).snapshot().max, 700);
    }

    #[test]
    fn sampler_fires_one_in_n() {
        let mut s = Sampler::new(4);
        let hits: Vec<bool> = (0..12).map(|_| s.hit()).collect();
        assert_eq!(hits.iter().filter(|&&h| h).count(), 3);
        // First call fires, then every 4th.
        assert!(hits[0] && hits[4] && hits[8]);
        let mut always = Sampler::new(1);
        assert!((0..5).all(|_| always.hit()));
        let mut never = Sampler::new(0);
        assert!((0..5).all(|_| !never.hit()));
    }
}
