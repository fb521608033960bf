//! The per-shard metrics registry and its exposition formats.
//!
//! One [`ShardMetrics`] per decode shard, handed out as `Arc` clones at
//! registration time (shard loop, waker, router, tenant decoders); the
//! record path after that is plain `Relaxed` atomics with no shared
//! locks. [`Registry::snapshot`] folds the live atomics into an owned
//! [`RegistrySnapshot`] that renders as Prometheus text 0.0.4 — the
//! `/metrics` endpoint, the one route counters leave the process by.

use crate::metrics::{bucket_upper, Counter, Gauge, HistogramSnapshot, NUM_BUCKETS};
use crate::stage::{Stage, StageSpans};
use std::sync::Arc;

/// Live lock-free metrics of one decode shard.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Stage-span histograms, shared (`Arc`) with the shard's tenant
    /// decoders so their in-window spans land in the shard's family.
    pub stages: Arc<StageSpans>,
    /// Syndrome rounds committed by this shard.
    pub rounds: Counter,
    /// Shots (submissions) decoded by this shard.
    pub shots: Counter,
    /// Submissions shed (admission gate or ring backpressure).
    pub sheds: Counter,
    /// Rounds resolved by the L1 predecode tier.
    pub l1_rounds: Counter,
    /// Windows escalated past the L1 tier to a solver.
    pub escalated_windows: Counter,
    /// Times the shard loop parked on its waker.
    pub parks: Counter,
    /// Times the waker actually unparked the shard thread.
    pub wakes: Counter,
    /// Sweeps a session router ran itself on the parked shard it handed
    /// off to, instead of waking the shard thread.
    pub inline_sweeps: Counter,
    /// Times the shard thread came back from its bounded park with no
    /// wake delivered (the timeout, or a spurious unpark, ended it) and
    /// then found work: a slot that waited out the park timeout.
    pub timeout_pickups: Counter,
    /// SPSC ring occupancy (slots pending across the shard's rings),
    /// sampled once per sweep; `max()` is the high-water mark.
    pub ring_depth: Gauge,
}

/// The process-wide registry: one [`ShardMetrics`] per shard.
#[derive(Debug)]
pub struct Registry {
    shards: Vec<Arc<ShardMetrics>>,
}

impl Registry {
    /// A registry for `shards` decode shards.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Registry {
            shards: (0..shards).map(|_| Arc::default()).collect(),
        }
    }

    /// One shard's live metrics (panics on an out-of-range shard id,
    /// which would be a wiring bug).
    #[must_use]
    pub fn shard(&self, shard: usize) -> &Arc<ShardMetrics> {
        &self.shards[shard]
    }

    /// Reads every shard into an owned snapshot.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, m)| ShardSnapshot {
                    shard: i as u32,
                    rounds: m.rounds.get(),
                    shots: m.shots.get(),
                    sheds: m.sheds.get(),
                    l1_rounds: m.l1_rounds.get(),
                    escalated_windows: m.escalated_windows.get(),
                    parks: m.parks.get(),
                    wakes: m.wakes.get(),
                    inline_sweeps: m.inline_sweeps.get(),
                    timeout_pickups: m.timeout_pickups.get(),
                    ring_depth: m.ring_depth.get(),
                    ring_depth_max: m.ring_depth.max(),
                    stages: Stage::ALL.map(|s| m.stages.stage(s).snapshot()),
                })
                .collect(),
        }
    }
}

/// Owned counters/gauges/histograms of one shard at snapshot time.
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    /// Shard id.
    pub shard: u32,
    /// See [`ShardMetrics::rounds`].
    pub rounds: u64,
    /// See [`ShardMetrics::shots`].
    pub shots: u64,
    /// See [`ShardMetrics::sheds`].
    pub sheds: u64,
    /// See [`ShardMetrics::l1_rounds`].
    pub l1_rounds: u64,
    /// See [`ShardMetrics::escalated_windows`].
    pub escalated_windows: u64,
    /// See [`ShardMetrics::parks`].
    pub parks: u64,
    /// See [`ShardMetrics::wakes`].
    pub wakes: u64,
    /// See [`ShardMetrics::inline_sweeps`].
    pub inline_sweeps: u64,
    /// See [`ShardMetrics::timeout_pickups`].
    pub timeout_pickups: u64,
    /// Last-sampled SPSC ring occupancy.
    pub ring_depth: u64,
    /// High-water ring occupancy.
    pub ring_depth_max: u64,
    /// Per-stage histogram snapshots, indexed by `Stage as usize`.
    pub stages: [HistogramSnapshot; Stage::COUNT],
}

/// One exposition row: metric name, help text, per-shard getter.
type FamilyRow = (&'static str, &'static str, fn(&ShardSnapshot) -> u64);

/// A whole-registry snapshot, ready to merge or render.
#[derive(Clone, Debug, Default)]
pub struct RegistrySnapshot {
    /// Per-shard snapshots, ordered by shard id.
    pub shards: Vec<ShardSnapshot>,
}

impl RegistrySnapshot {
    /// All shards' histograms for one stage, merged (for fleet-level
    /// quantiles; merging is order-independent).
    #[must_use]
    pub fn merged_stage(&self, stage: Stage) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::empty();
        for s in &self.shards {
            acc.merge(&s.stages[stage as usize]);
        }
        acc
    }

    /// Highest ring occupancy observed on any shard.
    #[must_use]
    pub fn max_ring_depth(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.ring_depth_max)
            .max()
            .unwrap_or(0)
    }

    /// Renders Prometheus text format 0.0.4: per-shard counter and
    /// gauge families, the `promatch_stage_duration_ns` histogram
    /// family (cumulative `le` buckets, `_sum`, `_count` per shard and
    /// stage), and its p50/p99 in a separate gauge family — a histogram
    /// family may carry no `quantile` samples.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let counters: [FamilyRow; 9] = [
            ("promatch_rounds_total", "Syndrome rounds committed.", |s| {
                s.rounds
            }),
            ("promatch_shots_total", "Shots decoded.", |s| s.shots),
            (
                "promatch_shed_total",
                "Submissions shed by admission or ring backpressure.",
                |s| s.sheds,
            ),
            (
                "promatch_l1_rounds_total",
                "Rounds resolved by the L1 predecode tier.",
                |s| s.l1_rounds,
            ),
            (
                "promatch_escalated_windows_total",
                "Windows escalated past L1 to a solver.",
                |s| s.escalated_windows,
            ),
            ("promatch_parks_total", "Shard loop park events.", |s| {
                s.parks
            }),
            ("promatch_wakes_total", "Shard waker unpark events.", |s| {
                s.wakes
            }),
            (
                "promatch_inline_sweeps_total",
                "Sweeps a session router ran on a parked shard instead of waking it.",
                |s| s.inline_sweeps,
            ),
            (
                "promatch_timeout_pickups_total",
                "Idle-park timeouts, with no wake delivered, that then found work.",
                |s| s.timeout_pickups,
            ),
        ];
        for (name, help, get) in counters {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for s in &self.shards {
                out.push_str(&format!("{name}{{shard=\"{}\"}} {}\n", s.shard, get(s)));
            }
        }
        let gauges: [FamilyRow; 2] = [
            (
                "promatch_ring_depth",
                "SPSC ring occupancy at the last sweep.",
                |s| s.ring_depth,
            ),
            (
                "promatch_ring_depth_max",
                "High-water SPSC ring occupancy.",
                |s| s.ring_depth_max,
            ),
        ];
        for (name, help, get) in gauges {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            for s in &self.shards {
                out.push_str(&format!("{name}{{shard=\"{}\"}} {}\n", s.shard, get(s)));
            }
        }
        let name = "promatch_stage_duration_ns";
        let quantile_name = "promatch_stage_duration_quantile_ns";
        out.push_str(&format!(
            "# HELP {name} Sampled pipeline stage span durations, ns.\n\
             # TYPE {name} histogram\n"
        ));
        // A family's samples must be contiguous, so the quantile gauges
        // are buffered and appended after the whole histogram family.
        let mut quantiles = format!(
            "# HELP {quantile_name} Sampled pipeline stage span quantiles, ns.\n\
             # TYPE {quantile_name} gauge\n"
        );
        for s in &self.shards {
            for stage in Stage::ALL {
                let h = &s.stages[stage as usize];
                if h.count == 0 {
                    continue;
                }
                let labels = format!("shard=\"{}\",stage=\"{}\"", s.shard, stage.label());
                let mut cumulative = 0u64;
                for (b, &n) in h.buckets.iter().enumerate() {
                    // Empty buckets are elided; the top bucket is
                    // covered by the mandatory `+Inf` line below.
                    if n == 0 || b == NUM_BUCKETS - 1 {
                        continue;
                    }
                    cumulative += n;
                    out.push_str(&format!(
                        "{name}_bucket{{{labels},le=\"{}\"}} {cumulative}\n",
                        bucket_upper(b)
                    ));
                }
                out.push_str(&format!(
                    "{name}_bucket{{{labels},le=\"+Inf\"}} {}\n",
                    h.count
                ));
                out.push_str(&format!("{name}_sum{{{labels}}} {}\n", h.sum));
                out.push_str(&format!("{name}_count{{{labels}}} {}\n", h.count));
                for (q, label) in [(0.5, "0.5"), (0.99, "0.99")] {
                    quantiles.push_str(&format!(
                        "{quantile_name}{{{labels},quantile=\"{label}\"}} {}\n",
                        h.quantile(q)
                    ));
                }
            }
        }
        out.push_str(&quantiles);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> Registry {
        let reg = Registry::new(2);
        let m0 = reg.shard(0);
        m0.rounds.add(600);
        m0.shots.add(100);
        m0.sheds.add(2);
        m0.l1_rounds.add(550);
        m0.escalated_windows.add(7);
        m0.parks.add(3);
        m0.wakes.add(3);
        m0.inline_sweeps.add(9);
        m0.timeout_pickups.inc();
        m0.ring_depth.set(5);
        m0.ring_depth.set(1);
        m0.stages.record(Stage::Solve, 800);
        m0.stages.record(Stage::Solve, 1500);
        m0.stages.record(Stage::WindowTotal, 2000);
        reg.shard(1).stages.record(Stage::Solve, 400);
        reg
    }

    #[test]
    fn snapshot_reads_every_family() {
        let snap = populated().snapshot();
        assert_eq!(snap.shards.len(), 2);
        let s0 = &snap.shards[0];
        assert_eq!(s0.rounds, 600);
        assert_eq!(s0.sheds, 2);
        assert_eq!(s0.ring_depth, 1);
        assert_eq!(s0.ring_depth_max, 5);
        assert_eq!((s0.inline_sweeps, s0.timeout_pickups), (9, 1));
        assert_eq!(snap.max_ring_depth(), 5);
        let solve = &s0.stages[Stage::Solve as usize];
        assert_eq!(solve.count, 2);
        assert_eq!(solve.max, 1500);
        assert!(solve.quantile(0.99) >= solve.quantile(0.5));
        // Fleet merge covers both shards.
        assert_eq!(snap.merged_stage(Stage::Solve).count, 3);
    }

    #[test]
    fn prometheus_rendering_has_the_required_families() {
        let text = populated().snapshot().render_prometheus();
        for family in [
            "promatch_rounds_total",
            "promatch_shed_total",
            "promatch_escalated_windows_total",
            "promatch_inline_sweeps_total",
            "promatch_timeout_pickups_total",
            "promatch_ring_depth",
            "promatch_stage_duration_ns",
            "promatch_stage_duration_quantile_ns",
        ] {
            assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
        }
        assert!(text.contains("promatch_shed_total{shard=\"0\"} 2"));
        assert!(text.contains("promatch_ring_depth_max{shard=\"0\"} 5"));
        assert!(text.contains("promatch_inline_sweeps_total{shard=\"0\"} 9"));
        assert!(text.contains("promatch_timeout_pickups_total{shard=\"1\"} 0"));
        assert!(text.contains("stage=\"solve\""));
        assert!(text.contains(
            "promatch_stage_duration_quantile_ns{shard=\"0\",stage=\"solve\",quantile=\"0.99\"}"
        ));
        assert!(text.contains("le=\"+Inf\""));
        // Cumulative bucket counts end at the total count.
        assert!(text.contains("promatch_stage_duration_ns_count{shard=\"0\",stage=\"solve\"} 2"));
        // A histogram family carries only `_bucket`, `_sum` and `_count`
        // samples: quantiles live in their own gauge family.
        let histogram_samples: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("promatch_stage_duration_ns"))
            .collect();
        assert!(!histogram_samples.is_empty());
        for line in histogram_samples {
            let metric = line.split(['{', ' ']).next().unwrap();
            assert!(
                ["_bucket", "_sum", "_count"]
                    .iter()
                    .any(|suffix| metric == format!("promatch_stage_duration_ns{suffix}")),
                "not a histogram sample: {line}"
            );
        }
    }
}
