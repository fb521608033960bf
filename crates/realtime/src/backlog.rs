//! Discrete-event backlog simulation of a streaming decoder.
//!
//! Syndrome rounds arrive on a fixed cadence (`round_ns`, ~1 µs on
//! superconducting hardware). A window becomes decodable the instant its
//! last round has been measured; a single decode engine serves windows
//! FIFO, each taking its modeled service time. A decoder whose mean
//! service time exceeds the window production period falls behind and
//! its backlog — and therefore its reaction time — grows without bound,
//! which is exactly the failure mode real-time decoding exists to avoid
//! (Promatch §2). The simulator reports the reaction-time distribution
//! (p50/p99/max), the backlog-depth trace, and the fraction of windows
//! that miss a reaction deadline.

use decoding_graph::LatencyModel;

/// Timing of the stream's arrivals and the reaction deadline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BacklogConfig {
    /// Syndrome measurement round period in nanoseconds.
    pub round_ns: f64,
    /// Reaction deadline per window: a window whose correction lands
    /// more than this after its data is complete counts as a miss.
    pub deadline_ns: f64,
}

impl BacklogConfig {
    /// The paper's cadence: 1 µs rounds; deadline = the window
    /// production period (`commit` rounds), i.e. the steady-state
    /// throughput condition.
    pub fn with_commit_deadline(round_ns: f64, commit: u32) -> Self {
        BacklogConfig {
            round_ns,
            deadline_ns: round_ns * commit as f64,
        }
    }
}

/// One window's arrival and service time, in stream order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowTiming {
    /// Global round count after which the window is complete (the
    /// window is ready at `ready_round · round_ns`).
    pub ready_round: u64,
    /// Modeled decode time in nanoseconds.
    pub service_ns: f64,
}

/// Summary statistics of a latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyStats {
    /// Arithmetic mean, ns.
    pub mean_ns: f64,
    /// Median, ns.
    pub p50_ns: f64,
    /// 99th percentile, ns.
    pub p99_ns: f64,
    /// Maximum, ns.
    pub max_ns: f64,
}

impl LatencyStats {
    /// Computes the stats of `samples` (need not be sorted; empty input
    /// yields all-zero stats).
    pub fn from_samples(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return LatencyStats {
                mean_ns: 0.0,
                p50_ns: 0.0,
                p99_ns: 0.0,
                max_ns: 0.0,
            };
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let pct = |q: f64| samples[((q * (samples.len() - 1) as f64).round()) as usize];
        LatencyStats {
            mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
            p50_ns: pct(0.50),
            p99_ns: pct(0.99),
            max_ns: *samples.last().expect("non-empty"),
        }
    }
}

/// One point of the backlog-depth trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BacklogSample {
    /// Simulation time, ns.
    pub t_ns: f64,
    /// Windows queued or in service at that instant (including the one
    /// that just became ready).
    pub depth: usize,
}

/// Result of one backlog simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct BacklogReport {
    /// Windows simulated.
    pub windows: usize,
    /// Reaction time (correction done − window data complete).
    pub reaction: LatencyStats,
    /// Fraction of windows whose reaction exceeded the deadline.
    pub miss_fraction: f64,
    /// Deepest backlog observed.
    pub max_backlog: usize,
    /// Mean backlog depth over the trace.
    pub mean_backlog: f64,
    /// Backlog depth sampled at every window-ready event.
    pub trace: Vec<BacklogSample>,
}

impl BacklogReport {
    /// Downsamples the backlog trace to at most `buckets` points, each
    /// keeping the worst depth of its time slice (for compact display).
    pub fn trace_buckets(&self, buckets: usize) -> Vec<usize> {
        if self.trace.is_empty() || buckets == 0 {
            return Vec::new();
        }
        let n = self.trace.len();
        let buckets = buckets.min(n);
        (0..buckets)
            .map(|b| {
                let lo = b * n / buckets;
                let hi = ((b + 1) * n / buckets).max(lo + 1);
                self.trace[lo..hi]
                    .iter()
                    .map(|s| s.depth)
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    }
}

/// Runs the FIFO single-server simulation over `timings` (stream order,
/// `ready_round` non-decreasing).
pub fn simulate_backlog(timings: &[WindowTiming], cfg: &BacklogConfig) -> BacklogReport {
    let mut finishes: Vec<f64> = Vec::with_capacity(timings.len());
    let mut reactions: Vec<f64> = Vec::with_capacity(timings.len());
    let mut trace: Vec<BacklogSample> = Vec::with_capacity(timings.len());
    let mut server_free = 0.0f64;
    let mut misses = 0usize;
    let mut max_backlog = 0usize;
    let mut depth_sum = 0usize;
    for (i, w) in timings.iter().enumerate() {
        let ready = w.ready_round as f64 * cfg.round_ns;
        // Windows not yet finished when this one becomes ready (FIFO ⇒
        // finish times are non-decreasing ⇒ binary search works).
        let done = finishes.partition_point(|&f| f <= ready);
        let depth = i - done + 1;
        max_backlog = max_backlog.max(depth);
        depth_sum += depth;
        trace.push(BacklogSample { t_ns: ready, depth });
        let start = server_free.max(ready);
        let finish = start + w.service_ns;
        server_free = finish;
        finishes.push(finish);
        let reaction = finish - ready;
        if reaction > cfg.deadline_ns {
            misses += 1;
        }
        reactions.push(reaction);
    }
    let windows = timings.len();
    BacklogReport {
        windows,
        reaction: LatencyStats::from_samples(&mut reactions),
        miss_fraction: if windows == 0 {
            0.0
        } else {
            misses as f64 / windows as f64
        },
        max_backlog,
        mean_backlog: if windows == 0 {
            0.0
        } else {
            depth_sum as f64 / windows as f64
        },
        trace,
    }
}

/// Resolves a window's service time: the decoder-reported hardware
/// latency when present, otherwise the fallback model at the window's
/// Hamming weight.
pub fn service_ns(latency_ns: Option<f64>, hw: usize, fallback: &dyn LatencyModel) -> f64 {
    latency_ns.unwrap_or_else(|| fallback.latency_ns(hw))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that charges every Hamming weight the same.
    struct Flat(f64);

    impl LatencyModel for Flat {
        fn latency_ns(&self, _hw: usize) -> f64 {
            self.0
        }
    }

    fn uniform(n: u64, every: u64, service: f64) -> Vec<WindowTiming> {
        (0..n)
            .map(|i| WindowTiming {
                ready_round: (i + 1) * every,
                service_ns: service,
            })
            .collect()
    }

    #[test]
    fn underloaded_server_never_queues() {
        // Windows every 2 rounds (2000 ns), service 500 ns: reaction is
        // exactly the service time and the backlog never exceeds 1.
        let t = uniform(100, 2, 500.0);
        let r = simulate_backlog(&t, &BacklogConfig::with_commit_deadline(1000.0, 2));
        assert_eq!(r.windows, 100);
        assert_eq!(r.reaction.p50_ns, 500.0);
        assert_eq!(r.reaction.max_ns, 500.0);
        assert_eq!(r.max_backlog, 1);
        assert_eq!(r.miss_fraction, 0.0);
    }

    #[test]
    fn overloaded_server_builds_linear_backlog() {
        // Service 3000 ns, windows every 2000 ns: each window waits
        // 1000 ns longer than the previous one.
        let t = uniform(50, 2, 3000.0);
        let r = simulate_backlog(&t, &BacklogConfig::with_commit_deadline(1000.0, 2));
        // Window i (0-based) reacts in 3000 + i*1000 ns.
        assert_eq!(r.reaction.max_ns, 3000.0 + 49.0 * 1000.0);
        assert!(r.miss_fraction > 0.9, "{}", r.miss_fraction);
        // Service/arrival ratio 3/2 ⇒ queue grows by one window every
        // three arrivals: depth_i = i − ⌊(2i−3)/3⌋ ⇒ 18 at i = 49.
        assert_eq!(r.max_backlog, 18);
        // Backlog trace is non-decreasing for a uniformly overloaded
        // stream.
        let depths: Vec<usize> = r.trace.iter().map(|s| s.depth).collect();
        assert!(depths.windows(2).all(|w| w[1] >= w[0]));
    }

    #[test]
    fn deadline_separates_hit_from_miss() {
        let t = uniform(10, 2, 1500.0);
        let hit = simulate_backlog(
            &t,
            &BacklogConfig {
                round_ns: 1000.0,
                deadline_ns: 1500.0,
            },
        );
        assert_eq!(hit.miss_fraction, 0.0);
        let miss = simulate_backlog(
            &t,
            &BacklogConfig {
                round_ns: 1000.0,
                deadline_ns: 1499.0,
            },
        );
        assert_eq!(miss.miss_fraction, 1.0);
    }

    #[test]
    fn stats_of_known_distribution() {
        let mut samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_samples(&mut samples);
        assert_eq!(s.max_ns, 100.0);
        assert_eq!(s.mean_ns, 50.5);
        assert_eq!(s.p50_ns, 51.0); // index round(0.5*99) = 50
        assert_eq!(s.p99_ns, 99.0); // index round(0.99*99) = 98
        let mut empty: Vec<f64> = Vec::new();
        assert_eq!(LatencyStats::from_samples(&mut empty).max_ns, 0.0);
    }

    #[test]
    fn trace_buckets_keep_worst_depth() {
        let t = uniform(40, 1, 2500.0);
        let r = simulate_backlog(&t, &BacklogConfig::with_commit_deadline(1000.0, 1));
        let buckets = r.trace_buckets(4);
        assert_eq!(buckets.len(), 4);
        // Monotone overload: last bucket holds the global max.
        assert_eq!(*buckets.last().unwrap(), r.max_backlog);
        assert!(r.trace_buckets(0).is_empty());
    }

    #[test]
    fn service_resolution_prefers_reported_latency() {
        let fallback = Flat(123.0);
        assert_eq!(service_ns(Some(7.0), 5, &fallback), 7.0);
        assert_eq!(service_ns(None, 5, &fallback), 123.0);
    }

    #[test]
    fn empty_stream_is_a_clean_report() {
        let r = simulate_backlog(&[], &BacklogConfig::with_commit_deadline(1000.0, 1));
        assert_eq!(r.windows, 0);
        assert_eq!(r.miss_fraction, 0.0);
        assert_eq!(r.max_backlog, 0);
        assert!(r.trace.is_empty());
    }
}
