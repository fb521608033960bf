//! The Equation-1 LER estimator and direct Monte-Carlo runner.
//!
//! Both runners are **thread-count independent**: work is split into
//! fixed-size shot chunks, every chunk carries its own RNG stream seeded
//! by `(seed, k, chunk)`, and chunks are assigned to workers round-robin.
//! The same seed therefore yields bit-identical reports whether the run
//! uses 1 thread or N — only wall-clock time changes. Each worker builds
//! its decoders once and streams whole chunks through
//! [`Decoder::decode_batch`](decoding_graph::Decoder), so the
//! steady-state decode loop performs no scratch allocation.

use crate::context::{DecoderKind, ExperimentContext};
use crate::injection::InjectionSampler;
use decoding_graph::{DecodeOutcome, SyndromeBatch};
use qsim::FrameSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shots per seeding chunk of [`run_eq1`]. Fixed so that results do not
/// depend on the worker-thread count.
pub const EQ1_SHOT_CHUNK: usize = 64;

/// Shots per seeding chunk of [`run_monte_carlo`].
pub const MONTE_CARLO_SHOT_CHUNK: usize = 1024;

/// Configuration of an Equation-1 run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Eq1Config {
    /// Maximum number of injected mechanisms (the paper uses 24).
    pub k_max: usize,
    /// Syndromes sampled per `k`.
    pub shots_per_k: usize,
    /// RNG seed; every decoder sees identical syndromes.
    pub seed: u64,
    /// Worker threads (0 = `PROMATCH_THREADS` env override, falling back
    /// to the available parallelism). The thread count never affects the
    /// results, only the wall-clock time.
    pub threads: usize,
}

impl Default for Eq1Config {
    fn default() -> Self {
        Eq1Config {
            k_max: 24,
            shots_per_k: 2_000,
            seed: 0xA5B5C5,
            threads: 0,
        }
    }
}

/// Per-decoder Equation-1 results.
#[derive(Clone, Debug)]
pub struct DecoderLer {
    /// Decoder configuration.
    pub kind: DecoderKind,
    /// Failures observed at each `k` (index 0 unused).
    pub failures_per_k: Vec<u64>,
    /// Failures on shots where the *baseline* decoder (first in the run)
    /// succeeded — the decoder's excess over the baseline, measurable
    /// even when the baseline's own LER is below sampling resolution.
    pub excess_per_k: Vec<u64>,
    /// The Equation-1 logical error rate estimate.
    pub ler: f64,
    /// The Equation-1 estimate of the excess over the baseline.
    pub excess_ler: f64,
}

/// Full Equation-1 report for one context.
#[derive(Clone, Debug)]
pub struct Eq1Report {
    /// Occurrence probabilities `P_o(k)`, `k = 0..=k_max`.
    pub p_occ: Vec<f64>,
    /// Shots per `k` actually run.
    pub shots_per_k: usize,
    /// Per-decoder results, in input order.
    pub decoders: Vec<DecoderLer>,
}

impl Eq1Report {
    /// The LER estimate for `kind`, if it was part of the run.
    pub fn ler_of(&self, kind: DecoderKind) -> Option<f64> {
        self.decoders.iter().find(|d| d.kind == kind).map(|d| d.ler)
    }

    /// 95% Wilson confidence interval on the LER of `kind`.
    pub fn ler_interval_of(&self, kind: DecoderKind) -> Option<crate::stats::RateInterval> {
        self.decoders.iter().find(|d| d.kind == kind).map(|d| {
            crate::stats::eq1_interval(
                &self.p_occ,
                &d.failures_per_k,
                self.shots_per_k as u64,
                1.96,
            )
        })
    }
}

/// Runs the Equation-1 estimator: for each `k ≤ k_max`, sample syndromes
/// with exactly `k` mechanisms fired, decode each with **every** listed
/// decoder (paired comparison), and combine failure rates with the
/// occurrence probabilities:
///
/// `LER = Σ_k P_o(k) · P_f(k)` (Equation 1 of the paper).
pub fn run_eq1(ctx: &ExperimentContext, kinds: &[DecoderKind], cfg: &Eq1Config) -> Eq1Report {
    let sampler = InjectionSampler::new(&ctx.dem);
    let p_occ = sampler.occurrence_probabilities(cfg.k_max);
    let threads = effective_threads(cfg.threads);
    let num_chunks = cfg.shots_per_k.div_ceil(EQ1_SHOT_CHUNK);

    // (failures[d][k], excess[d][k])
    let (failures, excess): (Vec<Vec<u64>>, Vec<Vec<u64>>) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let sampler = &sampler;
            let kinds_ref = kinds;
            handles.push(scope.spawn(move || {
                let mut local = vec![vec![0u64; cfg.k_max + 1]; kinds_ref.len()];
                let mut local_excess = vec![vec![0u64; cfg.k_max + 1]; kinds_ref.len()];
                // One long-lived decoder set per worker: their internal
                // workspaces stay warm across every chunk.
                let mut decoders: Vec<_> =
                    kinds_ref.iter().map(|&kind| ctx.decoder(kind)).collect();
                let mut batch = SyndromeBatch::new();
                let mut obs_buf: Vec<u64> = Vec::new();
                let mut outcomes: Vec<DecodeOutcome> = Vec::new();
                let mut base_failed: Vec<bool> = Vec::new();
                for k in 1..=cfg.k_max {
                    // Chunks are assigned round-robin; each carries its
                    // own (seed, k, chunk)-derived RNG stream, so the
                    // failure totals cannot depend on the thread count.
                    for chunk in (t..num_chunks).step_by(threads) {
                        let mut rng = StdRng::seed_from_u64(chunk_seed(cfg.seed, k, chunk));
                        let lo = chunk * EQ1_SHOT_CHUNK;
                        let hi = ((chunk + 1) * EQ1_SHOT_CHUNK).min(cfg.shots_per_k);
                        batch.clear();
                        obs_buf.clear();
                        for _ in lo..hi {
                            let (shot, _) = sampler.sample_exact_k(&mut rng, k);
                            batch.push(&shot.dets);
                            obs_buf.push(shot.obs);
                        }
                        base_failed.clear();
                        base_failed.resize(batch.len(), false);
                        for (d, dec) in decoders.iter_mut().enumerate() {
                            dec.decode_batch(&batch, &mut outcomes);
                            for (s, out) in outcomes.iter().enumerate() {
                                let failed = out.failed || out.obs_flip != obs_buf[s];
                                if d == 0 {
                                    base_failed[s] = failed;
                                }
                                if failed {
                                    local[d][k] += 1;
                                    if !base_failed[s] {
                                        local_excess[d][k] += 1;
                                    }
                                }
                            }
                        }
                    }
                }
                (local, local_excess)
            }));
        }
        let mut total = vec![vec![0u64; cfg.k_max + 1]; kinds.len()];
        let mut total_excess = vec![vec![0u64; cfg.k_max + 1]; kinds.len()];
        for h in handles {
            let (local, local_excess) = h.join().expect("worker panicked");
            for (d, row) in local.into_iter().enumerate() {
                for (k, v) in row.into_iter().enumerate() {
                    total[d][k] += v;
                }
            }
            for (d, row) in local_excess.into_iter().enumerate() {
                for (k, v) in row.into_iter().enumerate() {
                    total_excess[d][k] += v;
                }
            }
        }
        (total, total_excess)
    });

    let eq1 = |row: &[u64]| -> f64 {
        (1..=cfg.k_max)
            .map(|k| p_occ[k] * row[k] as f64 / cfg.shots_per_k as f64)
            .sum()
    };
    let decoders = kinds
        .iter()
        .zip(failures.into_iter().zip(excess))
        .map(|(&kind, (fails, exc))| DecoderLer {
            kind,
            ler: eq1(&fails),
            excess_ler: eq1(&exc),
            failures_per_k: fails,
            excess_per_k: exc,
        })
        .collect();

    Eq1Report {
        p_occ,
        shots_per_k: cfg.shots_per_k,
        decoders,
    }
}

/// Direct Monte-Carlo result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonteCarloReport {
    /// Shots sampled.
    pub shots: u64,
    /// Logical failures observed.
    pub failures: u64,
    /// Failure rate per shot.
    pub ler: f64,
}

/// Samples `shots` circuit-level shots and decodes them with `kind`,
/// counting logical failures. Suitable when the LER is large enough to
/// observe directly (the regime of the quickstart examples). Like
/// [`run_eq1`], the report is identical for every thread count.
pub fn run_monte_carlo(
    ctx: &ExperimentContext,
    kind: DecoderKind,
    shots: u64,
    seed: u64,
    threads: usize,
) -> MonteCarloReport {
    let threads = effective_threads(threads);
    let num_chunks = (shots as usize).div_ceil(MONTE_CARLO_SHOT_CHUNK);
    let failures: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for t in 0..threads {
            handles.push(scope.spawn(move || {
                let sampler = FrameSampler::new(&ctx.circuit);
                let mut dec = ctx.decoder(kind);
                let mut fails = 0u64;
                for chunk in (t..num_chunks).step_by(threads) {
                    let mut rng = StdRng::seed_from_u64(chunk_seed(seed, 0, chunk));
                    let lo = chunk * MONTE_CARLO_SHOT_CHUNK;
                    let hi = ((chunk + 1) * MONTE_CARLO_SHOT_CHUNK).min(shots as usize);
                    for shot in sampler.sample_shots(hi - lo, &mut rng) {
                        let out = dec.decode(&shot.dets);
                        if out.failed || out.obs_flip != shot.obs {
                            fails += 1;
                        }
                    }
                }
                fails
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .sum()
    });
    MonteCarloReport {
        shots,
        failures,
        ler: failures as f64 / shots as f64,
    }
}

/// RNG seed of one `(k, chunk)` shot stream: independent of which worker
/// thread processes the chunk.
fn chunk_seed(seed: u64, k: usize, chunk: usize) -> u64 {
    // SplitMix64-style mixing keeps nearby (k, chunk) pairs decorrelated.
    let mut z = seed ^ ((k as u64) << 32) ^ chunk as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolves a requested worker-thread count: `0` defers to the
/// `PROMATCH_THREADS` environment override, then to the machine's
/// available parallelism. Exposed so callers that fan work out
/// themselves resolve the count the same way the runners do.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(env) = std::env::var("PROMATCH_THREADS") {
        if let Ok(n) = env.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_seeds_are_distinct_across_k_and_chunk() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for k in 0..16 {
            for chunk in 0..64 {
                assert!(seen.insert(chunk_seed(42, k, chunk)), "k={k} chunk={chunk}");
            }
        }
    }

    /// Satellite regression for the thread-count–dependence bug: the same
    /// seed must yield bit-identical reports at `threads = 1` and
    /// `threads = 4` (shots_per_k chosen to not divide the chunk size).
    #[test]
    fn eq1_reports_are_identical_across_thread_counts() {
        let ctx = ExperimentContext::new(3, 2e-3);
        let report = |threads: usize| {
            let cfg = Eq1Config {
                k_max: 4,
                shots_per_k: 150,
                seed: 0xDEC0DE,
                threads,
            };
            run_eq1(&ctx, &[DecoderKind::Mwpm, DecoderKind::AstreaG], &cfg)
        };
        let one = report(1);
        for threads in [2usize, 4] {
            let many = report(threads);
            for (a, b) in one.decoders.iter().zip(&many.decoders) {
                assert_eq!(a.failures_per_k, b.failures_per_k, "threads={threads}");
                assert_eq!(a.excess_per_k, b.excess_per_k, "threads={threads}");
                assert_eq!(a.ler, b.ler, "threads={threads}");
            }
        }
    }

    #[test]
    fn monte_carlo_is_identical_across_thread_counts() {
        let ctx = ExperimentContext::new(3, 2e-3);
        let one = run_monte_carlo(&ctx, DecoderKind::Mwpm, 2500, 31, 1);
        let four = run_monte_carlo(&ctx, DecoderKind::Mwpm, 2500, 31, 4);
        assert_eq!(one, four);
    }

    #[test]
    fn eq1_mwpm_never_fails_at_k1() {
        // Single mechanisms are always corrected by exact MWPM, so the
        // k = 1 failure row must be zero.
        let ctx = ExperimentContext::new(3, 1e-3);
        let cfg = Eq1Config {
            k_max: 2,
            shots_per_k: 200,
            seed: 7,
            threads: 2,
        };
        let report = run_eq1(&ctx, &[DecoderKind::Mwpm], &cfg);
        assert_eq!(report.decoders[0].failures_per_k[1], 0);
    }

    #[test]
    fn eq1_orders_decoders_sensibly() {
        // Paired comparison at d=3: MWPM must not lose to Smith+Astrea.
        let ctx = ExperimentContext::new(3, 1e-3);
        let cfg = Eq1Config {
            k_max: 4,
            shots_per_k: 300,
            seed: 8,
            threads: 2,
        };
        let report = run_eq1(&ctx, &[DecoderKind::Mwpm, DecoderKind::SmithAstrea], &cfg);
        let mwpm = report.ler_of(DecoderKind::Mwpm).unwrap();
        let smith = report.ler_of(DecoderKind::SmithAstrea).unwrap();
        // Min-weight decoding is not max-likelihood shot-by-shot, so a
        // greedy decoder can win individual samples; allow a 10% margin.
        assert!(
            mwpm <= smith * 1.10 + 1e-9,
            "MWPM {mwpm} vs Smith+Astrea {smith}"
        );
    }

    #[test]
    fn eq1_is_deterministic_given_seed() {
        let ctx = ExperimentContext::new(3, 1e-3);
        let cfg = Eq1Config {
            k_max: 3,
            shots_per_k: 100,
            seed: 9,
            threads: 2,
        };
        let a = run_eq1(&ctx, &[DecoderKind::Mwpm], &cfg);
        let b = run_eq1(&ctx, &[DecoderKind::Mwpm], &cfg);
        assert_eq!(a.decoders[0].failures_per_k, b.decoders[0].failures_per_k);
    }

    #[test]
    fn monte_carlo_reports_consistent_counts() {
        let ctx = ExperimentContext::new(3, 2e-3);
        let r = run_monte_carlo(&ctx, DecoderKind::Mwpm, 2000, 11, 2);
        assert_eq!(r.shots, 2000);
        assert!(r.ler <= 1.0);
        assert_eq!(r.failures as f64 / r.shots as f64, r.ler);
    }
}
