//! Threshold-behaviour integration tests.
//!
//! The definitive physics validation of the whole stack: below the
//! surface-code threshold, increasing the distance must *reduce* the
//! logical error rate; above it, increasing the distance must *increase*
//! it. Run under the standard noise families at error rates far enough
//! from the threshold for small-sample statistics to be decisive.

use promatch_repro::decoding_graph::{Decoder, DecodingGraph, PathTable, SeamPolicy, WindowCache};
use promatch_repro::ler::{
    run_eq1, wilson_interval, DecoderKind, Eq1Config, ExperimentContext, RateInterval,
};
use promatch_repro::mwpm::MwpmDecoder;
use promatch_repro::qsim::{extract_dem, FrameSampler};
use promatch_repro::realtime::{
    run_stream, BacklogConfig, Instruments, PredecodeMode, StreamRunConfig, StreamRunResult,
    WindowConfig,
};
use promatch_repro::surface_code::{MemoryBasis, NoiseModel, RotatedSurfaceCode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Monte-Carlo logical failure count for a memory-Z experiment.
fn failures(d: u32, rounds: u32, noise: &NoiseModel, shots: usize, seed: u64) -> usize {
    let code = RotatedSurfaceCode::new(d);
    let circuit = code.memory_z_circuit(rounds, noise);
    let dem = extract_dem(&circuit);
    let graph = DecodingGraph::from_dem(&dem);
    let paths = PathTable::build(&graph);
    let mut dec = MwpmDecoder::new(&graph, &paths);
    let mut rng = StdRng::seed_from_u64(seed);
    FrameSampler::new(&circuit)
        .sample_shots(shots, &mut rng)
        .iter()
        .filter(|s| {
            let out = dec.decode(&s.dets);
            out.failed || out.obs_flip != s.obs
        })
        .count()
}

#[test]
fn code_capacity_below_threshold_distance_helps() {
    // Depolarizing data noise at 4% (well below the ~15% depolarizing /
    // ~10% bit-flip MWPM threshold): d = 5 must clearly beat d = 3.
    let noise = NoiseModel::code_capacity(0.04);
    let f3 = failures(3, 1, &noise, 20_000, 1);
    let f5 = failures(5, 1, &noise, 20_000, 2);
    assert!(
        f5 * 2 < f3,
        "below threshold d=5 ({f5}) must be at least 2x better than d=3 ({f3})"
    );
}

#[test]
fn code_capacity_above_threshold_distance_hurts() {
    // At 40% depolarizing noise the code is far above threshold: larger
    // distance concentrates the failure probability toward 1/2 and
    // cannot be better.
    let noise = NoiseModel::code_capacity(0.40);
    let f3 = failures(3, 1, &noise, 8_000, 3);
    let f5 = failures(5, 1, &noise, 8_000, 4);
    assert!(
        f5 + 200 > f3,
        "above threshold d=5 ({f5}) must not beat d=3 ({f3})"
    );
}

#[test]
fn phenomenological_below_threshold_distance_helps() {
    // p = 0.8% with measurement noise over d rounds (threshold ≈ 3%).
    let noise = NoiseModel::phenomenological(0.008);
    let f3 = failures(3, 3, &noise, 30_000, 5);
    let f5 = failures(5, 5, &noise, 30_000, 6);
    assert!(
        f5 * 2 < f3.max(1),
        "below threshold d=5 ({f5}) must improve on d=3 ({f3})"
    );
}

#[test]
fn circuit_level_below_threshold_distance_helps() {
    // Full circuit-level noise at p = 1e-3 (threshold ≈ 1e-2): the
    // paper's regime, scaled up for direct Monte Carlo.
    let noise = NoiseModel::uniform(1e-3);
    let f3 = failures(3, 3, &noise, 30_000, 7);
    let f5 = failures(5, 5, &noise, 30_000, 8);
    assert!(
        f5 < f3.max(2),
        "below threshold d=5 ({f5}) must improve on d=3 ({f3})"
    );
}

/// Equation-1 MWPM Wilson interval under SD6 circuit-level noise at
/// p = 1e-3 (the statistical acceptance configuration; run_eq1 is
/// bit-identical for every worker-thread count, so these numbers do not
/// depend on `PROMATCH_THREADS`).
fn sd6_mwpm_interval(d: u32) -> RateInterval {
    let ctx = ExperimentContext::with_noise(MemoryBasis::Z, d, d, &NoiseModel::sd6(1e-3), 1e-3);
    let cfg = Eq1Config {
        k_max: 16,
        shots_per_k: 300,
        seed: 2024,
        threads: 0,
    };
    let report = run_eq1(&ctx, &[DecoderKind::Mwpm], &cfg);
    report.ler_interval_of(DecoderKind::Mwpm).unwrap()
}

/// Statistical acceptance: the circuit-level MWPM LER at (d = 5, 7;
/// p = 1e-3) must fall in precomputed confidence bands. The bands are
/// the blessed point estimates widened by 4x in both directions —
/// generous against sampling-configuration tweaks, decisive against
/// physics drift (a lost noise channel or broken detector moves the
/// estimate by an order of magnitude). Too slow for debug builds; CI
/// runs this under `--release`.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical suite runs in release (see CI)"
)]
fn circuit_level_ler_falls_in_precomputed_bands() {
    // Blessed estimates (seed 2024, k_max 16, 300 shots/k):
    // d=5: 2.7e-4, d=7: 7.9e-5.
    for (d, blessed) in [(5u32, 2.7e-4), (7, 7.9e-5)] {
        let iv = sd6_mwpm_interval(d);
        let (lo, hi) = (blessed / 4.0, blessed * 4.0);
        assert!(
            iv.estimate >= lo && iv.estimate <= hi,
            "d={d}: estimate {:.3e} outside precomputed band [{lo:.3e}, {hi:.3e}]",
            iv.estimate
        );
        assert!(
            iv.low <= iv.estimate && iv.estimate <= iv.high,
            "d={d}: malformed interval {iv:?}"
        );
        // The Wilson interval must be informative at this sample size.
        assert!(iv.high < 5e-2, "d={d}: upper bound degenerate: {iv:?}");
    }
}

/// Statistical acceptance: under circuit-level noise below threshold,
/// the MWPM LER must decrease strictly with distance.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical suite runs in release (see CI)"
)]
fn circuit_level_mwpm_ler_decreases_with_distance() {
    let l3 = sd6_mwpm_interval(3).estimate;
    let l5 = sd6_mwpm_interval(5).estimate;
    let l7 = sd6_mwpm_interval(7).estimate;
    assert!(
        l3 > l5 && l5 > l7,
        "LER must fall with d: d3={l3:.3e}, d5={l5:.3e}, d7={l7:.3e}"
    );
    // Below threshold the suppression per distance step should be
    // substantial, not marginal.
    assert!(l3 > 2.0 * l5, "d3={l3:.3e} vs d5={l5:.3e}");
}

#[test]
fn noise_family_severity_is_ordered() {
    // At matched p and rounds, circuit-level noise produces at least as
    // many detection events as phenomenological, which beats
    // code-capacity: a sanity ordering of the noise families.
    let p = 5e-3;
    let event_rate = |noise: &NoiseModel| {
        let code = RotatedSurfaceCode::new(3);
        let circuit = code.memory_z_circuit(3, noise);
        let mut rng = StdRng::seed_from_u64(9);
        let shots = FrameSampler::new(&circuit).sample_shots(4_000, &mut rng);
        shots.iter().map(|s| s.dets.len()).sum::<usize>() as f64 / 4_000.0
    };
    let cc = event_rate(&NoiseModel::code_capacity(p));
    let ph = event_rate(&NoiseModel::phenomenological(p));
    let cl = event_rate(&NoiseModel::uniform(p));
    assert!(cc < ph, "code capacity {cc} vs phenomenological {ph}");
    assert!(ph < cl, "phenomenological {ph} vs circuit-level {cl}");
}

/// One streamed sliding-window MWPM run under SD6 circuit-level noise,
/// with or without the L1 batch predecoder. Identical seeds stream
/// identical syndromes, so the off/batch runs differ only where complex
/// batches commit a different correction.
fn sd6_stream(
    d: u32,
    p: f64,
    shots: usize,
    seed: u64,
    predecode: PredecodeMode,
) -> StreamRunResult {
    let ctx = ExperimentContext::with_noise(MemoryBasis::Z, d, d, &NoiseModel::sd6(p), p);
    let cfg = StreamRunConfig {
        shots,
        seed,
        window: WindowConfig::new(4, 2).unwrap(),
        backlog: BacklogConfig::with_commit_deadline(1_000.0, 2),
        predecode,
    };
    let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
    run_stream(
        &ctx.graph,
        &ctx.circuit,
        DecoderKind::Mwpm,
        &cfg,
        &cache,
        Instruments::default(),
    )
}

/// Statistical acceptance for the batch predecoder tier: at (d = 5, 7;
/// p = 1e-3) the streamed LER with `--predecode batch` must sit inside
/// the 95% Wilson band of the un-predecoded baseline. The verified L1
/// fast path is bit-identical by construction (see `tests/predecode.rs`);
/// this band bounds whatever the greedy complex-batch fallback adds.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical suite runs in release (see CI)"
)]
fn predecoded_ler_stays_inside_unpredecoded_wilson_bands() {
    // d = 7 runs at p = 2e-3: at the headline 1e-3 its LER is so low
    // that 12k shots see no failures at all and the band is vacuous.
    for (d, p, shots, seed) in [(5u32, 1e-3, 30_000usize, 0xD5u64), (7, 2e-3, 12_000, 0xD7)] {
        let off = sd6_stream(d, p, shots, seed, PredecodeMode::Off);
        let on = sd6_stream(d, p, shots, seed, PredecodeMode::Batch);
        let band = wilson_interval(off.failures, shots as u64, 1.96);
        assert!(
            off.failures > 0,
            "d={d}: statistics too thin to be meaningful"
        );
        assert!(
            on.ler >= band.low && on.ler <= band.high,
            "d={d}: predecoded LER {:.3e} outside un-predecoded 95% Wilson band \
             [{:.3e}, {:.3e}] (off {} failures, batch {} failures)",
            on.ler,
            band.low,
            band.high,
            off.failures,
            on.failures,
        );
        assert_eq!(off.l1_rounds, 0, "d={d}: baseline must not shed rounds");
    }
}

/// Statistical acceptance: at p = 1e-3 the L1 tier must resolve more
/// than 90% of all streamed rounds before any matching solver runs —
/// the headline shed the Pinball-style tier exists to deliver.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical suite runs in release (see CI)"
)]
fn l1_resolves_over_ninety_percent_of_rounds_at_p_1e3() {
    let run = sd6_stream(5, 1e-3, 4_000, 0x11, PredecodeMode::Batch);
    let fraction = run.l1_rounds_fraction();
    assert!(
        fraction > 0.9,
        "L1 resolved only {:.1}% of rounds (escalation fraction {:.1}%)",
        100.0 * fraction,
        100.0 * run.escalation_fraction(),
    );
    // The complement sanity check: escalation stays a small minority.
    assert!(
        run.escalation_fraction() < 0.5,
        "escalation fraction {:.2} out of range",
        run.escalation_fraction()
    );
}
