//! Integration tests of the real-time streaming runtime.
//!
//! Two guarantees, matching the PR's acceptance criteria:
//!
//! 1. **Seam-free equivalence (property test).** For every Table-2
//!    decoder and every tested `(window, commit)` split, sliding-window
//!    decoding is bit-identical (same failure flag, same predicted
//!    observable flip) to whole-shot decoding on syndromes whose defect
//!    clusters never straddle a commit seam — each cluster sits strictly
//!    inside one window step's commit region, with a one-layer margin
//!    from the window seams so no shortest path is distorted by the cut.
//!
//! 2. **Seam-straddling accuracy (statistical test, release-only).**
//!    On naturally sampled SD6 d = 5 streams — where defects straddle
//!    seams all the time — windowed MWPM's logical error rate stays
//!    inside the 95 % Wilson band of whole-shot MWPM on the *same*
//!    shots.

use promatch_repro::decoding_graph::{LayerMap, SeamPolicy, WindowCache};
use promatch_repro::ler::{build_decoder, wilson_interval, DecoderKind, ExperimentContext};
use promatch_repro::qsim::FrameSampler;
use promatch_repro::realtime::{
    run_stream, BacklogConfig, Instruments, PredecodeMode, SlidingWindowDecoder, StreamRunConfig,
    WindowConfig,
};
use promatch_repro::surface_code::NoiseModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// The shared d = 3, 9-round context of the equivalence tests
/// (10 detector layers).
fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::with_rounds(3, 9, 1e-3))
}

/// The `(window, commit)` splits exercised, including the degenerate
/// whole-shot window.
const SPLITS: [(u32, u32); 4] = [(4, 2), (5, 3), (6, 3), (10, 10)];

/// The commit-step positions of a `(window, commit)` split over
/// `num_layers` layers (mirrors the sliding-window loop).
fn steps(window: u32, commit: u32, num_layers: u32) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut s = 0u32;
    loop {
        let hi = (s + window).min(num_layers);
        let commit_end = if hi == num_layers {
            num_layers
        } else {
            s + commit
        };
        out.push((s, commit_end));
        if hi == num_layers {
            return out;
        }
        s += commit;
    }
}

/// DEM mechanisms whose defects sit strictly inside the commit region of
/// step `(s, commit_end)`, one layer clear of the bottom seam.
fn confined_mechanisms(s: u32, commit_end: u32, layers: &LayerMap) -> Vec<usize> {
    let lo = if s == 0 { 0 } else { s + 1 };
    ctx()
        .dem
        .errors
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            e.dets.iter().all(|d| {
                let l = layers.layer_of(d);
                l >= lo && l < commit_end
            })
        })
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Windowed == whole-shot for every Table-2 decoder on syndromes
    /// confined to a single commit region.
    #[test]
    fn windowed_decode_matches_whole_shot(
        split_pick in 0usize..SPLITS.len(),
        step_pick in 0usize..32,
        count in 1usize..=3,
        m0 in 0usize..4096,
        m1 in 0usize..4096,
        m2 in 0usize..4096,
    ) {
        let ctx = ctx();
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        let (window, commit) = SPLITS[split_pick];
        let all_steps = steps(window, commit, layers.num_layers());
        let (s, commit_end) = all_steps[step_pick % all_steps.len()];
        let allowed = confined_mechanisms(s, commit_end, &layers);
        prop_assert!(!allowed.is_empty(), "step ({s},{commit_end}) has mechanisms");
        let picks = [m0, m1, m2];
        let mechs: Vec<usize> = (0..count)
            .map(|i| allowed[picks[i] % allowed.len()])
            .collect();
        let shot = ctx.dem.symptom_of(&mechs);
        let cfg = WindowConfig::new(window, commit).unwrap();
        for kind in DecoderKind::table2() {
            let mut whole = build_decoder(kind, &ctx.graph, ctx.paths());
            let direct = whole.decode(&shot.dets);
            let mut swd = SlidingWindowDecoder::new(&ctx.graph, layers.clone(), kind, cfg);
            let windowed = swd.decode_shot(&shot.dets);
            prop_assert_eq!(
                direct.failed, windowed.failed,
                "{}: failure flags diverge on {:?} (w={}, c={}, step {})",
                kind.label(), shot.dets, window, commit, s
            );
            if !direct.failed {
                prop_assert_eq!(
                    direct.obs_flip, windowed.obs_flip,
                    "{}: corrections diverge on {:?} (w={}, c={}, step {})",
                    kind.label(), shot.dets, window, commit, s
                );
            }
        }
    }
}

/// Every step of every tested split offers confined mechanisms, so the
/// property test above never runs on an empty strategy.
#[test]
fn every_step_has_confined_mechanisms() {
    let layers = LayerMap::from_graph(&ctx().graph).unwrap();
    for (window, commit) in SPLITS {
        for (s, commit_end) in steps(window, commit, layers.num_layers()) {
            assert!(
                !confined_mechanisms(s, commit_end, &layers).is_empty(),
                "no mechanisms inside step ({s},{commit_end}) of ({window},{commit})"
            );
        }
    }
}

/// Deferred-pair machinery is exercised by the equivalence corpus: at
/// least one confined syndrome must produce a deferral (the cluster is
/// seen — and punted — by an earlier window before its committing one).
#[test]
fn confined_clusters_still_exercise_deferral() {
    let ctx = ctx();
    let layers = LayerMap::from_graph(&ctx.graph).unwrap();
    let cfg = WindowConfig::new(5, 3).unwrap();
    let steps = steps(5, 3, layers.num_layers());
    let (s, commit_end) = steps[1]; // second commit region: carried work
    let allowed = confined_mechanisms(s, commit_end, &layers);
    let mut deferred_seen = false;
    for &m in &allowed {
        let shot = ctx.dem.symptom_of(&[m]);
        let mut swd = SlidingWindowDecoder::new(&ctx.graph, layers.clone(), DecoderKind::Mwpm, cfg);
        let out = swd.decode_shot(&shot.dets);
        assert!(!out.failed);
        assert_eq!(out.obs_flip, ctx.dem.errors[m].obs);
        deferred_seen |= out.windows.iter().any(|w| w.deferred > 0);
    }
    assert!(deferred_seen, "no confined cluster was ever deferred");
}

/// Seam-straddling statistical guarantee: windowed MWPM on an SD6 d = 5
/// stream stays inside the 95 % Wilson band of whole-shot MWPM over the
/// same shots.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical suite runs in release (see CI)"
)]
fn sd6_d5_windowed_ler_stays_in_whole_shot_wilson_band() {
    let ctx = ExperimentContext::with_noise(
        promatch_repro::surface_code::MemoryBasis::Z,
        5,
        5,
        &NoiseModel::sd6(2e-3),
        2e-3,
    );
    let layers = LayerMap::from_graph(&ctx.graph).unwrap();
    let shots = 30_000usize;
    let mut rng = StdRng::seed_from_u64(0x5EA7);
    let sampled = FrameSampler::new(&ctx.circuit).sample_shots(shots, &mut rng);
    let mut whole = ctx.decoder(DecoderKind::Mwpm);
    let mut swd = SlidingWindowDecoder::new(
        &ctx.graph,
        layers,
        DecoderKind::Mwpm,
        WindowConfig::new(4, 2).unwrap(),
    );
    let mut whole_failures = 0u64;
    let mut windowed_failures = 0u64;
    for shot in &sampled {
        let d = whole.decode(&shot.dets);
        if d.failed || d.obs_flip != shot.obs {
            whole_failures += 1;
        }
        let w = swd.decode_shot(&shot.dets);
        if w.failed || w.obs_flip != shot.obs {
            windowed_failures += 1;
        }
    }
    let band = wilson_interval(whole_failures, shots as u64, 1.96);
    let windowed_rate = windowed_failures as f64 / shots as f64;
    assert!(
        windowed_rate >= band.low && windowed_rate <= band.high,
        "windowed LER {windowed_rate:.2e} outside whole-shot Wilson band \
         [{:.2e}, {:.2e}] (whole {whole_failures}, windowed {windowed_failures})",
        band.low,
        band.high,
    );
    assert!(whole_failures > 0, "statistics too thin to be meaningful");
}

/// The full streaming harness (stream → windows → backlog) stays
/// accurate and deterministic on a circuit-level scenario.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical suite runs in release (see CI)"
)]
fn sd6_d5_stream_run_reports_sane_reaction_times() {
    let ctx = ExperimentContext::with_noise(
        promatch_repro::surface_code::MemoryBasis::Z,
        5,
        5,
        &NoiseModel::sd6(1e-3),
        1e-3,
    );
    let cfg = StreamRunConfig {
        shots: 2_000,
        seed: 77,
        window: WindowConfig::new(4, 2).unwrap(),
        backlog: BacklogConfig::with_commit_deadline(1000.0, 2),
        predecode: PredecodeMode::Off,
    };
    let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
    let stream = || {
        run_stream(
            &ctx.graph,
            &ctx.circuit,
            DecoderKind::PromatchParAg,
            &cfg,
            &cache,
            Instruments::default(),
        )
    };
    let (run, rerun) = (stream(), stream());
    assert_eq!(run, rerun, "stream runs must be deterministic");
    // Hardware-modeled decoder at 1 µs rounds: never falls behind.
    assert_eq!(run.backlog.max_backlog, 1);
    assert_eq!(run.backlog.miss_fraction, 0.0);
    assert!(run.backlog.reaction.p50_ns > 0.0);
    assert!(run.backlog.reaction.p99_ns <= 2000.0);
    // Streaming accuracy stays in the same decade as the physical rate.
    assert!(
        (run.ler) < 0.02,
        "windowed Promatch || AG LER too high: {}",
        run.ler
    );
}
