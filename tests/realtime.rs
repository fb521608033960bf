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

mod common;

use common::{confined_mechanisms, ctx, steps, SPLITS};
use promatch_repro::decoding_graph::{LayerMap, PathTable, SeamPolicy, WindowCache};
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
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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

/// Path tables are keyed by what they hold, not by position. On a
/// d = 13, (6, 3) stream with L1 on, at 13 and at 52 rounds, every
/// range the stream built maps to the one table of its shape — its
/// width and whether it starts at the first layer or ends at the last —
/// so there are exactly as many tables as shapes, and every bulk window
/// (a step's own range clear of both ends) shares one table. How many
/// shapes a stream meets is the traffic's: carried defects extend a
/// range below its step, deeper on rarer shots.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "statistical suite runs in release (see CI)"
)]
fn path_tables_follow_range_shapes_not_positions() {
    let (window, commit) = (6, 3);
    for rounds in [13, 52] {
        let ctx = ExperimentContext::with_noise(
            promatch_repro::surface_code::MemoryBasis::Z,
            13,
            rounds,
            &NoiseModel::sd6(1e-3),
            1e-3,
        );
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        let last = layers.num_layers();
        let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
        let mut swd = SlidingWindowDecoder::with_cache(
            &ctx.graph,
            Arc::new(layers.clone()),
            DecoderKind::PromatchParAg,
            WindowConfig::new(window, commit).unwrap(),
            Arc::clone(&cache),
        )
        .with_predecode(PredecodeMode::Batch);
        let mut rng = StdRng::seed_from_u64(0x7AB1E);
        for shot in FrameSampler::new(&ctx.circuit).sample_shots(64, &mut rng) {
            swd.decode_shot(&shot.dets);
        }
        // A step's range tops out at the step's window and may reach
        // down to any layer (carried defects extend it). Probe them all:
        // a probe that builds names a range the stream never used, so
        // only the hits are the cache's ranges.
        let used = cache.builds();
        let mut by_shape = HashMap::<_, HashSet<_>>::new();
        let mut bulk = HashSet::new();
        let mut ranges = 0;
        for (s, _) in steps(window, commit, last) {
            let hi = (s + window).min(last);
            for lo in 0..=s {
                let builds = cache.builds();
                let win = cache.get_or_build(&ctx.graph, layers.det_range(lo, hi), (lo, hi));
                if cache.builds() == builds {
                    ranges += 1;
                    let table = win.paths() as *const PathTable;
                    let shape = (hi - lo, lo == 0, hi == last);
                    by_shape.entry(shape).or_default().insert(table);
                    if lo == s && lo > 0 && hi < last {
                        bulk.insert(table);
                    }
                }
            }
        }
        assert_eq!(ranges, used, "every range the stream built was found");
        for (shape, tables) in &by_shape {
            assert_eq!(tables.len(), 1, "{rounds} rounds: shape {shape:?}");
        }
        let distinct: HashSet<_> = by_shape.values().flatten().collect();
        assert_eq!(
            distinct.len(),
            by_shape.len(),
            "{rounds} rounds: one table per shape"
        );
        assert_eq!(
            bulk.len(),
            1,
            "{rounds} rounds: the bulk windows share one table"
        );
        assert!(distinct.len() < ranges, "{rounds} rounds: {ranges} ranges");
    }
}
