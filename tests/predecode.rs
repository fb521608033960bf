//! Differential equivalence suite for the batch (L1) predecoder tier.
//!
//! The pinball-style predecoder may only ever *shed* work, never change
//! an answer: whenever a window's batch is classified non-complex and
//! resolved at L1, the committed logical outcome must be bit-identical
//! to the un-predecoded sliding-window path. Three layers of pinning:
//!
//! 1. **Property test.** Seam-free syndromes (clusters confined to one
//!    commit region) decode identically with and without L1, for every
//!    Table-2 decoder kind and every tested `(window, commit)` split.
//! 2. **Exhaustive single-mechanism sweep.** Every DEM mechanism in the
//!    shared context, decoded both ways, deterministic.
//! 3. **Golden fixture.** `tests/fixtures/sd6_d5_predecode.tsv` pins the
//!    L1 round-cancellation algebra (per-shot L1/escalation counts and
//!    committed observables) on naturally sampled SD6 d = 5 streams;
//!    regenerate after an intentional change with
//!    `PROMATCH_BLESS=1 cargo test --test predecode`.

mod common;

use common::{confined_mechanisms, ctx, steps, SPLITS};
use promatch_repro::decoding_graph::LayerMap;
use promatch_repro::ler::{DecoderKind, ExperimentContext};
use promatch_repro::qsim::FrameSampler;
use promatch_repro::realtime::{PredecodeMode, SlidingWindowDecoder, WindowConfig};
use promatch_repro::surface_code::NoiseModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Decodes one syndrome through the sliding window twice — L1 off and
/// L1 on — and asserts the differential contract: whenever every window
/// verified non-complex, the failure flag and committed observable are
/// bit-identical to the un-predecoded path. Complex batches fall back to
/// greedy round cancellation and may legally commit a different (tied or
/// heavier) correction; their aggregate accuracy is adjudicated by the
/// Wilson-band threshold suite instead.
fn assert_equivalent(
    kind: DecoderKind,
    cfg: WindowConfig,
    layers: &LayerMap,
    dets: &[promatch_repro::decoding_graph::DetectorId],
) -> (bool, u64) {
    let ctx = ctx();
    let mut off = SlidingWindowDecoder::new(&ctx.graph, layers.clone(), kind, cfg);
    let baseline = off.decode_shot(dets);
    let mut on = SlidingWindowDecoder::new(&ctx.graph, layers.clone(), kind, cfg)
        .with_predecode(PredecodeMode::Batch);
    let predecoded = on.decode_shot(dets);
    let complex = predecoded.windows.iter().any(|w| w.escalated);
    if !complex {
        assert_eq!(
            baseline.failed,
            predecoded.failed,
            "{}: failure flags diverge on {:?} (w={}, c={})",
            kind.label(),
            dets,
            cfg.window,
            cfg.commit,
        );
        if !baseline.failed {
            assert_eq!(
                baseline.obs_flip,
                predecoded.obs_flip,
                "{}: commits diverge on {:?} (w={}, c={})",
                kind.label(),
                dets,
                cfg.window,
                cfg.commit,
            );
        }
    }
    for w in &predecoded.windows {
        assert!(!(w.l1_resolved && w.escalated), "window both L1 and L2");
        if w.l1_resolved {
            assert_eq!(w.solver_hw, 0, "L1-resolved window reached the solver");
        }
    }
    (complex, predecoded.l1_rounds())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// L1 + escalation is bit-identical to the un-predecoded path for
    /// every Table-2 decoder on seam-free syndromes, across all
    /// `(window, commit)` splits.
    #[test]
    fn predecoded_commits_match_unpredecoded_on_seam_free_syndromes(
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
            assert_equivalent(kind, cfg, &layers, &shot.dets);
        }
    }
}

/// Exhaustive deterministic sweep: every single DEM mechanism decodes
/// identically with and without L1, under the default split, for every
/// Table-2 decoder kind. Single mechanisms are where the L1 tier does
/// almost all of its real-world shedding, so this corner is pinned
/// exhaustively rather than sampled.
#[test]
fn every_single_mechanism_decodes_identically_with_predecoding() {
    let ctx = ctx();
    let layers = LayerMap::from_graph(&ctx.graph).unwrap();
    let cfg = WindowConfig::new(4, 2).unwrap();
    let mut l1_rounds_total = 0u64;
    for kind in DecoderKind::table2() {
        for m in 0..ctx.dem.errors.len() {
            let shot = ctx.dem.symptom_of(&[m]);
            let (_, l1_rounds) = assert_equivalent(kind, cfg, &layers, &shot.dets);
            l1_rounds_total += l1_rounds;
        }
    }
    // The sweep must actually exercise the L1 fast path, not just
    // escalate everything.
    assert!(l1_rounds_total > 0, "no mechanism was ever resolved at L1");
}

// ---------------------------------------------------------------------
// Golden fixture: the L1 round-cancellation algebra on SD6 d = 5.
// ---------------------------------------------------------------------

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("sd6_d5_predecode.tsv")
}

fn blessing() -> bool {
    std::env::var("PROMATCH_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Renders the pinned per-shot predecode trace: committed observable,
/// failure flag, L1-resolved rounds, escalated windows, and the
/// per-window `l1`/`esc`/`solver-hw` trace.
fn render_predecode_trace() -> String {
    // 5e-3 rather than the headline 1e-3: dense enough that the trace
    // pins both the verified L1 fast path and the complex
    // cancellation/escalation path in the same 24 shots.
    let ctx = ExperimentContext::with_noise(
        promatch_repro::surface_code::MemoryBasis::Z,
        5,
        5,
        &NoiseModel::sd6(5e-3),
        5e-3,
    );
    let layers = LayerMap::from_graph(&ctx.graph).unwrap();
    let mut rng = StdRng::seed_from_u64(0x9A7C4);
    let sampled = FrameSampler::new(&ctx.circuit).sample_shots(24, &mut rng);
    let mut swd = SlidingWindowDecoder::new(
        &ctx.graph,
        layers,
        DecoderKind::Mwpm,
        WindowConfig::new(4, 2).unwrap(),
    )
    .with_predecode(PredecodeMode::Batch);
    let mut out = String::from("# shot\thw\tobs\tfailed\tl1_rounds\tescalated\twindows\n");
    for (i, shot) in sampled.iter().enumerate() {
        let o = swd.decode_shot(&shot.dets);
        let windows: Vec<String> = o
            .windows
            .iter()
            .map(|w| {
                format!(
                    "{}{}:{}",
                    if w.l1_resolved { "l1" } else { "-" },
                    if w.escalated { "esc" } else { "-" },
                    w.solver_hw
                )
            })
            .collect();
        out.push_str(&format!(
            "{i}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            shot.dets.len(),
            o.obs_flip,
            u8::from(o.failed),
            o.l1_rounds(),
            o.escalated_windows(),
            windows.join(",")
        ));
    }
    out
}

#[test]
fn sd6_d5_predecode_trace_matches_golden_fixture() {
    let path = fixture_path();
    let actual = render_predecode_trace();
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing predecode fixture {} ({e}); run \
             PROMATCH_BLESS=1 cargo test --test predecode",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "L1 predecode trace drifted from fixture {}; if the algebra change \
         is intentional, regenerate with PROMATCH_BLESS=1 cargo test --test predecode",
        path.display()
    );
}
