//! End-to-end integration tests: the full pipeline from circuit
//! construction through every decoder configuration, asserting the
//! paper's qualitative results at test scale.

use promatch_repro::ler::{run_eq1, DecoderKind, Eq1Config, ExperimentContext, InjectionSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_ctx() -> ExperimentContext {
    ExperimentContext::new(5, 1e-3)
}

#[test]
fn every_table2_decoder_handles_circuit_sampled_shots() {
    let ctx = small_ctx();
    let sampler = qsim::FrameSampler::new(&ctx.circuit);
    let mut rng = StdRng::seed_from_u64(1);
    let shots = sampler.sample_shots(500, &mut rng);
    for kind in DecoderKind::table2() {
        let mut dec = ctx.decoder(kind);
        let mut failures = 0;
        for shot in &shots {
            let out = dec.decode(&shot.dets);
            if out.failed || out.obs_flip != shot.obs {
                failures += 1;
            }
        }
        // At p=1e-3, d=5, typical shots are easy: every decoder must be
        // overwhelmingly correct.
        assert!(failures < 25, "{}: {failures}/500 failures", kind.label());
    }
}

#[test]
fn paired_failure_ordering_matches_paper_structure() {
    // On identical high-k syndromes, the excess-over-MWPM ordering of the
    // paper's Table 2 must hold: Promatch||AG <= Promatch+Astrea, and
    // both beat Astrea-G; Smith+Astrea is the worst.
    let ctx = ExperimentContext::new(7, 1e-4);
    let sampler = InjectionSampler::new(&ctx.dem);
    let kinds = [
        DecoderKind::Mwpm,
        DecoderKind::PromatchParAg,
        DecoderKind::PromatchAstrea,
        DecoderKind::AstreaG,
        DecoderKind::SmithAstrea,
    ];
    let mut decoders: Vec<_> = kinds.iter().map(|&k| ctx.decoder(k)).collect();
    let mut rng = StdRng::seed_from_u64(2);
    let mut fails = [0u32; 5];
    for _ in 0..900 {
        let (shot, _) = sampler.sample_exact_k(&mut rng, 12);
        for (i, dec) in decoders.iter_mut().enumerate() {
            let out = dec.decode(&shot.dets);
            if out.failed || out.obs_flip != shot.obs {
                fails[i] += 1;
            }
        }
    }
    let [mwpm, par, pa, ag, smith] = fails;
    assert!(mwpm <= par + 3, "MWPM {mwpm} vs Promatch||AG {par}");
    assert!(par <= pa + 3, "Promatch||AG {par} vs Promatch+Astrea {pa}");
    assert!(pa < ag, "Promatch+Astrea {pa} vs Astrea-G {ag}");
    assert!(ag < smith, "Astrea-G {ag} vs Smith+Astrea {smith}");
}

#[test]
fn eq1_report_is_internally_consistent() {
    let ctx = small_ctx();
    let cfg = Eq1Config {
        k_max: 6,
        shots_per_k: 150,
        seed: 3,
        threads: 2,
    };
    let report = run_eq1(
        &ctx,
        &[DecoderKind::Mwpm, DecoderKind::PromatchAstrea],
        &cfg,
    );
    assert_eq!(report.p_occ.len(), 7);
    for dec in &report.decoders {
        // Excess is bounded by total failures at each k.
        for k in 0..=6 {
            assert!(dec.excess_per_k[k] <= dec.failures_per_k[k]);
            assert!(dec.failures_per_k[k] <= 150);
        }
        assert!(dec.excess_ler <= dec.ler + 1e-18);
    }
    // The baseline has zero excess over itself by definition.
    assert_eq!(report.decoders[0].excess_ler, 0.0);
}

#[test]
fn promatch_astrea_always_respects_the_realtime_budget() {
    let ctx = ExperimentContext::new(9, 1e-4);
    let sampler = InjectionSampler::new(&ctx.dem);
    let mut dec = ctx.decoder(DecoderKind::PromatchAstrea);
    let mut rng = StdRng::seed_from_u64(4);
    let mut decoded = 0;
    for k in (4..=16).cycle().take(1200) {
        let (shot, _) = sampler.sample_exact_k(&mut rng, k);
        let out = dec.decode(&shot.dets);
        if !out.failed {
            decoded += 1;
            let l = out.latency_ns.expect("hardware decoders report latency");
            assert!(l <= 960.0, "latency {l} ns exceeds the 960 ns budget");
        }
    }
    assert!(decoded > 1000, "decoder must succeed on the vast majority");
}

#[test]
fn clique_forwarding_cannot_extend_astreas_reach() {
    // Table 3's structural claim: Clique+Astrea fails on essentially
    // every non-trivial high-HW syndrome, while Clique+AG == AG.
    let ctx = ExperimentContext::new(7, 1e-4);
    let sampler = InjectionSampler::new(&ctx.dem);
    let mut clique_astrea = ctx.decoder(DecoderKind::CliqueAstrea);
    let mut clique_ag = ctx.decoder(DecoderKind::CliqueAg);
    let mut ag = ctx.decoder(DecoderKind::AstreaG);
    let mut rng = StdRng::seed_from_u64(5);
    let mut high_hw = 0;
    let mut ca_fail = 0;
    for _ in 0..400 {
        let (shot, _) = sampler.sample_exact_k(&mut rng, 10);
        if shot.dets.len() <= 10 {
            continue;
        }
        high_hw += 1;
        let out = clique_astrea.decode(&shot.dets);
        if out.failed || out.obs_flip != shot.obs {
            ca_fail += 1;
        }
        // Clique+AG produces exactly AG's answer on forwarded syndromes.
        let a = clique_ag.decode(&shot.dets);
        let b = ag.decode(&shot.dets);
        assert_eq!(a.obs_flip, b.obs_flip);
    }
    assert!(high_hw > 50);
    assert!(
        ca_fail as f64 / high_hw as f64 > 0.9,
        "Clique+Astrea must fail on almost all high-HW syndromes: {ca_fail}/{high_hw}"
    );
}

#[test]
fn smith_leaves_uncovered_high_hw_syndromes() {
    // The Figure 16/17 structural claim: after Smith, some syndromes
    // still exceed HW 10; after Promatch, none do (absent aborts).
    use promatch_repro::decoding_graph::Predecoder;
    use promatch_repro::predecoders::SmithPredecoder;
    use promatch_repro::promatch::PromatchPredecoder;
    let ctx = ExperimentContext::new(9, 1e-4);
    let sampler = InjectionSampler::new(&ctx.dem);
    let mut smith = SmithPredecoder::new(&ctx.graph);
    let mut promatch = PromatchPredecoder::new(&ctx.graph, ctx.paths());
    let mut rng = StdRng::seed_from_u64(6);
    let mut smith_overflow = 0;
    let mut promatch_overflow = 0;
    let mut samples = 0;
    for _ in 0..600 {
        let (shot, _) = sampler.sample_exact_k(&mut rng, 14);
        if shot.dets.len() <= 10 {
            continue;
        }
        samples += 1;
        if smith.predecode(&shot.dets).remaining_hw() > 10 {
            smith_overflow += 1;
        }
        let out = promatch.predecode(&shot.dets);
        if !out.aborted && out.remaining_hw() > 10 {
            promatch_overflow += 1;
        }
    }
    assert!(samples > 100);
    assert!(
        smith_overflow > 0,
        "Smith must leave some HW > 10 remainders"
    );
    assert_eq!(
        promatch_overflow, 0,
        "Promatch guarantees sufficient coverage"
    );
}
