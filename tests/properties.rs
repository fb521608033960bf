//! Property-based integration tests over the decoder stack.

use promatch_repro::decoding_graph::{MatchTarget, Predecoder};
use promatch_repro::ler::{DecoderKind, ExperimentContext, InjectionSampler};
use promatch_repro::promatch::PromatchPredecoder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// One shared context: building it per proptest case would dominate.
fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::new(5, 1e-3))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Promatch's coverage guarantee: whatever mechanisms fire, the
    /// remainder fits Astrea unless the predecoder reports an abort.
    #[test]
    fn promatch_coverage_holds_for_any_mechanism_set(seed in any::<u64>(), k in 1usize..24) {
        let ctx = ctx();
        let sampler = InjectionSampler::new(&ctx.dem);
        let mut rng = StdRng::seed_from_u64(seed);
        let (shot, _) = sampler.sample_exact_k(&mut rng, k.min(ctx.dem.errors.len()));
        let mut pm = PromatchPredecoder::new(&ctx.graph, ctx.paths());
        let out = pm.predecode(&shot.dets);
        if !out.aborted && shot.dets.len() > 10 {
            prop_assert!(out.remaining.len() <= 10);
        }
        // Pairs + remainder partition the syndrome.
        let mut all: Vec<u32> = out
            .pairs
            .iter()
            .flat_map(|&(a, b)| [a, b])
            .chain(out.remaining.iter().copied())
            .collect();
        all.sort_unstable();
        if !out.aborted {
            prop_assert_eq!(all, shot.dets);
        }
    }

    /// Every decoder returns a matching that covers the syndrome exactly
    /// (when it reports matches at all), and never panics.
    #[test]
    fn decoders_partition_arbitrary_syndromes(seed in any::<u64>(), k in 1usize..16) {
        let ctx = ctx();
        let sampler = InjectionSampler::new(&ctx.dem);
        let mut rng = StdRng::seed_from_u64(seed);
        let (shot, _) = sampler.sample_exact_k(&mut rng, k);
        for kind in [DecoderKind::Mwpm, DecoderKind::PromatchAstrea, DecoderKind::AstreaG] {
            let mut dec = ctx.decoder(kind);
            let out = dec.decode(&shot.dets);
            if out.failed || out.matches.is_empty() {
                continue;
            }
            let mut covered: Vec<u32> = Vec::new();
            for m in &out.matches {
                covered.push(m.a);
                if let MatchTarget::Detector(b) = m.b {
                    covered.push(b);
                }
            }
            covered.sort_unstable();
            prop_assert_eq!(covered, shot.dets.clone(), "{}", kind.label());
        }
    }

    /// MWPM solution weight is a lower bound on every other decoder's.
    #[test]
    fn mwpm_weight_is_minimal(seed in any::<u64>(), k in 1usize..14) {
        let ctx = ctx();
        let sampler = InjectionSampler::new(&ctx.dem);
        let mut rng = StdRng::seed_from_u64(seed);
        let (shot, _) = sampler.sample_exact_k(&mut rng, k);
        let mut mwpm = ctx.decoder(DecoderKind::Mwpm);
        let base = mwpm.decode(&shot.dets).weight.unwrap();
        for kind in [DecoderKind::AstreaG, DecoderKind::PromatchAstrea] {
            let mut dec = ctx.decoder(kind);
            let out = dec.decode(&shot.dets);
            if let (false, Some(w)) = (out.failed, out.weight) {
                prop_assert!(w >= base, "{} found weight {w} < MWPM {base}", kind.label());
            }
        }
    }

    /// Workspace reuse is invisible: a long-lived decoder that has been
    /// streaming shots through its reusable workspaces returns a
    /// `DecodeOutcome` bit-identical to a fresh decoder built per shot,
    /// for every decoder configuration in Table 2.
    #[test]
    fn workspace_reuse_matches_fresh_decoders(seed in any::<u64>(), k in 1usize..20) {
        let ctx = ctx();
        let sampler = InjectionSampler::new(&ctx.dem);
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in DecoderKind::table2() {
            let mut long_lived = ctx.decoder(kind);
            // Several shots of varying weight, so the persistent buffers
            // grow, shrink, and carry state between calls.
            for _ in 0..4 {
                let kk = rng.gen_range(1..=k);
                let (shot, _) = sampler.sample_exact_k(&mut rng, kk);
                let reused = long_lived.decode(&shot.dets);
                let fresh = ctx.decoder(kind).decode(&shot.dets);
                prop_assert_eq!(reused, fresh, "{} at k={}", kind.label(), kk);
            }
        }
    }

    /// The parallel composition never does worse than its better branch
    /// in solution weight.
    #[test]
    fn parallel_combiner_takes_the_better_weight(seed in any::<u64>(), k in 1usize..14) {
        let ctx = ctx();
        let sampler = InjectionSampler::new(&ctx.dem);
        let mut rng = StdRng::seed_from_u64(seed);
        let (shot, _) = sampler.sample_exact_k(&mut rng, k);
        let mut par = ctx.decoder(DecoderKind::PromatchParAg);
        let mut pa = ctx.decoder(DecoderKind::PromatchAstrea);
        let mut ag = ctx.decoder(DecoderKind::AstreaG);
        let combined = par.decode(&shot.dets);
        let a = pa.decode(&shot.dets);
        let b = ag.decode(&shot.dets);
        if combined.failed {
            prop_assert!(a.failed && b.failed);
        } else {
            let best = [&a, &b]
                .iter()
                .filter(|o| !o.failed)
                .filter_map(|o| o.weight)
                .min()
                .unwrap();
            prop_assert_eq!(combined.weight.unwrap(), best);
        }
    }
}
