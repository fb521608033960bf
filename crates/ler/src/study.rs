//! Predecoder studies: Hamming-weight reduction, latency, step usage,
//! and the accuracy/coverage tradeoff.

use crate::context::ExperimentContext;
use crate::injection::InjectionSampler;
use astrea::AstreaDecoder;
use decoding_graph::{Decoder, MatchTarget, Predecoder};
use mwpm::MwpmDecoder;
use predecoders::{CliquePredecoder, SmithPredecoder, ENGAGE_ABOVE_HW};
use promatch::{PromatchPredecoder, Step};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration shared by the studies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StudyConfig {
    /// Maximum injected mechanism count.
    pub k_max: usize,
    /// Samples per `k`.
    pub shots_per_k: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            k_max: 24,
            shots_per_k: 2_000,
            seed: 0xD00D,
        }
    }
}

/// Results of the Promatch/Smith predecoder study — the data behind
/// Figures 16/17 and Tables 4/5/6.
#[derive(Clone, Debug)]
pub struct PredecoderStudy {
    /// `P(HW = h)` before predecoding (index = h).
    pub hw_before: Vec<f64>,
    /// `P(HW = h)` after Promatch (HW ≤ 10 syndromes pass through).
    pub hw_after_promatch: Vec<f64>,
    /// `P(HW = h)` after Smith.
    pub hw_after_smith: Vec<f64>,
    /// Maximum Promatch predecoding latency over the syndromes it engages
    /// on (HW > 10; ns).
    pub predecode_max_ns: f64,
    /// Occurrence-weighted average predecoding latency (ns).
    pub predecode_avg_ns: f64,
    /// Maximum total (predecode + Astrea) latency (ns).
    pub total_max_ns: f64,
    /// Occurrence-weighted average total latency (ns).
    pub total_avg_ns: f64,
    /// Absolute probability that Promatch exceeds its budget.
    pub abort_probability: f64,
    /// Occurrence-weighted fraction of high-HW syndromes whose
    /// highest exercised step was 1, 2, 3, 4 (Table 6).
    pub step_usage: [f64; 4],
}

/// Runs the predecoder study on `ctx`.
pub fn run_predecoder_study(ctx: &ExperimentContext, cfg: &StudyConfig) -> PredecoderStudy {
    let sampler = InjectionSampler::new(&ctx.dem);
    let p_occ = sampler.occurrence_probabilities(cfg.k_max);
    let hist_len = 2 * cfg.k_max + 2;

    let mut hw_before = vec![0.0; hist_len];
    let mut hw_after_promatch = vec![0.0; hist_len];
    let mut hw_after_smith = vec![0.0; hist_len];
    hw_before[0] += p_occ[0];
    hw_after_promatch[0] += p_occ[0];
    hw_after_smith[0] += p_occ[0];

    let mut promatch = PromatchPredecoder::new(&ctx.graph, ctx.paths());
    let mut smith = SmithPredecoder::new(&ctx.graph);
    let astrea = AstreaDecoder::new(&ctx.graph, ctx.paths());

    let mut predecode_max: f64 = 0.0;
    let mut total_max: f64 = 0.0;
    let mut predecode_sum = 0.0;
    let mut total_sum = 0.0;
    let mut high_weight_mass = 0.0;
    let mut abort_probability = 0.0;
    let mut step_mass = [0.0f64; 4];

    for k in 1..=cfg.k_max {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((k as u64) << 24));
        let w = p_occ[k] / cfg.shots_per_k as f64;
        for _ in 0..cfg.shots_per_k {
            let (shot, _) = sampler.sample_exact_k(&mut rng, k);
            let hw = shot.dets.len();
            hw_before[hw.min(hist_len - 1)] += w;

            // Smith histogram: engages above the threshold.
            let smith_hw = if hw > ENGAGE_ABOVE_HW {
                smith.predecode(&shot.dets).remaining_hw()
            } else {
                hw
            };
            hw_after_smith[smith_hw.min(hist_len - 1)] += w;

            // Promatch histogram + latency accounting.
            if hw > ENGAGE_ABOVE_HW {
                let out = promatch.predecode(&shot.dets);
                let stats = *promatch.last_stats();
                let after = if out.aborted { hw } else { out.remaining_hw() };
                hw_after_promatch[after.min(hist_len - 1)] += w;
                if out.aborted {
                    abort_probability += w;
                } else {
                    // Latency statistics cover successful real-time
                    // decodes (aborts are accounted separately, as in the
                    // paper's §6.4 abort probability).
                    let pre_ns = stats.predecode_ns;
                    let total_ns = pre_ns + astrea.latency_ns(out.remaining_hw());
                    predecode_max = predecode_max.max(pre_ns);
                    total_max = total_max.max(total_ns);
                    predecode_sum += w * pre_ns;
                    total_sum += w * total_ns;
                    high_weight_mass += w;
                    if let Some(step) = stats.highest_step {
                        let idx = match step {
                            Step::Step1 => 0,
                            Step::Step2 => 1,
                            Step::Step3 => 2,
                            Step::Step4 => 3,
                        };
                        step_mass[idx] += w;
                    }
                }
            } else {
                hw_after_promatch[hw.min(hist_len - 1)] += w;
            }
        }
    }

    let step_total: f64 = step_mass.iter().sum();
    let step_usage = if step_total > 0.0 {
        [
            step_mass[0] / step_total,
            step_mass[1] / step_total,
            step_mass[2] / step_total,
            step_mass[3] / step_total,
        ]
    } else {
        [0.0; 4]
    };

    PredecoderStudy {
        hw_before,
        hw_after_promatch,
        hw_after_smith,
        predecode_max_ns: predecode_max,
        predecode_avg_ns: if high_weight_mass > 0.0 {
            predecode_sum / high_weight_mass
        } else {
            0.0
        },
        total_max_ns: total_max,
        total_avg_ns: if high_weight_mass > 0.0 {
            total_sum / high_weight_mass
        } else {
            0.0
        },
        abort_probability,
        step_usage,
    }
}

/// One point of the Figure 1(b) accuracy/coverage tradeoff.
#[derive(Clone, Debug, PartialEq)]
pub struct TradeoffPoint {
    /// Predecoder name.
    pub name: String,
    /// Fraction of prematched pairs agreeing with the MWPM solution
    /// (occurrence-weighted, over samples with at least one prematch).
    pub accuracy: f64,
    /// Fraction of flipped bits removed by the predecoder
    /// (occurrence-weighted over high-HW syndromes).
    pub coverage: f64,
}

/// Evaluates the accuracy/coverage tradeoff of the three implemented
/// predecoders over high-HW syndromes.
pub fn run_tradeoff_study(ctx: &ExperimentContext, cfg: &StudyConfig) -> Vec<TradeoffPoint> {
    let sampler = InjectionSampler::new(&ctx.dem);
    let p_occ = sampler.occurrence_probabilities(cfg.k_max);
    let mut mwpm = MwpmDecoder::new(&ctx.graph, ctx.paths());

    let mut promatch = PromatchPredecoder::new(&ctx.graph, ctx.paths());
    let mut smith = SmithPredecoder::new(&ctx.graph);
    let mut clique = CliquePredecoder::new(&ctx.graph);

    // (match mass, pair mass, covered mass, syndrome mass) per predecoder
    let mut acc = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64); 3];

    for k in 1..=cfg.k_max {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xFEED ^ ((k as u64) << 24));
        let w = p_occ[k] / cfg.shots_per_k as f64;
        for _ in 0..cfg.shots_per_k {
            let (shot, _) = sampler.sample_exact_k(&mut rng, k);
            if shot.dets.len() <= ENGAGE_ABOVE_HW {
                continue;
            }
            let ideal = mwpm.decode(&shot.dets);
            let ideal_pairs: std::collections::HashSet<(u32, u32)> = ideal
                .matches
                .iter()
                .filter_map(|m| match m.b {
                    MatchTarget::Detector(b) => Some((m.a.min(b), m.a.max(b))),
                    MatchTarget::Boundary => None,
                })
                .collect();
            let outs = [
                promatch.predecode(&shot.dets),
                smith.predecode(&shot.dets),
                clique.predecode(&shot.dets),
            ];
            for (slot, out) in outs.into_iter().enumerate() {
                let removed = shot.dets.len() - out.remaining_hw();
                acc[slot].2 += w * removed as f64 / shot.dets.len() as f64;
                acc[slot].3 += w;
                for &(a, b) in &out.pairs {
                    acc[slot].1 += w;
                    if ideal_pairs.contains(&(a.min(b), a.max(b))) {
                        acc[slot].0 += w;
                    }
                }
            }
        }
    }

    ["Promatch", "Smith", "Clique"]
        .iter()
        .zip(acc)
        .map(|(name, (hit, pairs, covered, mass))| TradeoffPoint {
            name: name.to_string(),
            accuracy: if pairs > 0.0 { hit / pairs } else { 1.0 },
            coverage: if mass > 0.0 { covered / mass } else { 0.0 },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> StudyConfig {
        StudyConfig {
            k_max: 10,
            shots_per_k: 150,
            seed: 13,
        }
    }

    #[test]
    fn promatch_histogram_never_exceeds_ten_without_abort() {
        let ctx = ExperimentContext::new(5, 1e-3);
        let study = run_predecoder_study(&ctx, &quick_cfg());
        // All mass above HW 10 in the Promatch histogram must come from
        // aborts.
        let above: f64 = study.hw_after_promatch[ENGAGE_ABOVE_HW + 1..].iter().sum();
        assert!(
            above <= study.abort_probability + 1e-12,
            "above-threshold mass {above} exceeds abort probability {}",
            study.abort_probability
        );
    }

    #[test]
    fn histograms_are_normalized_consistently() {
        let ctx = ExperimentContext::new(5, 1e-3);
        let study = run_predecoder_study(&ctx, &quick_cfg());
        let sums: Vec<f64> = [
            &study.hw_before,
            &study.hw_after_promatch,
            &study.hw_after_smith,
        ]
        .iter()
        .map(|h| h.iter().sum())
        .collect();
        // All three histograms carry the same total mass (Σ_k≤kmax P_o).
        assert!((sums[0] - sums[1]).abs() < 1e-12);
        assert!((sums[0] - sums[2]).abs() < 1e-12);
        assert!(sums[0] <= 1.0 + 1e-12);
    }

    #[test]
    fn latency_stats_respect_budget_and_ordering() {
        let ctx = ExperimentContext::new(5, 1e-3);
        let study = run_predecoder_study(&ctx, &quick_cfg());
        assert!(study.predecode_avg_ns <= study.predecode_max_ns);
        assert!(study.total_avg_ns <= study.total_max_ns);
        assert!(study.total_max_ns <= 960.0 + 1e-9);
        assert!(study.predecode_avg_ns > 0.0);
        // Total includes the main decoder.
        assert!(study.total_avg_ns > study.predecode_avg_ns);
    }

    #[test]
    fn step_usage_is_a_distribution_dominated_by_step1() {
        let ctx = ExperimentContext::new(5, 1e-3);
        let study = run_predecoder_study(&ctx, &quick_cfg());
        let total: f64 = study.step_usage.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(
            study.step_usage[0] > 0.5,
            "step 1 must dominate: {:?}",
            study.step_usage
        );
    }

    #[test]
    fn tradeoff_places_predecoders_as_in_figure_1b() {
        let ctx = ExperimentContext::new(5, 1e-3);
        let points = run_tradeoff_study(&ctx, &quick_cfg());
        let get = |n: &str| points.iter().find(|p| p.name == n).unwrap().clone();
        let promatch = get("Promatch");
        let smith = get("Smith");
        let clique = get("Clique");
        // Promatch: high accuracy at *sufficient* coverage — it stops
        // matching once the remainder fits the main decoder (Table 1 of
        // the paper), so its raw coverage sits between Clique's and an
        // exhaustive greedy pass.
        assert!(promatch.accuracy > 0.95, "{promatch:?}");
        assert!(promatch.coverage > 0.05, "{promatch:?}");
        assert!(smith.accuracy > 0.9, "{smith:?}");
        // Clique essentially never engages on high-HW syndromes.
        assert!(clique.coverage < 0.1, "{clique:?}");
        assert!(
            clique.coverage < promatch.coverage,
            "{clique:?} vs {promatch:?}"
        );
    }
}
