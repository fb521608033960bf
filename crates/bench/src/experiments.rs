//! One entry point per table and figure of the paper's evaluation.
//!
//! Every function writes the same rows/series the paper reports, at the
//! requested [`Scale`]. See the module docs in [`crate`] for the
//! interpretation of absolute numbers.

use crate::{fmt_rate, fmt_ratio, Scale};
use astrea::{AstreaLatencyModel, MAX_HW};
use decoding_graph::latency::TIME_BUDGET_NS;
use decoding_graph::Decoder;
use ler::{
    run_eq1, run_predecoder_study, run_tradeoff_study, DecoderKind, Eq1Config, ExperimentContext,
    InjectionSampler,
};
use mwpm::MwpmDecoder;
use promatch::{PathMetric, PromatchConfig, SingletonRule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Result, Write};

fn eq1_config(scale: &Scale) -> Eq1Config {
    Eq1Config {
        k_max: scale.k_max,
        shots_per_k: scale.shots_per_k,
        seed: scale.seed,
        threads: scale.threads,
    }
}

fn study_config(scale: &Scale) -> ler::study::StudyConfig {
    ler::study::StudyConfig {
        k_max: scale.k_max,
        shots_per_k: scale.shots_per_k,
        seed: scale.seed,
    }
}

/// Table 2: LER of every decoder configuration at p = `scale.p`.
pub fn table2(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(w, "# Table 2: Logical error rate at p = {:.0e}", scale.p)?;
    writeln!(w, "# (paper: d=11/13 @ 1e-4; ratios are vs ideal MWPM)")?;
    let kinds = DecoderKind::table2();
    for &d in &scale.distances {
        writeln!(w, "\n== distance {d} ==")?;
        let ctx = ExperimentContext::new(d, scale.p);
        let report = run_eq1(&ctx, &kinds, &eq1_config(scale));
        let base = report.ler_of(DecoderKind::Mwpm).unwrap_or(0.0);
        writeln!(
            w,
            "{:<22} {:>16} {:>9} {:>18} {:>16}",
            "decoder", "LER", "vs MWPM", "excess over MWPM", "95% upper bound"
        )?;
        for dec in &report.decoders {
            let hi = report
                .ler_interval_of(dec.kind)
                .map(|iv| fmt_rate(iv.high))
                .unwrap_or_default();
            writeln!(
                w,
                "{:<22} {:>16} {:>9} {:>18} {:>16}",
                dec.kind.label(),
                fmt_rate(dec.ler),
                fmt_ratio(dec.ler, base),
                fmt_rate(dec.excess_ler),
                hi
            )?;
        }
    }
    Ok(())
}

/// Table 3: Clique's LER.
pub fn table3(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(
        w,
        "# Table 3: Clique logical error rate at p = {:.0e}",
        scale.p
    )?;
    let kinds = [
        DecoderKind::Mwpm,
        DecoderKind::CliqueAstrea,
        DecoderKind::CliqueAg,
        DecoderKind::AstreaG,
    ];
    for &d in &scale.distances {
        writeln!(w, "\n== distance {d} ==")?;
        let ctx = ExperimentContext::new(d, scale.p);
        let report = run_eq1(&ctx, &kinds, &eq1_config(scale));
        let base = report.ler_of(DecoderKind::Mwpm).unwrap_or(0.0);
        for dec in report.decoders.iter().skip(1) {
            writeln!(
                w,
                "{:<22} {:>16} {:>9} excess {:>14}",
                dec.kind.label(),
                fmt_rate(dec.ler),
                fmt_ratio(dec.ler, base),
                fmt_rate(dec.excess_ler)
            )?;
        }
    }
    Ok(())
}

/// Tables 4 and 5: predecoding and total decode latency over high-HW
/// syndromes.
pub fn table4_5(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(w, "# Table 4: Promatch predecoding latency, HW >= 10 (ns)")?;
    writeln!(
        w,
        "# Table 5: Promatch + Astrea total latency, HW >= 10 (ns)"
    )?;
    writeln!(
        w,
        "# (paper d=11: max 824 / avg 68.2; total max 904 / avg 524.2)"
    )?;
    writeln!(
        w,
        "# (paper d=13: max 928 / avg 70.0; total max 960 / avg 526.0)"
    )?;
    for &d in &scale.distances {
        let ctx = ExperimentContext::new(d, scale.p);
        let study = run_predecoder_study(&ctx, &study_config(scale));
        writeln!(w, "\n== distance {d} ==")?;
        writeln!(
            w,
            "predecode  max {:>7.1} ns   avg {:>7.1} ns",
            study.predecode_max_ns, study.predecode_avg_ns
        )?;
        writeln!(
            w,
            "total      max {:>7.1} ns   avg {:>7.1} ns",
            study.total_max_ns, study.total_avg_ns
        )?;
        writeln!(
            w,
            "P(exceeds 1us budget) = {}",
            fmt_rate(study.abort_probability)
        )?;
    }
    Ok(())
}

/// Table 6: step-usage frequency.
pub fn table6(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(
        w,
        "# Table 6: frequency of each Promatch step (high-HW syndromes)"
    )?;
    writeln!(
        w,
        "# (paper d=13: step1 0.9983, step2 0.00167, step3 7.3e-11, step4 1.8e-11)"
    )?;
    for &d in &scale.distances {
        let ctx = ExperimentContext::new(d, scale.p);
        let study = run_predecoder_study(&ctx, &study_config(scale));
        writeln!(w, "\n== distance {d} ==")?;
        for (i, f) in study.step_usage.iter().enumerate() {
            writeln!(w, "Step {}  {:>12}", i + 1, fmt_rate(*f))?;
        }
    }
    Ok(())
}

/// Table 7: FPGA utilization — not reproducible in software; reports the
/// modeled pipeline characteristics instead (see DESIGN.md §3.3).
pub fn table7(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(w, "# Table 7: FPGA utilization (SUBSTITUTED)")?;
    writeln!(
        w,
        "# The paper synthesizes the edge-processing pipeline on a Kintex"
    )?;
    writeln!(
        w,
        "# UltraScale+ (3% LUT, 1% FF @ 250 MHz). A software reproduction"
    )?;
    writeln!(
        w,
        "# cannot regenerate synthesis results; the cycle model below is"
    )?;
    writeln!(w, "# what this workspace implements instead.")?;
    writeln!(w, "clock                         250 MHz (4 ns/cycle)")?;
    writeln!(w, "pipeline                      1 subgraph edge per cycle")?;
    writeln!(
        w,
        "candidate registers           5 (2.1, 2.2, 3, 4.1, 4.2) + isolated-pairs"
    )?;
    writeln!(
        w,
        "parallel comparison overhead  10 cycles (Promatch || AG)"
    )?;
    for &d in &scale.distances {
        let ctx = ExperimentContext::new(d, scale.p);
        let storage = ctx.paths().storage_model(&ctx.graph);
        writeln!(
            w,
            "d={d}: {} detectors, {} edges tracked by the pipeline",
            storage.num_detectors, storage.num_edges
        )?;
    }
    Ok(())
}

/// Table 8: on-chip storage requirements.
pub fn table8(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(w, "# Table 8: storage requirements")?;
    writeln!(
        w,
        "# (paper: d=11 edge 3.6 KB / path 129 KB; d=13 edge 6 KB / path 345 KB)"
    )?;
    for &d in &scale.distances {
        let ctx = ExperimentContext::new(d, scale.p);
        let s = ctx.paths().storage_model(&ctx.graph);
        writeln!(
            w,
            "d={d}: detectors {:>5}  edges {:>5}  Edge table {:>7.1} KB  Path table {:>7.1} KB",
            s.num_detectors,
            s.num_edges,
            s.edge_table_kb(),
            s.path_table_kb()
        )?;
    }
    Ok(())
}

/// Figure 1(b): predecoder accuracy/coverage tradeoff.
pub fn fig1b(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(
        w,
        "# Figure 1(b): accuracy vs coverage of predecoders (high-HW syndromes)"
    )?;
    let d = scale.max_distance();
    let ctx = ExperimentContext::new(d, scale.p);
    let points = run_tradeoff_study(&ctx, &study_config(scale));
    writeln!(w, "== distance {d}, p = {:.0e} ==", scale.p)?;
    writeln!(
        w,
        "{:<10} {:>9} {:>9}",
        "predecoder", "accuracy", "coverage"
    )?;
    for p in points {
        writeln!(w, "{:<10} {:>9.4} {:>9.4}", p.name, p.accuracy, p.coverage)?;
    }
    Ok(())
}

/// Figure 4 (and Figure 1c): LER vs distance for MWPM, Astrea-G,
/// Clique+MWPM, and AFS at p = 1e-4.
pub fn fig4(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(w, "# Figure 4: LER vs distance at p = {:.0e}", scale.p)?;
    let kinds = [
        DecoderKind::Mwpm,
        DecoderKind::AstreaG,
        DecoderKind::CliqueMwpm,
        DecoderKind::UnionFind,
    ];
    writeln!(
        w,
        "{:<4} {:>14} {:>14} {:>14} {:>14}",
        "d",
        kinds[0].label(),
        kinds[1].label(),
        kinds[2].label(),
        kinds[3].label()
    )?;
    for &d in &scale.distances {
        let ctx = ExperimentContext::new(d, scale.p);
        let report = run_eq1(&ctx, &kinds, &eq1_config(scale));
        write!(w, "{d:<4}")?;
        for dec in &report.decoders {
            write!(w, " {:>14}", fmt_rate(dec.ler))?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Figure 5: error-chain length distribution of the MWPM solution on
/// high-HW syndromes.
pub fn fig5(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    let d = scale.max_distance();
    writeln!(
        w,
        "# Figure 5: MWPM chain-length distribution, d={d}, HW > 10"
    )?;
    writeln!(w, "# (paper: >90% of chains have length 1)")?;
    let ctx = ExperimentContext::new(d, scale.p);
    let sampler = InjectionSampler::new(&ctx.dem);
    let p_occ = sampler.occurrence_probabilities(scale.k_max);
    let mut mwpm = MwpmDecoder::new(&ctx.graph, ctx.paths());
    let mut hist = [0.0f64; 16];
    let mut total = 0.0;
    for k in 1..=scale.k_max {
        let mut rng = StdRng::seed_from_u64(scale.seed ^ ((k as u64) << 17));
        let weight = p_occ[k] / scale.shots_per_k as f64;
        for _ in 0..scale.shots_per_k {
            let (shot, _) = sampler.sample_exact_k(&mut rng, k);
            if shot.dets.len() <= MAX_HW {
                continue;
            }
            let out = mwpm.decode(&shot.dets);
            for len in mwpm.chain_lengths(&out.matches) {
                let bin = (len as usize).min(hist.len() - 1);
                hist[bin] += weight;
                total += weight;
            }
        }
    }
    for (len, mass) in hist.iter().enumerate().skip(1) {
        if *mass > 0.0 {
            writeln!(w, "length {len:>2}: {:>8.5}", mass / total)?;
        }
    }
    writeln!(w, "fraction length 1 = {:.4}", hist[1] / total)?;
    Ok(())
}

/// Figures 14/15: LER vs physical error rate for the six decoder
/// configurations, at one distance.
pub fn fig14_15(scale: &Scale, distance: u32, w: &mut dyn Write) -> Result<()> {
    writeln!(w, "# Figure 14/15: LER vs p, d = {distance}")?;
    let kinds = DecoderKind::table2();
    write!(w, "{:<8}", "p")?;
    for kind in kinds {
        write!(w, " {:>18}", kind.label())?;
    }
    writeln!(w)?;
    for step in 1..=5 {
        let p = scale.p * step as f64;
        let ctx = ExperimentContext::new(distance, p);
        let report = run_eq1(&ctx, &kinds, &eq1_config(scale));
        write!(w, "{p:<8.0e}")?;
        for dec in &report.decoders {
            write!(w, " {:>18}", fmt_rate(dec.ler))?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Figures 16/17: Hamming-weight distribution before/after predecoding.
pub fn fig16_17(scale: &Scale, distance: u32, w: &mut dyn Write) -> Result<()> {
    writeln!(
        w,
        "# Figure 16/17: HW distribution, d = {distance}, p = {:.0e}",
        scale.p
    )?;
    let ctx = ExperimentContext::new(distance, scale.p);
    let study = run_predecoder_study(&ctx, &study_config(scale));
    writeln!(
        w,
        "{:<4} {:>14} {:>16} {:>14}",
        "HW", "before", "after Promatch", "after Smith"
    )?;
    let maxh = study
        .hw_before
        .iter()
        .enumerate()
        .rev()
        .find(|(_, &v)| v > 0.0)
        .map(|(i, _)| i)
        .unwrap_or(0);
    for h in 0..=maxh {
        writeln!(
            w,
            "{:<4} {:>14} {:>16} {:>14}",
            h,
            fmt_rate(study.hw_before[h]),
            fmt_rate(study.hw_after_promatch[h]),
            fmt_rate(study.hw_after_smith[h])
        )?;
    }
    let above = |hist: &[f64]| hist[11..].iter().sum::<f64>();
    writeln!(
        w,
        "\nP(HW > 10) before:         {}",
        fmt_rate(above(&study.hw_before))
    )?;
    writeln!(
        w,
        "P(HW > 10) after Promatch: {}",
        fmt_rate(above(&study.hw_after_promatch))
    )?;
    writeln!(
        w,
        "P(HW > 10) after Smith:    {}",
        fmt_rate(above(&study.hw_after_smith))
    )?;
    Ok(())
}

/// Single-threaded Equation-1 over custom decoder instances (used by the
/// ablation studies, which need non-default configurations).
fn eq1_custom(
    ctx: &ExperimentContext,
    decoders: Vec<(String, Box<dyn Decoder + '_>)>,
    scale: &Scale,
) -> Vec<(String, f64)> {
    let sampler = InjectionSampler::new(&ctx.dem);
    let p_occ = sampler.occurrence_probabilities(scale.k_max);
    let mut decoders = decoders;
    let mut fails = vec![vec![0u64; scale.k_max + 1]; decoders.len()];
    for k in 1..=scale.k_max {
        let mut rng = StdRng::seed_from_u64(scale.seed ^ ((k as u64) << 32));
        for _ in 0..scale.shots_per_k {
            let (shot, _) = sampler.sample_exact_k(&mut rng, k);
            for (i, (_, dec)) in decoders.iter_mut().enumerate() {
                let out = dec.decode(&shot.dets);
                if out.failed || out.obs_flip != shot.obs {
                    fails[i][k] += 1;
                }
            }
        }
    }
    decoders
        .iter()
        .zip(fails)
        .map(|((name, _), row)| {
            let ler: f64 = (1..=scale.k_max)
                .map(|k| p_occ[k] * row[k] as f64 / scale.shots_per_k as f64)
                .sum();
            (name.clone(), ler)
        })
        .collect()
}

/// Ablation: hardware singleton logic (Fig 11) vs exact set test.
pub fn ablate_singleton(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(
        w,
        "# Ablation: singleton rule (hardware counters vs exact sets)"
    )?;
    let d = scale.max_distance();
    let ctx = ExperimentContext::new(d, scale.p);
    let mk = |rule: SingletonRule| PromatchConfig {
        singleton_rule: rule,
        ..Default::default()
    };
    let decoders: Vec<(String, Box<dyn Decoder + '_>)> = vec![
        (
            "hardware (Fig 11)".into(),
            Box::new(ctx.promatch_with(mk(SingletonRule::HardwareApprox))),
        ),
        (
            "exact".into(),
            Box::new(ctx.promatch_with(mk(SingletonRule::Exact))),
        ),
    ];
    for (name, ler) in eq1_custom(&ctx, decoders, scale) {
        writeln!(w, "d={d} {name:<20} LER {}", fmt_rate(ler))?;
    }
    Ok(())
}

/// Ablation: quantized (2-bit) vs exact path weights in Step 3.
pub fn ablate_pathq(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(
        w,
        "# Ablation: Step-3 path weights (2-bit classes vs exact)"
    )?;
    let d = scale.max_distance();
    let ctx = ExperimentContext::new(d, scale.p);
    let mk = |m: PathMetric| PromatchConfig {
        path_metric: m,
        ..Default::default()
    };
    let decoders: Vec<(String, Box<dyn Decoder + '_>)> = vec![
        (
            "quantized (Table 8)".into(),
            Box::new(ctx.promatch_with(mk(PathMetric::Quantized))),
        ),
        (
            "exact".into(),
            Box::new(ctx.promatch_with(mk(PathMetric::Exact))),
        ),
    ];
    for (name, ler) in eq1_custom(&ctx, decoders, scale) {
        writeln!(w, "d={d} {name:<20} LER {}", fmt_rate(ler))?;
    }
    Ok(())
}

/// Ablation: Astrea parallel match units vs achievable stopping targets.
pub fn ablate_astrea_units(_scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(
        w,
        "# Ablation: Astrea parallel units vs latency / affordable HW target"
    )?;
    for units in [3u32, 9, 27, 81] {
        let model = AstreaLatencyModel {
            parallel_units: units,
        };
        let hw10 = model.latency_ns(10);
        let afford = model.max_hw_within(TIME_BUDGET_NS - 70.0);
        writeln!(
            w,
            "units {units:>3}: HW=10 latency {hw10:>7.1} ns, affordable target after avg predecode: {afford:?}"
        )?;
    }
    Ok(())
}

/// Ablation: replicated Promatch pipelines (§6.4's "run multiple
/// pipelines in parallel" note) vs predecoding latency.
pub fn ablate_pipelines(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(
        w,
        "# Ablation: parallel Promatch pipelines vs predecode latency"
    )?;
    let d = scale.max_distance();
    let ctx = ExperimentContext::new(d, scale.p);
    let sampler = InjectionSampler::new(&ctx.dem);
    for pipelines in [1u32, 2, 4] {
        let cfg = PromatchConfig {
            parallel_pipelines: pipelines,
            ..Default::default()
        };
        let mut pm = promatch::PromatchPredecoder::with_config(&ctx.graph, ctx.paths(), cfg);
        use decoding_graph::Predecoder;
        let mut rng = StdRng::seed_from_u64(scale.seed);
        let mut total_ns = 0.0;
        let mut max_ns: f64 = 0.0;
        let mut count = 0usize;
        let mut tried = 0usize;
        while count < 400 && tried < 100_000 {
            tried += 1;
            let (shot, _) = sampler.sample_exact_k(&mut rng, 8 + tried % 10);
            if shot.dets.len() <= MAX_HW {
                continue;
            }
            let out = pm.predecode(&shot.dets);
            if out.aborted {
                continue;
            }
            total_ns += out.latency_ns;
            max_ns = max_ns.max(out.latency_ns);
            count += 1;
        }
        writeln!(
            w,
            "pipelines {pipelines}: avg predecode {:>7.1} ns, max {:>7.1} ns over {count} high-HW syndromes",
            total_ns / count as f64,
            max_ns
        )?;
    }
    Ok(())
}

/// Ablation: adaptive {10,8,6} stopping targets vs fixed target.
pub fn ablate_adaptive(scale: &Scale, w: &mut dyn Write) -> Result<()> {
    writeln!(w, "# Ablation: adaptive HW targets vs fixed")?;
    let d = scale.max_distance();
    let ctx = ExperimentContext::new(d, scale.p);
    let mk = |targets: [usize; 3]| PromatchConfig {
        hw_targets: targets,
        ..Default::default()
    };
    let decoders: Vec<(String, Box<dyn Decoder + '_>)> = vec![
        (
            "adaptive {10,8,6}".into(),
            Box::new(ctx.promatch_with(mk([10, 8, 6]))),
        ),
        (
            "fixed 10".into(),
            Box::new(ctx.promatch_with(mk([10, 10, 10]))),
        ),
        ("fixed 6".into(), Box::new(ctx.promatch_with(mk([6, 6, 6])))),
    ];
    for (name, ler) in eq1_custom(&ctx, decoders, scale) {
        writeln!(w, "d={d} {name:<20} LER {}", fmt_rate(ler))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            distances: vec![5],
            shots_per_k: 40,
            k_max: 8,
            p: 1e-3,
            seed: 3,
            threads: 0,
        }
    }

    #[test]
    fn every_experiment_runs_at_tiny_scale() {
        let scale = tiny_scale();
        let mut sink = Vec::new();
        table2(&scale, &mut sink).unwrap();
        table3(&scale, &mut sink).unwrap();
        table4_5(&scale, &mut sink).unwrap();
        table6(&scale, &mut sink).unwrap();
        table7(&scale, &mut sink).unwrap();
        table8(&scale, &mut sink).unwrap();
        fig1b(&scale, &mut sink).unwrap();
        fig4(&scale, &mut sink).unwrap();
        fig5(&scale, &mut sink).unwrap();
        fig14_15(&scale, 5, &mut sink).unwrap();
        fig16_17(&scale, 5, &mut sink).unwrap();
        ablate_singleton(&scale, &mut sink).unwrap();
        ablate_pathq(&scale, &mut sink).unwrap();
        ablate_astrea_units(&scale, &mut sink).unwrap();
        ablate_adaptive(&scale, &mut sink).unwrap();
        ablate_pipelines(&scale, &mut sink).unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("Table 2"));
        assert!(text.contains("MWPM (Ideal)"));
        assert!(text.contains("Edge table"));
        assert!(text.contains("Figure 14/15: LER vs p, d = 5"));
        assert!(text.contains("pipelines 4: avg predecode"));
    }

    #[test]
    fn table8_reproduces_paper_storage_at_paper_scale() {
        // Storage is cheap to verify at the real distances.
        let scale = Scale {
            distances: vec![11],
            shots_per_k: 1,
            k_max: 1,
            p: 1e-4,
            seed: 1,
            threads: 0,
        };
        let mut sink = Vec::new();
        table8(&scale, &mut sink).unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("720"), "{text}");
        assert!(text.contains("129."), "paper's 129 KB path table: {text}");
    }
}
