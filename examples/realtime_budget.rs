//! Real-time budget analysis: the modeled latency distribution of the
//! Promatch + Astrea decoder over high-Hamming-weight syndromes
//! (the data behind Tables 4 and 5 of the paper).
//!
//! ```text
//! cargo run --release --example realtime_budget
//! ```

use promatch_repro::astrea::MAX_HW;
use promatch_repro::decoding_graph::latency::TIME_BUDGET_NS;
use promatch_repro::ler::{DecoderKind, ExperimentContext, InjectionSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let d = 9;
    let ctx = ExperimentContext::new(d, 1e-4);
    let sampler = InjectionSampler::new(&ctx.dem);
    let mut dec = ctx.decoder(DecoderKind::PromatchAstrea);
    let mut rng = StdRng::seed_from_u64(99);

    let mut latencies: Vec<f64> = Vec::new();
    let mut aborts = 0usize;
    let target = 3000;
    let mut tried = 0usize;
    while latencies.len() + aborts < target && tried < 200_000 {
        tried += 1;
        let (shot, _) = sampler.sample_exact_k(&mut rng, 8 + tried % 8);
        if shot.dets.len() <= MAX_HW {
            continue;
        }
        let out = dec.decode(&shot.dets);
        if out.failed {
            aborts += 1;
        } else {
            latencies.push(out.latency_ns.unwrap_or(0.0));
        }
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |q: f64| latencies[(q * (latencies.len() - 1) as f64) as usize];
    let mean: f64 = latencies.iter().sum::<f64>() / latencies.len() as f64;
    println!(
        "Promatch + Astrea latency over {} high-HW syndromes (d={d}):",
        latencies.len()
    );
    println!("  mean  {:>7.1} ns", mean);
    println!("  p50   {:>7.1} ns", pct(0.50));
    println!("  p90   {:>7.1} ns", pct(0.90));
    println!("  p99   {:>7.1} ns", pct(0.99));
    println!("  max   {:>7.1} ns", latencies.last().unwrap());
    println!("  aborts (budget exceeded): {aborts}");
    println!("\nevery successful decode fits the 1 us real-time window;");
    println!("the paper's Table 5 reports max 960 ns / avg ~525 ns at d = 13.");
    assert!(latencies.iter().all(|&l| l <= TIME_BUDGET_NS));
}
