//! Scratch diagnostic: per-k failure counts of the main decoder
//! configurations, paired on identical syndromes.

#![forbid(unsafe_code)]

use ler::{DecoderKind, ExperimentContext, InjectionSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let d: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(9);
    let shots: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    let k_max: usize = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let ctx = ExperimentContext::new(d, 1e-4);
    println!(
        "d={d} p=1e-4 shots/k={shots} mechanisms={} mean errors/shot={:.2}",
        ctx.dem.errors.len(),
        ctx.dem.expected_error_count()
    );
    let kinds = [
        DecoderKind::Mwpm,
        DecoderKind::PromatchParAg,
        DecoderKind::PromatchAstrea,
        DecoderKind::AstreaG,
        DecoderKind::SmithAstrea,
    ];
    let mut decoders: Vec<_> = kinds.iter().map(|&k| ctx.decoder(k)).collect();
    let sampler = InjectionSampler::new(&ctx.dem);
    let p_occ = sampler.occurrence_probabilities(k_max);
    print!("{:<4} {:>10}", "k", "P_o(k)");
    for kind in kinds {
        print!(" {:>18}", kind.label());
    }
    println!();
    let mut lers = vec![0.0f64; kinds.len()];
    for k in 1..=k_max {
        let mut rng = StdRng::seed_from_u64(17 ^ (k as u64) << 20);
        let mut fails = vec![0u64; kinds.len()];
        for _ in 0..shots {
            let (shot, _) = sampler.sample_exact_k(&mut rng, k);
            for (i, dec) in decoders.iter_mut().enumerate() {
                let out = dec.decode(&shot.dets);
                if out.failed || out.obs_flip != shot.obs {
                    fails[i] += 1;
                }
            }
        }
        print!("{k:<4} {:>10.2e}", p_occ[k]);
        for (i, f) in fails.iter().enumerate() {
            print!(" {:>18}", f);
            lers[i] += p_occ[k] * *f as f64 / shots as f64;
        }
        println!();
    }
    print!("{:<15}", "Eq-1 LER");
    for l in lers {
        print!(" {:>18.2e}", l);
    }
    println!();
}
