//! Walkthrough of the Promatch predecoding pipeline on one high-HW
//! syndrome: subgraph structure, step usage, Hamming-weight reduction,
//! and the modeled real-time latency.
//!
//! ```text
//! cargo run --release --example predecoder_pipeline
//! ```

use promatch_repro::decoding_graph::{DecodingSubgraph, Predecoder};
use promatch_repro::ler::{ExperimentContext, InjectionSampler};
use promatch_repro::promatch::PromatchPredecoder;
use promatch_repro::surface_code::{MemoryBasis, RotatedSurfaceCode};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ctx = ExperimentContext::new(9, 1e-4);
    let sampler = InjectionSampler::new(&ctx.dem);
    let mut rng = StdRng::seed_from_u64(1234);

    // Find a high-Hamming-weight syndrome (the regime Promatch targets).
    let shot = loop {
        let (shot, _) = sampler.sample_exact_k(&mut rng, 9);
        if shot.dets.len() > 10 {
            break shot;
        }
    };
    println!("syndrome: HW = {} flipped detectors", shot.dets.len());
    let code = RotatedSurfaceCode::new(9);
    println!("{}", code.render_syndrome(MemoryBasis::Z, 9, &shot.dets));

    // Show the decoding-subgraph structure Promatch reasons about.
    let sg = DecodingSubgraph::build(&ctx.graph, &shot.dets);
    let deg = sg.degrees();
    let isolated_pairs = sg
        .edges()
        .iter()
        .filter(|e| deg[e.a] == 1 && deg[e.b] == 1)
        .count();
    let singletons = deg.iter().filter(|&&d| d == 0).count();
    println!(
        "decoding subgraph: {} edges, {} isolated pairs, {} singletons, {} components",
        sg.edges().len(),
        isolated_pairs,
        singletons,
        sg.components().len()
    );

    // Run the adaptive predecoder.
    let mut promatch = PromatchPredecoder::new(&ctx.graph, ctx.paths());
    let out = promatch.predecode(&shot.dets);
    let stats = promatch.last_stats();
    println!("\nPromatch result:");
    println!("  prematched pairs : {:?}", out.pairs);
    println!(
        "  remaining HW     : {} (Astrea handles <= 10)",
        out.remaining.len()
    );
    println!("  rounds           : {}", stats.rounds);
    println!("  highest step used: {:?}", stats.highest_step);
    println!(
        "  pipeline cycles  : {} ({} ns at 250 MHz)",
        stats.cycles, stats.predecode_ns
    );
    println!(
        "  1 us budget      : {} ns predecode + Astrea(HW={}) fits in 960 ns",
        stats.predecode_ns,
        out.remaining.len()
    );
    assert!(out.remaining.len() <= 10);
}
