//! Walkthrough of the Promatch predecoding pipeline on one high-HW
//! syndrome: subgraph structure, step usage, Hamming-weight reduction,
//! and the modeled real-time latency.
//!
//! ```text
//! cargo run --release --example predecoder_pipeline
//! ```

use promatch_repro::astrea::MAX_HW;
use promatch_repro::decoding_graph::latency::TIME_BUDGET_NS;
use promatch_repro::decoding_graph::{Predecoder, SubgraphState};
use promatch_repro::ler::{ExperimentContext, InjectionSampler};
use promatch_repro::promatch::PromatchPredecoder;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ctx = ExperimentContext::new(9, 1e-4);
    let sampler = InjectionSampler::new(&ctx.dem);
    let mut rng = StdRng::seed_from_u64(1234);

    // Find a high-Hamming-weight syndrome (the regime Promatch targets).
    let shot = loop {
        let (shot, _) = sampler.sample_exact_k(&mut rng, 9);
        if shot.dets.len() > MAX_HW {
            break shot;
        }
    };
    println!("syndrome: HW = {} flipped detectors", shot.dets.len());

    // Show the decoding-subgraph structure Promatch reasons about.
    let sg = SubgraphState::build(&ctx.graph, &shot.dets);
    let isolated_pairs = sg
        .live_slots()
        .filter(|&i| sg.deg(i) == 1 && sg.dependents(i) == 1)
        .count()
        / 2;
    println!(
        "decoding subgraph: {} edges, {} isolated pairs, {} singletons",
        sg.live_edges(),
        isolated_pairs,
        sg.singleton_slots().count()
    );

    // Run the adaptive predecoder.
    let mut promatch = PromatchPredecoder::new(&ctx.graph, ctx.paths());
    let out = promatch.predecode(&shot.dets);
    let stats = promatch.last_stats();
    println!("\nPromatch result:");
    println!("  prematched pairs : {:?}", out.pairs);
    println!(
        "  remaining HW     : {} (Astrea handles <= {MAX_HW})",
        out.remaining.len()
    );
    println!("  rounds           : {}", stats.rounds);
    println!("  highest step used: {:?}", stats.highest_step);
    println!(
        "  pipeline cycles  : {} ({} ns at 250 MHz)",
        stats.cycles, stats.predecode_ns
    );
    println!(
        "  1 us budget      : {} ns predecode + Astrea(HW={}) fits in {TIME_BUDGET_NS} ns",
        stats.predecode_ns,
        out.remaining.len()
    );
    assert!(out.remaining.len() <= MAX_HW);
}
