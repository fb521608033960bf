//! Promatch: real-time adaptive predecoding for surface codes.
//!
//! This crate implements the primary contribution of *"Promatch:
//! Extending the Reach of Real-Time Quantum Error Correction with
//! Adaptive Predecoding"* (Alavisamani et al., ASPLOS 2024):
//!
//! * [`PromatchPredecoder`] — Algorithm 1: a locality-aware greedy
//!   predecoder over the decoding subgraph with four prioritized steps
//!   (isolated pairs; singleton-safe neighbor matches; singleton rescue
//!   via the path table; risky matches), driven by the per-node degree
//!   and `#dependent` quantities of §4.1 and the hardware singleton
//!   logic of Figure 11. It adaptively stops once the remaining syndrome
//!   fits the main decoder's real-time capability ({6, 8, 10} Hamming
//!   weight targets, at most `astrea::MAX_HW`, within the 960 ns
//!   `decoding_graph::latency::TIME_BUDGET_NS`).
//! * [`PromatchAstreaDecoder`] — the full `Promatch + Astrea` real-time
//!   decoder of the evaluation (Table 2, "Promatch + Astrea" row),
//!   including the cycle-accurate latency accounting of §6.4.
//!
//! Running [`PromatchAstreaDecoder`] in parallel with Astrea-G (the
//! paper's headline `Promatch ‖ AG` configuration) is composed with
//! `predecoders::ParallelDecoder` in the evaluation crates.
//!
//! # Example
//!
//! ```
//! use qsim::extract_dem;
//! use surface_code::{NoiseModel, RotatedSurfaceCode};
//! use decoding_graph::{DecodingGraph, PathTable, Predecoder};
//! use promatch::{PromatchConfig, PromatchPredecoder};
//!
//! let code = RotatedSurfaceCode::new(5);
//! let circuit = code.memory_z_circuit(5, &NoiseModel::uniform(1e-3));
//! let graph = DecodingGraph::from_dem(&extract_dem(&circuit));
//! let paths = PathTable::build(&graph);
//! // Force predecoding all the way down (the real hardware only engages
//! // above Hamming weight 10; targets of zero make the example visible).
//! let config = PromatchConfig { hw_targets: [0, 0, 0], ..Default::default() };
//! let mut promatch = PromatchPredecoder::with_config(&graph, &paths, config);
//!
//! // An adjacent pair of flipped detectors is an isolated pair: Step 1
//! // prematches it outright.
//! let e = graph.edges().iter().find(|e| e.v != graph.boundary_node()).unwrap();
//! let mut dets = vec![e.u, e.v];
//! dets.sort();
//! let out = promatch.predecode(&dets);
//! assert_eq!(out.pairs.len(), 1);
//! assert!(out.remaining.is_empty());
//! ```

#![forbid(unsafe_code)]

mod algorithm;
mod combined;

pub use algorithm::{
    PathMetric, PromatchConfig, PromatchPredecoder, PromatchStats, SingletonRule, Step,
};
pub use combined::PromatchAstreaDecoder;
