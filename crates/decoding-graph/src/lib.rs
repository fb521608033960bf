//! Decoding graphs and shared decoder infrastructure.
//!
//! Every decoder and predecoder in the workspace operates on the same
//! substrate built here from a [`qsim::DetectorErrorModel`]:
//!
//! * [`DecodingGraph`] — detectors as nodes (plus one virtual boundary
//!   node), graphlike error mechanisms as weighted edges carrying logical
//!   observable masks. Weights are scaled integers
//!   `round(1000·ln((1−p)/p))` for exact, platform-independent
//!   arithmetic.
//! * [`ShortestPaths`] / [`PathTable`] — Dijkstra machinery with
//!   observable masks and hop counts along paths, plus the n×n quantized
//!   path table that Promatch's Step 3 hardware keeps in on-chip memory
//!   (Table 8 of the paper).
//! * [`NoTransitTable`] — boundary-as-sink distances (a static escape
//!   vector plus lazily memoized rows that stop at the largest cap the
//!   predecoder asks) and per-edge facts (a flat
//!   adjacency with weights and masks, plus a lazily memoized
//!   "is there a second way across?" byte per half-edge), the lookups
//!   behind the L1 batch predecoder's uniqueness proofs.
//! * [`SubgraphState`] — the subgraph induced by the flipped detectors
//!   of one syndrome (Figure 6 of the paper), with live degrees and
//!   `#dependent` counts: the one object Promatch, Smith and Clique
//!   inspect.
//! * [`Decoder`] / [`Predecoder`] traits with [`DecodeOutcome`] /
//!   [`PredecodeOutcome`] result types, plus the batched
//!   [`Decoder::decode_batch`] entry point.
//! * [`DecodeWorkspace`] / [`SlotMap`] / [`SyndromeBatch`] — reusable
//!   scratch arenas and flat shot batches that keep the steady-state
//!   decode loop free of per-shot scratch allocation; a workspace is
//!   owned by a decoder or lent to it ([`Decoder::decode_with`]), and
//!   carries the subgraph state Promatch predecodes on.
//! * [`packed`] — the bit-packed syndrome substrate: `u64` word kernels
//!   (XOR-accumulate, popcount scans, seam-masked window extraction),
//!   [`PackedBits`] scratch with branch-free touched-word resets, and
//!   [`PackedSyndromes`] — the packed twin of [`SyndromeBatch`] the
//!   frame-parallel datapath decodes from.
//! * [`LayerMap`] / [`GraphWindow`] — detector ⇄ round-layer mapping and
//!   detector-range window subgraphs (with [`SeamPolicy`] handling at
//!   the open seam) for the sliding-window streaming runtime in
//!   `crates/realtime`, plus the thread-safe [`WindowCache`] of
//!   [`WindowContext`]s (window graph + path table behind `Arc`) that
//!   lets many streams — or many tenants of the decode service — share
//!   one copy of the immutable per-range state.
//! * [`latency`] — the shared 250 MHz cycle constants, the paper's
//!   960 ns decode budget ([`latency::TIME_BUDGET_NS`]) and the
//!   [`LatencyModel`] trait every modeled hardware latency implements.
//!
//! # Example
//!
//! ```
//! use qsim::extract_dem;
//! use surface_code::{NoiseModel, RotatedSurfaceCode};
//! use decoding_graph::DecodingGraph;
//!
//! let code = RotatedSurfaceCode::new(3);
//! let circuit = code.memory_z_circuit(3, &NoiseModel::uniform(1e-3));
//! let graph = DecodingGraph::from_dem(&extract_dem(&circuit));
//! assert_eq!(graph.num_detectors(), 16);
//! assert!(graph.num_edges() > 16);
//! ```

#![forbid(unsafe_code)]

mod graph;
pub mod latency;
pub mod packed;
mod pathtable;
mod state;
mod traits;
mod window;
mod workspace;

pub use graph::{DecodingGraph, Edge, ShortestPaths, WEIGHT_SCALE};
pub use latency::{LatencyModel, PolynomialLatency, BATCH_PREDECODE_NS};
pub use packed::{PackedBits, PackedSyndromes, WordSpan};
pub use pathtable::{NoTransitTable, PathRow, PathTable, StorageModel};
pub use state::{Nbr, SubgraphState};
pub use traits::{DecodeOutcome, Decoder, MatchPair, MatchTarget, PredecodeOutcome, Predecoder};
pub use window::{GraphWindow, LayerMap, SeamPolicy, WindowCache, WindowContext};
pub use workspace::{DecodeWorkspace, SlotMap, SyndromeBatch};

/// Index of a detector within a decoding graph.
pub type DetectorId = u32;
