//! Real-time streaming decode runtime.
//!
//! Everything else in this workspace decodes complete, pre-assembled
//! shots. Real hardware cannot: detection events arrive one measurement
//! round at a time (~1 µs apart), and a decoder that waits for a whole
//! shot — or that processes rounds slower than they arrive — accumulates
//! an exponentially growing backlog (Promatch §2). This crate is the
//! layer between sampling and decoding that models that regime:
//!
//! * [`SyndromeStream`] — a round-by-round detection-event source driven
//!   by the `qsim` frame sampler, slicing shots by the graph's
//!   [`decoding_graph::LayerMap`];
//! * [`SlidingWindowDecoder`] — overlapping-window ("sandwich") decoding
//!   over any [`ler::DecoderKind`], one shot per call through one window
//!   loop: decode `window` layers, commit the matches confined to the
//!   oldest `commit` layers, defer the rest into the next window (seam
//!   edges are cut per [`decoding_graph::SeamPolicy::Cut`], so committed
//!   corrections never cross a seam);
//! * [`simulate_backlog`] — a discrete-event FIFO queue fed at a
//!   configurable round period, producing reaction-time distributions
//!   (p50/p99/max), backlog-depth traces, and deadline-miss fractions;
//! * [`run_stream`] — the one glue harness (`repro realtime`, the
//!   scenario studies and the equivalence suites all call it): it takes
//!   the shared [`decoding_graph::WindowCache`] and an [`Instruments`]
//!   value that optionally arms stage spans and the flight recorder.
//!
//! # Example
//!
//! ```
//! use decoding_graph::{SeamPolicy, WindowCache};
//! use ler::{DecoderKind, ExperimentContext};
//! use realtime::{
//!     run_stream, BacklogConfig, Instruments, PredecodeMode, StreamRunConfig, WindowConfig,
//! };
//! use std::sync::Arc;
//!
//! let ctx = ExperimentContext::with_rounds(3, 5, 1e-3);
//! let cfg = StreamRunConfig {
//!     shots: 32,
//!     seed: 7,
//!     window: WindowConfig::new(4, 2).unwrap(),
//!     backlog: BacklogConfig::with_commit_deadline(1000.0, 2),
//!     predecode: PredecodeMode::Off,
//! };
//! let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
//! let run = run_stream(
//!     &ctx.graph,
//!     &ctx.circuit,
//!     DecoderKind::AstreaG,
//!     &cfg,
//!     &cache,
//!     Instruments::default(),
//! );
//! assert_eq!(run.backlog.windows, 32 * 2);
//! assert!(run.backlog.reaction.p50_ns > 0.0);
//! ```

#![forbid(unsafe_code)]

mod backlog;
mod harness;
mod stream;
mod window;

pub use backlog::{
    service_ns, simulate_backlog, BacklogConfig, BacklogReport, BacklogSample, LatencyStats,
    WindowTiming,
};
pub use harness::{
    fallback_latency_model, run_stream, Instruments, StreamRunConfig, StreamRunResult,
};
pub use stream::{PackedShot, SyndromeStream};
pub use window::{
    Datapath, PredecodeMode, SlidingWindowDecoder, WindowConfig, WindowRecord, WindowedOutcome,
};
