//! Logical-error-rate estimation and experiment harnesses.
//!
//! Implements the evaluation methodology of Promatch §5.3:
//!
//! * [`poisson::poisson_binomial`] — the exact occurrence probabilities
//!   `P_o(k)` that exactly `k` of the circuit's error mechanisms fire;
//! * [`injection::InjectionSampler`] — likelihood-weighted sampling of
//!   syndromes conditioned on exactly `k` mechanisms firing (the
//!   rare-event method of \[48\], Equation 1);
//! * [`context::ExperimentContext`] — one-stop construction of the code,
//!   circuit, detector error model, decoding graph, and path table for a
//!   `(distance, physical error rate)` configuration, plus factory
//!   methods for every decoder configuration in the paper's tables;
//! * [`runner::run_eq1`] — the paired-decoder Equation-1 LER estimator
//!   (all decoders see identical syndromes, slashing comparison
//!   variance);
//! * [`study`] — the predecoder-focused studies: Hamming-weight
//!   reduction histograms (Figs 16/17), latency distributions (Tables
//!   4/5), step-usage frequencies (Table 6), and the accuracy/coverage
//!   tradeoff (Fig 1b).

#![forbid(unsafe_code)]

pub mod context;
pub mod injection;
pub mod poisson;
pub mod runner;
pub mod stats;
pub mod study;

pub use context::{build_decoder, DecoderKind, ExperimentContext};
pub use injection::InjectionSampler;
pub use poisson::poisson_binomial;
pub use runner::{
    effective_threads, run_eq1, run_monte_carlo, Eq1Config, Eq1Report, MonteCarloReport,
};
pub use stats::{eq1_interval, wilson_interval, RateInterval};
pub use study::{run_predecoder_study, run_tradeoff_study, PredecoderStudy, TradeoffPoint};
