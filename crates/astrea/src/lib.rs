//! Astrea and Astrea-G: real-time MWPM decoders (Vittal et al., ISCA'23).
//!
//! These are the main decoders the Promatch paper builds on:
//!
//! * [`AstreaDecoder`] — the brute-force engine. For syndromes of Hamming
//!   weight ≤ 10 it enumerates every pairing of the flipped bits (each
//!   bit matched to another flipped bit or to the boundary) and returns
//!   the exact minimum-weight solution. Syndromes above its supported
//!   Hamming weight are a decode failure — this is precisely the
//!   limitation that motivates predecoding.
//! * [`AstreaGDecoder`] — the greedy variant. It prunes complete-graph
//!   edges whose error-chain probability falls below an LER-scale
//!   threshold, then runs a greedy-first near-exhaustive search under a
//!   real-time state budget. Accuracy degrades as the Hamming weight
//!   grows, reproducing the paper's reported gap to MWPM at d ≥ 11.
//!
//! Both decoders carry a cycle-level latency model at 250 MHz (4 ns per
//! cycle), calibrated to the 456 ns the Astrea paper reports for
//! HW = 10 brute-force decoding (see `DESIGN.md` §3.4).

#![forbid(unsafe_code)]

mod brute;
mod greedy;
mod latency;

pub use brute::{AstreaConfig, AstreaDecoder};
pub use greedy::{AstreaGConfig, AstreaGDecoder};
pub use latency::{AstreaLatencyModel, CYCLE_NS};
