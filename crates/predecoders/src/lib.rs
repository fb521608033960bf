//! Baseline predecoders and decoder combinators.
//!
//! Implements the two predecoder baselines the Promatch paper evaluates
//! against, plus the generic composition machinery used to build every
//! row of Tables 2 and 3:
//!
//! * [`CliquePredecoder`] — the non-syndrome-modifying (NSM) design of
//!   Ravi et al. \[49\]: it fully decodes syndromes composed exclusively of
//!   trivial local patterns (isolated adjacent pairs, lone
//!   boundary-adjacent defects) and otherwise forwards the syndrome to
//!   the main decoder **unmodified** — which is why it cannot help
//!   Astrea on high-Hamming-weight syndromes (Table 3).
//! * [`SmithPredecoder`] — the syndrome-modifying (SM) design of Smith
//!   et al. \[55\]: one pass matching every mutual isolated pair of flipped
//!   bits. High coverage on sparse syndromes, but no singleton awareness, no
//!   adaptivity, and no guarantee the remainder fits the main decoder.
//! * [`PipelineDecoder`] — `predecoder + main decoder` composition with
//!   the paper's convention that predecoding only engages above the main
//!   decoder's supported Hamming weight.
//! * [`ParallelDecoder`] — `A ‖ B` composition: run both, take the
//!   lower-weight solution, charging the 10-cycle comparison overhead
//!   the paper budgets for Promatch ‖ AG.
//! * [`BatchPredecoder`] — the Pinball-style L1 batch tier: cancels
//!   measurement-error pairs between consecutive rounds (`curr & prev`),
//!   locally resolves weight-≤2 trivial chains, and escalates the
//!   residual of `complex` batches to the full decoder. Consumed by the
//!   real-time sliding-window runtime as its opt-in first stage.

#![forbid(unsafe_code)]

mod batch;
mod clique;
mod pipeline;
mod smith;

pub use batch::{
    BatchOutcome, BatchPredecoder, EscalateCause, L1BatchStats, LocalMatch, BATCH_PREDECODE_CYCLES,
    MAX_L1_DEFECTS,
};
pub use clique::CliquePredecoder;
pub use pipeline::{ParallelDecoder, PipelineDecoder, COMPARISON_OVERHEAD_NS, ENGAGE_ABOVE_HW};
pub use smith::SmithPredecoder;

use decoding_graph::{Nbr, SubgraphState};

/// The other end of slot `i`'s isolated pair in a freshly built `sg`:
/// `i`'s only neighbor, when that neighbor's only neighbor is `i`.
fn isolated_partner(sg: &SubgraphState, i: usize) -> Option<&Nbr> {
    match sg.neighbors(i) {
        [n] if sg.deg(n.slot) == 1 => Some(n),
        _ => None,
    }
}
