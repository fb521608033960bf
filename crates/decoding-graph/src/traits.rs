//! Decoder and predecoder interfaces shared across the workspace.

use crate::workspace::{DecodeWorkspace, SyndromeBatch};
use crate::DetectorId;

/// The partner a detector was matched to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MatchTarget {
    /// Matched to another detector.
    Detector(DetectorId),
    /// Matched to the lattice boundary.
    Boundary,
}

/// One matched pair in a decoder's solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MatchPair {
    /// The matched detector.
    pub a: DetectorId,
    /// Its partner.
    pub b: MatchTarget,
}

/// Result of decoding one syndrome.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodeOutcome {
    /// Predicted logical-observable flip mask. Compared against the true
    /// flips to decide logical success.
    pub obs_flip: u64,
    /// Total weight of the matching solution (scaled integer), when the
    /// decoder produces one. Used by Promatch ‖ Astrea-G to pick the
    /// better of two solutions.
    pub weight: Option<i64>,
    /// Modeled wall-clock latency in nanoseconds (hardware decoders only).
    pub latency_ns: Option<f64>,
    /// The decoder gave up (e.g. exceeded its real-time budget or its
    /// supported Hamming weight). Callers count this as a logical error.
    pub failed: bool,
    /// The matched pairs, with each detector appearing exactly once
    /// (boundary-matched detectors appear with [`MatchTarget::Boundary`]).
    pub matches: Vec<MatchPair>,
}

impl DecodeOutcome {
    /// A failure outcome (counted as a logical error by harnesses).
    pub fn failure() -> Self {
        DecodeOutcome {
            obs_flip: 0,
            weight: None,
            latency_ns: None,
            failed: true,
            matches: Vec::new(),
        }
    }
}

/// A full decoder: syndrome in, logical correction out.
pub trait Decoder {
    /// Decodes one syndrome given as the sorted list of flipped
    /// detectors.
    fn decode(&mut self, dets: &[DetectorId]) -> DecodeOutcome;

    /// [`Decoder::decode`] on scratch lent by the caller: the same
    /// outcome, bit for bit, but whatever the decoder would have grown
    /// in its own workspace it grows in `ws`, which can outlive it.
    /// Compositions pass `ws` to their arms in turn. Decoders with no
    /// use for it keep this default.
    fn decode_with(&mut self, dets: &[DetectorId], ws: &mut DecodeWorkspace) -> DecodeOutcome {
        let _ = ws;
        self.decode(dets)
    }

    /// Decodes a whole batch of syndromes into `out` (cleared first).
    ///
    /// Long-lived decoders keep their internal workspaces warm across the
    /// batch, so streaming chunks of shots through this entry point keeps
    /// the steady-state decode loop free of scratch allocation. `out` is
    /// caller-owned and reusable across batches.
    fn decode_batch(&mut self, batch: &SyndromeBatch, out: &mut Vec<DecodeOutcome>) {
        out.clear();
        out.reserve(batch.len());
        for dets in batch.iter() {
            out.push(self.decode(dets));
        }
    }
}

/// Result of running a predecoder on one syndrome.
#[derive(Clone, Debug, PartialEq)]
pub struct PredecodeOutcome {
    /// Detectors left for the main decoder (sorted).
    pub remaining: Vec<DetectorId>,
    /// Prematched detector pairs.
    pub pairs: Vec<(DetectorId, DetectorId)>,
    /// Detectors the predecoder matched directly to the boundary
    /// (used by fully-decoding NSM predecoders such as Clique).
    pub boundary_matches: Vec<DetectorId>,
    /// Observable flips implied by the prematched pairs.
    pub obs_flip: u64,
    /// Total weight of the prematched pairs (scaled integer).
    pub weight: i64,
    /// Modeled predecoding latency in nanoseconds.
    pub latency_ns: f64,
    /// The predecoder gave up (exceeded its budget) — the syndrome is
    /// forwarded unmodified and the shot is typically counted as failed
    /// by real-time harnesses.
    pub aborted: bool,
}

impl PredecodeOutcome {
    /// A pass-through outcome: nothing prematched.
    pub fn passthrough(dets: &[DetectorId]) -> Self {
        PredecodeOutcome {
            remaining: dets.to_vec(),
            pairs: Vec::new(),
            boundary_matches: Vec::new(),
            obs_flip: 0,
            weight: 0,
            latency_ns: 0.0,
            aborted: false,
        }
    }

    /// Hamming weight remaining after predecoding.
    pub fn remaining_hw(&self) -> usize {
        self.remaining.len()
    }
}

/// A syndrome-modifying or non-syndrome-modifying predecoder.
pub trait Predecoder {
    /// Predecodes one syndrome given as the sorted flipped-detector list.
    fn predecode(&mut self, dets: &[DetectorId]) -> PredecodeOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_outcome_is_failed_and_empty() {
        let f = DecodeOutcome::failure();
        assert!(f.failed);
        assert_eq!(f.obs_flip, 0);
        assert!(f.matches.is_empty());
        assert!(f.weight.is_none());
    }

    #[test]
    fn passthrough_preserves_syndrome() {
        let dets = vec![1, 5, 9];
        let p = PredecodeOutcome::passthrough(&dets);
        assert_eq!(p.remaining, dets);
        assert_eq!(p.remaining_hw(), 3);
        assert!(p.pairs.is_empty());
        assert!(!p.aborted);
    }

    #[test]
    fn traits_are_object_safe() {
        fn _takes_decoder(_: &mut dyn Decoder) {}
        fn _takes_predecoder(_: &mut dyn Predecoder) {}
    }

    /// A decoder that reports the syndrome weight as its obs mask.
    struct CountingDecoder;

    impl Decoder for CountingDecoder {
        fn decode(&mut self, dets: &[DetectorId]) -> DecodeOutcome {
            DecodeOutcome {
                obs_flip: dets.len() as u64,
                weight: None,
                latency_ns: None,
                failed: false,
                matches: Vec::new(),
            }
        }
    }

    #[test]
    fn decode_batch_clears_and_covers_every_shot() {
        let mut dec = CountingDecoder;
        let mut batch = SyndromeBatch::new();
        batch.push(&[1, 2, 3]);
        batch.push(&[]);
        batch.push(&[7]);
        let mut out = vec![DecodeOutcome::failure()]; // stale entry
        dec.decode_batch(&batch, &mut out);
        let weights: Vec<u64> = out.iter().map(|o| o.obs_flip).collect();
        assert_eq!(weights, vec![3, 0, 1]);
        // Works through a trait object, too.
        let dyn_dec: &mut dyn Decoder = &mut dec;
        dyn_dec.decode_batch(&batch, &mut out);
        assert_eq!(out.len(), 3);
    }
}
