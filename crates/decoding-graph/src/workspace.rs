//! Reusable decode workspaces and flat syndrome batches.
//!
//! Every `Decoder::decode` call used to rebuild its entire scratch state
//! from fresh heap allocations. The types here let a long-lived decoder
//! (one per worker thread) keep that state across shots, *clearing*
//! buffers between calls instead of dropping them:
//!
//! * [`SlotMap`] — a detector-id → slot-index map over the decoding
//!   graph with O(k) reset, replacing the per-shot `HashMap`s the
//!   subgraph builders used to allocate.
//! * [`DecodeWorkspace`] — the scratch arena of one solve: edge lists,
//!   matching partners, search options, the subset-DP table, and the
//!   Promatch subgraph state. Decoders own one, or borrow the caller's.
//! * [`SyndromeBatch`] — many syndromes in one flat allocation, the
//!   currency of [`Decoder::decode_batch`](crate::Decoder::decode_batch):
//!   harnesses sample a chunk of shots into a batch and stream it through
//!   a decoder without any per-shot scratch allocation on either side.

use crate::packed::PackedSyndromes;
use crate::state::SubgraphState;
use crate::DetectorId;

/// A detector-id → slot-index map with O(k) reset.
///
/// Backed by a dense vector sized to the decoding graph, so lookups are
/// a single index. [`SlotMap::clear`] only touches the entries that were
/// inserted, keeping per-shot reset cost proportional to the syndrome
/// weight rather than the graph size.
#[derive(Clone, Debug, Default)]
pub struct SlotMap {
    slot: Vec<u32>,
    inserted: Vec<DetectorId>,
}

impl SlotMap {
    /// Sentinel for "detector not in the map".
    const NONE: u32 = u32::MAX;

    /// Creates an empty map (sized lazily on first use).
    pub fn new() -> Self {
        SlotMap::default()
    }

    /// Clears the map and ensures capacity for detector ids `< n`.
    pub fn reset(&mut self, n: usize) {
        self.clear();
        if self.slot.len() < n {
            self.slot.resize(n, Self::NONE);
        }
    }

    /// Removes all entries (O(inserted), not O(graph)).
    pub fn clear(&mut self) {
        for &d in &self.inserted {
            self.slot[d as usize] = Self::NONE;
        }
        self.inserted.clear();
    }

    /// Maps `det` to `slot`. The detector must fit the capacity declared
    /// via [`SlotMap::reset`] and must not already be present.
    pub fn insert(&mut self, det: DetectorId, slot: usize) {
        debug_assert_eq!(self.slot[det as usize], Self::NONE, "duplicate detector");
        self.slot[det as usize] = slot as u32;
        self.inserted.push(det);
    }

    /// The slot of `det`, if present. Detectors beyond the declared
    /// capacity report `None`.
    pub fn get(&self, det: DetectorId) -> Option<usize> {
        match self.slot.get(det as usize) {
            Some(&s) if s != Self::NONE => Some(s as usize),
            _ => None,
        }
    }
}

/// Reusable scratch for the decoders of one solve.
///
/// Every decoder owns one for plain [`Decoder::decode`](crate::Decoder::decode)
/// calls; a caller whose decoders are short-lived (the window engine
/// builds one per window, over that window's graph) owns a single
/// workspace instead and lends it through
/// [`Decoder::decode_with`](crate::Decoder::decode_with), so the scratch
/// outlives the decoders. Nothing in it is tied to a graph: buffers are
/// sized on use and cleared, never dropped, and every user overwrites
/// what it reads, so the arms of a composition can share one workspace
/// back to back.
#[derive(Clone, Debug, Default)]
pub struct DecodeWorkspace {
    /// Syndrome-graph edge list `(u, v, weight)`.
    pub edges: Vec<(usize, usize, i64)>,
    /// Matching partner per vertex.
    pub mates: Vec<usize>,
    /// Partner assignment being explored by a search.
    pub partner: Vec<usize>,
    /// Best complete partner assignment found so far.
    pub best_partner: Vec<usize>,
    /// Per-vertex partner options `(weight, partner)` of a search, rows
    /// back to back and delimited by [`DecodeWorkspace::option_starts`].
    pub options: Vec<(i64, usize)>,
    /// Row bounds of [`DecodeWorkspace::options`] (`k + 1` entries).
    pub option_starts: Vec<usize>,
    /// Dense local weights of a small syndrome (pair and boundary
    /// distances gathered once from the path table).
    pub weights: Vec<i64>,
    /// Subset-indexed dynamic-programming table (`2^k` entries).
    pub subset_best: Vec<i64>,
    /// The decoding subgraph a predecoder works on.
    pub subgraph: SubgraphState,
    /// Scan scratch of a predecoding round: candidate slot pairs.
    pub slot_pairs: Vec<(usize, usize)>,
    /// Detector pairs a predecoder matched.
    pub pairs: Vec<(DetectorId, DetectorId)>,
    /// Detectors a predecoder left for the main decoder.
    pub remaining: Vec<DetectorId>,
}

impl DecodeWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        DecodeWorkspace::default()
    }
}

/// A batch of syndromes stored flat: one `Vec` of detector ids plus one
/// `Vec` of offsets, regardless of how many shots it holds.
#[derive(Clone, Debug)]
pub struct SyndromeBatch {
    dets: Vec<DetectorId>,
    /// Prefix offsets; `bounds[i]..bounds[i+1]` delimits shot `i`.
    bounds: Vec<usize>,
}

impl Default for SyndromeBatch {
    fn default() -> Self {
        SyndromeBatch::new()
    }
}

impl SyndromeBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        SyndromeBatch {
            dets: Vec::new(),
            bounds: vec![0],
        }
    }

    /// Removes all shots, keeping the allocations.
    pub fn clear(&mut self) {
        self.dets.clear();
        self.bounds.truncate(1);
    }

    /// Appends one syndrome (sorted flipped-detector list).
    pub fn push(&mut self, dets: &[DetectorId]) {
        self.dets.extend_from_slice(dets);
        self.bounds.push(self.dets.len());
    }

    /// Number of shots in the batch.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether the batch holds no shots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th syndrome.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &[DetectorId] {
        &self.dets[self.bounds[i]..self.bounds[i + 1]]
    }

    /// Iterates over the syndromes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[DetectorId]> {
        self.bounds.windows(2).map(|w| &self.dets[w[0]..w[1]])
    }

    /// Packs the batch into its bit-packed twin over a `num_detectors`
    /// space (one bit per detector per shot).
    ///
    /// # Panics
    ///
    /// Panics if any detector id is `>= num_detectors`.
    pub fn pack(&self, num_detectors: u32) -> PackedSyndromes {
        let mut packed = PackedSyndromes::new(num_detectors);
        for shot in self.iter() {
            packed.push_sparse(shot);
        }
        packed
    }

    /// Rebuilds the sparse batch from a packed one (cleared first).
    pub fn unpack_from(&mut self, packed: &PackedSyndromes) {
        self.clear();
        let mut shot = Vec::new();
        for i in 0..packed.len() {
            packed.sparse_into(i, &mut shot);
            self.push(&shot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_map_inserts_and_resets_in_syndrome_size() {
        let mut m = SlotMap::new();
        m.reset(16);
        m.insert(3, 0);
        m.insert(11, 1);
        assert_eq!(m.get(3), Some(0));
        assert_eq!(m.get(11), Some(1));
        assert_eq!(m.get(4), None);
        assert_eq!(m.get(999), None, "out-of-capacity lookups are None");
        m.reset(16);
        assert_eq!(m.get(3), None);
        assert_eq!(m.get(11), None);
        // Capacity can grow across resets.
        m.reset(32);
        m.insert(31, 7);
        assert_eq!(m.get(31), Some(7));
    }

    #[test]
    fn syndrome_batch_round_trips_shots() {
        let mut b = SyndromeBatch::new();
        assert!(b.is_empty());
        b.push(&[1, 4, 9]);
        b.push(&[]);
        b.push(&[2]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0), &[1, 4, 9]);
        assert_eq!(b.get(1), &[] as &[u32]);
        assert_eq!(b.get(2), &[2]);
        let collected: Vec<Vec<u32>> = b.iter().map(|s| s.to_vec()).collect();
        assert_eq!(collected, vec![vec![1, 4, 9], vec![], vec![2]]);
        let cap = {
            b.clear();
            assert!(b.is_empty());
            b.dets.capacity()
        };
        assert!(cap >= 4, "clear keeps the allocation");
    }

    #[test]
    fn workspace_buffers_are_reusable() {
        let mut ws = DecodeWorkspace::new();
        ws.edges.push((0, 1, 5));
        ws.mates.push(1);
        ws.edges.clear();
        ws.mates.clear();
        assert!(ws.edges.capacity() >= 1);
        assert!(ws.mates.capacity() >= 1);
    }

    #[test]
    fn batch_pack_round_trips_through_packed_syndromes() {
        let mut b = SyndromeBatch::new();
        b.push(&[1, 4, 9]);
        b.push(&[]);
        b.push(&[2, 64, 65]);
        let packed = b.pack(80);
        assert_eq!(packed.len(), 3);
        let mut back = SyndromeBatch::new();
        back.push(&[7]); // stale shot must be cleared
        back.unpack_from(&packed);
        assert_eq!(back.len(), b.len());
        for (a, c) in b.iter().zip(back.iter()) {
            assert_eq!(a, c);
        }
    }
}
