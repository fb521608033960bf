//! Round-by-round syndrome streams over an arena-backed round buffer.
//!
//! Real decoders never receive a complete shot: detection events arrive
//! one measurement round at a time, every ~1 µs. [`SyndromeStream`]
//! turns the batch-oriented [`qsim::FrameSampler`] into that delivery
//! model — it samples shots in chunks (so the word-parallel sampler
//! stays efficient) over the detector space of the graph's
//! [`LayerMap`].
//!
//! # Zero-copy ingest
//!
//! Sampled rounds land directly in a bit-packed
//! [`decoding_graph::PackedSyndromes`] arena: each refill is one
//! word-parallel [`qsim::FrameSampler::sample_batch`] plus an in-place
//! transpose into shot-major words — no per-shot `Vec<u32>` is ever
//! materialized on the hot path. Packed consumers read shots as
//! [`PackedShot`] word views straight out of the arena
//! ([`SyndromeStream::next_shot_packed`]); the byte reference path
//! ([`SyndromeStream::next_shot`]) rebuilds the sampler's sparse
//! [`Shot`] form from the same arena words, so both paths observe
//! identical syndromes by construction.

use decoding_graph::packed::PackedSyndromes;
use decoding_graph::LayerMap;
use qsim::circuit::Circuit;
use qsim::{FrameSampler, Shot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One shot as a borrowed bit-packed word view into the stream's arena:
/// bit `d % 64` of word `d / 64` is detector `d`. The zero-copy twin of
/// [`Shot`] — no heap allocation, no detector-id
/// materialization; feed it straight to
/// [`crate::SlidingWindowDecoder::decode_shot_packed_into`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedShot<'a> {
    /// The shot's packed syndrome words (whole detector space).
    pub words: &'a [u64],
    /// True logical-observable flips (for scoring the decode).
    pub obs: u64,
}

/// Shots sampled per sampler refill.
const REFILL_CHUNK: usize = 256;

/// A continuous source of shots from a noisy circuit.
///
/// Deterministic given its seed: the stream samples shots through
/// [`FrameSampler`] in fixed-size chunks from a single seeded RNG, so
/// two streams with the same circuit and seed emit identical shots
/// regardless of how the consumer paces its reads — and regardless of
/// whether it reads them packed or sparse.
#[derive(Clone, Debug)]
pub struct SyndromeStream<'a> {
    sampler: FrameSampler<'a>,
    layers: Arc<LayerMap>,
    rng: StdRng,
    /// The round arena: one refill chunk of shot-major packed syndromes.
    arena: PackedSyndromes,
    /// One observable mask per arena shot.
    obs: Vec<u64>,
    next: usize,
    emitted: u64,
}

impl<'a> SyndromeStream<'a> {
    /// Creates a stream over `circuit`, whose detectors `layers` maps.
    pub fn new(circuit: &'a Circuit, layers: LayerMap, seed: u64) -> Self {
        Self::with_shared_layers(circuit, Arc::new(layers), seed)
    }

    /// Creates a stream sharing `layers` with other stream handles over
    /// the same circuit — the multi-tenant form: Q tenant streams of one
    /// scenario hold one layer map between them instead of Q copies.
    pub fn with_shared_layers(circuit: &'a Circuit, layers: Arc<LayerMap>, seed: u64) -> Self {
        let arena = PackedSyndromes::new(layers.num_detectors());
        SyndromeStream {
            sampler: FrameSampler::new(circuit),
            layers,
            rng: StdRng::seed_from_u64(seed),
            arena,
            obs: Vec::new(),
            next: 0,
            emitted: 0,
        }
    }

    /// The layer structure of the stream's detectors.
    pub fn layers(&self) -> &LayerMap {
        &self.layers
    }

    /// Shots emitted so far.
    pub fn shots_emitted(&self) -> u64 {
        self.emitted
    }

    /// Words per packed shot view (the arena stride).
    pub fn words_per_shot(&self) -> usize {
        self.arena.words_per_shot()
    }

    /// Refills the arena in place: one word-parallel batch sample, one
    /// transpose into shot-major words. The allocation is reused from
    /// the second refill on.
    fn refill(&mut self) {
        let batch = self.sampler.sample_batch(REFILL_CHUNK, &mut self.rng);
        self.arena.reset_shots(REFILL_CHUNK);
        let wps = self.arena.words_per_shot();
        batch.transpose_shots(wps, self.arena.words_mut(), &mut self.obs);
        self.next = 0;
    }

    /// Claims the next arena slot, refilling if the chunk is spent.
    fn advance(&mut self) -> usize {
        if self.next == self.arena.len() {
            self.refill();
        }
        let i = self.next;
        self.next += 1;
        self.emitted += 1;
        i
    }

    /// Samples the next shot of the stream in sparse form — the byte
    /// reference path, rebuilt from the same arena words the packed
    /// path serves.
    pub fn next_shot(&mut self) -> Shot {
        let i = self.advance();
        let mut dets = Vec::new();
        self.arena.sparse_into(i, &mut dets);
        Shot {
            dets,
            obs: self.obs[i],
        }
    }

    /// Samples the next shot as a zero-copy packed word view into the
    /// arena. The view borrows the stream; copy
    /// [`PackedShot::obs`]/decode before the next call.
    pub fn next_shot_packed(&mut self) -> PackedShot<'_> {
        let i = self.advance();
        PackedShot {
            words: self.arena.shot_words(i),
            obs: self.obs[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoding_graph::DecodingGraph;
    use surface_code::{NoiseModel, RotatedSurfaceCode};

    fn fixture(d: u32, rounds: u32) -> (qsim::Circuit, LayerMap) {
        let code = RotatedSurfaceCode::new(d);
        let circuit = code.memory_z_circuit(rounds, &NoiseModel::uniform(2e-3));
        let graph = DecodingGraph::from_dem(&qsim::extract_dem(&circuit));
        let layers = LayerMap::from_graph(&graph).unwrap();
        (circuit, layers)
    }

    #[test]
    fn layer_slices_partition_the_shot() {
        let (circuit, layers) = fixture(3, 4);
        let mut stream = SyndromeStream::new(&circuit, layers, 7);
        for _ in 0..50 {
            let shot = stream.next_shot();
            let layers = stream.layers();
            let mut rebuilt: Vec<u32> = Vec::new();
            for l in 0..layers.num_layers() {
                let range = layers.det_range(l, l + 1);
                rebuilt.extend(shot.dets.iter().filter(|d| range.contains(d)));
            }
            assert_eq!(rebuilt, shot.dets);
        }
        assert_eq!(stream.shots_emitted(), 50);
    }

    #[test]
    fn stream_is_deterministic_and_matches_batch_sampling() {
        let (circuit, layers) = fixture(3, 3);
        let mut a = SyndromeStream::new(&circuit, layers.clone(), 42);
        let mut b = SyndromeStream::new(&circuit, layers, 42);
        // Same seed -> identical shots, and identical to direct batch
        // sampling with the same chunking.
        let mut rng = StdRng::seed_from_u64(42);
        let direct = FrameSampler::new(&circuit).sample_shots(REFILL_CHUNK, &mut rng);
        for shot in direct.iter().take(300) {
            let sa = a.next_shot();
            let sb = b.next_shot();
            assert_eq!(sa, sb);
            assert_eq!(sa.dets, shot.dets);
            assert_eq!(sa.obs, shot.obs);
        }
    }

    #[test]
    fn packed_views_match_sparse_shots() {
        let (circuit, layers) = fixture(3, 3);
        let num_dets = layers.num_detectors();
        let mut sparse = SyndromeStream::new(&circuit, layers.clone(), 1234);
        let mut packed = SyndromeStream::new(&circuit, layers, 1234);
        for _ in 0..(REFILL_CHUNK + 20) {
            let s = sparse.next_shot();
            let p = packed.next_shot_packed();
            assert_eq!(p.obs, s.obs);
            let mut dets: Vec<u32> = Vec::new();
            decoding_graph::packed::for_each_set_bit(p.words, |b| dets.push(b as u32));
            assert_eq!(dets, s.dets);
            assert!(dets.iter().all(|&d| d < num_dets));
        }
        assert_eq!(packed.words_per_shot(), sparse.words_per_shot());
        assert_eq!(packed.shots_emitted(), sparse.shots_emitted());
    }

    #[test]
    fn shared_layer_streams_match_owned_layer_streams() {
        let (circuit, layers) = fixture(3, 3);
        let shared = Arc::new(layers.clone());
        let mut a = SyndromeStream::new(&circuit, layers, 9);
        let mut b = SyndromeStream::with_shared_layers(&circuit, Arc::clone(&shared), 9);
        let mut c = SyndromeStream::with_shared_layers(&circuit, shared, 9);
        for _ in 0..40 {
            let sa = a.next_shot();
            assert_eq!(sa, b.next_shot());
            assert_eq!(sa, c.next_shot());
        }
    }

    #[test]
    fn stream_refills_across_chunk_boundaries() {
        let (circuit, layers) = fixture(3, 2);
        let num_dets = layers.num_detectors();
        let mut stream = SyndromeStream::new(&circuit, layers, 3);
        for _ in 0..(2 * REFILL_CHUNK + 10) {
            let shot = stream.next_shot();
            assert!(shot.dets.iter().all(|&d| d < num_dets));
        }
        assert_eq!(stream.shots_emitted(), (2 * REFILL_CHUNK + 10) as u64);
    }
}
