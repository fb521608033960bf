//! Bit-packed Pauli-frame sampler.
//!
//! Samples detection events and observable flips for many shots at once:
//! each machine word holds the same frame bit for 64 independent shots, so
//! Clifford propagation is word-parallel, and noise injection uses
//! geometric skipping (see [`crate::rngutil`]) so its cost scales with the
//! number of errors, not the number of (site × shot) pairs.
//!
//! The frame semantics follow Stim: the simulator tracks a Pauli error
//! frame relative to a noiseless reference execution. Because detectors
//! are deterministic parities in the noiseless circuit, the sampled
//! detector value equals the XOR of record *flips*, so reference values
//! are never needed.
//!
//! One modeling note: the sampler assumes measured qubits are reset before
//! reuse (true for all circuits generated by the `surface-code` crate);
//! it does not randomize the post-measurement Z frame.

use crate::circuit::{Circuit, Op};
use crate::rngutil::sample_bernoulli_hits;
use rand::Rng;

/// A single sampled shot in sparse form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Shot {
    /// Indices of detectors that fired, sorted ascending.
    pub dets: Vec<u32>,
    /// Bit mask of flipped logical observables.
    pub obs: u64,
}

/// Dense batch output: one bit plane per detector / observable.
#[derive(Clone, Debug)]
pub struct SampleBatch {
    num_shots: usize,
    words_per_row: usize,
    num_detectors: u32,
    num_observables: u32,
    det_rows: Vec<u64>,
    obs_rows: Vec<u64>,
}

impl SampleBatch {
    /// Number of shots in the batch.
    pub fn num_shots(&self) -> usize {
        self.num_shots
    }

    /// Number of detectors per shot.
    pub fn num_detectors(&self) -> u32 {
        self.num_detectors
    }

    /// Number of logical observables per shot.
    pub fn num_observables(&self) -> u32 {
        self.num_observables
    }

    /// Packed words per detector row (shots are the bit dimension:
    /// bit `s % 64` of word `s / 64` is shot `s`).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// The packed shot-words of detector `det` — the sampler's native
    /// frame-parallel output (64 shots per word), handed out directly so
    /// packed consumers never round-trip through sparse form.
    pub fn detector_words(&self, det: u32) -> &[u64] {
        let row = det as usize * self.words_per_row;
        &self.det_rows[row..row + self.words_per_row]
    }

    /// The packed shot-words of observable `obs`.
    pub fn observable_words(&self, obs: u32) -> &[u64] {
        let row = obs as usize * self.words_per_row;
        &self.obs_rows[row..row + self.words_per_row]
    }

    /// Appends every shot of the batch to `out` in sparse form, scanning
    /// the packed detector rows a word at a time (one `trailing_zeros`
    /// per detection event) instead of testing every (shot × detector)
    /// bit — the fast path behind [`FrameSampler::sample_shots_into`].
    pub fn append_shots_sparse(&self, out: &mut Vec<Shot>) {
        let base = out.len();
        out.resize_with(base + self.num_shots, Shot::default);
        for d in 0..self.num_detectors {
            for (i, &word) in self.detector_words(d).iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let s = i * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    if s < self.num_shots {
                        // Detector rows ascend, so each shot's list
                        // stays sorted.
                        out[base + s].dets.push(d);
                    }
                }
            }
        }
        for (s, shot) in out[base..].iter_mut().enumerate() {
            shot.obs = self.observables(s);
        }
    }

    /// Transposes the batch from its native detector-major planes (bit
    /// = shot) into shot-major packed rows (bit = detector): row `s` of
    /// `det_out` is shot `s`'s syndrome as `words_per_shot` consecutive
    /// `u64` words, bit `d % 64` of word `d / 64` being detector `d` —
    /// the layout the packed decode pipeline consumes. `obs_out` is
    /// cleared and refilled with one observable mask per shot.
    ///
    /// `det_out` must be zeroed by the caller (the arena reset), so the
    /// transpose only ORs: cost scales with detection events, not with
    /// the (shot × detector) grid.
    ///
    /// # Panics
    ///
    /// Panics if `det_out` is shorter than `num_shots × words_per_shot`
    /// words or `words_per_shot` cannot hold the detector space.
    pub fn transpose_shots(
        &self,
        words_per_shot: usize,
        det_out: &mut [u64],
        obs_out: &mut Vec<u64>,
    ) {
        assert!(
            words_per_shot * 64 >= self.num_detectors as usize,
            "{words_per_shot} words cannot hold {} detectors",
            self.num_detectors
        );
        assert!(
            det_out.len() >= self.num_shots * words_per_shot,
            "det_out holds {} words, need {}",
            det_out.len(),
            self.num_shots * words_per_shot
        );
        for d in 0..self.num_detectors {
            let (dw, db) = (d as usize / 64, d as usize % 64);
            for (i, &word) in self.detector_words(d).iter().enumerate() {
                let mut w = word;
                while w != 0 {
                    let s = i * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    if s < self.num_shots {
                        det_out[s * words_per_shot + dw] |= 1u64 << db;
                    }
                }
            }
        }
        obs_out.clear();
        obs_out.extend((0..self.num_shots).map(|s| self.observables(s)));
    }

    /// Whether detector `det` fired in shot `shot`.
    pub fn detector(&self, shot: usize, det: u32) -> bool {
        let row = det as usize * self.words_per_row;
        (self.det_rows[row + shot / 64] >> (shot % 64)) & 1 == 1
    }

    /// Observable flip mask for shot `shot`.
    pub fn observables(&self, shot: usize) -> u64 {
        let mut mask = 0u64;
        for o in 0..self.num_observables {
            let row = o as usize * self.words_per_row;
            if (self.obs_rows[row + shot / 64] >> (shot % 64)) & 1 == 1 {
                mask |= 1 << o;
            }
        }
        mask
    }

    /// Extracts shot `shot` in sparse form.
    pub fn shot(&self, shot: usize) -> Shot {
        assert!(shot < self.num_shots, "shot {shot} out of range");
        let mut dets = Vec::new();
        for d in 0..self.num_detectors {
            if self.detector(shot, d) {
                dets.push(d);
            }
        }
        Shot {
            dets,
            obs: self.observables(shot),
        }
    }

    /// Iterates over all shots in sparse form.
    pub fn iter(&self) -> impl Iterator<Item = Shot> + '_ {
        (0..self.num_shots).map(|s| self.shot(s))
    }
}

/// Samples detection events from a noisy [`Circuit`].
#[derive(Clone, Debug)]
pub struct FrameSampler<'a> {
    circuit: &'a Circuit,
}

impl<'a> FrameSampler<'a> {
    /// Creates a sampler for `circuit`.
    pub fn new(circuit: &'a Circuit) -> Self {
        FrameSampler { circuit }
    }

    /// Samples `shots` shots, returning dense bit planes.
    pub fn sample_batch<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> SampleBatch {
        let c = self.circuit;
        let nq = c.num_qubits() as usize;
        let w = shots.div_ceil(64).max(1);
        let mut fx = vec![0u64; nq * w]; // X component of the frame
        let mut fz = vec![0u64; nq * w]; // Z component of the frame
        let mut rec = vec![0u64; c.num_measurements() * w];
        let mut det_rows = vec![0u64; c.num_detectors() as usize * w];
        let mut obs_rows = vec![0u64; c.num_observables() as usize * w];
        let mut next_m = 0usize;
        let mut next_d = 0usize;

        let toggle = |plane: &mut [u64], q: usize, shot: usize| {
            plane[q * w + shot / 64] ^= 1u64 << (shot % 64);
        };

        for op in c.ops() {
            match op {
                Op::ResetZ(qs) => {
                    for &q in qs {
                        let q = q as usize;
                        fx[q * w..(q + 1) * w].fill(0);
                        fz[q * w..(q + 1) * w].fill(0);
                    }
                }
                Op::H(qs) => {
                    for &q in qs {
                        let q = q as usize;
                        for i in 0..w {
                            std::mem::swap(&mut fx[q * w + i], &mut fz[q * w + i]);
                        }
                    }
                }
                Op::Cx(pairs) => {
                    for &(cq, tq) in pairs {
                        let (cq, tq) = (cq as usize, tq as usize);
                        for i in 0..w {
                            // X on control propagates to target.
                            fx[tq * w + i] ^= fx[cq * w + i];
                            // Z on target propagates to control.
                            fz[cq * w + i] ^= fz[tq * w + i];
                        }
                    }
                }
                Op::MeasureZ(qs) => {
                    for &q in qs {
                        let q = q as usize;
                        rec[next_m * w..(next_m + 1) * w].copy_from_slice(&fx[q * w..(q + 1) * w]);
                        next_m += 1;
                    }
                }
                Op::XError { qubits, p } => {
                    for &q in qubits {
                        sample_bernoulli_hits(rng, shots, *p, |s| {
                            toggle(&mut fx, q as usize, s);
                        });
                    }
                }
                Op::ZError { qubits, p } => {
                    for &q in qubits {
                        sample_bernoulli_hits(rng, shots, *p, |s| {
                            toggle(&mut fz, q as usize, s);
                        });
                    }
                }
                Op::PauliError { qubits, px, py, pz } => {
                    let total = px + py + pz;
                    for &q in qubits {
                        let mut hits = Vec::new();
                        sample_bernoulli_hits(rng, shots, total, |s| hits.push(s));
                        for s in hits {
                            // Pick the component by its share of the
                            // total firing probability.
                            let u: f64 = rng.gen_range(0.0..total);
                            if u < *px {
                                toggle(&mut fx, q as usize, s);
                            } else if u < px + py {
                                toggle(&mut fx, q as usize, s);
                                toggle(&mut fz, q as usize, s);
                            } else {
                                toggle(&mut fz, q as usize, s);
                            }
                        }
                    }
                }
                Op::Depolarize1 { qubits, p } => {
                    for &q in qubits {
                        // Collect hits first: the closure cannot borrow rng
                        // while sample_bernoulli_hits drives it.
                        let mut hits = Vec::new();
                        sample_bernoulli_hits(rng, shots, *p, |s| hits.push(s));
                        for s in hits {
                            let which: u8 = rng.gen_range(1..4);
                            if which & 1 != 0 {
                                toggle(&mut fx, q as usize, s);
                            }
                            if which & 2 != 0 {
                                toggle(&mut fz, q as usize, s);
                            }
                        }
                    }
                }
                Op::Depolarize2 { pairs, p } => {
                    for &(a, b) in pairs {
                        let mut hits = Vec::new();
                        sample_bernoulli_hits(rng, shots, *p, |s| hits.push(s));
                        for s in hits {
                            // 4 bits encode (P_a, P_b); 0 (= II) excluded.
                            let which: u8 = rng.gen_range(1..16);
                            let pa = which & 3;
                            let pb = which >> 2;
                            if pa & 1 != 0 {
                                toggle(&mut fx, a as usize, s);
                            }
                            if pa & 2 != 0 {
                                toggle(&mut fz, a as usize, s);
                            }
                            if pb & 1 != 0 {
                                toggle(&mut fx, b as usize, s);
                            }
                            if pb & 2 != 0 {
                                toggle(&mut fz, b as usize, s);
                            }
                        }
                    }
                }
                Op::Detector { meas, .. } => {
                    for &m in meas {
                        for i in 0..w {
                            det_rows[next_d * w + i] ^= rec[m * w + i];
                        }
                    }
                    next_d += 1;
                }
                Op::Observable { index, meas } => {
                    let row = *index as usize * w;
                    for &m in meas {
                        for i in 0..w {
                            obs_rows[row + i] ^= rec[m * w + i];
                        }
                    }
                }
            }
        }

        SampleBatch {
            num_shots: shots,
            words_per_row: w,
            num_detectors: c.num_detectors(),
            num_observables: c.num_observables(),
            det_rows,
            obs_rows,
        }
    }

    /// Samples `shots` shots and returns them in sparse form.
    pub fn sample_shots<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<Shot> {
        let mut out = Vec::new();
        self.sample_shots_into(shots, rng, &mut out);
        out
    }

    /// Samples `shots` shots into `out` (cleared first), reusing its
    /// allocation — the refill entry point for streaming consumers that
    /// top up a shot buffer repeatedly (e.g. the round-by-round syndrome
    /// stream in `crates/realtime`).
    pub fn sample_shots_into<R: Rng + ?Sized>(
        &self,
        shots: usize,
        rng: &mut R,
        out: &mut Vec<Shot>,
    ) {
        // Batch in chunks to bound memory for very large requests.
        const CHUNK: usize = 4096;
        out.clear();
        out.reserve(shots);
        let mut remaining = shots;
        while remaining > 0 {
            let n = remaining.min(CHUNK);
            let batch = self.sample_batch(n, rng);
            batch.append_shots_sparse(out);
            remaining -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xFEED)
    }

    /// Single parity check: data 0, 1 measured through ancilla 2.
    fn parity_check_circuit(p_data: f64) -> Circuit {
        let mut b = CircuitBuilder::new(3);
        b.reset_z(&[0, 1, 2]);
        b.x_error(&[0, 1], p_data);
        b.cx(&[(0, 2)]);
        b.cx(&[(1, 2)]);
        let m = b.measure_z(&[2]);
        b.detector(&[m.start], [0.0; 3]);
        let md = b.measure_z(&[0, 1]);
        b.observable(0, &[md.start]);
        b.finish().unwrap()
    }

    #[test]
    fn noiseless_circuit_fires_no_detectors() {
        let c = parity_check_circuit(0.0);
        let sampler = FrameSampler::new(&c);
        let shots = sampler.sample_shots(256, &mut rng());
        assert!(shots.iter().all(|s| s.dets.is_empty() && s.obs == 0));
    }

    #[test]
    fn certain_error_always_fires_detector_and_observable() {
        // X on qubit 0 with p = 1: detector fires, observable flips.
        let mut b = CircuitBuilder::new(3);
        b.reset_z(&[0, 1, 2]);
        b.x_error(&[0], 1.0);
        b.cx(&[(0, 2)]);
        b.cx(&[(1, 2)]);
        let m = b.measure_z(&[2]);
        b.detector(&[m.start], [0.0; 3]);
        let md = b.measure_z(&[0, 1]);
        b.observable(0, &[md.start]);
        let c = b.finish().unwrap();
        let shots = FrameSampler::new(&c).sample_shots(100, &mut rng());
        assert!(shots.iter().all(|s| s.dets == vec![0] && s.obs == 1));
    }

    #[test]
    fn z_error_is_invisible_to_z_measurement() {
        let mut b = CircuitBuilder::new(1);
        b.reset_z(&[0]);
        b.z_error(&[0], 1.0);
        let m = b.measure_z(&[0]);
        b.detector(&[m.start], [0.0; 3]);
        let c = b.finish().unwrap();
        let shots = FrameSampler::new(&c).sample_shots(64, &mut rng());
        assert!(shots.iter().all(|s| s.dets.is_empty()));
    }

    #[test]
    fn hadamard_turns_z_error_into_flip() {
        let mut b = CircuitBuilder::new(1);
        b.reset_z(&[0]);
        b.h(&[0]);
        b.z_error(&[0], 1.0);
        b.h(&[0]);
        let m = b.measure_z(&[0]);
        b.detector(&[m.start], [0.0; 3]);
        let c = b.finish().unwrap();
        let shots = FrameSampler::new(&c).sample_shots(64, &mut rng());
        assert!(shots.iter().all(|s| s.dets == vec![0]));
    }

    #[test]
    fn reset_clears_pending_errors() {
        let mut b = CircuitBuilder::new(1);
        b.reset_z(&[0]);
        b.x_error(&[0], 1.0);
        b.reset_z(&[0]);
        let m = b.measure_z(&[0]);
        b.detector(&[m.start], [0.0; 3]);
        let c = b.finish().unwrap();
        let shots = FrameSampler::new(&c).sample_shots(64, &mut rng());
        assert!(shots.iter().all(|s| s.dets.is_empty()));
    }

    #[test]
    fn error_rate_statistics_match_probability() {
        let p = 0.05;
        let c = parity_check_circuit(p);
        // P(detector fires) = P(odd number of the two X errors) = 2p(1-p).
        let expect = 2.0 * p * (1.0 - p);
        let n = 200_000;
        let shots = FrameSampler::new(&c).sample_shots(n, &mut rng());
        let fired = shots.iter().filter(|s| !s.dets.is_empty()).count();
        let mean = fired as f64 / n as f64;
        let sigma = (expect * (1.0 - expect) / n as f64).sqrt();
        assert!(
            (mean - expect).abs() < 5.0 * sigma,
            "rate {mean} vs expected {expect}"
        );
    }

    #[test]
    fn sample_shots_into_matches_sample_shots() {
        let c = parity_check_circuit(0.2);
        let sampler = FrameSampler::new(&c);
        let owned = sampler.sample_shots(300, &mut rng());
        let mut reused = vec![Shot::default()]; // stale entry must be cleared
        sampler.sample_shots_into(300, &mut rng(), &mut reused);
        assert_eq!(owned, reused);
    }

    #[test]
    fn batch_and_sparse_agree() {
        let c = parity_check_circuit(0.3);
        let sampler = FrameSampler::new(&c);
        let batch = sampler.sample_batch(100, &mut rng());
        let sparse: Vec<Shot> = batch.iter().collect();
        for (s, shot) in sparse.iter().enumerate() {
            assert_eq!(batch.shot(s), *shot);
        }
    }

    #[test]
    fn word_scan_extraction_matches_per_bit_extraction() {
        let c = parity_check_circuit(0.3);
        let sampler = FrameSampler::new(&c);
        // 100 shots: a ragged final word exercises the s < num_shots
        // guard on the word scan.
        let batch = sampler.sample_batch(100, &mut rng());
        let mut scanned = vec![Shot::default()];
        let stale = scanned.len();
        batch.append_shots_sparse(&mut scanned);
        assert_eq!(scanned.len(), stale + 100, "appends after existing shots");
        for s in 0..batch.num_shots() {
            assert_eq!(scanned[stale + s], batch.shot(s));
        }
    }

    #[test]
    fn packed_accessors_expose_the_detector_planes() {
        let c = parity_check_circuit(0.5);
        let sampler = FrameSampler::new(&c);
        let batch = sampler.sample_batch(130, &mut rng());
        assert_eq!(batch.num_detectors(), 1);
        assert_eq!(batch.num_observables(), 1);
        assert_eq!(batch.words_per_row(), 3);
        let row = batch.detector_words(0);
        assert_eq!(row.len(), 3);
        for s in 0..batch.num_shots() {
            let bit = (row[s / 64] >> (s % 64)) & 1 == 1;
            assert_eq!(bit, batch.detector(s, 0), "shot {s}");
            let obit = (batch.observable_words(0)[s / 64] >> (s % 64)) & 1 == 1;
            assert_eq!(obit, batch.observables(s) & 1 == 1, "obs shot {s}");
        }
    }

    #[test]
    fn transpose_matches_per_shot_extraction() {
        let c = parity_check_circuit(0.3);
        let sampler = FrameSampler::new(&c);
        // 100 shots: the ragged final word exercises the shot guard.
        let batch = sampler.sample_batch(100, &mut rng());
        let wps = 2usize; // wider than the 1-detector space, still legal
        let mut det_out = vec![0u64; 100 * wps];
        let mut obs_out = vec![0xDEAD]; // stale entry must be cleared
        batch.transpose_shots(wps, &mut det_out, &mut obs_out);
        assert_eq!(obs_out.len(), 100);
        for s in 0..batch.num_shots() {
            let shot = batch.shot(s);
            let row = &det_out[s * wps..(s + 1) * wps];
            let mut dets = Vec::new();
            for (i, &w) in row.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    dets.push((i * 64) as u32 + w.trailing_zeros());
                    w &= w - 1;
                }
            }
            assert_eq!(dets, shot.dets, "shot {s}");
            assert_eq!(obs_out[s], shot.obs, "shot {s}");
        }
    }

    #[test]
    fn x_on_cx_control_propagates_to_target() {
        let mut b = CircuitBuilder::new(2);
        b.reset_z(&[0, 1]);
        b.x_error(&[0], 1.0);
        b.cx(&[(0, 1)]);
        let m = b.measure_z(&[0, 1]);
        b.detector(&[m.start], [0.0; 3]);
        b.detector(&[m.start + 1], [0.0; 3]);
        let c = b.finish().unwrap();
        let shots = FrameSampler::new(&c).sample_shots(16, &mut rng());
        assert!(shots.iter().all(|s| s.dets == vec![0, 1]));
    }

    #[test]
    fn pauli_channel_components_fire_at_their_own_rates() {
        // Z-biased channel before a Z measurement: only the X and Y
        // components flip the record, so P(flip) = px + py.
        let (px, py, pz) = (0.02, 0.01, 0.3);
        let mut b = CircuitBuilder::new(1);
        b.reset_z(&[0]);
        b.pauli_error(&[0], px, py, pz);
        let m = b.measure_z(&[0]);
        b.detector(&[m.start], [0.0; 3]);
        let c = b.finish().unwrap();
        let n = 100_000;
        let shots = FrameSampler::new(&c).sample_shots(n, &mut rng());
        let fired = shots.iter().filter(|s| !s.dets.is_empty()).count();
        let expect = px + py;
        let mean = fired as f64 / n as f64;
        let sigma = (expect * (1.0 - expect) / n as f64).sqrt();
        assert!(
            (mean - expect).abs() < 5.0 * sigma,
            "rate {mean} vs {expect}"
        );
    }

    #[test]
    fn pure_z_pauli_channel_is_invisible_to_z_measurement() {
        let mut b = CircuitBuilder::new(1);
        b.reset_z(&[0]);
        b.pauli_error(&[0], 0.0, 0.0, 1.0);
        let m = b.measure_z(&[0]);
        b.detector(&[m.start], [0.0; 3]);
        let c = b.finish().unwrap();
        let shots = FrameSampler::new(&c).sample_shots(64, &mut rng());
        assert!(shots.iter().all(|s| s.dets.is_empty()));
    }

    #[test]
    fn depolarize1_rate_is_two_thirds_visible() {
        // Only X and Y components flip a Z measurement: rate = 2p/3.
        let p = 0.3;
        let mut b = CircuitBuilder::new(1);
        b.reset_z(&[0]);
        b.depolarize1(&[0], p);
        let m = b.measure_z(&[0]);
        b.detector(&[m.start], [0.0; 3]);
        let c = b.finish().unwrap();
        let n = 100_000;
        let shots = FrameSampler::new(&c).sample_shots(n, &mut rng());
        let fired = shots.iter().filter(|s| !s.dets.is_empty()).count();
        let expect = 2.0 * p / 3.0;
        let mean = fired as f64 / n as f64;
        let sigma = (expect * (1.0 - expect) / n as f64).sqrt();
        assert!(
            (mean - expect).abs() < 5.0 * sigma,
            "rate {mean} vs {expect}"
        );
    }
}
