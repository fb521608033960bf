//! Detector error model extraction via backward sensitivity analysis.
//!
//! For every noise-channel component in a circuit we need the set of
//! detectors and observables it flips. Rather than forward-propagating a
//! Pauli frame per component (quadratic in circuit size), we walk the
//! circuit *backwards* maintaining, per qubit, the set of detector /
//! observable ids sensitive to an X (resp. Z) error at the current
//! position. Clifford gates update these sets by linearity; measurements
//! inject the ids of the detectors/observables consuming their record bit;
//! resets clear them. Each noise component's symptom is then a small XOR
//! of the current sensitivity sets — total cost O(circuit × symptom size).
//!
//! ## Cost model
//!
//! The walk allocates nothing per gate or component: a `Cx` or a
//! measurement merges two sorted sets into a reused buffer and swaps it
//! in, and a component's symptom is XORed into one scratch buffer. A
//! symptom with ≤ 2 detectors is then a fixed-size key (first detector,
//! second detector, observable mask), merged into a per-first-detector
//! list of a handful of entries — no hashing, and the lists read out in
//! the model's sorted order. At d = 13 SD6 that is 146 120 components,
//! 99 918 of them graph-like, folding into 6 085 mechanisms; the cost is
//! the set merges, not the allocator.
//!
//! ## Merge order
//!
//! Probabilities of components sharing a symptom combine by
//! [`xor_probability`], which is not associative in floating point, so
//! the fold order is part of the output: each mechanism folds its
//! graph-like components in backward circuit order, then the blocks of
//! the decompositions below in the same order. Changing that order
//! changes the last bits of `p`, hence [`DetectorErrorModel::to_text`].
//!
//! ## Graphlike decomposition
//!
//! Matching decoders need every mechanism to flip at most two detectors.
//! Components with larger symptoms (e.g. hook errors on ancillas, or
//! two-qubit depolarizing components) are decomposed:
//!
//! 1. split into per-qubit sub-components (exact in symptom space, since
//!    symptoms compose by XOR);
//! 2. any remaining >2-detector piece is greedily partitioned into blocks
//!    that already occur as primitive (≤2-detector) symptoms elsewhere in
//!    the model, mirroring Stim's `decompose_errors=True`;
//! 3. as a last resort, leftover detectors are paired arbitrarily (counted
//!    in [`ExtractionStats::fallback_decompositions`]).
//!
//! Observable masks are assigned from the primitive dictionary with the
//! final block absorbing any remainder, so the total observable flip of
//! the decomposition is always exact.

use crate::circuit::{Circuit, Op};
use crate::dem::{xor_probability, DemError, DetectorErrorModel};
use crate::sparse::{xor_sorted, SparseBits};
use std::collections::HashMap;

#[cfg(test)]
mod reference;

/// Statistics about one extraction run, for diagnostics and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtractionStats {
    /// Noise components processed.
    pub components: usize,
    /// Components whose symptom already had ≤ 2 detectors.
    pub graphlike_components: usize,
    /// Components decomposed using the primitive dictionary.
    pub dictionary_decompositions: usize,
    /// Components that needed arbitrary pairing (should be zero for
    /// well-formed surface-code circuits).
    pub fallback_decompositions: usize,
}

/// Extracts the detector error model of `circuit`.
///
/// See the module documentation for the algorithm. The returned model is
/// graphlike: every mechanism flips at most two detectors.
pub fn extract_dem(circuit: &Circuit) -> DetectorErrorModel {
    extract_dem_with_stats(circuit).0
}

/// [`extract_dem`] variant that also reports decomposition statistics.
pub fn extract_dem_with_stats(circuit: &Circuit) -> (DetectorErrorModel, ExtractionStats) {
    let num_det = circuit.num_detectors();
    let nq = circuit.num_qubits() as usize;

    // Map measurement index -> ids consuming it (detector ids and
    // observable ids offset by num_det).
    let mut consumers: Vec<SparseBits> = vec![SparseBits::new(); circuit.num_measurements()];
    let mut det_index = 0u32;
    for op in circuit.ops() {
        match op {
            Op::Detector { meas, .. } => {
                for &m in meas {
                    consumers[m].toggle(det_index);
                }
                det_index += 1;
            }
            Op::Observable { index, meas } => {
                for &m in meas {
                    consumers[m].toggle(num_det + *index as u32);
                }
            }
            _ => {}
        }
    }

    // Per-qubit sensitivity sets, sorted.
    let mut sens_x: Vec<Vec<u32>> = vec![Vec::new(); nq];
    let mut sens_z: Vec<Vec<u32>> = vec![Vec::new(); nq];
    // `swap` is the set being replaced; `sym` holds one component's
    // symptom; `ya`/`yb` a qubit's Y sensitivity.
    let (mut swap, mut sym, mut ya, mut yb) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut merge = Merge {
        num_det,
        stats: ExtractionStats::default(),
        rows: vec![Vec::new(); num_det as usize + 1],
        queued: Vec::new(),
    };

    let mut next_m = circuit.num_measurements();
    for op in circuit.ops().iter().rev() {
        match op {
            Op::ResetZ(qs) => {
                for &q in qs {
                    sens_x[q as usize].clear();
                    sens_z[q as usize].clear();
                }
            }
            Op::H(qs) => {
                for &q in qs {
                    let q = q as usize;
                    std::mem::swap(&mut sens_x[q], &mut sens_z[q]);
                }
            }
            Op::Cx(pairs) => {
                // Processing backwards: an X on the control before the gate
                // behaves like X⊗X after it; a Z on the target like Z⊗Z.
                for &(c, t) in pairs.iter().rev() {
                    let (c, t) = (c as usize, t as usize);
                    xor_sorted(&sens_x[c], &sens_x[t], &mut swap);
                    std::mem::swap(&mut sens_x[c], &mut swap);
                    xor_sorted(&sens_z[t], &sens_z[c], &mut swap);
                    std::mem::swap(&mut sens_z[t], &mut swap);
                }
            }
            Op::MeasureZ(qs) => {
                for &q in qs.iter().rev() {
                    next_m -= 1;
                    // An X (or Y) immediately before a Z measurement flips
                    // its record bit, toggling every consumer.
                    xor_sorted(&sens_x[q as usize], consumers[next_m].as_slice(), &mut swap);
                    std::mem::swap(&mut sens_x[q as usize], &mut swap);
                }
            }
            Op::XError { qubits, p } => {
                for &q in qubits {
                    merge.component(&sens_x[q as usize], *p);
                }
            }
            Op::ZError { qubits, p } => {
                for &q in qubits {
                    merge.component(&sens_z[q as usize], *p);
                }
            }
            Op::PauliError { qubits, px, py, pz } => {
                for &q in qubits {
                    let (x, z) = (&sens_x[q as usize], &sens_z[q as usize]);
                    xor_sorted(x, z, &mut sym);
                    merge.component(x, *px);
                    merge.component(&sym, *py);
                    merge.component(z, *pz);
                }
            }
            Op::Depolarize1 { qubits, p } => {
                let pc = p / 3.0;
                for &q in qubits {
                    let (x, z) = (&sens_x[q as usize], &sens_z[q as usize]);
                    xor_sorted(x, z, &mut sym);
                    merge.component(x, pc);
                    merge.component(z, pc);
                    merge.component(&sym, pc);
                }
            }
            Op::Depolarize2 { pairs, p } => {
                let pc = p / 15.0;
                for &(a, b) in pairs {
                    let (a, b) = (a as usize, b as usize);
                    xor_sorted(&sens_x[a], &sens_z[a], &mut ya);
                    xor_sorted(&sens_x[b], &sens_z[b], &mut yb);
                    // Per qubit: I, X, Z, Y.
                    let sa: [&[u32]; 4] = [&[], &sens_x[a], &sens_z[a], &ya];
                    let sb: [&[u32]; 4] = [&[], &sens_x[b], &sens_z[b], &yb];
                    for (ia, fa) in sa.iter().enumerate() {
                        for fb in &sb[usize::from(ia == 0)..] {
                            xor_sorted(fa, fb, &mut sym);
                            merge.component(&sym, pc);
                        }
                    }
                }
            }
            Op::Detector { .. } | Op::Observable { .. } => {}
        }
    }
    debug_assert_eq!(next_m, 0);

    let (errors, stats) = merge.finish();
    (
        DetectorErrorModel {
            num_detectors: num_det,
            num_observables: circuit.num_observables(),
            errors,
            det_coords: circuit.detector_coords(),
        },
        stats,
    )
}

/// Where a ≤ 2-detector set lives in [`Merge::rows`]: row `d0 + 1` and
/// column `d1 + 1` for `[d0, d1]`, with 0 for a missing detector, so
/// `(row, column)` order is the sorted-slice order of the sets.
fn slot(dets: &[u32]) -> (usize, u32) {
    match *dets {
        [] => (0, 0),
        [a] => (a as usize + 1, 0),
        [a, b] => (a as usize + 1, b + 1),
        _ => unreachable!("a mechanism flips at most two detectors"),
    }
}

/// The detector set of a [`slot`].
fn slot_dets(row: usize, col: u32) -> Vec<u32> {
    let ids = [row as u32, col].into_iter().take_while(|&x| x != 0);
    ids.map(|x| x - 1).collect()
}

/// Folds noise components into mechanisms, in arrival order.
struct Merge {
    num_det: u32,
    stats: ExtractionStats,
    /// `rows[row]` holds the `(column, obs, p)` mechanisms of one
    /// [`slot`] row, in order of first arrival; a row is a detector's
    /// few higher-numbered neighbours (plus the boundary).
    rows: Vec<Vec<(u32, u64, f64)>>,
    /// Components flipping more than two detectors, `(dets, obs, p)`,
    /// decomposed once every graph-like component has arrived.
    queued: Vec<(Vec<u32>, u64, f64)>,
}

impl Merge {
    /// Records one noise component: its symptom (sorted detector ids,
    /// then observable ids offset by the detector count) and probability.
    fn component(&mut self, symptom: &[u32], p: f64) {
        if p <= 0.0 {
            return;
        }
        self.stats.components += 1;
        if symptom.is_empty() {
            return; // component has no effect
        }
        let (dets, obs_ids) = symptom.split_at(symptom.partition_point(|&id| id < self.num_det));
        let obs = obs_ids
            .iter()
            .fold(0u64, |m, &id| m | 1 << (id - self.num_det));
        if dets.len() <= 2 {
            self.stats.graphlike_components += 1;
            self.add(dets, obs, p);
        } else {
            self.queued.push((dets.to_vec(), obs, p));
        }
    }

    fn add(&mut self, dets: &[u32], obs: u64, p: f64) {
        let (row, col) = slot(dets);
        let row = &mut self.rows[row];
        match row.iter_mut().find(|m| m.0 == col && m.1 == obs) {
            Some(m) => m.2 = xor_probability(m.2, p),
            None => row.push((col, obs, xor_probability(0.0, p))),
        }
    }

    /// Decomposes the queued components, then reads the mechanisms out
    /// sorted by `(dets, obs)`.
    fn finish(mut self) -> (Vec<DemError>, ExtractionStats) {
        if !self.queued.is_empty() {
            self.decompose();
        }
        let mut errors = Vec::new();
        for (r, row) in self.rows.iter_mut().enumerate() {
            row.sort_unstable_by_key(|m| (m.0, m.1));
            errors.extend(
                row.iter()
                    .filter(|m| m.2 > 0.0)
                    .map(|&(col, obs, p)| DemError {
                        dets: SparseBits::from_sorted(slot_dets(r, col)),
                        obs,
                        p,
                    }),
            );
        }
        (errors, self.stats)
    }

    /// Splits each queued component into blocks found in the primitive
    /// dictionary — the first observable mask each ≤ 2-detector set
    /// arrived with — pairing leftovers arbitrarily as a last resort.
    fn decompose(&mut self) {
        let mut primitives: HashMap<Vec<u32>, u64> = HashMap::new();
        for (r, row) in self.rows.iter().enumerate() {
            for &(col, obs, _) in row {
                primitives.entry(slot_dets(r, col)).or_insert(obs);
            }
        }
        for (dets, total_obs, p) in std::mem::take(&mut self.queued) {
            let mut remaining = dets;
            let mut blocks: Vec<(Vec<u32>, u64)> = Vec::new();
            let mut used_fallback = false;

            while remaining.len() > 2 {
                let mut found = None;
                'outer: for i in 0..remaining.len() {
                    for j in (i + 1)..remaining.len() {
                        let key = vec![remaining[i], remaining[j]];
                        if let Some(&obs) = primitives.get(&key) {
                            found = Some((i, j, key, obs));
                            break 'outer;
                        }
                    }
                }
                if let Some((i, j, key, obs)) = found {
                    remaining.remove(j);
                    remaining.remove(i);
                    blocks.push((key, obs));
                    continue;
                }
                // Try a primitive boundary singleton.
                let single = (0..remaining.len())
                    .find(|&i| primitives.contains_key(std::slice::from_ref(&remaining[i])));
                if let Some(i) = single {
                    let key = vec![remaining[i]];
                    let obs = primitives[&key];
                    remaining.remove(i);
                    blocks.push((key, obs));
                    continue;
                }
                // Last resort: arbitrary pairing.
                used_fallback = true;
                let a = remaining.remove(0);
                let b = remaining.remove(0);
                blocks.push((vec![a, b], 0));
            }

            // The final block carries whatever observable flips remain, so
            // the decomposition's total effect is exact.
            let assigned: u64 = blocks.iter().map(|(_, o)| *o).fold(0, |a, b| a ^ b);
            blocks.push((remaining, total_obs ^ assigned));

            if used_fallback {
                self.stats.fallback_decompositions += 1;
            } else {
                self.stats.dictionary_decompositions += 1;
            }
            for (dets, obs) in blocks {
                self.add(&dets, obs, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::frame::FrameSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// data 0,1 -> ancilla 2 parity check with an observable on data 0.
    fn parity_circuit(p: f64) -> Circuit {
        let mut b = CircuitBuilder::new(3);
        b.reset_z(&[0, 1, 2]);
        b.x_error(&[0, 1], p);
        b.cx(&[(0, 2)]);
        b.cx(&[(1, 2)]);
        let m = b.measure_z(&[2]);
        b.detector(&[m.start], [0.0; 3]);
        let md = b.measure_z(&[0, 1]);
        b.observable(0, &[md.start]);
        b.finish().unwrap()
    }

    #[test]
    fn x_errors_map_to_expected_mechanisms() {
        let dem = extract_dem(&parity_circuit(1e-3));
        // X on qubit 0 flips detector 0 and the observable; X on qubit 1
        // flips only detector 0. They have distinct (dets, obs) signatures.
        assert_eq!(dem.errors.len(), 2);
        let with_obs: Vec<_> = dem.errors.iter().filter(|e| e.obs == 1).collect();
        assert_eq!(with_obs.len(), 1);
        assert_eq!(with_obs[0].dets.as_slice(), &[0]);
        assert!((with_obs[0].p - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_sensitivity() {
        let mut b = CircuitBuilder::new(1);
        b.reset_z(&[0]);
        b.x_error(&[0], 0.25);
        b.reset_z(&[0]); // wipes the pending error
        let m = b.measure_z(&[0]);
        b.detector(&[m.start], [0.0; 3]);
        let c = b.finish().unwrap();
        let dem = extract_dem(&c);
        assert!(dem.errors.is_empty());
    }

    #[test]
    fn z_error_before_hadamard_flips_measurement() {
        let mut b = CircuitBuilder::new(1);
        b.reset_z(&[0]);
        b.h(&[0]);
        b.z_error(&[0], 0.125);
        b.h(&[0]);
        let m = b.measure_z(&[0]);
        b.detector(&[m.start], [0.0; 3]);
        let c = b.finish().unwrap();
        let dem = extract_dem(&c);
        assert_eq!(dem.errors.len(), 1);
        assert_eq!(dem.errors[0].dets.as_slice(), &[0]);
        assert!((dem.errors[0].p - 0.125).abs() < 1e-12);
    }

    #[test]
    fn identical_symptoms_xor_combine() {
        let mut b = CircuitBuilder::new(1);
        b.reset_z(&[0]);
        b.x_error(&[0], 0.1);
        b.x_error(&[0], 0.2);
        let m = b.measure_z(&[0]);
        b.detector(&[m.start], [0.0; 3]);
        let c = b.finish().unwrap();
        let dem = extract_dem(&c);
        assert_eq!(dem.errors.len(), 1);
        assert!((dem.errors[0].p - 0.26).abs() < 1e-12);
    }

    #[test]
    fn depolarize1_on_data_merges_x_and_y() {
        // In a Z-basis parity check, X and Y on data have the same symptom:
        // they merge into one mechanism with XOR-combined probability; the
        // Z component is invisible.
        let mut b = CircuitBuilder::new(3);
        b.reset_z(&[0, 1, 2]);
        b.depolarize1(&[0], 0.3);
        b.cx(&[(0, 2)]);
        b.cx(&[(1, 2)]);
        let m = b.measure_z(&[2]);
        b.detector(&[m.start], [0.0; 3]);
        let md = b.measure_z(&[0, 1]);
        b.observable(0, &[md.start]);
        let c = b.finish().unwrap();
        let dem = extract_dem(&c);
        assert_eq!(dem.errors.len(), 1);
        let p = 0.1;
        assert!((dem.errors[0].p - (2.0 * p - 2.0 * p * p)).abs() < 1e-12);
        assert_eq!(dem.errors[0].obs, 1);
    }

    #[test]
    fn pauli_channel_splits_into_per_component_mechanisms() {
        // The X component propagates through the CX onto qubit 1's
        // record, while the Z component survives on the control and is
        // rotated into a flip of qubit 0's record by the Hadamard — two
        // distinct mechanisms at px and pz.
        let mut b = CircuitBuilder::new(2);
        b.reset_z(&[0, 1]);
        b.pauli_error(&[0], 0.01, 0.0, 0.02);
        b.cx(&[(0, 1)]);
        b.h(&[0]);
        let m0 = b.measure_z(&[0]);
        let m1 = b.measure_z(&[1]);
        b.detector(&[m0.start], [0.0; 3]);
        b.detector(&[m1.start], [1.0, 0.0, 0.0]);
        let c = b.finish().unwrap();
        let dem = extract_dem(&c);
        assert_eq!(dem.errors.len(), 2);
        let by_dets: Vec<(&[u32], f64)> = dem
            .errors
            .iter()
            .map(|e| (e.dets.as_slice(), e.p))
            .collect();
        assert!(by_dets.contains(&([1].as_slice(), 0.01)));
        assert!(by_dets.contains(&([0].as_slice(), 0.02)));
    }

    #[test]
    fn measurement_flip_before_m_only_affects_that_record() {
        let mut b = CircuitBuilder::new(2);
        b.reset_z(&[0, 1]);
        b.x_error(&[0], 0.01); // pre-measurement flip on ancilla role
        let m0 = b.measure_z(&[0]);
        let m1 = b.measure_z(&[1]);
        b.detector(&[m0.start], [0.0; 3]);
        b.detector(&[m1.start], [0.0; 3]);
        let c = b.finish().unwrap();
        let dem = extract_dem(&c);
        assert_eq!(dem.errors.len(), 1);
        assert_eq!(dem.errors[0].dets.as_slice(), &[0]);
    }

    /// Deterministic cross-check: for random Clifford circuits with a
    /// single certain X error, the frame sampler and the sensitivity
    /// analysis must agree on the symptom.
    #[test]
    fn sensitivity_matches_frame_sampler_on_random_circuits() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..200 {
            let nq: u32 = 2 + (trial % 5) as u32;
            let (circuit, _) = random_circuit_with_injection(nq, trial as u64, &mut rng);
            let dem = extract_dem(&circuit);
            let shots = FrameSampler::new(&circuit).sample_shots(1, &mut rng);
            let expected = &shots[0];
            // The circuit contains exactly one noise op (p = 1) so the DEM
            // has exactly one mechanism (or zero if the error is harmless).
            let mut dets = SparseBits::new();
            let mut obs = 0u64;
            for e in &dem.errors {
                dets.xor_in_place(&e.dets);
                obs ^= e.obs;
            }
            assert_eq!(dets.into_vec(), expected.dets, "trial {trial}");
            assert_eq!(obs, expected.obs, "trial {trial}");
        }
    }

    /// Builds a random R/H/CX circuit with one X error at probability 1,
    /// final measurement of all qubits, and one detector per measurement.
    fn random_circuit_with_injection(nq: u32, seed: u64, _outer: &mut StdRng) -> (Circuit, usize) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15));
        let mut b = CircuitBuilder::new(nq);
        let all: Vec<u32> = (0..nq).collect();
        b.reset_z(&all);
        let n_gates = 12;
        let inject_at = rng.gen_range(0..n_gates);
        let mut inject_count = 0usize;
        for g in 0..n_gates {
            if g == inject_at {
                let q = rng.gen_range(0..nq);
                b.x_error(&[q], 1.0);
                inject_count += 1;
            }
            match rng.gen_range(0..3) {
                0 => {
                    let q = rng.gen_range(0..nq);
                    b.h(&[q]);
                }
                1 if nq >= 2 => {
                    let c = rng.gen_range(0..nq);
                    let mut t = rng.gen_range(0..nq);
                    while t == c {
                        t = rng.gen_range(0..nq);
                    }
                    b.cx(&[(c, t)]);
                }
                _ => {
                    let q = rng.gen_range(0..nq);
                    b.reset_z(&[q]);
                }
            }
        }
        let m = b.measure_z(&all);
        for (i, idx) in m.clone().enumerate() {
            b.detector(&[idx], [i as f64, 0.0, 0.0]);
        }
        b.observable(0, &[m.start]);
        (b.finish().unwrap(), inject_count)
    }

    #[test]
    fn hook_like_multi_detector_error_is_decomposed() {
        // X on qubit 0 propagates to 3 targets, flipping 4 single-qubit
        // detectors -> must be decomposed into ≤2-detector mechanisms.
        let mut b = CircuitBuilder::new(4);
        b.reset_z(&[0, 1, 2, 3]);
        // Primitive errors that the dictionary can use.
        b.x_error(&[0, 1, 2, 3], 0.001);
        b.x_error(&[0], 0.01); // the hook: propagates to 1, 2, 3
        b.cx(&[(0, 1)]);
        b.cx(&[(0, 2)]);
        b.cx(&[(0, 3)]);
        let m = b.measure_z(&[0, 1, 2, 3]);
        for (i, idx) in m.clone().enumerate() {
            b.detector(&[idx], [i as f64, 0.0, 0.0]);
        }
        let c = b.finish().unwrap();
        let (dem, stats) = extract_dem_with_stats(&c);
        assert!(dem.max_symptom_size() <= 2, "graphlike violated: {dem:?}");
        assert!(stats.dictionary_decompositions + stats.fallback_decompositions >= 1);
    }

    /// A random noisy circuit on 3..=7 qubits: R/H/CX gates, CX fan-outs
    /// (the hook pattern) and every noise channel, mid-circuit
    /// measurements, and one single-record detector per measurement, so
    /// symptoms of three or more detectors are common. Half the circuits
    /// end with an X layer whose singleton symptoms stock the primitive
    /// dictionary; without it most decompositions fall back to pairing.
    fn random_noisy_circuit(seed: u64) -> Circuit {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let nq: u32 = rng.gen_range(3..=7);
        let mut b = CircuitBuilder::new(nq);
        let all: Vec<u32> = (0..nq).collect();
        b.reset_z(&all);
        let mut records = Vec::new();
        for _ in 0..rng.gen_range(8..40) {
            let q = rng.gen_range(0..nq);
            let t = (q + rng.gen_range(1..nq)) % nq;
            let p = rng.gen_range(0.001..0.3);
            match rng.gen_range(0..10) {
                0 => {
                    b.h(&[q]);
                }
                1 => {
                    b.cx(&[(q, t)]);
                }
                2 => {
                    b.x_error(&[q], p);
                    for k in 1..nq {
                        b.cx(&[(q, (q + k) % nq)]);
                    }
                }
                3 => {
                    b.x_error(&[q], p);
                }
                4 => {
                    b.z_error(&[q], p);
                }
                5 => {
                    b.depolarize1(&[q], p);
                }
                6 => {
                    b.depolarize2(&[(q, t)], p);
                }
                7 => {
                    b.pauli_error(&[q], p / 2.0, p / 4.0, p / 3.0);
                }
                8 => {
                    b.reset_z(&[q]);
                }
                _ => records.push(b.measure_z(&[q]).start),
            }
        }
        if rng.gen() {
            b.x_error(&all, 0.01);
        }
        records.extend(b.measure_z(&all));
        for (i, &m) in records.iter().enumerate() {
            b.detector(&[m], [i as f64, 0.0, 0.0]);
        }
        b.observable(0, &records[records.len() - nq as usize..][..1]);
        b.finish().unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The allocation-free walk and merge produce exactly the model
        /// — every probability's bits, hence every `to_text` byte — and
        /// the statistics of the implementation they replaced, on the
        /// single-injection circuits and on noisy ones whose
        /// multi-detector symptoms reach the dictionary and the fallback.
        #[test]
        fn extraction_equals_the_replaced_implementation(
            seed in proptest::prelude::any::<u64>(),
            nq in 2u32..7,
        ) {
            let (injected, _) = random_circuit_with_injection(nq, seed, &mut StdRng::seed_from_u64(0));
            for c in [injected, random_noisy_circuit(seed)] {
                let (dem, stats) = extract_dem_with_stats(&c);
                let (want, want_stats) = reference::extract_dem_with_stats(&c);
                proptest::prop_assert_eq!(stats, want_stats);
                proptest::prop_assert_eq!(dem.to_text(), want.to_text());
                proptest::prop_assert_eq!(dem, want);
            }
        }
    }

    #[test]
    fn noisy_circuits_reach_both_decompositions() {
        let mut total = ExtractionStats::default();
        for seed in 0..64 {
            let (_, stats) = extract_dem_with_stats(&random_noisy_circuit(seed));
            total.dictionary_decompositions += stats.dictionary_decompositions;
            total.fallback_decompositions += stats.fallback_decompositions;
        }
        assert!(total.dictionary_decompositions > 0, "{total:?}");
        assert!(total.fallback_decompositions > 0, "{total:?}");
    }

    #[test]
    fn extraction_stats_count_components() {
        let c = parity_circuit(1e-3);
        let (_, stats) = extract_dem_with_stats(&c);
        assert_eq!(stats.components, 2);
        assert_eq!(stats.graphlike_components, 2);
        assert_eq!(stats.fallback_decompositions, 0);
    }
}
