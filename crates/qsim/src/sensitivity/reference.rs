//! The allocation-per-component extraction [`super::extract_dem_with_stats`]
//! replaced, kept verbatim as the test oracle: every noise component
//! clones its factors' sets into a fresh symptom, and the merge keys a
//! SipHash map by `(Vec<u32>, u64)`. The production walk must produce
//! the same model — every probability folded in the same order — and
//! the same [`ExtractionStats`].

use super::ExtractionStats;
use crate::circuit::{Circuit, Op};
use crate::dem::{xor_probability, DemError, DetectorErrorModel};
use crate::sparse::SparseBits;
use std::collections::HashMap;

/// The replaced `extract_dem_with_stats`.
pub(super) fn extract_dem_with_stats(circuit: &Circuit) -> (DetectorErrorModel, ExtractionStats) {
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

    // Per-qubit sensitivity sets.
    let mut sens_x: Vec<SparseBits> = vec![SparseBits::new(); nq];
    let mut sens_z: Vec<SparseBits> = vec![SparseBits::new(); nq];

    // Raw components: (symptom ids, probability).
    let mut raw: Vec<(SparseBits, f64)> = Vec::new();
    let mut stats = ExtractionStats::default();

    let mut next_m = circuit.num_measurements();
    for op in circuit.ops().iter().rev() {
        match op {
            Op::ResetZ(qs) => {
                for &q in qs {
                    sens_x[q as usize] = SparseBits::new();
                    sens_z[q as usize] = SparseBits::new();
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
                    let tx = sens_x[t].clone();
                    sens_x[c].xor_in_place(&tx);
                    let cz = sens_z[c].clone();
                    sens_z[t].xor_in_place(&cz);
                }
            }
            Op::MeasureZ(qs) => {
                for &q in qs.iter().rev() {
                    next_m -= 1;
                    // An X (or Y) immediately before a Z measurement flips
                    // its record bit, toggling every consumer.
                    sens_x[q as usize].xor_in_place(&consumers[next_m]);
                }
            }
            Op::XError { qubits, p } => {
                for &q in qubits {
                    push_component(&mut raw, &mut stats, &[sens_x[q as usize].clone()], *p);
                }
            }
            Op::ZError { qubits, p } => {
                for &q in qubits {
                    push_component(&mut raw, &mut stats, &[sens_z[q as usize].clone()], *p);
                }
            }
            Op::PauliError { qubits, px, py, pz } => {
                for &q in qubits {
                    let q = q as usize;
                    let x = sens_x[q].clone();
                    let z = sens_z[q].clone();
                    let y = xor(x.clone(), &z);
                    push_component(&mut raw, &mut stats, &[x], *px);
                    push_component(&mut raw, &mut stats, &[y], *py);
                    push_component(&mut raw, &mut stats, &[z], *pz);
                }
            }
            Op::Depolarize1 { qubits, p } => {
                let pc = p / 3.0;
                for &q in qubits {
                    let q = q as usize;
                    let x = sens_x[q].clone();
                    let z = sens_z[q].clone();
                    let y = xor(x.clone(), &z);
                    push_component(&mut raw, &mut stats, &[x], pc);
                    push_component(&mut raw, &mut stats, &[z], pc);
                    push_component(&mut raw, &mut stats, &[y], pc);
                }
            }
            Op::Depolarize2 { pairs, p } => {
                let pc = p / 15.0;
                for &(a, b) in pairs {
                    let (a, b) = (a as usize, b as usize);
                    let pauli_syms = |x: &SparseBits, z: &SparseBits| -> [SparseBits; 4] {
                        [SparseBits::new(), x.clone(), z.clone(), xor(x.clone(), z)]
                    };
                    let sa = pauli_syms(&sens_x[a], &sens_z[a]);
                    let sb = pauli_syms(&sens_x[b], &sens_z[b]);
                    for ia in 0..4 {
                        for ib in 0..4 {
                            if ia == 0 && ib == 0 {
                                continue;
                            }
                            push_component(
                                &mut raw,
                                &mut stats,
                                &[sa[ia].clone(), sb[ib].clone()],
                                pc,
                            );
                        }
                    }
                }
            }
            Op::Detector { .. } | Op::Observable { .. } => {}
        }
    }
    debug_assert_eq!(next_m, 0);

    let errors = decompose_and_merge(raw, num_det, &mut stats);

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

/// `a ⊕ b`, by value (the replaced `SparseBits::xor`).
fn xor(mut a: SparseBits, b: &SparseBits) -> SparseBits {
    a.xor_in_place(b);
    a
}

/// Records a noise component given the symptoms of its per-qubit factors.
fn push_component(
    raw: &mut Vec<(SparseBits, f64)>,
    stats: &mut ExtractionStats,
    factor_symptoms: &[SparseBits],
    p: f64,
) {
    if p <= 0.0 {
        return;
    }
    stats.components += 1;
    let mut full = SparseBits::new();
    for s in factor_symptoms {
        full.xor_in_place(s);
    }
    if full.is_empty() {
        return; // component has no effect
    }
    raw.push((full, p));
}

/// Splits symptom ids into (detector set, observable mask).
fn split_symptom(symptom: &SparseBits, num_det: u32) -> (Vec<u32>, u64) {
    let mut dets = Vec::new();
    let mut obs = 0u64;
    for id in symptom.iter() {
        if id < num_det {
            dets.push(id);
        } else {
            obs |= 1 << (id - num_det);
        }
    }
    (dets, obs)
}

fn decompose_and_merge(
    raw: Vec<(SparseBits, f64)>,
    num_det: u32,
    stats: &mut ExtractionStats,
) -> Vec<DemError> {
    // Pass 1: register primitive (≤2-detector) symptoms and queue the rest.
    let mut primitives: HashMap<Vec<u32>, u64> = HashMap::new();
    let mut queued: Vec<(Vec<u32>, u64, f64)> = Vec::new();
    let mut merged: HashMap<(Vec<u32>, u64), f64> = HashMap::new();

    let add = |merged: &mut HashMap<(Vec<u32>, u64), f64>, dets: Vec<u32>, obs: u64, p: f64| {
        if dets.is_empty() && obs == 0 {
            return;
        }
        let slot = merged.entry((dets, obs)).or_insert(0.0);
        *slot = xor_probability(*slot, p);
    };

    for (symptom, p) in raw {
        let (dets, obs) = split_symptom(&symptom, num_det);
        if dets.len() <= 2 {
            stats.graphlike_components += 1;
            primitives.entry(dets.clone()).or_insert(obs);
            add(&mut merged, dets, obs, p);
        } else {
            queued.push((dets, obs, p));
        }
    }

    // Pass 2: decompose queued components against the primitive dictionary.
    for (dets, total_obs, p) in queued {
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

        // The final block carries whatever observable flips remain, so the
        // decomposition's total effect is exact.
        let assigned: u64 = blocks.iter().map(|(_, o)| *o).fold(0, |a, b| a ^ b);
        blocks.push((remaining, total_obs ^ assigned));

        if used_fallback {
            stats.fallback_decompositions += 1;
        } else {
            stats.dictionary_decompositions += 1;
        }
        for (dets, obs) in blocks {
            add(&mut merged, dets, obs, p);
        }
    }

    let mut errors: Vec<DemError> = merged
        .into_iter()
        .filter(|(_, p)| *p > 0.0)
        .map(|((dets, obs), p)| DemError {
            dets: SparseBits::from_sorted(dets),
            obs,
            p,
        })
        .collect();
    errors.sort_by(|a, b| (a.dets.as_slice(), a.obs).cmp(&(b.dets.as_slice(), b.obs)));
    errors
}
