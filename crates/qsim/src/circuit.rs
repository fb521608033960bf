//! Stabilizer circuit intermediate representation.
//!
//! A [`Circuit`] is a validated, flat sequence of [`Op`]s: Clifford gates,
//! Z-basis measurements and resets, noise channels, and the two annotation
//! ops that define the decoding problem — detectors (parities of
//! measurement results that are deterministic in the noiseless circuit)
//! and logical observables.
//!
//! Circuits are constructed through [`CircuitBuilder`], which tracks the
//! measurement record and validates operands eagerly.

use std::fmt;

/// Index of a physical qubit inside a circuit.
pub type Qubit = u32;

/// A single circuit operation.
///
/// Gate operands are explicit lists so that one `Op` can describe a whole
/// layer; the frame sampler exploits this for batched word operations.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Reset the listed qubits to |0⟩.
    ResetZ(Vec<Qubit>),
    /// Hadamard on the listed qubits.
    H(Vec<Qubit>),
    /// CNOT on each (control, target) pair.
    Cx(Vec<(Qubit, Qubit)>),
    /// Z-basis measurement; appends one record bit per qubit, in order.
    MeasureZ(Vec<Qubit>),
    /// Single-qubit depolarizing channel: X, Y, or Z each with p/3.
    Depolarize1 { qubits: Vec<Qubit>, p: f64 },
    /// Two-qubit depolarizing channel: each of the 15 non-identity
    /// two-qubit Paulis with p/15.
    Depolarize2 { pairs: Vec<(Qubit, Qubit)>, p: f64 },
    /// Independent X error with probability `p` on each listed qubit.
    XError { qubits: Vec<Qubit>, p: f64 },
    /// Independent Z error with probability `p` on each listed qubit.
    ZError { qubits: Vec<Qubit>, p: f64 },
    /// Biased single-qubit Pauli channel: on each listed qubit, exactly
    /// one of X, Y, Z fires with probability `px`, `py`, `pz`
    /// respectively (Stim's `PAULI_CHANNEL_1`). Models noise with
    /// unequal Pauli components, e.g. Z-biased idling errors.
    PauliError {
        qubits: Vec<Qubit>,
        px: f64,
        py: f64,
        pz: f64,
    },
    /// A parity of measurement-record bits that is deterministic when the
    /// circuit is noiseless. `meas` holds absolute record indices.
    Detector { meas: Vec<usize>, coords: [f64; 3] },
    /// A logical observable: parity of measurement-record bits whose flip
    /// constitutes a logical error. At most 64 observables per circuit.
    Observable { index: u8, meas: Vec<usize> },
}

/// Errors reported by [`CircuitBuilder`] during construction.
#[derive(Clone, Debug, PartialEq)]
pub enum CircuitError {
    /// A gate operand exceeded the declared qubit count.
    QubitOutOfRange { qubit: Qubit, num_qubits: u32 },
    /// A two-qubit gate listed the same qubit twice, or one layer touched
    /// a qubit more than once.
    DuplicateOperand { qubit: Qubit },
    /// A detector or observable referenced a measurement that does not
    /// exist yet.
    MeasurementOutOfRange { index: usize, recorded: usize },
    /// A noise probability was outside [0, 1].
    InvalidProbability { p: f64 },
    /// The component probabilities of a Pauli channel summed past 1.
    ChannelTotalTooLarge { total: f64 },
    /// An observable index was ≥ 64.
    ObservableIndexTooLarge { index: u8 },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {num_qubits}-qubit circuit"
                )
            }
            CircuitError::DuplicateOperand { qubit } => {
                write!(f, "qubit {qubit} appears more than once in one operation")
            }
            CircuitError::MeasurementOutOfRange { index, recorded } => {
                write!(
                    f,
                    "measurement index {index} not yet recorded ({recorded} so far)"
                )
            }
            CircuitError::InvalidProbability { p } => {
                write!(f, "invalid probability {p}")
            }
            CircuitError::ChannelTotalTooLarge { total } => {
                write!(f, "Pauli channel probabilities sum to {total} > 1")
            }
            CircuitError::ObservableIndexTooLarge { index } => {
                write!(f, "observable index {index} exceeds the maximum of 63")
            }
        }
    }
}

impl std::error::Error for CircuitError {}

/// A validated stabilizer circuit with noise and decoding annotations.
#[derive(Clone, Debug, PartialEq)]
pub struct Circuit {
    num_qubits: u32,
    ops: Vec<Op>,
    num_measurements: usize,
    num_detectors: u32,
    num_observables: u32,
}

impl Circuit {
    /// Number of qubits the circuit acts on.
    pub fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The operation sequence.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Total number of measurement-record bits produced per shot.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements
    }

    /// Number of detectors defined by the circuit.
    pub fn num_detectors(&self) -> u32 {
        self.num_detectors
    }

    /// Number of logical observables defined by the circuit.
    pub fn num_observables(&self) -> u32 {
        self.num_observables
    }

    /// Coordinates of each detector, in definition order.
    pub fn detector_coords(&self) -> Vec<[f64; 3]> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Detector { coords, .. } => Some(*coords),
                _ => None,
            })
            .collect()
    }

    /// A copy of the circuit with every noise channel removed.
    pub fn without_noise(&self) -> Circuit {
        let ops = self
            .ops
            .iter()
            .filter(|op| {
                !matches!(
                    op,
                    Op::Depolarize1 { .. }
                        | Op::Depolarize2 { .. }
                        | Op::XError { .. }
                        | Op::ZError { .. }
                        | Op::PauliError { .. }
                )
            })
            .cloned()
            .collect();
        Circuit {
            num_qubits: self.num_qubits,
            ops,
            num_measurements: self.num_measurements,
            num_detectors: self.num_detectors,
            num_observables: self.num_observables,
        }
    }

    /// Number of independent elementary noise-channel instances
    /// (one per qubit or pair per noise op).
    pub fn num_noise_sites(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Depolarize1 { qubits, .. } => qubits.len(),
                Op::Depolarize2 { pairs, .. } => pairs.len(),
                Op::XError { qubits, .. } => qubits.len(),
                Op::ZError { qubits, .. } => qubits.len(),
                Op::PauliError { qubits, .. } => qubits.len(),
                _ => 0,
            })
            .sum()
    }
}

impl fmt::Display for Circuit {
    /// A Stim-flavoured textual rendering, for debugging.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn qs(list: &[Qubit]) -> String {
            list.iter()
                .map(|q| q.to_string())
                .collect::<Vec<_>>()
                .join(" ")
        }
        for op in &self.ops {
            match op {
                Op::ResetZ(q) => writeln!(f, "R {}", qs(q))?,
                Op::H(q) => writeln!(f, "H {}", qs(q))?,
                Op::Cx(pairs) => {
                    let body: Vec<String> = pairs.iter().map(|(c, t)| format!("{c} {t}")).collect();
                    writeln!(f, "CX {}", body.join(" "))?;
                }
                Op::MeasureZ(q) => writeln!(f, "M {}", qs(q))?,
                Op::Depolarize1 { qubits, p } => {
                    writeln!(f, "DEPOLARIZE1({p}) {}", qs(qubits))?;
                }
                Op::Depolarize2 { pairs, p } => {
                    let body: Vec<String> = pairs.iter().map(|(c, t)| format!("{c} {t}")).collect();
                    writeln!(f, "DEPOLARIZE2({p}) {}", body.join(" "))?;
                }
                Op::XError { qubits, p } => writeln!(f, "X_ERROR({p}) {}", qs(qubits))?,
                Op::ZError { qubits, p } => writeln!(f, "Z_ERROR({p}) {}", qs(qubits))?,
                Op::PauliError { qubits, px, py, pz } => {
                    writeln!(f, "PAULI_CHANNEL_1({px}, {py}, {pz}) {}", qs(qubits))?;
                }
                Op::Detector { meas, coords } => {
                    let body: Vec<String> = meas.iter().map(|m| format!("rec[{m}]")).collect();
                    writeln!(
                        f,
                        "DETECTOR({}, {}, {}) {}",
                        coords[0],
                        coords[1],
                        coords[2],
                        body.join(" ")
                    )?;
                }
                Op::Observable { index, meas } => {
                    let body: Vec<String> = meas.iter().map(|m| format!("rec[{m}]")).collect();
                    writeln!(f, "OBSERVABLE_INCLUDE({index}) {}", body.join(" "))?;
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`Circuit`].
///
/// Gate methods validate operands immediately and record errors; the first
/// error is returned by [`CircuitBuilder::finish`]. This keeps call sites
/// free of `?` chains while still refusing to produce invalid circuits.
#[derive(Clone, Debug)]
pub struct CircuitBuilder {
    num_qubits: u32,
    ops: Vec<Op>,
    meas_count: usize,
    det_count: u32,
    obs_mask: u64,
    first_error: Option<CircuitError>,
}

impl CircuitBuilder {
    /// Starts a builder for a circuit on `num_qubits` qubits.
    pub fn new(num_qubits: u32) -> Self {
        CircuitBuilder {
            num_qubits,
            ops: Vec::new(),
            meas_count: 0,
            det_count: 0,
            obs_mask: 0,
            first_error: None,
        }
    }

    fn record_error(&mut self, e: CircuitError) {
        if self.first_error.is_none() {
            self.first_error = Some(e);
        }
    }

    fn check_qubits(&mut self, qubits: &[Qubit]) {
        let mut seen = std::collections::HashSet::with_capacity(qubits.len());
        for &q in qubits {
            if q >= self.num_qubits {
                self.record_error(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
            if !seen.insert(q) {
                self.record_error(CircuitError::DuplicateOperand { qubit: q });
            }
        }
    }

    fn check_probability(&mut self, p: f64) {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            self.record_error(CircuitError::InvalidProbability { p });
        }
    }

    fn check_meas(&mut self, meas: &[usize]) {
        for &m in meas {
            if m >= self.meas_count {
                self.record_error(CircuitError::MeasurementOutOfRange {
                    index: m,
                    recorded: self.meas_count,
                });
            }
        }
    }

    /// Appends a reset-to-|0⟩ layer.
    pub fn reset_z(&mut self, qubits: &[Qubit]) -> &mut Self {
        self.check_qubits(qubits);
        self.ops.push(Op::ResetZ(qubits.to_vec()));
        self
    }

    /// Appends a Hadamard layer.
    pub fn h(&mut self, qubits: &[Qubit]) -> &mut Self {
        self.check_qubits(qubits);
        self.ops.push(Op::H(qubits.to_vec()));
        self
    }

    /// Appends a CNOT layer. No qubit may appear twice within the layer.
    pub fn cx(&mut self, pairs: &[(Qubit, Qubit)]) -> &mut Self {
        let flat: Vec<Qubit> = pairs.iter().flat_map(|&(c, t)| [c, t]).collect();
        self.check_qubits(&flat);
        self.ops.push(Op::Cx(pairs.to_vec()));
        self
    }

    /// Appends a Z-basis measurement layer and returns the absolute
    /// record-index range it occupies.
    pub fn measure_z(&mut self, qubits: &[Qubit]) -> std::ops::Range<usize> {
        self.check_qubits(qubits);
        let start = self.meas_count;
        self.meas_count += qubits.len();
        self.ops.push(Op::MeasureZ(qubits.to_vec()));
        start..self.meas_count
    }

    /// Appends single-qubit depolarizing noise (no-op when `p == 0`).
    pub fn depolarize1(&mut self, qubits: &[Qubit], p: f64) -> &mut Self {
        self.check_probability(p);
        self.check_qubits(qubits);
        if p > 0.0 && !qubits.is_empty() {
            self.ops.push(Op::Depolarize1 {
                qubits: qubits.to_vec(),
                p,
            });
        }
        self
    }

    /// Appends two-qubit depolarizing noise (no-op when `p == 0`).
    pub fn depolarize2(&mut self, pairs: &[(Qubit, Qubit)], p: f64) -> &mut Self {
        self.check_probability(p);
        let flat: Vec<Qubit> = pairs.iter().flat_map(|&(c, t)| [c, t]).collect();
        self.check_qubits(&flat);
        if p > 0.0 && !pairs.is_empty() {
            self.ops.push(Op::Depolarize2 {
                pairs: pairs.to_vec(),
                p,
            });
        }
        self
    }

    /// Appends independent X errors (no-op when `p == 0`).
    pub fn x_error(&mut self, qubits: &[Qubit], p: f64) -> &mut Self {
        self.check_probability(p);
        self.check_qubits(qubits);
        if p > 0.0 && !qubits.is_empty() {
            self.ops.push(Op::XError {
                qubits: qubits.to_vec(),
                p,
            });
        }
        self
    }

    /// Appends independent Z errors (no-op when `p == 0`).
    pub fn z_error(&mut self, qubits: &[Qubit], p: f64) -> &mut Self {
        self.check_probability(p);
        self.check_qubits(qubits);
        if p > 0.0 && !qubits.is_empty() {
            self.ops.push(Op::ZError {
                qubits: qubits.to_vec(),
                p,
            });
        }
        self
    }

    /// Appends a biased single-qubit Pauli channel: exactly one of X, Y,
    /// Z fires with probability `px`, `py`, `pz` (no-op when all zero).
    /// The component probabilities must each lie in [0, 1] and sum to at
    /// most 1.
    pub fn pauli_error(&mut self, qubits: &[Qubit], px: f64, py: f64, pz: f64) -> &mut Self {
        self.check_probability(px);
        self.check_probability(py);
        self.check_probability(pz);
        let total = px + py + pz;
        if total > 1.0 {
            self.record_error(CircuitError::ChannelTotalTooLarge { total });
        }
        self.check_qubits(qubits);
        if total > 0.0 && total <= 1.0 && !qubits.is_empty() {
            self.ops.push(Op::PauliError {
                qubits: qubits.to_vec(),
                px,
                py,
                pz,
            });
        }
        self
    }

    /// Defines a detector over absolute measurement-record indices and
    /// returns its id (detectors are numbered in definition order).
    pub fn detector(&mut self, meas: &[usize], coords: [f64; 3]) -> u32 {
        self.check_meas(meas);
        let id = self.det_count;
        self.det_count += 1;
        self.ops.push(Op::Detector {
            meas: meas.to_vec(),
            coords,
        });
        id
    }

    /// Adds measurement-record bits to logical observable `index`.
    pub fn observable(&mut self, index: u8, meas: &[usize]) -> &mut Self {
        if index >= 64 {
            self.record_error(CircuitError::ObservableIndexTooLarge { index });
            return self;
        }
        self.check_meas(meas);
        self.obs_mask |= 1 << index;
        self.ops.push(Op::Observable {
            index,
            meas: meas.to_vec(),
        });
        self
    }

    /// Finalizes the circuit.
    ///
    /// # Errors
    ///
    /// Returns the first validation error encountered while building.
    pub fn finish(self) -> Result<Circuit, CircuitError> {
        if let Some(e) = self.first_error {
            return Err(e);
        }
        let num_observables = if self.obs_mask == 0 {
            0
        } else {
            64 - self.obs_mask.leading_zeros()
        };
        Ok(Circuit {
            num_qubits: self.num_qubits,
            ops: self.ops,
            num_measurements: self.meas_count,
            num_detectors: self.det_count,
            num_observables,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> CircuitBuilder {
        CircuitBuilder::new(3)
    }

    #[test]
    fn builder_counts_measurements_and_detectors() {
        let mut b = toy();
        b.reset_z(&[0, 1, 2]);
        let r1 = b.measure_z(&[0, 1]);
        assert_eq!(r1, 0..2);
        let r2 = b.measure_z(&[2]);
        assert_eq!(r2, 2..3);
        let d = b.detector(&[0, 2], [1.0, 2.0, 3.0]);
        assert_eq!(d, 0);
        b.observable(0, &[1]);
        let c = b.finish().unwrap();
        assert_eq!(c.num_measurements(), 3);
        assert_eq!(c.num_detectors(), 1);
        assert_eq!(c.num_observables(), 1);
        assert_eq!(c.detector_coords(), vec![[1.0, 2.0, 3.0]]);
    }

    #[test]
    fn qubit_out_of_range_is_reported() {
        let mut b = toy();
        b.h(&[5]);
        assert_eq!(
            b.finish().unwrap_err(),
            CircuitError::QubitOutOfRange {
                qubit: 5,
                num_qubits: 3
            }
        );
    }

    #[test]
    fn duplicate_operand_is_reported() {
        let mut b = toy();
        b.cx(&[(0, 0)]);
        assert_eq!(
            b.finish().unwrap_err(),
            CircuitError::DuplicateOperand { qubit: 0 }
        );
    }

    #[test]
    fn duplicate_across_pairs_in_one_layer_is_reported() {
        let mut b = toy();
        b.cx(&[(0, 1), (1, 2)]);
        assert_eq!(
            b.finish().unwrap_err(),
            CircuitError::DuplicateOperand { qubit: 1 }
        );
    }

    #[test]
    fn future_measurement_reference_is_reported() {
        let mut b = toy();
        b.detector(&[0], [0.0; 3]);
        assert_eq!(
            b.finish().unwrap_err(),
            CircuitError::MeasurementOutOfRange {
                index: 0,
                recorded: 0
            }
        );
    }

    #[test]
    fn invalid_probability_is_reported() {
        let mut b = toy();
        b.x_error(&[0], -0.1);
        assert_eq!(
            b.finish().unwrap_err(),
            CircuitError::InvalidProbability { p: -0.1 }
        );
    }

    #[test]
    fn zero_probability_noise_is_elided() {
        let mut b = toy();
        b.x_error(&[0], 0.0);
        b.depolarize1(&[1], 0.0);
        b.pauli_error(&[2], 0.0, 0.0, 0.0);
        let c = b.finish().unwrap();
        assert!(c.ops().is_empty());
        assert_eq!(c.num_noise_sites(), 0);
    }

    #[test]
    fn pauli_channel_validates_component_sum() {
        let mut b = toy();
        b.pauli_error(&[0], 0.5, 0.4, 0.3);
        assert_eq!(
            b.finish().unwrap_err(),
            CircuitError::ChannelTotalTooLarge { total: 1.2 }
        );
    }

    #[test]
    fn pauli_channel_counts_sites_and_displays() {
        let mut b = toy();
        b.pauli_error(&[0, 1], 0.01, 0.0, 0.25);
        let c = b.finish().unwrap();
        assert_eq!(c.num_noise_sites(), 2);
        assert!(c.to_string().contains("PAULI_CHANNEL_1(0.01, 0, 0.25) 0 1"));
        assert!(c.without_noise().ops().is_empty());
    }

    #[test]
    fn without_noise_strips_only_noise() {
        let mut b = toy();
        b.reset_z(&[0]);
        b.x_error(&[0], 0.5);
        b.depolarize2(&[(0, 1)], 0.25);
        b.measure_z(&[0]);
        let c = b.finish().unwrap();
        assert_eq!(c.num_noise_sites(), 2);
        let q = c.without_noise();
        assert_eq!(q.num_noise_sites(), 0);
        assert_eq!(q.ops().len(), 2);
        assert_eq!(q.num_measurements(), 1);
    }

    #[test]
    fn observable_index_limit() {
        let mut b = toy();
        b.measure_z(&[0]);
        b.observable(64, &[0]);
        assert_eq!(
            b.finish().unwrap_err(),
            CircuitError::ObservableIndexTooLarge { index: 64 }
        );
    }

    #[test]
    fn display_is_nonempty_and_stim_like() {
        let mut b = toy();
        b.reset_z(&[0, 1]);
        b.cx(&[(0, 1)]);
        b.x_error(&[0], 0.125);
        let m = b.measure_z(&[1]);
        b.detector(&[m.start], [0.0, 1.0, 2.0]);
        let c = b.finish().unwrap();
        let text = c.to_string();
        assert!(text.contains("R 0 1"));
        assert!(text.contains("CX 0 1"));
        assert!(text.contains("X_ERROR(0.125) 0"));
        assert!(text.contains("DETECTOR(0, 1, 2) rec[0]"));
    }
}
