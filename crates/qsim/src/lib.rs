//! `qsim` — a compact Clifford-circuit simulation substrate for quantum
//! error correction studies.
//!
//! This crate plays the role that [Stim](https://github.com/quantumlib/Stim)
//! plays in the Promatch paper (Alavisamani et al., ASPLOS 2024): it
//! provides
//!
//! * a [`circuit::Circuit`] intermediate representation for stabilizer
//!   circuits annotated with noise channels, detectors, and logical
//!   observables,
//! * a CHP-style [`tableau::TableauSim`] stabilizer simulator used to
//!   validate that detectors are deterministic in the noiseless circuit,
//! * a bit-packed [`frame::FrameSampler`] that samples detection events and
//!   observable flips for millions of shots (64 shots per machine word),
//! * a backward sensitivity analysis ([`sensitivity::extract_dem`]) that
//!   enumerates every error mechanism in the circuit and emits a
//!   [`dem::DetectorErrorModel`] — the input to every decoder in the
//!   workspace.
//!
//! # Example
//!
//! ```
//! use qsim::circuit::CircuitBuilder;
//! use qsim::sensitivity::extract_dem;
//!
//! // A 2-qubit repetition-code-like toy: one parity check of one data qubit.
//! let mut b = CircuitBuilder::new(2);
//! b.reset_z(&[0, 1]);
//! b.x_error(&[0], 1e-3);
//! b.cx(&[(0, 1)]);
//! let m = b.measure_z(&[1]);
//! b.detector(&[m.start], [0.0, 0.0, 0.0]);
//! let m2 = b.measure_z(&[0]);
//! b.observable(0, &[m2.start]);
//! let circuit = b.finish().unwrap();
//!
//! let dem = extract_dem(&circuit);
//! assert_eq!(dem.errors.len(), 1); // the single X error mechanism
//! assert_eq!(dem.errors[0].dets.as_slice(), &[0]);
//! assert_eq!(dem.errors[0].obs, 1);
//! ```

#![forbid(unsafe_code)]

pub mod circuit;
pub mod dem;
pub mod demtext;
pub mod frame;
pub mod pauli;
pub mod rngutil;
pub mod sensitivity;
pub mod sparse;
pub mod tableau;

pub use circuit::{Circuit, CircuitBuilder, CircuitError, Op, Qubit};
pub use dem::{DemError, DetectorErrorModel};
pub use frame::{FrameSampler, SampleBatch, Shot};
pub use pauli::{Pauli, PauliString};
pub use sensitivity::extract_dem;
pub use sparse::SparseBits;
pub use tableau::TableauSim;
