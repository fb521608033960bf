//! Rotated surface codes and circuit-level-noise memory experiments.
//!
//! This crate builds the quantum workload of the Promatch paper: rotated
//! surface code logical qubits of odd distance `d` (d² data qubits,
//! d² − 1 stabilizers) and the Z-basis state-preservation ("memory")
//! experiment circuits used for every evaluation, under a configurable
//! circuit-level noise family (see [`NoiseModel`]). The paper's §5.3
//! uniform model is [`NoiseModel::uniform`]:
//!
//! 1. start-of-round single-qubit depolarizing noise on every data qubit,
//! 2. depolarizing noise after every gate on all operands,
//! 3. measurement flip errors,
//! 4. reset flip errors,
//!
//! each with probability `p`; the wider family adds independent
//! per-channel strengths, SD6-style idle errors, and Z-biased idling
//! ([`NoiseModel::sd6`], [`NoiseModel::biased_z`],
//! [`NoiseModel::custom`]).
//!
//! Detectors are emitted for **Z-type stabilizers only** — the paper runs
//! Z-memory experiments exclusively (footnote 4) and counts syndrome
//! Hamming weight over that graph; this reading reproduces the paper's
//! Table 8 detector counts exactly (720 for d = 11, 1176 for d = 13).
//!
//! # Example
//!
//! ```
//! use surface_code::{NoiseModel, RotatedSurfaceCode};
//!
//! let code = RotatedSurfaceCode::new(5);
//! assert_eq!(code.num_data(), 25);
//! assert_eq!(code.z_stabilizers().len(), 12);
//! let circuit = code.memory_z_circuit(5, &NoiseModel::uniform(1e-3));
//! assert_eq!(circuit.num_detectors(), 12 * 6); // (rounds + 1) layers
//! ```

#![forbid(unsafe_code)]

mod layout;
mod memory;
mod noise;
mod viz;

pub use layout::{RotatedSurfaceCode, Stabilizer, StabilizerBasis};
pub use memory::MemoryBasis;
pub use noise::{NoiseModel, NoiseModelBuilder, NoiseModelError, PauliChannel};
