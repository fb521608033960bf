//! Detector error models (DEMs).
//!
//! A [`DetectorErrorModel`] is the decoder-facing abstraction of a noisy
//! circuit: a list of independent error mechanisms, each firing with some
//! probability and flipping a known set of detectors plus a known set of
//! logical observables. It is the exact analogue of Stim's `.dem` output
//! with `decompose_errors=True`: every mechanism flips at most two
//! detectors, so the model maps directly onto a matching graph.

use crate::frame::Shot;
use crate::sparse::SparseBits;
use rand::Rng;

/// One independent error mechanism.
#[derive(Clone, Debug, PartialEq)]
pub struct DemError {
    /// Detectors flipped when the mechanism fires (sorted; length 1 or 2
    /// after graphlike decomposition).
    pub dets: SparseBits,
    /// Bit mask of logical observables flipped when the mechanism fires.
    pub obs: u64,
    /// Firing probability.
    pub p: f64,
}

/// A complete detector error model for one circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct DetectorErrorModel {
    /// Number of detectors in the underlying circuit.
    pub num_detectors: u32,
    /// Number of logical observables.
    pub num_observables: u32,
    /// The error mechanisms, sorted by symptom for determinism.
    pub errors: Vec<DemError>,
    /// Coordinates of each detector (x, y, t), from the circuit.
    pub det_coords: Vec<[f64; 3]>,
}

impl DetectorErrorModel {
    /// Expected number of mechanism firings per shot (Σ pᵢ).
    pub fn expected_error_count(&self) -> f64 {
        self.errors.iter().map(|e| e.p).sum()
    }

    /// Maximum number of detectors flipped by any single mechanism.
    pub fn max_symptom_size(&self) -> usize {
        self.errors.iter().map(|e| e.dets.len()).max().unwrap_or(0)
    }

    /// Samples one shot by firing each mechanism independently.
    ///
    /// This samples from the DEM's own distribution, which matches the
    /// circuit distribution up to the graphlike-decomposition
    /// approximation of correlated errors.
    pub fn sample_shot<R: Rng + ?Sized>(&self, rng: &mut R) -> Shot {
        let mut dets = SparseBits::new();
        let mut obs = 0u64;
        // Mechanisms have heterogeneous probabilities, so geometric
        // skipping over the error list does not apply directly; iterate,
        // but draw per-mechanism with one RNG call.
        for e in &self.errors {
            if rng.gen::<f64>() < e.p {
                dets.xor_in_place(&e.dets);
                obs ^= e.obs;
            }
        }
        Shot {
            dets: dets.into_vec(),
            obs,
        }
    }

    /// Computes the combined symptom of firing the listed mechanisms.
    pub fn symptom_of(&self, mechanism_indices: &[usize]) -> Shot {
        let mut dets = SparseBits::new();
        let mut obs = 0u64;
        for &i in mechanism_indices {
            dets.xor_in_place(&self.errors[i].dets);
            obs ^= self.errors[i].obs;
        }
        Shot {
            dets: dets.into_vec(),
            obs,
        }
    }

    /// Validates internal invariants; returns a description of the first
    /// violation, if any.
    pub fn validate(&self) -> Result<(), String> {
        if self.det_coords.len() != self.num_detectors as usize {
            return Err(format!(
                "coordinate count {} != detector count {}",
                self.det_coords.len(),
                self.num_detectors
            ));
        }
        for (i, e) in self.errors.iter().enumerate() {
            if !(0.0..=0.5).contains(&e.p) {
                return Err(format!("error {i}: probability {} outside (0, 0.5]", e.p));
            }
            if e.p == 0.0 {
                return Err(format!("error {i}: zero probability mechanism"));
            }
            if e.dets.is_empty() && e.obs == 0 {
                return Err(format!("error {i}: no effect"));
            }
            if let Some(&max) = e.dets.as_slice().last() {
                if max >= self.num_detectors {
                    return Err(format!("error {i}: detector {max} out of range"));
                }
            }
            if self.num_observables < 64 && e.obs >> self.num_observables != 0 {
                return Err(format!(
                    "error {i}: observable mask {:b} out of range",
                    e.obs
                ));
            }
        }
        Ok(())
    }

    /// Indices of mechanisms that flip an observable without flipping any
    /// detector (undetectable logical errors). A sound fault-tolerant
    /// circuit has none.
    pub fn undetectable_logical_mechanisms(&self) -> Vec<usize> {
        self.errors
            .iter()
            .enumerate()
            .filter(|(_, e)| e.dets.is_empty() && e.obs != 0)
            .map(|(i, _)| i)
            .collect()
    }
}

/// XOR-combines two independent probabilities: the probability that an odd
/// number of the two events occurs.
pub fn xor_probability(a: f64, b: f64) -> f64 {
    a * (1.0 - b) + b * (1.0 - a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dem() -> DetectorErrorModel {
        DetectorErrorModel {
            num_detectors: 3,
            num_observables: 1,
            errors: vec![
                DemError {
                    dets: SparseBits::from_sorted(vec![0, 1]),
                    obs: 0,
                    p: 0.1,
                },
                DemError {
                    dets: SparseBits::from_sorted(vec![1, 2]),
                    obs: 0,
                    p: 0.2,
                },
                DemError {
                    dets: SparseBits::from_sorted(vec![2]),
                    obs: 1,
                    p: 0.05,
                },
            ],
            det_coords: vec![[0.0; 3]; 3],
        }
    }

    #[test]
    fn validate_accepts_well_formed_model() {
        assert_eq!(tiny_dem().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_detector() {
        let mut dem = tiny_dem();
        dem.errors[0].dets = SparseBits::from_sorted(vec![7]);
        assert!(dem.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_mechanism() {
        let mut dem = tiny_dem();
        dem.errors[0].dets = SparseBits::new();
        dem.errors[0].obs = 0;
        assert!(dem.validate().is_err());
    }

    #[test]
    fn symptom_composition_is_xor() {
        let dem = tiny_dem();
        let shot = dem.symptom_of(&[0, 1]);
        assert_eq!(shot.dets, vec![0, 2]);
        assert_eq!(shot.obs, 0);
        let shot = dem.symptom_of(&[0, 1, 2]);
        assert_eq!(shot.dets, vec![0]);
        assert_eq!(shot.obs, 1);
    }

    #[test]
    fn sampling_rate_tracks_probabilities() {
        let dem = tiny_dem();
        let mut rng = StdRng::seed_from_u64(77);
        let n = 100_000;
        let mut det0 = 0usize;
        for _ in 0..n {
            let s = dem.sample_shot(&mut rng);
            if s.dets.contains(&0) {
                det0 += 1;
            }
        }
        // Detector 0 fires only via error 0.
        let expect = 0.1;
        let mean = det0 as f64 / n as f64;
        let sigma = (expect * (1.0 - expect) / n as f64).sqrt();
        assert!((mean - expect).abs() < 5.0 * sigma);
    }

    #[test]
    fn expected_error_count_is_sum() {
        let dem = tiny_dem();
        assert!((dem.expected_error_count() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn xor_probability_limits() {
        assert_eq!(xor_probability(0.0, 0.3), 0.3);
        assert_eq!(xor_probability(0.5, 0.5), 0.5);
        assert!((xor_probability(0.1, 0.2) - 0.26).abs() < 1e-12);
    }

    #[test]
    fn undetectable_mechanisms_are_flagged() {
        let mut dem = tiny_dem();
        dem.errors.push(DemError {
            dets: SparseBits::new(),
            obs: 1,
            p: 0.01,
        });
        assert_eq!(dem.undetectable_logical_mechanisms(), vec![3]);
    }
}
