//! The detector error models of the benchmark's own operating points,
//! pinned byte for byte: d = 13, 13 rounds, SD6 noise at p = 1e-4
//! (`engine-sparse-d13`) and p = 1e-3 (`engine-dense-d13`).
//!
//! Each pin is the mechanism count, the extraction statistics and an
//! FNV-1a-64 hash of [`DetectorErrorModel::to_text`], which prints every
//! probability to the last bit. Any change to the walk or to the order
//! components are folded in moves the hash.

use qsim::sensitivity::{extract_dem_with_stats, ExtractionStats};
use qsim::DetectorErrorModel;
use surface_code::{NoiseModel, RotatedSurfaceCode};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sd6_d13(p: f64) -> (DetectorErrorModel, ExtractionStats) {
    let circuit = RotatedSurfaceCode::new(13).memory_z_circuit(13, &NoiseModel::sd6(p));
    extract_dem_with_stats(&circuit)
}

/// Both d = 13 SD6 models: 146 120 components, 99 918 of them
/// graph-like, none decomposed, folded into 6 085 mechanisms.
const D13_STATS: ExtractionStats = ExtractionStats {
    components: 146_120,
    graphlike_components: 99_918,
    dictionary_decompositions: 0,
    fallback_decompositions: 0,
};

#[test]
fn sd6_d13_at_1e_4_is_pinned() {
    let (dem, stats) = sd6_d13(1e-4);
    assert_eq!(stats, D13_STATS);
    assert_eq!(dem.errors.len(), 6085);
    assert_eq!(fnv1a64(dem.to_text().as_bytes()), 0x7e1f_083b_e262_75d1);
}

#[test]
fn sd6_d13_at_1e_3_is_pinned() {
    let (dem, stats) = sd6_d13(1e-3);
    assert_eq!(stats, D13_STATS);
    assert_eq!(dem.errors.len(), 6085);
    assert_eq!(fnv1a64(dem.to_text().as_bytes()), 0x1b6e_9414_bf2f_cbdf);
}
