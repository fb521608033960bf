//! Seeded input generation: everything the program under test will be
//! fed is sampled, transposed and (for the service) wire-encoded here,
//! before any timed phase starts.
//!
//! A pool is one tenant's fixed sequence of shots. Tenant `q` of a run
//! seeded `seed` draws from `SyndromeStream` seeded
//! `service::qubit_seed(seed, q)` — the same per-tenant mix `repro serve`
//! uses — so the same `--seed` reproduces every pool byte for byte and
//! neighbouring tenants stay statistically independent.

use decoding_graph::packed::{for_each_set_bit, popcount};
use decoding_graph::LayerMap;
use qsim::circuit::Circuit;
use realtime::SyndromeStream;
use service::{qubit_seed, Frame};
use std::sync::Arc;

/// One tenant's pre-generated shots: shot-major packed syndrome words
/// plus the ground-truth observable flips the decoder never sees.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pool {
    /// Packed words per shot (the stride of `words`).
    pub words_per_shot: usize,
    /// `shots × words_per_shot` packed syndrome words.
    pub words: Vec<u64>,
    /// True observable flips, one mask per shot.
    pub obs: Vec<u64>,
}

impl Pool {
    /// Samples `shots` shots of tenant `tenant` under run seed `seed`.
    pub fn generate(
        circuit: &Circuit,
        layers: &Arc<LayerMap>,
        seed: u64,
        tenant: u32,
        shots: usize,
    ) -> Pool {
        let mut stream = SyndromeStream::with_shared_layers(
            circuit,
            Arc::clone(layers),
            qubit_seed(seed, tenant),
        );
        let words_per_shot = stream.words_per_shot();
        let mut words = Vec::with_capacity(shots * words_per_shot);
        let mut obs = Vec::with_capacity(shots);
        for _ in 0..shots {
            let shot = stream.next_shot_packed();
            words.extend_from_slice(shot.words);
            obs.push(shot.obs);
        }
        Pool {
            words_per_shot,
            words,
            obs,
        }
    }

    /// Shots in the pool.
    pub fn shots(&self) -> usize {
        self.obs.len()
    }

    /// Packed words of shot `i`.
    pub fn shot(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_shot..(i + 1) * self.words_per_shot]
    }

    /// Sorted flipped-detector list of shot `i` (the wire form), into `out`.
    pub fn sparse_into(&self, i: usize, out: &mut Vec<u32>) {
        out.clear();
        for_each_set_bit(self.shot(i), |d| out.push(d as u32));
    }

    /// The `SubmitRounds` wire frame (length prefix included) carrying
    /// shot `i` as tenant `qubit`'s shot number `seq`, appended to `out`.
    pub fn encode_submit(&self, i: usize, qubit: u32, seq: u64, out: &mut Vec<u8>) {
        let mut dets = Vec::new();
        self.sparse_into(i, &mut dets);
        let wire = Frame::SubmitRounds {
            qubit,
            shot: seq,
            dets,
        }
        .to_wire()
        .expect("a shot's detector list fits one frame");
        out.extend_from_slice(&wire);
    }
}

/// Hamming-weight profile of the generated traffic: what the workload
/// actually asks of the decoder, recorded with every run.
#[derive(Clone, Debug, PartialEq)]
pub struct HwProfile {
    /// Mean flipped detectors per shot.
    pub mean: f64,
    /// 99th-percentile flipped detectors per shot.
    pub p99: u32,
    /// Largest shot.
    pub max: u32,
    /// Shot counts by power-of-two weight class: `0`, `1`, `2–3`,
    /// `4–7`, … (`classes[k]` counts weights in `[2^(k-1), 2^k)`).
    pub classes: Vec<u64>,
}

impl HwProfile {
    /// Profiles every shot of `pools`.
    pub fn of(pools: &[Pool]) -> HwProfile {
        let mut hw: Vec<u32> = pools
            .iter()
            .flat_map(|p| (0..p.shots()).map(|i| popcount(p.shot(i))))
            .collect();
        hw.sort_unstable();
        let mut classes = Vec::new();
        for &w in &hw {
            let class = (u32::BITS - w.leading_zeros()) as usize;
            if classes.len() <= class {
                classes.resize(class + 1, 0);
            }
            classes[class] += 1;
        }
        let n = hw.len().max(1);
        HwProfile {
            mean: hw.iter().map(|&w| w as f64).sum::<f64>() / n as f64,
            p99: hw.get((hw.len() * 99) / 100).copied().unwrap_or(0),
            max: hw.last().copied().unwrap_or(0),
            classes,
        }
    }

    /// `0:812 1:120 2-3:60 …` — the histogram as one line.
    pub fn classes_line(&self) -> String {
        self.classes
            .iter()
            .enumerate()
            .map(|(k, n)| match k {
                0 => format!("0:{n}"),
                1 => format!("1:{n}"),
                _ => format!("{}-{}:{n}", 1u64 << (k - 1), (1u64 << k) - 1),
            })
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ler::ExperimentContext;

    fn fixture() -> (ExperimentContext, Arc<LayerMap>) {
        let ctx = ExperimentContext::with_rounds(3, 3, 5e-3);
        let layers = Arc::new(LayerMap::from_graph(&ctx.graph).unwrap());
        (ctx, layers)
    }

    #[test]
    fn same_seed_gives_byte_identical_pools_and_frames() {
        let (ctx, layers) = fixture();
        let a = Pool::generate(&ctx.circuit, &layers, 7, 2, 300);
        let b = Pool::generate(&ctx.circuit, &layers, 7, 2, 300);
        assert_eq!(a, b);
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        for i in 0..a.shots() {
            a.encode_submit(i, 2, i as u64, &mut fa);
            b.encode_submit(i, 2, i as u64, &mut fb);
        }
        assert_eq!(fa, fb);
        assert!(!fa.is_empty());
    }

    #[test]
    fn seed_and_tenant_both_change_the_pool() {
        let (ctx, layers) = fixture();
        let base = Pool::generate(&ctx.circuit, &layers, 7, 0, 300);
        assert_ne!(base, Pool::generate(&ctx.circuit, &layers, 8, 0, 300));
        assert_ne!(base, Pool::generate(&ctx.circuit, &layers, 7, 1, 300));
        // A longer pool extends the shorter one: the stream is a pure
        // function of its seed, not of how much is drawn.
        let longer = Pool::generate(&ctx.circuit, &layers, 7, 0, 400);
        assert_eq!(base.words[..], longer.words[..base.words.len()]);
    }

    #[test]
    fn wire_frames_round_trip_to_the_packed_words() {
        let (ctx, layers) = fixture();
        let pool = Pool::generate(&ctx.circuit, &layers, 3, 0, 64);
        let mut dets = Vec::new();
        for i in 0..pool.shots() {
            let mut wire = Vec::new();
            pool.encode_submit(i, 5, 100 + i as u64, &mut wire);
            let body = Frame::decode_submit_body(&wire[4..]).unwrap();
            assert_eq!((body.qubit, body.shot), (5, 100 + i as u64));
            pool.sparse_into(i, &mut dets);
            assert_eq!(body.dets().collect::<Vec<_>>(), dets);
        }
    }

    #[test]
    fn hw_profile_counts_every_shot_once() {
        let (ctx, layers) = fixture();
        let pools = [
            Pool::generate(&ctx.circuit, &layers, 1, 0, 200),
            Pool::generate(&ctx.circuit, &layers, 1, 1, 200),
        ];
        let hw = HwProfile::of(&pools);
        assert_eq!(hw.classes.iter().sum::<u64>(), 400);
        assert!(hw.mean > 0.0 && hw.p99 <= hw.max);
        assert!(hw.classes_line().starts_with("0:"));
    }
}
