//! The Smith et al. local predecoder \[55\].
//!
//! Smith, Brown, and Bartlett's design is a *local* hardware rule
//! evaluated once per syndrome: a pair of adjacent flipped bits is
//! prematched iff each is the other's only flipped neighbor (a mutual
//! isolated pair). This removes the overwhelmingly common length-1 error
//! chains (high coverage on sparse syndromes) but is a single
//! non-adaptive pass: denser clusters are forwarded untouched, and
//! nothing guarantees the remainder fits the main decoder's Hamming
//! weight limit — the failure mode behind the paper's `Smith + Astrea`
//! rows of Table 2 and the residual HW > 10 tail in the "After Smith"
//! histograms of Figures 16/17.

use crate::isolated_partner;
use decoding_graph::latency::cycles_to_ns;
use decoding_graph::{DecodingGraph, DetectorId, PredecodeOutcome, Predecoder, SubgraphState};

/// The Smith et al. one-pass local predecoder.
///
/// Keeps its decoding subgraph alive across shots (rebuilt in place,
/// not reallocated).
#[derive(Clone, Debug)]
pub struct SmithPredecoder<'a> {
    graph: &'a DecodingGraph,
    sg: SubgraphState,
}

impl<'a> SmithPredecoder<'a> {
    /// Creates the predecoder over `graph`.
    pub fn new(graph: &'a DecodingGraph) -> Self {
        SmithPredecoder {
            graph,
            sg: SubgraphState::default(),
        }
    }
}

impl Predecoder for SmithPredecoder<'_> {
    fn predecode(&mut self, dets: &[DetectorId]) -> PredecodeOutcome {
        self.sg.rebuild(self.graph, dets);
        let sg = &self.sg;
        let mut out = PredecodeOutcome {
            // One pipeline pass over the subgraph edges.
            latency_ns: cycles_to_ns(sg.live_edges().max(1) as u64),
            ..PredecodeOutcome::passthrough(&[])
        };
        // One parallel pass: mutual isolated pairs only, each emitted
        // at its lower slot.
        for (i, &d) in dets.iter().enumerate() {
            match isolated_partner(sg, i) {
                Some(n) if n.slot > i => {
                    out.pairs.push((d, dets[n.slot]));
                    out.obs_flip ^= n.obs;
                    out.weight += n.weight;
                }
                // Emitted at the partner's (lower) slot.
                Some(_) => {}
                None => out.remaining.push(d),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::extract_dem;
    use surface_code::{NoiseModel, RotatedSurfaceCode};

    fn graph(d: u32) -> DecodingGraph {
        let code = RotatedSurfaceCode::new(d);
        let circuit = code.memory_z_circuit(d, &NoiseModel::uniform(1e-3));
        DecodingGraph::from_dem(&extract_dem(&circuit))
    }

    /// Finds an adjacent pair of detectors in the graph.
    fn adjacent_pair(g: &DecodingGraph) -> (u32, u32) {
        let bd = g.boundary_node();
        g.edges()
            .iter()
            .find(|e| e.u != bd && e.v != bd)
            .map(|e| (e.u.min(e.v), e.u.max(e.v)))
            .expect("internal edge exists")
    }

    /// Finds a chain of three mutually-distinct adjacent detectors.
    fn chain_of_three(g: &DecodingGraph) -> Vec<u32> {
        let bd = g.boundary_node();
        for e in g.edges() {
            if e.u == bd || e.v == bd {
                continue;
            }
            for (c, _) in g.neighbors(e.v) {
                if c != bd && c != e.u {
                    let mut v = vec![e.u, e.v, c];
                    v.sort_unstable();
                    return v;
                }
            }
        }
        panic!("no chain found");
    }

    #[test]
    fn matches_mutual_isolated_pair() {
        let g = graph(3);
        let (a, b) = adjacent_pair(&g);
        let mut smith = SmithPredecoder::new(&g);
        let out = smith.predecode(&[a, b]);
        assert_eq!(out.pairs, vec![(a, b)]);
        assert!(out.remaining.is_empty());
        assert!(out.weight > 0);
    }

    #[test]
    fn leaves_chains_untouched() {
        // A 3-chain has a degree-2 middle node: no mutual isolated pair,
        // so Smith forwards everything — unlike a maximal matching.
        let g = graph(5);
        let dets = chain_of_three(&g);
        let mut smith = SmithPredecoder::new(&g);
        let out = smith.predecode(&dets);
        assert!(out.pairs.is_empty(), "chains are not isolated pairs");
        assert_eq!(out.remaining, dets);
    }

    #[test]
    fn isolated_defects_are_left_for_the_main_decoder() {
        let g = graph(5);
        let bd = g.boundary_node();
        let mut pick = None;
        'outer: for a in 0..g.num_detectors() {
            for b in (a + 1)..g.num_detectors() {
                if g.edge_between(a, b).is_none() && a != bd && b != bd {
                    pick = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = pick.unwrap();
        let mut smith = SmithPredecoder::new(&g);
        let out = smith.predecode(&[a, b]);
        assert!(out.pairs.is_empty());
        assert_eq!(out.remaining, vec![a, b]);
    }

    #[test]
    fn output_partitions_the_syndrome() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = graph(5);
        let mut smith = SmithPredecoder::new(&g);
        let mut rng = StdRng::seed_from_u64(51);
        let nd = g.num_detectors() as usize;
        for _ in 0..100 {
            let hw = rng.gen_range(2..=20);
            let mut pool: Vec<u32> = (0..nd as u32).collect();
            for i in 0..hw {
                let j = rng.gen_range(i..nd);
                pool.swap(i, j);
            }
            let mut dets = pool[..hw].to_vec();
            dets.sort_unstable();
            let out = smith.predecode(&dets);
            let mut all: Vec<u32> = out
                .pairs
                .iter()
                .flat_map(|&(a, b)| [a, b])
                .chain(out.remaining.iter().copied())
                .collect();
            all.sort_unstable();
            assert_eq!(all, dets);
            // Every prematched pair really was a mutual isolated pair.
            let sg = SubgraphState::build(&g, &dets);
            for &(a, b) in &out.pairs {
                let ai = dets.binary_search(&a).unwrap();
                let bi = dets.binary_search(&b).unwrap();
                assert_eq!(sg.deg(ai), 1);
                assert_eq!(sg.deg(bi), 1);
            }
        }
    }

    #[test]
    fn single_pass_is_not_adaptive() {
        // On a 4-chain, Promatch would break it into two pairs over two
        // rounds; Smith's single pass matches nothing.
        let g = graph(5);
        let bd = g.boundary_node();
        // Find a path of four detectors.
        'outer: for e in g.edges() {
            if e.u == bd || e.v == bd {
                continue;
            }
            for (c, _) in g.neighbors(e.v) {
                if c == bd || c == e.u {
                    continue;
                }
                for (d2, _) in g.neighbors(c) {
                    if d2 == bd || d2 == e.v || d2 == e.u {
                        continue;
                    }
                    if g.edge_between(d2, e.u).is_some() {
                        continue;
                    }
                    let mut dets = vec![e.u, e.v, c, d2];
                    dets.sort_unstable();
                    dets.dedup();
                    if dets.len() != 4 {
                        continue;
                    }
                    let mut smith = SmithPredecoder::new(&g);
                    let out = smith.predecode(&dets);
                    assert!(
                        out.pairs.is_empty(),
                        "4-chain should be forwarded whole: {:?}",
                        out.pairs
                    );
                    break 'outer;
                }
            }
        }
    }
}
