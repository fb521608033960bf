//! The Clique non-syndrome-modifying predecoder \[49\].
//!
//! Clique implements Delfosse's hierarchical idea in superconducting
//! logic: a thin layer of local match units that can fully decode
//! *trivial* syndromes — those whose decoding subgraph decomposes into
//! isolated adjacent pairs and lone defects sitting next to the lattice
//! boundary. Anything else is forwarded to the main decoder **without
//! modification** (Figure 3(a) of the Promatch paper), so the main
//! decoder's Hamming-weight limits still apply in full.

use crate::isolated_partner;
use decoding_graph::latency::cycles_to_ns;
use decoding_graph::{DecodingGraph, DetectorId, PredecodeOutcome, Predecoder, SubgraphState};

/// Cycles charged by the local match units (one 250 MHz cycle).
const CLIQUE_LATENCY_CYCLES: u64 = 1;

/// The Clique NSM predecoder.
///
/// Keeps its decoding subgraph alive across shots (rebuilt in place).
#[derive(Clone, Debug)]
pub struct CliquePredecoder<'a> {
    graph: &'a DecodingGraph,
    sg: SubgraphState,
}

impl<'a> CliquePredecoder<'a> {
    /// Creates the predecoder over `graph`.
    pub fn new(graph: &'a DecodingGraph) -> Self {
        CliquePredecoder {
            graph,
            sg: SubgraphState::default(),
        }
    }
}

/// The local match units' decode of `dets` over its subgraph `sg`, one
/// slot at a time: a lone defect (degree 0) matches the boundary, and a
/// degree-1 slot whose only neighbor also has degree 1 is an isolated
/// pair, emitted at its lower slot. `None` if any slot is neither — an
/// interior lone defect or part of a larger pattern.
fn decode_locally(
    graph: &DecodingGraph,
    sg: &SubgraphState,
    dets: &[DetectorId],
) -> Option<PredecodeOutcome> {
    let bd = graph.boundary_node();
    let mut out = PredecodeOutcome::passthrough(&[]);
    for (i, &d) in dets.iter().enumerate() {
        let (weight, obs) = if sg.deg(i) == 0 {
            let e = graph.edge_between(d, bd)?;
            out.boundary_matches.push(d);
            (e.weight, e.obs)
        } else {
            let n = isolated_partner(sg, i)?;
            if n.slot < i {
                continue;
            }
            out.pairs.push((d, dets[n.slot]));
            (n.weight, n.obs)
        };
        out.obs_flip ^= obs;
        out.weight += weight;
    }
    Some(out)
}

impl Predecoder for CliquePredecoder<'_> {
    fn predecode(&mut self, dets: &[DetectorId]) -> PredecodeOutcome {
        self.sg.rebuild(self.graph, dets);
        // Anything not locally decodable is forwarded unmodified.
        let out = decode_locally(self.graph, &self.sg, dets)
            .unwrap_or_else(|| PredecodeOutcome::passthrough(dets));
        PredecodeOutcome {
            latency_ns: cycles_to_ns(CLIQUE_LATENCY_CYCLES),
            ..out
        }
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

    fn boundary_adjacent_det(g: &DecodingGraph) -> u32 {
        let bd = g.boundary_node();
        g.edges()
            .iter()
            .find(|e| e.u == bd || e.v == bd)
            .map(|e| if e.u == bd { e.v } else { e.u })
            .expect("boundary edge exists")
    }

    fn internal_pair(g: &DecodingGraph) -> (u32, u32) {
        let bd = g.boundary_node();
        g.edges()
            .iter()
            .find(|e| e.u != bd && e.v != bd)
            .map(|e| (e.u.min(e.v), e.u.max(e.v)))
            .expect("internal edge exists")
    }

    #[test]
    fn fully_decodes_isolated_pair() {
        let g = graph(3);
        let (a, b) = internal_pair(&g);
        let mut clique = CliquePredecoder::new(&g);
        let out = clique.predecode(&[a, b]);
        assert!(out.remaining.is_empty());
        assert_eq!(out.pairs, vec![(a, b)]);
    }

    #[test]
    fn fully_decodes_boundary_singleton() {
        let g = graph(3);
        let d = boundary_adjacent_det(&g);
        let mut clique = CliquePredecoder::new(&g);
        let out = clique.predecode(&[d]);
        assert!(out.remaining.is_empty());
        assert_eq!(out.boundary_matches, vec![d]);
        assert!(out.pairs.is_empty());
    }

    #[test]
    fn forwards_nontrivial_syndromes_unmodified() {
        let g = graph(5);
        // Build a chain of three adjacent detectors: degree-2 middle node
        // makes the component non-trivial.
        let bd = g.boundary_node();
        let mut chain = None;
        'outer: for e in g.edges() {
            if e.u == bd || e.v == bd {
                continue;
            }
            for (c, _) in g.neighbors(e.v) {
                if c != bd && c != e.u {
                    chain = Some(vec![e.u, e.v, c]);
                    break 'outer;
                }
            }
        }
        let mut dets = chain.unwrap();
        dets.sort_unstable();
        let mut clique = CliquePredecoder::new(&g);
        let out = clique.predecode(&dets);
        assert_eq!(
            out.remaining, dets,
            "NSM: syndrome must pass through unmodified"
        );
        assert!(out.pairs.is_empty());
        assert_eq!(out.obs_flip, 0);
        assert_eq!(out.weight, 0);
    }

    #[test]
    fn empty_syndrome_is_trivially_decoded() {
        let g = graph(3);
        let mut clique = CliquePredecoder::new(&g);
        let out = clique.predecode(&[]);
        assert!(out.remaining.is_empty());
        assert!(out.pairs.is_empty());
        assert!(out.boundary_matches.is_empty());
    }

    #[test]
    fn correct_observable_for_single_boundary_mechanism() {
        // A boundary mechanism's syndrome is a lone boundary-adjacent
        // defect; Clique must reproduce its observable flip.
        let code = RotatedSurfaceCode::new(3);
        let circuit = code.memory_z_circuit(3, &NoiseModel::uniform(1e-3));
        let dem = extract_dem(&circuit);
        let g = DecodingGraph::from_dem(&dem);
        let mut clique = CliquePredecoder::new(&g);
        let mut checked = 0;
        for e in &dem.errors {
            if e.dets.len() == 1 {
                let out = clique.predecode(e.dets.as_slice());
                if out.remaining.is_empty() {
                    assert_eq!(out.obs_flip, e.obs);
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }
}
