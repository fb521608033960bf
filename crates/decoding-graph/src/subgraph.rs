//! The decoding subgraph induced by one syndrome (paper Figure 6).
//!
//! Nodes are the flipped detectors; edges are the decoding-graph edges
//! whose *both* endpoints are flipped. All predecoders (Promatch, Smith,
//! Clique) reason over this object; its per-node degree vector and
//! "dependent" counts drive Promatch's candidate selection.

use crate::graph::DecodingGraph;
use crate::workspace::SlotMap;
use crate::DetectorId;

/// An edge of the decoding subgraph, in node-slot indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubEdge {
    /// Slot of the first endpoint in [`DecodingSubgraph::nodes`].
    pub a: usize,
    /// Slot of the second endpoint.
    pub b: usize,
    /// Weight of the underlying decoding-graph edge.
    pub weight: i64,
    /// Observable mask of the underlying edge.
    pub obs: u64,
}

/// The subgraph of the decoding graph induced by a set of flipped
/// detectors.
///
/// Supports in-place [`DecodingSubgraph::rebuild`], so a long-lived
/// predecoder reuses the node/edge/adjacency buffers (and the dense
/// detector→slot map) across shots instead of reallocating them.
#[derive(Clone, Debug, Default)]
pub struct DecodingSubgraph {
    nodes: Vec<DetectorId>,
    edges: Vec<SubEdge>,
    adj: Vec<Vec<u32>>, // node slot -> edge indices
    deg: Vec<u32>,
    slots: SlotMap,
}

impl DecodingSubgraph {
    /// Creates an empty subgraph (populate with
    /// [`DecodingSubgraph::rebuild`]).
    pub fn new() -> Self {
        DecodingSubgraph::default()
    }

    /// Builds the subgraph induced by `dets` (must be sorted, unique).
    pub fn build(graph: &DecodingGraph, dets: &[DetectorId]) -> Self {
        let mut sg = DecodingSubgraph::new();
        sg.rebuild(graph, dets);
        sg
    }

    /// Rebuilds the subgraph in place for a new syndrome, clearing — not
    /// freeing — all internal buffers.
    pub fn rebuild(&mut self, graph: &DecodingGraph, dets: &[DetectorId]) {
        debug_assert!(
            dets.windows(2).all(|w| w[0] < w[1]),
            "detectors not sorted/unique"
        );
        let k = dets.len();
        self.nodes.clear();
        self.nodes.extend_from_slice(dets);
        self.edges.clear();
        if self.adj.len() < k {
            self.adj.resize_with(k, Vec::new);
        }
        for list in &mut self.adj[..k] {
            list.clear();
        }
        self.slots.reset(graph.num_detectors() as usize);
        for (i, &d) in dets.iter().enumerate() {
            self.slots.insert(d, i);
        }
        for (ai, &a) in dets.iter().enumerate() {
            for (nbr, e) in graph.neighbors(a) {
                if nbr == graph.boundary_node() {
                    continue;
                }
                // Count each edge once (from its lower-detector endpoint).
                if nbr <= a {
                    continue;
                }
                if let Some(bi) = self.slots.get(nbr) {
                    let idx = self.edges.len() as u32;
                    self.edges.push(SubEdge {
                        a: ai,
                        b: bi,
                        weight: e.weight,
                        obs: e.obs,
                    });
                    self.adj[ai].push(idx);
                    self.adj[bi].push(idx);
                }
            }
        }
        self.deg.clear();
        self.deg.resize(k, 0);
        for e in &self.edges {
            self.deg[e.a] += 1;
            self.deg[e.b] += 1;
        }
    }

    /// The flipped detectors, in slot order.
    pub fn nodes(&self) -> &[DetectorId] {
        &self.nodes
    }

    /// Number of nodes (the syndrome Hamming weight).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The subgraph edges.
    pub fn edges(&self) -> &[SubEdge] {
        &self.edges
    }

    /// Edge indices incident to node slot `slot`.
    pub fn incident_edges(&self, slot: usize) -> &[u32] {
        &self.adj[slot]
    }

    /// Degree of every node slot (cached at build time).
    pub fn degrees(&self) -> &[u32] {
        &self.deg
    }

    /// Neighbor slots of `slot`.
    pub fn neighbors(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[slot].iter().map(move |&ei| {
            let e = &self.edges[ei as usize];
            if e.a == slot {
                e.b
            } else {
                e.a
            }
        })
    }

    /// Connected components as lists of node slots.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.nodes.len();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        let mut stack = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = vec![start];
            seen[start] = true;
            stack.push(start);
            while let Some(u) = stack.pop() {
                for v in self.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        comp.push(v);
                        stack.push(v);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::dem::{DemError, DetectorErrorModel};
    use qsim::sparse::SparseBits;

    /// Path graph 0-1-2-3-4 with boundary edges on 0 and 4.
    fn line_graph() -> DecodingGraph {
        let mk = |dets: Vec<u32>, p: f64| DemError {
            dets: SparseBits::from_sorted(dets),
            obs: 0,
            p,
        };
        DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: 5,
            num_observables: 0,
            errors: vec![
                mk(vec![0], 0.001),
                mk(vec![0, 1], 0.01),
                mk(vec![1, 2], 0.01),
                mk(vec![2, 3], 0.01),
                mk(vec![3, 4], 0.01),
                mk(vec![4], 0.001),
            ],
            det_coords: vec![[0.0; 3]; 5],
        })
    }

    #[test]
    fn induced_edges_require_both_endpoints_flipped() {
        let g = line_graph();
        let sg = DecodingSubgraph::build(&g, &[0, 1, 3]);
        assert_eq!(sg.num_nodes(), 3);
        assert_eq!(sg.edges().len(), 1); // only 0-1; 3 is isolated
        assert_eq!(sg.degrees(), vec![1, 1, 0]);
    }

    #[test]
    fn boundary_edges_are_excluded() {
        let g = line_graph();
        let sg = DecodingSubgraph::build(&g, &[0]);
        assert_eq!(sg.edges().len(), 0);
        assert_eq!(sg.degrees(), vec![0]);
    }

    #[test]
    fn full_syndrome_reconstructs_path() {
        let g = line_graph();
        let sg = DecodingSubgraph::build(&g, &[0, 1, 2, 3, 4]);
        assert_eq!(sg.edges().len(), 4);
        assert_eq!(sg.degrees(), vec![1, 2, 2, 2, 1]);
        let nbrs: Vec<usize> = sg.neighbors(2).collect();
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs.contains(&1) && nbrs.contains(&3));
    }

    #[test]
    fn components_split_disconnected_pieces() {
        let g = line_graph();
        let sg = DecodingSubgraph::build(&g, &[0, 1, 3, 4]);
        let comps = sg.components();
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn empty_syndrome_is_empty_subgraph() {
        let g = line_graph();
        let sg = DecodingSubgraph::build(&g, &[]);
        assert_eq!(sg.num_nodes(), 0);
        assert!(sg.edges().is_empty());
        assert!(sg.components().is_empty());
    }
}
