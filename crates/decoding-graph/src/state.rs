//! The decoding subgraph one syndrome induces (paper Figure 6).
//!
//! Nodes are the flipped detectors; edges are the decoding-graph edges
//! whose *both* endpoints are flipped. Mirrors the hardware structures
//! of §4.2.1: a vertex array of flipped bits, per-vertex neighbor lists
//! with edge weights, and the two vertex property arrays — `deg` and
//! `#dependent` — that feed the singleton detection and step-candidate
//! logic of Figures 10/11. Promatch removes matched pairs from it as it
//! goes; the Smith and Clique baselines and the L1 tier's test oracle
//! read it as built.
//!
//! It lives beside [`DecodeWorkspace`](crate::DecodeWorkspace) rather
//! than inside the Promatch crate because the workspace lends it: the
//! adjacency is one flat CSR buffer, so a warmed state rebuilds for any
//! syndrome of any window graph without touching the heap.

use crate::graph::DecodingGraph;
use crate::workspace::SlotMap;
use crate::DetectorId;

/// One neighbor entry in the subgraph adjacency.
#[derive(Clone, Copy, Debug, Default)]
pub struct Nbr {
    /// Slot index of the neighbor.
    pub slot: usize,
    /// Weight of the connecting decoding-graph edge.
    pub weight: i64,
    /// Observable mask of the connecting edge.
    pub obs: u64,
}

/// Mutable subgraph state over one syndrome.
///
/// Supports in-place [`SubgraphState::rebuild`]: every buffer is
/// cleared, never freed, between syndromes.
#[derive(Clone, Debug, Default)]
pub struct SubgraphState {
    /// Flipped detectors by slot.
    nodes: Vec<DetectorId>,
    /// Whether each slot is still unmatched.
    alive: Vec<bool>,
    /// CSR row bounds: slot `i`'s neighbors are
    /// `adj[adj_start[i]..adj_start[i + 1]]`.
    adj_start: Vec<usize>,
    /// Static adjacency among slots (only edges of the decoding graph
    /// whose both endpoints are flipped), rows back to back.
    adj: Vec<Nbr>,
    /// Live degree per slot.
    deg: Vec<u32>,
    /// Number of live nodes.
    hw: usize,
    /// Dense detector→slot map, reset in O(k) per rebuild.
    slots: SlotMap,
    /// Rebuild scratch: the induced edges `(slot, slot, weight, obs)`.
    edges: Vec<(usize, usize, i64, u64)>,
}

impl SubgraphState {
    /// Builds the state for `dets` (sorted, unique).
    pub fn build(graph: &DecodingGraph, dets: &[DetectorId]) -> Self {
        let mut st = SubgraphState::default();
        st.rebuild(graph, dets);
        st
    }

    /// Rebuilds the state in place for a new syndrome (sorted, unique)
    /// of `graph`.
    ///
    /// A row lists the slot's lower-numbered neighbors in slot order,
    /// then its higher-numbered ones in [`DecodingGraph::neighbors`]
    /// order — the order Promatch's candidate scan breaks weight ties by.
    pub fn rebuild(&mut self, graph: &DecodingGraph, dets: &[DetectorId]) {
        let k = dets.len();
        self.nodes.clear();
        self.nodes.extend_from_slice(dets);
        self.alive.clear();
        self.alive.resize(k, true);
        self.hw = k;
        self.slots.reset(graph.num_detectors() as usize);
        for (i, &d) in dets.iter().enumerate() {
            self.slots.insert(d, i);
        }
        // One scan of the decoding graph lists the induced edges (each
        // from its lower-detector endpoint) and counts the row lengths,
        // which are the initial degrees; the rows are then filled from
        // the list through per-row cursors.
        self.deg.clear();
        self.deg.resize(k, 0);
        self.edges.clear();
        let bd = graph.boundary_node();
        for (ai, &a) in dets.iter().enumerate() {
            for (nbr, e) in graph.neighbors(a) {
                if nbr == bd || nbr <= a {
                    continue;
                }
                if let Some(bi) = self.slots.get(nbr) {
                    self.deg[ai] += 1;
                    self.deg[bi] += 1;
                    self.edges.push((ai, bi, e.weight, e.obs));
                }
            }
        }
        self.adj_start.clear();
        self.adj_start.push(0);
        let mut end = 0;
        for &d in &self.deg {
            // Row `i`'s cursor starts at its row start; after the fill
            // it has advanced to the row end, i.e. row `i + 1`'s start.
            self.adj_start.push(end);
            end += d as usize;
        }
        self.adj.clear();
        self.adj.resize(end, Nbr::default());
        let cursor = &mut self.adj_start[1..];
        for &(ai, bi, weight, obs) in &self.edges {
            for (from, to) in [(ai, bi), (bi, ai)] {
                self.adj[cursor[from]] = Nbr {
                    slot: to,
                    weight,
                    obs,
                };
                cursor[from] += 1;
            }
        }
    }

    /// Number of live (unmatched) nodes.
    pub fn hw(&self) -> usize {
        self.hw
    }

    /// The detector in slot `i`.
    pub fn node(&self, i: usize) -> DetectorId {
        self.nodes[i]
    }

    /// Whether slot `i` is still unmatched.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// Live degree of slot `i` (0 once matched).
    pub fn deg(&self, i: usize) -> u32 {
        self.deg[i]
    }

    /// Every neighbor of slot `i`, live or not.
    pub fn neighbors(&self, i: usize) -> &[Nbr] {
        &self.adj[self.adj_start[i]..self.adj_start[i + 1]]
    }

    /// Live-edge count (each edge counted once).
    pub fn live_edges(&self) -> usize {
        self.live_slots()
            .map(|i| self.live_neighbors(i).filter(|n| n.slot > i).count())
            .sum()
    }

    /// `#dependent_i`: number of live neighbors of `i` whose only live
    /// neighbor is `i` (degree-1 neighbors).
    pub fn dependents(&self, i: usize) -> u32 {
        self.live_neighbors(i)
            .filter(|n| self.deg[n.slot] == 1)
            .count() as u32
    }

    /// Live neighbors of slot `i`.
    pub fn live_neighbors(&self, i: usize) -> impl Iterator<Item = &Nbr> {
        self.neighbors(i).iter().filter(move |n| self.alive[n.slot])
    }

    /// The hardware singleton test of Figure 11: matching `(i, j)` (an
    /// edge) creates no singleton iff neither endpoint has a degree-1
    /// neighbor other than (possibly) the other endpoint.
    pub fn no_singleton_hw(&self, i: usize, j: usize) -> bool {
        let dep_i = self.dependents(i) - u32::from(self.deg[j] == 1);
        let dep_j = self.dependents(j) - u32::from(self.deg[i] == 1);
        dep_i + dep_j == 0
    }

    /// Exact singleton test: matching `(i, j)` creates a singleton iff
    /// some third live node's live neighbors are all in `{i, j}`. Catches
    /// the degree-2 corner case the hardware logic misses.
    pub fn no_singleton_exact(&self, i: usize, j: usize) -> bool {
        for n in self.neighbors(i).iter().chain(self.neighbors(j)) {
            let k = n.slot;
            if k == i || k == j || !self.alive[k] {
                continue;
            }
            let orphaned = self.live_neighbors(k).all(|m| m.slot == i || m.slot == j);
            if orphaned {
                return false;
            }
        }
        true
    }

    /// Removes a matched pair from the live subgraph, updating degrees.
    pub fn remove_pair(&mut self, i: usize, j: usize) {
        debug_assert!(self.alive[i] && self.alive[j] && i != j);
        for slot in [i, j] {
            self.alive[slot] = false;
            self.hw -= 1;
        }
        for slot in [i, j] {
            for n in &self.adj[self.adj_start[slot]..self.adj_start[slot + 1]] {
                if self.alive[n.slot] {
                    self.deg[n.slot] -= 1;
                }
            }
        }
        self.deg[i] = 0;
        self.deg[j] = 0;
    }

    /// Live slots that are singletons (degree 0).
    pub fn singleton_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.live_slots().filter(|&i| self.deg[i] == 0)
    }

    /// Live slot indices.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| self.alive[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::dem::{DemError, DetectorErrorModel};
    use qsim::sparse::SparseBits;

    /// Builds a decoding graph from an explicit edge list (plus one
    /// boundary edge on node 0 so the DEM is valid).
    pub(crate) fn graph_from_edges(n: u32, edges: &[(u32, u32)]) -> DecodingGraph {
        let mut errors: Vec<DemError> = edges
            .iter()
            .map(|&(a, b)| DemError {
                dets: SparseBits::from_sorted(vec![a.min(b), a.max(b)]),
                obs: 0,
                p: 0.01,
            })
            .collect();
        errors.push(DemError {
            dets: SparseBits::singleton(0),
            obs: 0,
            p: 0.005,
        });
        DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: n,
            num_observables: 0,
            errors,
            det_coords: vec![[0.0; 3]; n as usize],
        })
    }

    #[test]
    fn degrees_and_dependents_follow_figure9() {
        // Figure 9: node a(0) adjacent to b(1), c(2), d(3), e(4); e
        // adjacent to f(5). deg(a)=4, #dependent(a)=3 (b, c, d).
        let g = graph_from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)]);
        let st = SubgraphState::build(&g, &[0, 1, 2, 3, 4, 5]);
        assert_eq!(st.deg[0], 4);
        assert_eq!(st.dependents(0), 3);
        assert_eq!(st.deg[4], 2);
        assert_eq!(st.dependents(4), 1); // f depends on e
                                         // Matching (a, b) would orphan c and d.
        assert!(!st.no_singleton_hw(0, 1));
        assert!(!st.no_singleton_exact(0, 1));
        // Matching (e, f) is safe.
        assert!(st.no_singleton_hw(4, 5));
        assert!(st.no_singleton_exact(4, 5));
    }

    #[test]
    fn remove_pair_updates_degrees() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut st = SubgraphState::build(&g, &[0, 1, 2, 3]);
        assert_eq!(st.deg, vec![1, 2, 2, 1]);
        st.remove_pair(0, 1);
        assert_eq!(st.hw, 2);
        assert!(st.alive[2] && st.alive[3]);
        assert_eq!(st.deg[2], 1);
        assert_eq!(st.deg[3], 1);
        assert_eq!(st.live_edges(), 1);
    }

    #[test]
    fn exact_rule_catches_degree_two_orphan() {
        // Triangle 0-1-2: matching (0,1) orphans node 2 (degree 2, both
        // neighbors consumed). The hardware rule misses this case; the
        // exact rule must catch it.
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let st = SubgraphState::build(&g, &[0, 1, 2]);
        assert!(
            st.no_singleton_hw(0, 1),
            "hardware approximation misses this"
        );
        assert!(!st.no_singleton_exact(0, 1), "exact rule catches it");
    }

    #[test]
    fn singletons_are_isolated_live_nodes() {
        let g = graph_from_edges(3, &[(0, 1)]);
        let st = SubgraphState::build(&g, &[0, 1, 2]);
        assert_eq!(st.singleton_slots().collect::<Vec<_>>(), vec![2]);
    }

    /// Path graph 0-1-2-3-4 (boundary edge on 0).
    fn line_graph() -> DecodingGraph {
        graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    fn slots(nbrs: &[Nbr]) -> Vec<usize> {
        nbrs.iter().map(|n| n.slot).collect()
    }

    #[test]
    fn induced_edges_require_both_endpoints_flipped() {
        let st = SubgraphState::build(&line_graph(), &[0, 1, 3]);
        assert_eq!(st.hw(), 3);
        assert_eq!(st.live_edges(), 1); // only 0-1; 3 is isolated
        assert_eq!(st.deg, vec![1, 1, 0]);
        assert_eq!(slots(st.neighbors(0)), vec![1]);
        assert!(st.neighbors(2).is_empty());
    }

    #[test]
    fn boundary_edges_are_excluded() {
        let st = SubgraphState::build(&line_graph(), &[0]);
        assert_eq!(st.live_edges(), 0);
        assert_eq!(st.deg, vec![0]);
        assert!(st.neighbors(0).is_empty());
    }

    #[test]
    fn full_syndrome_reconstructs_path() {
        let st = SubgraphState::build(&line_graph(), &[0, 1, 2, 3, 4]);
        assert_eq!(st.live_edges(), 4);
        assert_eq!(st.deg, vec![1, 2, 2, 2, 1]);
        // Lower-numbered neighbors first, then higher-numbered ones.
        assert_eq!(slots(st.neighbors(2)), vec![1, 3]);
        assert_eq!(slots(st.neighbors(4)), vec![3]);
    }

    #[test]
    fn empty_syndrome_is_empty_subgraph() {
        let st = SubgraphState::build(&line_graph(), &[]);
        assert_eq!(st.hw(), 0);
        assert_eq!(st.live_edges(), 0);
        assert_eq!(st.live_slots().count(), 0);
    }

    #[test]
    fn live_edges_counts_each_edge_once() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let st = SubgraphState::build(&g, &[0, 1, 2, 3]);
        assert_eq!(st.live_edges(), 4);
    }
}
