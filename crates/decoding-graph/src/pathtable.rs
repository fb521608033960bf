//! All-pairs path tables and the on-chip storage model of Table 8.
//!
//! Promatch's hardware keeps two tables in on-chip FPGA memory:
//!
//! * the **Edge table** — weights of the decoding-graph edges (one byte
//!   per edge), streamed in while the syndrome is being extracted;
//! * the **Path table** — an n×n table of shortest-path weights between
//!   all detector pairs, used by Step 3 (singleton rescue). Because the
//!   algorithm "is not sensitive to the exact weight of the paths", the
//!   paper quantizes entries into **four groups** (2 bits per cell),
//!   which is exactly how Table 8 arrives at 129 KB (d = 11) and 345 KB
//!   (d = 13).
//!
//! [`PathTable`] stores both the exact values (used by the idealized
//! decoders and as ground truth for ablations) and the 2-bit quantized
//! class per pair (used by Promatch's Step 3 in its default
//! hardware-faithful configuration).
//!
//! [`NoTransitTable`] is the other distance store: the same graph with
//! the boundary as a *sink* (paths may end there, never pass through).
//! That is the distance the L1 batch predecoder's uniqueness proofs are
//! stated in, and [`PathTable`] cannot supply it — see the type's docs.

use crate::graph::DecodingGraph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// All-pairs shortest-path data between detectors (and to the boundary).
#[derive(Clone, Debug)]
pub struct PathTable {
    n: usize,
    /// Exact distance between detector pairs, row-major `(n+1)²`
    /// (last row/column = boundary node).
    dist: Vec<i64>,
    /// Observable mask along the shortest path.
    obs: Vec<u64>,
    /// Hop count (chain length) of the shortest path.
    hops: Vec<u16>,
    /// 2-bit quantized weight class per pair.
    class: Vec<u8>,
    /// Representative weight of each class.
    class_weights: [i64; 4],
}

impl PathTable {
    /// Builds the table with one Dijkstra run per node.
    ///
    /// Cost is O(n · E log n); for the d = 13 graph (~1.2k nodes) this
    /// takes ≈ 0.15 s in release builds (and ≈ 26 MB) and is intended to
    /// be done once per (distance, error-rate) configuration.
    pub fn build(graph: &DecodingGraph) -> Self {
        let n = graph.num_detectors() as usize;
        let rows = n + 1;
        let mut dist = vec![i64::MAX; rows * rows];
        let mut obs = vec![0u64; rows * rows];
        let mut hops = vec![u16::MAX; rows * rows];
        for src in 0..rows as u32 {
            let sp = graph.dijkstra(src);
            let base = src as usize * rows;
            for t in 0..rows {
                dist[base + t] = sp.dist[t];
                obs[base + t] = sp.obs[t];
                hops[base + t] = sp.hops[t].min(u16::MAX as u32) as u16;
            }
        }
        // Quantization thresholds: multiples of the typical (median) edge
        // weight, so classes correspond to chain lengths 1, 2, 3, ≥4.
        let mut edge_weights: Vec<i64> = graph.edges().iter().map(|e| e.weight).collect();
        edge_weights.sort_unstable();
        let typical = edge_weights
            .get(edge_weights.len() / 2)
            .copied()
            .unwrap_or(1)
            .max(1);
        let thresholds = [
            typical + typical / 2,     // ≤ 1.5 w: one hop
            2 * typical + typical / 2, // ≤ 2.5 w: two hops
            3 * typical + typical / 2, // ≤ 3.5 w: three hops
        ];
        let class_weights = [typical, 2 * typical, 3 * typical, 4 * typical];
        let class: Vec<u8> = dist
            .iter()
            .map(|&d| {
                if d == i64::MAX {
                    3
                } else {
                    thresholds.iter().position(|&t| d <= t).unwrap_or(3) as u8
                }
            })
            .collect();
        PathTable {
            n,
            dist,
            obs,
            hops,
            class,
            class_weights,
        }
    }

    /// Number of detectors covered.
    pub fn num_detectors(&self) -> usize {
        self.n
    }

    /// Exact shortest-path weight between nodes `a` and `b` (either may
    /// be the boundary index `n`).
    pub fn distance(&self, a: u32, b: u32) -> i64 {
        self.dist[a as usize * (self.n + 1) + b as usize]
    }

    /// Observable mask along the shortest path between `a` and `b`.
    pub fn path_obs(&self, a: u32, b: u32) -> u64 {
        self.obs[a as usize * (self.n + 1) + b as usize]
    }

    /// Chain length (edge count) of the shortest path between `a` and `b`.
    pub fn path_hops(&self, a: u32, b: u32) -> u32 {
        self.hops[a as usize * (self.n + 1) + b as usize] as u32
    }

    /// The 2-bit quantized class of the pair (0..=3).
    pub fn path_class(&self, a: u32, b: u32) -> u8 {
        self.class[a as usize * (self.n + 1) + b as usize]
    }

    /// The representative weight of the pair's quantized class — what the
    /// hardware Path table would report.
    pub fn quantized_distance(&self, a: u32, b: u32) -> i64 {
        self.class_weights[self.path_class(a, b) as usize]
    }

    /// Distance from detector `a` to the boundary.
    pub fn boundary_distance(&self, a: u32) -> i64 {
        self.distance(a, self.n as u32)
    }

    /// Observable mask of detector `a`'s shortest boundary path.
    pub fn boundary_obs(&self, a: u32) -> u64 {
        self.path_obs(a, self.n as u32)
    }

    /// The storage model of the paper's Table 8.
    pub fn storage_model(&self, graph: &DecodingGraph) -> StorageModel {
        StorageModel {
            num_detectors: self.n,
            num_edges: graph.num_edges(),
            // One byte per edge weight.
            edge_table_bytes: graph.num_edges(),
            // Two bits per n×n path-table cell.
            path_table_bytes: (self.n * self.n).div_ceil(4),
        }
    }
}

/// Row sentinel of [`NoTransitTable`]: no path at any price.
const ROW_UNREACHED: u32 = u32::MAX;

/// Shortest distances with the boundary as a **sink**: a path may end at
/// the boundary node but never pass through it.
///
/// This is the metric of the L1 batch predecoder's proofs ("is there a
/// chain between these two defects cheaper than resolving both
/// locally?"). [`PathTable`] answers a different question: it lets paths
/// transit the boundary, `T(u, v) = min(nt(u, v), esc(u) + esc(v))`, and
/// for a lone boundary defect `esc(u)` *is* the local cost, so
/// `T(u, v) ≤ cost + esc(v)` always holds and decides nothing.
///
/// Two stores, both pure functions of the graph:
///
/// * **escape** — `esc[v]`, the shortest `v → boundary` distance, built
///   eagerly with one Dijkstra from the boundary (the boundary is the
///   source, so no shortest path transits it);
/// * **rows** — `row(u)[v] = nt(u, v)`, filled on first use with one
///   Dijkstra from `u` and kept for the life of the table. Rows sit
///   behind [`OnceLock`]s: racing first users of one source run exactly
///   one fill, and a filled row is a lock-free indexed load, so one
///   table serves every window, shot and tenant of a scenario
///   concurrently.
///
/// The table owns a flat copy of the adjacency, so it borrows nothing
/// and can be shared by `Arc` next to the window cache.
#[derive(Debug)]
pub struct NoTransitTable {
    n: usize,
    /// Flat adjacency: node `u`'s `(neighbor, weight)` half-edges are
    /// `adj[adj_start[u]..adj_start[u + 1]]`.
    adj_start: Vec<u32>,
    adj: Vec<(u32, i64)>,
    /// `escape[v]`: shortest boundary distance (`i64::MAX` = none).
    escape: Vec<i64>,
    /// `rows[u][v]` = `nt(u, v)` as `u32` ([`ROW_UNREACHED`] = none);
    /// column `n` is the boundary.
    rows: Vec<OnceLock<Box<[u32]>>>,
    filled: AtomicUsize,
}

impl NoTransitTable {
    /// Builds the escape vector and an empty row store over `graph`.
    pub fn new(graph: &DecodingGraph) -> Self {
        let n = graph.num_detectors() as usize;
        let mut adj_start = Vec::with_capacity(n + 2);
        let mut adj = Vec::with_capacity(2 * graph.num_edges());
        for u in 0..=n as u32 {
            adj_start.push(adj.len() as u32);
            adj.extend(graph.neighbors(u).map(|(v, e)| (v, e.weight)));
        }
        adj_start.push(adj.len() as u32);
        NoTransitTable {
            n,
            adj_start,
            adj,
            escape: graph.dijkstra(graph.boundary_node()).dist,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            filled: AtomicUsize::new(0),
        }
    }

    /// Number of detectors covered.
    pub fn num_detectors(&self) -> usize {
        self.n
    }

    /// Shortest distance from detector `v` to the boundary, `i64::MAX`
    /// when `v`'s component has no boundary edge.
    pub fn escape(&self, v: u32) -> i64 {
        self.escape[v as usize]
    }

    /// Whether some `u → v` path that does not transit the boundary
    /// costs at most `cap`. An unreachable `v` is never within any cap,
    /// `i64::MAX` (a saturated `cost + escape`) included.
    pub fn within(&self, u: u32, v: u32, cap: i64) -> bool {
        let d = self.row(u)[v as usize];
        d != ROW_UNREACHED && i64::from(d) <= cap
    }

    /// Source rows filled so far. Bounded by the detector count, and
    /// constant once the traffic's sources have all been seen.
    pub fn rows_filled(&self) -> usize {
        self.filled.load(Ordering::Relaxed)
    }

    /// The distance row of detector `u`, filled on first use.
    fn row(&self, u: u32) -> &[u32] {
        self.rows[u as usize].get_or_init(|| {
            // A statistic only: the row itself is published by the cell.
            self.filled.fetch_add(1, Ordering::Relaxed);
            self.fill_row(u)
        })
    }

    /// One Dijkstra from `src` that never expands the boundary node.
    ///
    /// # Panics
    ///
    /// Panics if a finite distance does not fit below the `u32`
    /// sentinel (it would otherwise read as "unreached").
    fn fill_row(&self, src: u32) -> Box<[u32]> {
        let bd = self.n as u32;
        let mut dist = vec![i64::MAX; self.n + 1];
        let mut heap = BinaryHeap::new();
        dist[src as usize] = 0;
        heap.push(Reverse((0i64, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] || u == bd {
                continue;
            }
            let (lo, hi) = (self.adj_start[u as usize], self.adj_start[u as usize + 1]);
            for &(v, w) in &self.adj[lo as usize..hi as usize] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist.iter()
            .map(|&d| {
                if d == i64::MAX {
                    ROW_UNREACHED
                } else {
                    assert!(
                        d < i64::from(ROW_UNREACHED),
                        "no-transit distance {d} from detector {src} overflows the u32 row"
                    );
                    d as u32
                }
            })
            .collect()
    }
}

/// On-chip storage requirements, mirroring Table 8 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StorageModel {
    /// Number of detectors (syndrome bits) n.
    pub num_detectors: usize,
    /// Number of decoding-graph edges.
    pub num_edges: usize,
    /// Edge table size: 1 byte per edge weight.
    pub edge_table_bytes: usize,
    /// Path table size: n² cells × 2 bits (4 weight classes).
    pub path_table_bytes: usize,
}

impl StorageModel {
    /// Edge table size in kilobytes.
    pub fn edge_table_kb(&self) -> f64 {
        self.edge_table_bytes as f64 / 1000.0
    }

    /// Path table size in kilobytes.
    pub fn path_table_kb(&self) -> f64 {
        self.path_table_bytes as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::extract_dem;
    use surface_code::{NoiseModel, RotatedSurfaceCode};

    fn small_graph() -> DecodingGraph {
        let code = RotatedSurfaceCode::new(3);
        let circuit = code.memory_z_circuit(3, &NoiseModel::uniform(1e-3));
        DecodingGraph::from_dem(&extract_dem(&circuit))
    }

    fn medium_graph() -> DecodingGraph {
        let code = RotatedSurfaceCode::new(5);
        let circuit = code.memory_z_circuit(5, &NoiseModel::uniform(1e-3));
        DecodingGraph::from_dem(&extract_dem(&circuit))
    }

    #[test]
    fn table_matches_direct_dijkstra() {
        let g = small_graph();
        let t = PathTable::build(&g);
        for src in [0u32, 3, 7] {
            let sp = g.dijkstra(src);
            for v in 0..=g.num_detectors() {
                assert_eq!(t.distance(src, v), sp.dist[v as usize]);
                assert_eq!(t.path_obs(src, v), sp.obs[v as usize]);
                assert_eq!(t.path_hops(src, v), sp.hops[v as usize]);
            }
        }
    }

    #[test]
    fn table_is_symmetric() {
        let g = small_graph();
        let t = PathTable::build(&g);
        let n = g.num_detectors();
        for a in 0..n {
            for b in 0..n {
                assert_eq!(t.distance(a, b), t.distance(b, a), "({a},{b})");
            }
        }
    }

    #[test]
    fn diagonal_is_zero() {
        let g = small_graph();
        let t = PathTable::build(&g);
        for a in 0..g.num_detectors() {
            assert_eq!(t.distance(a, a), 0);
            assert_eq!(t.path_hops(a, a), 0);
            assert_eq!(t.path_obs(a, a), 0);
        }
    }

    #[test]
    fn classes_are_monotone_in_distance_and_all_used() {
        let g = medium_graph();
        let t = PathTable::build(&g);
        let n = g.num_detectors();
        let mut pairs: Vec<(i64, u8)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                pairs.push((t.distance(a, b), t.path_class(a, b)));
            }
        }
        pairs.sort_unstable();
        // Class is a non-decreasing function of exact distance.
        for w in pairs.windows(2) {
            assert!(
                w[0].1 <= w[1].1,
                "class not monotone: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        // A d=5 memory graph spans all four weight classes.
        let mut seen = [false; 4];
        for &(_, c) in &pairs {
            seen[c as usize] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn quantized_distance_is_monotone_in_class() {
        let g = medium_graph();
        let t = PathTable::build(&g);
        let (a, b) = (0u32, 1u32);
        let q = t.quantized_distance(a, b);
        assert!(q > 0);
        // Class 3 pairs are at least as heavy as class 0 pairs.
        let far = (0..g.num_detectors())
            .flat_map(|x| (0..g.num_detectors()).map(move |y| (x, y)))
            .find(|&(x, y)| t.path_class(x, y) == 3)
            .expect("some far pair exists");
        assert!(t.quantized_distance(far.0, far.1) >= q);
    }

    #[test]
    fn storage_model_reproduces_table8_shape() {
        // d=11 and d=13 path tables must land at the paper's 129 KB and
        // 345 KB (n² × 2 bits).
        for (d, expect_kb) in [(11u32, 129.6), (13u32, 345.7)] {
            let n = ((d * d - 1) / 2 * (d + 1)) as usize;
            let bytes = (n * n).div_ceil(4);
            assert!(
                (bytes as f64 / 1000.0 - expect_kb).abs() < 1.0,
                "d={d}: {} KB",
                bytes as f64 / 1000.0
            );
        }
    }

    #[test]
    fn boundary_helpers_agree_with_table() {
        let g = small_graph();
        let t = PathTable::build(&g);
        let bd = g.boundary_node();
        for a in 0..g.num_detectors() {
            assert_eq!(t.boundary_distance(a), t.distance(a, bd));
            assert_eq!(t.boundary_obs(a), t.path_obs(a, bd));
        }
    }

    #[test]
    fn transit_table_is_the_no_transit_table_closed_over_the_boundary() {
        // T(u, v) = min(nt(u, v), esc(u) + esc(v)): the identity that
        // makes PathTable useless for the L1 proofs and pins every
        // no-transit row against an independent all-pairs build.
        let g = medium_graph();
        let t = PathTable::build(&g);
        let nt = NoTransitTable::new(&g);
        let n = g.num_detectors();
        assert_eq!(nt.num_detectors(), n as usize);
        assert_eq!(nt.rows_filled(), 0, "rows are lazy");
        for u in 0..n {
            assert_eq!(nt.escape(u), t.boundary_distance(u));
            assert!(nt.within(u, g.boundary_node(), nt.escape(u)));
            assert!(!nt.within(u, g.boundary_node(), nt.escape(u) - 1));
            for v in 0..n {
                let transit = nt.escape(u) + nt.escape(v);
                let d = t.distance(u, v);
                if d < transit {
                    assert!(nt.within(u, v, d) && !nt.within(u, v, d - 1), "({u},{v})");
                } else {
                    assert_eq!(d, transit);
                    assert!(!nt.within(u, v, d - 1), "({u},{v})");
                }
            }
        }
        assert_eq!(nt.rows_filled(), n as usize, "one fill per source");
    }

    #[test]
    fn racing_readers_of_one_source_fill_its_row_once() {
        let g = medium_graph();
        let nt = NoTransitTable::new(&g);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    assert!(nt.within(7, 7, 0));
                });
            }
        });
        assert_eq!(nt.rows_filled(), 1);
        assert!(nt.within(7, 7, 0));
        assert_eq!(nt.rows_filled(), 1, "a filled row is only read");
    }

    /// Detectors 0–1 joined by an edge of `weight`; only 0 touches the
    /// boundary.
    fn two_node_graph(weight: i64) -> DecodingGraph {
        use crate::graph::Edge;
        let edge = |u, v, weight| Edge {
            u,
            v,
            weight,
            probability: 0.01,
            obs: 0,
        };
        DecodingGraph::from_parts(
            2,
            1,
            vec![edge(0, 1, weight), edge(0, 2, 1)],
            vec![[0.0; 3], [1.0, 0.0, 0.0]],
        )
    }

    #[test]
    fn the_largest_representable_distance_is_still_reached() {
        let nt = NoTransitTable::new(&two_node_graph(i64::from(u32::MAX) - 1));
        assert!(nt.within(0, 1, i64::MAX));
        assert!(!nt.within(0, 1, i64::from(u32::MAX) - 2));
    }

    #[test]
    #[should_panic(expected = "overflows the u32 row")]
    fn a_distance_colliding_with_the_sentinel_is_refused_at_fill() {
        let nt = NoTransitTable::new(&two_node_graph(i64::from(u32::MAX)));
        nt.within(0, 1, i64::MAX);
    }
}
