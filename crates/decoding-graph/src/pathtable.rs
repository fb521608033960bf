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
//! [`PathTable`] stores the exact values (used by the idealized decoders
//! and as ground truth for ablations) and derives from each the 2-bit
//! quantized class of the pair (used by Promatch's Step 3 in its default
//! hardware-faithful configuration). It is a software table, filled a
//! source row at a time on first use: a stream only ever asks from the
//! detectors that fired in it, and an all-pairs build of every window
//! range was the largest resident object of the streaming runtime.
//!
//! [`NoTransitTable`] is the other distance store: the same graph with
//! the boundary as a *sink* (paths may end there, never pass through).
//! That is the distance the L1 batch predecoder's uniqueness proofs are
//! stated in, and [`PathTable`] cannot supply it — see the type's docs.

use crate::graph::DecodingGraph;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Row sentinel of both tables: no path at any price.
const ROW_UNREACHED: u32 = u32::MAX;

/// The kernel's "not reached" distance.
const UNREACHED: u64 = u64::MAX;

/// A searched distance from `src` as a row cell's distance field, the
/// top `32 - obs_bits` bits of a `u32`; the field's all-ones value,
/// `ROW_UNREACHED >> obs_bits`, is the unreached sentinel.
///
/// # Panics
///
/// Panics if a finite distance does not fit below the sentinel (it would
/// otherwise read as "unreachable").
fn row_cell(d: u64, src: u32, obs_bits: u32) -> u32 {
    let unreached = ROW_UNREACHED >> obs_bits;
    if d == UNREACHED {
        return unreached;
    }
    assert!(
        d < u64::from(unreached),
        "distance {d} from node {src} overflows the u32 row ({} distance bits)",
        32 - obs_bits
    );
    d as u32
}

/// A graph's adjacency, flat — what both tables search. Node `u`'s
/// half-edges are `half[start[u]..start[u + 1]]`, in the order of
/// [`DecodingGraph::neighbors`].
#[derive(Clone, Debug, PartialEq, Eq)]
struct Adjacency {
    start: Vec<u32>,
    /// `(neighbor, weight)` of each half-edge.
    half: Vec<(u32, u32)>,
    /// Observable mask of each half-edge, parallel to `half`.
    obs: Vec<u64>,
}

/// The shortest-path kernel's scratch. It holds capacity only — every
/// search starts from cleared buffers — so no result outlives a fill.
#[derive(Default)]
struct Scratch {
    dist: Vec<u64>,
    /// Pending `dist << 32 | node` keys of distances up to `u32::MAX`.
    near: BinaryHeap<Reverse<u64>>,
    /// Pending `(dist, node)` of longer distances, popped once `near` is
    /// empty; only a graph whose rows overflow their cells uses it.
    far: BinaryHeap<Reverse<(u64, u32)>>,
}

thread_local! {
    /// One scratch per thread: racing fillers of different rows never
    /// share it, and a thread's next fill reuses its buffers.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

impl Adjacency {
    /// # Panics
    ///
    /// Panics if an edge weight is negative or does not fit a `u32`.
    fn new(graph: &DecodingGraph) -> Self {
        let nodes = graph.num_detectors() + 1;
        let mut start = Vec::with_capacity(nodes as usize + 1);
        let mut half = Vec::with_capacity(2 * graph.num_edges());
        let mut obs = Vec::with_capacity(2 * graph.num_edges());
        for u in 0..nodes {
            start.push(half.len() as u32);
            for (v, e) in graph.neighbors(u) {
                let w = u32::try_from(e.weight)
                    .unwrap_or_else(|_| panic!("edge weight {} does not fit a u32", e.weight));
                half.push((v, w));
                obs.push(e.obs);
            }
        }
        start.push(half.len() as u32);
        Adjacency { start, half, obs }
    }

    /// Node `u`'s half-edge ids.
    fn range(&self, u: u32) -> Range<usize> {
        self.start[u as usize] as usize..self.start[u as usize + 1] as usize
    }

    /// The cheapest `a → b` half-edge, first among ties.
    fn cheapest(&self, a: u32, b: u32) -> Option<u32> {
        let to_b = self.range(a).filter(|&h| self.half[h].0 == b);
        to_b.min_by_key(|&h| self.half[h].1).map(|h| h as u32)
    }

    /// Dijkstra from `src`, exactly as [`DecodingGraph::dijkstra`] runs
    /// it: `(dist, node)` pops in increasing order, and a popped node
    /// relaxes its half-edges in adjacency order, improving a neighbor
    /// only strictly — so ties between shortest paths break the same
    /// way. Every improvement of `v` over half-edge `h` from `u` calls
    /// `relaxed(u, v, h)`; `sink`, if any, is reached but never
    /// expanded; a tentative distance to `v` above `limit(v)` is dropped.
    /// So when every node on some shortest path to `v` lies within its
    /// own limit, `v` still ends exact, and a node farther than its limit
    /// reads [`UNREACHED`]. `read` gets the final distances.
    fn shortest<R>(
        &self,
        src: u32,
        sink: Option<u32>,
        limit: impl Fn(u32) -> u64,
        mut relaxed: impl FnMut(usize, usize, usize),
        read: impl FnOnce(&[u64]) -> R,
    ) -> R {
        SCRATCH.with(|scratch| {
            let Scratch { dist, near, far } = &mut *scratch.borrow_mut();
            dist.clear();
            dist.resize(self.start.len() - 1, UNREACHED);
            near.clear();
            far.clear();
            dist[src as usize] = 0;
            near.push(Reverse(u64::from(src)));
            loop {
                let (d, u) = match near.pop() {
                    Some(Reverse(key)) => (key >> 32, key as u32),
                    None => match far.pop() {
                        Some(Reverse(entry)) => entry,
                        None => break,
                    },
                };
                if d > dist[u as usize] || Some(u) == sink {
                    continue;
                }
                for h in self.range(u) {
                    let (v, w) = self.half[h];
                    let nd = d + u64::from(w);
                    if nd < dist[v as usize] && nd <= limit(v) {
                        dist[v as usize] = nd;
                        relaxed(u as usize, v as usize, h);
                        if nd <= u64::from(u32::MAX) {
                            near.push(Reverse(nd << 32 | u64::from(v)));
                        } else {
                            far.push(Reverse((nd, v)));
                        }
                    }
                }
            }
            read(dist)
        })
    }
}

/// All-pairs shortest-path data between detectors (and to the boundary).
///
/// Row `a` — distance and observable mask from `a` to every node — is
/// one Dijkstra from `a` over the table's flat copy of the adjacency,
/// breaking ties as [`DecodingGraph::dijkstra`] does, run the first time
/// anything about `a` is asked and kept for the life of the table. The
/// quantized class is not stored: it is a function of the distance and
/// the table's thresholds, computed on each ask. Hop counts are not
/// stored either; Figure 5, their only reader, takes them from
/// [`DecodingGraph::dijkstra`], which finds the same paths. Rows sit
/// behind [`OnceLock`]s: racing first askers of one source run exactly
/// one search, a filled row is a lock-free indexed load, and one table
/// serves every shot, thread and tenant that shares it. The values are
/// those of an eager all-pairs build; only when they are computed
/// differs.
#[derive(Clone, Debug)]
pub struct PathTable {
    n: usize,
    /// The adjacency the rows are searched on, so the table borrows
    /// nothing.
    adj: Adjacency,
    /// `rows[a]`, `a` in `0..=n` (the last row is the boundary node's).
    rows: Vec<OnceLock<PathRow>>,
    /// Bit width of the widest edge mask (hence of every path mask,
    /// their XOR) when it is at most [`PACKED_OBS_BITS`], so rows pack
    /// masks into their distance cells; `None` for wider masks.
    obs_bits: Option<u32>,
    /// Upper distance bound of classes 0, 1 and 2.
    thresholds: [i64; 3],
    /// Representative weight of each class.
    class_weights: [i64; 4],
}

/// The widest edge mask a packed row cell holds.
const PACKED_OBS_BITS: u32 = 8;

/// One source's shortest-path data to every node (column `n` = the
/// boundary), one `u32` a cell while every edge mask fits a byte: the
/// distance in the high bits, the mask in the low `obs_bits`, the width
/// of the graph's widest edge mask (one for every memory experiment,
/// which leaves 31 bits of distance). A fully filled table of a d = 13
/// six-layer window is 505² × 4 B ≈ 1 MB. A graph with wider masks
/// keeps them in a `u64` array beside bare `u32` distances.
#[derive(Clone, Debug)]
pub struct PathRow {
    /// `dist << obs_bits | obs`, an unreached cell's distance field all
    /// ones and its mask 0.
    cells: Box<[u32]>,
    /// Width of the cells' mask field.
    obs_bits: u32,
    /// The masks, when they do not fit the cells (`obs_bits` is then 0).
    wide_obs: Option<Box<[u64]>>,
}

impl PathRow {
    /// Exact shortest-path weight to node `b` (`i64::MAX` = unreachable).
    #[inline]
    pub fn distance(&self, b: u32) -> i64 {
        let d = self.cells[b as usize] >> self.obs_bits;
        if d == ROW_UNREACHED >> self.obs_bits {
            i64::MAX
        } else {
            i64::from(d)
        }
    }

    /// Distance to the boundary (the row's last column).
    #[inline]
    pub fn boundary_distance(&self) -> i64 {
        self.distance(self.cells.len() as u32 - 1)
    }

    /// Observable mask along the shortest path to node `b`.
    #[inline]
    pub fn path_obs(&self, b: u32) -> u64 {
        match &self.wide_obs {
            Some(obs) => obs[b as usize],
            None => u64::from(self.cells[b as usize] & !(ROW_UNREACHED << self.obs_bits)),
        }
    }
}

impl PathTable {
    /// Prepares the table over `graph`: the quantization thresholds and
    /// an empty row store. It reads only the detector count and the
    /// ordered `(u, v, weight, obs)` edge list, and [`crate::WindowCache`]
    /// interns tables by what it derives from them, so every
    /// content-equal window shares one table.
    /// No search runs until a row is asked for; one row costs one
    /// search and one allocation, measured on a 2-vCPU x86-64 host at
    /// ≈ 34–52 µs on a six-layer d = 13 window (505 nodes; every row
    /// filled grows the process by ≈ 0.8 MB) and ≈ 98–139 µs on the
    /// whole d = 13 memory graph, whose 1 177 rows grew the process by
    /// 5.4 MB when every one was asked.
    ///
    /// # Panics
    ///
    /// Panics if an edge weight is negative or does not fit a `u32`.
    pub fn build(graph: &DecodingGraph) -> Self {
        let n = graph.num_detectors() as usize;
        // Quantization thresholds: multiples of the typical (median) edge
        // weight, so classes correspond to chain lengths 1, 2, 3, ≥4.
        let mut edge_weights: Vec<i64> = graph.edges().iter().map(|e| e.weight).collect();
        edge_weights.sort_unstable();
        let typical = edge_weights
            .get(edge_weights.len() / 2)
            .copied()
            .unwrap_or(1)
            .max(1);
        let masks = graph.edges().iter().fold(0, |acc, e| acc | e.obs);
        let obs_bits = u64::BITS - masks.leading_zeros();
        PathTable {
            n,
            adj: Adjacency::new(graph),
            rows: (0..=n).map(|_| OnceLock::new()).collect(),
            obs_bits: (obs_bits <= PACKED_OBS_BITS).then_some(obs_bits),
            thresholds: [
                typical + typical / 2,     // ≤ 1.5 w: one hop
                2 * typical + typical / 2, // ≤ 2.5 w: two hops
                3 * typical + typical / 2, // ≤ 3.5 w: three hops
            ],
            class_weights: [typical, 2 * typical, 3 * typical, 4 * typical],
        }
    }

    /// Number of detectors covered.
    pub fn num_detectors(&self) -> usize {
        self.n
    }

    /// Source rows filled so far. Bounded by the node count, and constant
    /// once the traffic's sources have all been seen.
    pub fn rows_filled(&self) -> usize {
        self.rows.iter().filter(|row| row.get().is_some()).count()
    }

    /// The row of node `a` (a detector or the boundary index `n`), filled
    /// on first use. Loops that ask about many `b` from one `a` take the
    /// row once instead of paying the fill check per cell.
    ///
    /// # Panics
    ///
    /// Panics at fill if a finite distance does not fit below the row's
    /// unreached sentinel: `2^(32 - b) - 1` for `b`-bit packed masks,
    /// `u32::MAX` beside wide ones.
    #[inline]
    pub fn row(&self, a: u32) -> &PathRow {
        self.rows[a as usize].get_or_init(|| self.fill_row(a))
    }

    /// One search from `src`. Packed, each reached node's mask is
    /// written into its cell as paths improve and its distance field is
    /// or-ed in once the search ends: one allocation a row.
    fn fill_row(&self, src: u32) -> PathRow {
        let nodes = self.n + 1;
        match self.obs_bits {
            Some(obs_bits) => {
                let mut cells = vec![0u32; nodes].into_boxed_slice();
                let cell = Cell::from_mut(&mut cells[..]).as_slice_of_cells();
                self.adj.shortest(
                    src,
                    None,
                    |_| UNREACHED,
                    |u, v, h| cell[v].set(cell[u].get() ^ self.adj.obs[h] as u32),
                    |dist| {
                        for (c, &d) in cell.iter().zip(dist) {
                            c.set(row_cell(d, src, obs_bits) << obs_bits | c.get());
                        }
                    },
                );
                PathRow {
                    cells,
                    obs_bits,
                    wide_obs: None,
                }
            }
            None => {
                let mut obs = vec![0u64; nodes].into_boxed_slice();
                let cells = self.adj.shortest(
                    src,
                    None,
                    |_| UNREACHED,
                    |u, v, h| obs[v] = obs[u] ^ self.adj.obs[h],
                    |dist| dist.iter().map(|&d| row_cell(d, src, 0)).collect(),
                );
                PathRow {
                    cells,
                    obs_bits: 0,
                    wide_obs: Some(obs),
                }
            }
        }
    }

    /// Exact shortest-path weight between nodes `a` and `b` (either may
    /// be the boundary index `n`).
    pub fn distance(&self, a: u32, b: u32) -> i64 {
        self.row(a).distance(b)
    }

    /// Observable mask along the shortest path between `a` and `b`.
    pub fn path_obs(&self, a: u32, b: u32) -> u64 {
        self.row(a).path_obs(b)
    }

    /// The 2-bit quantized class of the pair (0..=3): the first class
    /// whose threshold the distance does not exceed, 3 past them all
    /// (an unreachable pair included).
    pub fn path_class(&self, a: u32, b: u32) -> u8 {
        let d = self.distance(a, b);
        self.thresholds.iter().position(|&t| d <= t).unwrap_or(3) as u8
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

    /// Hop counts of the paths row `src` holds, found by the search the
    /// rows are filled with: the oracles compare them with
    /// [`DecodingGraph::dijkstra`]'s, where Figure 5 reads chain lengths.
    #[cfg(test)]
    pub(crate) fn kernel_hops(&self, src: u32) -> Vec<u32> {
        let mut hops = vec![u32::MAX; self.n + 1];
        hops[src as usize] = 0;
        self.adj.shortest(
            src,
            None,
            |_| UNREACHED,
            |u, v, _| hops[v] = hops[u] + 1,
            |_| (),
        );
        hops
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

/// A path table compared by its inputs, never its rows: everything
/// [`PathTable::build`] derives from its graph, and so everything a row
/// is a function of — the detector count, the flat adjacency in order
/// with masks (the order sets the tie-breaking of path masks), the mask
/// width and the thresholds (which fix the class weights). Tables that
/// compare equal fill equal rows, so [`crate::WindowCache`] keeps one of
/// them.
#[derive(Debug)]
pub(crate) struct Interned(pub(crate) Arc<PathTable>);

impl Interned {
    fn inputs(&self) -> (usize, &Adjacency, Option<u32>, [i64; 3]) {
        let t = &self.0;
        (t.n, &t.adj, t.obs_bits, t.thresholds)
    }
}

impl PartialEq for Interned {
    fn eq(&self, other: &Self) -> bool {
        self.inputs() == other.inputs()
    }
}

impl Eq for Interned {}

/// Hashes the inputs' scalars and the adjacency's length only: hashing
/// every half-edge costs more than building the table, and a cache holds
/// a handful of tables, so a shared hash costs one comparison.
impl Hash for Interned {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (n, adj, obs_bits, thresholds) = self.inputs();
        (n, adj.half.len(), obs_bits, thresholds).hash(state);
    }
}

/// "No such half-edge" in [`NoTransitTable`]'s per-detector index.
const NO_HALF_EDGE: u32 = u32::MAX;

/// [`NoTransitTable`] memo byte: the alternative-path question of this
/// half-edge has not been asked yet.
const ALT_UNKNOWN: u8 = 0;
/// Memo byte: the edge is the unique cheapest way across itself.
const ALT_NONE: u8 = 1;
/// Memo byte: an alternative path exists at the edge's own price.
const ALT_SOME: u8 = 2;

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
/// The rows hold only what the predecoder can ask. It passes
/// [`NoTransitTable::within`] caps of two kinds, each built from local
/// costs (a lone defect's boundary edge or a pair's edge: one edge
/// weight, at most the heaviest, `max_w`):
///
/// * local cost + local cost — the weight-isolation bar between two
///   components (`BatchPredecoder::try_resolve_verified`), at most
///   `2·max_w`;
/// * local cost + `escape(v)` — the exchange-argument bar against a
///   defect `v` outside the members (`isolated_from_rest`), at most
///   `max_w + esc(v)`; it saturates to `i64::MAX` when `v`'s component
///   has no boundary.
///
/// So no finite cap about a path *to* `v` exceeds the target's limit
/// `L(v) = max_w + max(max_w, esc(v))`, and a boundary-less `v` takes
/// `L(v) = reach`, the largest finite limit ([`NoTransitTable::reach`]:
/// 43 451 at d = 13 SD6, p = 1e-3, about seven median edges). The
/// limits are closed under prefixes: for a node `x` on a shortest
/// `u → v` path, `esc(v) ≤ nt(v, x) + esc(x)`, so `nt(u, v) ≤ L(v)`
/// gives `nt(u, x) = nt(u, v) − nt(x, v) ≤ max_w + max(max_w, esc(v) −
/// nt(x, v)) ≤ L(x)`. (`x` shares `v`'s component, so a boundary-less
/// `v` has a boundary-less `x`, and both limits are `reach`.) A search
/// that drops every tentative distance to `v` above `L(v)` therefore
/// still settles every `v` within its limit exactly, and reaches no
/// other.
///
/// Three stores, all pure functions of the graph:
///
/// * **escape** — `esc[v]`, the shortest `v → boundary` distance, built
///   eagerly with one Dijkstra from the boundary (the boundary is the
///   source, so no shortest path transits it). It is also `nt(u, ·)`
///   at the boundary (a shortest way there never returns through it),
///   so rows hold detectors only, and with `max_w` it gives every
///   `L(v)`, so the limits take no array of their own;
/// * **rows** — `nt(u, v)` for every detector `v` with `nt(u, v) ≤ L(v)`,
///   filled on first use with one Dijkstra from `u` that never expands
///   the boundary and drops every distance above its target's limit,
///   and kept for the life of the table. A row is one allocation of
///   `u32`s over the detector-id span of the cells it keeps: per 32 ids
///   a keep-bitmap word and the count of kept cells before it, then the
///   kept distances in id order, so a lookup is a bit test and one
///   `count_ones`. At d = 13, 13 rounds a full table keeps 248 388
///   cells, ≈ 211 a row, in 1.22 MB with the bitmaps; dense spans out to
///   `reach` held 1 041 140 cells, 4.2 MB. Rows sit behind
///   [`OnceLock`]s: racing first users of one source run exactly one
///   fill, and a filled row is a lock-free load, so one table serves
///   every window, shot and tenant of a scenario concurrently;
/// * **edge facts** — per half-edge of the flat adjacency its weight and
///   observable mask, and one memo byte answering "is there a second way
///   across this edge at the edge's own price?"
///   ([`NoTransitTable::has_alternative`]), filled on first ask by a
///   search capped at one edge weight. One byte per half-edge, two
///   half-edges per edge: 602 B for the d = 5 memory graph (301 edges),
///   12 170 B at d = 13 (6 085 edges) — per scenario, not per tenant.
///
/// The table owns a flat copy of the adjacency, so it borrows nothing
/// and can be shared by `Arc` next to the window cache.
#[derive(Debug)]
pub struct NoTransitTable {
    n: usize,
    /// The adjacency every search runs on; a half-edge id indexes it.
    adj: Adjacency,
    /// Memo byte of each half-edge: [`ALT_UNKNOWN`] until
    /// [`NoTransitTable::has_alternative`] is first asked.
    alt: Vec<AtomicU8>,
    alt_filled: AtomicUsize,
    /// `boundary_half[v]`: `v`'s cheapest boundary half-edge
    /// ([`NO_HALF_EDGE`] = none).
    boundary_half: Vec<u32>,
    /// `escape[v]`: shortest boundary distance ([`UNREACHED`] = none).
    escape: Vec<u64>,
    /// The heaviest half-edge: no local cost exceeds it.
    max_w: u64,
    /// The largest limit `L(v)`; see the type's docs.
    reach: u64,
    /// `rows[u]`: `nt(u, v)` for every detector `v` within `L(v)`.
    rows: Vec<OnceLock<RankRow>>,
    filled: AtomicUsize,
}

/// The no-transit distances from one source to the detectors it keeps,
/// over the id span `lo..lo + 32 * words`. `data` holds, per 32-id word,
/// the word's keep-bitmap then the count of kept ids before it, and
/// after the `2 * words` of those the kept distances in id order.
#[derive(Debug)]
struct RankRow {
    lo: u32,
    words: u32,
    data: Box<[u32]>,
}

impl RankRow {
    /// The stored distance to detector `v`, `None` if the row does not
    /// keep it (`v` is farther than its limit, or unreachable).
    #[inline]
    fn get(&self, v: u32) -> Option<u32> {
        let i = v.wrapping_sub(self.lo);
        let word = (i / 32) as usize;
        if word >= self.words as usize {
            return None;
        }
        let (bits, before) = (self.data[2 * word], self.data[2 * word + 1]);
        let bit = 1u32 << (i % 32);
        let rank = before + (bits & (bit - 1)).count_ones();
        (bits & bit != 0).then(|| self.data[2 * self.words as usize + rank as usize])
    }
}

impl NoTransitTable {
    /// Builds the escape vector, `max_w`, `reach`, the flat adjacency
    /// and the empty row and memo stores over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if an edge weight is negative or does not fit a `u32`.
    pub fn new(graph: &DecodingGraph) -> Self {
        let n = graph.num_detectors() as usize;
        let bd = graph.boundary_node();
        let adj = Adjacency::new(graph);
        let escape = adj.shortest(bd, None, |_| UNREACHED, |_, _, _| {}, <[u64]>::to_vec);
        let boundary_half = (0..n as u32)
            .map(|u| adj.cheapest(u, bd).unwrap_or(NO_HALF_EDGE))
            .collect();
        let max_w = adj
            .half
            .iter()
            .map(|&(_, w)| u64::from(w))
            .max()
            .unwrap_or(0);
        let finite_escapes = escape[..n].iter().copied().filter(|&e| e != UNREACHED);
        let reach = max_w + max_w.max(finite_escapes.max().unwrap_or(0));
        NoTransitTable {
            n,
            alt: adj
                .half
                .iter()
                .map(|_| AtomicU8::new(ALT_UNKNOWN))
                .collect(),
            alt_filled: AtomicUsize::new(0),
            adj,
            boundary_half,
            escape,
            max_w,
            reach,
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
        i64::try_from(self.escape[v as usize]).unwrap_or(i64::MAX)
    }

    /// The largest limit `L(v)` of a row cell: no finite cap the L1
    /// predecoder asks exceeds it (see the type's docs).
    pub fn reach(&self) -> i64 {
        i64::try_from(self.reach).unwrap_or(i64::MAX)
    }

    /// `L(v)`, the largest cap the predecoder asks about a path to `v`.
    #[inline]
    fn limit(&self, v: u32) -> u64 {
        match self.escape[v as usize] {
            UNREACHED => self.reach,
            esc => self.max_w + self.max_w.max(esc),
        }
    }

    /// Whether some `u → v` path between detectors (`u`, `v` below the
    /// boundary id) that does not transit the boundary costs at most
    /// `cap`. An unreachable `v` is never within any cap, `i64::MAX` (a
    /// saturated `cost + escape`) included.
    ///
    /// Exact for every cap, but fast only for the caps the predecoder
    /// asks: up to `v`'s limit `L(v)` it is one lookup in `u`'s row, and
    /// a missing cell is `false`. A cap beyond `L(v)` whose answer the
    /// row does not hold — only `i64::MAX`, from a defect whose
    /// component has no boundary — runs a one-off uncapped search.
    pub fn within(&self, u: u32, v: u32, cap: i64) -> bool {
        debug_assert!((v as usize) < self.n, "within takes detectors only");
        match self.row(u).get(v) {
            Some(d) => i64::from(d) <= cap,
            None if cap <= i64::try_from(self.limit(v)).unwrap_or(i64::MAX) => false,
            None => {
                let d = self.adj.shortest(
                    u,
                    Some(self.n as u32),
                    |_| UNREACHED,
                    |_, _, _| {},
                    |dist| dist[v as usize],
                );
                d <= cap as u64
            }
        }
    }

    /// Source rows filled so far. Bounded by the detector count, and
    /// constant once the traffic's sources have all been seen.
    pub fn rows_filled(&self) -> usize {
        self.filled.load(Ordering::Relaxed)
    }

    /// The `(half-edge id, neighbor)` pairs of node `u`, in the order of
    /// [`DecodingGraph::neighbors`]. A half-edge id names one direction
    /// of one edge and is what the edge-fact getters below take.
    pub fn neighbors(&self, u: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let range = self.adj.range(u);
        let ids = range.start as u32..;
        ids.zip(&self.adj.half[range])
            .map(|(half, &(v, _))| (half, v))
    }

    /// The cheapest direct `a → b` half-edge (first among ties), if the
    /// two are adjacent; `b` may be the boundary node. Names the edge
    /// [`DecodingGraph::edge_between`] reports.
    pub fn edge_between(&self, a: u32, b: u32) -> Option<u32> {
        self.adj.cheapest(a, b)
    }

    /// Detector `a`'s cheapest direct boundary half-edge, if it has one.
    pub fn boundary_edge(&self, a: u32) -> Option<u32> {
        Some(self.boundary_half[a as usize]).filter(|&h| h != NO_HALF_EDGE)
    }

    /// Weight of half-edge `half`.
    pub fn weight(&self, half: u32) -> i64 {
        i64::from(self.adj.half[half as usize].1)
    }

    /// Observable mask of half-edge `half`.
    pub fn obs(&self, half: u32) -> u64 {
        self.adj.obs[half as usize]
    }

    /// Whether some path from `half`'s source to its target costs at most
    /// `half`'s own weight without using a direct edge between the two
    /// and without transiting the boundary — i.e. whether the edge is
    /// *not* the unique cheapest way across itself. Memoized per
    /// half-edge: the first ask searches, every later ask (any window,
    /// shot or tenant) is one byte load. `half` must leave a detector;
    /// the boundary is a sink and has no way out.
    pub fn has_alternative(&self, half: u32) -> bool {
        // Relaxed suffices: the byte is a pure function of the immutable
        // adjacency and publishes no other memory. Racing first askers
        // compute and store the same value, and a reader sees either
        // "unknown" (and searches itself) or that final value.
        let memo = &self.alt[half as usize];
        match memo.load(Ordering::Relaxed) {
            ALT_NONE => false,
            ALT_SOME => true,
            _ => {
                let found = self.search_alternative(half);
                memo.store(if found { ALT_SOME } else { ALT_NONE }, Ordering::Relaxed);
                // A statistic only; racing askers may both count.
                self.alt_filled.fetch_add(1, Ordering::Relaxed);
                found
            }
        }
    }

    /// [`NoTransitTable::has_alternative`] searches run so far. Bounded
    /// by the half-edge count (racing first askers aside), and constant
    /// once the traffic's edges have all been seen.
    pub fn alternatives_filled(&self) -> usize {
        self.alt_filled.load(Ordering::Relaxed)
    }

    /// The search behind [`NoTransitTable::has_alternative`]: Dijkstra
    /// from `half`'s source, budget capped at `half`'s weight, the direct
    /// edges to its target excluded, the boundary never expanded. At
    /// that cap it settles a handful of nodes, so the settled set is a
    /// short list rather than a dense array per fill.
    fn search_alternative(&self, half: u32) -> bool {
        let src = self.adj.start.partition_point(|&start| start <= half) as u32 - 1;
        let (dst, cap) = self.adj.half[half as usize];
        let bd = self.n as u32;
        let mut settled: Vec<u32> = Vec::new();
        let mut heap = BinaryHeap::from([Reverse((0u64, src))]);
        while let Some(Reverse((d, u))) = heap.pop() {
            if u == dst {
                return true;
            }
            if u == bd || settled.contains(&u) {
                continue;
            }
            settled.push(u);
            for &(v, w) in &self.adj.half[self.adj.range(u)] {
                let nd = d + u64::from(w);
                if nd <= u64::from(cap) && !(u == src && v == dst) {
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        false
    }

    /// The distance row of detector `u`, filled on first use.
    fn row(&self, u: u32) -> &RankRow {
        self.rows[u as usize].get_or_init(|| {
            // A statistic only: the row itself is published by the cell.
            self.filled.fetch_add(1, Ordering::Relaxed);
            self.fill_row(u)
        })
    }

    /// One search from `src` that never expands the boundary node and
    /// drops every distance to a `v` above `L(v)`; `read` gets its final
    /// distances, [`UNREACHED`] wherever it did not keep the node.
    fn search<R>(&self, src: u32, read: impl FnOnce(&[u64]) -> R) -> R {
        let sink = self.n as u32;
        let limit = |v| self.limit(v);
        self.adj
            .shortest(src, Some(sink), limit, |_, _, _| {}, read)
    }

    /// [`NoTransitTable::search`] from `src`, kept as a rank-indexed row
    /// over the span of detector ids it reached: one allocation.
    ///
    /// # Panics
    ///
    /// Panics if a kept distance does not fit below `u32::MAX`, the
    /// range of a row cell.
    fn fill_row(&self, src: u32) -> RankRow {
        self.search(src, |dist| {
            let dist = &dist[..self.n];
            // The source itself is kept, so the span is never empty.
            let kept = |d: &u64| *d != UNREACHED;
            let lo = dist.iter().position(kept).unwrap_or(src as usize);
            let hi = dist.iter().rposition(kept).unwrap_or(src as usize);
            let span = &dist[lo..=hi];
            let words = span.len().div_ceil(32);
            let cells = span.iter().copied().filter(|d| kept(d)).count();
            let mut data = Vec::with_capacity(2 * words + cells);
            data.resize(2 * words, 0);
            for (i, &d) in span.iter().enumerate() {
                if i % 32 == 0 {
                    data[2 * (i / 32) + 1] = (data.len() - 2 * words) as u32;
                }
                if d != UNREACHED {
                    data[2 * (i / 32)] |= 1 << (i % 32);
                    data.push(row_cell(d, src, 0));
                }
            }
            RankRow {
                lo: lo as u32,
                words: words as u32,
                data: data.into_boxed_slice(),
            }
        })
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
        // Every row, the boundary's included, cell by cell and through
        // the row handle; rows fill on first ask and only then.
        let g = small_graph();
        let t = PathTable::build(&g);
        assert_eq!(t.rows_filled(), 0, "rows are lazy");
        for src in 0..=g.num_detectors() {
            let sp = g.dijkstra(src);
            let row = t.row(src);
            assert_eq!(t.rows_filled(), src as usize + 1);
            assert_eq!(row.boundary_distance(), t.boundary_distance(src));
            assert_eq!(t.kernel_hops(src), sp.hops, "hops from {src}");
            for v in 0..=g.num_detectors() {
                assert_eq!(t.distance(src, v), sp.dist[v as usize]);
                assert_eq!(t.path_obs(src, v), sp.obs[v as usize]);
                assert_eq!(row.distance(v), sp.dist[v as usize]);
                assert_eq!(row.path_obs(v), sp.obs[v as usize]);
            }
        }
        assert_eq!(t.rows_filled(), g.num_detectors() as usize + 1);
        assert_eq!(
            t.clone().rows_filled(),
            t.rows_filled(),
            "a clone keeps its rows"
        );
    }

    /// A textbook Dijkstra, distances only, that never expands `sink`
    /// unless it is the source — the oracle of the no-transit rows and
    /// (with no sink) of the escape vector.
    fn plain_dijkstra(g: &DecodingGraph, src: u32, sink: Option<u32>) -> Vec<i64> {
        let mut dist = vec![i64::MAX; g.num_detectors() as usize + 1];
        let mut heap = BinaryHeap::from([Reverse((0i64, src))]);
        dist[src as usize] = 0;
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] || (Some(u) == sink && u != src) {
                continue;
            }
            for (v, e) in g.neighbors(u) {
                if d + e.weight < dist[v as usize] {
                    dist[v as usize] = d + e.weight;
                    heap.push(Reverse((d + e.weight, v)));
                }
            }
        }
        dist
    }

    /// Every row of a fresh [`PathTable`] over `g`, the boundary's
    /// included, equals [`DecodingGraph::dijkstra`] cell by cell — the
    /// hops of the paths the row's search found included, and the class
    /// against the threshold rule applied to the oracle's distance — and
    /// the escape vector equals [`plain_dijkstra`], from the boundary and
    /// as every no-transit boundary column. Every no-transit cell a row
    /// stores equals [`plain_dijkstra`], every cell it does not store is
    /// farther than its target's limit `L(v)`, no limit exceeds `reach`,
    /// and `within` agrees with the oracle on both sides of the
    /// distance, at `L(v)`, and past it (the fallback search) just
    /// beyond and at `i64::MAX`.
    fn assert_tables_match_the_oracles(g: &DecodingGraph) {
        let t = PathTable::build(g);
        let nt = NoTransitTable::new(g);
        let bd = g.boundary_node();
        let class = |d: i64| t.thresholds.iter().position(|&th| d <= th).unwrap_or(3) as u8;
        for src in 0..=bd {
            let sp = g.dijkstra(src);
            let row = t.row(src);
            let hops = t.kernel_hops(src);
            for v in 0..=bd {
                let (d, at) = (sp.dist[v as usize], (src, v));
                assert_eq!(row.distance(v), d, "{at:?}");
                assert_eq!(row.path_obs(v), sp.obs[v as usize], "{at:?}");
                assert_eq!(hops[v as usize], sp.hops[v as usize], "{at:?}");
                assert_eq!(t.path_class(src, v), class(d), "{at:?}");
            }
        }
        let escape: Vec<i64> = (0..=bd).map(|v| nt.escape(v)).collect();
        assert_eq!(escape, plain_dijkstra(g, bd, None), "the escape vector");
        let limit = |v| i64::try_from(nt.limit(v)).unwrap();
        assert!(
            (0..bd).all(|v| limit(v) <= nt.reach()),
            "reach is the largest limit"
        );
        for src in 0..bd {
            let want = plain_dijkstra(g, src, Some(bd));
            assert_eq!(
                nt.escape(src),
                want[bd as usize],
                "boundary column of {src}"
            );
            for v in 0..bd {
                let (d, at, l) = (want[v as usize], (src, v), limit(v));
                match nt.row(src).get(v) {
                    Some(cell) => assert_eq!(i64::from(cell), d, "stored {at:?}"),
                    None => assert!(d > l, "{at:?} at {d} within its limit {l}"),
                }
                for cap in [d - 1, d, l, l + 1, i64::MAX] {
                    let hit = d != i64::MAX && d <= cap;
                    assert_eq!(nt.within(src, v, cap), hit, "{at:?} cap {cap} dist {d}");
                }
            }
        }
    }

    #[test]
    fn kernel_rows_equal_the_oracles_on_sd6_and_every_window() {
        let code = RotatedSurfaceCode::new(5);
        let g = DecodingGraph::from_dem(&extract_dem(
            &code.memory_z_circuit(5, &NoiseModel::sd6(1e-3)),
        ));
        assert_tables_match_the_oracles(&g);
        let layers = crate::window::LayerMap::from_graph(&g).unwrap();
        for seam in [
            crate::SeamPolicy::Cut,
            crate::SeamPolicy::ArtificialBoundary,
        ] {
            let cache = crate::WindowCache::new(&g, seam);
            for lo in 0..layers.num_layers() {
                for hi in lo + 1..=layers.num_layers() {
                    let win = cache.get_or_build(&g, layers.det_range(lo, hi), (lo, hi));
                    assert_tables_match_the_oracles(win.graph());
                }
            }
        }
    }

    #[test]
    fn zero_weights_and_tied_paths_break_as_the_reference_does() {
        use crate::graph::Edge;
        let edge = |u, v, weight, obs| Edge {
            u,
            v,
            weight,
            probability: 0.01,
            obs,
        };
        // 0 reaches 3 at 5 two ways, via 1 (mask 1) and via 2 (mask 2);
        // 3–4 and 1–5 are free, so a zero-weight relaxation reaches a
        // lower-numbered node at the distance just popped (5 → 1 from
        // source 5). The boundary edges are too dear to transit.
        let bd = 6;
        let g = DecodingGraph::from_parts(
            6,
            5,
            vec![
                edge(0, 1, 2, 1),
                edge(0, 2, 2, 2),
                edge(1, 3, 3, 0),
                edge(2, 3, 3, 0),
                edge(3, 4, 0, 4),
                edge(1, 5, 0, 8),
                edge(4, bd, 10, 16),
                edge(5, bd, 10, 0),
            ],
            vec![[0.0; 3]; 6],
        );
        assert_tables_match_the_oracles(&g);
        let t = PathTable::build(&g);
        // The tie goes to the path through the lower-numbered node,
        // popped first at distance 2.
        let (from_0, from_5) = (t.kernel_hops(0), t.kernel_hops(5));
        assert_eq!((t.distance(0, 3), t.path_obs(0, 3), from_0[3]), (5, 1, 2));
        assert_eq!((t.distance(0, 4), t.path_obs(0, 4), from_0[4]), (5, 5, 3));
        assert_eq!((t.distance(4, 1), t.path_obs(4, 1)), (3, 4));
        assert_eq!((t.distance(5, 0), t.path_obs(5, 0)), (2, 9));
        assert_eq!((t.distance(5, 3), t.path_obs(5, 3), from_5[3]), (3, 8, 2));
    }

    #[test]
    fn racing_askers_of_one_row_fill_it_once() {
        let g = medium_graph();
        let t = PathTable::build(&g);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    assert_eq!(t.distance(7, 7), 0);
                });
            }
        });
        assert_eq!(t.rows_filled(), 1);
    }

    #[test]
    fn wide_masks_and_unreachable_nodes_survive_the_narrow_rows() {
        use crate::graph::Edge;
        let edge = |u, v, weight, obs| Edge {
            u,
            v,
            weight,
            probability: 0.01,
            obs,
        };
        // 0–1–boundary, the first mask past one byte (wide rows) or the
        // single observable (packed rows); 2 hangs off nothing.
        for (mask, obs_bits) in [(1 << 11, None), (1, Some(1))] {
            let g = DecodingGraph::from_parts(
                3,
                12,
                vec![edge(0, 1, 5, mask), edge(1, 3, 7, 1)],
                vec![[0.0; 3]; 3],
            );
            let t = PathTable::build(&g);
            assert_eq!(t.obs_bits, obs_bits);
            assert_eq!(t.path_obs(0, 3), mask ^ 1);
            assert_eq!(t.boundary_distance(0), 12);
            assert_eq!(t.kernel_hops(0)[3], 2);
            for (a, b) in [(0, 2), (2, 0), (2, 3), (3, 2)] {
                let row = t.row(a);
                assert_eq!(
                    (row.distance(b), row.path_obs(b), t.path_class(a, b)),
                    (i64::MAX, 0, 3),
                    "{mask}: ({a},{b})"
                );
            }
            assert_eq!((t.distance(2, 2), t.path_obs(2, 2)), (0, 0));
        }
    }

    #[test]
    fn byte_wide_masks_round_trip_through_packed_cells() {
        use crate::graph::Edge;
        let edge = |u, v, weight, obs| Edge {
            u,
            v,
            weight,
            probability: 0.01,
            obs,
        };
        // A star: hub 0 reaches detector m at 3 over an edge of mask m,
        // for every nonzero byte m, so the path a → 0 → b carries a ^ b;
        // the hub touches the boundary at 4.
        let bd = 256;
        let spokes = (1..bd).map(|m| edge(0, m, 3, u64::from(m)));
        let g = DecodingGraph::from_parts(
            bd,
            8,
            spokes.chain([edge(0, bd, 4, 0)]).collect(),
            vec![[0.0; 3]; bd as usize],
        );
        let t = PathTable::build(&g);
        assert_eq!(t.obs_bits, Some(8));
        for a in 0..bd {
            let row = t.row(a);
            let spoke = |v: u32| 3 * i64::from(v != 0);
            for b in 0..bd {
                let d = if a == b { 0 } else { spoke(a) + spoke(b) };
                let want = (d, u64::from(a ^ b));
                assert_eq!((row.distance(b), row.path_obs(b)), want, "({a},{b})");
            }
            let to_boundary = (row.boundary_distance(), t.boundary_obs(a));
            assert_eq!(to_boundary, (spoke(a) + 4, u64::from(a)), "{a}");
        }
        assert_tables_match_the_oracles(&g);
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
            assert_eq!(t.kernel_hops(a)[a as usize], 0);
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

    /// A chain of `len` detectors joined by edges of weight 10, plus
    /// `extra` edges; the boundary is node `n`.
    fn chain_graph(n: u32, len: u32, extra: &[(u32, u32, i64)]) -> DecodingGraph {
        use crate::graph::Edge;
        let edge = |u, v, weight| Edge {
            u,
            v,
            weight,
            probability: 0.01,
            obs: 0,
        };
        let links = (1..len).map(|v| edge(v - 1, v, 10));
        let edges = links.chain(extra.iter().map(|&(u, v, w)| edge(u, v, w)));
        DecodingGraph::from_parts(n, 1, edges.collect(), vec![[0.0; 3]; n as usize])
    }

    #[test]
    fn a_saturated_cap_past_the_row_runs_the_fallback_search() {
        // 0–1–2–3 at 10 a link with no boundary; 4 hangs off it at 1.
        // reach = 10 + max(10, 1) = 20, so 0 → 3 at 30 is past 0's row.
        let g = chain_graph(5, 4, &[(4, 5, 1)]);
        let nt = NoTransitTable::new(&g);
        assert_eq!(nt.reach(), 20);
        assert_eq!(nt.escape(0), i64::MAX, "a boundary-less component");
        assert_eq!(nt.row(0).get(3), None, "beyond reach");
        assert!(nt.within(0, 3, i64::MAX), "same component");
        assert!(!nt.within(0, 4, i64::MAX), "another component");
        assert!(!nt.within(4, 0, i64::MAX));
        assert!(!nt.within(0, 3, 20));
        assert_tables_match_the_oracles(&g);
    }

    #[test]
    fn a_cap_between_reach_and_saturation_runs_the_fallback_search() {
        // 0–…–5 at 10 a link, the boundary at 10 from both ends: escapes
        // run 10, 20, 30, 30, 20, 10, so the limits run 20, 30, 40, 40,
        // 30, 20 and reach = 10 + 30 = 40. 2 → 0 at 20 sits exactly at
        // 0's limit; 0 → 5 at 50 lies past 5's limit and past reach.
        let g = chain_graph(6, 6, &[(0, 6, 10), (5, 6, 10)]);
        let nt = NoTransitTable::new(&g);
        assert_eq!(nt.reach(), 40);
        let limits: Vec<u64> = (0..6).map(|v| nt.limit(v)).collect();
        assert_eq!(limits, [20, 30, 40, 40, 30, 20]);
        assert_eq!(nt.row(2).get(0), Some(20), "a limit itself is stored");
        assert_eq!(nt.row(0).get(4), None, "40 is past 4's limit of 30");
        assert_eq!(nt.row(0).get(5), None, "beyond reach");
        assert!(!nt.within(0, 5, 49));
        assert!(nt.within(0, 5, 50));
        assert!(nt.within(0, 5, i64::MAX));
        assert!(!nt.within(0, 5, 40));
        assert_tables_match_the_oracles(&g);
    }

    /// A random graph of 2 to 20 detectors in two components: `0..k`
    /// touches the boundary, `k..n` (never empty) does not. Each component is a random
    /// tree plus as many random extra edges, parallel ones included, at
    /// weights from {0, 1, 2, 2, 3, 5}, so zero-weight edges and tied
    /// paths are common.
    fn random_graph(seed: u64) -> DecodingGraph {
        use crate::graph::Edge;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..=20u32);
        let k = rng.gen_range(1..n);
        let mut ends = Vec::new();
        for (lo, hi) in [(0, k), (k, n)] {
            for v in lo + 1..hi {
                ends.push((rng.gen_range(lo..v), v));
            }
            for _ in lo..hi {
                let (u, v) = (rng.gen_range(lo..hi), rng.gen_range(lo..hi));
                if u != v {
                    ends.push((u, v));
                }
            }
        }
        for _ in 0..rng.gen_range(1..=k) {
            ends.push((rng.gen_range(0..k), n));
        }
        let edges = ends.into_iter().map(|(u, v)| Edge {
            u,
            v,
            weight: [0, 1, 2, 2, 3, 5][rng.gen_range(0..6usize)],
            probability: 0.01,
            obs: rng.gen_range(0..4u64),
        });
        let edges = edges.collect();
        DecodingGraph::from_parts(n, 2, edges, vec![[0.0; 3]; n as usize])
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every stored no-transit cell equals [`plain_dijkstra`], every
        /// missing one lies past its target's limit, and `within` equals
        /// the oracle at every cap of [`assert_tables_match_the_oracles`],
        /// on random graphs with zero weights, ties and a boundary-less
        /// component.
        #[test]
        fn random_rows_keep_exactly_the_cells_within_their_limits(
            seed in proptest::prelude::any::<u64>(),
        ) {
            assert_tables_match_the_oracles(&random_graph(seed));
        }
    }

    /// The d = 13, p = 1e-3 SD6 memory graph of 13 rounds, the dense
    /// benchmark's parent, with every source filled: how many cells the
    /// rows keep, and how many nodes their searches settle beside a search
    /// capped at the one global `reach` (whose rows kept 526 290 cells,
    /// and 1 041 140 as dense spans).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "fills every d = 13 row; run in release")]
    fn every_d13_row_keeps_only_the_cells_within_their_limits() {
        let code = RotatedSurfaceCode::new(13);
        let g = DecodingGraph::from_dem(&extract_dem(
            &code.memory_z_circuit(13, &NoiseModel::sd6(1e-3)),
        ));
        let nt = NoTransitTable::new(&g);
        let (n, bd) = (g.num_detectors(), g.boundary_node());
        let settled = |dist: &[u64]| dist.iter().filter(|&&d| d != UNREACHED).count();
        let (mut kept, mut pops, mut reached, mut reach_pops) = (0, 0, 0, 0);
        for u in 0..n {
            let row = nt.row(u);
            kept += row.data.len() - 2 * row.words as usize;
            pops += nt.search(u, settled);
            let capped = |dist: &[u64]| (settled(&dist[..n as usize]), settled(dist));
            let (cells, all) = nt
                .adj
                .shortest(u, Some(bd), |_| nt.reach, |_, _, _| {}, capped);
            reached += cells;
            reach_pops += all;
        }
        assert_eq!((n, nt.reach()), (1_176, 43_451));
        assert_eq!(nt.rows_filled(), n as usize);
        assert_eq!((kept, pops), (248_388, 248_780));
        assert_eq!((reached, reach_pops), (526_290, 527_466));
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

    #[test]
    fn edge_facts_name_the_cheapest_parallel_edge_and_memoize_the_alternative() {
        use crate::graph::Edge;
        let edge = |u, v, weight, obs| Edge {
            u,
            v,
            weight,
            probability: 0.01,
            obs,
        };
        // 0–1 directly at 5 (and, dearer, at 8); 0–2–1 at 3 + 2: a tie
        // is an alternative. 2–3 at 6 has none: the only other way
        // round, 2–0–boundary–3 at 3 + 1 + 1, transits the sink. 0 and
        // 3 touch the boundary, 0 twice with the cheaper copy second.
        let bd = 4;
        let g = DecodingGraph::from_parts(
            4,
            2,
            vec![
                edge(0, 1, 8, 0),
                edge(0, 1, 5, 1),
                edge(0, 2, 3, 0),
                edge(1, 2, 2, 0),
                edge(2, 3, 6, 2),
                edge(0, bd, 9, 0),
                edge(0, bd, 1, 3),
                edge(3, bd, 1, 0),
            ],
            vec![[0.0; 3]; 4],
        );
        let nt = NoTransitTable::new(&g);
        for (a, b) in [(0, 1), (1, 0), (2, 3), (3, 2), (0, bd), (3, bd), (1, 2)] {
            let half = nt.edge_between(a, b).expect("adjacent");
            let e = g.edge_between(a, b).unwrap();
            assert_eq!(
                (nt.weight(half), nt.obs(half)),
                (e.weight, e.obs),
                "({a},{b})"
            );
            assert!(nt.neighbors(a).any(|(h, v)| h == half && v == b));
        }
        assert_eq!(nt.edge_between(1, 3), None);
        assert_eq!(nt.boundary_edge(1), None);
        assert_eq!(nt.boundary_edge(0), nt.edge_between(0, bd));
        assert_eq!(nt.alternatives_filled(), 0, "the memo is lazy");
        let ask = |a, b| nt.has_alternative(nt.edge_between(a, b).unwrap());
        assert!(ask(0, 1) && ask(1, 0), "0–2–1 ties the direct edge");
        assert!(!ask(2, 3) && !ask(3, 2));
        assert!(!ask(0, bd), "the dearer parallel edge is excluded too");
        assert!(!ask(3, bd));
        assert_eq!(nt.alternatives_filled(), 6);
        assert!(ask(0, 1) && !ask(2, 3) && !ask(0, bd));
        assert_eq!(nt.alternatives_filled(), 6, "a memoized byte is only read");
    }

    #[test]
    fn racing_askers_of_one_edge_agree() {
        let g = medium_graph();
        let nt = NoTransitTable::new(&g);
        let half = nt
            .boundary_edge(0)
            .expect("detector 0 is boundary-adjacent");
        let barrier = std::sync::Barrier::new(2);
        let answers: Vec<bool> = std::thread::scope(|scope| {
            let asker = || {
                barrier.wait();
                nt.has_alternative(half)
            };
            let handles = [scope.spawn(asker), scope.spawn(asker)];
            handles.map(|h| h.join().unwrap()).to_vec()
        });
        assert_eq!(answers[0], answers[1]);
        assert_eq!(nt.has_alternative(half), answers[0]);
        // Both may have searched; neither search is repeated afterwards.
        assert!((1..=2).contains(&nt.alternatives_filled()));
    }

    /// Detectors 0–1 joined by an edge of `weight` and mask `obs`; only 0
    /// touches the boundary.
    fn two_node_graph(weight: i64, obs: u64) -> DecodingGraph {
        use crate::graph::Edge;
        let edge = |u, v, weight, obs| Edge {
            u,
            v,
            weight,
            probability: 0.01,
            obs,
        };
        DecodingGraph::from_parts(
            2,
            1,
            vec![edge(0, 1, weight, obs), edge(0, 2, 1, 0)],
            vec![[0.0; 3], [1.0, 0.0, 0.0]],
        )
    }

    #[test]
    fn the_largest_representable_distance_is_still_reached() {
        let nt = NoTransitTable::new(&two_node_graph(i64::from(u32::MAX) - 1, 0));
        assert!(nt.within(0, 1, i64::MAX));
        assert!(!nt.within(0, 1, i64::from(u32::MAX) - 2));
    }

    #[test]
    #[should_panic(expected = "overflows the u32 row")]
    fn a_distance_colliding_with_the_sentinel_is_refused_at_fill() {
        let nt = NoTransitTable::new(&two_node_graph(i64::from(u32::MAX), 0));
        nt.within(0, 1, i64::MAX);
    }

    #[test]
    fn the_largest_packed_distance_is_still_stored() {
        // One mask bit leaves 31 distance bits, all ones the sentinel; 1
        // reaches the boundary through 0 at one below it.
        let largest = i64::from(u32::MAX >> 1) - 1;
        let t = PathTable::build(&two_node_graph(largest - 1, 1));
        assert_eq!(t.obs_bits, Some(1));
        assert_eq!((t.distance(1, 0), t.path_obs(1, 0)), (largest - 1, 1));
        assert_eq!((t.boundary_distance(1), t.boundary_obs(1)), (largest, 1));
    }

    #[test]
    #[should_panic(
        expected = "distance 2147483647 from node 0 overflows the u32 row (31 distance bits)"
    )]
    fn a_distance_past_the_packed_range_is_refused_at_fill() {
        let t = PathTable::build(&two_node_graph(i64::from(u32::MAX >> 1), 1));
        t.distance(0, 1);
    }
}
