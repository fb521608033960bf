//! Window views: detector-range subgraphs for sliding-window decoding.
//!
//! A streaming decoder never sees the whole shot. It decodes an
//! overlapping *window* of measurement rounds at a time, commits the
//! matches that are safely in the past, and defers the rest to the next
//! window. The two pieces the window runtime needs from the graph layer
//! live here:
//!
//! * [`LayerMap`] — the detector ⇄ measurement-round-layer
//!   correspondence, recovered from the detector time coordinates (the
//!   memory circuits emit detectors layer-contiguously, which this type
//!   verifies);
//! * [`GraphWindow`] — the subgraph induced by a contiguous detector
//!   range, with the parent's boundary edges preserved and a configurable
//!   [`SeamPolicy`] for the edges that cross the open seam into rounds
//!   that have not been measured yet.
//!
//! The window graph is a full [`DecodingGraph`] over local detector ids
//! (`global − range.start`), so Dijkstra, path tables, and every decoder
//! in the workspace run on it unchanged.

use crate::graph::{DecodingGraph, Edge};
use crate::pathtable::{Interned, NoTransitTable, PathTable};
use crate::DetectorId;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Detector ⇄ time-layer correspondence of a decoding graph.
///
/// Layer `ℓ` of a memory experiment holds the detectors comparing round
/// `ℓ` against round `ℓ − 1` (layer 0 compares against the deterministic
/// initial state; the final layer compares the transversal data readout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerMap {
    /// `bounds[ℓ]..bounds[ℓ+1]` is the detector range of layer `ℓ`.
    bounds: Vec<u32>,
}

impl LayerMap {
    /// Recovers the layer structure from the graph's detector time
    /// coordinates (`coords()[det][2]`).
    ///
    /// # Errors
    ///
    /// Returns a message if the graph has no detectors, a time
    /// coordinate is not a small non-negative integer, or detectors are
    /// not stored layer-contiguously in increasing time order (the
    /// invariant window extraction relies on).
    pub fn from_graph(graph: &DecodingGraph) -> Result<Self, String> {
        let coords = graph.coords();
        if coords.is_empty() {
            return Err("graph has no detectors".into());
        }
        let mut bounds = vec![0u32];
        let mut current = 0u64;
        for (det, c) in coords.iter().enumerate() {
            let t = c[2];
            if t < 0.0 || t.fract() != 0.0 || t > u32::MAX as f64 {
                return Err(format!(
                    "detector {det}: time coordinate {t} is not a layer index"
                ));
            }
            let layer = t as u64;
            if layer == current {
                continue;
            }
            if layer == current + 1 {
                bounds.push(det as u32);
                current = layer;
            } else {
                return Err(format!(
                    "detector {det}: layer {layer} after layer {current} (not contiguous)"
                ));
            }
        }
        bounds.push(coords.len() as u32);
        Ok(LayerMap { bounds })
    }

    /// Number of time layers (`rounds + 1` for the memory experiments).
    pub fn num_layers(&self) -> u32 {
        self.bounds.len() as u32 - 1
    }

    /// Total number of detectors covered.
    pub fn num_detectors(&self) -> u32 {
        *self.bounds.last().expect("bounds are non-empty")
    }

    /// The layer of detector `det`.
    ///
    /// # Panics
    ///
    /// Panics if `det` is out of range.
    pub fn layer_of(&self, det: DetectorId) -> u32 {
        assert!(det < self.num_detectors(), "detector {det} out of range");
        self.bounds.partition_point(|&b| b <= det) as u32 - 1
    }

    /// The contiguous detector range of layers `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi <= num_layers()`.
    pub fn det_range(&self, lo: u32, hi: u32) -> Range<DetectorId> {
        assert!(
            lo <= hi && hi <= self.num_layers(),
            "bad layer range {lo}..{hi}"
        );
        self.bounds[lo as usize]..self.bounds[hi as usize]
    }
}

/// What to do with edges that cross the open seam of a window — one
/// endpoint inside the extracted range, the other a detector beyond it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeamPolicy {
    /// Drop seam-crossing edges. Defects next to the seam can still
    /// match in-window or to the real boundary; commit/defer runtimes
    /// use this so that *committed* corrections never route through an
    /// artificial edge.
    Cut,
    /// Turn each seam-crossing edge into a boundary edge of the window
    /// graph (an *artificial boundary* at the open seam, the classic
    /// "sandwich" construction). Gives seam-adjacent defects a cheap
    /// provisional escape; only sound when every match that could use
    /// the artificial boundary is discarded rather than committed.
    /// Redirected edges are merged with the detector's existing boundary
    /// edges exactly like [`DecodingGraph::from_dem`] merges parallel
    /// mechanisms (XOR for equal observable masks, more probable wins on
    /// a conflict), preserving the one-edge-per-pair invariant.
    ArtificialBoundary,
}

/// The subgraph induced by a contiguous detector range of a parent
/// decoding graph, over local detector ids.
#[derive(Clone, Debug)]
pub struct GraphWindow {
    graph: DecodingGraph,
    range: Range<DetectorId>,
    seam_edges: usize,
}

impl GraphWindow {
    /// Extracts the window over `range` from `parent`.
    ///
    /// Edges with both endpoints in the range become internal edges;
    /// edges from an in-range detector to the parent's boundary stay
    /// boundary edges; edges crossing the seam (the other endpoint is a
    /// detector outside the range) follow `seam`. The number of such
    /// seam crossings is reported by [`GraphWindow::seam_edges`]
    /// regardless of policy.
    ///
    /// # Panics
    ///
    /// Panics if `range` exceeds the parent's detectors.
    pub fn extract(parent: &DecodingGraph, range: Range<DetectorId>, seam: SeamPolicy) -> Self {
        assert!(range.start <= range.end && range.end <= parent.num_detectors());
        let n = range.end - range.start;
        let local_boundary = n;
        let parent_boundary = parent.boundary_node();
        let in_range = |d: u32| range.contains(&d);
        let mut edges: Vec<Edge> = Vec::new();
        let mut seam_edges = 0usize;
        // Seam redirects accumulate per inside detector so they can be
        // merged — with each other and with the detector's existing
        // boundary edge — instead of creating parallel (u, boundary)
        // edges the rest of the stack does not expect.
        let mut redirects: Vec<(DetectorId, f64, u64)> = Vec::new();
        for e in parent.edges() {
            let (u_in, v_in) = (in_range(e.u), in_range(e.v));
            match (u_in, v_in) {
                (true, true) => edges.push(Edge {
                    u: e.u - range.start,
                    v: e.v - range.start,
                    ..*e
                }),
                (true, false) | (false, true) => {
                    let (inside, outside) = if u_in { (e.u, e.v) } else { (e.v, e.u) };
                    if outside == parent_boundary {
                        edges.push(Edge {
                            u: inside - range.start,
                            v: local_boundary,
                            ..*e
                        });
                    } else {
                        seam_edges += 1;
                        if seam == SeamPolicy::ArtificialBoundary {
                            redirects.push((inside - range.start, e.probability, e.obs));
                        }
                    }
                }
                (false, false) => {}
            }
        }
        // Fold redirects into boundary edges with from_dem's parallel-edge
        // rule: XOR-merge equal observable masks, otherwise keep the more
        // probable mechanism.
        let merge = |p0: f64, obs0: u64, p: f64, obs: u64| {
            if obs0 == obs {
                (qsim::dem::xor_probability(p0, p), obs0)
            } else if p > p0 {
                (p, obs)
            } else {
                (p0, obs0)
            }
        };
        for (local, p, obs) in redirects {
            let existing = edges
                .iter_mut()
                .find(|e| e.u.min(e.v) == local && e.u.max(e.v) == local_boundary);
            match existing {
                Some(e) => {
                    let (np, nobs) = merge(e.probability, e.obs, p, obs);
                    e.probability = np;
                    e.obs = nobs;
                    e.weight = DecodingGraph::weight_of_probability(np);
                }
                None => edges.push(Edge {
                    u: local,
                    v: local_boundary,
                    weight: DecodingGraph::weight_of_probability(p),
                    probability: p,
                    obs,
                }),
            }
        }
        let coords = parent.coords()[range.start as usize..range.end as usize].to_vec();
        GraphWindow {
            graph: DecodingGraph::from_parts(n, parent.num_observables(), edges, coords),
            range,
            seam_edges,
        }
    }

    /// The window's decoding graph (local detector ids).
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// The global detector range this window covers.
    pub fn det_range(&self) -> Range<DetectorId> {
        self.range.clone()
    }

    /// Number of parent edges that crossed the window seam (dropped or
    /// redirected per the extraction's [`SeamPolicy`]).
    pub fn seam_edges(&self) -> usize {
        self.seam_edges
    }

    /// Whether global detector `det` lies inside this window.
    pub fn contains(&self, det: DetectorId) -> bool {
        self.range.contains(&det)
    }

    /// Maps a global detector id into the window, if present.
    pub fn to_local(&self, det: DetectorId) -> Option<DetectorId> {
        self.contains(det).then(|| det - self.range.start)
    }

    /// Maps a window-local detector id back to the parent graph.
    ///
    /// # Panics
    ///
    /// Panics if `local` is not a window detector.
    pub fn to_global(&self, local: DetectorId) -> DetectorId {
        assert!(
            local < self.range.end - self.range.start,
            "local id out of range"
        );
        local + self.range.start
    }
}

/// One extracted window together with its all-pairs path table — the
/// per-layer-range state a sliding-window decoder needs.
///
/// Extracting the subgraph is paid at build; the path table fills a
/// source row at a time as decodes ask ([`PathTable::row`]), and a
/// filled row is read-only. The window is the range's own (its detector
/// coordinates carry absolute time, and decoders borrow its graph), but
/// the table is a pure function of the local graph, so [`WindowCache`]
/// gives every range with an equal local graph the same table. It hands
/// contexts out behind [`Arc`] so any number of concurrent consumers —
/// the per-decoder fan-out of `repro realtime`, or every tenant of a
/// multi-tenant decode service — share a single copy per layer range,
/// and each row is searched once between them.
#[derive(Clone, Debug)]
pub struct WindowContext {
    win: GraphWindow,
    paths: Arc<PathTable>,
}

impl WindowContext {
    /// Extracts the window over `range` and builds its own path table.
    pub fn build(parent: &DecodingGraph, range: Range<DetectorId>, seam: SeamPolicy) -> Self {
        let win = GraphWindow::extract(parent, range, seam);
        let paths = Arc::new(PathTable::build(win.graph()));
        WindowContext { win, paths }
    }

    /// The extracted window (local detector ids, global range).
    pub fn window(&self) -> &GraphWindow {
        &self.win
    }

    /// The window's decoding graph.
    pub fn graph(&self) -> &DecodingGraph {
        self.win.graph()
    }

    /// All-pairs shortest-path data over the window graph.
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }
}

/// A thread-safe, share-by-`Arc` cache of [`WindowContext`]s, keyed by
/// `(lo_layer, hi_layer)` range, plus the one per-parent
/// [`NoTransitTable`] the scenario's L1 predecoders read.
///
/// Path tables are keyed by what they hold, not by position: ranges
/// whose tables get equal inputs — the same detector count, flat
/// adjacency in order with masks, mask width and thresholds, all that
/// [`PathTable::build`] derives from the local graph — share one table
/// and every row it has filled. Ranges of one shape (width, and whether
/// the range starts at the first layer or ends at the last) are such
/// ranges wherever they sit, so there is one table per shape the
/// traffic asks for: 64 shots of a d = 13 SD6 stream with a (6, 3)
/// window build 38 ranges on 7 tables at 52 rounds. Longer
/// streams meet more shapes only through rarer deep carries (200 shots:
/// 6, 8 and 9 tables at 13, 52 and 104 rounds). Nothing is shared
/// between caches: each [`WindowCache::new`] starts empty.
///
/// All entries must be extracted from the **same parent graph** (one
/// cache per scenario); the cache checks this with the parent's detector
/// count on every call. The internal lock is only taken on lookup-or-
/// build — consumers are expected to memoize the returned `Arc`s locally
/// (as `realtime::SlidingWindowDecoder` does), keeping their steady-state
/// decode path lock-free.
#[derive(Debug)]
pub struct WindowCache {
    seam: SeamPolicy,
    fingerprint: GraphFingerprint,
    /// Each key maps to a once-cell so the map lock is held only for the
    /// lookup-or-insert of the cell, never across a build: exactly one
    /// caller per key runs the build (inside the cell), while different
    /// keys still build in parallel.
    inner: Mutex<HashMap<(u32, u32), WindowCell>>,
    /// Every distinct local graph's table, interned by its inputs.
    tables: Mutex<HashSet<Interned>>,
    builds: AtomicUsize,
    /// The parent graph's boundary-as-sink distances — per scenario, not
    /// per window: the L1 predecoder runs on parent detector ids.
    no_transit: Arc<NoTransitTable>,
}

/// One cache entry: a once-cell the winning builder fills exactly once.
type WindowCell = Arc<OnceLock<Arc<WindowContext>>>;

/// Cheap structural identity of a graph, used to catch a cache being
/// fed a different parent than it was built for. Detector count alone
/// is not enough — two scenarios at the same distance and round count
/// (e.g. `sd6-d5` vs `uniform-d5`) have identical detector counts but
/// different edges/weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GraphFingerprint {
    num_detectors: u32,
    num_edges: usize,
    weight_range: Option<(i64, i64)>,
}

impl GraphFingerprint {
    fn of(graph: &DecodingGraph) -> Self {
        GraphFingerprint {
            num_detectors: graph.num_detectors(),
            num_edges: graph.num_edges(),
            weight_range: graph.weight_range(),
        }
    }
}

impl WindowCache {
    /// An empty cache for windows of `parent` extracted under `seam`.
    pub fn new(parent: &DecodingGraph, seam: SeamPolicy) -> Self {
        WindowCache {
            seam,
            fingerprint: GraphFingerprint::of(parent),
            inner: Mutex::new(HashMap::new()),
            tables: Mutex::new(HashSet::new()),
            builds: AtomicUsize::new(0),
            no_transit: Arc::new(NoTransitTable::new(parent)),
        }
    }

    /// The parent graph's [`NoTransitTable`], shared by every L1
    /// predecoder of the scenario so each distance row is filled once no
    /// matter how many drivers or tenants ask for it.
    pub fn no_transit(&self) -> &Arc<NoTransitTable> {
        &self.no_transit
    }

    /// The seam policy every cached window was extracted with.
    pub fn seam_policy(&self) -> SeamPolicy {
        self.seam
    }

    /// Number of distinct layer ranges built so far.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("window cache poisoned").len()
    }

    /// Whether the cache holds no windows yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of window builds actually executed (hits and waiters do
    /// not count). Equals [`WindowCache::len`] in a correctly
    /// deduplicating cache — the contended-build test pins exactly that.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Returns the cached window for layers `key = (lo, hi)` covering
    /// detector `range`, building (and retaining) it on first use.
    ///
    /// The build extracts the subgraph and takes the path table interned
    /// for its content, preparing a new (empty) one only for a local
    /// graph not seen before; the rows fill later, on use. It runs
    /// *outside* the map lock: the lock is held only to
    /// fetch-or-insert the key's once-cell, then the build runs inside
    /// the cell. The table store's lock is held only to look up or
    /// insert a finished table, never while a key is collected or a
    /// table prepared. Concurrent consumers warming *different* ranges build
    /// in parallel and hits never stall behind a miss; racing callers of
    /// the *same* range serialize on the cell, so every key is built
    /// exactly once and exactly one `Arc` per key ever circulates.
    ///
    /// # Panics
    ///
    /// Panics if `parent` does not structurally match the graph the
    /// cache was created for (detector/edge-count + weight-range
    /// fingerprint).
    pub fn get_or_build(
        &self,
        parent: &DecodingGraph,
        range: Range<DetectorId>,
        key: (u32, u32),
    ) -> Arc<WindowContext> {
        assert_eq!(
            GraphFingerprint::of(parent),
            self.fingerprint,
            "window cache used with a different parent graph"
        );
        let cell = {
            let mut map = self.inner.lock().expect("window cache poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            let win = GraphWindow::extract(parent, range, self.seam);
            // Prepared outside the lock; of two racing builds of equal
            // graphs, the first to insert wins.
            let paths = self.intern(PathTable::build(win.graph()));
            Arc::new(WindowContext { win, paths })
        }))
    }

    /// The stored table whose inputs equal `fresh`'s, or `fresh` itself,
    /// stored, if there is none. `fresh` has filled no row yet, so
    /// dropping it loses nothing.
    fn intern(&self, fresh: PathTable) -> Arc<PathTable> {
        let fresh = Interned(Arc::new(fresh));
        let mut tables = self.tables.lock().expect("window cache poisoned");
        match tables.get(&fresh) {
            Some(stored) => Arc::clone(&stored.0),
            None => {
                let paths = Arc::clone(&fresh.0);
                tables.insert(fresh);
                paths
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::extract_dem;
    use surface_code::{NoiseModel, RotatedSurfaceCode};

    fn graph(d: u32, rounds: u32) -> DecodingGraph {
        let code = RotatedSurfaceCode::new(d);
        let circuit = code.memory_z_circuit(rounds, &NoiseModel::uniform(1e-3));
        DecodingGraph::from_dem(&extract_dem(&circuit))
    }

    #[test]
    fn layer_map_recovers_memory_layers() {
        let g = graph(3, 4);
        let layers = LayerMap::from_graph(&g).unwrap();
        // d=3: 4 detectors per layer, rounds+1 = 5 layers.
        assert_eq!(layers.num_layers(), 5);
        assert_eq!(layers.num_detectors(), 20);
        assert_eq!(layers.det_range(0, 1), 0..4);
        assert_eq!(layers.det_range(2, 4), 8..16);
        assert_eq!(layers.layer_of(0), 0);
        assert_eq!(layers.layer_of(4), 1);
        assert_eq!(layers.layer_of(19), 4);
    }

    #[test]
    fn layer_map_rejects_non_contiguous_times() {
        let g = graph(3, 2);
        let mut dem = extract_dem(
            &RotatedSurfaceCode::new(3).memory_z_circuit(2, &NoiseModel::uniform(1e-3)),
        );
        dem.det_coords[5][2] = 7.0; // layer jump
        let broken = DecodingGraph::from_dem(&dem);
        assert!(LayerMap::from_graph(&broken).is_err());
        assert!(LayerMap::from_graph(&g).is_ok());
    }

    #[test]
    fn window_extraction_preserves_interior_structure() {
        let g = graph(3, 6);
        let layers = LayerMap::from_graph(&g).unwrap();
        let win = GraphWindow::extract(&g, layers.det_range(2, 5), SeamPolicy::Cut);
        let wg = win.graph();
        assert_eq!(wg.num_detectors(), 12);
        assert_eq!(wg.num_observables(), g.num_observables());
        // Every internal edge of the window exists in the parent with the
        // same weight and observable mask.
        for e in wg.edges() {
            if wg.is_boundary_edge(e) {
                continue;
            }
            let pu = win.to_global(e.u);
            let pv = win.to_global(e.v);
            let pe = g.edge_between(pu, pv).expect("parent edge exists");
            assert_eq!(pe.weight, e.weight);
            assert_eq!(pe.obs, e.obs);
        }
        // Both seams exist (layers 1→2 and 4→5), so crossings were seen.
        assert!(win.seam_edges() > 0);
    }

    #[test]
    fn cut_and_artificial_policies_differ_only_at_the_seam() {
        let g = graph(3, 6);
        let layers = LayerMap::from_graph(&g).unwrap();
        let range = layers.det_range(0, 3);
        let cut = GraphWindow::extract(&g, range.clone(), SeamPolicy::Cut);
        let art = GraphWindow::extract(&g, range, SeamPolicy::ArtificialBoundary);
        assert_eq!(cut.seam_edges(), art.seam_edges());
        assert!(cut.seam_edges() > 0);
        // Redirected seam edges only ever add or strengthen boundary
        // edges; internal structure is identical.
        let internal = |w: &GraphWindow| {
            w.graph()
                .edges()
                .iter()
                .filter(|e| !w.graph().is_boundary_edge(e))
                .count()
        };
        assert_eq!(internal(&cut), internal(&art));
        assert!(art.graph().num_edges() >= cut.graph().num_edges());
        assert!(art.graph().num_edges() <= cut.graph().num_edges() + cut.seam_edges());
        // Merging preserves the one-edge-per-detector-pair invariant.
        use std::collections::HashSet;
        let mut pairs = HashSet::new();
        for e in art.graph().edges() {
            assert!(
                pairs.insert((e.u.min(e.v), e.u.max(e.v))),
                "duplicate edge {}-{}",
                e.u,
                e.v
            );
        }
        // A detector whose boundary edge absorbed a redirect got more
        // probable, never less.
        let bd = art.graph().boundary_node();
        for d in 0..art.graph().num_detectors() {
            if let (Some(a), Some(c)) = (
                art.graph().edge_between(d, bd),
                cut.graph().edge_between(d, bd),
            ) {
                assert!(a.probability >= c.probability - 1e-15, "detector {d}");
            }
        }
    }

    #[test]
    fn full_range_window_is_the_parent_graph() {
        let g = graph(3, 3);
        let win = GraphWindow::extract(&g, 0..g.num_detectors(), SeamPolicy::Cut);
        assert_eq!(win.graph().num_edges(), g.num_edges());
        assert_eq!(win.seam_edges(), 0);
        let sp_parent = g.dijkstra(0);
        let sp_window = win.graph().dijkstra(0);
        assert_eq!(sp_parent.dist, sp_window.dist);
    }

    #[test]
    fn id_mapping_round_trips() {
        let g = graph(3, 4);
        let layers = LayerMap::from_graph(&g).unwrap();
        let win = GraphWindow::extract(&g, layers.det_range(1, 3), SeamPolicy::Cut);
        assert_eq!(win.det_range(), 4..12);
        assert_eq!(win.to_local(3), None);
        assert_eq!(win.to_local(4), Some(0));
        assert_eq!(win.to_local(11), Some(7));
        assert_eq!(win.to_local(12), None);
        assert_eq!(win.to_global(7), 11);
        assert!(win.contains(4) && !win.contains(12));
    }

    #[test]
    fn window_cache_shares_contexts_across_consumers() {
        let g = graph(3, 4);
        let layers = LayerMap::from_graph(&g).unwrap();
        let cache = Arc::new(WindowCache::new(&g, SeamPolicy::Cut));
        assert!(cache.is_empty());
        let a = cache.get_or_build(&g, layers.det_range(0, 3), (0, 3));
        let b = cache.get_or_build(&g, layers.det_range(0, 3), (0, 3));
        // Same Arc, not a rebuilt copy.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        let c = cache.get_or_build(&g, layers.det_range(2, 5), (2, 5));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        // The cached context matches a direct build.
        let direct = WindowContext::build(&g, layers.det_range(0, 3), SeamPolicy::Cut);
        assert_eq!(a.graph().num_edges(), direct.graph().num_edges());
        assert_eq!(a.window().det_range(), direct.window().det_range());
        assert_eq!(
            a.paths().boundary_distance(0),
            direct.paths().boundary_distance(0)
        );
        assert_eq!(cache.seam_policy(), SeamPolicy::Cut);
    }

    #[test]
    fn window_cache_is_shareable_across_threads() {
        let g = graph(3, 4);
        let layers = LayerMap::from_graph(&g).unwrap();
        let cache = Arc::new(WindowCache::new(&g, SeamPolicy::Cut));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let g = &g;
                let layers = &layers;
                scope.spawn(move || {
                    for lo in 0..3u32 {
                        let ctx = cache.get_or_build(g, layers.det_range(lo, lo + 2), (lo, lo + 2));
                        assert_eq!(ctx.graph().num_detectors(), 8);
                    }
                });
            }
        });
        // Racing callers of the same range serialize on its once-cell:
        // every range is built exactly once, never discarded.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.builds(), 3, "one build per distinct range");
    }

    #[test]
    fn contended_builders_of_one_key_build_exactly_once() {
        // Many threads racing the *same* cold key: the old code released
        // the lock between lookup and insert, so every racer ran the
        // expensive build and all but one result was discarded. The
        // entry-style once-cell pins one build, one retained Arc.
        let g = graph(3, 4);
        let layers = LayerMap::from_graph(&g).unwrap();
        let cache = Arc::new(WindowCache::new(&g, SeamPolicy::Cut));
        let barrier = std::sync::Barrier::new(8);
        let ctxs: Vec<Arc<WindowContext>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let (g, layers, barrier) = (&g, &layers, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        cache.get_or_build(g, layers.det_range(1, 4), (1, 4))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.builds(), 1, "contended key must build exactly once");
        for ctx in &ctxs {
            assert!(
                Arc::ptr_eq(ctx, &ctxs[0]),
                "a single Arc circulates for the key"
            );
        }
    }

    /// Every row of `shared`, cell for cell, against a fresh table of
    /// `own`, and the hops of its rows' paths against `own`'s
    /// [`DecodingGraph::dijkstra`].
    fn assert_same_cells(shared: &PathTable, own: &DecodingGraph) {
        let fresh = PathTable::build(own);
        let bd = own.boundary_node();
        assert_eq!(shared.num_detectors(), fresh.num_detectors());
        for a in 0..=bd {
            let (got, want) = (shared.row(a), fresh.row(a));
            let (hops, want_hops) = (shared.kernel_hops(a), own.dijkstra(a).hops);
            for b in 0..=bd {
                assert_eq!(got.distance(b), want.distance(b), "({a},{b})");
                assert_eq!(got.path_obs(b), want.path_obs(b), "({a},{b})");
                assert_eq!(hops[b as usize], want_hops[b as usize], "({a},{b})");
                let class = shared.path_class(a, b);
                assert_eq!(class, fresh.path_class(a, b), "({a},{b})");
            }
        }
    }

    #[test]
    fn content_equal_windows_share_one_path_table() {
        let code = RotatedSurfaceCode::new(5);
        let g = DecodingGraph::from_dem(&extract_dem(
            &code.memory_z_circuit(20, &NoiseModel::sd6(1e-3)),
        ));
        let layers = LayerMap::from_graph(&g).unwrap();
        let cache = WindowCache::new(&g, SeamPolicy::Cut);
        let ctx = |lo, hi| cache.get_or_build(&g, layers.det_range(lo, hi), (lo, hi));
        let (a, b) = (ctx(4, 10), ctx(9, 15));
        assert!(!Arc::ptr_eq(&a, &b), "each range keeps its own window");
        assert_ne!(a.graph().coords(), b.graph().coords());
        assert!(std::ptr::eq(a.paths(), b.paths()), "two bulk windows");
        assert_same_cells(a.paths(), a.graph());
        assert_same_cells(b.paths(), b.graph());
        // Another width and the first window are other local graphs.
        for other in [ctx(4, 9), ctx(0, 6)] {
            assert!(!std::ptr::eq(a.paths(), other.paths()));
        }
        assert_eq!(cache.builds(), 4, "builds count ranges, not tables");
    }

    #[test]
    fn tables_differing_in_one_weight_or_neighbour_order_are_not_merged() {
        // 0–1 twice at 5 (masks 1 then 2), 1–2 at 3, 2 to the boundary at
        // 4. The first parallel copy sets 0 → 1's mask, so swapping the
        // copies changes node 0's neighbour order and a cell with it.
        let edge = |u, v, weight, obs| Edge {
            u,
            v,
            weight,
            probability: 0.01,
            obs,
        };
        let base = [
            edge(0, 1, 5, 1),
            edge(0, 1, 5, 2),
            edge(1, 2, 3, 0),
            edge(2, 3, 4, 0),
        ];
        let table = |edges: &[Edge]| {
            let g = DecodingGraph::from_parts(3, 2, edges.to_vec(), vec![[0.0; 3]; 3]);
            PathTable::build(&g)
        };
        let cache = WindowCache::new(&graph(3, 4), SeamPolicy::Cut);
        let a = cache.intern(table(&base));
        assert!(Arc::ptr_eq(&a, &cache.intern(table(&base))), "equal inputs");
        let mut heavier = base;
        heavier[2].weight = 4;
        let mut swapped = base;
        swapped.swap(0, 1);
        for other in [heavier, swapped] {
            let own = cache.intern(table(&other));
            assert!(!Arc::ptr_eq(&a, &own));
            assert_ne!(
                (a.distance(0, 2), a.path_obs(0, 1)),
                (own.distance(0, 2), own.path_obs(0, 1))
            );
            assert!(Arc::ptr_eq(&own, &cache.intern(table(&other))));
        }
        assert_eq!(cache.tables.lock().unwrap().len(), 3);
    }

    #[test]
    #[should_panic(expected = "different parent graph")]
    fn window_cache_rejects_a_different_parent() {
        let g = graph(3, 4);
        let other = graph(3, 6);
        let cache = WindowCache::new(&g, SeamPolicy::Cut);
        let _ = cache.get_or_build(&other, 0..4, (0, 1));
    }

    #[test]
    #[should_panic(expected = "different parent graph")]
    fn window_cache_rejects_same_shape_different_weights() {
        // Same detector count and structure, different error rates: the
        // weight-range fingerprint still tells the graphs apart.
        let code = RotatedSurfaceCode::new(3);
        let a = DecodingGraph::from_dem(&extract_dem(
            &code.memory_z_circuit(4, &NoiseModel::uniform(1e-3)),
        ));
        let b = DecodingGraph::from_dem(&extract_dem(
            &code.memory_z_circuit(4, &NoiseModel::uniform(2e-3)),
        ));
        let cache = WindowCache::new(&a, SeamPolicy::Cut);
        let _ = cache.get_or_build(&b, 0..4, (0, 1));
    }

    #[test]
    fn every_window_detector_reaches_the_boundary() {
        // Spacelike boundary edges exist in every layer, so even a
        // mid-stream window with both seams cut stays decodable.
        let g = graph(5, 8);
        let layers = LayerMap::from_graph(&g).unwrap();
        let win = GraphWindow::extract(&g, layers.det_range(3, 6), SeamPolicy::Cut);
        let sp = win.graph().dijkstra(win.graph().boundary_node());
        assert!(sp.dist.iter().all(|&d| d != i64::MAX));
    }
}
