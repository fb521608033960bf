//! The Pinball-style batch predecoder (L1 tier).
//!
//! Pinball batches consecutive measurement rounds and resolves the two
//! overwhelmingly common syndrome shapes *before* any matching solver
//! runs:
//!
//! 1. **Measurement-error pairs.** A flipped measurement fires the same
//!    stabilizer in two consecutive rounds; the two defects sit on a
//!    time-like edge of the decoding graph. Pinball cancels them with a
//!    pure bit operation per round pair — `and = curr & prev;
//!    curr ^= and; prev ^= and` — committing the time edge's correction.
//! 2. **Weight-≤2 trivial chains.** Isolated components of the decoding
//!    subgraph: a lone defect next to the lattice boundary, or an
//!    isolated adjacent pair. Both are resolved by a single local edge
//!    lookup, exactly like the Clique match units.
//!
//! A batch is classified **non-complex** only when that local resolution
//! is provably the *unique* minimum-weight matching of the whole batch:
//!
//! * a lone defect's direct boundary edge must be strictly cheaper than
//!   every alternative boundary path;
//! * a pair's connecting edge must be strictly cheaper than both the
//!   cheapest alternative path between the two defects and the cost of
//!   sending each to the boundary separately;
//! * components must be weight-isolated: any path between defects of
//!   different components must cost strictly more than resolving both
//!   components locally (ties escalate — a tied matcher may legally pick
//!   a different-parity correction).
//!
//! Distances in these proofs treat the boundary as a sink (a chain may
//! end there, never pass through), and every one is a pure function of
//! the parent decoding graph, so none is searched for at decode time:
//!
//! * a defect's **boundary escape** is read from a static vector built
//!   with the graph;
//! * **cross distances** between batch defects are read from per-source
//!   rows that are filled by one Dijkstra the first time a source is
//!   asked and kept for the life of the scenario — both live in
//!   [`decoding_graph::NoTransitTable`], one copy per parent graph,
//!   shared by every window, shot and tenant;
//! * only the two *alternative-path* questions (is there a second way
//!   across this one edge at the edge's own price?) still search, with
//!   the edge excluded and the budget capped at one edge weight — a
//!   handful of heap pops.
//!
//! The all-pairs [`decoding_graph::PathTable`] cannot stand in for the
//! rows: it lets paths transit the boundary, so for any lone boundary
//! defect `u` it reports `T(u, v) ≤ esc(u) + esc(v) = cost + esc(v)` —
//! exactly the isolation bar — and would reject every batch.
//!
//! Everything else makes the batch **complex**: the predecoder still
//! cancels measurement pairs and strips trivial chains, but the residual
//! syndrome is escalated to the full L2 decoder (Promatch/MWPM/…). The
//! uniqueness proof is what makes L1 commits bit-identical to the
//! un-predecoded path whenever `complex == false` — the differential
//! equivalence contract `tests/predecode.rs` pins for every Table-2
//! decoder kind.

use decoding_graph::latency::cycles_to_ns;
use decoding_graph::packed::{self, WordSpan};
use decoding_graph::{DecodingGraph, DecodingSubgraph, DetectorId, NoTransitTable};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Cycles charged by the batch predecoder per window: one cycle for the
/// round-cancellation bit operation plus one for the local match units
/// (both are combinational arrays in the Pinball design).
pub const BATCH_PREDECODE_CYCLES: u64 = 2;

/// Largest batch the L1 match units attempt to classify; denser windows
/// escalate immediately (the Pinball design has a fixed number of match
/// units, and dense batches are overwhelmingly complex anyway).
pub const MAX_L1_DEFECTS: usize = 12;

/// Sentinel for "no path within the probe cap"; also what
/// [`NoTransitTable::escape`] reports for a component with no boundary.
const UNREACHED: i64 = i64::MAX;

/// Effectively-uncapped probe budget of the search-based test oracle
/// (kept far from `i64::MAX` so caps derived from it survive
/// `saturating_add`).
#[cfg(test)]
const PROBE_CAP: i64 = i64::MAX / 4;

/// One locally resolved match: the correction the L1 tier commits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LocalMatch {
    /// The matched detector.
    pub a: DetectorId,
    /// Its partner (`None` = the lattice boundary).
    pub b: Option<DetectorId>,
    /// Observable flips of the committing edge.
    pub obs: u64,
    /// Weight of the committing edge (scaled integer).
    pub weight: i64,
}

/// Why a batch left the verified L1 fast path. Identical between the
/// sparse and packed datapaths (the packed ≡ sparse equality tests pin
/// it), and carried on the Escalate trace event so postmortems can tell
/// a defect-count overflow from a verification failure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum EscalateCause {
    /// The batch never left the fast path (non-complex or empty).
    #[default]
    None = 0,
    /// More than [`MAX_L1_DEFECTS`] active defects: the verified
    /// resolution was never attempted.
    Overflow = 1,
    /// The verified resolution was attempted and failed — a component
    /// was non-trivial or a local optimum could not be proven unique.
    Ambiguous = 2,
}

impl EscalateCause {
    /// Stable wire/trace code.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`EscalateCause::code`].
    pub fn from_code(code: u8) -> Option<EscalateCause> {
        match code {
            0 => Some(EscalateCause::None),
            1 => Some(EscalateCause::Overflow),
            2 => Some(EscalateCause::Ambiguous),
            _ => None,
        }
    }

    /// Human-readable label for dump rendering.
    pub fn label(self) -> &'static str {
        match self {
            EscalateCause::None => "none",
            EscalateCause::Overflow => "overflow",
            EscalateCause::Ambiguous => "ambiguous",
        }
    }
}

/// Result of predecoding one batch (one sliding-window step).
#[derive(Clone, Debug, PartialEq)]
pub struct BatchOutcome {
    /// Locally resolved matches, in deterministic (sorted-input) order.
    pub matches: Vec<LocalMatch>,
    /// Defects left for the L2 decoder (sorted). Empty iff the batch is
    /// not complex.
    pub residual: Vec<DetectorId>,
    /// The batch needed escalation: `residual` must be decoded by the
    /// full decoder.
    pub complex: bool,
    /// Why the batch left the fast path ([`EscalateCause::None`] when it
    /// did not).
    pub cause: EscalateCause,
    /// Measurement-error pairs cancelled by the round-cancellation
    /// sweep (complex batches only; non-complex batches resolve their
    /// time pairs as trivial chains).
    pub cancelled_pairs: usize,
    /// Modeled predecode latency in nanoseconds.
    pub latency_ns: f64,
}

impl BatchOutcome {
    /// Total weight of the locally committed matches.
    pub fn weight(&self) -> i64 {
        self.matches.iter().map(|m| m.weight).sum()
    }
}

/// Cumulative L1 batch counters, kept by [`BatchPredecoder`] across its
/// lifetime. Empty batches (no active defects) count toward neither
/// figure; every other batch lands in exactly one. The service telemetry
/// layer folds these into its per-shard resolve/escalate counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L1BatchStats {
    /// Batches fully resolved at L1 (empty residual).
    pub resolved: u64,
    /// Batches whose residual escalated to the L2 solver.
    pub escalated: u64,
}

/// The batch predecoder.
///
/// Holds the precomputed time-adjacency (which detector is the same
/// stabilizer one round earlier), a handle on the parent graph's
/// [`NoTransitTable`] (escape vector + memoized distance rows; shared
/// with every other predecoder built from the same table) and a
/// reusable decoding subgraph, so steady-state predecoding allocates
/// nothing beyond the outcome.
#[derive(Clone, Debug)]
pub struct BatchPredecoder<'a> {
    graph: &'a DecodingGraph,
    /// Boundary escapes and cross distances of `graph`, by lookup.
    table: Arc<NoTransitTable>,
    /// `time_prev[d]` = the same-coordinate detector one layer earlier,
    /// when the decoding graph has an edge between them.
    time_prev: Vec<Option<DetectorId>>,
    /// Uniform time-like stride: `Some(L)` when every time edge in the
    /// graph satisfies `time_prev[d] == d - L` for one constant `L`
    /// (layer-contiguous detector ids with identical per-layer layout).
    /// This is what lets [`BatchPredecoder::cancel_rounds_packed`] align
    /// consecutive layers with a single multi-word shift.
    stride: Option<u32>,
    /// Global bitset: bit `d` set iff `time_prev[d].is_some()`. Masks
    /// the packed cancellation so spurious `d / d - L` coincidences
    /// without a time edge never pair.
    has_prev: Vec<u64>,
    sg: DecodingSubgraph,
    /// Scratch: `active[d]` while a call is in flight.
    active: Vec<bool>,
    /// Packed scratch: live defect words during a packed call.
    pw: Vec<u64>,
    /// Packed scratch: stride-shifted copy / pair-clear mask.
    pshift: Vec<u64>,
    /// Packed scratch: the per-layer AND (cancellation) mask.
    pand: Vec<u64>,
    /// Packed scratch: window-local slice of [`Self::has_prev`].
    pprev: Vec<u64>,
    /// Alternative-path probe scratch: tentative distances (boundary
    /// node included).
    dist: Vec<i64>,
    /// Alternative-path probe scratch: nodes whose `dist` entry must be
    /// reset.
    touched: Vec<u32>,
    /// Alternative-path probe scratch: the frontier heap.
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    /// Cumulative resolve/escalate counters over this instance's life.
    stats: L1BatchStats,
    /// Test oracle: answer escape and cross questions by searching the
    /// graph, as the predecoder did before the table existed.
    #[cfg(test)]
    search_oracle: bool,
}

impl<'a> BatchPredecoder<'a> {
    /// Builds the predecoder over `graph` with a private
    /// [`NoTransitTable`]. Drivers that decode one graph from several
    /// places should share one table through
    /// [`BatchPredecoder::with_table`] instead.
    pub fn new(graph: &'a DecodingGraph) -> Self {
        Self::with_table(graph, Arc::new(NoTransitTable::new(graph)))
    }

    /// Builds the predecoder over `graph`, precomputing the time-like
    /// adjacency from the detector coordinates (same `(x, y)`, layers
    /// one apart, connected by an edge) and reading distances from
    /// `table`, which must have been built from the same graph.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not cover `graph`'s detectors.
    pub fn with_table(graph: &'a DecodingGraph, table: Arc<NoTransitTable>) -> Self {
        let n = graph.num_detectors() as usize;
        assert_eq!(
            table.num_detectors(),
            n,
            "no-transit table built for a different graph"
        );
        let coords = graph.coords();
        let bd = graph.boundary_node();
        let mut time_prev: Vec<Option<DetectorId>> = vec![None; n];
        for e in graph.edges() {
            if e.u == bd || e.v == bd {
                continue;
            }
            let (cu, cv) = (coords[e.u as usize], coords[e.v as usize]);
            if (cu[0] - cv[0]).abs() > 1e-9 || (cu[1] - cv[1]).abs() > 1e-9 {
                continue;
            }
            let dz = cv[2] - cu[2];
            if (dz - 1.0).abs() < 1e-9 {
                time_prev[e.v as usize] = Some(e.u);
            } else if (dz + 1.0).abs() < 1e-9 {
                time_prev[e.u as usize] = Some(e.v);
            }
        }
        let mut has_prev = vec![0u64; packed::words_for(n)];
        let mut stride: Option<u32> = None;
        let mut uniform = true;
        for (d, p) in time_prev.iter().enumerate() {
            if let Some(p) = *p {
                has_prev[d / packed::WORD_BITS] |= 1u64 << (d % packed::WORD_BITS);
                if (p as usize) < d {
                    let off = d as u32 - p;
                    match stride {
                        None => stride = Some(off),
                        Some(s) if s == off => {}
                        Some(_) => uniform = false,
                    }
                } else {
                    uniform = false;
                }
            }
        }
        BatchPredecoder {
            graph,
            table,
            time_prev,
            stride: stride.filter(|_| uniform),
            has_prev,
            sg: DecodingSubgraph::new(),
            active: vec![false; n],
            pw: Vec::new(),
            pshift: Vec::new(),
            pand: Vec::new(),
            pprev: Vec::new(),
            dist: vec![UNREACHED; n + 1],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            stats: L1BatchStats::default(),
            #[cfg(test)]
            search_oracle: false,
        }
    }

    /// Cumulative batch counters since construction: how many non-empty
    /// batches L1 fully resolved vs. escalated to the solver.
    pub fn batch_stats(&self) -> L1BatchStats {
        self.stats
    }

    /// Tallies `out` into the lifetime counters. Empty batches (nothing
    /// matched, nothing cancelled, nothing escalated) are not counted.
    fn tally(&mut self, out: BatchOutcome) -> BatchOutcome {
        if !out.residual.is_empty() {
            self.stats.escalated += 1;
        } else if !out.matches.is_empty() || out.cancelled_pairs > 0 {
            self.stats.resolved += 1;
        }
        out
    }

    /// The uniform time-like stride, when the graph has one: `Some(L)`
    /// iff every measurement edge connects `d` to exactly `d - L`. This
    /// is the precondition for the word-parallel cancellation fast path;
    /// [`BatchPredecoder::cancel_rounds_packed`] falls back to the
    /// sparse sweep when it is `None`.
    pub fn time_stride(&self) -> Option<u32> {
        self.stride
    }

    /// Shortest distance from `v` to the boundary ([`UNREACHED`] when
    /// its component has none).
    fn escape(&mut self, v: DetectorId) -> i64 {
        #[cfg(test)]
        if self.search_oracle {
            let bd = self.graph.boundary_node();
            return self.probe(v, bd, PROBE_CAP, None);
        }
        self.table.escape(v)
    }

    /// Whether some `u → v` chain that does not transit the boundary
    /// costs at most `cap`.
    fn reaches(&mut self, u: DetectorId, v: DetectorId, cap: i64) -> bool {
        #[cfg(test)]
        if self.search_oracle {
            return self.probe(u, v, cap, None) != UNREACHED;
        }
        self.table.within(u, v, cap)
    }

    /// Capped Dijkstra probe: the cheapest path `src → dst` of cost
    /// ≤ `cap`, optionally excluding one direct edge (to ask "is there
    /// an *alternative* at this price?"). Returns [`UNREACHED`] when
    /// every such path costs more than `cap` — the only fact the
    /// classifier needs, so the search never expands past the cap. The
    /// boundary node is a sink: matching paths may end there but never
    /// pass through it. Decoding only ever calls it with the edge
    /// excluded and `cap` = that edge's weight; everything wider is a
    /// [`NoTransitTable`] lookup.
    fn probe(&mut self, src: u32, dst: u32, cap: i64, exclude: Option<(u32, u32)>) -> i64 {
        let bd = self.graph.boundary_node();
        debug_assert!(src != bd);
        self.heap.clear();
        self.dist[src as usize] = 0;
        self.touched.push(src);
        self.heap.push(Reverse((0, src)));
        let mut found = UNREACHED;
        while let Some(Reverse((d, u))) = self.heap.pop() {
            if d > cap {
                break;
            }
            if d > self.dist[u as usize] {
                continue;
            }
            if u == dst {
                found = d;
                break;
            }
            if u == bd {
                continue; // sink: no transit through the boundary
            }
            for (v, e) in self.graph.neighbors(u) {
                if let Some((x, y)) = exclude {
                    if (u == x && v == y) || (u == y && v == x) {
                        continue;
                    }
                }
                let nd = d.saturating_add(e.weight);
                if nd <= cap && nd < self.dist[v as usize] {
                    self.dist[v as usize] = nd;
                    self.touched.push(v);
                    self.heap.push(Reverse((nd, v)));
                }
            }
        }
        for &t in &self.touched {
            self.dist[t as usize] = UNREACHED;
        }
        self.touched.clear();
        found
    }

    /// Weight of `d`'s direct boundary edge, or [`UNREACHED`] if it has
    /// none.
    fn boundary_weight(&self, d: DetectorId) -> i64 {
        let bd = self.graph.boundary_node();
        self.graph
            .edge_between(d, bd)
            .map_or(UNREACHED, |e| e.weight)
    }

    /// Verifies that resolving component `comp` (a trivial shape) through
    /// its own edge is strictly cheaper than every alternative, and
    /// returns the resolution's `(match, cost)`. `None` ⇒ ambiguous or
    /// suboptimal ⇒ the component must escalate.
    fn verify_component(
        &mut self,
        nodes: &[DetectorId],
        comp: &[usize],
    ) -> Option<(LocalMatch, i64)> {
        let bd = self.graph.boundary_node();
        match comp {
            [slot] => {
                let a = nodes[*slot];
                let e = self.graph.edge_between(a, bd)?;
                let (w, obs) = (e.weight, e.obs);
                // The direct boundary edge must be the unique cheapest
                // way out — a tied alternative could carry different
                // observable parity.
                if self.probe(a, bd, w, Some((a, bd))) != UNREACHED {
                    return None;
                }
                Some((
                    LocalMatch {
                        a,
                        b: None,
                        obs,
                        weight: w,
                    },
                    w,
                ))
            }
            [sa, sb] => self.verify_pair(nodes[*sa], nodes[*sb]),
            _ => None,
        }
    }

    /// Verifies that matching `a` directly to `b` is strictly cheaper
    /// than splitting the pair to the boundary and than every indirect
    /// `a → b` path, and returns the resolution's `(match, cost)`.
    fn verify_pair(&mut self, a: DetectorId, b: DetectorId) -> Option<(LocalMatch, i64)> {
        let e = self.graph.edge_between(a, b)?;
        let (w, obs) = (e.weight, e.obs);
        if self
            .boundary_weight(a)
            .saturating_add(self.boundary_weight(b))
            <= w
        {
            return None;
        }
        if self.probe(a, b, w, Some((a, b))) != UNREACHED {
            return None;
        }
        Some((
            LocalMatch {
                a: a.min(b),
                b: Some(a.max(b)),
                obs,
                weight: w,
            },
            w,
        ))
    }

    /// Exchange-argument isolation: stripping `members` at `cost` is
    /// provably part of *every* minimum-weight matching of the batch iff
    /// every other batch defect `v` is further from every member than
    /// `cost` plus `v`'s own shortest boundary escape (any matching that
    /// pairs into `members` can then be strictly improved by resolving
    /// `members` locally and routing `v` to the boundary).
    fn isolated_from_rest(
        &mut self,
        members: &[DetectorId],
        cost: i64,
        all: &[DetectorId],
    ) -> bool {
        for &v in all {
            if members.contains(&v) {
                continue;
            }
            // Saturates to `i64::MAX` when `v` has no escape; an
            // unreachable `v` is still not within that cap.
            let cap = cost.saturating_add(self.escape(v));
            for &u in members {
                if self.reaches(u, v, cap) {
                    return false;
                }
            }
        }
        true
    }

    /// The same-stabilizer detector one round earlier, if the decoding
    /// graph carries a measurement (time-like) edge to it.
    pub fn time_prev(&self, d: DetectorId) -> Option<DetectorId> {
        self.time_prev[d as usize]
    }

    /// Pinball round cancellation over a batch of active defects.
    ///
    /// `dets` must be sorted (ascending detector id ⇒ ascending layer).
    /// Sweeps the batch oldest round first: whenever a defect and its
    /// same-stabilizer predecessor are both active, both are cleared and
    /// the pair `(prev, curr)` is recorded — the bitwise
    /// `and = curr & prev; curr ^= and; prev ^= and` of the Pinball
    /// paper, expressed on sparse defect lists. Chains of an odd length
    /// leave their newest defect standing, exactly like the sequential
    /// bit operation.
    ///
    /// Returns `(survivors, cancelled_pairs)`; survivors stay sorted.
    pub fn cancel_rounds(
        &mut self,
        dets: &[DetectorId],
    ) -> (Vec<DetectorId>, Vec<(DetectorId, DetectorId)>) {
        for &d in dets {
            self.active[d as usize] = true;
        }
        let mut pairs = Vec::new();
        // Ascending id = ascending layer (LayerMap detectors are
        // layer-contiguous), so each defect sees its predecessor's
        // post-cancellation state: the sequential pairwise sweep.
        for &d in dets {
            if !self.active[d as usize] {
                continue;
            }
            if let Some(p) = self.time_prev[d as usize] {
                if self.active[p as usize] {
                    self.active[p as usize] = false;
                    self.active[d as usize] = false;
                    pairs.push((p, d));
                }
            }
        }
        let survivors: Vec<DetectorId> = dets
            .iter()
            .copied()
            .filter(|&d| self.active[d as usize])
            .collect();
        for &d in dets {
            self.active[d as usize] = false;
        }
        (survivors, pairs)
    }

    /// Word-parallel Pinball round cancellation: the literal
    /// `and = curr & prev; curr ^= and; prev ^= and` of the paper, over
    /// packed `u64` words.
    ///
    /// `words` is a packed window: bit `i` is detector `base + i`.
    /// Layers are swept oldest-first in chunks of the uniform stride
    /// `L`: [`packed::shl_into`] aligns each layer with the one below
    /// it, an AND against the live words and the measurement-edge mask
    /// yields every cancelling pair of the layer at once, and two XORs
    /// clear both endpoints. Within one layer the pairs are independent
    /// (`d ↦ d - L` is injective), and sweeping layers in ascending
    /// order preserves odd-chain semantics, so the result — survivors
    /// *and* the recorded pair list, in order — is bit-identical to
    /// [`BatchPredecoder::cancel_rounds`] on the sparse form. Graphs
    /// without a uniform stride (see [`BatchPredecoder::time_stride`])
    /// fall back to the sparse sweep.
    pub fn cancel_rounds_packed(
        &mut self,
        words: &[u64],
        base: DetectorId,
    ) -> (Vec<DetectorId>, Vec<(DetectorId, DetectorId)>) {
        let Some(stride) = self.stride else {
            let mut dets = Vec::new();
            packed::for_each_set_bit(words, |b| dets.push(base + b as DetectorId));
            return self.cancel_rounds(&dets);
        };
        let l = stride as usize;
        let nbits = words.len() * packed::WORD_BITS;
        // Window-local slice of the measurement-edge mask: one funnel
        // shift per word, no per-detector lookups.
        let mut pprev = std::mem::take(&mut self.pprev);
        WordSpan::new(base as usize, base as usize + nbits)
            .extract_into(&self.has_prev, &mut pprev);
        let mut w = std::mem::take(&mut self.pw);
        w.clear();
        w.extend_from_slice(words);
        let mut shifted = std::mem::take(&mut self.pshift);
        shifted.resize(w.len(), 0);
        let mut and = std::mem::take(&mut self.pand);
        and.resize(w.len(), 0);
        let mut pairs = Vec::new();
        let mut layer = 1usize;
        while layer * l < nbits {
            // shifted bit i = live bit i - L: the layer below, aligned.
            packed::shl_into(&w, l, &mut shifted);
            for i in 0..w.len() {
                and[i] = w[i] & shifted[i] & pprev[i];
            }
            packed::mask_to_range(&mut and, layer * l, (layer + 1) * l);
            if and.iter().any(|&x| x != 0) {
                packed::for_each_set_bit(&and, |b| {
                    pairs.push((base + (b - l) as DetectorId, base + b as DetectorId));
                });
                // curr ^= and; prev ^= and >> L.
                packed::xor_accumulate(&mut w, &and);
                packed::shr_into(&and, l, &mut shifted);
                packed::xor_accumulate(&mut w, &shifted);
            }
            layer += 1;
        }
        let mut survivors = Vec::new();
        packed::for_each_set_bit(&w, |b| survivors.push(base + b as DetectorId));
        self.pprev = pprev;
        self.pw = w;
        self.pshift = shifted;
        self.pand = and;
        (survivors, pairs)
    }

    /// Whether `dets` would be classified non-complex: every component of
    /// its decoding subgraph is a trivial chain (lone boundary-adjacent
    /// defect or isolated adjacent pair) whose local resolution is the
    /// provably unique minimum-weight matching of the batch.
    pub fn is_trivial(&mut self, dets: &[DetectorId]) -> bool {
        if dets.is_empty() {
            return true;
        }
        if dets.len() > MAX_L1_DEFECTS {
            return false;
        }
        self.sg.rebuild(self.graph, dets);
        self.try_resolve_verified().is_some()
    }

    /// Attempts the verified non-complex resolution of the current
    /// subgraph. Every component must be a trivial shape, every local
    /// edge must strictly beat its alternatives, and components must be
    /// weight-isolated from one another (see module docs). `None` ⇒
    /// something is ambiguous, suboptimal, or non-trivial and the batch
    /// must escalate.
    fn try_resolve_verified(&mut self) -> Option<Vec<LocalMatch>> {
        let comps = self.sg.components();
        let nodes = self.sg.nodes().to_vec();
        let deg = self.sg.degrees().to_vec();
        let mut matches = Vec::with_capacity(comps.len());
        let mut costs = Vec::with_capacity(comps.len());
        for comp in &comps {
            if comp.len() == 2 && !(deg[comp[0]] == 1 && deg[comp[1]] == 1) {
                return None;
            }
            let (m, cost) = self.verify_component(&nodes, comp)?;
            matches.push(m);
            costs.push(cost);
        }
        // Weight isolation: a matching that pairs defects of *different*
        // components must cost strictly more than resolving both
        // components locally. With every cross distance above that bar,
        // any alternating cycle through k components pays k cross paths
        // against 2×(k local resolutions) — strictly worse, so the local
        // matching is the unique optimum.
        for i in 0..comps.len() {
            for j in i + 1..comps.len() {
                let cap = costs[i].saturating_add(costs[j]);
                for &su in &comps[i] {
                    for &sv in &comps[j] {
                        if self.reaches(nodes[su], nodes[sv], cap) {
                            return None;
                        }
                    }
                }
            }
        }
        Some(matches)
    }

    /// Predecodes one batch of active defects (sorted detector ids).
    ///
    /// Non-complex batches — every subgraph component is a trivial chain
    /// whose local resolution is verified to be the unique minimum-weight
    /// matching of the batch — are fully resolved at L1. Complex batches
    /// run the round-cancellation sweep, strip the verified trivial
    /// chains that survive it, and escalate the rest as `residual`.
    pub fn decode_batch(&mut self, dets: &[DetectorId]) -> BatchOutcome {
        let latency_ns = cycles_to_ns(BATCH_PREDECODE_CYCLES);
        if dets.is_empty() {
            return BatchOutcome {
                matches: Vec::new(),
                residual: Vec::new(),
                complex: false,
                cause: EscalateCause::None,
                cancelled_pairs: 0,
                latency_ns,
            };
        }
        self.sg.rebuild(self.graph, dets);
        let mut cause = EscalateCause::Overflow;
        if dets.len() <= MAX_L1_DEFECTS {
            if let Some(matches) = self.try_resolve_verified() {
                return self.tally(BatchOutcome {
                    matches,
                    residual: Vec::new(),
                    complex: false,
                    cause: EscalateCause::None,
                    cancelled_pairs: 0,
                    latency_ns,
                });
            }
            cause = EscalateCause::Ambiguous;
        }
        // Complex batch: the verified all-trivial fast path failed. Run
        // the round-cancellation sweep, then strip what can be proven.
        let (survivors, cancelled) = self.cancel_rounds(dets);
        let out = self.complex_tail(dets, survivors, cancelled, cause, latency_ns);
        self.tally(out)
    }

    /// Predecodes one packed batch: bit `i` of `words` is detector
    /// `base + i`. Produces the same [`BatchOutcome`] — matches,
    /// residual, pair list and all — as [`BatchPredecoder::decode_batch`]
    /// on the sparse form of `words`, but the hot front of the pipeline
    /// runs on words: the complexity check is a popcount scan
    /// ([`packed::popcount_exceeds`]) and the round cancellation is the
    /// AND/XOR sweep of [`BatchPredecoder::cancel_rounds_packed`]. The
    /// verification behind a commit is unchanged — it is what makes L1
    /// commits safe, packed or not.
    pub fn decode_batch_packed(&mut self, words: &[u64], base: DetectorId) -> BatchOutcome {
        let latency_ns = cycles_to_ns(BATCH_PREDECODE_CYCLES);
        if !packed::popcount_exceeds(words, 0) {
            return BatchOutcome {
                matches: Vec::new(),
                residual: Vec::new(),
                complex: false,
                cause: EscalateCause::None,
                cancelled_pairs: 0,
                latency_ns,
            };
        }
        let mut dets = Vec::new();
        let mut cause = EscalateCause::Overflow;
        if !packed::popcount_exceeds(words, MAX_L1_DEFECTS as u32) {
            packed::for_each_set_bit(words, |b| dets.push(base + b as DetectorId));
            self.sg.rebuild(self.graph, &dets);
            if let Some(matches) = self.try_resolve_verified() {
                return self.tally(BatchOutcome {
                    matches,
                    residual: Vec::new(),
                    complex: false,
                    cause: EscalateCause::None,
                    cancelled_pairs: 0,
                    latency_ns,
                });
            }
            cause = EscalateCause::Ambiguous;
        } else {
            packed::for_each_set_bit(words, |b| dets.push(base + b as DetectorId));
        }
        let (survivors, cancelled) = self.cancel_rounds_packed(words, base);
        let out = self.complex_tail(&dets, survivors, cancelled, cause, latency_ns);
        self.tally(out)
    }

    /// The shared complex-batch tail: strip only the pieces — cancelled
    /// measurement pairs and trivial surviving chains — that provably
    /// belong to every minimum-weight matching of the batch (local
    /// uniqueness plus a strict isolation margin against every other
    /// batch defect). Anything ambiguous stays in the residual for the
    /// L2 solver: shedding may never trade away a correction the solver
    /// would have gotten right.
    fn complex_tail(
        &mut self,
        dets: &[DetectorId],
        mut survivors: Vec<DetectorId>,
        cancelled: Vec<(DetectorId, DetectorId)>,
        cause: EscalateCause,
        latency_ns: f64,
    ) -> BatchOutcome {
        let mut matches: Vec<LocalMatch> = Vec::new();
        let mut cancelled_pairs = 0usize;
        for &(p, d) in &cancelled {
            let committed = self
                .verify_pair(p, d)
                .filter(|&(_, cost)| self.isolated_from_rest(&[p, d], cost, dets));
            if let Some((m, _)) = committed {
                matches.push(m);
                cancelled_pairs += 1;
            } else {
                survivors.push(p);
                survivors.push(d);
            }
        }
        survivors.sort_unstable();
        self.sg.rebuild(self.graph, &survivors);
        let comps = self.sg.components();
        let nodes = self.sg.nodes().to_vec();
        let deg = self.sg.degrees().to_vec();
        let mut residual: Vec<DetectorId> = Vec::new();
        for comp in &comps {
            let shape_ok = match comp.len() {
                1 => true,
                2 => deg[comp[0]] == 1 && deg[comp[1]] == 1,
                _ => false,
            };
            let stripped = if shape_ok {
                self.verify_component(&nodes, comp).filter(|&(_, cost)| {
                    let members: Vec<DetectorId> = comp.iter().map(|&slot| nodes[slot]).collect();
                    self.isolated_from_rest(&members, cost, dets)
                })
            } else {
                None
            };
            if let Some((m, _)) = stripped {
                matches.push(m);
            } else {
                residual.extend(comp.iter().map(|&slot| nodes[slot]));
            }
        }
        residual.sort_unstable();
        BatchOutcome {
            matches,
            residual,
            complex: true,
            cause,
            cancelled_pairs,
            latency_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoding_graph::Edge;
    use proptest::prelude::*;
    use qsim::extract_dem;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;
    use surface_code::{NoiseModel, RotatedSurfaceCode};

    fn graph(d: u32, rounds: u32) -> DecodingGraph {
        let code = RotatedSurfaceCode::new(d);
        let circuit = code.memory_z_circuit(rounds, &NoiseModel::sd6(1e-3));
        DecodingGraph::from_dem(&extract_dem(&circuit))
    }

    /// The differential oracle: the same predecoder answering every
    /// escape and cross question with a capped Dijkstra over the graph.
    fn search_oracle(g: &DecodingGraph) -> BatchPredecoder<'_> {
        let mut pre = BatchPredecoder::new(g);
        pre.search_oracle = true;
        pre
    }

    /// A (prev, curr) measurement pair: same coordinate, adjacent layers.
    fn time_pair(g: &DecodingGraph, pre: &BatchPredecoder<'_>) -> (u32, u32) {
        (0..g.num_detectors())
            .find_map(|d| pre.time_prev(d).map(|p| (p, d)))
            .expect("a time-like edge exists under circuit noise")
    }

    #[test]
    fn time_adjacency_matches_coordinates() {
        let g = graph(3, 4);
        let pre = BatchPredecoder::new(&g);
        let coords = g.coords();
        let mut found = 0;
        for d in 0..g.num_detectors() {
            if let Some(p) = pre.time_prev(d) {
                let (cp, cd) = (coords[p as usize], coords[d as usize]);
                assert_eq!(cp[0], cd[0]);
                assert_eq!(cp[1], cd[1]);
                assert_eq!(cp[2] + 1.0, cd[2]);
                assert!(g.edge_between(p, d).is_some());
                found += 1;
            }
        }
        assert!(found > 0, "circuit noise must produce time-like edges");
    }

    #[test]
    fn cancellation_annihilates_synthetic_measurement_pairs() {
        let g = graph(3, 4);
        let mut pre = BatchPredecoder::new(&g);
        let (p, d) = time_pair(&g, &pre);
        let (survivors, pairs) = pre.cancel_rounds(&[p, d]);
        assert!(survivors.is_empty());
        assert_eq!(pairs, vec![(p, d)]);
    }

    #[test]
    fn cancellation_is_self_inverse_on_synthetic_pairs() {
        // The bit identity behind `curr ^= and; prev ^= and`: XORing the
        // cancelled pairs back into the survivor set restores the
        // original batch, and re-cancelling an already-cancelled batch
        // is a no-op (and == 0).
        let g = graph(3, 5);
        let mut pre = BatchPredecoder::new(&g);
        let (p0, d0) = time_pair(&g, &pre);
        // A second, disjoint pair one layer up, if one exists.
        let extra = (0..g.num_detectors())
            .find_map(|d| {
                pre.time_prev(d)
                    .filter(|&p| p != p0 && p != d0 && d != p0 && d != d0)
                    .map(|p| (p, d))
            })
            .expect("a second time pair");
        let mut batch = vec![p0, d0, extra.0, extra.1];
        batch.sort_unstable();
        batch.dedup();
        let (survivors, pairs) = pre.cancel_rounds(&batch);
        // Toggle the cancelled defects back in: the original batch.
        let mut restored = survivors.clone();
        for (a, b) in &pairs {
            restored.push(*a);
            restored.push(*b);
        }
        restored.sort_unstable();
        assert_eq!(restored, batch, "cancel is invertible from its record");
        // Idempotence: the survivors share no further time pairs.
        let (again, more) = pre.cancel_rounds(&survivors);
        assert_eq!(again, survivors);
        assert!(more.is_empty(), "cancel(cancel(x)) == cancel(x)");
    }

    #[test]
    fn cancellation_is_a_no_op_on_empty_rounds() {
        let g = graph(3, 3);
        let mut pre = BatchPredecoder::new(&g);
        let (survivors, pairs) = pre.cancel_rounds(&[]);
        assert!(survivors.is_empty());
        assert!(pairs.is_empty());
        let out = pre.decode_batch(&[]);
        assert!(!out.complex);
        assert!(out.matches.is_empty());
        assert!(out.residual.is_empty());
    }

    #[test]
    fn odd_time_chain_leaves_the_newest_defect() {
        // Three defects on one stabilizer across three rounds: the
        // sequential pairwise sweep cancels the two oldest and leaves
        // the newest standing.
        let g = graph(3, 5);
        let mut pre = BatchPredecoder::new(&g);
        let chain = (0..g.num_detectors())
            .find_map(|d| {
                let p = pre.time_prev(d)?;
                let pp = pre.time_prev(p)?;
                Some([pp, p, d])
            })
            .expect("a three-round stabilizer chain");
        let (survivors, pairs) = pre.cancel_rounds(&chain);
        assert_eq!(pairs, vec![(chain[0], chain[1])]);
        assert_eq!(survivors, vec![chain[2]]);
    }

    #[test]
    fn trivial_batches_resolve_without_escalation() {
        let g = graph(3, 4);
        let mut pre = BatchPredecoder::new(&g);
        let (p, d) = time_pair(&g, &pre);
        let out = pre.decode_batch(&[p, d]);
        assert!(!out.complex, "an isolated time pair is a trivial chain");
        assert!(out.residual.is_empty());
        let e = g.edge_between(p, d).unwrap();
        assert_eq!(
            out.matches,
            vec![LocalMatch {
                a: p,
                b: Some(d),
                obs: e.obs,
                weight: e.weight,
            }]
        );
    }

    #[test]
    fn batch_stats_count_resolves_and_escalations() {
        let g = graph(3, 4);
        let mut pre = BatchPredecoder::new(&g);
        assert_eq!(pre.batch_stats(), L1BatchStats::default());
        // Empty batches count toward neither figure.
        let out = pre.decode_batch(&[]);
        assert!(out.matches.is_empty());
        assert_eq!(pre.batch_stats(), L1BatchStats::default());
        // A trivial time pair resolves at L1.
        let (p, d) = time_pair(&g, &pre);
        let out = pre.decode_batch(&[p, d]);
        assert!(out.residual.is_empty());
        assert_eq!(
            pre.batch_stats(),
            L1BatchStats {
                resolved: 1,
                escalated: 0
            }
        );
        // Packed calls feed the same counters.
        let mut words = vec![0u64; (g.num_detectors() as usize).div_ceil(64)];
        for det in [p, d] {
            words[det as usize / 64] |= 1u64 << (det as usize % 64);
        }
        let out = pre.decode_batch_packed(&words, 0);
        assert!(out.residual.is_empty());
        assert_eq!(pre.batch_stats().resolved, 2);
        assert_eq!(pre.batch_stats().escalated, 0);
    }

    #[test]
    fn complex_batches_cancel_then_escalate_the_residual() {
        let g = graph(5, 5);
        let mut pre = BatchPredecoder::new(&g);
        let (p, d) = time_pair(&g, &pre);
        // Glue a non-trivial chain of three space-adjacent defects to
        // the batch so it cannot be all-trivial.
        let bd = g.boundary_node();
        let mut chain = None;
        'outer: for e in g.edges() {
            if e.u == bd || e.v == bd || e.u == p || e.u == d || e.v == p || e.v == d {
                continue;
            }
            for (c, _) in g.neighbors(e.v) {
                if c != bd && c != e.u && c != p && c != d {
                    chain = Some([e.u, e.v, c]);
                    break 'outer;
                }
            }
        }
        let chain = chain.expect("an interior 3-chain exists at d = 5");
        let mut batch = vec![p, d, chain[0], chain[1], chain[2]];
        batch.sort_unstable();
        batch.dedup();
        let out = pre.decode_batch(&batch);
        assert!(out.complex);
        // The time pair cancelled (unless it touches the chain, in
        // which case the whole cluster escalates); the residual is what
        // the L2 decoder will see, and never contains a cancelled det.
        for m in &out.matches {
            assert!(!out.residual.contains(&m.a));
            if let Some(b) = m.b {
                assert!(!out.residual.contains(&b));
            }
        }
        assert!(!out.residual.is_empty());
        let mut sorted = out.residual.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, out.residual, "residual is sorted");
        assert_eq!(pre.batch_stats().escalated, 1);
    }

    #[test]
    fn interior_lone_defect_escalates() {
        let g = graph(5, 5);
        let bd = g.boundary_node();
        let interior = (0..g.num_detectors())
            .find(|&d| g.edge_between(d, bd).is_none())
            .expect("an interior detector exists at d = 5");
        let mut pre = BatchPredecoder::new(&g);
        let out = pre.decode_batch(&[interior]);
        assert!(out.complex);
        assert_eq!(out.residual, vec![interior]);
        assert!(out.matches.is_empty());
    }

    #[test]
    fn unreachable_defect_is_not_within_a_saturated_cap() {
        // Detector 0 hangs off the boundary; 2–3 form a component with
        // no boundary edge at all. In the batch {0, 2} detector 2's
        // escape is UNREACHED, so 0's isolation cap saturates to
        // i64::MAX — and the row's "unreached" must still compare as not
        // reached, or 0's provable boundary match would be withheld.
        let edge = |u, v, weight, obs| Edge {
            u,
            v,
            weight,
            probability: 0.01,
            obs,
        };
        let coords = (0..4).map(|i| [i as f64, 0.0, 0.0]).collect();
        let g = DecodingGraph::from_parts(
            4,
            1,
            vec![edge(0, 4, 700, 1), edge(0, 1, 900, 0), edge(2, 3, 900, 0)],
            coords,
        );
        let mut pre = BatchPredecoder::new(&g);
        assert_eq!(pre.escape(2), UNREACHED);
        assert!(!pre.reaches(0, 2, i64::MAX));
        let out = pre.decode_batch(&[0, 2]);
        assert_eq!(
            out.matches,
            vec![LocalMatch {
                a: 0,
                b: None,
                obs: 1,
                weight: 700,
            }]
        );
        assert_eq!(out.residual, vec![2]);
        assert_eq!(out.cause, EscalateCause::Ambiguous);
        assert_eq!(out, search_oracle(&g).decode_batch(&[0, 2]));
    }

    #[test]
    fn lookups_agree_with_search_on_every_pair_and_cap() {
        // Exhaustive on the d = 3, 9-round SD6 graph: every ordered
        // detector pair at the caps that straddle its distance, and
        // every escape.
        let g = graph(3, 9);
        let bd = g.boundary_node();
        let mut pre = BatchPredecoder::new(&g);
        let table = Arc::clone(&pre.table);
        for u in 0..g.num_detectors() {
            assert_eq!(
                table.escape(u),
                pre.probe(u, bd, PROBE_CAP, None),
                "esc {u}"
            );
            for v in 0..g.num_detectors() {
                let dist = pre.probe(u, v, PROBE_CAP, None);
                assert_ne!(dist, UNREACHED, "SD6 graphs are connected");
                for cap in [dist - 1, dist, dist + 1, 0, PROBE_CAP] {
                    assert_eq!(
                        table.within(u, v, cap),
                        pre.probe(u, v, cap, None) != UNREACHED,
                        "({u},{v}) cap {cap} dist {dist}"
                    );
                }
            }
        }
        assert_eq!(table.rows_filled(), g.num_detectors() as usize);
    }

    /// SD6 graphs at d = 3, 5, 7 (d rounds), built once.
    fn oracle_graph(pick: usize) -> &'static DecodingGraph {
        static GRAPHS: [OnceLock<DecodingGraph>; 3] =
            [OnceLock::new(), OnceLock::new(), OnceLock::new()];
        let d = [3, 5, 7][pick];
        GRAPHS[pick].get_or_init(|| graph(d, d))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The whole outcome — matches, residual, cause, cancelled pairs
        /// — of both entry points equals the search oracle's, on batches
        /// of 1..=24 draws (a random detector, or both ends of a random
        /// edge, toggled), so the verified ≤ MAX_L1_DEFECTS path and the
        /// overflow tail both run.
        #[test]
        fn table_decodes_equal_the_search_oracle(
            pick in 0usize..3,
            draws in 1usize..=24,
            seed in any::<u64>(),
        ) {
            let g = oracle_graph(pick);
            let bd = g.boundary_node();
            let mut rng = StdRng::seed_from_u64(seed);
            let n = g.num_detectors() as usize;
            let mut on = vec![false; n];
            for _ in 0..draws {
                if rng.gen() {
                    on[rng.gen_range(0..n)] ^= true;
                } else {
                    let e = g.edges()[rng.gen_range(0..g.num_edges())];
                    for end in [e.u, e.v] {
                        if end != bd {
                            on[end as usize] ^= true;
                        }
                    }
                }
            }
            let batch: Vec<u32> = (0..g.num_detectors()).filter(|&d| on[d as usize]).collect();
            let want = search_oracle(g).decode_batch(&batch);
            let mut pre = BatchPredecoder::new(g);
            prop_assert_eq!(&pre.decode_batch(&batch), &want);
            let base = batch.first().copied().unwrap_or(0);
            prop_assert_eq!(&pre.decode_batch_packed(&pack(&batch, base), base), &want);
        }
    }

    /// Packs `dets` into window words with bit `d - base`.
    fn pack(dets: &[u32], base: u32) -> Vec<u64> {
        let hi = dets.iter().max().map_or(0, |&d| (d - base) as usize + 1);
        let mut w = vec![0u64; packed::words_for(hi).max(1)];
        for &d in dets {
            let b = (d - base) as usize;
            w[b / 64] |= 1u64 << (b % 64);
        }
        w
    }

    /// Deterministic pseudo-random detector subsets without an RNG dep.
    fn random_batch(g: &DecodingGraph, seed: u64, keep_one_in: u64) -> Vec<u32> {
        let mut x = seed | 1;
        (0..g.num_detectors())
            .filter(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .is_multiple_of(keep_one_in)
            })
            .collect()
    }

    #[test]
    fn surface_code_graphs_have_a_uniform_time_stride() {
        // The packed cancellation fast path requires every measurement
        // edge to connect d to d - L for one constant L. The LayerMap
        // detector ordering of the surface-code circuits guarantees it —
        // pin that here so a silent fallback to the sparse sweep would
        // fail loudly.
        for (d, rounds) in [(3, 4), (5, 5), (3, 9)] {
            let g = graph(d, rounds);
            let pre = BatchPredecoder::new(&g);
            let stride = pre.time_stride();
            assert!(stride.is_some(), "d={d} rounds={rounds} lost the stride");
            for det in 0..g.num_detectors() {
                if let Some(p) = pre.time_prev(det) {
                    assert_eq!(det - p, stride.unwrap());
                }
            }
        }
    }

    #[test]
    fn packed_cancellation_matches_the_sparse_sweep() {
        let g = graph(3, 5);
        let mut pre = BatchPredecoder::new(&g);
        assert!(pre.time_stride().is_some());
        let mut batches: Vec<Vec<u32>> = vec![Vec::new()];
        let (p, d) = time_pair(&g, &pre);
        batches.push(vec![p, d]);
        // A three-round chain: odd length, leaves the newest standing.
        if let Some(chain) = (0..g.num_detectors()).find_map(|d| {
            let p = pre.time_prev(d)?;
            let pp = pre.time_prev(p)?;
            Some(vec![pp, p, d])
        }) {
            batches.push(chain);
        }
        for seed in 0..24u64 {
            batches.push(random_batch(&g, seed, 3 + seed % 5));
        }
        for batch in &batches {
            let (want_s, want_p) = pre.cancel_rounds(batch);
            for base in [0u32, batch.first().copied().unwrap_or(0)] {
                let words = pack(batch, base);
                let (got_s, got_p) = pre.cancel_rounds_packed(&words, base);
                assert_eq!(got_s, want_s, "survivors, base={base} batch={batch:?}");
                assert_eq!(got_p, want_p, "pairs, base={base} batch={batch:?}");
            }
        }
    }

    #[test]
    fn packed_decode_matches_sparse_decode_exactly() {
        let g = graph(5, 5);
        let mut pre = BatchPredecoder::new(&g);
        let (p, d) = time_pair(&g, &pre);
        let bd = g.boundary_node();
        let interior = (0..g.num_detectors())
            .find(|&d| g.edge_between(d, bd).is_none())
            .unwrap();
        let mut batches: Vec<Vec<u32>> = vec![Vec::new(), vec![p, d], vec![interior]];
        for seed in 0..16u64 {
            batches.push(random_batch(&g, 0xDEC0DE + seed, 4 + seed % 7));
        }
        for batch in &batches {
            let want = pre.decode_batch(batch);
            for base in [0u32, batch.first().copied().unwrap_or(0)] {
                let words = pack(batch, base);
                let got = pre.decode_batch_packed(&words, base);
                assert_eq!(got, want, "base={base} batch={batch:?}");
            }
        }
    }

    #[test]
    fn latency_is_the_fixed_two_cycle_charge() {
        let g = graph(3, 3);
        let mut pre = BatchPredecoder::new(&g);
        let out = pre.decode_batch(&[]);
        assert_eq!(out.latency_ns, cycles_to_ns(BATCH_PREDECODE_CYCLES));
        assert_eq!(out.latency_ns, 8.0);
    }
}
