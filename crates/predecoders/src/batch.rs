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
//!   asked and kept for the life of the scenario — all of this lives in
//!   [`decoding_graph::NoTransitTable`], one copy per parent graph,
//!   shared by every window, shot and tenant;
//! * the two *alternative-path* questions (is there a second way across
//!   this one edge at the edge's own price?) are a memo byte per
//!   half-edge of the same table: the first ask runs a search with the
//!   edge excluded and the budget capped at one edge weight, every
//!   later ask — any window, shot or tenant — reads the byte;
//! * an edge's weight and observable mask come from the table's flat
//!   adjacency, where the shape scan below already found the edge.
//!
//! Nor is a subgraph built: a component is a trivial chain iff its
//! defects have induced degree 0, or degree 1 with a degree-1 partner,
//! so one pass over each defect's neighbour row against a detector →
//! slot scratch classifies the whole batch, and a batch with any
//! non-trivial component leaves the verified path before a single
//! weight, distance or memo byte is read.
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
use decoding_graph::{DecodingGraph, DetectorId, NoTransitTable};
use std::sync::Arc;

#[cfg(test)]
mod reference;

/// Cycles charged by the batch predecoder per window: one cycle for the
/// round-cancellation bit operation plus one for the local match units
/// (both are combinational arrays in the Pinball design).
pub const BATCH_PREDECODE_CYCLES: u64 = 2;

/// Largest batch the L1 match units attempt to classify; denser windows
/// escalate immediately (the Pinball design has a fixed number of match
/// units, and dense batches are overwhelmingly complex anyway).
pub const MAX_L1_DEFECTS: usize = 12;

/// "No direct boundary edge"; also what [`NoTransitTable::escape`]
/// reports for a component with no boundary.
const UNREACHED: i64 = i64::MAX;

/// "Not in the list under scan" in the detector → slot scratch.
const NO_SLOT: u32 = u32::MAX;

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
/// sparse reference and the packed path (the packed ≡ sparse equality
/// tests pin it), and carried on the Escalate trace event so postmortems can tell
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

/// Result of predecoding one batch (one sliding-window step). The
/// predecoder owns the one it fills and lends it out per call.
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
/// stabilizer one round earlier) and a handle on the parent graph's
/// [`NoTransitTable`] — flat adjacency, escape vector, memoized distance
/// rows and per-edge memo bytes, shared with every other predecoder
/// built from the same table. The graph is read at construction only:
/// every fact a decode needs comes out of the table. All scratch and
/// every result list ([`BatchOutcome`] included) is owned here and
/// reused, so once the lists have reached their working size and the
/// traffic's rows and memo bytes are filled, a batch — empty, resolved
/// or escalated — allocates nothing.
#[derive(Clone, Debug)]
pub struct BatchPredecoder {
    /// Edge facts, boundary escapes and cross distances, by lookup.
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
    /// Scratch: `slot_of[d]` = `d`'s position in the list being swept or
    /// scanned, [`NO_SLOT`] everywhere outside a call (the boundary
    /// node's entry always).
    slot_of: Vec<u32>,
    /// Scratch: the induced shape of each slot of the last scanned list.
    shape: Vec<Shape>,
    /// Packed scratch: live defect words during a packed call.
    pw: Vec<u64>,
    /// Packed scratch: stride-shifted copy / pair-clear mask.
    pshift: Vec<u64>,
    /// Packed scratch: the per-layer AND (cancellation) mask.
    pand: Vec<u64>,
    /// Packed scratch: window-local slice of [`Self::has_prev`].
    pprev: Vec<u64>,
    /// Pooled: the defect list of a packed batch.
    dets: Vec<DetectorId>,
    /// Pooled: what the last round-cancellation sweep left standing.
    survivors: Vec<DetectorId>,
    /// Pooled: the `(prev, curr)` pairs the last sweep cancelled.
    pairs: Vec<(DetectorId, DetectorId)>,
    /// Pooled: per slot, the cost of its component's local resolution.
    costs: Vec<i64>,
    /// Pooled: the outcome the two decode entry points lend out.
    out: BatchOutcome,
    /// Cumulative resolve/escalate counters over this instance's life.
    stats: L1BatchStats,
}

/// What one slot of a scanned defect list looks like inside the subgraph
/// the list induces — all the verified path needs to know of it.
#[derive(Clone, Copy, Debug)]
struct Shape {
    /// In-list neighbours, one per half-edge (parallel edges count
    /// twice, self-loops and the boundary never).
    deg: u32,
    /// Slot of the last in-list neighbour seen: *the* partner when
    /// `deg == 1`.
    only: u32,
    /// Half-edge to `only`.
    half: u32,
}

impl BatchPredecoder {
    /// Builds the predecoder over `graph` with a private
    /// [`NoTransitTable`]. Drivers that decode one graph from several
    /// places should share one table through
    /// [`BatchPredecoder::with_table`] instead.
    pub fn new(graph: &DecodingGraph) -> Self {
        Self::with_table(graph, Arc::new(NoTransitTable::new(graph)))
    }

    /// Builds the predecoder over `graph`, precomputing the time-like
    /// adjacency from the detector coordinates (same `(x, y)`, layers
    /// one apart, connected by an edge) and reading everything else from
    /// `table`, which must have been built from the same graph.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not cover `graph`'s detectors.
    pub fn with_table(graph: &DecodingGraph, table: Arc<NoTransitTable>) -> Self {
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
            table,
            time_prev,
            stride: stride.filter(|_| uniform),
            has_prev,
            slot_of: vec![NO_SLOT; n + 1],
            shape: Vec::new(),
            pw: Vec::new(),
            pshift: Vec::new(),
            pand: Vec::new(),
            pprev: Vec::new(),
            dets: Vec::new(),
            survivors: Vec::new(),
            pairs: Vec::new(),
            costs: Vec::new(),
            out: BatchOutcome {
                matches: Vec::new(),
                residual: Vec::new(),
                complex: false,
                cause: EscalateCause::None,
                cancelled_pairs: 0,
                latency_ns: cycles_to_ns(BATCH_PREDECODE_CYCLES),
            },
            stats: L1BatchStats::default(),
        }
    }

    /// Cumulative batch counters since construction: how many non-empty
    /// batches L1 fully resolved vs. escalated to the solver.
    pub fn batch_stats(&self) -> L1BatchStats {
        self.stats
    }

    /// The uniform time-like stride, when the graph has one: `Some(L)`
    /// iff every measurement edge connects `d` to exactly `d - L`. This
    /// is the precondition for the word-parallel cancellation fast path;
    /// [`BatchPredecoder::cancel_rounds_packed`] falls back to the
    /// sparse sweep when it is `None`.
    pub fn time_stride(&self) -> Option<u32> {
        self.stride
    }

    /// The same-stabilizer detector one round earlier, if the decoding
    /// graph carries a measurement (time-like) edge to it.
    pub fn time_prev(&self, d: DetectorId) -> Option<DetectorId> {
        self.time_prev[d as usize]
    }

    /// Weight of `d`'s direct boundary edge, or [`UNREACHED`] if it has
    /// none.
    fn boundary_weight(&self, d: DetectorId) -> i64 {
        self.table
            .boundary_edge(d)
            .map_or(UNREACHED, |half| self.table.weight(half))
    }

    /// Verifies that sending the lone defect `a` down its own boundary
    /// edge is the unique cheapest way out — a tied alternative could
    /// carry different observable parity. `None` ⇒ no such edge, or
    /// ambiguous ⇒ the defect must escalate.
    fn verify_lone(&self, a: DetectorId) -> Option<LocalMatch> {
        let half = self.table.boundary_edge(a)?;
        (!self.table.has_alternative(half)).then(|| LocalMatch {
            a,
            b: None,
            obs: self.table.obs(half),
            weight: self.table.weight(half),
        })
    }

    /// Verifies that matching `a` to `b` across `half` (the cheapest
    /// direct `a → b` half-edge) is strictly cheaper than splitting the
    /// pair to the boundary and than every indirect `a → b` path.
    fn verify_pair(&self, a: DetectorId, b: DetectorId, half: u32) -> Option<LocalMatch> {
        let weight = self.table.weight(half);
        let split = self
            .boundary_weight(a)
            .saturating_add(self.boundary_weight(b));
        (split > weight && !self.table.has_alternative(half)).then(|| LocalMatch {
            a: a.min(b),
            b: Some(a.max(b)),
            obs: self.table.obs(half),
            weight,
        })
    }

    /// Exchange-argument isolation: stripping `members` at `cost` is
    /// provably part of *every* minimum-weight matching of the batch iff
    /// every other batch defect `v` is further from every member than
    /// `cost` plus `v`'s own shortest boundary escape (any matching that
    /// pairs into `members` can then be strictly improved by resolving
    /// `members` locally and routing `v` to the boundary).
    fn isolated_from_rest(&self, members: &[DetectorId], cost: i64, all: &[DetectorId]) -> bool {
        all.iter().filter(|&&v| !members.contains(&v)).all(|&v| {
            // Saturates to `i64::MAX` when `v` has no escape; an
            // unreachable `v` is still not within that cap.
            let cap = cost.saturating_add(self.table.escape(v));
            !members.iter().any(|&u| self.table.within(u, v, cap))
        })
    }

    /// Fills [`Self::shape`] for `dets`: one pass over each defect's flat
    /// neighbour row against the detector → slot scratch. Reads neighbour
    /// ids only — no weight, distance or memo byte.
    fn scan(&mut self, dets: &[DetectorId]) {
        for (slot, &d) in dets.iter().enumerate() {
            self.slot_of[d as usize] = slot as u32;
        }
        self.shape.clear();
        for &d in dets {
            let mut shape = Shape {
                deg: 0,
                only: NO_SLOT,
                half: 0,
            };
            for (half, v) in self.table.neighbors(d) {
                let slot = self.slot_of[v as usize];
                if slot != NO_SLOT && v != d {
                    shape = Shape {
                        deg: shape.deg + 1,
                        only: slot,
                        half,
                    };
                }
            }
            self.shape.push(shape);
        }
        for &d in dets {
            self.slot_of[d as usize] = NO_SLOT;
        }
    }

    /// Whether `slot`'s component of the scanned list is a trivial chain:
    /// a lone defect, or two defects joined by exactly one edge and to
    /// nothing else.
    fn trivial(&self, slot: usize) -> bool {
        let s = self.shape[slot];
        s.deg == 0 || (s.deg == 1 && self.shape[s.only as usize].deg == 1)
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
    /// Returns `(survivors, cancelled_pairs)`, borrowed until the next
    /// call; survivors stay sorted.
    pub fn cancel_rounds(
        &mut self,
        dets: &[DetectorId],
    ) -> (&[DetectorId], &[(DetectorId, DetectorId)]) {
        self.sweep_sparse(dets);
        (&self.survivors, &self.pairs)
    }

    fn sweep_sparse(&mut self, dets: &[DetectorId]) {
        const ACTIVE: u32 = 0;
        for &d in dets {
            self.slot_of[d as usize] = ACTIVE;
        }
        self.pairs.clear();
        // Ascending id = ascending layer (LayerMap detectors are
        // layer-contiguous), so each defect sees its predecessor's
        // post-cancellation state: the sequential pairwise sweep.
        for &d in dets {
            if self.slot_of[d as usize] == NO_SLOT {
                continue;
            }
            if let Some(p) = self.time_prev[d as usize] {
                if self.slot_of[p as usize] != NO_SLOT {
                    self.slot_of[p as usize] = NO_SLOT;
                    self.slot_of[d as usize] = NO_SLOT;
                    self.pairs.push((p, d));
                }
            }
        }
        self.survivors.clear();
        for &d in dets {
            if self.slot_of[d as usize] != NO_SLOT {
                self.survivors.push(d);
                self.slot_of[d as usize] = NO_SLOT;
            }
        }
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
    ) -> (&[DetectorId], &[(DetectorId, DetectorId)]) {
        match self.stride {
            Some(stride) => self.sweep_packed(words, base, stride as usize),
            None => {
                let mut dets = std::mem::take(&mut self.dets);
                dets.clear();
                packed::for_each_set_bit(words, |b| dets.push(base + b as DetectorId));
                self.sweep_sparse(&dets);
                self.dets = dets;
            }
        }
        (&self.survivors, &self.pairs)
    }

    fn sweep_packed(&mut self, words: &[u64], base: DetectorId, l: usize) {
        let nbits = words.len() * packed::WORD_BITS;
        // Window-local slice of the measurement-edge mask: one funnel
        // shift per word, no per-detector lookups.
        WordSpan::new(base as usize, base as usize + nbits)
            .extract_into(&self.has_prev, &mut self.pprev);
        let (w, shifted, and) = (&mut self.pw, &mut self.pshift, &mut self.pand);
        w.clear();
        w.extend_from_slice(words);
        shifted.resize(w.len(), 0);
        and.resize(w.len(), 0);
        self.pairs.clear();
        let mut layer = 1usize;
        while layer * l < nbits {
            // shifted bit i = live bit i - L: the layer below, aligned.
            packed::shl_into(w, l, shifted);
            for i in 0..w.len() {
                and[i] = w[i] & shifted[i] & self.pprev[i];
            }
            packed::mask_to_range(and, layer * l, (layer + 1) * l);
            if and.iter().any(|&x| x != 0) {
                packed::for_each_set_bit(and, |b| {
                    self.pairs
                        .push((base + (b - l) as DetectorId, base + b as DetectorId));
                });
                // curr ^= and; prev ^= and >> L.
                packed::xor_accumulate(w, and);
                packed::shr_into(and, l, shifted);
                packed::xor_accumulate(w, shifted);
            }
            layer += 1;
        }
        self.survivors.clear();
        packed::for_each_set_bit(w, |b| self.survivors.push(base + b as DetectorId));
    }

    /// Attempts the verified non-complex resolution of `dets` into
    /// `out.matches`: every component must be a trivial shape — decided
    /// for the whole batch before any weight, distance or memo byte is
    /// read — every local edge must strictly beat its alternatives, and
    /// components must be weight-isolated from one another (see module
    /// docs). `false` ⇒ something is non-trivial, ambiguous or
    /// suboptimal and the batch must escalate.
    fn try_resolve_verified(&mut self, dets: &[DetectorId]) -> bool {
        self.scan(dets);
        if !(0..dets.len()).all(|slot| self.trivial(slot)) {
            return false;
        }
        self.costs.clear();
        // Ascending slots visit components in order of their first
        // member, a pair at its lower slot.
        for (slot, &a) in dets.iter().enumerate() {
            let Shape { deg, only, half } = self.shape[slot];
            let partner = only as usize;
            if deg == 1 && partner < slot {
                self.costs.push(self.costs[partner]);
                continue;
            }
            let resolved = if deg == 0 {
                self.verify_lone(a)
            } else {
                self.verify_pair(a, dets[partner], half)
            };
            let Some(m) = resolved else { return false };
            self.costs.push(m.weight);
            self.out.matches.push(m);
        }
        // Weight isolation: a matching that pairs defects of *different*
        // components must cost strictly more than resolving both
        // components locally. With every cross distance above that bar,
        // any alternating cycle through k components pays k cross paths
        // against 2×(k local resolutions) — strictly worse, so the local
        // matching is the unique optimum.
        for u in 0..dets.len() {
            for v in u + 1..dets.len() {
                let same = self.shape[u].deg == 1 && self.shape[u].only as usize == v;
                let cap = self.costs[u].saturating_add(self.costs[v]);
                if !same && self.table.within(dets[u], dets[v], cap) {
                    return false;
                }
            }
        }
        true
    }

    /// Predecodes one batch of active defects (sorted detector ids).
    ///
    /// Non-complex batches — every subgraph component is a trivial chain
    /// whose local resolution is verified to be the unique minimum-weight
    /// matching of the batch — are fully resolved at L1. Complex batches
    /// run the round-cancellation sweep, strip the verified trivial
    /// chains that survive it, and escalate the rest as `residual`.
    ///
    /// The outcome is lent until the next call on this predecoder.
    pub fn decode_batch(&mut self, dets: &[DetectorId]) -> &BatchOutcome {
        self.classify(dets, None);
        &self.out
    }

    /// Predecodes one packed batch: bit `i` of `words` is detector
    /// `base + i`. Produces the same [`BatchOutcome`] — matches,
    /// residual, pair list and all — as [`BatchPredecoder::decode_batch`]
    /// on the sparse form of `words`, with the round cancellation run as
    /// the AND/XOR sweep of [`BatchPredecoder::cancel_rounds_packed`].
    /// The verification behind a commit is unchanged — it is what makes
    /// L1 commits safe, packed or not.
    pub fn decode_batch_packed(&mut self, words: &[u64], base: DetectorId) -> &BatchOutcome {
        let mut dets = std::mem::take(&mut self.dets);
        dets.clear();
        packed::for_each_set_bit(words, |b| dets.push(base + b as DetectorId));
        self.classify(
            &dets,
            self.stride.map(|stride| (words, base, stride as usize)),
        );
        self.dets = dets;
        &self.out
    }

    /// Both entry points: classifies `dets` into [`Self::out`] and
    /// tallies it. `packed` carries the batch's word form and the stride
    /// when the cancellation sweep can run on words.
    fn classify(&mut self, dets: &[DetectorId], packed: Option<(&[u64], DetectorId, usize)>) {
        self.out.matches.clear();
        self.out.residual.clear();
        self.out.complex = false;
        self.out.cause = EscalateCause::None;
        self.out.cancelled_pairs = 0;
        // Empty batches count toward neither lifetime counter.
        if dets.is_empty() {
            return;
        }
        if dets.len() <= MAX_L1_DEFECTS && self.try_resolve_verified(dets) {
            self.stats.resolved += 1;
            return;
        }
        // Complex batch: the verified all-trivial fast path failed or
        // was never attempted. Run the round-cancellation sweep, then
        // strip what can be proven.
        self.out.complex = true;
        self.out.cause = if dets.len() > MAX_L1_DEFECTS {
            EscalateCause::Overflow
        } else {
            EscalateCause::Ambiguous
        };
        match packed {
            Some((words, base, stride)) => self.sweep_packed(words, base, stride),
            None => self.sweep_sparse(dets),
        }
        self.complex_tail(dets);
        if self.out.residual.is_empty() {
            self.stats.resolved += 1;
        } else {
            self.stats.escalated += 1;
        }
    }

    /// The complex-batch tail: strip only the pieces — cancelled
    /// measurement pairs and trivial surviving chains — that provably
    /// belong to every minimum-weight matching of the batch (local
    /// uniqueness plus a strict isolation margin against every other
    /// batch defect). Anything ambiguous stays in the residual for the
    /// L2 solver: shedding may never trade away a correction the solver
    /// would have gotten right.
    fn complex_tail(&mut self, dets: &[DetectorId]) {
        self.out.matches.clear();
        let mut survivors = std::mem::take(&mut self.survivors);
        for &(p, d) in &self.pairs {
            let committed = self
                .table
                .edge_between(p, d)
                .and_then(|half| self.verify_pair(p, d, half))
                .filter(|m| self.isolated_from_rest(&[p, d], m.weight, dets));
            if let Some(m) = committed {
                self.out.matches.push(m);
                self.out.cancelled_pairs += 1;
            } else {
                survivors.extend([p, d]);
            }
        }
        survivors.sort_unstable();
        self.scan(&survivors);
        // Ascending slots = component order, a pair at its lower slot;
        // the residual is sorted at the end either way.
        for (slot, &a) in survivors.iter().enumerate() {
            let Shape { deg, only, half } = self.shape[slot];
            let partner = only as usize;
            if !self.trivial(slot) {
                self.out.residual.push(a);
            } else if deg == 0 {
                self.strip_if_isolated(&[a], self.verify_lone(a), dets);
            } else if partner > slot {
                let b = survivors[partner];
                self.strip_if_isolated(&[a, b], self.verify_pair(a, b, half), dets);
            }
        }
        self.out.residual.sort_unstable();
        self.survivors = survivors;
    }

    /// Commits a surviving chain's verified resolution when the chain is
    /// also isolated from the rest of the batch `dets`; otherwise its
    /// `members` ride the residual.
    fn strip_if_isolated(
        &mut self,
        members: &[DetectorId],
        resolved: Option<LocalMatch>,
        dets: &[DetectorId],
    ) {
        match resolved.filter(|m| self.isolated_from_rest(members, m.weight, dets)) {
            Some(m) => self.out.matches.push(m),
            None => self.out.residual.extend_from_slice(members),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{Reference, PROBE_CAP};
    use super::*;
    use decoding_graph::Edge;
    use proptest::prelude::*;
    use qsim::extract_dem;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::{Mutex, OnceLock};
    use surface_code::{NoiseModel, RotatedSurfaceCode};

    fn graph(d: u32, rounds: u32) -> DecodingGraph {
        let code = RotatedSurfaceCode::new(d);
        let circuit = code.memory_z_circuit(rounds, &NoiseModel::sd6(1e-3));
        DecodingGraph::from_dem(&extract_dem(&circuit))
    }

    /// A (prev, curr) measurement pair: same coordinate, adjacent layers.
    fn time_pair(g: &DecodingGraph, pre: &BatchPredecoder) -> (u32, u32) {
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
        let survivors = survivors.to_vec();
        // Toggle the cancelled defects back in: the original batch.
        let mut restored = survivors.clone();
        for (a, b) in pairs {
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
        assert_eq!(pre.table.escape(2), UNREACHED);
        assert!(!pre.table.within(0, 2, i64::MAX));
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
        assert_eq!(out, &Reference::new(&g).decode_batch(&[0, 2]));
    }

    #[test]
    fn lookups_agree_with_search_on_every_pair_and_cap() {
        // Exhaustive on the d = 3, 9-round SD6 graph: every ordered
        // detector pair at the caps that straddle its distance, and
        // every escape.
        let g = graph(3, 9);
        let bd = g.boundary_node();
        let mut oracle = Reference::new(&g);
        let table = NoTransitTable::new(&g);
        for u in 0..g.num_detectors() {
            assert_eq!(
                table.escape(u),
                oracle.probe(u, bd, PROBE_CAP, None),
                "esc {u}"
            );
            for v in 0..g.num_detectors() {
                let dist = oracle.probe(u, v, PROBE_CAP, None);
                assert_ne!(dist, UNREACHED, "SD6 graphs are connected");
                for cap in [dist - 1, dist, dist + 1, 0, PROBE_CAP] {
                    assert_eq!(
                        table.within(u, v, cap),
                        oracle.probe(u, v, cap, None) != UNREACHED,
                        "({u},{v}) cap {cap} dist {dist}"
                    );
                }
            }
        }
        assert_eq!(table.rows_filled(), g.num_detectors() as usize);
    }

    /// Every edge's memo byte against the capped, edge-excluded probe
    /// it replaced: asked from both endpoints (a boundary edge only from
    /// its detector — the boundary is a sink), and twice, so the fill
    /// and the hit are both checked and a hit is seen to search nothing.
    /// The half-edge's weight and mask must be the graph edge's.
    fn memo_agrees_with_the_probe_on_every_edge(g: &DecodingGraph) {
        let bd = g.boundary_node();
        let mut oracle = Reference::new(g);
        let table = NoTransitTable::new(g);
        let mut asked = 0;
        for e in g.edges() {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                if a == bd {
                    continue;
                }
                let half = table.edge_between(a, b).expect("the edge is in the table");
                assert_eq!(table.weight(half), e.weight, "({a},{b})");
                assert_eq!(table.obs(half), e.obs, "({a},{b})");
                let want = oracle.probe(a, b, e.weight, Some((a, b))) != UNREACHED;
                assert_eq!(table.has_alternative(half), want, "({a},{b}) fill");
                asked += 1;
                assert_eq!(table.alternatives_filled(), asked);
                assert_eq!(table.has_alternative(half), want, "({a},{b}) hit");
                assert_eq!(table.alternatives_filled(), asked, "a hit searched");
            }
        }
        assert_eq!(asked, 2 * g.num_edges() - g.degree(bd));
    }

    #[test]
    fn edge_memo_agrees_with_the_probe_on_every_edge() {
        memo_agrees_with_the_probe_on_every_edge(&graph(3, 9));
        memo_agrees_with_the_probe_on_every_edge(&graph(5, 5));
    }

    #[test]
    #[ignore = "d = 7 sweep; run in release (CI statistical job)"]
    fn edge_memo_agrees_with_the_probe_on_every_edge_d7() {
        memo_agrees_with_the_probe_on_every_edge(&graph(7, 7));
    }

    /// Three layers of four detectors in a row, hand-built to hold what
    /// `from_dem` merges away: parallel edges (space-like 0–1 with the
    /// cheaper copy second, 5–6 at equal weight with different masks,
    /// time-like 2–6 twice), parallel boundary edges (on 0 with the
    /// cheaper copy second, on 4 at equal weight), a self-loop on 9 and
    /// a diagonal 1–6 that offers alternatives.
    fn parallel_edge_graph() -> DecodingGraph {
        let edge = |u, v, weight, obs| Edge {
            u,
            v,
            weight,
            probability: 0.01,
            obs,
        };
        let bd = 12;
        let mut edges = vec![
            edge(0, 1, 800, 1),
            edge(5, 6, 900, 1),
            edge(2, 6, 600, 1),
            edge(1, 6, 1000, 0),
            edge(9, 9, 100, 1),
            edge(0, bd, 1500, 0),
            edge(0, bd, 700, 1),
            edge(3, bd, 700, 0),
            edge(4, bd, 700, 1),
            edge(4, bd, 700, 0),
            edge(7, bd, 700, 1),
            edge(8, bd, 650, 0),
            edge(11, bd, 700, 0),
        ];
        for i in 0..12u32 {
            if i % 4 != 3 {
                edges.push(edge(i, i + 1, 900, 0));
            }
            if i < 8 {
                edges.push(edge(i, i + 4, 600, u64::from(i == 5)));
            }
        }
        let coords = (0..12)
            .map(|i| [f64::from(i % 4), 0.0, f64::from(i / 4)])
            .collect();
        DecodingGraph::from_parts(12, 1, edges, coords)
    }

    /// Both entry points of `pre` against the reference on one batch.
    fn assert_equals_reference(
        pre: &mut BatchPredecoder,
        oracle: &mut Reference<'_>,
        batch: &[u32],
    ) {
        let want = oracle.decode_batch(batch);
        assert_eq!(pre.decode_batch(batch), &want, "sparse {batch:?}");
        for base in [0, batch.first().copied().unwrap_or(0)] {
            assert_eq!(
                pre.decode_batch_packed(&pack(batch, base), base),
                &want,
                "packed base={base} {batch:?}"
            );
        }
    }

    #[test]
    fn parallel_edges_keep_a_two_node_component_non_trivial() {
        let g = parallel_edge_graph();
        let mut pre = BatchPredecoder::new(&g);
        let mut oracle = Reference::new(&g);
        // 0–1 and 5–6 are joined twice: induced degree 2, so neither is
        // an "isolated adjacent pair" and both ride the residual.
        for pair in [[0, 1], [5, 6]] {
            let out = pre.decode_batch(&pair);
            assert!(out.complex, "{pair:?}");
            assert_eq!(out.residual, pair, "{pair:?}");
            assert!(out.matches.is_empty(), "{pair:?}");
        }
        // Every subset of the 12 detectors, through one predecoder.
        for mask in 0u32..1 << 12 {
            let batch: Vec<u32> = (0..12).filter(|d| mask >> d & 1 == 1).collect();
            assert_equals_reference(&mut pre, &mut oracle, &batch);
        }
    }

    /// SD6 graphs at d = 3, 5, 7 (d rounds) and the hand-built
    /// parallel-edge graph, built once.
    fn oracle_graph(pick: usize) -> &'static DecodingGraph {
        static GRAPHS: [OnceLock<DecodingGraph>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        GRAPHS[pick].get_or_init(|| match pick {
            3 => parallel_edge_graph(),
            _ => graph([3, 5, 7][pick], [3, 5, 7][pick]),
        })
    }

    /// One predecoder per oracle graph, reused by every proptest case:
    /// a pooled list or a slot left dirty by one batch shows up in the
    /// next.
    fn oracle_predecoder(pick: usize) -> &'static Mutex<BatchPredecoder> {
        static PREDECODERS: [OnceLock<Mutex<BatchPredecoder>>; 4] = [
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
            OnceLock::new(),
        ];
        PREDECODERS[pick].get_or_init(|| Mutex::new(BatchPredecoder::new(oracle_graph(pick))))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The whole outcome — matches in order, residual, cause,
        /// cancelled pairs — of both entry points equals the reference
        /// implementation's (subgraph, components, searched distances;
        /// no code shared with the scan, the memo or the table), on
        /// batches of 1..=24 draws (a random detector, or both ends of a
        /// random edge, toggled), so the verified ≤ MAX_L1_DEFECTS path
        /// and the overflow tail both run.
        #[test]
        fn table_decodes_equal_the_search_oracle(
            pick in 0usize..4,
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
            let mut pre = oracle_predecoder(pick).lock().unwrap_or_else(|e| e.into_inner());
            assert_equals_reference(&mut pre, &mut Reference::new(g), &batch);
        }
    }

    /// The differential where rows are truncated: 300 sampled SD6
    /// d = 13, p = 1e-3, 13-round shots, each cut into the layer slices
    /// of a (6, 3) window, through both entry points against the
    /// reference, which reads no [`NoTransitTable`].
    #[test]
    #[ignore = "d = 13 sampled slices; run in release (CI statistical job)"]
    fn sampled_d13_window_slices_equal_the_search_oracle() {
        let code = RotatedSurfaceCode::new(13);
        let circuit = code.memory_z_circuit(13, &NoiseModel::sd6(1e-3));
        let g = DecodingGraph::from_dem(&extract_dem(&circuit));
        let layers = decoding_graph::LayerMap::from_graph(&g).unwrap();
        let mut pre = BatchPredecoder::new(&g);
        let mut oracle = Reference::new(&g);
        // A source's row is truncated when a corner detector `c` of the
        // shot lies beyond c's limit `L(c) = max_w + max(max_w, esc(c))`,
        // the largest cap L1 asks about a path to `c`.
        let max_w = g.edges().iter().map(|e| e.weight).max().unwrap();
        let limit = |c| max_w + max_w.max(pre.table.escape(c));
        let corners = [0, g.num_detectors() - 1];
        let truncated: Vec<u32> = (0..g.num_detectors())
            .filter(|&u| {
                corners
                    .iter()
                    .any(|&c| oracle.probe(u, c, PROBE_CAP, None) > limit(c))
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(13);
        for shot in qsim::FrameSampler::new(&circuit).sample_shots(300, &mut rng) {
            for s in [0, 3, 6, 9] {
                let range = layers.det_range(s, (s + 6).min(layers.num_layers()));
                let batch: Vec<u32> = shot
                    .dets
                    .iter()
                    .copied()
                    .filter(|d| range.contains(d))
                    .collect();
                assert_equals_reference(&mut pre, &mut oracle, &batch);
            }
        }
        // A row the slices filled is read again without a fill.
        let was_filled = |u| {
            let before = pre.table.rows_filled();
            pre.table.within(u, u, 0);
            pre.table.rows_filled() == before
        };
        assert!(
            truncated.iter().any(|&u| was_filled(u)),
            "no truncated row was under test ({} truncated sources)",
            truncated.len()
        );
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
            let (want_s, want_p) = (want_s.to_vec(), want_p.to_vec());
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
            let want = pre.decode_batch(batch).clone();
            for base in [0u32, batch.first().copied().unwrap_or(0)] {
                let words = pack(batch, base);
                let got = pre.decode_batch_packed(&words, base);
                assert_eq!(got, &want, "base={base} batch={batch:?}");
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
