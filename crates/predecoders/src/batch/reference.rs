//! The L1 classification as it stood before the shape scan, the per-edge
//! memo and the pooled result lists: a [`SubgraphState`] rebuilt per
//! batch, a walk of its components, and every distance question — escape,
//! cross and alternative-path alike — answered by a capped Dijkstra
//! over the graph. Kept as the differential oracle of
//! `batch::tests`: it reads neither the [`decoding_graph::NoTransitTable`]
//! nor any scratch of the predecoder it is compared with, so a bug in
//! the scan, the memo or the pooling cannot hide in code both share.

use super::{BatchOutcome, EscalateCause, LocalMatch, BATCH_PREDECODE_CYCLES, MAX_L1_DEFECTS};
use decoding_graph::latency::cycles_to_ns;
use decoding_graph::{DecodingGraph, DetectorId, SubgraphState};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "no path within the probe cap".
pub(super) const UNREACHED: i64 = i64::MAX;

/// Effectively-uncapped probe budget (kept far from `i64::MAX` so caps
/// derived from it survive `saturating_add`).
pub(super) const PROBE_CAP: i64 = i64::MAX / 4;

/// The search-based batch predecoder.
pub(super) struct Reference<'a> {
    graph: &'a DecodingGraph,
    time_prev: Vec<Option<DetectorId>>,
    sg: SubgraphState,
    active: Vec<bool>,
    dist: Vec<i64>,
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
}

impl<'a> Reference<'a> {
    pub(super) fn new(graph: &'a DecodingGraph) -> Self {
        let n = graph.num_detectors() as usize;
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
        Reference {
            graph,
            time_prev,
            sg: SubgraphState::default(),
            active: vec![false; n],
            dist: vec![UNREACHED; n + 1],
            touched: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn escape(&mut self, v: DetectorId) -> i64 {
        let bd = self.graph.boundary_node();
        self.probe(v, bd, PROBE_CAP, None)
    }

    fn reaches(&mut self, u: DetectorId, v: DetectorId, cap: i64) -> bool {
        self.probe(u, v, cap, None) != UNREACHED
    }

    /// Capped Dijkstra probe: the cheapest path `src → dst` of cost
    /// ≤ `cap`, optionally excluding one direct edge (to ask "is there
    /// an *alternative* at this price?"). Returns [`UNREACHED`] when
    /// every such path costs more than `cap` — the only fact the
    /// classifier needs, so the search never expands past the cap. The
    /// boundary node is a sink: matching paths may end there but never
    /// pass through it.
    pub(super) fn probe(
        &mut self,
        src: u32,
        dst: u32,
        cap: i64,
        exclude: Option<(u32, u32)>,
    ) -> i64 {
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

    fn cancel_rounds(
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

    /// Attempts the verified non-complex resolution of the current
    /// subgraph. Every component must be a trivial shape, every local
    /// edge must strictly beat its alternatives, and components must be
    /// weight-isolated from one another (see module docs). `None` ⇒
    /// something is ambiguous, suboptimal, or non-trivial and the batch
    /// must escalate.
    fn try_resolve_verified(&mut self, nodes: &[DetectorId]) -> Option<Vec<LocalMatch>> {
        let comps = components(&self.sg);
        let mut matches = Vec::with_capacity(comps.len());
        let mut costs = Vec::with_capacity(comps.len());
        for comp in &comps {
            if comp.len() == 2 && !(self.sg.deg(comp[0]) == 1 && self.sg.deg(comp[1]) == 1) {
                return None;
            }
            let (m, cost) = self.verify_component(nodes, comp)?;
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
    pub(super) fn decode_batch(&mut self, dets: &[DetectorId]) -> BatchOutcome {
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
            if let Some(matches) = self.try_resolve_verified(dets) {
                return BatchOutcome {
                    matches,
                    residual: Vec::new(),
                    complex: false,
                    cause: EscalateCause::None,
                    cancelled_pairs: 0,
                    latency_ns,
                };
            }
            cause = EscalateCause::Ambiguous;
        }
        // Complex batch: the verified all-trivial fast path failed. Run
        // the round-cancellation sweep, then strip what can be proven.
        let (survivors, cancelled) = self.cancel_rounds(dets);
        self.complex_tail(dets, survivors, cancelled, cause, latency_ns)
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
        let comps = components(&self.sg);
        let mut residual: Vec<DetectorId> = Vec::new();
        for comp in &comps {
            let shape_ok = match comp.len() {
                1 => true,
                2 => self.sg.deg(comp[0]) == 1 && self.sg.deg(comp[1]) == 1,
                _ => false,
            };
            let stripped = if shape_ok {
                self.verify_component(&survivors, comp)
                    .filter(|&(_, cost)| {
                        let members: Vec<DetectorId> =
                            comp.iter().map(|&slot| survivors[slot]).collect();
                        self.isolated_from_rest(&members, cost, dets)
                    })
            } else {
                None
            };
            if let Some((m, _)) = stripped {
                matches.push(m);
            } else {
                residual.extend(comp.iter().map(|&slot| survivors[slot]));
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

/// Connected components of a freshly built `sg` as sorted slot lists,
/// in order of their lowest slot.
fn components(sg: &SubgraphState) -> Vec<Vec<usize>> {
    let n = sg.hw();
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
            for v in sg.neighbors(u) {
                if !seen[v.slot] {
                    seen[v.slot] = true;
                    comp.push(v.slot);
                    stack.push(v.slot);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::dem::{DemError, DetectorErrorModel};
    use qsim::sparse::SparseBits;

    #[test]
    fn components_split_disconnected_pieces() {
        // Path graph 0-1-2-3-4 with a boundary edge on 0.
        let mk = |dets: Vec<u32>| DemError {
            dets: SparseBits::from_sorted(dets),
            obs: 0,
            p: 0.01,
        };
        let g = DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: 5,
            num_observables: 0,
            errors: vec![
                mk(vec![0]),
                mk(vec![0, 1]),
                mk(vec![1, 2]),
                mk(vec![2, 3]),
                mk(vec![3, 4]),
            ],
            det_coords: vec![[0.0; 3]; 5],
        });
        let sg = SubgraphState::build(&g, &[0, 1, 3, 4]);
        assert_eq!(components(&sg), vec![vec![0, 1], vec![2, 3]]);
        let sg = SubgraphState::build(&g, &[0, 1, 2, 4]);
        assert_eq!(components(&sg), vec![vec![0, 1, 2], vec![3]]);
        assert!(components(&SubgraphState::build(&g, &[])).is_empty());
    }
}
