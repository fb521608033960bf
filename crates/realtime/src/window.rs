//! Sliding-window ("sandwich") decoding with a commit/defer rule.
//!
//! The decoder only ever sees a window of `window` consecutive round
//! layers. After decoding the window it **commits** every match whose
//! endpoints all lie in the oldest `commit` layers — those corrections
//! are final — and **defers** every other match: the involved defects
//! roll into the next window (which starts `commit` layers later) and
//! are re-decoded there with more future context. The overlap
//! `window − commit` is the defer margin that keeps seam artifacts out
//! of the committed stream; the final window of a shot commits
//! everything.
//!
//! Window subgraphs come from [`decoding_graph::GraphWindow`] with
//! [`SeamPolicy::Cut`]: the open-seam edges are dropped rather than
//! redirected to an artificial boundary, so a *committed* boundary match
//! can never route through the seam. Matches distorted by the cut can
//! only involve the defer margin, and those are discarded and re-decoded
//! by construction.

use decoding_graph::packed::{for_each_set_bit, WordSpan};
use decoding_graph::{
    DecodeWorkspace, DecodingGraph, DetectorId, LayerMap, MatchTarget, PackedBits, SeamPolicy,
    WindowCache, WindowContext, BATCH_PREDECODE_NS,
};
use ler::{build_decoder, DecoderKind};
use predecoders::BatchPredecoder;
use std::collections::HashMap;
use std::sync::Arc;
use telemetry::{Stage, StageSpans, TraceKind};

/// Whether the L1 batch predecoder runs ahead of the window decoder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PredecodeMode {
    /// Every non-empty window goes straight to the matching solver.
    #[default]
    Off,
    /// The Pinball-style [`predecoders::BatchPredecoder`] runs first:
    /// trivial windows commit their local corrections without waking
    /// any solver; `complex` windows escalate their residual syndrome.
    Batch,
}

impl PredecodeMode {
    /// Parses the CLI spelling (`off` or `batch`).
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "off" => Ok(PredecodeMode::Off),
            "batch" => Ok(PredecodeMode::Batch),
            other => Err(format!("unknown predecode mode '{other}' (off|batch)")),
        }
    }

    /// The CLI/report spelling.
    pub fn label(self) -> &'static str {
        match self {
            PredecodeMode::Off => "off",
            PredecodeMode::Batch => "batch",
        }
    }

    /// Stable wire code (`RegisterQubit` frames).
    pub fn code(self) -> u8 {
        match self {
            PredecodeMode::Off => 0,
            PredecodeMode::Batch => 1,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(PredecodeMode::Off),
            1 => Some(PredecodeMode::Batch),
            _ => None,
        }
    }
}

/// Which syndrome representation drives the sliding-window hot loop.
///
/// Both paths are bit-identical by construction (pinned by the packed
/// equivalence suite); [`Datapath::Byte`] exists as the reference the
/// packed path is checked against and as an escape hatch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Datapath {
    /// Sparse detector-id lists: carried defects and arrivals are merged
    /// and sorted per window, and the L1 tier sweeps them one id at a
    /// time.
    Byte,
    /// Bit-packed `u64` words: defects live in a [`PackedBits`] set
    /// (merge = set bits, sort = free, reset = O(touched words)), the
    /// window is pulled out with a seam-masked [`WordSpan`] extraction,
    /// and the L1 round cancellation runs as AND/XOR over words
    /// ([`predecoders::BatchPredecoder::decode_batch_packed`]).
    #[default]
    Packed,
}

impl Datapath {
    /// Parses the CLI spelling (`byte` or `packed`).
    ///
    /// # Errors
    ///
    /// Returns a message listing the accepted spellings.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "byte" => Ok(Datapath::Byte),
            "packed" => Ok(Datapath::Packed),
            other => Err(format!("unknown datapath '{other}' (byte|packed)")),
        }
    }

    /// The CLI/report spelling.
    pub fn label(self) -> &'static str {
        match self {
            Datapath::Byte => "byte",
            Datapath::Packed => "packed",
        }
    }

    /// Stable wire code (`RegisterQubit` frames, protocol v3).
    pub fn code(self) -> u8 {
        match self {
            Datapath::Byte => 0,
            Datapath::Packed => 1,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Datapath::Byte),
            1 => Some(Datapath::Packed),
            _ => None,
        }
    }
}

/// The `(window, commit)` split of a sliding-window run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowConfig {
    /// Layers visible to one decode call.
    pub window: u32,
    /// Oldest layers finalized per step (the window advance).
    pub commit: u32,
}

impl WindowConfig {
    /// Validates a `(window, commit)` split.
    ///
    /// # Errors
    ///
    /// Returns a message unless `1 <= commit <= window`.
    pub fn new(window: u32, commit: u32) -> Result<Self, String> {
        if commit == 0 {
            return Err("commit must be at least 1 layer".into());
        }
        if commit > window {
            return Err(format!("commit {commit} exceeds window {window}"));
        }
        Ok(WindowConfig { window, commit })
    }
}

/// One window decode of a shot, for the backlog simulator.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowRecord {
    /// First layer of the commit region (the window step position).
    pub start_layer: u32,
    /// First layer actually extracted (≤ `start_layer` when carried
    /// defects reach back).
    pub lo_layer: u32,
    /// One past the last extracted layer; the window becomes decodable
    /// when round layer `hi_layer − 1` has been measured.
    pub hi_layer: u32,
    /// Layers `< commit_end` were finalized by this window.
    pub commit_end: u32,
    /// Defects decoded in this window (carried + newly arrived).
    pub hw: usize,
    /// Modeled hardware latency reported by the decoder, if any
    /// (software decoders report `None`; the backlog simulator then
    /// falls back to a [`decoding_graph::LatencyModel`]).
    pub latency_ns: Option<f64>,
    /// Defects deferred into the next window.
    pub deferred: usize,
    /// The window decode failed (e.g. exceeded the decoder's supported
    /// Hamming weight); the whole shot counts as a logical failure.
    pub failed: bool,
    /// Defects the matching solver actually decoded: equals `hw` with
    /// predecoding off, the escalated residual's weight with it on.
    pub solver_hw: usize,
    /// Predecoding was on and the batch verified non-complex: the L1
    /// tier fully resolved the window with the provably unique
    /// minimum-weight matching (or it was empty). Bit-identical to the
    /// un-predecoded path by construction.
    pub l1_resolved: bool,
    /// Predecoding was on and the batch was classified complex: the L1
    /// tier fell back to greedy round cancellation and handed the
    /// (possibly drained) residual to the matching solver.
    pub escalated: bool,
}

impl WindowRecord {
    /// Round layers this window finalized (its commit region, net of
    /// what earlier windows already committed).
    pub fn rounds_committed(&self) -> u32 {
        self.commit_end - self.start_layer
    }
}

/// Result of sliding-window decoding one whole shot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WindowedOutcome {
    /// XOR of the committed corrections' observable flips.
    pub obs_flip: u64,
    /// Some window decode failed; callers count the shot as a logical
    /// error.
    pub failed: bool,
    /// Per-window decode records, in stream order.
    pub windows: Vec<WindowRecord>,
}

impl WindowedOutcome {
    /// Round layers finalized without waking a matching solver (the L1
    /// tier's shed; zero with predecoding off).
    pub fn l1_rounds(&self) -> u64 {
        self.windows
            .iter()
            .filter(|w| w.l1_resolved)
            .map(|w| w.rounds_committed() as u64)
            .sum()
    }

    /// Windows whose batch was classified complex and escalated past the
    /// verified L1 fast path.
    pub fn escalated_windows(&self) -> u64 {
        self.windows.iter().filter(|w| w.escalated).count() as u64
    }
}

/// One shot's syndrome, in either ingest representation.
///
/// `Sparse` is the sorted flipped-detector list the byte datapath merges
/// and sorts per window; `Packed` is a borrowed bit-packed word view
/// (bit `d % 64` of word `d / 64` is detector `d`) — typically a
/// [`crate::PackedShot`] slicing the stream arena or a service frame
/// arena in place.
#[derive(Clone, Copy)]
enum ShotInput<'s> {
    Sparse(&'s [DetectorId]),
    Packed(&'s [u64]),
}

/// One shot's handle on the causal flight recorder: the ring plus the
/// shot's `(tenant, seq)` key, so emission sites name only what varies.
/// Disarmed it costs one `Option` check per site.
struct ShotTrace {
    buf: Option<Arc<telemetry::TraceBuf>>,
    tenant: u32,
    seq: u64,
}

impl ShotTrace {
    #[inline]
    fn emit(&self, window: u32, kind: TraceKind, arg: usize) {
        if let Some(t) = &self.buf {
            t.record(self.tenant, self.seq, window, kind, arg as u32);
        }
    }

    /// One tier's Commit/Defer events of one window (silent when zero).
    fn emit_tally(&self, window: u32, tally: &Tally) {
        if tally.committed > 0 {
            self.emit(window, TraceKind::Commit, tally.committed);
        }
        if tally.deferred > 0 {
            self.emit(window, TraceKind::Defer, tally.deferred);
        }
    }
}

/// What one tier (L1 or solver) settled in one window: matches
/// committed, defects deferred into the next window.
#[derive(Default)]
struct Tally {
    committed: usize,
    deferred: usize,
}

/// Span start on a sampled window step (`sp` is `Some`); unsampled
/// steps read no clock.
#[inline]
fn span_start(sp: Option<&StageSpans>) -> u64 {
    if sp.is_some() {
        telemetry::now()
    } else {
        0
    }
}

/// Records `stage`'s span since `t0` on a sampled window step.
#[inline]
fn span_end(sp: Option<&StageSpans>, stage: Stage, t0: u64) {
    if let Some(sp) = sp {
        sp.record(stage, telemetry::since_ns(t0));
    }
}

/// Sliding-window driver for any [`DecoderKind`], one shot per call.
///
/// Window subgraphs and their path tables are cached per extracted layer
/// range: across a long stream the same few ranges recur (one per window
/// position, plus occasional carried-defect extensions), so steady-state
/// decoding rebuilds nothing. The cache lives in a shareable
/// [`decoding_graph::WindowCache`]: drivers built with
/// [`SlidingWindowDecoder::with_cache`] — e.g. every decoder of a
/// `repro realtime` fan-out, or every tenant of one decode-service
/// scenario — share a single copy of each window graph and path table.
/// Returned `Arc`s are memoized locally, so the steady-state decode path
/// never touches the shared cache's lock.
///
/// All per-shot state (carried defects, the active list, the packed
/// scratch) is pooled in the driver and reset at the start of every
/// shot, so a long-lived driver decodes each shot exactly as a fresh one
/// would — also right after a shot whose decode failed mid-stream.
pub struct SlidingWindowDecoder<'g> {
    parent: &'g DecodingGraph,
    layers: Arc<LayerMap>,
    kind: DecoderKind,
    cfg: WindowConfig,
    shared: Arc<WindowCache>,
    local: HashMap<(u32, u32), Arc<WindowContext>>,
    l1: Option<BatchPredecoder>,
    datapath: Datapath,
    /// Defects deferred out of the previous window of the shot under
    /// decode; pooled, like every buffer below, so the steady-state hot
    /// loop never allocates.
    carry: Vec<DetectorId>,
    /// The current window's active defects (carried + newly arrived),
    /// then the residual the L1 tier leaves for the solver.
    active: Vec<DetectorId>,
    /// The solver's input: `active` in window-local detector ids.
    local_ids: Vec<DetectorId>,
    /// The solver's scratch, lent to each window's decoder for the
    /// duration of its solve: the decoders come and go with the windows,
    /// their warmed buffers stay.
    solver_ws: DecodeWorkspace,
    /// Packed scratch: the live defect bitset of the shot under decode.
    pbits: PackedBits,
    /// Packed scratch: the seam-masked window extraction buffer.
    pwords: Vec<u64>,
    /// Packed scratch: [`SlidingWindowDecoder::decode_shot`]'s detector
    /// list, packed once per shot.
    packed_in: PackedBits,
    /// Optional stage-span sink (typically shared with the owning
    /// shard's telemetry). Recording is wait-free and allocation-free,
    /// and never changes decode outcomes.
    spans: Option<Arc<StageSpans>>,
    /// 1-in-N window-step sampler gating the span timestamps.
    sampler: telemetry::Sampler,
    /// Optional causal flight recorder (typically the owning shard's
    /// ring). Every window step emits its causal events — WindowOpen,
    /// L1Resolve/Escalate, SolveStart/SolveEnd, Commit/Defer — keyed by
    /// `(trace_tenant, trace_seq, window_idx)`. Recording is wait-free
    /// and allocation-free, and never changes decode outcomes (pinned by
    /// the purity proptests).
    trace: Option<Arc<telemetry::TraceBuf>>,
    /// Tenant id stamped on trace events.
    trace_tenant: u32,
    /// Sequence (shot id) of the next decoded shot; auto-advances per
    /// shot, or is pinned per submission via
    /// [`SlidingWindowDecoder::set_trace_seq`].
    trace_seq: u64,
}

impl<'g> SlidingWindowDecoder<'g> {
    /// Creates a windowed driver for `kind` over `parent` with a private
    /// window cache.
    ///
    /// # Panics
    ///
    /// Panics if `layers` does not cover the graph's detectors or the
    /// window exceeds the layer count.
    pub fn new(
        parent: &'g DecodingGraph,
        layers: LayerMap,
        kind: DecoderKind,
        cfg: WindowConfig,
    ) -> Self {
        let cache = Arc::new(WindowCache::new(parent, SeamPolicy::Cut));
        Self::with_cache(parent, Arc::new(layers), kind, cfg, cache)
    }

    /// Creates a windowed driver sharing `cache` (and `layers`) with
    /// other drivers over the same parent graph.
    ///
    /// # Panics
    ///
    /// Panics if `layers` does not cover the graph's detectors, the
    /// window exceeds the layer count, or the cache was built with a
    /// seam policy other than [`SeamPolicy::Cut`] (the only policy whose
    /// committed corrections are sound; see the module docs).
    pub fn with_cache(
        parent: &'g DecodingGraph,
        layers: Arc<LayerMap>,
        kind: DecoderKind,
        cfg: WindowConfig,
        cache: Arc<WindowCache>,
    ) -> Self {
        assert_eq!(
            layers.num_detectors(),
            parent.num_detectors(),
            "layer map does not cover the graph"
        );
        assert!(
            cfg.window <= layers.num_layers(),
            "window {} exceeds the {} layers of the experiment",
            cfg.window,
            layers.num_layers()
        );
        assert_eq!(
            cache.seam_policy(),
            SeamPolicy::Cut,
            "sliding-window commits require SeamPolicy::Cut windows"
        );
        SlidingWindowDecoder {
            parent,
            layers,
            kind,
            cfg,
            shared: cache,
            local: HashMap::new(),
            l1: None,
            datapath: Datapath::default(),
            carry: Vec::new(),
            active: Vec::new(),
            local_ids: Vec::new(),
            solver_ws: DecodeWorkspace::new(),
            pbits: PackedBits::new(),
            pwords: Vec::new(),
            packed_in: PackedBits::new(),
            spans: None,
            sampler: telemetry::Sampler::new(0),
            trace: None,
            trace_tenant: 0,
            trace_seq: 0,
        }
    }

    /// Attaches a stage-span sink: 1 in `sample` window steps gets its
    /// pipeline stages (window / predecode / solve / commit plus the
    /// whole-step roll-up) timed into `spans` (0 disables spans).
    pub fn set_spans(&mut self, spans: Arc<StageSpans>, sample: u32) {
        self.spans = Some(spans);
        self.sampler = telemetry::Sampler::new(sample);
    }

    /// Arms the causal flight recorder: every window step of every shot
    /// emits its trace events into `trace`, keyed by `tenant`. Unlike
    /// span sampling this is not throttled — [`telemetry::TraceBuf::
    /// record`] is wait-free and allocation-free, and the ring bounds
    /// the retained history.
    pub fn set_trace(&mut self, trace: Arc<telemetry::TraceBuf>, tenant: u32) {
        self.trace = Some(trace);
        self.trace_tenant = tenant;
    }

    /// Pins the sequence number (shot id) stamped on the next decoded
    /// shot's trace events. The service shard calls this with the wire
    /// shot id before each submission so traces join up with commits;
    /// standalone runs can rely on the default auto-increment.
    pub fn set_trace_seq(&mut self, seq: u64) {
        self.trace_seq = seq;
    }

    /// Selects the packed or byte syndrome datapath.
    #[must_use]
    pub fn with_datapath(mut self, datapath: Datapath) -> Self {
        self.datapath = datapath;
        self
    }

    /// The syndrome datapath in effect.
    pub fn datapath(&self) -> Datapath {
        self.datapath
    }

    /// Switches the L1 batch-predecode tier on or off. The predecoder
    /// reads the window cache's [`decoding_graph::NoTransitTable`], so
    /// drivers sharing a cache also share every memoized distance row
    /// and per-edge memo byte.
    #[must_use]
    pub fn with_predecode(mut self, mode: PredecodeMode) -> Self {
        self.l1 = match mode {
            PredecodeMode::Off => None,
            PredecodeMode::Batch => Some(BatchPredecoder::with_table(
                self.parent,
                Arc::clone(self.shared.no_transit()),
            )),
        };
        self
    }

    /// The layer structure decoded over.
    pub fn layers(&self) -> &LayerMap {
        &self.layers
    }

    /// Number of distinct window ranges this driver has used so far.
    pub fn cached_windows(&self) -> usize {
        self.local.len()
    }

    /// Looks up (or builds) the window context for layers `lo..hi`,
    /// memoizing the `Arc` locally so replays skip the shared lock.
    fn window_ctx(&mut self, lo: u32, hi: u32) -> Arc<WindowContext> {
        if let Some(ctx) = self.local.get(&(lo, hi)) {
            return Arc::clone(ctx);
        }
        let ctx = self
            .shared
            .get_or_build(self.parent, self.layers.det_range(lo, hi), (lo, hi));
        self.local.insert((lo, hi), Arc::clone(&ctx));
        ctx
    }

    /// Decodes one whole shot window-by-window, as the streaming runtime
    /// would, and returns the committed correction plus the per-window
    /// records the backlog simulator consumes.
    ///
    /// `dets` is the complete sorted flipped-detector list of the shot;
    /// the driver itself re-slices it into arrival order (detectors are
    /// layer-contiguous), so callers can replay both live streams and
    /// pre-sampled shots. On [`Datapath::Packed`] the list is packed
    /// once and decoded exactly as
    /// [`SlidingWindowDecoder::decode_shot_packed_into`] would; on
    /// [`Datapath::Byte`] it is the sparse reference path.
    pub fn decode_shot(&mut self, dets: &[DetectorId]) -> WindowedOutcome {
        let mut out = WindowedOutcome::default();
        match self.datapath {
            Datapath::Byte => self.run_shot(ShotInput::Sparse(dets), &mut out),
            Datapath::Packed => {
                let num_dets = self.layers.num_detectors() as usize;
                debug_assert!(dets.iter().all(|&d| (d as usize) < num_dets));
                let mut packed = std::mem::take(&mut self.packed_in);
                packed.clear();
                packed.ensure(num_dets);
                for &d in dets {
                    packed.set(d as usize);
                }
                self.run_shot(ShotInput::Packed(packed.words()), &mut out);
                self.packed_in = packed;
            }
        }
        out
    }

    /// Decodes one shot given as a zero-copy packed word view (e.g. a
    /// [`crate::PackedShot`] borrowed from the stream arena), writing
    /// the outcome into `out` — the allocation-free hot-loop entry
    /// point: all per-shot state is pooled inside the driver, and
    /// `out.windows`' capacity is recycled across calls, so a
    /// steady-state (defect-free) round performs zero heap allocations.
    ///
    /// Bit-identical to [`SlidingWindowDecoder::decode_shot`] on the
    /// sparse form of the same syndrome.
    ///
    /// # Panics
    ///
    /// Panics unless the driver is on [`Datapath::Packed`].
    pub fn decode_shot_packed_into(&mut self, words: &[u64], out: &mut WindowedOutcome) {
        assert_eq!(
            self.datapath,
            Datapath::Packed,
            "packed ingest requires Datapath::Packed"
        );
        self.run_shot(ShotInput::Packed(words), out);
    }

    /// The commit/defer rule, the same for both tiers: a match `a`–`b`
    /// (`None` = the boundary) whose endpoints all lie below `commit_end`
    /// is final (returns true: the caller XORs its observable in); any
    /// other match is discarded and its defects roll into the next
    /// window through `carry`. Takes the two fields it touches rather
    /// than `&mut self`, so it can run while the L1 tier's outcome is
    /// still on loan.
    fn settle(
        layers: &LayerMap,
        carry: &mut Vec<DetectorId>,
        tally: &mut Tally,
        commit_end: u32,
        a: DetectorId,
        b: Option<DetectorId>,
    ) -> bool {
        let top = match b {
            Some(b) => layers.layer_of(a).max(layers.layer_of(b)),
            None => layers.layer_of(a),
        };
        if top < commit_end {
            tally.committed += 1;
            true
        } else {
            carry.push(a);
            carry.extend(b);
            tally.deferred += 1 + usize::from(b.is_some());
            false
        }
    }

    /// The window engine: walks one shot through its window steps,
    /// writing the committed correction and the per-window records
    /// straight into `out`.
    fn run_shot(&mut self, input: ShotInput<'_>, out: &mut WindowedOutcome) {
        out.obs_flip = 0;
        out.failed = false;
        out.windows.clear();
        self.carry.clear();
        let num_layers = self.layers.num_layers();
        // Owned handles, so emission sites stay legal next to `&mut self`
        // calls; each clone is one refcount bump, no heap.
        let trace = ShotTrace {
            buf: self.trace.clone(),
            tenant: self.trace_tenant,
            seq: self.trace_seq,
        };
        self.trace_seq += 1;
        let spans = self.spans.clone();
        // How much of `input` earlier windows consumed: a list index
        // (sparse) or a bit position (packed).
        let mut next_new = 0usize;
        for widx in 0u32.. {
            let s = widx * self.cfg.commit;
            // Span sampling is per window step: a sampled step times
            // every stage, so its per-stage figures stay comparable.
            let sp = spans.as_deref().filter(|_| self.sampler.hit());
            let t_step = span_start(sp);
            let hi = (s + self.cfg.window).min(num_layers);
            let is_last = hi == num_layers;
            let commit_end = if is_last {
                num_layers
            } else {
                s + self.cfg.commit
            };
            let hi_det = self.layers.det_range(0, hi).end;
            // Active defects: deferred carry-overs plus the events of the
            // newly arrived layers.
            self.active.clear();
            match input {
                ShotInput::Sparse(dets) => {
                    self.active.append(&mut self.carry);
                    while next_new < dets.len() && dets[next_new] < hi_det {
                        self.active.push(dets[next_new]);
                        next_new += 1;
                    }
                    self.active.sort_unstable();
                }
                ShotInput::Packed(words) => {
                    // Carried defects merge as set bits and the newly
                    // arrived layers are OR-ed straight from the words —
                    // no per-detector materialization, the sort falls
                    // out of bit order, and the reset costs O(touched
                    // words).
                    self.pbits.clear();
                    self.pbits.ensure(hi_det as usize);
                    for d in self.carry.drain(..) {
                        self.pbits.set(d as usize);
                    }
                    self.pbits.or_words_range(words, next_new, hi_det as usize);
                    next_new = hi_det as usize;
                    for_each_set_bit(self.pbits.words(), |b| self.active.push(b as DetectorId));
                }
            }
            let hw = self.active.len();
            span_end(sp, Stage::Window, t_step);
            trace.emit(widx, TraceKind::WindowOpen, hw);
            let mut latency_ns = None;
            let mut l1_resolved = false;
            let mut escalated = false;
            let mut l1_tally = Tally::default();
            // L1 stage: locally resolve the window, commit/defer the
            // local matches by the same rule as solver matches, and
            // keep only the escalated residual for the solver.
            if let Some(l1) = self.l1.as_mut() {
                let t_l1 = span_start(sp);
                let l1_out = if self.datapath == Datapath::Packed && hw > 0 {
                    // Seam-masked word extraction of the window's bit
                    // range (extended down to the oldest carried
                    // defect), then the word-parallel L1 pipeline.
                    let base_layer = self.layers.layer_of(self.active[0]).min(s);
                    let wbase = self.layers.det_range(base_layer, hi).start;
                    WordSpan::new(wbase as usize, hi_det as usize)
                        .extract_into(self.pbits.words(), &mut self.pwords);
                    l1.decode_batch_packed(&self.pwords, wbase)
                } else {
                    l1.decode_batch(&self.active)
                };
                for m in &l1_out.matches {
                    if Self::settle(
                        &self.layers,
                        &mut self.carry,
                        &mut l1_tally,
                        commit_end,
                        m.a,
                        m.b,
                    ) {
                        out.obs_flip ^= m.obs;
                    }
                }
                // Copied, not swapped: each list keeps its role and its
                // warmed capacity whatever the parity of windows seen.
                self.active.clear();
                self.active.extend_from_slice(&l1_out.residual);
                if l1_out.complex {
                    // Complex batches escalate even when the greedy
                    // cancellation drained the residual: their
                    // resolution is no longer the verified-unique
                    // matching, so they are outside the L1
                    // bit-identity contract. A drained residual
                    // still pays only the L1 charge; the solver's
                    // charge is added when it actually runs.
                    escalated = true;
                    if self.active.is_empty() {
                        latency_ns = Some(BATCH_PREDECODE_NS);
                    }
                    let arg = (self.active.len() << 8) | l1_out.cause.code() as usize;
                    trace.emit(widx, TraceKind::Escalate, arg);
                } else {
                    l1_resolved = true;
                    latency_ns = Some(BATCH_PREDECODE_NS);
                    trace.emit(widx, TraceKind::L1Resolve, hw);
                }
                // L1-tier commits/defers; the solver tier emits its own
                // below, so one window may carry one event per tier.
                trace.emit_tally(widx, &l1_tally);
                span_end(sp, Stage::Predecode, t_l1);
            }
            // Carried defects may reach back before the step position;
            // extend the extraction range to cover them.
            let lo_layer = match self.active.first() {
                Some(&d) => self.layers.layer_of(d).min(s),
                None => s,
            };
            let solver_hw = self.active.len();
            let mut l2_tally = Tally::default();
            let mut failed = false;
            if solver_hw > 0 {
                let t_solve = span_start(sp);
                let ctx = self.window_ctx(lo_layer, hi);
                let lo_det = ctx.window().det_range().start;
                self.local_ids.clear();
                self.local_ids
                    .extend(self.active.iter().map(|&d| d - lo_det));
                trace.emit(widx, TraceKind::SolveStart, solver_hw);
                // The decoder is rebuilt per window: it borrows the cached
                // graph + path table, so storing it inside the cache entry
                // would make WindowContext self-referential. What must
                // stay warm is kept elsewhere: the per-range state (graph
                // extraction, filled path rows) in the cache, the solver
                // scratch in `solver_ws`.
                let solved = build_decoder(self.kind, ctx.graph(), ctx.paths())
                    .decode_with(&self.local_ids, &mut self.solver_ws);
                span_end(sp, Stage::Solve, t_solve);
                let t_commit = span_start(sp);
                // Escalated windows pay the L1 charge on top of the
                // solver's modeled latency (software decoders report
                // none; their fallback model covers the residual).
                latency_ns = if escalated {
                    solved.latency_ns.map(|l| l + BATCH_PREDECODE_NS)
                } else {
                    solved.latency_ns
                };
                trace.emit(widx, TraceKind::SolveEnd, usize::from(solved.failed));
                failed = solved.failed;
                out.failed |= failed;
                // A failed window has already lost the shot; nothing of
                // it rolls forward.
                if !failed {
                    for m in &solved.matches {
                        let (gb, obs) = match m.b {
                            MatchTarget::Boundary => (None, ctx.paths().boundary_obs(m.a)),
                            MatchTarget::Detector(lb) => {
                                (Some(lb + lo_det), ctx.paths().path_obs(m.a, lb))
                            }
                        };
                        if Self::settle(
                            &self.layers,
                            &mut self.carry,
                            &mut l2_tally,
                            commit_end,
                            m.a + lo_det,
                            gb,
                        ) {
                            out.obs_flip ^= obs;
                        }
                    }
                    trace.emit_tally(widx, &l2_tally);
                }
                span_end(sp, Stage::Commit, t_commit);
            }
            out.windows.push(WindowRecord {
                start_layer: s,
                lo_layer,
                hi_layer: hi,
                commit_end,
                hw,
                latency_ns,
                deferred: l1_tally.deferred + l2_tally.deferred,
                failed,
                solver_hw,
                l1_resolved,
                escalated,
            });
            span_end(sp, Stage::WindowTotal, t_step);
            if is_last {
                break;
            }
        }
        if let ShotInput::Sparse(dets) = input {
            debug_assert_eq!(next_new, dets.len());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoding_graph::packed::words_for;
    use ler::ExperimentContext;

    fn ctx(d: u32, rounds: u32) -> ExperimentContext {
        ExperimentContext::with_rounds(d, rounds, 1e-3)
    }

    fn windowed<'a>(
        ctx: &'a ExperimentContext,
        kind: DecoderKind,
        window: u32,
        commit: u32,
    ) -> SlidingWindowDecoder<'a> {
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        SlidingWindowDecoder::new(
            &ctx.graph,
            layers,
            kind,
            WindowConfig::new(window, commit).unwrap(),
        )
    }

    /// `dets` as packed words over `ctx`'s detector space.
    fn pack(ctx: &ExperimentContext, dets: &[DetectorId]) -> Vec<u64> {
        let mut words = vec![0u64; words_for(ctx.graph.num_detectors() as usize)];
        for &d in dets {
            words[d as usize / 64] |= 1u64 << (d % 64);
        }
        words
    }

    #[test]
    fn config_validation_rejects_bad_splits() {
        assert!(WindowConfig::new(4, 0).is_err());
        assert!(WindowConfig::new(2, 3).is_err());
        assert!(WindowConfig::new(3, 3).is_ok());
        assert!(WindowConfig::new(4, 2).is_ok());
    }

    #[test]
    fn empty_shot_produces_empty_windows() {
        let ctx = ctx(3, 6);
        let mut swd = windowed(&ctx, DecoderKind::Mwpm, 4, 2);
        let out = swd.decode_shot(&[]);
        assert!(!out.failed);
        assert_eq!(out.obs_flip, 0);
        // 7 layers, window 4, commit 2: steps at 0, 2, 4 (last).
        assert_eq!(out.windows.len(), 3);
        assert!(out.windows.iter().all(|w| w.hw == 0 && w.deferred == 0));
        assert_eq!(out.windows.last().unwrap().hi_layer, 7);
        assert_eq!(out.windows.last().unwrap().commit_end, 7);
        // Empty windows never build graphs.
        assert_eq!(swd.cached_windows(), 0);
    }

    #[test]
    fn single_mechanisms_are_corrected_windowed() {
        let ctx = ctx(3, 6);
        let mut swd = windowed(&ctx, DecoderKind::Mwpm, 4, 2);
        for e in &ctx.dem.errors {
            let out = swd.decode_shot(e.dets.as_slice());
            assert!(!out.failed);
            assert_eq!(out.obs_flip, e.obs, "mechanism {:?}", e);
        }
    }

    #[test]
    fn deferred_defects_roll_into_the_next_window() {
        let ctx = ctx(3, 6);
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        // A mechanism whose defects sit at the first commit boundary so
        // its window-0 match must be deferred (top layer >= commit_end).
        let e = ctx
            .dem
            .errors
            .iter()
            .find(|e| {
                e.dets.len() == 2
                    && layers.layer_of(e.dets.as_slice()[0]) < 2
                    && layers.layer_of(e.dets.as_slice()[1]) >= 2
            })
            .expect("a commit-boundary-straddling mechanism exists");
        let mut swd = windowed(&ctx, DecoderKind::Mwpm, 4, 2);
        let out = swd.decode_shot(e.dets.as_slice());
        assert!(!out.failed);
        assert_eq!(out.obs_flip, e.obs);
        assert!(
            out.windows[0].deferred > 0,
            "straddling match must defer: {:?}",
            out.windows
        );
        // The carried defect reaches back before window 1's step layer.
        assert!(out.windows[1].lo_layer < out.windows[1].start_layer);
    }

    #[test]
    fn window_cache_is_reused_across_shots() {
        let ctx = ctx(3, 6);
        let mut swd = windowed(&ctx, DecoderKind::Mwpm, 4, 2);
        for e in ctx.dem.errors.iter().take(40) {
            let _ = swd.decode_shot(e.dets.as_slice());
        }
        let after_first = swd.cached_windows();
        for e in ctx.dem.errors.iter().take(40) {
            let _ = swd.decode_shot(e.dets.as_slice());
        }
        assert_eq!(
            swd.cached_windows(),
            after_first,
            "no new windows on replay"
        );
        // Far fewer distinct ranges than total window decodes.
        assert!(after_first <= 8, "cache stayed small: {after_first}");
    }

    #[test]
    fn drivers_share_one_window_cache() {
        let ctx = ctx(3, 6);
        let layers = Arc::new(LayerMap::from_graph(&ctx.graph).unwrap());
        let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
        let cfg = WindowConfig::new(4, 2).unwrap();
        let mut a = SlidingWindowDecoder::with_cache(
            &ctx.graph,
            Arc::clone(&layers),
            DecoderKind::Mwpm,
            cfg,
            Arc::clone(&cache),
        );
        // Same kind: both drivers walk identical window ranges (defer
        // decisions, and therefore carried-defect extensions, are
        // kind-dependent).
        let mut b = SlidingWindowDecoder::with_cache(
            &ctx.graph,
            layers,
            DecoderKind::Mwpm,
            cfg,
            Arc::clone(&cache),
        );
        for e in ctx.dem.errors.iter().take(30) {
            let _ = a.decode_shot(e.dets.as_slice());
        }
        let after_a = cache.len();
        assert_eq!(after_a, a.cached_windows());
        for e in ctx.dem.errors.iter().take(30) {
            let _ = b.decode_shot(e.dets.as_slice());
        }
        // The second driver replays the same ranges: nothing is rebuilt.
        assert_eq!(cache.len(), after_a);
        assert_eq!(b.cached_windows(), after_a);
    }

    #[test]
    fn hw_limited_decoder_fails_the_shot_on_window_overflow() {
        let ctx = ctx(5, 8);
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        // 12 defects inside one window overflow Astrea's HW <= 10 limit.
        let range = layers.det_range(1, 2);
        let dets: Vec<u32> = (range.start..range.start + 12).collect();
        let mut swd = windowed(&ctx, DecoderKind::Astrea, 4, 2);
        let out = swd.decode_shot(&dets);
        assert!(out.failed);
        assert!(out.windows.iter().any(|w| w.failed));
        // The failed shot leaves the driver's pooled per-shot state
        // (carried defects, active list, packed scratch) wherever the
        // overflow caught it. A long-lived driver must still decode every
        // later shot exactly as a fresh one would, through either entry
        // point and on either datapath.
        let astrea = |dp| windowed(&ctx, DecoderKind::Astrea, 4, 2).with_datapath(dp);
        let mut byte = astrea(Datapath::Byte);
        let mut packed = astrea(Datapath::Packed);
        let mut zero = astrea(Datapath::Packed);
        let mut got = WindowedOutcome::default();
        for (i, e) in ctx.dem.errors.iter().take(60).enumerate() {
            // Every 20th shot is the overflow again; the rest are ordinary.
            let overflow = i % 20 == 0;
            let shot = if overflow { &dets } else { e.dets.as_slice() };
            let fresh = astrea(Datapath::Byte).decode_shot(shot);
            assert_eq!(fresh.failed, overflow);
            assert_eq!(byte.decode_shot(shot), fresh, "byte, shot {i}");
            assert_eq!(packed.decode_shot(shot), fresh, "packed, shot {i}");
            zero.decode_shot_packed_into(&pack(&ctx, shot), &mut got);
            assert_eq!(got, fresh, "packed-into, shot {i}");
        }
    }

    #[test]
    fn predecode_mode_round_trips_through_labels_and_codes() {
        for mode in [PredecodeMode::Off, PredecodeMode::Batch] {
            assert_eq!(PredecodeMode::parse(mode.label()), Ok(mode));
            assert_eq!(PredecodeMode::from_code(mode.code()), Some(mode));
        }
        assert_eq!(PredecodeMode::default(), PredecodeMode::Off);
        assert!(PredecodeMode::parse("clique").is_err());
        assert_eq!(PredecodeMode::from_code(7), None);
    }

    #[test]
    fn l1_resolved_windows_commit_correct_matches_without_the_solver() {
        let ctx = ctx(3, 6);
        for kind in [DecoderKind::Mwpm, DecoderKind::AstreaG] {
            let mut swd = windowed(&ctx, kind, 4, 2).with_predecode(PredecodeMode::Batch);
            let mut l1_windows = 0usize;
            for e in &ctx.dem.errors {
                let out = swd.decode_shot(e.dets.as_slice());
                assert!(!out.failed);
                assert_eq!(out.obs_flip, e.obs, "{kind:?} mechanism {e:?}");
                for w in &out.windows {
                    assert!(!(w.l1_resolved && w.escalated));
                    if w.l1_resolved {
                        l1_windows += 1;
                        assert_eq!(w.solver_hw, 0);
                        assert_eq!(w.latency_ns, Some(BATCH_PREDECODE_NS));
                    }
                }
            }
            assert!(l1_windows > 0, "{kind:?}: L1 resolved no windows");
        }
    }

    #[test]
    fn escalated_windows_pay_the_solver_plus_the_l1_charge() {
        let ctx = ctx(5, 6);
        // A lone interior defect is never a trivial chain, so L1 must
        // escalate it to the solver with the two-cycle charge on top.
        let bd = ctx.graph.boundary_node();
        let layers = LayerMap::from_graph(&ctx.graph).unwrap();
        let interior = (0..ctx.graph.num_detectors())
            .find(|&d| layers.layer_of(d) == 1 && ctx.graph.edge_between(d, bd).is_none())
            .expect("an interior layer-1 detector exists");
        let mut off = windowed(&ctx, DecoderKind::AstreaG, 4, 2);
        let base = off.decode_shot(&[interior]);
        let mut on =
            windowed(&ctx, DecoderKind::AstreaG, 4, 2).with_predecode(PredecodeMode::Batch);
        let out = on.decode_shot(&[interior]);
        assert_eq!(out.obs_flip, base.obs_flip);
        let w_on = &out.windows[0];
        let w_off = &base.windows[0];
        assert!(w_on.escalated && !w_on.l1_resolved);
        assert_eq!(w_on.solver_hw, 1);
        assert_eq!(
            w_on.latency_ns,
            w_off.latency_ns.map(|l| l + BATCH_PREDECODE_NS),
            "escalation adds exactly the L1 charge"
        );
    }

    #[test]
    fn datapath_defaults_to_packed_and_round_trips_labels() {
        for dp in [Datapath::Byte, Datapath::Packed] {
            assert_eq!(Datapath::parse(dp.label()), Ok(dp));
            assert_eq!(Datapath::from_code(dp.code()), Some(dp));
        }
        assert_eq!(Datapath::default(), Datapath::Packed);
        assert!(Datapath::parse("sparse").is_err());
        assert_eq!(Datapath::from_code(9), None);
        let ctx = ctx(3, 4);
        let swd = windowed(&ctx, DecoderKind::Mwpm, 4, 2);
        assert_eq!(swd.datapath(), Datapath::Packed);
        assert_eq!(swd.with_datapath(Datapath::Byte).datapath(), Datapath::Byte);
    }

    #[test]
    fn packed_and_byte_datapaths_agree_bit_for_bit() {
        let ctx = ctx(3, 6);
        // Single mechanisms plus denser composite shots (unions of
        // several mechanisms) so carried defects, L1 escalation, and
        // multi-word windows all get exercised.
        let mut shots: Vec<Vec<DetectorId>> = ctx
            .dem
            .errors
            .iter()
            .take(30)
            .map(|e| e.dets.as_slice().to_vec())
            .collect();
        for k in 0..10 {
            let mut merged: Vec<DetectorId> = ctx
                .dem
                .errors
                .iter()
                .skip(k)
                .step_by(7)
                .take(4)
                .flat_map(|e| e.dets.as_slice().iter().copied())
                .collect();
            merged.sort_unstable();
            merged.dedup();
            shots.push(merged);
        }
        for kind in [
            DecoderKind::Mwpm,
            DecoderKind::UnionFind,
            DecoderKind::AstreaG,
        ] {
            for mode in [PredecodeMode::Off, PredecodeMode::Batch] {
                let mut packed = windowed(&ctx, kind, 4, 2)
                    .with_predecode(mode)
                    .with_datapath(Datapath::Packed);
                let mut byte = windowed(&ctx, kind, 4, 2)
                    .with_predecode(mode)
                    .with_datapath(Datapath::Byte);
                for dets in &shots {
                    let got = packed.decode_shot(dets);
                    let want = byte.decode_shot(dets);
                    assert_eq!(got, want, "{kind:?} predecode={}", mode.label());
                }
            }
        }
    }

    #[test]
    fn packed_ingest_matches_sparse_ingest_bit_for_bit() {
        let ctx = ctx(3, 6);
        for kind in [DecoderKind::Mwpm, DecoderKind::AstreaG] {
            for mode in [PredecodeMode::Off, PredecodeMode::Batch] {
                let mut sparse = windowed(&ctx, kind, 4, 2).with_predecode(mode);
                let mut zero = windowed(&ctx, kind, 4, 2).with_predecode(mode);
                let mut out = WindowedOutcome::default();
                // Defect-free shot first (the steady-state hot case).
                zero.decode_shot_packed_into(&pack(&ctx, &[]), &mut out);
                assert_eq!(out, sparse.decode_shot(&[]));
                for e in ctx.dem.errors.iter().take(40) {
                    zero.decode_shot_packed_into(&pack(&ctx, e.dets.as_slice()), &mut out);
                    assert_eq!(out, sparse.decode_shot(e.dets.as_slice()), "{kind:?} {e:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "packed ingest requires Datapath::Packed")]
    fn packed_ingest_rejects_the_byte_datapath() {
        let ctx = ctx(3, 4);
        let mut swd = windowed(&ctx, DecoderKind::Mwpm, 4, 2).with_datapath(Datapath::Byte);
        let mut out = WindowedOutcome::default();
        swd.decode_shot_packed_into(&[0], &mut out);
    }

    #[test]
    fn whole_shot_window_equals_direct_decode() {
        // window == all layers: one window, everything committed — must
        // equal the plain decoder bit for bit.
        let ctx = ctx(3, 4);
        let mut swd = windowed(&ctx, DecoderKind::Mwpm, 5, 5);
        let mut direct = ctx.decoder(DecoderKind::Mwpm);
        for e in &ctx.dem.errors {
            let w = swd.decode_shot(e.dets.as_slice());
            let d = direct.decode(e.dets.as_slice());
            assert_eq!(w.failed, d.failed);
            assert_eq!(w.obs_flip, d.obs_flip, "mechanism {:?}", e);
            assert_eq!(w.windows.len(), 1);
        }
    }
}
