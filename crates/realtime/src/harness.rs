//! The streaming harness: stream → sliding windows → backlog simulator.
//!
//! Ties the three runtime pieces together for one `(circuit, decoder)`
//! pair: sample shots as a round-by-round stream, decode them through a
//! [`SlidingWindowDecoder`], convert every window decode into a
//! [`WindowTiming`] (modeled hardware latency where the decoder reports
//! one, a per-kind fallback [`LatencyModel`] otherwise), and run the
//! FIFO backlog simulation over the whole stream.

use crate::backlog::{service_ns, simulate_backlog, BacklogConfig, BacklogReport, WindowTiming};
use crate::stream::SyndromeStream;
use crate::window::{PredecodeMode, SlidingWindowDecoder, WindowConfig, WindowedOutcome};
use astrea::AstreaLatencyModel;
use decoding_graph::{DecodingGraph, LatencyModel, LayerMap, PolynomialLatency, WindowCache};
use ler::DecoderKind;
use qsim::circuit::Circuit;
use std::sync::Arc;

/// Fallback latency model for decoder kinds that report no hardware
/// latency of their own.
///
/// * MWPM-based software decoding gets a quadratic-in-HW model fitted to
///   the d = 11, p = 1e-4 decode times PR 2 measured and recorded in
///   CHANGES.md (256 shots × 3 reps on the reference machine):
///   5 462 ns/shot at k = 4 injected mechanisms (HW ≈ 8) and 68 146 at
///   k = 12 (HW ≈ 24);
/// * union-find gets the linear fit to the same run's 4 148 / 19 581
///   ns/shot;
/// * every hardware kind falls back to the Astrea cycle model (they
///   normally report their own latency, so this is a safety net).
pub fn fallback_latency_model(kind: DecoderKind) -> Box<dyn LatencyModel + Send> {
    match kind {
        DecoderKind::Mwpm | DecoderKind::CliqueMwpm => Box::new(PolynomialLatency {
            base_ns: 500.0,
            linear_ns: 0.0,
            quadratic_ns: 100.0,
        }),
        DecoderKind::UnionFind => Box::new(PolynomialLatency {
            base_ns: 300.0,
            linear_ns: 950.0,
            quadratic_ns: 0.0,
        }),
        _ => Box::new(AstreaLatencyModel::default()),
    }
}

/// Configuration of one streaming run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamRunConfig {
    /// Shots to stream.
    pub shots: usize,
    /// Stream RNG seed.
    pub seed: u64,
    /// The sliding-window split.
    pub window: WindowConfig,
    /// Arrival cadence and reaction deadline.
    pub backlog: BacklogConfig,
    /// Whether the L1 batch predecoder runs ahead of the solver.
    pub predecode: PredecodeMode,
}

/// Result of one streaming run.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamRunResult {
    /// Shots streamed.
    pub shots: usize,
    /// Round layers per shot.
    pub layers_per_shot: u32,
    /// Logical failures (wrong committed correction, or any failed
    /// window decode).
    pub failures: u64,
    /// Shots with at least one failed window decode (subset of
    /// `failures`).
    pub decode_failures: u64,
    /// Observed streaming logical error rate per shot.
    pub ler: f64,
    /// Round layers finalized without waking a matching solver (zero
    /// with predecoding off).
    pub l1_rounds: u64,
    /// Windows whose residual syndrome was escalated to the solver
    /// (zero with predecoding off).
    pub escalated_windows: u64,
    /// The backlog / reaction-time simulation over the whole stream.
    pub backlog: BacklogReport,
}

impl StreamRunResult {
    /// Fraction of all streamed rounds the L1 tier resolved before any
    /// matching solver ran.
    pub fn l1_rounds_fraction(&self) -> f64 {
        let total = self.shots as u64 * self.layers_per_shot as u64;
        if total == 0 {
            0.0
        } else {
            self.l1_rounds as f64 / total as f64
        }
    }

    /// Fraction of all windows escalated to the matching solver.
    pub fn escalation_fraction(&self) -> f64 {
        if self.backlog.windows == 0 {
            0.0
        } else {
            self.escalated_windows as f64 / self.backlog.windows as f64
        }
    }
}

/// Side-channel instruments of one streaming run; `Default` arms none.
/// Neither changes a decode outcome: the returned [`StreamRunResult`] is
/// bit-identical with or without them (pinned by the span and
/// trace-purity tests).
#[derive(Default)]
pub struct Instruments {
    /// Wall-clock stage spans: every 1-in-`N` window step (the `u32`)
    /// records its per-stage durations (see [`telemetry::Stage`]).
    pub spans: Option<(Arc<telemetry::StageSpans>, u32)>,
    /// The causal flight recorder: every window step of every shot emits
    /// its trace events, keyed by `(tenant, shot index, window index)`
    /// with the `u32` as tenant.
    pub trace: Option<(Arc<telemetry::TraceBuf>, u32)>,
}

/// Streams `cfg.shots` shots of `circuit` through a sliding-window
/// decoder of `kind` and simulates the decode queue.
///
/// Deterministic given `cfg.seed`: the stream, the windowed corrections,
/// and the modeled timings are all derived from seeded RNG and modeled
/// latencies (never wall-clock time).
///
/// Window subgraphs and path tables come from `cache`, so concurrent
/// runs over the same graph (e.g. the per-decoder fan-out of `repro
/// realtime`) build each one once instead of once per run; a run over a
/// fresh cache gives identical results.
///
/// # Panics
///
/// Panics if `graph`'s detectors carry no layer structure (see
/// [`LayerMap::from_graph`]), the window exceeds the layer count, or
/// `cache` was not built with [`decoding_graph::SeamPolicy::Cut`].
pub fn run_stream(
    graph: &DecodingGraph,
    circuit: &Circuit,
    kind: DecoderKind,
    cfg: &StreamRunConfig,
    cache: &Arc<WindowCache>,
    instruments: Instruments,
) -> StreamRunResult {
    let layers = Arc::new(LayerMap::from_graph(graph).expect("graph has a layer structure"));
    let layers_per_shot = layers.num_layers();
    let mut stream = SyndromeStream::with_shared_layers(circuit, Arc::clone(&layers), cfg.seed);
    let mut swd =
        SlidingWindowDecoder::with_cache(graph, layers, kind, cfg.window, Arc::clone(cache))
            .with_predecode(cfg.predecode);
    if let Some((sp, sample)) = instruments.spans {
        swd.set_spans(sp, sample);
    }
    if let Some((buf, tenant)) = instruments.trace {
        swd.set_trace(buf, tenant);
    }
    let fallback = fallback_latency_model(kind);
    let mut timings: Vec<WindowTiming> = Vec::new();
    let mut failures = 0u64;
    let mut decode_failures = 0u64;
    let mut l1_rounds = 0u64;
    let mut escalated_windows = 0u64;
    let mut out = WindowedOutcome::default();
    for shot_idx in 0..cfg.shots {
        // The stream's shots are zero-copy arena views.
        let shot = stream.next_shot_packed();
        let true_obs = shot.obs;
        swd.decode_shot_packed_into(shot.words, &mut out);
        if out.failed {
            decode_failures += 1;
        }
        if out.failed || out.obs_flip != true_obs {
            failures += 1;
        }
        l1_rounds += out.l1_rounds();
        escalated_windows += out.escalated_windows();
        let base_round = shot_idx as u64 * layers_per_shot as u64;
        for w in &out.windows {
            timings.push(WindowTiming {
                ready_round: base_round + w.hi_layer as u64,
                service_ns: service_ns(w.latency_ns, w.solver_hw, fallback.as_ref()),
            });
        }
    }
    let backlog = simulate_backlog(&timings, &cfg.backlog);
    StreamRunResult {
        shots: cfg.shots,
        layers_per_shot,
        failures,
        decode_failures,
        ler: if cfg.shots == 0 {
            0.0
        } else {
            failures as f64 / cfg.shots as f64
        },
        l1_rounds,
        escalated_windows,
        backlog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decoding_graph::SeamPolicy;
    use ler::ExperimentContext;

    /// A run over a private cache with no instruments armed.
    fn plain(ctx: &ExperimentContext, kind: DecoderKind, cfg: &StreamRunConfig) -> StreamRunResult {
        let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
        run_stream(
            &ctx.graph,
            &ctx.circuit,
            kind,
            cfg,
            &cache,
            Instruments::default(),
        )
    }

    fn run(kind: DecoderKind, shots: usize, seed: u64) -> StreamRunResult {
        let ctx = ExperimentContext::with_rounds(3, 5, 1e-3);
        let cfg = StreamRunConfig {
            shots,
            seed,
            window: WindowConfig::new(4, 2).unwrap(),
            backlog: BacklogConfig::with_commit_deadline(1000.0, 2),
            predecode: PredecodeMode::Off,
        };
        plain(&ctx, kind, &cfg)
    }

    #[test]
    fn stream_run_is_deterministic() {
        let a = run(DecoderKind::Mwpm, 120, 9);
        let b = run(DecoderKind::Mwpm, 120, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn windows_cover_the_whole_stream() {
        let r = run(DecoderKind::Mwpm, 64, 5);
        // 6 layers, window 4, commit 2: 2 windows per shot.
        assert_eq!(r.layers_per_shot, 6);
        assert_eq!(r.backlog.windows, 64 * 2);
        assert!(r.backlog.reaction.max_ns > 0.0);
    }

    #[test]
    fn low_noise_stream_mostly_succeeds() {
        let r = run(DecoderKind::Mwpm, 400, 11);
        assert!(
            (r.ler) < 0.05,
            "windowed MWPM should succeed at d=3, p=1e-3: ler {}",
            r.ler
        );
        assert_eq!(r.decode_failures, 0);
    }

    #[test]
    fn hardware_decoder_reports_modeled_latency() {
        // Astrea-G reports its own hardware latency for every window, so
        // reaction times are bounded by budget + queueing, not the
        // software fallback scale.
        let r = run(DecoderKind::AstreaG, 100, 13);
        assert!(r.backlog.reaction.max_ns > 0.0);
        // All service times fit the 960 ns budget; with 2000 ns between
        // windows the queue never builds up.
        assert_eq!(r.backlog.max_backlog, 1);
        assert_eq!(r.backlog.miss_fraction, 0.0);
    }

    #[test]
    fn shared_cache_runs_match_private_cache_runs() {
        let ctx = ExperimentContext::with_rounds(3, 5, 1e-3);
        let cfg = StreamRunConfig {
            shots: 60,
            seed: 17,
            window: WindowConfig::new(4, 2).unwrap(),
            backlog: BacklogConfig::with_commit_deadline(1000.0, 2),
            predecode: PredecodeMode::Off,
        };
        let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
        for kind in [DecoderKind::Mwpm, DecoderKind::AstreaG] {
            let private = plain(&ctx, kind, &cfg);
            let shared = run_stream(
                &ctx.graph,
                &ctx.circuit,
                kind,
                &cfg,
                &cache,
                Instruments::default(),
            );
            assert_eq!(private, shared, "{:?}", kind);
        }
        // Both kinds walked the same window ranges through one cache.
        assert!(!cache.is_empty());
    }

    #[test]
    fn batch_predecoding_sheds_solver_work_at_low_noise() {
        let ctx = ExperimentContext::with_rounds(3, 5, 1e-3);
        let mut cfg = StreamRunConfig {
            shots: 200,
            seed: 23,
            window: WindowConfig::new(4, 2).unwrap(),
            backlog: BacklogConfig::with_commit_deadline(1000.0, 2),
            predecode: PredecodeMode::Batch,
        };
        let on = plain(&ctx, DecoderKind::Mwpm, &cfg);
        let on_again = plain(&ctx, DecoderKind::Mwpm, &cfg);
        assert_eq!(on, on_again);
        cfg.predecode = PredecodeMode::Off;
        let off = plain(&ctx, DecoderKind::Mwpm, &cfg);
        // The counters are exclusive to batch mode.
        assert_eq!(off.l1_rounds, 0);
        assert_eq!(off.escalated_windows, 0);
        assert!(
            on.l1_rounds_fraction() > 0.5,
            "L1 should finalize most d=3, p=1e-3 rounds: {}",
            on.l1_rounds_fraction()
        );
        assert!(on.escalation_fraction() < 0.5);
        // L1-resolved windows are serviced at the fixed two-cycle charge
        // instead of the MWPM fallback model, so typical reaction times
        // drop with predecoding on.
        assert!(
            on.backlog.reaction.p50_ns < off.backlog.reaction.p50_ns,
            "L1 p50 {} should beat solver-only p50 {}",
            on.backlog.reaction.p50_ns,
            off.backlog.reaction.p50_ns
        );
    }

    #[test]
    fn instrumented_runs_match_and_record_spans() {
        let ctx = ExperimentContext::with_rounds(3, 5, 1e-3);
        let cfg = StreamRunConfig {
            shots: 60,
            seed: 31,
            window: WindowConfig::new(4, 2).unwrap(),
            backlog: BacklogConfig::with_commit_deadline(1000.0, 2),
            predecode: PredecodeMode::Batch,
        };
        let cache = Arc::new(WindowCache::new(&ctx.graph, SeamPolicy::Cut));
        let l1_spans = Arc::new(telemetry::StageSpans::new());
        let spanned = |cfg: &StreamRunConfig, spans: &Arc<telemetry::StageSpans>| {
            let instruments = Instruments {
                spans: Some((Arc::clone(spans), 1)),
                ..Instruments::default()
            };
            run_stream(
                &ctx.graph,
                &ctx.circuit,
                DecoderKind::Mwpm,
                cfg,
                &cache,
                instruments,
            )
        };
        let l1 = spanned(&cfg, &l1_spans);
        // Spans are a pure side channel: the decode outcomes and the
        // modeled backlog simulation are bit-identical.
        assert_eq!(plain(&ctx, DecoderKind::Mwpm, &cfg), l1);
        // Sample 1-in-1 hits every window step of every shot.
        let steps = l1_spans.stage(telemetry::Stage::WindowTotal).count();
        assert_eq!(steps, 2 * cfg.shots as u64, "2 window steps per shot");
        assert!(l1_spans.stage(telemetry::Stage::Window).count() > 0);
        assert!(l1_spans.stage(telemetry::Stage::Predecode).count() > 0);
        // With predecoding off every non-empty window reaches the solver
        // and its matches get committed.
        let mut off_cfg = cfg;
        off_cfg.predecode = PredecodeMode::Off;
        let off_spans = Arc::new(telemetry::StageSpans::new());
        let _ = spanned(&off_cfg, &off_spans);
        assert_eq!(off_spans.stage(telemetry::Stage::Predecode).count(), 0);
        assert!(off_spans.stage(telemetry::Stage::Solve).count() > 0);
        assert!(off_spans.stage(telemetry::Stage::Commit).count() > 0);
        // No router in this harness, so ingest never records.
        assert_eq!(off_spans.stage(telemetry::Stage::Ingest).count(), 0);
    }

    #[test]
    fn fallback_models_cover_every_kind() {
        for kind in [
            DecoderKind::Mwpm,
            DecoderKind::UnionFind,
            DecoderKind::Astrea,
            DecoderKind::AstreaG,
            DecoderKind::PromatchAstrea,
            DecoderKind::PromatchParAg,
            DecoderKind::SmithAstrea,
            DecoderKind::SmithParAg,
            DecoderKind::CliqueAstrea,
            DecoderKind::CliqueAg,
            DecoderKind::CliqueMwpm,
        ] {
            let m = fallback_latency_model(kind);
            assert!(m.latency_ns(4) > 0.0, "{:?}", kind);
            assert!(m.latency_ns(8) >= m.latency_ns(2), "{:?}", kind);
        }
    }
}
