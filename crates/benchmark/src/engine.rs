//! The engine workloads, and the decode plumbing the service workloads
//! reuse for their reference replay.
//!
//! One thread, closed loop: a slice walks the pre-generated pool through
//! `SlidingWindowDecoder::decode_shot_packed_into` a fixed number of
//! times. Every slice decodes identical inputs, so every count repeats
//! exactly, every commit stream must equal the reference replay's, and
//! the only thing that differs between slices is how much the machine
//! interfered — which is why the best slice is the value reported.

use crate::gen::{HwProfile, Pool};
use crate::layers;
use crate::report::{Metric, RunReport};
use crate::spec::{
    Workload, DATAPATH, DECODER, MIN_SLICES, PREDECODE, ROUND_NS, SETUP_BUDGET_S, SETUP_REPEATS,
    SETUP_REPEATS_MAX,
};
use crate::stats::{percentile, samples_beyond};
use crate::sys::{peak_rss_mb, process_cpu_ns};
use crate::trace::{SpanId, Tracer, ROOT};
use decoding_graph::latency::CYCLE_NS;
use decoding_graph::LayerMap;
use ler::ExperimentContext;
use realtime::{
    fallback_latency_model, service_ns, simulate_backlog, BacklogConfig, SlidingWindowDecoder,
    WindowConfig, WindowTiming, WindowedOutcome,
};
use service::ScenarioContext;
use std::sync::Arc;
use std::time::Instant;
use surface_code::{MemoryBasis, NoiseModel};
use telemetry::{Stage, StageSpans};

/// What the command line asked of one run.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Input seed.
    pub seed: u64,
    /// Wall seconds the measured slices may take in all: slices are
    /// fixed work, and a new one starts while this budget lasts.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub traced: bool,
    /// Cut the workload down to a debug-build smoke test.
    pub smoke: bool,
}

impl RunOptions {
    /// Whether set-up should run again after `done` repeats that took
    /// `spent_s` seconds in all.
    pub fn repeat_setup(&self, done: usize, spent_s: f64) -> bool {
        if self.smoke {
            return done < 1;
        }
        done < SETUP_REPEATS || (spent_s < SETUP_BUDGET_S && done < SETUP_REPEATS_MAX)
    }

    /// Seconds of untraced and of span-instrumented slices: an untraced
    /// run spends its whole budget untraced; a traced run halves it, so
    /// it finishes in the same time and can state the instrumentation
    /// overhead from one process.
    pub fn phase_seconds(&self) -> (f64, f64) {
        if self.traced {
            (self.seconds / 2.0, self.seconds / 2.0)
        } else {
            (self.seconds, 0.0)
        }
    }

    /// Runs fixed-work slices back to back until `seconds` of wall time
    /// have gone by: never fewer than [`MIN_SLICES`], and exactly that
    /// many in a smoke run.
    ///
    /// # Errors
    ///
    /// Stops at, and returns, the first slice's error.
    pub fn run_slices<T>(
        &self,
        seconds: f64,
        mut slice: impl FnMut(usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.len() < MIN_SLICES || (!self.smoke && start.elapsed().as_secs_f64() < seconds) {
            out.push(slice(out.len())?);
        }
        Ok(out)
    }
}

/// Builds the workload's experiment context (SD6 noise, memory-Z).
pub fn build_context(w: &Workload) -> ExperimentContext {
    ExperimentContext::with_noise(
        MemoryBasis::Z,
        w.distance,
        w.rounds,
        &NoiseModel::sd6(w.p),
        w.p,
    )
}

/// The shared read-only decode state of one workload, as the service
/// holds it: context, layer map and window cache.
pub struct Scenario {
    /// The serving view (`Arc`ed context, layers, window cache).
    pub scenario: ScenarioContext,
    /// Seconds `ExperimentContext::with_noise` took.
    pub context_build_s: f64,
}

impl Scenario {
    /// Cold build: context, then the `ScenarioContext` around it.
    pub fn build(w: &Workload) -> Scenario {
        let t = Instant::now();
        let ctx = Arc::new(build_context(w));
        let context_build_s = t.elapsed().as_secs_f64();
        let scenario = ScenarioContext::new(w.name, ctx).expect("memory circuits are layered");
        Scenario {
            scenario,
            context_build_s,
        }
    }

    /// The experiment context.
    pub fn ctx(&self) -> &ExperimentContext {
        self.scenario.context()
    }

    /// The layer map.
    pub fn layers(&self) -> &Arc<LayerMap> {
        self.scenario.layers()
    }

    /// A window decoder in the benchmark's frozen configuration, sharing
    /// the scenario's window cache.
    pub fn decoder(&self, w: &Workload) -> SlidingWindowDecoder<'_> {
        SlidingWindowDecoder::with_cache(
            &self.ctx().graph,
            Arc::clone(self.layers()),
            DECODER,
            WindowConfig::new(w.window, w.commit).expect("frozen window split is valid"),
            Arc::clone(self.scenario.window_cache()),
        )
        .with_predecode(PREDECODE)
        .with_datapath(DATAPATH)
    }
}

fn empty_outcome() -> WindowedOutcome {
    WindowedOutcome {
        obs_flip: 0,
        failed: false,
        windows: Vec::new(),
    }
}

/// One window of the reference replay, as the modeled-hardware
/// simulators consume it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefWindow {
    /// Pool index of the shot the window belongs to.
    pub shot: u32,
    /// One past the window's last layer: it is decodable once round
    /// `hi_layer − 1` of its shot has been measured.
    pub hi_layer: u32,
    /// Modeled decode time on the decoder hardware, ns.
    pub service_ns: f64,
}

/// One untimed pass over a pool: the commit stream every later slice
/// must reproduce bit for bit, plus the exact counters of the traffic.
#[derive(Clone, Debug, Default)]
pub struct Reference {
    /// Committed observable flips, per pool shot.
    pub obs_flip: Vec<u64>,
    /// Failed-decode flag, per pool shot.
    pub failed: Vec<bool>,
    /// Every window decoded, in stream order.
    pub windows: Vec<RefWindow>,
    /// Windows escalated past the L1 tier.
    pub escalated_windows: u64,
    /// Round layers finalised at L1.
    pub l1_rounds: u64,
}

impl Reference {
    /// Replays `pool` once through `dec`.
    pub fn replay(dec: &mut SlidingWindowDecoder<'_>, pool: &Pool) -> Reference {
        let fallback = fallback_latency_model(DECODER);
        let mut r = Reference::default();
        let mut out = empty_outcome();
        for i in 0..pool.shots() {
            dec.decode_shot_packed_into(pool.shot(i), &mut out);
            r.obs_flip.push(out.obs_flip);
            r.failed.push(out.failed);
            r.escalated_windows += out.escalated_windows();
            r.l1_rounds += out.l1_rounds();
            r.windows.extend(out.windows.iter().map(|w| RefWindow {
                shot: i as u32,
                hi_layer: w.hi_layer,
                service_ns: service_ns(w.latency_ns, w.solver_hw, fallback.as_ref()),
            }));
        }
        r
    }

    /// Shots whose decode failed outright.
    pub fn decode_failures(&self) -> u64 {
        self.failed.iter().filter(|&&f| f).count() as u64
    }

    /// Shots whose committed correction equals the ground truth.
    pub fn logical_successes(&self, pool: &Pool) -> u64 {
        (0..pool.shots())
            .filter(|&i| !self.failed[i] && self.obs_flip[i] == pool.obs[i])
            .count() as u64
    }
}

/// What one slice measured.
#[derive(Clone, Debug)]
pub struct SliceSample {
    /// Wall seconds the slice's rounds were committed in.
    pub wall_s: f64,
    /// CPU seconds the program under test spent on them.
    pub cpu_s: f64,
    /// Per-shot commit latency, ns, ascending.
    pub latencies_ns: Vec<u32>,
    /// Commits that came back different from the reference stream.
    pub diverged: u64,
}

impl AsRef<SliceSample> for SliceSample {
    fn as_ref(&self) -> &SliceSample {
        self
    }
}

/// CPU seconds of the cheapest slice.
pub fn best_cpu_s<S: AsRef<SliceSample>>(slices: &[S]) -> f64 {
    slices
        .iter()
        .map(|s| s.as_ref().cpu_s)
        .fold(f64::INFINITY, f64::min)
}

impl SliceSample {
    /// Sum of the slice's commit latencies, ns (shots that missed every
    /// limit excluded).
    pub fn latency_sum_ns(&self) -> f64 {
        self.latencies_ns
            .iter()
            .filter(|&&l| l != u32::MAX)
            .map(|&l| l as f64)
            .sum()
    }

    /// Shots whose commit arrived within `limit_us`.
    pub fn within(&self, limit_us: f64) -> u64 {
        let limit_ns = (limit_us * 1e3) as u32;
        self.latencies_ns.partition_point(|&l| l <= limit_ns) as u64
    }
}

/// Decodes `pool` `passes` times, timing every shot; `spans` records one
/// span per shot under the given parent.
pub fn decode_slice(
    dec: &mut SlidingWindowDecoder<'_>,
    pool: &Pool,
    reference: &Reference,
    passes: usize,
    mut spans: Option<(&mut Tracer, SpanId)>,
) -> SliceSample {
    let n = pool.shots();
    let mut latencies_ns = Vec::with_capacity(n * passes);
    let mut out = empty_outcome();
    let mut diverged = 0u64;
    let cpu0 = process_cpu_ns();
    let start = Instant::now();
    // One clock read per shot: shot i's end is shot i+1's start.
    let mut prev = start;
    for _ in 0..passes {
        for i in 0..n {
            dec.decode_shot_packed_into(pool.shot(i), &mut out);
            let now = Instant::now();
            // A failed decode missed every limit, however fast it failed.
            latencies_ns.push(if out.failed {
                u32::MAX
            } else {
                (now - prev).as_nanos().min(u32::MAX as u128 - 1) as u32
            });
            diverged += u64::from(
                out.obs_flip != reference.obs_flip[i] || out.failed != reference.failed[i],
            );
            if let Some((tracer, parent)) = spans.as_mut() {
                tracer.record("realtime.decode_shot", *parent, i as u64, prev, now);
            }
            prev = now;
        }
    }
    let wall_s = (prev - start).as_secs_f64();
    let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
    latencies_ns.sort_unstable();
    SliceSample {
        wall_s,
        cpu_s,
        latencies_ns,
        diverged,
    }
}

fn per_slice<S: AsRef<SliceSample>>(slices: &[S], f: impl Fn(&SliceSample) -> f64) -> Vec<f64> {
    slices.iter().map(|s| f(s.as_ref())).collect()
}

/// The gated time-like end-to-end metrics, each the best of its per-slice
/// values, from slices that each committed `rounds` rounds.
pub fn time_metrics<S: AsRef<SliceSample>>(slices: &[S], rounds: f64) -> Vec<Metric> {
    vec![
        Metric::best_slice(
            "rounds_per_s",
            "rounds/s",
            &per_slice(slices, |s| rounds / s.wall_s),
            true,
        ),
        Metric::best_slice(
            "commit_latency_p50_us",
            "us",
            &per_slice(slices, |s| percentile(&s.latencies_ns, 0.50) as f64 / 1e3),
            false,
        ),
    ]
}

/// The two metrics the noise floor demoted from the gated set to the
/// per-layer list under their own names (see NOISE.md): p99 commit
/// latency and CPU per round, each the best of its per-slice values.
/// Every run measures them; an untraced run prints them beside its
/// result, a traced run reports them.
pub fn demoted_metrics<S: AsRef<SliceSample>>(slices: &[S], rounds: f64) -> Vec<Metric> {
    vec![
        Metric::best_slice(
            "commit_latency_p99_us",
            "us",
            &per_slice(slices, |s| percentile(&s.latencies_ns, 0.99) as f64 / 1e3),
            false,
        ),
        Metric::best_slice(
            "cpu_us_per_round",
            "us",
            &per_slice(slices, |s| s.cpu_s * 1e6 / rounds),
            false,
        ),
    ]
}

/// `within_limit_fraction`: the share of a slice's shots committed within
/// the workload's limit, best slice.
pub fn within_limit_metric<S: AsRef<SliceSample>>(slices: &[S], w: &Workload) -> Metric {
    let shares = per_slice(slices, |s| {
        s.within(w.limit_us) as f64 / s.latencies_ns.len() as f64
    });
    Metric::best_slice("within_limit_fraction", "ratio", &shares, true)
}

/// `realtime.*` per-layer metrics from the stage spans of traced slices
/// that decoded `shots` shots in `decode_wall_ns` of summed per-shot time.
pub fn realtime_metrics(
    spans: &StageSpans,
    shots: f64,
    decode_wall_ns: f64,
) -> Vec<(&'static str, f64)> {
    let sum = |st: Stage| spans.stage(st).snapshot().sum as f64;
    let windows = spans.stage(Stage::WindowTotal).count().max(1) as f64;
    let (pre, ext, sol, com, tot) = (
        sum(Stage::Predecode),
        sum(Stage::Window),
        sum(Stage::Solve),
        sum(Stage::Commit),
        sum(Stage::WindowTotal),
    );
    vec![
        ("realtime.decode_ns_per_shot", decode_wall_ns / shots),
        ("realtime.windows_per_shot", windows / shots),
        ("realtime.predecode_ns_per_window", pre / windows),
        ("realtime.extract_ns_per_window", ext / windows),
        ("realtime.solve_ns_per_window", sol / windows),
        ("realtime.commit_ns_per_window", com / windows),
        ("realtime.window_total_ns_per_window", tot / windows),
        (
            "realtime.self_ns_per_window",
            (tot - pre - ext - sol - com) / windows,
        ),
        ("realtime.unattributed_fraction", 1.0 - tot / decode_wall_ns),
    ]
}

/// Runs the cold set-up until `opts` has had enough repeats — context, `ScenarioContext`,
/// decoder, and the first decode of `w.setup_fill_shots()` shots, which is
/// where the window cache fills — and keeps the last scenario.
fn cold_setups(w: &Workload, pool: &Pool, opts: &RunOptions) -> (Scenario, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while opts.repeat_setup(times.len(), times.iter().sum()) {
        // Drop the previous repeat first: two live contexts would put
        // the set-up loop, not the run, at the top of peak RSS.
        drop(kept.take());
        let t = Instant::now();
        let sc = Scenario::build(w);
        {
            let mut dec = sc.decoder(w);
            let mut out = empty_outcome();
            for i in 0..w.setup_fill_shots().min(pool.shots()) {
                dec.decode_shot_packed_into(pool.shot(i), &mut out);
            }
        }
        times.push(t.elapsed().as_secs_f64());
        kept = Some(sc);
    }
    (kept.expect("at least one set-up repeat"), times)
}

/// Runs one engine workload.
pub fn run(w: &Workload, opts: &RunOptions, tracer: &mut Tracer) -> RunReport {
    // Inputs first, from a context of their own: sampling is no part of
    // set-up, and nothing sampled survives but the pool.
    let gen_span = tracer.open("inputs.generate", ROOT);
    let pool = {
        let ctx = build_context(w);
        let layers =
            Arc::new(LayerMap::from_graph(&ctx.graph).expect("memory circuits are layered"));
        Pool::generate(&ctx.circuit, &layers, opts.seed, 0, w.pool_shots)
    };
    tracer.close(gen_span);
    let hw = HwProfile::of(std::slice::from_ref(&pool));

    let setup_span = tracer.open("setup", ROOT);
    let (sc, setup_times) = cold_setups(w, &pool, opts);
    tracer.close(setup_span);
    let layers_per_shot = sc.layers().num_layers() as f64;

    // The discarded warm-up slice doubles as the reference replay.
    let warm_span = tracer.open("warmup.reference_replay", ROOT);
    let mut dec = sc.decoder(w);
    let reference = Reference::replay(&mut dec, &pool);
    tracer.close(warm_span);

    let (plain_s, traced_s) = opts.phase_seconds();
    let rounds = w.shots_per_slice() as f64 * layers_per_shot;
    let mut problems = Vec::new();
    let mut check = |what: &str, i: usize, s: &SliceSample| {
        if s.diverged != 0 {
            problems.push(format!(
                "{what} slice {i}: {} commits differ from the reference replay",
                s.diverged
            ));
        }
    };
    let plain = opts
        .run_slices(plain_s, |i| {
            let id = tracer.open("slice", ROOT);
            let s = decode_slice(&mut dec, &pool, &reference, w.passes, None);
            tracer.close(id);
            check("untraced", i, &s);
            Ok(s)
        })
        .expect("engine slices cannot fail");
    let plain_n = plain.len();

    let mut metrics = vec![Metric::best_slice("setup_s", "s", &setup_times, false)];
    metrics.extend(time_metrics(&plain, rounds));
    let attempted = (plain_n * w.shots_per_slice()) as u64;
    let failed = reference.decode_failures() * (plain_n * w.passes) as u64;
    let timings: Vec<WindowTiming> = reference
        .windows
        .iter()
        .map(|rw| WindowTiming {
            ready_round: rw.shot as u64 * layers_per_shot as u64 + rw.hi_layer as u64,
            service_ns: rw.service_ns,
        })
        .collect();
    let model = simulate_backlog(
        &timings,
        &BacklogConfig::with_commit_deadline(ROUND_NS, w.commit),
    );
    metrics.extend([
        within_limit_metric(&plain, w),
        Metric::exact(
            "delivered_fraction",
            "ratio",
            (attempted - failed) as f64 / attempted as f64,
        ),
        Metric::exact(
            "logical_success_fraction",
            "ratio",
            reference.logical_successes(&pool) as f64 / pool.shots() as f64,
        ),
        Metric::exact(
            "model_reaction_p99_cycles",
            "cycles",
            model.reaction.p99_ns / CYCLE_NS,
        ),
        Metric::exact(
            "model_deadline_met_fraction",
            "ratio",
            1.0 - model.miss_fraction,
        ),
    ]);

    let mut notes = vec![
        ("pool_hw_classes", hw.classes_line()),
        (
            "pool",
            format!(
                "{} shots x {} passes per slice, hw mean {:.3} p99 {} max {}",
                pool.shots(),
                w.passes,
                hw.mean,
                hw.p99,
                hw.max
            ),
        ),
        (
            "slices",
            format!("{plain_n} untraced in {plain_s} s, 1 warm-up discarded"),
        ),
        (
            "latency_samples",
            format!(
                "{} per slice, {} beyond p99",
                w.shots_per_slice(),
                samples_beyond(w.shots_per_slice(), 0.99)
            ),
        ),
    ];

    let mut layer = Vec::new();
    if opts.traced {
        let spans = Arc::new(StageSpans::new());
        let mut tdec = sc.decoder(w);
        // Fill the traced decoder's window memo before its spans go on.
        let _ = Reference::replay(&mut tdec, &pool);
        tdec.set_spans(Arc::clone(&spans), 1);
        let traced = opts
            .run_slices(traced_s, |i| {
                let id = tracer.open("slice.traced", ROOT);
                let s = decode_slice(&mut tdec, &pool, &reference, w.passes, Some((tracer, id)));
                tracer.close(id);
                check("traced", i, &s);
                Ok(s)
            })
            .expect("engine slices cannot fail");
        let wall_ns: f64 = traced.iter().map(SliceSample::latency_sum_ns).sum();
        layer.extend(realtime_metrics(
            &spans,
            (traced.len() * w.shots_per_slice()) as f64,
            wall_ns,
        ));
        layer.push((
            "trace.overhead_fraction",
            best_cpu_s(&traced) / best_cpu_s(&plain) - 1.0,
        ));
        layer.extend(layers::static_probes(
            &layers::ProbeInputs {
                sc: &sc,
                w,
                pools: std::slice::from_ref(&pool),
                references: std::slice::from_ref(&reference),
                hw: &hw,
                context_build_s: sc.context_build_s,
                cache_builds: sc.scenario.window_cache().builds(),
            },
            tracer,
        ));
        layer.extend(layers::not_applicable(layers::SERVICE_RUN_METRICS));
        notes.push(("traced_slices", format!("{} in {traced_s} s", traced.len())));
        notes.push(("spans_recorded", tracer.len().to_string()));
    }
    metrics.push(Metric::exact("peak_rss_mb", "MB", peak_rss_mb()));

    let (metrics, also) =
        layers::result_metrics(opts.traced, metrics, demoted_metrics(&plain, rounds), layer);
    RunReport {
        workload: *w,
        seed: opts.seed,
        traced: opts.traced,
        attempted,
        failed,
        problems,
        metrics,
        also,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn tiny() -> Workload {
        Workload {
            distance: 3,
            rounds: 5,
            p: 5e-3,
            window: 4,
            commit: 2,
            pool_shots: 200,
            passes: 2,
            ..WORKLOADS[0]
        }
    }

    #[test]
    fn slices_reproduce_the_reference_and_a_tampered_one_is_caught() {
        let w = tiny();
        let sc = Scenario::build(&w);
        let pool = Pool::generate(&sc.ctx().circuit, sc.layers(), 3, 0, w.pool_shots);
        let mut dec = sc.decoder(&w);
        let mut reference = Reference::replay(&mut dec, &pool);
        assert_eq!(reference.obs_flip.len(), 200);
        assert_eq!(
            reference.windows.len(),
            200 * 2,
            "6 layers, window 4, commit 2"
        );
        let s = decode_slice(&mut dec, &pool, &reference, w.passes, None);
        assert_eq!(s.diverged, 0);
        assert_eq!(s.latencies_ns.len(), 400);
        assert!(s.latencies_ns.windows(2).all(|p| p[0] <= p[1]));
        assert!(s.wall_s > 0.0 && s.cpu_s > 0.0);
        assert_eq!(s.within(1e6), 400 - 2 * reference.decode_failures());
        // One flipped commit in the reference shows up once per pass.
        reference.obs_flip[17] ^= 1;
        let s = decode_slice(&mut dec, &pool, &reference, w.passes, None);
        assert_eq!(s.diverged, 2);
    }

    #[test]
    fn seconds_bound_the_slices_and_a_traced_run_halves_them() {
        let mut o = RunOptions {
            seed: 1,
            seconds: 20.0,
            traced: false,
            smoke: false,
        };
        assert_eq!(o.phase_seconds(), (20.0, 0.0));
        o.traced = true;
        assert_eq!(o.phase_seconds(), (10.0, 10.0));
        // Slices run while the budget lasts, and never fewer than three.
        let slept = o
            .run_slices(0.3, |i| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(i)
            })
            .unwrap();
        // (A loaded machine oversleeps, so only the ends are certain:
        // more than the minimum ran, and none started past the budget.)
        assert!((MIN_SLICES + 1..=31).contains(&slept.len()), "{slept:?}");
        assert_eq!(o.run_slices(0.0, Ok).unwrap(), [0, 1, 2]);
        assert_eq!(
            o.run_slices(9.0, |i| if i < 1 { Ok(i) } else { Err("boom".into()) }),
            Err("boom".to_string())
        );
        // Five set-ups at least, more while they are cheap, never forty-one.
        assert!(o.repeat_setup(4, 10.0) && !o.repeat_setup(5, 2.5));
        assert!(o.repeat_setup(12, 0.5) && !o.repeat_setup(SETUP_REPEATS_MAX, 0.5));
        o.smoke = true;
        assert!(o.repeat_setup(0, 0.0) && !o.repeat_setup(1, 0.0));
        assert_eq!(o.run_slices(9.0, Ok).unwrap().len(), MIN_SLICES);
    }

    #[test]
    fn the_same_seed_repeats_every_exact_metric_and_another_seed_does_not() {
        let w = WORKLOADS[1].smoke();
        let run_seed = |seed| {
            let opts = RunOptions {
                seed,
                seconds: 3.0,
                traced: false,
                smoke: true,
            };
            let r = run(&w, &opts, &mut Tracer::new());
            assert!(r.correct(), "{:?}", r.problems);
            let exact: Vec<(&str, f64)> = r
                .metrics
                .iter()
                .filter(|m| {
                    m.slices.is_none()
                        && !["peak_rss_mb", "within_limit_fraction"].contains(&m.name)
                })
                .map(|m| (m.name, m.value))
                .collect();
            (exact, r.notes[0].1.clone())
        };
        let (a, hw_a) = run_seed(11);
        let (b, hw_b) = run_seed(11);
        assert_eq!(a.len(), 4, "the exact metrics: {a:?}");
        assert_eq!((a, &hw_a), (b, &hw_b));
        assert_ne!(hw_a, run_seed(12).1, "another seed, another pool");
    }
}
