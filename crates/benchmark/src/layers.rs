//! Per-layer probes of a traced run.
//!
//! Each probe times calls into one layer's public functions, from this
//! crate, on inputs captured from the workload: pool shots, the window
//! syndromes the window engine would extract from them, and the
//! residuals the L1 tier escalates. A probe reports the fastest of a few
//! repeats (interference only ever adds time) and leaves one span per
//! repeat in the tracer.
//!
//! Captured window syndromes are the canonical window steps (`commit`
//! apart, `window` wide) cut straight from the pool shots; defects the
//! live engine carries over from an earlier window are not replayed.

use crate::engine::{Reference, Scenario};
use crate::gen::{HwProfile, Pool};
use crate::report::{in_declared_order, Metric};
use crate::spec::{Workload, END_TO_END, PER_LAYER, ROUND_NS};
use crate::stats::percentile;
use crate::trace::{Tracer, ROOT};
use decoding_graph::packed::{popcount, words_for};
use decoding_graph::{Predecoder, SeamPolicy, SyndromeBatch, WindowCache, WindowContext, WordSpan};
use ler::{build_decoder, DecoderKind, ExperimentContext};
use predecoders::BatchPredecoder;
use promatch::{PromatchConfig, PromatchPredecoder};
use qsim::frame::FrameSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;
use service::admission::{simulate_shard, AdmissionConfig, TenantGate, WindowArrival};
use service::spsc::{self, ShardWaker};
use service::{channel_pair, tcp_endpoint, Endpoint, Frame};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{LogHistogram, TraceBuf, TraceKind};

/// One probe result: a per-layer metric name and its value.
pub type LayerValue = (&'static str, f64);

/// Per-layer metrics only a service run can measure; an engine workload
/// reports them as 0.
pub const SERVICE_RUN_METRICS: &[&str] = &[
    "service.shard.ingest_wait_us_mean",
    "service.shard.parks_per_kshot",
    "service.shard.wakes_per_kshot",
    "service.shard.ring_depth_max",
    "service.shard.busy_fraction",
    "service.sheds",
    "service.rtt_us_mean",
    "service.unattributed_us_per_shot",
    "service.closed_loop_rounds_per_s",
    "loadgen.send_lateness_us_p99",
    "loadgen.cpu_fraction",
];

/// Pool shots the decode probes capture windows from.
const CAPTURE_SHOTS: usize = 4096;
/// Escalated residuals the solver probes decode.
const CAPTURE_RESIDUALS: usize = 384;
/// Repeats per probe; the fastest is reported.
const REPEATS: usize = 3;

/// The metrics of layers the workload never enters, as zeros.
pub fn not_applicable(names: &[&'static str]) -> Vec<LayerValue> {
    names.iter().map(|&n| (n, 0.0)).collect()
}

/// Turns probe results into the declared per-layer metric list, in
/// `BENCHMARK.json` order (see [`in_declared_order`] for what panics).
pub fn metrics(values: Vec<LayerValue>) -> Vec<Metric> {
    let values = values
        .into_iter()
        .map(|(name, value)| {
            let unit = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .map_or("undeclared", |(_, u)| u);
            Metric::exact(name, unit, value)
        })
        .collect();
    in_declared_order(&PER_LAYER, values)
}

/// Splits what a run measured into the metrics of its result line and
/// the ones printed beside it: an untraced run reports the end-to-end
/// set and shows the demoted pair; a traced run reports every per-layer
/// metric (the demoted pair among them) and shows the end-to-end set.
pub fn result_metrics(
    traced: bool,
    end_to_end: Vec<Metric>,
    demoted: Vec<Metric>,
    mut layer: Vec<LayerValue>,
) -> (Vec<Metric>, Vec<Metric>) {
    let end_to_end = in_declared_order(&END_TO_END, end_to_end);
    if traced {
        layer.extend(demoted.iter().map(|m| (m.name, m.value)));
        (metrics(layer), end_to_end)
    } else {
        (end_to_end, demoted)
    }
}

/// What the server-less probes run on: the workload's scenario, pools
/// and reference replays, plus two numbers the run already measured.
pub struct ProbeInputs<'a> {
    /// The scenario to probe.
    pub sc: &'a Scenario,
    /// The workload as run.
    pub w: &'a Workload,
    /// Every tenant's pool.
    pub pools: &'a [Pool],
    /// Every tenant's reference replay.
    pub references: &'a [Reference],
    /// The pools' Hamming-weight profile.
    pub hw: &'a HwProfile,
    /// Seconds the run's kept set-up spent building its context.
    pub context_build_s: f64,
    /// Windows the run's own cache ended up holding.
    pub cache_builds: usize,
}

/// Every probe that needs no running server: set-up, inputs, the decode
/// layers, the service's layers in isolation, and the instruments.
pub fn static_probes(p: &ProbeInputs<'_>, tracer: &mut Tracer) -> Vec<LayerValue> {
    let mut out = setup_probes(p.sc, p.w, p.context_build_s, p.cache_builds, tracer);
    out.extend(input_probes(p.sc.ctx(), p.hw, tracer));
    out.extend(decode_probes(p.sc, p.w, p.pools, tracer));
    out.extend(fraction_metrics(
        p.references,
        p.sc.layers().num_layers() as f64,
    ));
    out.extend(service_probes(p.sc, p.pools, p.references, tracer));
    out.extend(telemetry_probes(tracer));
    out
}

/// Runs `body` [`REPEATS`] times under spans named `name`, each call
/// returning how many operations it did, and reports the fastest
/// repeat's nanoseconds per operation (0 when there was nothing to do).
fn probe(tracer: &mut Tracer, name: &'static str, mut body: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let (ops, secs) = tracer.time(name, ROOT, &mut body);
        if ops == 0 {
            return 0.0;
        }
        best = best.min(secs * 1e9 / ops as f64);
    }
    best
}

/// The canonical window steps of the workload: `(lo_layer, hi_layer)`.
fn window_steps(sc: &Scenario, w: &Workload) -> Vec<(u32, u32)> {
    let num_layers = sc.layers().num_layers();
    let mut steps = Vec::new();
    let mut s = 0;
    loop {
        let hi = (s + w.window).min(num_layers);
        steps.push((s, hi));
        if hi == num_layers {
            return steps;
        }
        s += w.commit;
    }
}

/// Set-up layers: the context build the run measured, a fresh build of
/// every canonical window into an empty cache, and how many windows the
/// run's own cache ended up holding.
fn setup_probes(
    sc: &Scenario,
    w: &Workload,
    context_build_s: f64,
    cache_builds: usize,
    tracer: &mut Tracer,
) -> Vec<LayerValue> {
    let graph = &sc.ctx().graph;
    let steps = window_steps(sc, w);
    let build_ns = probe(tracer, "decoding_graph.window_cache_build", || {
        let cache = WindowCache::new(graph, SeamPolicy::Cut);
        for &(lo, hi) in &steps {
            black_box(cache.get_or_build(graph, sc.layers().det_range(lo, hi), (lo, hi)));
        }
        1
    });
    vec![
        ("ler.context_build_s", context_build_s),
        ("decoding_graph.window_cache_build_s", build_ns / 1e9),
        ("decoding_graph.window_cache_builds", cache_builds as f64),
    ]
}

/// Input layers: what sampling and transposing the traffic cost (both
/// happen before any timed phase), and the traffic's Hamming weight.
fn input_probes(ctx: &ExperimentContext, hw: &HwProfile, tracer: &mut Tracer) -> Vec<LayerValue> {
    const CHUNK: usize = 256;
    const CHUNKS: usize = 4;
    let sampler = FrameSampler::new(&ctx.circuit);
    let mut rng = StdRng::seed_from_u64(1);
    let mut batches = Vec::new();
    let sample_ns = probe(tracer, "qsim.sample_batch", || {
        batches.clear();
        batches.extend((0..CHUNKS).map(|_| sampler.sample_batch(CHUNK, &mut rng)));
        CHUNK * CHUNKS
    });
    let wps = words_for(ctx.graph.num_detectors() as usize).max(1);
    let mut obs = Vec::new();
    let transpose_ns = probe(tracer, "qsim.transpose_shots", || {
        for batch in &batches {
            let mut words = vec![0u64; CHUNK * wps];
            batch.transpose_shots(wps, &mut words, &mut obs);
            black_box(&words);
        }
        CHUNK * CHUNKS
    });
    vec![
        ("qsim.sample_ns_per_shot", sample_ns),
        ("qsim.transpose_ns_per_shot", transpose_ns),
        ("inputs.pool_hw_mean", hw.mean),
        ("inputs.pool_hw_p99", hw.p99 as f64),
    ]
}

/// The L1 fractions of the real traffic, from the reference replays'
/// exact counters.
fn fraction_metrics(references: &[Reference], layers_per_shot: f64) -> Vec<LayerValue> {
    let shots: f64 = references.iter().map(|r| r.obs_flip.len() as f64).sum();
    let windows: f64 = references.iter().map(|r| r.windows.len() as f64).sum();
    let l1: f64 = references.iter().map(|r| r.l1_rounds as f64).sum();
    let esc: f64 = references.iter().map(|r| r.escalated_windows as f64).sum();
    vec![
        (
            "predecoders.l1_resolved_round_fraction",
            l1 / (shots * layers_per_shot),
        ),
        ("predecoders.escalated_window_fraction", esc / windows),
    ]
}

/// One captured window syndrome: `words` rebased so bit 0 is detector
/// `base`, cut at window step `step`.
struct CapturedWindow {
    step: usize,
    base: u32,
    words: Vec<u64>,
}

/// `decoding_graph`, `predecoders`, `promatch` and the solvers, each on
/// windows and residuals captured from the pools.
fn decode_probes(
    sc: &Scenario,
    w: &Workload,
    pools: &[Pool],
    tracer: &mut Tracer,
) -> Vec<LayerValue> {
    let graph = &sc.ctx().graph;
    let steps = window_steps(sc, w);
    let spans: Vec<(u32, WordSpan)> = steps
        .iter()
        .map(|&(lo, hi)| {
            let r = sc.layers().det_range(lo, hi);
            (r.start, WordSpan::new(r.start as usize, r.end as usize))
        })
        .collect();
    let shots: Vec<&[u64]> = pools
        .iter()
        .flat_map(|p| (0..p.shots()).map(move |i| p.shot(i)))
        .take(CAPTURE_SHOTS)
        .collect();

    let popcount_ns = probe(tracer, "decoding_graph.popcount", || {
        for s in &shots {
            black_box(popcount(s));
        }
        shots.len()
    });
    let mut buf = Vec::new();
    let extract_ns = probe(tracer, "decoding_graph.extract_into", || {
        for s in &shots {
            for (_, span) in &spans {
                span.extract_into(s, &mut buf);
                black_box(&buf);
            }
        }
        shots.len() * spans.len()
    });
    let windows: Vec<CapturedWindow> = shots
        .iter()
        .flat_map(|s| {
            spans.iter().enumerate().map(|(step, (base, span))| {
                let mut words = Vec::new();
                span.extract_into(s, &mut words);
                CapturedWindow {
                    step,
                    base: *base,
                    words,
                }
            })
        })
        .collect();

    let mut l1 = BatchPredecoder::new(graph);
    let cancel_ns = probe(tracer, "predecoders.cancel_rounds_packed", || {
        for cw in &windows {
            black_box(l1.cancel_rounds_packed(&cw.words, cw.base));
        }
        windows.len()
    });
    // Residuals escalated past L1, as window-local detector ids.
    let mut residuals: Vec<(usize, Vec<u32>)> = Vec::new();
    let l1_ns = probe(tracer, "predecoders.decode_batch_packed", || {
        residuals.clear();
        for cw in &windows {
            let out = l1.decode_batch_packed(&cw.words, cw.base);
            if out.complex && !out.residual.is_empty() && residuals.len() < CAPTURE_RESIDUALS {
                residuals.push((cw.step, out.residual.iter().map(|d| d - cw.base).collect()));
            }
        }
        windows.len()
    });

    let contexts: Vec<Arc<WindowContext>> = steps
        .iter()
        .map(|&(lo, hi)| {
            sc.scenario
                .window_cache()
                .get_or_build(graph, sc.layers().det_range(lo, hi), (lo, hi))
        })
        .collect();
    let mut batches: Vec<SyndromeBatch> = steps.iter().map(|_| SyndromeBatch::new()).collect();
    for (step, dets) in &residuals {
        batches[*step].push(dets);
    }
    let mut out = vec![
        ("decoding_graph.extract_ns_per_call", extract_ns),
        ("decoding_graph.popcount_ns_per_shot", popcount_ns),
        ("predecoders.l1_ns_per_window", l1_ns),
        ("predecoders.cancel_rounds_ns_per_window", cancel_ns),
    ];
    for (name, kind) in [
        (
            "solver.promatch-par-ag.ns_per_window",
            DecoderKind::PromatchParAg,
        ),
        ("solver.astrea-g.ns_per_window", DecoderKind::AstreaG),
        ("solver.mwpm.ns_per_window", DecoderKind::Mwpm),
        ("solver.union-find.ns_per_window", DecoderKind::UnionFind),
    ] {
        let mut outs = Vec::new();
        let ns = probe(tracer, name, || {
            for (ctx, batch) in contexts.iter().zip(&batches) {
                if !batch.is_empty() {
                    build_decoder(kind, ctx.graph(), ctx.paths()).decode_batch(batch, &mut outs);
                    black_box(&outs);
                }
            }
            residuals.len()
        });
        out.push((name, ns));
    }

    // Promatch engages above the main decoder's Hamming-weight reach.
    let reach = PromatchConfig::default().main_max_hw;
    let heavy: Vec<&(usize, Vec<u32>)> =
        residuals.iter().filter(|(_, d)| d.len() > reach).collect();
    let (mut before, mut after) = (0usize, 0usize);
    let promatch_ns = probe(tracer, "promatch.predecode", || {
        (before, after) = (0, 0);
        for (step, dets) in &heavy {
            let ctx = &contexts[*step];
            let pre = PromatchPredecoder::new(ctx.graph(), ctx.paths()).predecode(dets);
            before += dets.len();
            after += pre.remaining_hw();
        }
        heavy.len()
    });
    let mut hw: Vec<u32> = residuals.iter().map(|(_, d)| d.len() as u32).collect();
    hw.sort_unstable();
    out.extend([
        ("promatch.predecode_ns_per_window", promatch_ns),
        (
            "promatch.hw_removed_fraction",
            if before == 0 {
                0.0
            } else {
                (before - after) as f64 / before as f64
            },
        ),
        (
            "solver.hw_mean",
            hw.iter().map(|&h| h as f64).sum::<f64>() / hw.len().max(1) as f64,
        ),
        (
            "solver.hw_p99",
            if hw.is_empty() {
                0.0
            } else {
                percentile(&hw, 0.99) as f64
            },
        ),
    ]);
    out
}

/// Median round trip, µs, of `n` frame echoes through `client`, with the
/// peer `server` echoing on a thread of its own.
fn echo_rtt_us_p50(mut client: Endpoint, mut server: Endpoint, frame: &Frame, n: usize) -> f64 {
    std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Ok(Some(f)) = server.source.recv() {
                if server.sink.send(&f).is_err() {
                    break;
                }
            }
        });
        let mut rtts: Vec<u64> = (0..n)
            .map(|_| {
                let t = Instant::now();
                client.sink.send(frame).expect("echo peer is alive");
                black_box(client.source.recv().expect("echo peer is alive"));
                t.elapsed().as_nanos() as u64
            })
            .collect();
        // Closing the client ends the echo thread's stream.
        drop(client);
        rtts.sort_unstable();
        percentile(&rtts, 0.50) as f64 / 1e3
    })
}

/// The service's own layers, each in isolation: frame codec, transports
/// (frame echo, no server), the SPSC ring and shard waker, the admission
/// gate and the modeled-queue simulator.
fn service_probes(
    sc: &Scenario,
    pools: &[Pool],
    references: &[Reference],
    tracer: &mut Tracer,
) -> Vec<LayerValue> {
    let layers_per_shot = sc.layers().num_layers() as u64;
    let mut dets = Vec::new();
    let submits: Vec<Frame> = pools
        .iter()
        .enumerate()
        .flat_map(|(q, p)| (0..p.shots()).map(move |i| (q, p, i)))
        .take(2048)
        .map(|(q, p, i)| {
            p.sparse_into(i, &mut dets);
            Frame::SubmitRounds {
                qubit: q as u32,
                shot: i as u64,
                dets: dets.clone(),
            }
        })
        .collect();
    let n = submits.len();
    let mut wires: Vec<Vec<u8>> = Vec::new();
    let encode_submit_ns = probe(tracer, "service.protocol.encode_submit", || {
        wires.clear();
        wires.extend(
            submits
                .iter()
                .map(|f| f.to_wire().expect("pool frames encode")),
        );
        n
    });
    let decode_submit_ns = probe(tracer, "service.protocol.decode_submit", || {
        for wire in &wires {
            let body = Frame::decode_submit_body(&wire[4..]).expect("own frames decode");
            black_box(body.dets().fold(0u32, |a, d| a ^ d));
        }
        n
    });
    let commit = Frame::CommitResult {
        qubit: 3,
        shot: 77,
        obs_flip: 1,
        failed: false,
        shed: false,
        shed_reason: 0,
        windows: 2,
        service_ns_total: 16.0,
    };
    let mut commit_wire = Vec::new();
    let encode_commit_ns = probe(tracer, "service.protocol.encode_commit", || {
        for _ in 0..n {
            commit_wire = black_box(&commit).to_wire().expect("commit frames encode");
        }
        n
    });
    let decode_commit_ns = probe(tracer, "service.protocol.decode_commit", || {
        for _ in 0..n {
            black_box(Frame::decode(black_box(&commit_wire[4..])).expect("own frames decode"));
        }
        n
    });
    let wire_bytes: usize = wires.iter().map(|w| w.len() + commit_wire.len()).sum();

    let ping = &submits[0];
    let (tcp_rtt, _) = tracer.time("service.transport.tcp_echo", ROOT, || {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let client = TcpStream::connect(addr).expect("connect loopback");
        client.set_nodelay(true).expect("set TCP_NODELAY");
        let (server, _) = listener.accept().expect("accept loopback");
        echo_rtt_us_p50(
            tcp_endpoint(client).expect("clone stream"),
            tcp_endpoint(server).expect("clone stream"),
            ping,
            2000,
        )
    });
    let (channel_rtt, _) = tracer.time("service.transport.channel_echo", ROOT, || {
        let (client, server) = channel_pair();
        echo_rtt_us_p50(client, server, ping, 2000)
    });

    let wps = pools[0].words_per_shot;
    let (mut producer, mut consumer) = spsc::ring(1024);
    let push_pop_ns = probe(tracer, "service.spsc.push_pop", || {
        const OPS: usize = 200_000;
        for i in 0..OPS {
            let slot = producer.try_claim().expect("ring is drained every push");
            slot.qubit = 1;
            slot.shot = i as u64;
            slot.words.clear();
            slot.words.resize(wps, 0);
            producer.publish();
            black_box(consumer.slot(0).shot);
            consumer.advance(1);
        }
        OPS
    });
    let (wake_us, _) = tracer.time("service.spsc.wake", ROOT, || {
        const WAKES: usize = 200;
        let waker = ShardWaker::new();
        let (ready_tx, ready_rx) = channel();
        let (woke_tx, woke_rx) = channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                waker.register();
                for _ in 0..WAKES {
                    waker.prepare_park();
                    ready_tx.send(()).expect("prober is alive");
                    waker.park_timeout(Duration::from_millis(100));
                    woke_tx.send(Instant::now()).expect("prober is alive");
                }
            });
            let mut lat: Vec<u64> = (0..WAKES)
                .map(|_| {
                    ready_rx.recv().expect("sleeper is alive");
                    // Let the sleeper reach the park before waking it.
                    std::thread::sleep(Duration::from_micros(200));
                    let t = Instant::now();
                    waker.wake();
                    let woke = woke_rx.recv().expect("sleeper is alive");
                    woke.saturating_duration_since(t).as_nanos() as u64
                })
                .collect();
            lat.sort_unstable();
            percentile(&lat, 0.50) as f64 / 1e3
        })
    });

    let gate = TenantGate::new(4);
    let gate_ns = probe(tracer, "service.admission.gate", || {
        const OPS: usize = 1_000_000;
        for _ in 0..OPS {
            black_box(gate.try_admit());
            gate.complete();
        }
        OPS
    });
    let arrivals: Vec<WindowArrival> = references
        .iter()
        .enumerate()
        .flat_map(|(q, r)| {
            r.windows.iter().map(move |w| WindowArrival {
                qubit: q as u32,
                ready_round: w.shot as u64 * layers_per_shot + w.hi_layer as u64,
                service_ns: w.service_ns,
            })
        })
        .collect();
    let admission = AdmissionConfig {
        round_ns: ROUND_NS,
        deadline_ns: 2.0 * ROUND_NS,
        queue_capacity: 4,
    };
    let simulate_ns = probe(tracer, "service.admission.simulate_shard", || {
        let mut a = arrivals.clone();
        black_box(simulate_shard(&mut a, &admission));
        a.len()
    });

    vec![
        ("service.protocol.encode_submit_ns", encode_submit_ns),
        ("service.protocol.decode_submit_ns", decode_submit_ns),
        ("service.protocol.encode_commit_ns", encode_commit_ns),
        ("service.protocol.decode_commit_ns", decode_commit_ns),
        (
            "service.protocol.bytes_per_round",
            wire_bytes as f64 / (n as u64 * layers_per_shot) as f64,
        ),
        ("service.transport.tcp_rtt_us_p50", tcp_rtt),
        ("service.transport.channel_rtt_us_p50", channel_rtt),
        ("service.spsc.push_pop_ns", push_pop_ns),
        ("service.spsc.wake_latency_us_p50", wake_us),
        ("service.admission.gate_ns", gate_ns),
        ("service.admission.simulate_ns_per_window", simulate_ns),
    ]
}

/// What one instrument reading costs: the clock, a histogram record, a
/// flight-recorder record.
fn telemetry_probes(tracer: &mut Tracer) -> Vec<LayerValue> {
    const OPS: usize = 1_000_000;
    let now_ns = probe(tracer, "telemetry.now", || {
        for _ in 0..OPS {
            black_box(telemetry::now());
        }
        OPS
    });
    let hist = LogHistogram::new();
    let histogram_ns = probe(tracer, "telemetry.histogram_record", || {
        for i in 0..OPS {
            hist.record(black_box(i as u64));
        }
        OPS
    });
    let ring = TraceBuf::new(4096);
    let trace_ns = probe(tracer, "telemetry.trace_record", || {
        for i in 0..OPS {
            ring.record(1, i as u64, 0, TraceKind::Commit, 0);
        }
        OPS
    });
    vec![
        ("telemetry.now_ns", now_ns),
        ("telemetry.histogram_record_ns", histogram_ns),
        ("telemetry.trace_record_ns", trace_ns),
    ]
}
