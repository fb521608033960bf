//! The router's hand-off under irregular load: two sessions submit with
//! seeded 0–50 µs gaps, so each router finds its shards parked, busy, or
//! half-way into a park in every proportion — sweeping inline, waking
//! the thread, or losing the lock race to another session's router.
//! Over both endpoints — an in-process socket pair and loopback TCP —
//! and S ∈ {1, 2}, every shot must be committed
//! exactly once and in order per tenant, nothing may hang, and some
//! sweeps must have run on a router.

use ler::{DecoderKind, ExperimentContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use realtime::{Datapath, PredecodeMode, SyndromeStream};
use service::{
    channel_pair, qubit_seed, tcp_endpoint, DecodeServer, Endpoint, Frame, ScenarioContext,
    ServiceConfig,
};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

const SCENARIO: &str = "handoff";
/// Tenants per session; session `i` owns qubits `2i` and `2i + 1`.
const TENANTS: u32 = 2;
/// Submissions a session keeps outstanding, far below the per-tenant
/// gate, so nothing is shed.
const WINDOW: u64 = 32;

/// One session's whole life from the client side: register, submit
/// `submits` shots round-robin over its tenants with seeded gaps while
/// a second thread reads and checks the commits, then shut down.
fn session(client: Endpoint, ctx: &ExperimentContext, first_qubit: u32, submits: u64) {
    let Endpoint {
        mut sink,
        mut source,
    } = client;
    for q in first_qubit..first_qubit + TENANTS {
        sink.send(&Frame::RegisterQubit {
            qubit: q,
            decoder: DecoderKind::Mwpm.code(),
            window: 3,
            commit: 2,
            predecode: PredecodeMode::Off.code(),
            datapath: Datapath::Packed.code(),
            scenario: SCENARIO.into(),
        })
        .unwrap();
        match source.recv().unwrap() {
            Some(Frame::RegisterAck { ok: true, .. }) => {}
            other => panic!("registration answered {other:?}"),
        }
    }
    let received = AtomicU64::new(0);
    let mut sink = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let layers = decoding_graph::LayerMap::from_graph(&ctx.graph).unwrap();
            let mut streams: Vec<SyndromeStream<'_>> = (first_qubit..first_qubit + TENANTS)
                .map(|q| SyndromeStream::new(&ctx.circuit, layers.clone(), qubit_seed(5, q)))
                .collect();
            let mut gaps = StdRng::seed_from_u64(0x6A95 + u64::from(first_qubit));
            for k in 0..submits {
                while k - received.load(Ordering::Acquire) >= WINDOW {
                    std::thread::sleep(Duration::from_micros(20));
                }
                let gap = gaps.gen_range(0..=50u64);
                if gap > 0 {
                    std::thread::sleep(Duration::from_micros(gap));
                }
                let t = (k % u64::from(TENANTS)) as usize;
                sink.send(&Frame::SubmitRounds {
                    qubit: first_qubit + t as u32,
                    shot: k / u64::from(TENANTS),
                    dets: streams[t].next_shot().dets,
                })
                .unwrap();
            }
            sink
        });
        let mut next = [0u64; TENANTS as usize];
        for _ in 0..submits {
            match source.recv().unwrap() {
                Some(Frame::CommitResult {
                    qubit,
                    shot,
                    shed: false,
                    ..
                }) => {
                    let t = (qubit - first_qubit) as usize;
                    assert_eq!(shot, next[t], "qubit {qubit}: commit out of order");
                    next[t] += 1;
                }
                other => panic!("a submission answered {other:?}"),
            }
            received.fetch_add(1, Ordering::Release);
        }
        assert_eq!(next, [submits / u64::from(TENANTS); TENANTS as usize]);
        sender.join().unwrap()
    });
    sink.send(&Frame::Shutdown).unwrap();
    assert_eq!(source.recv().unwrap(), Some(Frame::ShutdownAck));
    assert_eq!(source.recv().unwrap(), None, "frames after the ack");
}

/// Serves two sessions of `submits / 2` shots each; fails instead of
/// hanging if the run outlives `guard`.
fn stress(shards: usize, tcp: bool, submits: u64, guard: Duration) {
    let (done_tx, done) = channel();
    std::thread::spawn(move || {
        let ctx = Arc::new(ExperimentContext::with_rounds(3, 4, 1e-3));
        let scenario = ScenarioContext::new(SCENARIO, Arc::clone(&ctx)).unwrap();
        let cfg = ServiceConfig {
            shards,
            max_inflight_shots: 2 * WINDOW as usize,
            ..ServiceConfig::default()
        };
        let server = DecodeServer::new(cfg, vec![scenario]).unwrap();
        std::thread::scope(|scope| {
            let clients: Vec<Endpoint> = if tcp {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap();
                let server = &server;
                scope.spawn(move || server.serve_tcp(&listener, 2).unwrap());
                (0..2)
                    .map(|_| tcp_endpoint(TcpStream::connect(addr).unwrap()).unwrap())
                    .collect()
            } else {
                let (pairs, ends): (Vec<Endpoint>, Vec<Endpoint>) =
                    (0..2).map(|_| channel_pair()).unzip();
                let server = &server;
                scope.spawn(move || server.serve(ends));
                pairs
            };
            for (i, client) in clients.into_iter().enumerate() {
                let ctx = &ctx;
                scope.spawn(move || session(client, ctx, i as u32 * TENANTS, submits / 2));
            }
        });
        let snapshot = server.metrics().snapshot();
        let inline: u64 = snapshot.shards.iter().map(|s| s.inline_sweeps).sum();
        let shots: u64 = snapshot.shards.iter().map(|s| s.shots).sum();
        let _ = done_tx.send((inline, shots));
    });
    let transport = if tcp { "tcp" } else { "in-process" };
    let (inline, shots) = done
        .recv_timeout(guard)
        .unwrap_or_else(|_| panic!("S={shards} {transport}: hung (or a session failed)"));
    assert_eq!(
        shots, submits,
        "S={shards} {transport}: every shot decoded once"
    );
    assert!(
        inline > 0,
        "S={shards} {transport}: no sweep ran on a router"
    );
}

#[test]
fn irregular_gaps_commit_every_shot_once_in_order_on_both_transports() {
    for shards in [1, 2] {
        for tcp in [false, true] {
            stress(shards, tcp, 20_000, Duration::from_secs(120));
        }
    }
}

#[test]
#[ignore = "200 000 submits per configuration; run with --include-ignored in release"]
fn irregular_gaps_at_ten_times_the_volume() {
    for shards in [1, 2] {
        for tcp in [false, true] {
            stress(shards, tcp, 200_000, Duration::from_secs(600));
        }
    }
}
