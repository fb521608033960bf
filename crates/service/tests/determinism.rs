//! Service determinism: commit streams are a function of seeds alone.
//!
//! The acceptance criteria of the decode-service PR pin down two
//! properties with bit-level equality:
//!
//! * **Transport-order independence** — with a fixed seed, Q qubits
//!   sharded over S=1 vs S=4 produce identical per-qubit commit streams
//!   (shard assignment and request interleaving must not leak into
//!   decode results);
//! * **Single-tenant equivalence** — every tenant's commit stream equals
//!   the single-tenant sliding-window replay (`repro realtime`'s decode
//!   path) of the same seeded stream.

use ler::{DecoderKind, ExperimentContext};
use realtime::{Datapath, PredecodeMode, SlidingWindowDecoder, SyndromeStream, WindowConfig};
use service::{
    channel_pair, qubit_seed, run_loadgen, tcp_endpoint, DecodeServer, LoadgenConfig,
    LoadgenReport, ScenarioContext, ServiceConfig,
};
use std::sync::Arc;

fn loadgen_cfg(qubits: u32, shots: u64, kind: DecoderKind) -> LoadgenConfig {
    LoadgenConfig {
        scenario: "det".into(),
        qubits,
        shots_per_qubit: shots,
        seed: 2024,
        decoder: kind,
        window: 4,
        commit: 2,
        predecode: PredecodeMode::Off,
        datapath: Datapath::Packed,
        inflight: 3,
    }
}

fn serve_channel(
    ctx: &Arc<ExperimentContext>,
    shards: usize,
    cfg: &LoadgenConfig,
) -> LoadgenReport {
    let scenario = ScenarioContext::new("det", Arc::clone(ctx)).unwrap();
    let server = DecodeServer::new(
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        },
        vec![scenario.clone()],
    )
    .unwrap();
    let (client, server_end) = channel_pair();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve(vec![server_end]));
        run_loadgen(client, ctx, scenario.layers(), cfg).unwrap()
    })
}

#[test]
fn q4_commit_streams_are_identical_for_s1_and_s4() {
    let ctx = Arc::new(ExperimentContext::with_rounds(3, 5, 2e-3));
    for kind in [DecoderKind::Mwpm, DecoderKind::PromatchParAg] {
        let cfg = loadgen_cfg(4, 30, kind);
        let s1 = serve_channel(&ctx, 1, &cfg);
        let s4 = serve_channel(&ctx, 4, &cfg);
        assert_eq!(s1.tenants.len(), 4);
        for (a, b) in s1.tenants.iter().zip(&s4.tenants) {
            assert_eq!(a.qubit, b.qubit);
            assert_eq!(a.seed, b.seed);
            // The commit stream — (shot, obs_flip, failed, shed) per
            // shot — is bit-identical across shardings.
            assert_eq!(a.commits, b.commits, "qubit {} ({:?})", a.qubit, kind);
            assert_eq!(a.failures, b.failures);
        }
        // Tenants actually spread over the 4 shards.
        let shards: std::collections::HashSet<u32> = s4.tenants.iter().map(|t| t.shard).collect();
        assert!(shards.len() > 1, "4 qubits landed on one shard: {shards:?}");
    }
}

#[test]
fn tenant_commit_streams_equal_single_tenant_windowed_replay() {
    let ctx = Arc::new(ExperimentContext::with_rounds(3, 5, 2e-3));
    let cfg = loadgen_cfg(4, 25, DecoderKind::Mwpm);
    let report = serve_channel(&ctx, 2, &cfg);
    let layers = decoding_graph::LayerMap::from_graph(&ctx.graph).unwrap();
    for tenant in &report.tenants {
        // The single-tenant path `repro realtime` uses: one seeded
        // stream, one sliding-window decoder, same (window, commit).
        let mut stream = SyndromeStream::new(&ctx.circuit, layers.clone(), tenant.seed);
        let mut swd = SlidingWindowDecoder::new(
            &ctx.graph,
            layers.clone(),
            DecoderKind::Mwpm,
            WindowConfig::new(cfg.window, cfg.commit).unwrap(),
        );
        assert_eq!(tenant.seed, qubit_seed(cfg.seed, tenant.qubit));
        for commit in &tenant.commits {
            let shot = stream.next_shot();
            let out = swd.decode_shot(&shot.dets);
            assert!(!commit.shed);
            assert_eq!(
                (commit.obs_flip, commit.failed),
                (out.obs_flip, out.failed),
                "qubit {} shot {}",
                tenant.qubit,
                commit.shot
            );
        }
    }
}

#[test]
fn byte_and_packed_datapath_commit_streams_are_identical() {
    // The zero-copy arena path and the byte reference path must be
    // bit-identical all the way through the service: same tenants, same
    // seeds, only the registered datapath differs.
    let ctx = Arc::new(ExperimentContext::with_rounds(3, 5, 2e-3));
    for kind in [DecoderKind::Mwpm, DecoderKind::AstreaG] {
        let packed = serve_channel(&ctx, 2, &loadgen_cfg(4, 20, kind));
        let byte = serve_channel(
            &ctx,
            2,
            &LoadgenConfig {
                datapath: Datapath::Byte,
                ..loadgen_cfg(4, 20, kind)
            },
        );
        for (a, b) in packed.tenants.iter().zip(&byte.tenants) {
            assert_eq!(a.commits, b.commits, "qubit {} ({kind:?})", a.qubit);
            assert_eq!(a.failures, b.failures);
        }
        for (a, b) in packed.stats.iter().zip(&byte.stats) {
            assert_eq!(a.windows, b.windows, "qubit {} ({kind:?})", a.qubit);
            assert_eq!(a.l1_rounds, b.l1_rounds);
            assert_eq!(a.escalated_windows, b.escalated_windows);
        }
    }
}

#[test]
fn predecoded_commit_streams_are_shard_count_independent() {
    // The L1 tier is per-tenant state like the decoder itself: shard
    // assignment and request interleaving must not leak into predecoded
    // commit streams either, and every tenant must match the
    // single-tenant predecoded replay.
    let ctx = Arc::new(ExperimentContext::with_rounds(3, 5, 2e-3));
    let cfg = LoadgenConfig {
        predecode: PredecodeMode::Batch,
        ..loadgen_cfg(4, 25, DecoderKind::Mwpm)
    };
    let s1 = serve_channel(&ctx, 1, &cfg);
    let s4 = serve_channel(&ctx, 4, &cfg);
    let layers = decoding_graph::LayerMap::from_graph(&ctx.graph).unwrap();
    let mut l1_total = 0u64;
    for (a, b) in s1.tenants.iter().zip(&s4.tenants) {
        assert_eq!(a.commits, b.commits, "qubit {}", a.qubit);
        let mut stream = SyndromeStream::new(&ctx.circuit, layers.clone(), a.seed);
        let mut swd = SlidingWindowDecoder::new(
            &ctx.graph,
            layers.clone(),
            DecoderKind::Mwpm,
            WindowConfig::new(cfg.window, cfg.commit).unwrap(),
        )
        .with_predecode(PredecodeMode::Batch);
        for commit in &a.commits {
            let shot = stream.next_shot();
            let out = swd.decode_shot(&shot.dets);
            assert_eq!(
                (commit.obs_flip, commit.failed),
                (out.obs_flip, out.failed),
                "qubit {} shot {}",
                a.qubit,
                commit.shot
            );
        }
    }
    for (a, b) in s1.stats.iter().zip(&s4.stats) {
        assert_eq!(a.l1_rounds, b.l1_rounds, "qubit {}", a.qubit);
        assert_eq!(
            a.escalated_windows, b.escalated_windows,
            "qubit {}",
            a.qubit
        );
        l1_total += a.l1_rounds;
    }
    assert!(l1_total > 0, "L1 resolved rounds under batch predecoding");
}

#[test]
fn tcp_loopback_session_matches_the_channel_transport() {
    let ctx = Arc::new(ExperimentContext::with_rounds(3, 4, 2e-3));
    let cfg = LoadgenConfig {
        window: 3,
        ..loadgen_cfg(3, 12, DecoderKind::AstreaG)
    };
    let channel_report = serve_channel(&ctx, 2, &cfg);
    let scenario = ScenarioContext::new("det", Arc::clone(&ctx)).unwrap();
    let server = DecodeServer::new(
        ServiceConfig {
            shards: 2,
            ..ServiceConfig::default()
        },
        vec![scenario.clone()],
    )
    .unwrap();
    // Ephemeral port (bind to 0) so parallel CI runs never collide.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let tcp_report = std::thread::scope(|scope| {
        scope.spawn(|| server.serve_tcp(&listener, 1).unwrap());
        let endpoint = tcp_endpoint(std::net::TcpStream::connect(addr).unwrap()).unwrap();
        run_loadgen(endpoint, &ctx, scenario.layers(), &cfg).unwrap()
    });
    assert_eq!(channel_report.tenants.len(), tcp_report.tenants.len());
    for (a, b) in channel_report.tenants.iter().zip(&tcp_report.tenants) {
        assert_eq!(a.commits, b.commits, "qubit {}", a.qubit);
    }
    // Server-side accounting agrees wherever it is deterministic (the
    // modeled timeline is a function of the commit streams alone).
    for (a, b) in channel_report.stats.iter().zip(&tcp_report.stats) {
        assert_eq!(a.qubit, b.qubit);
        assert_eq!(a.windows, b.windows);
        assert_eq!(a.p50_ns, b.p50_ns);
        assert_eq!(a.p99_ns, b.p99_ns);
        assert_eq!(a.deadline_misses, b.deadline_misses);
    }
}

#[test]
fn sixteen_tenants_fill_each_distance_row_once_in_one_shared_table() {
    // The L1 tier's memoized distance rows live in the scenario's window
    // cache, not in the tenants: 16 tenants over 4 shards must leave
    // exactly the rows one driver replaying all 16 streams would — zero
    // would mean private tables, more would mean a row filled twice.
    let ctx = Arc::new(ExperimentContext::with_rounds(3, 5, 1e-2));
    let cfg = LoadgenConfig {
        predecode: PredecodeMode::Batch,
        ..loadgen_cfg(16, 12, DecoderKind::Mwpm)
    };
    let scenario = ScenarioContext::new("det", Arc::clone(&ctx)).unwrap();
    let shared = Arc::clone(scenario.window_cache().no_transit());
    let server = DecodeServer::new(
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
        vec![scenario.clone()],
    )
    .unwrap();
    let (client, server_end) = channel_pair();
    let report = std::thread::scope(|scope| {
        scope.spawn(|| server.serve(vec![server_end]));
        run_loadgen(client, &ctx, scenario.layers(), &cfg).unwrap()
    });
    assert_eq!(report.tenants.len(), 16);
    assert!(report.stats.iter().any(|s| s.escalated_windows > 0));

    let replay = Arc::new(decoding_graph::WindowCache::new(
        &ctx.graph,
        decoding_graph::SeamPolicy::Cut,
    ));
    for tenant in &report.tenants {
        let mut stream =
            SyndromeStream::new(&ctx.circuit, (**scenario.layers()).clone(), tenant.seed);
        let mut swd = SlidingWindowDecoder::with_cache(
            &ctx.graph,
            Arc::clone(scenario.layers()),
            DecoderKind::Mwpm,
            WindowConfig::new(cfg.window, cfg.commit).unwrap(),
            Arc::clone(&replay),
        )
        .with_predecode(PredecodeMode::Batch);
        for commit in &tenant.commits {
            let out = swd.decode_shot(&stream.next_shot().dets);
            assert_eq!((commit.obs_flip, commit.failed), (out.obs_flip, out.failed));
        }
    }
    let filled = shared.rows_filled();
    assert!(filled > 0 && filled <= shared.num_detectors());
    assert_eq!(filled, replay.no_transit().rows_filled());
}
