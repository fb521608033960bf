//! Multi-tenant decode service: decode-as-a-service on top of the
//! streaming runtime.
//!
//! Everything below `crates/service` decodes one logical qubit at a time
//! from an in-process harness. A real control stack must serve *many*
//! logical qubits' syndrome streams concurrently from shared decoding
//! resources — the bandwidth/resource-sharing pressure that motivates
//! predecoding in the first place (Promatch §2). This crate is that
//! layer, std-only:
//!
//! * [`protocol`] — a versioned, length-prefixed binary wire protocol
//!   (register / submit / commit / stats frames);
//! * [`transport`] — the same frames as one byte stream over loopback TCP
//!   or an in-process Unix socket pair, read and written by one
//!   [`FrameSink`]/[`FrameSource`] pair;
//! * [`server`] — [`DecodeServer`]: a sharded worker pool where each
//!   shard owns its tenants' long-lived [`realtime::SlidingWindowDecoder`]
//!   state (qubit → shard by stable hash, deterministic least-loaded
//!   stealing at registration only), while all tenants of a scenario
//!   share one `Arc`ed graph, path table, and window cache;
//! * [`spsc`] — lock-free single-producer/single-consumer submission
//!   rings between session routers and shards: the zero-copy ingest
//!   path packs each `SubmitRounds` wire body straight into a recycled
//!   ring slot's word arena, and the shard decodes the words in place
//!   via `SlidingWindowDecoder::decode_shot_packed_into` — no `Vec<u32>`
//!   per submission, zero steady-state heap allocations per round;
//! * [`admission`] — live per-tenant in-flight gating plus the modeled
//!   bounded-queue/deadline accounting that generalizes the backlog
//!   simulator to many tenants per shard;
//! * [`loadgen`] — a closed-loop load generator whose per-qubit streams
//!   are seed-compatible with single-tenant `repro realtime` runs
//!   (SplitMix64-mixed per-tenant seeds), so commit streams can be
//!   checked bit for bit.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use service::{
//!     channel_pair, run_loadgen, DecodeServer, LoadgenConfig, ScenarioContext, ServiceConfig,
//! };
//! use ler::{DecoderKind, ExperimentContext};
//! use realtime::PredecodeMode;
//!
//! let ctx = Arc::new(ExperimentContext::with_rounds(3, 3, 1e-3));
//! let scenario = ScenarioContext::new("demo", Arc::clone(&ctx)).unwrap();
//! let server = DecodeServer::new(
//!     ServiceConfig { shards: 2, ..ServiceConfig::default() },
//!     vec![scenario.clone()],
//! )
//! .unwrap();
//! let (client, server_end) = channel_pair();
//! let report = std::thread::scope(|scope| {
//!     scope.spawn(|| server.serve(vec![server_end]));
//!     let cfg = LoadgenConfig {
//!         scenario: "demo".into(),
//!         qubits: 2,
//!         shots_per_qubit: 4,
//!         seed: 7,
//!         decoder: DecoderKind::Mwpm,
//!         window: 3,
//!         commit: 2,
//!         predecode: PredecodeMode::Off,
//!         inflight: 2,
//!     };
//!     run_loadgen(client, &ctx, scenario.layers(), &cfg).unwrap()
//! });
//! assert_eq!(report.tenants.len(), 2);
//! assert!(report.tenants.iter().all(|t| t.commits.len() == 4));
//! ```

pub mod admission;
pub mod loadgen;
pub mod postmortem;
pub mod protocol;
pub mod server;
mod shard;
pub mod spsc;
pub mod transport;

pub use admission::{
    simulate_shard, AdmissionConfig, ShedReason, TenantGate, TenantReport, WindowArrival,
};
pub use loadgen::{qubit_seed, run_loadgen, CommitRecord, LoadgenConfig, LoadgenReport, TenantRun};
pub use postmortem::TraceSet;
pub use protocol::{Frame, ServiceError, TenantStatsWire, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use server::{preferred_shard, DecodeServer, ScenarioContext, ServiceConfig};
pub use transport::{channel_pair, tcp_endpoint, Endpoint, FrameSink, FrameSource, ReplySink};

#[cfg(test)]
mod tests {
    use super::*;
    use ler::{DecoderKind, ExperimentContext};
    use realtime::PredecodeMode;
    use std::sync::Arc;

    fn small_ctx() -> Arc<ExperimentContext> {
        Arc::new(ExperimentContext::with_rounds(3, 3, 1e-3))
    }

    fn loadgen_cfg(qubits: u32, shots: u64) -> LoadgenConfig {
        LoadgenConfig {
            scenario: "t".into(),
            qubits,
            shots_per_qubit: shots,
            seed: 11,
            decoder: DecoderKind::Mwpm,
            window: 3,
            commit: 2,
            predecode: PredecodeMode::Off,
            inflight: 2,
        }
    }

    fn serve_once(
        ctx: &Arc<ExperimentContext>,
        service_cfg: ServiceConfig,
        cfg: &LoadgenConfig,
    ) -> LoadgenReport {
        let scenario = ScenarioContext::new("t", Arc::clone(ctx)).unwrap();
        let server = DecodeServer::new(service_cfg, vec![scenario.clone()]).unwrap();
        let (client, server_end) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve(vec![server_end]));
            run_loadgen(client, ctx, scenario.layers(), cfg).unwrap()
        })
    }

    #[test]
    fn end_to_end_session_commits_every_shot() {
        let ctx = small_ctx();
        let cfg = loadgen_cfg(3, 8);
        let report = serve_once(
            &ctx,
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
            &cfg,
        );
        assert_eq!(report.shots_submitted, 24);
        assert_eq!(report.layers_per_shot, 4);
        assert_eq!(report.rounds_submitted, 24 * 4);
        assert_eq!(report.stats.len(), 3);
        for (t, s) in report.tenants.iter().zip(&report.stats) {
            assert_eq!(t.commits.len(), 8);
            assert_eq!(t.qubit, s.qubit);
            assert_eq!(t.shard, s.shard);
            assert_eq!(s.shots, 8);
            assert_eq!(s.shed, 0, "closed loop within budget never sheds");
            assert!(s.windows >= 8, "at least one window per shot");
            // Commit stream is in shot order.
            for (i, c) in t.commits.iter().enumerate() {
                assert_eq!(c.shot, i as u64);
                assert!(!c.shed);
            }
        }
        assert!(report.rounds_per_second() > 0.0);
    }

    #[test]
    fn stats_report_reaction_times_under_light_load_meet_the_deadline() {
        let ctx = small_ctx();
        let cfg = loadgen_cfg(2, 10);
        // Slow cadence (10 µs rounds) and a matching deadline: the
        // modeled queue never backs up and nothing misses.
        let report = serve_once(
            &ctx,
            ServiceConfig {
                shards: 1,
                round_ns: 10_000.0,
                deadline_ns: 20_000.0,
                ..ServiceConfig::default()
            },
            &cfg,
        );
        for s in &report.stats {
            assert_eq!(s.deadline_misses, 0, "{s:?}");
            assert!(s.p99_ns > 0.0);
            assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.max_ns);
        }
    }

    #[test]
    fn unregistered_submit_and_double_register_are_rejected() {
        let ctx = small_ctx();
        let scenario = ScenarioContext::new("t", Arc::clone(&ctx)).unwrap();
        let server = DecodeServer::new(ServiceConfig::default(), vec![scenario]).unwrap();
        let (mut client, server_end) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve(vec![server_end]));
            client
                .sink
                .send(&Frame::SubmitRounds {
                    qubit: 5,
                    shot: 0,
                    dets: vec![],
                })
                .unwrap();
            let err = client.source.recv().unwrap().unwrap();
            assert!(
                matches!(&err, Frame::Error { message } if message.contains("not registered")),
                "{err:?}"
            );
            let reg = Frame::RegisterQubit {
                qubit: 5,
                decoder: DecoderKind::Mwpm.code(),
                window: 3,
                commit: 2,
                predecode: 0,
                datapath: 1,
                scenario: "t".into(),
            };
            client.sink.send(&reg).unwrap();
            match client.source.recv().unwrap().unwrap() {
                Frame::RegisterAck { ok: true, .. } => {}
                other => panic!("expected ok ack, got {other:?}"),
            }
            client.sink.send(&reg).unwrap();
            match client.source.recv().unwrap().unwrap() {
                Frame::RegisterAck {
                    ok: false, message, ..
                } => {
                    assert!(message.contains("already registered"), "{message}");
                }
                other => panic!("expected rejection, got {other:?}"),
            }
            client.sink.send(&Frame::Shutdown).unwrap();
            assert_eq!(client.source.recv().unwrap(), Some(Frame::ShutdownAck));
        });
    }

    #[test]
    fn flooding_past_the_inflight_budget_sheds_live() {
        let ctx = small_ctx();
        let scenario = ScenarioContext::new("t", Arc::clone(&ctx)).unwrap();
        let server = DecodeServer::new(
            ServiceConfig {
                max_inflight_shots: 1,
                ..ServiceConfig::default()
            },
            vec![scenario],
        )
        .unwrap();
        let (client, server_end) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve(vec![server_end]));
            // Owned by this body, so a failed assertion closes the
            // session and `serve` returns instead of hanging the test.
            let mut client = client;
            client
                .sink
                .send(&Frame::RegisterQubit {
                    qubit: 0,
                    decoder: DecoderKind::Mwpm.code(),
                    window: 3,
                    commit: 2,
                    predecode: 0,
                    datapath: 1,
                    scenario: "t".into(),
                })
                .unwrap();
            assert!(matches!(
                client.source.recv().unwrap().unwrap(),
                Frame::RegisterAck { ok: true, .. }
            ));
            // Open-loop burst: 32 shots in one write, without reading a
            // single commit. The router reads the burst at once and
            // publishes all of it before it hands off to the shard, and
            // the gate admits at most one in-flight shot, so most of the
            // burst is shed. Every submission gets exactly one reply: a shed
            // commit, a decoded commit, or — for admitted shots whose
            // sequence numbers were broken by earlier sheds — an error.
            let dets = ctx.dem.errors[0].dets.as_slice().to_vec();
            let mut wire = Vec::new();
            for shot in 0..32u64 {
                Frame::SubmitRounds {
                    qubit: 0,
                    shot,
                    dets: dets.clone(),
                }
                .encode_into(&mut wire)
                .unwrap();
            }
            client.sink.send_wire(&wire).unwrap();
            let mut shed = 0;
            let mut decoded = 0;
            for _ in 0..32 {
                match client.source.recv().unwrap().unwrap() {
                    Frame::CommitResult { shed: true, .. } => shed += 1,
                    Frame::CommitResult { shed: false, .. } => decoded += 1,
                    // The shard tolerates shed-induced sequence gaps, so
                    // no submission of the burst ever errors.
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert_eq!(shed + decoded, 32);
            assert!(
                shed > 0,
                "an open-loop burst of 32 over a gate of 1 must shed"
            );
            assert!(decoded > 0, "the gate admits while the shard drains");
            client.sink.send(&Frame::Shutdown).unwrap();
            assert_eq!(client.source.recv().unwrap(), Some(Frame::ShutdownAck));
        });
    }

    #[test]
    fn loadgen_survives_live_shedding() {
        // A client whose closed-loop depth exceeds the server's live
        // admission budget gets shots shed mid-stream; the run must
        // complete and account for them, not abort on the shed commits
        // overtaking queued decoded ones.
        let ctx = Arc::new(ExperimentContext::with_rounds(3, 3, 2e-2));
        let cfg = LoadgenConfig {
            inflight: 8,
            ..loadgen_cfg(2, 60)
        };
        let report = serve_once(
            &ctx,
            ServiceConfig {
                shards: 1,
                max_inflight_shots: 1,
                ..ServiceConfig::default()
            },
            &cfg,
        );
        let total_shed: u64 = report.tenants.iter().map(|t| t.shed_shots).sum();
        for (t, s) in report.tenants.iter().zip(&report.stats) {
            assert_eq!(t.commits.len(), 60, "every shot gets exactly one commit");
            // The published commit stream is in shot order even with
            // shed commits interleaving out of order on the wire.
            for (i, c) in t.commits.iter().enumerate() {
                assert_eq!(c.shot, i as u64);
            }
            // A shed shot has no correction: it counts as a failure.
            assert!(t.failures >= t.shed_shots);
            // Server-side accounting counts each gate-shed submission
            // exactly once — it opened no windows, so scaling it by
            // windows-per-shot would overstate the shed work.
            assert!(s.shed >= t.shed_shots, "{s:?} vs {}", t.shed_shots);
            assert!(
                s.shed <= t.shed_shots + s.windows,
                "gate sheds are unscaled; modeled sheds cannot exceed \
                 decoded windows: {s:?} vs {}",
                t.shed_shots
            );
        }
        assert!(
            total_shed > 0,
            "a closed loop of depth 8 over a gate of 1 must shed"
        );
    }

    #[test]
    fn traced_server_records_causally_keyed_events() {
        let ctx = small_ctx();
        let scenario = ScenarioContext::new("t", Arc::clone(&ctx)).unwrap();
        let server = DecodeServer::new(
            ServiceConfig {
                shards: 2,
                trace_capacity: 256,
                // Keep the modeled deadline far above any real SPSC
                // queueing delay: this test pins the *clean-run* trace,
                // and a loaded test machine must not fire a
                // deadline-miss postmortem under it.
                deadline_ns: 1e12,
                ..ServiceConfig::default()
            },
            vec![scenario],
        )
        .unwrap();
        let (mut client, server_end) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve(vec![server_end]));
            client
                .sink
                .send(&Frame::RegisterQubit {
                    qubit: 0,
                    decoder: DecoderKind::Mwpm.code(),
                    window: 3,
                    commit: 2,
                    predecode: 1,
                    datapath: 1,
                    scenario: "t".into(),
                })
                .unwrap();
            assert!(matches!(
                client.source.recv().unwrap().unwrap(),
                Frame::RegisterAck { ok: true, .. }
            ));
            // Real syndromes (an empty shot would match nothing, so no
            // Commit event could ever be traced for it).
            for shot in 0..3u64 {
                client
                    .sink
                    .send(&Frame::SubmitRounds {
                        qubit: 0,
                        shot,
                        dets: ctx.dem.errors[shot as usize].dets.as_slice().to_vec(),
                    })
                    .unwrap();
                match client.source.recv().unwrap().unwrap() {
                    Frame::CommitResult { shed: false, .. } => {}
                    other => panic!("shot {shot}: expected a decoded commit, got {other:?}"),
                }
            }
            client.sink.send(&Frame::Shutdown).unwrap();
            assert_eq!(client.source.recv().unwrap(), Some(Frame::ShutdownAck));
        });
        let trace = server.trace().expect("tracing armed");
        assert!(!trace.fired(), "a clean run triggers no postmortem");
        let dump = trace.collect("test");
        assert_eq!(dump.shards.len(), 2, "one row per shard, even idle ones");
        let events: Vec<&telemetry::TraceEvent> =
            dump.shards.iter().flat_map(|s| &s.events).collect();
        // Every decoded shot opened at least one window, and the causal
        // key carries the wire shot id.
        for shot in 0..3u64 {
            assert!(
                events.iter().any(|e| e.tenant == 0
                    && e.seq == shot
                    && e.kind == telemetry::TraceKind::WindowOpen),
                "no WindowOpen for shot {shot}"
            );
        }
        // Commits were traced, and shard-scoped park/wake events use the
        // reserved tenant id.
        assert!(events
            .iter()
            .any(|e| e.kind == telemetry::TraceKind::Commit));
        assert!(events.iter().any(|e| e.tenant == telemetry::SHARD_TENANT
            && matches!(
                e.kind,
                telemetry::TraceKind::Park | telemetry::TraceKind::Wake
            )));
    }

    #[test]
    fn untraced_server_reports_an_empty_trace() {
        let scenario = ScenarioContext::new("t", small_ctx()).unwrap();
        let server = DecodeServer::new(ServiceConfig::default(), vec![scenario]).unwrap();
        assert!(server.trace().is_none());
    }

    #[test]
    fn a_flood_freezes_a_postmortem_whose_sheds_carry_reasons() {
        let dir = std::env::temp_dir().join(format!("svc-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("flood").to_string_lossy().into_owned();
        let ctx = small_ctx();
        let scenario = ScenarioContext::new("t", Arc::clone(&ctx)).unwrap();
        let server = DecodeServer::new(
            ServiceConfig {
                max_inflight_shots: 1,
                trace_capacity: 512,
                trace_dump_prefix: Some(prefix),
                // The shed must be the *first* trigger for the dump
                // reason to be deterministic; park the deadline far out
                // so slow CI machines cannot fire a miss first.
                deadline_ns: 1e12,
                ..ServiceConfig::default()
            },
            vec![scenario],
        )
        .unwrap();
        let (client, server_end) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve(vec![server_end]));
            // Owned by this body, so a failed assertion closes the
            // session and `serve` returns instead of hanging the test.
            let mut client = client;
            client
                .sink
                .send(&Frame::RegisterQubit {
                    qubit: 0,
                    decoder: DecoderKind::Mwpm.code(),
                    window: 3,
                    commit: 2,
                    predecode: 0,
                    datapath: 1,
                    scenario: "t".into(),
                })
                .unwrap();
            assert!(matches!(
                client.source.recv().unwrap().unwrap(),
                Frame::RegisterAck { ok: true, .. }
            ));
            let dets = ctx.dem.errors[0].dets.as_slice().to_vec();
            let mut wire = Vec::new();
            for shot in 0..32u64 {
                Frame::SubmitRounds {
                    qubit: 0,
                    shot,
                    dets: dets.clone(),
                }
                .encode_into(&mut wire)
                .unwrap();
            }
            client.sink.send_wire(&wire).unwrap();
            let mut shed_reasons = Vec::new();
            for _ in 0..32 {
                match client.source.recv().unwrap().unwrap() {
                    Frame::CommitResult {
                        shed: true,
                        shed_reason,
                        ..
                    } => shed_reasons.push(shed_reason),
                    Frame::CommitResult { shed: false, .. } => {}
                    other => panic!("unexpected {other:?}"),
                }
            }
            assert!(!shed_reasons.is_empty(), "the flood must shed");
            assert!(
                shed_reasons
                    .iter()
                    .all(|&r| r == ShedReason::InflightCap.code()),
                "router sheds over the gate are in-flight-cap sheds: {shed_reasons:?}"
            );
            client.sink.send(&Frame::Shutdown).unwrap();
            assert_eq!(client.source.recv().unwrap(), Some(Frame::ShutdownAck));
        });
        let trace = server.trace().expect("tracing armed");
        assert!(trace.fired(), "the first shed freezes a postmortem");
        assert!(trace.triggers() >= 1);
        let path = trace.dump_path().expect("dump written");
        let dump = telemetry::parse_dump(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump.reason, "shed");
        let sheds: Vec<_> = dump
            .shards
            .iter()
            .flat_map(|s| &s.events)
            .filter(|e| e.kind == telemetry::TraceKind::Shed)
            .collect();
        assert!(!sheds.is_empty(), "the dump contains the shed events");
        assert!(sheds
            .iter()
            .all(|e| e.arg == ShedReason::InflightCap.code() as u32));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn two_sessions_share_one_server() {
        let ctx = small_ctx();
        let scenario = ScenarioContext::new("t", Arc::clone(&ctx)).unwrap();
        let server = DecodeServer::new(
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
            vec![scenario.clone()],
        )
        .unwrap();
        let (client_a, server_a) = channel_pair();
        let (client_b, server_b) = channel_pair();
        let ra = std::thread::scope(|scope| {
            scope.spawn(|| server.serve(vec![server_a, server_b]));
            // Session A drives qubits 0..2 through the load generator;
            // session B registers a disjoint tenant id by hand.
            let ha = scope.spawn(|| {
                let cfg = loadgen_cfg(2, 5);
                run_loadgen(client_a, &ctx, scenario.layers(), &cfg).unwrap()
            });
            let mut client_b = client_b;
            client_b
                .sink
                .send(&Frame::RegisterQubit {
                    qubit: 100,
                    decoder: DecoderKind::Mwpm.code(),
                    window: 3,
                    commit: 2,
                    predecode: 0,
                    datapath: 1,
                    scenario: "t".into(),
                })
                .unwrap();
            let ack = client_b.source.recv().unwrap().unwrap();
            assert!(matches!(ack, Frame::RegisterAck { ok: true, .. }));
            client_b
                .sink
                .send(&Frame::SubmitRounds {
                    qubit: 100,
                    shot: 0,
                    dets: vec![],
                })
                .unwrap();
            let commit = client_b.source.recv().unwrap().unwrap();
            assert!(matches!(
                commit,
                Frame::CommitResult {
                    qubit: 100,
                    shot: 0,
                    ..
                }
            ));
            client_b.sink.send(&Frame::Shutdown).unwrap();
            assert_eq!(client_b.source.recv().unwrap(), Some(Frame::ShutdownAck));
            ha.join().unwrap()
        });
        assert_eq!(ra.tenants.len(), 2);
        assert!(ra.tenants.iter().all(|t| t.commits.len() == 5));
    }

    #[test]
    fn a_session_cannot_submit_for_another_sessions_tenant() {
        let ctx = small_ctx();
        let scenario = ScenarioContext::new("t", Arc::clone(&ctx)).unwrap();
        let server = DecodeServer::new(ServiceConfig::default(), vec![scenario]).unwrap();
        let (client_a, server_a) = channel_pair();
        let (client_b, server_b) = channel_pair();
        std::thread::scope(|scope| {
            scope.spawn(|| server.serve(vec![server_a, server_b]));
            // Owned by this body, so a failed assertion closes both
            // sessions and `serve` returns instead of hanging the test.
            let (mut a, mut b) = (client_a, client_b);
            a.sink
                .send(&Frame::RegisterQubit {
                    qubit: 7,
                    decoder: DecoderKind::Mwpm.code(),
                    window: 3,
                    commit: 2,
                    predecode: 0,
                    datapath: 1,
                    scenario: "t".into(),
                })
                .unwrap();
            let ack = a.source.recv().unwrap().unwrap();
            assert!(
                matches!(ack, Frame::RegisterAck { ok: true, .. }),
                "{ack:?}"
            );
            let dets = ctx.dem.errors[0].dets.as_slice().to_vec();
            let submit = Frame::SubmitRounds {
                qubit: 7,
                shot: 0,
                dets,
            };
            // B never registered qubit 7: its submit is refused and
            // never reaches the tenant.
            b.sink.send(&submit).unwrap();
            let err = b.source.recv().unwrap().unwrap();
            assert!(
                matches!(&err, Frame::Error { message }
                    if message.contains("qubit 7 is not registered on this session")),
                "{err:?}"
            );
            // So A's own shot 0 is still the tenant's next shot.
            a.sink.send(&submit).unwrap();
            let commit = a.source.recv().unwrap().unwrap();
            assert!(
                matches!(
                    commit,
                    Frame::CommitResult {
                        qubit: 7,
                        shot: 0,
                        shed: false,
                        ..
                    }
                ),
                "{commit:?}"
            );
            for client in [&mut a, &mut b] {
                client.sink.send(&Frame::Shutdown).unwrap();
                assert_eq!(client.source.recv().unwrap(), Some(Frame::ShutdownAck));
            }
        });
    }
}
