//! Closed-loop load generator: N synthetic logical qubits driving one
//! decode-service session.
//!
//! Each tenant qubit owns a seeded [`realtime::SyndromeStream`] (seed =
//! [`qubit_seed`]`(base, qubit)`, a SplitMix64 mix so neighboring
//! tenants' streams are statistically independent), and its shot
//! sequence is exactly the sequence a single-tenant `repro realtime`
//! run seeded with that same mixed value would decode — the property
//! the service's bit-identity tests pin down.
//! The generator is *closed-loop*: it keeps at most `inflight` shots
//! outstanding per tenant and only submits more as commits come back, so
//! a server provisioned with `max_inflight_shots ≥ inflight` never sheds
//! and the wall-clock throughput it measures is the service's, not the
//! client's buffer depth.
//!
//! Ground truth stays client-side: the server never sees the sampled
//! observable flips; the generator scores each [`Frame::CommitResult`]
//! against its own record and counts logical failures per tenant.

use crate::protocol::{Frame, ServiceError, TenantStatsWire};
use crate::transport::{Endpoint, FrameSource};
use decoding_graph::LayerMap;
use ler::{DecoderKind, ExperimentContext};
use realtime::{Datapath, PredecodeMode, SyndromeStream};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The stream seed of tenant `qubit` under base seed `base`:
/// `splitmix64(base + qubit)`. The mix matters — the raw sum hands
/// adjacent tenants consecutive `StdRng` seeds, which correlates their
/// noise streams (tenant q's shot k and tenant q+1's shot k are near
/// neighbors in seed space); SplitMix64 decorrelates them while staying
/// a pure function of `(base, qubit)`, so a single-tenant repro run
/// seeded with `qubit_seed(base, q)` still reproduces tenant q's stream
/// bit for bit.
pub fn qubit_seed(base: u64, qubit: u32) -> u64 {
    crate::server::splitmix64(base.wrapping_add(qubit as u64))
}

/// Configuration of one load-generator session.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Scenario name to register every tenant against.
    pub scenario: String,
    /// Synthetic logical qubits to drive (tenant ids `0..qubits`).
    pub qubits: u32,
    /// Shots to stream per tenant.
    pub shots_per_qubit: u64,
    /// Base stream seed (see [`qubit_seed`]).
    pub seed: u64,
    /// Decoder every tenant registers.
    pub decoder: DecoderKind,
    /// Sliding-window size in round layers.
    pub window: u32,
    /// Committed layers per window step.
    pub commit: u32,
    /// Predecode mode every tenant registers with.
    pub predecode: PredecodeMode,
    /// Maximum outstanding shots per tenant (the closed loop's depth).
    pub inflight: usize,
}

/// One tenant's committed correction for one shot — the unit the
/// bit-identity acceptance criteria compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Shot sequence number.
    pub shot: u64,
    /// Committed observable flips reported by the server.
    pub obs_flip: u64,
    /// The server reported a failed window decode.
    pub failed: bool,
    /// The shot was shed by admission control.
    pub shed: bool,
    /// Why it was shed ([`crate::admission::ShedReason`] code; 0 when
    /// not shed).
    pub shed_reason: u8,
}

/// One tenant's client-side view of the run: its commit stream and the
/// failures scored against it. Throughput is timed for the whole
/// session only ([`LoadgenReport::rounds_per_second`]).
#[derive(Clone, Debug)]
pub struct TenantRun {
    /// Tenant id.
    pub qubit: u32,
    /// The tenant's stream seed.
    pub seed: u64,
    /// Owning shard reported at registration.
    pub shard: u32,
    /// Commit stream, in shot order.
    pub commits: Vec<CommitRecord>,
    /// Logical failures (failed decode, shed shot, or wrong correction).
    pub failures: u64,
    /// Shots shed by live admission control.
    pub shed_shots: u64,
}

/// Everything a load-generator session produced.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Per-tenant commit streams and failure counts, by qubit id.
    pub tenants: Vec<TenantRun>,
    /// The server's per-tenant SLO accounting at end of run.
    pub stats: Vec<TenantStatsWire>,
    /// Wall-clock seconds between the first submission and the last
    /// commit.
    pub wall_seconds: f64,
    /// Total shots submitted.
    pub shots_submitted: u64,
    /// Total syndrome rounds submitted (shots × layers per shot).
    pub rounds_submitted: u64,
    /// Round layers per shot.
    pub layers_per_shot: u32,
}

impl LoadgenReport {
    /// Measured decode throughput in syndrome rounds per wall-clock
    /// second (0 for an empty run).
    pub fn rounds_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.rounds_submitted as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Per-tenant client state while the loop runs.
struct TenantDriver<'a> {
    stream: SyndromeStream<'a>,
    /// Ground truth per outstanding shot. Keyed by shot number because
    /// commits for *shed* shots can overtake still-queued decoded
    /// commits (the router replies to a shed immediately).
    expected_obs: HashMap<u64, u64>,
    submitted: u64,
    committed: u64,
    run: TenantRun,
}

/// Drives `cfg.qubits` tenants through one session on `endpoint` and
/// returns the merged client/server report.
///
/// # Errors
///
/// Returns a [`ServiceError`] for transport failures, registration
/// rejections, or protocol violations (duplicate or unsolicited
/// commits, missing acks).
pub fn run_loadgen(
    endpoint: Endpoint,
    ctx: &ExperimentContext,
    layers: &Arc<LayerMap>,
    cfg: &LoadgenConfig,
) -> Result<LoadgenReport, ServiceError> {
    let Endpoint {
        mut sink,
        mut source,
    } = endpoint;
    let layers_per_shot = layers.num_layers();
    // Phase 1: register every tenant, then collect every ack (acks from
    // different shards may arrive in any order).
    for qubit in 0..cfg.qubits {
        sink.send(&Frame::RegisterQubit {
            qubit,
            decoder: cfg.decoder.code(),
            window: cfg.window,
            commit: cfg.commit,
            predecode: cfg.predecode.code(),
            datapath: Datapath::Packed.code(),
            scenario: cfg.scenario.clone(),
        })?;
    }
    let mut shards: Vec<Option<u32>> = vec![None; cfg.qubits as usize];
    for _ in 0..cfg.qubits {
        match expect_frame(&mut source)? {
            Frame::RegisterAck {
                qubit,
                ok: true,
                shard,
                ..
            } => shards[qubit as usize] = Some(shard),
            Frame::RegisterAck {
                qubit,
                ok: false,
                message,
                ..
            } => {
                return Err(ServiceError::Protocol(format!(
                    "registration of qubit {qubit} rejected: {message}"
                )));
            }
            other => {
                return Err(ServiceError::Protocol(format!(
                    "expected RegisterAck, got frame type {}",
                    other.type_code()
                )));
            }
        }
    }
    // Phase 2: the closed loop.
    let mut tenants: Vec<TenantDriver<'_>> = (0..cfg.qubits)
        .map(|qubit| {
            let seed = qubit_seed(cfg.seed, qubit);
            TenantDriver {
                stream: SyndromeStream::with_shared_layers(&ctx.circuit, Arc::clone(layers), seed),
                expected_obs: HashMap::new(),
                submitted: 0,
                committed: 0,
                run: TenantRun {
                    qubit,
                    seed,
                    shard: shards[qubit as usize].expect("ack collected above"),
                    commits: Vec::new(),
                    failures: 0,
                    shed_shots: 0,
                },
            }
        })
        .collect();
    let started = Instant::now();
    let mut outstanding_total = 0u64;
    loop {
        // Top up every tenant to its in-flight budget, round-robin.
        let mut progressed = true;
        while progressed {
            progressed = false;
            for t in tenants.iter_mut() {
                let in_flight = (t.submitted - t.committed) as usize;
                if t.submitted < cfg.shots_per_qubit && in_flight < cfg.inflight {
                    let shot = t.stream.next_shot();
                    t.expected_obs.insert(t.submitted, shot.obs);
                    sink.send(&Frame::SubmitRounds {
                        qubit: t.run.qubit,
                        shot: t.submitted,
                        dets: shot.dets,
                    })?;
                    t.submitted += 1;
                    outstanding_total += 1;
                    progressed = true;
                }
            }
        }
        if outstanding_total == 0 {
            break;
        }
        // Wait for one commit, then loop back to refill.
        match expect_frame(&mut source)? {
            Frame::CommitResult {
                qubit,
                shot,
                obs_flip,
                failed,
                shed,
                shed_reason,
                ..
            } => {
                let t = tenants
                    .get_mut(qubit as usize)
                    .filter(|t| t.run.qubit == qubit)
                    .ok_or_else(|| {
                        ServiceError::Protocol(format!("commit for unknown qubit {qubit}"))
                    })?;
                let expected = t.expected_obs.remove(&shot).ok_or_else(|| {
                    ServiceError::Protocol(format!(
                        "qubit {qubit}: duplicate or unsolicited commit for shot {shot}"
                    ))
                })?;
                if shed {
                    t.run.shed_shots += 1;
                }
                if failed || shed || obs_flip != expected {
                    t.run.failures += 1;
                }
                t.run.commits.push(CommitRecord {
                    shot,
                    obs_flip,
                    failed,
                    shed,
                    shed_reason,
                });
                t.committed += 1;
                outstanding_total -= 1;
            }
            Frame::Error { message } => {
                return Err(ServiceError::Protocol(format!("server error: {message}")));
            }
            other => {
                return Err(ServiceError::Protocol(format!(
                    "expected CommitResult, got frame type {}",
                    other.type_code()
                )));
            }
        }
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    // Shed commits can arrive out of shot order; the published commit
    // stream is in shot order.
    for t in tenants.iter_mut() {
        t.run.commits.sort_by_key(|c| c.shot);
    }
    // Phase 3: stats, then shutdown.
    sink.send(&Frame::StatsRequest)?;
    let stats = match expect_frame(&mut source)? {
        Frame::StatsReport { tenants } => tenants,
        other => {
            return Err(ServiceError::Protocol(format!(
                "expected StatsReport, got frame type {}",
                other.type_code()
            )));
        }
    };
    sink.send(&Frame::Shutdown)?;
    match expect_frame(&mut source)? {
        Frame::ShutdownAck => {}
        other => {
            return Err(ServiceError::Protocol(format!(
                "expected ShutdownAck, got frame type {}",
                other.type_code()
            )));
        }
    }
    let shots_submitted: u64 = tenants.iter().map(|t| t.submitted).sum();
    Ok(LoadgenReport {
        tenants: tenants.into_iter().map(|t| t.run).collect(),
        stats,
        wall_seconds,
        shots_submitted,
        rounds_submitted: shots_submitted * layers_per_shot as u64,
        layers_per_shot,
    })
}

fn expect_frame(source: &mut FrameSource) -> Result<Frame, ServiceError> {
    source
        .recv()?
        .ok_or_else(|| ServiceError::Protocol("server closed the session early".into()))
}
