//! Shared harness of the reply-path tests: a small server, and a client
//! that ships a whole session's submissions as **one** wire buffer
//! through [`service::FrameSink::send_wire`] — one `write` on either
//! endpoint — so the server's reply path meets the deepest reply backlog
//! a client can produce. The 2 000-submit pipeline fits the socket
//! buffers, so a client can write it all before it reads.

#![allow(dead_code)] // each test binary uses its own subset

use ler::{DecoderKind, ExperimentContext};
use realtime::{Datapath, PredecodeMode, SyndromeStream};
use service::{
    qubit_seed, tcp_endpoint, DecodeServer, Endpoint, Frame, ScenarioContext, ServiceConfig,
    ServiceError,
};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

pub const SCENARIO: &str = "writer";
pub const TENANTS: u32 = 4;
pub const SHOTS: u64 = 500;

pub fn context() -> Arc<ExperimentContext> {
    Arc::new(ExperimentContext::with_rounds(3, 4, 2e-3))
}

/// A 2-shard server whose gate admits a tenant's whole pipeline: every
/// shot is decoded, none shed, so each tenant's commits come back in
/// shot order. (2 tenants × [`SHOTS`] per shard also stays under the
/// 1024-slot submission ring.)
pub fn server(ctx: &Arc<ExperimentContext>) -> Arc<DecodeServer> {
    let scenario = ScenarioContext::new(SCENARIO, Arc::clone(ctx)).unwrap();
    let cfg = ServiceConfig {
        shards: 2,
        max_inflight_shots: SHOTS as usize,
        ..ServiceConfig::default()
    };
    Arc::new(DecodeServer::new(cfg, vec![scenario]).unwrap())
}

/// Serves one TCP session on an ephemeral port from a detached thread —
/// detached so that a server that never returns fails the test's
/// `recv_timeout` instead of hanging its scope.
pub fn serve_tcp(server: &Arc<DecodeServer>) -> (Endpoint, Receiver<Result<(), ServiceError>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (done_tx, done_rx) = channel();
    let server = Arc::clone(server);
    std::thread::spawn(move || {
        let _ = done_tx.send(server.serve_tcp(&listener, 1));
    });
    let client = tcp_endpoint(TcpStream::connect(addr).unwrap()).unwrap();
    (client, done_rx)
}

/// Registers [`TENANTS`] tenants and waits for every ack.
pub fn register(client: &mut Endpoint) {
    for qubit in 0..TENANTS {
        client
            .sink
            .send(&Frame::RegisterQubit {
                qubit,
                decoder: DecoderKind::Mwpm.code(),
                window: 3,
                commit: 2,
                predecode: PredecodeMode::Off.code(),
                datapath: Datapath::Packed.code(),
                scenario: SCENARIO.into(),
            })
            .unwrap();
    }
    for _ in 0..TENANTS {
        match client.source.recv().unwrap() {
            Some(Frame::RegisterAck { ok: true, .. }) => {}
            other => panic!("registration answered {other:?}"),
        }
    }
}

/// Every tenant's [`SHOTS`] seeded shots, round-robin by shot number,
/// back to back in one buffer.
pub fn pipeline(ctx: &ExperimentContext) -> Vec<u8> {
    let layers = decoding_graph::LayerMap::from_graph(&ctx.graph).unwrap();
    let mut streams: Vec<SyndromeStream<'_>> = (0..TENANTS)
        .map(|q| SyndromeStream::new(&ctx.circuit, layers.clone(), qubit_seed(7, q)))
        .collect();
    let mut wire = Vec::new();
    for shot in 0..SHOTS {
        for (qubit, stream) in streams.iter_mut().enumerate() {
            Frame::SubmitRounds {
                qubit: qubit as u32,
                shot,
                dets: stream.next_shot().dets,
            }
            .encode_into(&mut wire)
            .unwrap();
        }
    }
    wire
}

/// Reads frames until every tenant's commits for `shots` are in,
/// checking that each tenant's arrive unshed and in shot order; returns
/// every frame read, in arrival order.
pub fn read_commits(client: &mut Endpoint, shots: std::ops::Range<u64>) -> Vec<Frame> {
    let mut next = [shots.start; TENANTS as usize];
    let mut frames = Vec::new();
    while next.iter().any(|&n| n < shots.end) {
        let frame = client
            .source
            .recv()
            .unwrap()
            .expect("the server closed before every commit arrived");
        if let Frame::CommitResult {
            qubit, shot, shed, ..
        } = frame
        {
            assert!(!shed, "qubit {qubit} shot {shot} was shed");
            assert_eq!(shot, next[qubit as usize], "qubit {qubit} out of order");
            next[qubit as usize] += 1;
        }
        frames.push(frame);
    }
    frames
}

/// Ends the session: `ShutdownAck` must be the very last frame, then EOF.
pub fn shutdown(client: &mut Endpoint) {
    client.sink.send(&Frame::Shutdown).unwrap();
    assert_eq!(client.source.recv().unwrap(), Some(Frame::ShutdownAck));
    assert_eq!(client.source.recv().unwrap(), None, "frames after the ack");
}
