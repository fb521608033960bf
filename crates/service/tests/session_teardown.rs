//! Session teardown under the deepest reply backlog: a client that
//! pipelines its whole session in one write and then vanishes without
//! reading a byte must not wedge the server — the shard's reply `write`
//! fails, the router sees the reset, the shards drain their rings, and
//! `serve_tcp` returns. A client that stays connected but stops reading
//! stalls only itself, in process as over TCP: the reply write times
//! out, its session is cut, and a neighbour on the same shard keeps its
//! commit stream. A client speaking a retired frame (the v4/v5 scrape
//! codes 9–12) ends only its own session.

mod common;

use ler::DecoderKind;
use realtime::{Datapath, PredecodeMode};
use service::{
    channel_pair, tcp_endpoint, DecodeServer, Endpoint, Frame, ScenarioContext, ServiceConfig,
    ServiceError, PROTOCOL_VERSION,
};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn a_client_that_drops_mid_pipeline_does_not_wedge_the_server() {
    let ctx = common::context();
    let server = common::server(&ctx);
    let (mut client, done) = common::serve_tcp(&server);
    common::register(&mut client);
    client.sink.send_wire(&common::pipeline(&ctx)).unwrap();
    // 2 000 commits are now owed to a socket nobody will ever read.
    drop(client);
    done.recv_timeout(Duration::from_secs(5))
        .expect("serve_tcp still running 5 s after the client vanished")
        .expect("a vanished client is a session end, not a server error");
}

fn register(client: &mut Endpoint, qubit: u32) {
    client
        .sink
        .send(&Frame::RegisterQubit {
            qubit,
            decoder: DecoderKind::Mwpm.code(),
            window: 3,
            commit: 2,
            predecode: PredecodeMode::Off.code(),
            datapath: Datapath::Packed.code(),
            scenario: common::SCENARIO.into(),
        })
        .unwrap();
    match client.source.recv().unwrap() {
        Some(Frame::RegisterAck { ok: true, .. }) => {}
        other => panic!("registration answered {other:?}"),
    }
}

fn submit(qubit: u32, shot: u64, wire: &mut Vec<u8>) {
    Frame::SubmitRounds {
        qubit,
        shot,
        dets: Vec::new(),
    }
    .encode_into(wire)
    .unwrap();
}

/// Two client sessions of `server`, served from a detached thread over
/// in-process socket pairs or loopback TCP, and the receiver of the
/// serve call's result.
fn two_sessions(
    server: DecodeServer,
    in_process: bool,
) -> ([Endpoint; 2], Receiver<Result<(), ServiceError>>) {
    let (done_tx, done) = std::sync::mpsc::channel();
    if in_process {
        let ((a, a_end), (b, b_end)) = (channel_pair(), channel_pair());
        std::thread::spawn(move || {
            server.serve(vec![a_end, b_end]);
            let _ = done_tx.send(Ok(()));
        });
        return ([a, b], done);
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let _ = done_tx.send(server.serve_tcp(&listener, 2));
    });
    let connect = || tcp_endpoint(TcpStream::connect(addr).unwrap()).unwrap();
    ([connect(), connect()], done)
}

#[test]
fn a_client_that_stops_reading_stalls_only_itself() {
    for in_process in [true, false] {
        stops_reading(in_process);
    }
}

fn stops_reading(in_process: bool) {
    let endpoint = if in_process { "in-process" } else { "tcp" };
    // One shard: the stalled session and its neighbour share a decode
    // thread, so a reply write that blocked for good would stop both.
    let ctx = common::context();
    let scenario = ScenarioContext::new(common::SCENARIO, Arc::clone(&ctx)).unwrap();
    let cfg = ServiceConfig {
        shards: 1,
        max_inflight_shots: 1024,
        ..ServiceConfig::default()
    };
    let server = DecodeServer::new(cfg, vec![scenario]).unwrap();
    let ([mut stalled, mut neighbour], done) = two_sessions(server, in_process);
    register(&mut stalled, 0);
    register(&mut neighbour, 1);

    // The stalled client pipelines submits until the server cuts it off,
    // and never reads a reply. It keeps its socket open throughout.
    let Endpoint {
        sink: mut stalled_sink,
        source: stalled_source,
    } = stalled;
    let flood = std::thread::spawn(move || {
        let mut wire = Vec::new();
        for batch in 0..10_000u64 {
            wire.clear();
            for shot in batch * 4096..(batch + 1) * 4096 {
                submit(0, shot, &mut wire);
            }
            if stalled_sink.send_wire(&wire).is_err() {
                return true;
            }
        }
        false
    });

    // The neighbour's closed loop, under a guard: every commit, in order.
    let (neighbour_tx, neighbour_done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut wire = Vec::new();
        for shot in 0..300u64 {
            wire.clear();
            submit(1, shot, &mut wire);
            neighbour.sink.send_wire(&wire).unwrap();
            match neighbour.source.recv().unwrap() {
                Some(Frame::CommitResult {
                    qubit: 1,
                    shot: s,
                    shed: false,
                    ..
                }) => assert_eq!(s, shot),
                other => panic!("neighbour shot {shot} answered {other:?}"),
            }
        }
        common::shutdown(&mut neighbour);
        let _ = neighbour_tx.send(());
    });
    neighbour_done
        .recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| {
            panic!(
                "{endpoint}: the neighbour's commits stalled behind a client that stopped reading"
            )
        });
    done.recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("{endpoint}: serve still running 5 s after the neighbour left"))
        .expect("a stalled client is a session end, not a server error");
    assert!(
        flood.join().unwrap(),
        "{endpoint}: the server never cut the stalled session off"
    );
    drop(stalled_source);
}

#[test]
fn a_retired_scrape_frame_ends_its_session_and_spares_the_next() {
    let ctx = common::context();
    let server = common::server(&ctx);
    let (mut retired, retired_end) = channel_pair();
    let (mut client, client_end) = channel_pair();
    let (done_tx, done) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.serve(vec![retired_end, client_end]);
        let _ = done_tx.send(());
    });

    // A header-only type-9 body stamped with this build's version: the
    // v4/v5 metrics scrape request, retired in v6.
    let mut wire = 3u32.to_le_bytes().to_vec();
    wire.push(9);
    wire.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    retired.sink.send_wire(&wire).unwrap();
    match retired.source.recv().unwrap() {
        Some(Frame::Error { message }) => {
            assert!(message.contains("unknown frame type 9"), "{message}");
        }
        other => panic!("a retired frame answered {other:?}"),
    }
    assert_eq!(
        retired.source.recv().unwrap(),
        None,
        "frames after the error"
    );

    common::register(&mut client);
    client.sink.send_wire(&common::pipeline(&ctx)).unwrap();
    common::read_commits(&mut client, 0..common::SHOTS);
    common::shutdown(&mut client);
    done.recv_timeout(Duration::from_secs(5))
        .expect("serve still running 5 s after both sessions ended");
}
