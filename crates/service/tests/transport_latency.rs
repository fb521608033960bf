//! Regression test for the Nagle stall on the server's reply path.
//!
//! Without `TCP_NODELAY` on the accepted socket, a reply written while an
//! earlier one is still un-ACKed sits in Nagle's buffer until the client
//! ACKs — and a client that has gone quiet ACKs only when Linux's 40 ms
//! delayed-ACK timer fires. The stall is a kernel timer, not scheduling
//! noise: with the option off a trial below takes 41–44 ms, with it on
//! ≈ 0.1 ms, so a 20 ms bound separates the two without timing the
//! happy path.
//!
//! Each trial owes the client three replies for one segment, in two
//! writes: the router's own `Error` for an unregistered qubit leaves the
//! moment the frame is parsed, and the two commits follow in one more
//! `write` from the shard sweep that decodes them. With Nagle left on,
//! that second write would sit behind the un-ACKed first.

use ler::{DecoderKind, ExperimentContext};
use realtime::{Datapath, PredecodeMode};
use service::{DecodeServer, Frame, ScenarioContext, ServiceConfig};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn submit(qubit: u32, shot: u64, wire: &mut Vec<u8>) {
    Frame::SubmitRounds {
        qubit,
        shot,
        dets: Vec::new(),
    }
    .encode_into(wire)
    .unwrap();
}

fn expect_commit(rx: &mut BufReader<TcpStream>, want: u64) {
    match Frame::read_from(rx).unwrap() {
        Some(Frame::CommitResult {
            shot, shed: false, ..
        }) => assert_eq!(shot, want),
        other => panic!("shot {want} answered {other:?}"),
    }
}

#[test]
fn replies_owed_to_a_silent_client_do_not_wait_for_an_ack_timer() {
    let ctx = Arc::new(ExperimentContext::with_rounds(3, 3, 1e-3));
    let scenario = ScenarioContext::new("nagle", ctx).unwrap();
    let server = DecodeServer::new(ServiceConfig::default(), vec![scenario]).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| server.serve_tcp(&listener, 1).unwrap());
        // A raw socket, not `tcp_endpoint`: the client's own sends must
        // never be what is delayed, and nothing but the server's accept
        // path may be what sets the option on the server's socket.
        let mut tx = TcpStream::connect(addr).unwrap();
        tx.set_nodelay(true).unwrap();
        let rx = tx.try_clone().unwrap();
        // A hang is a failure, not a stuck test run.
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut rx = BufReader::new(rx);

        Frame::RegisterQubit {
            qubit: 0,
            decoder: DecoderKind::Mwpm.code(),
            window: 3,
            commit: 2,
            predecode: PredecodeMode::Off.code(),
            datapath: Datapath::Packed.code(),
            scenario: "nagle".into(),
        }
        .write_to(&mut tx)
        .unwrap();
        match Frame::read_from(&mut rx).unwrap() {
            Some(Frame::RegisterAck { ok: true, .. }) => {}
            other => panic!("registration answered {other:?}"),
        }

        // Ping-pong warm-up: a fresh connection is in quick-ACK mode,
        // where the client ACKs at once and Nagle has nothing to wait
        // for; 64 request/reply turns put it in the steady state a long
        // session lives in.
        let mut wire = Vec::new();
        let mut shot = 0u64;
        for _ in 0..64 {
            wire.clear();
            submit(0, shot, &mut wire);
            tx.write_all(&wire).unwrap();
            expect_commit(&mut rx, shot);
            shot += 1;
        }

        // Three frames in one segment after an idle gap, then silence:
        // nothing the client sends afterwards can carry the ACK that
        // would release a held-back reply.
        let mut trials_ms = Vec::new();
        for _ in 0..10 {
            std::thread::sleep(Duration::from_millis(5));
            wire.clear();
            submit(99, 0, &mut wire); // never registered
            submit(0, shot, &mut wire);
            submit(0, shot + 1, &mut wire);
            let sent = Instant::now();
            tx.write_all(&wire).unwrap();
            match Frame::read_from(&mut rx).unwrap() {
                Some(Frame::Error { .. }) => {}
                other => panic!("an unregistered qubit answered {other:?}"),
            }
            expect_commit(&mut rx, shot);
            expect_commit(&mut rx, shot + 1);
            trials_ms.push(sent.elapsed().as_secs_f64() * 1e3);
            shot += 2;
        }
        assert!(
            trials_ms.iter().all(|&ms| ms < 20.0),
            "a reply waited for the client's delayed ACK; trials (ms): {trials_ms:.2?}"
        );

        Frame::Shutdown.write_to(&mut tx).unwrap();
        assert_eq!(Frame::read_from(&mut rx).unwrap(), Some(Frame::ShutdownAck));
    });
}
