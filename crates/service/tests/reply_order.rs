//! Reply ordering through the coalescing writer: frames reach the client
//! in exactly the order they entered the session's reply channel, however
//! many of them one `write` carries and however large one of them is.

mod common;

use common::{SHOTS, TENANTS};
use service::{channel_pair, DecodeServer, Endpoint, Frame};
use std::sync::Arc;
use std::time::Duration;

/// One whole session from the client's side: register, ship `wire` in
/// one piece, read until every commit is in, shut down. Returns every
/// frame that arrived before the `ShutdownAck`.
fn session(mut client: Endpoint, wire: &[u8]) -> Vec<Frame> {
    common::register(&mut client);
    client.sink.send_wire(wire).unwrap();
    let frames = common::read_commits(&mut client, 0..SHOTS);
    common::shutdown(&mut client);
    frames
}

fn tcp_session(server: &Arc<DecodeServer>, wire: &[u8]) -> Vec<Frame> {
    let (client, done) = common::serve_tcp(server);
    let frames = session(client, wire);
    done.recv_timeout(Duration::from_secs(5))
        .expect("serve_tcp outlived its only session")
        .unwrap();
    frames
}

/// One tenant's commit stream, every field.
fn commits_of(frames: &[Frame], tenant: u32) -> Vec<&Frame> {
    frames
        .iter()
        .filter(|f| matches!(f, Frame::CommitResult { qubit, .. } if *qubit == tenant))
        .collect()
}

#[test]
fn a_pipelined_session_commits_in_order_and_acks_last_on_both_transports() {
    let ctx = common::context();
    let (wire, _) = common::pipeline(&ctx);
    let tcp = tcp_session(&common::server(&ctx, 0), &wire);

    let server = common::server(&ctx, 0);
    let (client, server_end) = channel_pair();
    let serving = std::thread::spawn(move || server.serve(vec![server_end]));
    let chan = session(client, &wire);
    serving.join().unwrap();

    // Nothing but commits came back, exactly one per shot, and each
    // tenant's stream is the same whichever transport carried it.
    assert_eq!(tcp.len() as u64, TENANTS as u64 * SHOTS);
    assert_eq!(chan.len(), tcp.len());
    for tenant in 0..TENANTS {
        let stream = commits_of(&tcp, tenant);
        assert_eq!(stream.len() as u64, SHOTS);
        assert_eq!(stream, commits_of(&chan, tenant), "qubit {tenant}");
    }
}

#[test]
fn a_trace_report_past_the_coalescing_bound_arrives_intact_and_in_order() {
    let ctx = common::context();
    let server = common::server(&ctx, 4096);
    let (wire, half) = common::pipeline(&ctx);
    // The flight recorder is the server's, not the session's: one full
    // session leaves ≈ 3 200 29-byte events in each shard's ring, so the
    // scrape below is large whenever the router happens to take it.
    tcp_session(&server, &wire);
    let mut scraped = wire[..half].to_vec();
    Frame::TraceRequest.encode_into(&mut scraped).unwrap();
    scraped.extend_from_slice(&wire[half..]);
    let frames = tcp_session(&server, &scraped);

    assert_eq!(frames.len() as u64, TENANTS as u64 * SHOTS + 1);
    let at = frames
        .iter()
        .position(|f| matches!(f, Frame::TraceReport { .. }))
        .expect("the trace report never arrived");
    // Channel order: the router queued the report before it read a
    // single second-half submit, so every second-half commit is behind
    // it on the wire (first-half commits may be on either side).
    for (i, frame) in frames.iter().enumerate() {
        if let Frame::CommitResult { qubit, shot, .. } = frame {
            assert!(
                *shot < SHOTS / 2 || i > at,
                "qubit {qubit} shot {shot} overtook the trace report"
            );
        }
    }
    // Intact: it decoded (no byte missing or left over), and it is
    // more than twice the writer's 64 KiB bound.
    let Frame::TraceReport { shards } = &frames[at] else {
        unreachable!("position() matched a TraceReport")
    };
    assert_eq!(shards.len(), 2);
    assert!(shards.iter().all(|row| row.events.len() <= 4096));
    assert!(frames[at].to_wire().unwrap().len() > 2 * (64 << 10));
}
