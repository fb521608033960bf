//! Reply ordering through the session's reply sink: frames reach the
//! client in exactly the order their writers — shard sweeps and the
//! router — took the sink's lock, however many of them one `write`
//! carries.

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
    let wire = common::pipeline(&ctx);
    let tcp = tcp_session(&common::server(&ctx), &wire);

    let server = common::server(&ctx);
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
