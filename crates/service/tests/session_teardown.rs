//! Session teardown under the deepest reply backlog: a client that
//! pipelines its whole session in one write and then vanishes without
//! reading a byte must not wedge the server — the writer's coalesced
//! `write` fails, the router sees the reset, the shards drain their
//! rings, and `serve_tcp` returns. A client speaking a retired frame
//! (the v4/v5 scrape codes 9–12) ends only its own session.

mod common;

use service::{channel_pair, Frame, PROTOCOL_VERSION};
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
