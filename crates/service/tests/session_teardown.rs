//! Session teardown under the deepest reply backlog: a client that
//! pipelines its whole session in one write and then vanishes without
//! reading a byte must not wedge the server — the writer's coalesced
//! `write` fails, the router sees the reset, the shards drain their
//! rings, and `serve_tcp` returns.

mod common;

use std::time::Duration;

#[test]
fn a_client_that_drops_mid_pipeline_does_not_wedge_the_server() {
    let ctx = common::context();
    let server = common::server(&ctx, 0);
    let (mut client, done) = common::serve_tcp(&server);
    common::register(&mut client);
    client.sink.send_wire(&common::pipeline(&ctx).0).unwrap();
    // 2 000 commits are now owed to a socket nobody will ever read.
    drop(client);
    done.recv_timeout(Duration::from_secs(5))
        .expect("serve_tcp still running 5 s after the client vanished")
        .expect("a vanished client is a session end, not a server error");
}
