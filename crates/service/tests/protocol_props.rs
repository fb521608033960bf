//! Property tests over the wire protocol: encode → decode → encode is a
//! byte-level fixed point for arbitrary frames, the appending encoder
//! emits the same bytes as the allocating one, and hostile bytes written
//! into a live session end that session and nothing else.
//!
//! The vendored proptest shim generates primitives only, so structured
//! frames and byte streams are derived deterministically from drawn
//! integers (lengths, ids, and a per-case stream of values expanded by
//! splitmix).

mod common;

use ler::DecoderKind;
use proptest::prelude::*;
use realtime::{Datapath, PredecodeMode};
use service::{
    channel_pair, DecodeServer, Endpoint, Frame, ScenarioContext, ServiceConfig, TenantStatsWire,
};
use std::sync::OnceLock;
use std::time::Duration;

/// Deterministic value stream for filling variable-length fields.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    fn f64(&mut self) -> f64 {
        // Mix finite values with a few special bit patterns: the wire
        // format carries raw IEEE-754 bits, so even NaN must round-trip.
        match self.next() % 4 {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => -(self.next() as f64) / 7.0,
            _ => self.next() as f64 / 3.0,
        }
    }

    fn string(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| char::from_u32(0x61 + (self.next() % 26) as u32).expect("ascii"))
            .collect()
    }
}

/// Builds one arbitrary frame from a type selector and a value seed.
fn arbitrary_frame(ty: u8, seed: u64, len: usize) -> Frame {
    let mut m = Mix(seed);
    match ty {
        0 => Frame::RegisterQubit {
            qubit: m.next() as u32,
            decoder: m.next() as u8,
            window: m.next() as u32,
            commit: m.next() as u32,
            predecode: m.next() as u8,
            datapath: m.next() as u8,
            scenario: m.string(len),
        },
        1 => Frame::RegisterAck {
            qubit: m.next() as u32,
            ok: (m.next() & 1) == 0,
            shard: m.next() as u32,
            message: m.string(len),
        },
        2 => Frame::SubmitRounds {
            qubit: m.next() as u32,
            shot: m.next(),
            dets: (0..len).map(|_| m.next() as u32).collect(),
        },
        3 => Frame::CommitResult {
            qubit: m.next() as u32,
            shot: m.next(),
            obs_flip: m.next(),
            failed: (m.next() & 1) == 0,
            shed: (m.next() & 1) == 0,
            // Two wire bits (flags 2..=3): only 0..=3 round-trips.
            shed_reason: (m.next() % 4) as u8,
            windows: m.next() as u32,
            service_ns_total: m.f64(),
        },
        4 => Frame::StatsRequest,
        5 => Frame::StatsReport {
            tenants: (0..len)
                .map(|_| TenantStatsWire {
                    qubit: m.next() as u32,
                    shard: m.next() as u32,
                    shots: m.next(),
                    windows: m.next(),
                    shed: m.next(),
                    deadline_misses: m.next(),
                    mean_ns: m.f64(),
                    p50_ns: m.f64(),
                    p99_ns: m.f64(),
                    max_ns: m.f64(),
                    l1_rounds: m.next(),
                    escalated_windows: m.next(),
                })
                .collect(),
        },
        6 => Frame::Shutdown,
        7 => Frame::ShutdownAck,
        _ => Frame::Error {
            message: m.string(len),
        },
    }
}

/// The hostile session's tenant. The neighbour's differs from it in two
/// bytes, so no single-byte flip of a hostile frame can reach it: the
/// registry is server-wide, so a submit for the neighbour's qubit from
/// any session would land in the neighbour's tenant.
const HOSTILE: u32 = 0;
const NEIGHBOUR: u32 = 0x0101;
/// Shots the neighbour pipelines while the hostile bytes arrive.
const NEIGHBOUR_SHOTS: u64 = 64;

fn scenario() -> &'static ScenarioContext {
    static SCENARIO: OnceLock<ScenarioContext> = OnceLock::new();
    SCENARIO.get_or_init(|| ScenarioContext::new(common::SCENARIO, common::context()).unwrap())
}

fn register(qubit: u32) -> Frame {
    Frame::RegisterQubit {
        qubit,
        decoder: DecoderKind::Mwpm.code(),
        window: 3,
        commit: 2,
        predecode: PredecodeMode::Off.code(),
        datapath: Datapath::Packed.code(),
        scenario: common::SCENARIO.into(),
    }
}

/// The bytes a hostile client writes: random soup (`kind` 0), or a
/// well-formed register + `len % 16` submits with one byte changed
/// (`kind` 1) or cut short (`kind` 2).
fn hostile_bytes(kind: u8, seed: u64, len: usize) -> Vec<u8> {
    let mut m = Mix(seed);
    if kind == 0 {
        return (0..len).map(|_| m.next() as u8).collect();
    }
    let dets = u64::from(scenario().layers().num_detectors());
    let mut wire = register(HOSTILE).to_wire().unwrap();
    for shot in 0..(len % 16) as u64 {
        Frame::SubmitRounds {
            qubit: HOSTILE,
            shot,
            dets: (0..m.next() % 6)
                .map(|_| (m.next() % dets) as u32)
                .collect(),
        }
        .encode_into(&mut wire)
        .unwrap();
    }
    let at = (m.next() % wire.len() as u64) as usize;
    if kind == 1 {
        wire[at] ^= (1 + m.next() % 255) as u8;
    } else {
        wire.truncate(at);
    }
    wire
}

/// The neighbour's whole session: register, pipeline
/// [`NEIGHBOUR_SHOTS`] submits, and read every commit unshed and in
/// order, then `ShutdownAck` and EOF.
fn neighbour_session(mut client: Endpoint) {
    client.sink.send(&register(NEIGHBOUR)).unwrap();
    match client.source.recv().unwrap() {
        Some(Frame::RegisterAck { ok: true, .. }) => {}
        other => panic!("the neighbour's registration answered {other:?}"),
    }
    let mut wire = Vec::new();
    for shot in 0..NEIGHBOUR_SHOTS {
        Frame::SubmitRounds {
            qubit: NEIGHBOUR,
            shot,
            dets: Vec::new(),
        }
        .encode_into(&mut wire)
        .unwrap();
    }
    client.sink.send_wire(&wire).unwrap();
    for shot in 0..NEIGHBOUR_SHOTS {
        match client.source.recv().unwrap() {
            Some(Frame::CommitResult {
                qubit: NEIGHBOUR,
                shot: s,
                shed: false,
                ..
            }) => assert_eq!(s, shot, "the neighbour's commits out of order"),
            other => panic!("the neighbour's shot {shot} answered {other:?}"),
        }
    }
    common::shutdown(&mut client);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode → encode is a byte-level fixed point, and decode
    /// is exact (round-tripped frames compare equal except for NaN
    /// payloads, which the byte comparison still pins down).
    #[test]
    fn encode_decode_encode_is_a_fixed_point(
        ty in 0u8..=8,
        seed in any::<u64>(),
        len in 0usize..40,
    ) {
        let frame = arbitrary_frame(ty, seed, len);
        let body = frame.encode().expect("in-bounds frame encodes");
        let decoded = Frame::decode(&body).expect("own encoding decodes");
        prop_assert_eq!(decoded.encode().unwrap(), body.clone());
        // The framed form round-trips through the byte pipe too.
        let mut cursor = std::io::Cursor::new(frame.to_wire().unwrap());
        let read = Frame::read_from(&mut cursor).unwrap().unwrap();
        prop_assert_eq!(read.encode().unwrap(), body);
    }

    /// `encode_into` is `to_wire` appended: whatever the buffer already
    /// holds stays, and what follows it is the frame's exact wire bytes.
    #[test]
    fn encode_into_appends_the_wire_bytes_to_any_prefix(
        ty in 0u8..=8,
        seed in any::<u64>(),
        len in 0usize..40,
        prefix_len in 0usize..48,
    ) {
        let frame = arbitrary_frame(ty, seed, len);
        let mut m = Mix(!seed);
        let prefix: Vec<u8> = (0..prefix_len).map(|_| m.next() as u8).collect();
        let mut expected = prefix.clone();
        expected.extend_from_slice(&frame.to_wire().unwrap());
        let mut out = prefix;
        frame.encode_into(&mut out).unwrap();
        prop_assert_eq!(out, expected);
    }

    /// A sequence of frames appended into one buffer — what the reply
    /// writer hands the socket — reads back frame for frame.
    #[test]
    fn frames_appended_into_one_buffer_read_back_in_order(
        seed in any::<u64>(),
        count in 0usize..12,
    ) {
        let mut m = Mix(seed);
        let frames: Vec<Frame> = (0..count)
            .map(|_| arbitrary_frame((m.next() % 9) as u8, m.next(), (m.next() % 20) as usize))
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for f in &frames {
            let read = Frame::read_from(&mut cursor).unwrap().expect("one frame per append");
            // Bytes, not `==`: drawn floats include NaN.
            prop_assert_eq!(read.encode().unwrap(), f.encode().unwrap());
        }
        prop_assert!(Frame::read_from(&mut cursor).unwrap().is_none());
    }

    /// decode never panics on arbitrary byte soup — it returns a frame
    /// or a protocol error.
    #[test]
    fn decode_is_total_on_arbitrary_bytes(seed in any::<u64>(), len in 0usize..64) {
        let mut m = Mix(seed);
        let bytes: Vec<u8> = (0..len).map(|_| m.next() as u8).collect();
        let _ = Frame::decode(&bytes);
        // Truncations of a valid frame never panic either.
        let body = arbitrary_frame((seed % 9) as u8, seed, len % 20)
            .encode()
            .unwrap();
        for cut in 0..body.len() {
            let _ = Frame::decode(&body[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile bytes into one in-process session of a live server: the
    /// server ends that session — an error frame, a write failure or
    /// EOF — without a panic or a hang, and a well-behaved neighbour on
    /// the same shard gets every commit in order.
    #[test]
    fn hostile_bytes_end_their_session_and_spare_the_neighbour(
        kind in 0u8..3,
        seed in any::<u64>(),
        len in 0usize..256,
    ) {
        let cfg = ServiceConfig {
            shards: 1,
            max_inflight_shots: NEIGHBOUR_SHOTS as usize,
            ..ServiceConfig::default()
        };
        let server = DecodeServer::new(cfg, vec![scenario().clone()]).unwrap();
        let ((mut hostile, hostile_end), (neighbour, neighbour_end)) =
            (channel_pair(), channel_pair());
        let (served_tx, served) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.serve(vec![hostile_end, neighbour_end]);
            let _ = served_tx.send(());
        });
        let (neighbour_tx, neighbour_done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            neighbour_session(neighbour);
            let _ = neighbour_tx.send(());
        });
        // The server may cut the session off mid-write; that is its
        // right, not a failure.
        let _ = hostile.sink.send_wire(&hostile_bytes(kind, seed, len));
        drop(hostile);
        let guard = Duration::from_secs(5);
        prop_assert!(
            neighbour_done.recv_timeout(guard).is_ok(),
            "the neighbour's session failed or stalled"
        );
        prop_assert!(
            served.recv_timeout(guard).is_ok(),
            "serve panicked or outlived both sessions"
        );
    }
}
