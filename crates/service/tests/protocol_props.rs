//! Property tests over the wire protocol: encode → decode → encode is a
//! byte-level fixed point for arbitrary frames, and the appending encoder
//! emits the same bytes as the allocating one.
//!
//! The vendored proptest shim generates primitives only, so structured
//! frames are derived deterministically from drawn integers (lengths,
//! ids, and a per-case stream of values expanded by splitmix).

use proptest::prelude::*;
use service::{Frame, TenantStatsWire};

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
