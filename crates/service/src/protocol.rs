//! The decode service's length-prefixed binary wire protocol.
//!
//! Every message is one *frame*:
//!
//! ```text
//! ┌───────────────┬──────────┬──────────────┬─────────────┐
//! │ length: u32   │ type: u8 │ version: u16 │ payload ... │
//! └───────────────┴──────────┴──────────────┴─────────────┘
//! ```
//!
//! The length prefix covers everything after itself (type byte, version,
//! payload); all integers are little-endian; floats travel as IEEE-754
//! bit patterns (`f64::to_bits`), so encode → decode → encode is an
//! exact byte-level fixed point; strings are `u16` length + UTF-8 bytes.
//! Each frame carries [`PROTOCOL_VERSION`] so that client and server can
//! reject a mismatched peer with a clear error instead of misparsing.
//!
//! | code | frame | direction | purpose |
//! |------|-------|-----------|---------|
//! | 0 | [`Frame::RegisterQubit`] | client → server | attach a tenant to a scenario + decoder |
//! | 1 | [`Frame::RegisterAck`]   | server → client | accept/reject, report owning shard |
//! | 2 | [`Frame::SubmitRounds`]  | client → server | one shot's detection events, in round order |
//! | 3 | [`Frame::CommitResult`]  | server → client | committed correction for one shot |
//! | 4 | [`Frame::StatsRequest`]  | client → server | ask for per-tenant SLO accounting |
//! | 5 | [`Frame::StatsReport`]   | server → client | per-tenant reaction stats, sheds, misses |
//! | 6 | [`Frame::Shutdown`]      | client → server | end the session |
//! | 7 | [`Frame::ShutdownAck`]   | server → client | session is done |
//! | 8 | [`Frame::Error`]         | server → client | protocol or routing error |
//!
//! The wire carries decode traffic only: counters and histograms leave
//! by the `/metrics` endpoint (`telemetry::MetricsServer`), traces by
//! postmortem dump files (`crate::TraceSet`). v6 retired the metrics and
//! trace scrapes (former codes 9–12), which now decode as unknown types.
//!
//! The same bytes flow over both endpoints (loopback TCP and in-process
//! socket pairs; see [`crate::transport`]), so protocol coverage is
//! identical regardless of how the service is deployed.

use std::io::{Read, Write};

/// Version stamped into (and checked on) every frame.
///
/// v2 added the predecode byte to [`Frame::RegisterQubit`] and the
/// `l1_rounds` / `escalated_windows` counters to [`TenantStatsWire`];
/// v3 added the datapath byte to [`Frame::RegisterQubit`];
/// v4 added an in-band telemetry scrape (type codes 9/10);
/// v5 added an in-band flight-recorder scrape (codes 11/12) and the
/// shed-reason bits on [`Frame::CommitResult`]'s flags byte;
/// v6 retired the metrics and trace scrapes (codes 9–12): `/metrics`
/// and postmortem dump files are their one route out.
pub const PROTOCOL_VERSION: u16 = 6;

/// Upper bound on one frame's encoded size (sanity check against
/// corrupted length prefixes; generous for any realistic syndrome).
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Errors arising while encoding, decoding, or transporting frames.
#[derive(Debug)]
pub enum ServiceError {
    /// Underlying transport I/O failed.
    Io(std::io::Error),
    /// The bytes were readable but not a valid frame, or the peer broke
    /// the request/response contract.
    Protocol(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "transport i/o error: {e}"),
            ServiceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// Per-tenant SLO accounting row of a [`Frame::StatsReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct TenantStatsWire {
    /// Tenant (logical qubit) id.
    pub qubit: u32,
    /// Shard that owns the tenant's decode state.
    pub shard: u32,
    /// Shots committed for this tenant.
    pub shots: u64,
    /// Windows decoded (committed shots × windows per shot).
    pub windows: u64,
    /// Work shed by admission control: live gate rejections (shed
    /// submissions open no windows, so each counts once) plus modeled
    /// bounded-queue window sheds.
    pub shed: u64,
    /// Windows whose modeled reaction time exceeded the deadline.
    pub deadline_misses: u64,
    /// Mean modeled reaction time, ns.
    pub mean_ns: f64,
    /// Median modeled reaction time, ns.
    pub p50_ns: f64,
    /// 99th-percentile modeled reaction time, ns.
    pub p99_ns: f64,
    /// Worst modeled reaction time, ns.
    pub max_ns: f64,
    /// Round layers finalized by the L1 batch predecoder without waking
    /// a matching solver (zero with predecoding off).
    pub l1_rounds: u64,
    /// Windows whose residual syndrome was escalated past the L1 tier
    /// to the matching solver (zero with predecoding off).
    pub escalated_windows: u64,
}

/// One protocol message. See the module docs for the frame table.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Attach logical qubit `qubit` to `scenario`, decoded by the
    /// decoder with wire code `decoder` ([`ler::DecoderKind::code`])
    /// through a `(window, commit)` sliding-window split.
    RegisterQubit {
        /// Tenant id (unique per server).
        qubit: u32,
        /// Decoder wire code.
        decoder: u8,
        /// Sliding-window size in round layers.
        window: u32,
        /// Committed layers per window step.
        commit: u32,
        /// Predecode mode wire code ([`realtime::PredecodeMode::code`]).
        predecode: u8,
        /// Datapath wire code ([`realtime::Datapath::code`]). Packed (1)
        /// is the only datapath; the server refuses any other code,
        /// including the retired byte datapath's 0. The frozen benchmark
        /// writes this byte; ROADMAP 5(f) removes it.
        datapath: u8,
        /// Scenario name the server must have preloaded.
        scenario: String,
    },
    /// Registration outcome.
    RegisterAck {
        /// Tenant id echoed back.
        qubit: u32,
        /// Whether the tenant was attached.
        ok: bool,
        /// Owning shard (meaningful when `ok`).
        shard: u32,
        /// Rejection reason (empty when `ok`).
        message: String,
    },
    /// One shot's sorted detection events for tenant `qubit`. `shot`
    /// must increase by one per tenant, starting at 0.
    SubmitRounds {
        /// Tenant id.
        qubit: u32,
        /// Per-tenant shot sequence number.
        shot: u64,
        /// Sorted flipped detectors of the whole shot.
        dets: Vec<u32>,
    },
    /// The committed correction for one submitted shot.
    CommitResult {
        /// Tenant id.
        qubit: u32,
        /// Shot sequence number echoed back.
        shot: u64,
        /// XOR of the committed corrections' observable flips.
        obs_flip: u64,
        /// Some window decode failed; the shot counts as a logical error.
        failed: bool,
        /// The shot was shed by live admission control and never decoded.
        shed: bool,
        /// Why the shot was shed ([`crate::ShedReason::code`]; 0 when not
        /// shed). Travels in bits 2..=3 of the wire flags byte.
        shed_reason: u8,
        /// Windows decoded for this shot.
        windows: u32,
        /// Sum of the modeled per-window service times, ns.
        service_ns_total: f64,
    },
    /// Ask the server for per-tenant SLO accounting.
    StatsRequest,
    /// Per-tenant SLO accounting over everything decoded so far.
    StatsReport {
        /// One row per registered tenant, sorted by qubit id.
        tenants: Vec<TenantStatsWire>,
    },
    /// End the session.
    Shutdown,
    /// The session is done; no further frames follow.
    ShutdownAck,
    /// The server could not process a frame.
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// A borrowed view of a [`Frame::SubmitRounds`] body — the zero-copy
/// fast path: the session router decodes the header in place and parses
/// `det_bytes` straight into a ring slot's packed-word arena, so the
/// submit hot loop never materializes a `Vec<u32>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitBody<'a> {
    /// Tenant id.
    pub qubit: u32,
    /// Per-tenant shot sequence number.
    pub shot: u64,
    /// Number of detectors in `det_bytes`.
    pub count: u32,
    /// `count` little-endian `u32` detector ids, 4 bytes each.
    pub det_bytes: &'a [u8],
}

impl SubmitBody<'_> {
    /// Iterates the detector ids without materializing a list.
    pub fn dets(&self) -> impl Iterator<Item = u32> + '_ {
        self.det_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
    }
}

impl Frame {
    /// The frame's type code (first byte after the length prefix).
    pub fn type_code(&self) -> u8 {
        match self {
            Frame::RegisterQubit { .. } => 0,
            Frame::RegisterAck { .. } => 1,
            Frame::SubmitRounds { .. } => 2,
            Frame::CommitResult { .. } => 3,
            Frame::StatsRequest => 4,
            Frame::StatsReport { .. } => 5,
            Frame::Shutdown => 6,
            Frame::ShutdownAck => 7,
            Frame::Error { .. } => 8,
        }
    }

    /// Encodes the frame body (everything the length prefix covers).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] when a variable-length field
    /// does not fit its wire representation — a string over `u16::MAX`
    /// bytes, or a list whose encoding cannot fit one
    /// [`MAX_FRAME_LEN`]-byte frame. This mirrors the oversize check the
    /// read side applies: a frame the peer would reject is refused at
    /// encode time instead of being emitted with a silently wrapped
    /// length count.
    pub fn encode(&self) -> Result<Vec<u8>, ServiceError> {
        let mut out = Vec::new();
        self.encode_body(&mut out)?;
        Ok(out)
    }

    /// Appends the length-prefixed wire frame — the exact bytes of
    /// [`Frame::to_wire`] — to `out`, leaving what `out` already holds
    /// in place. The one encoder behind every other encode entry point:
    /// a writer that appends many frames into one recycled buffer pays
    /// no allocation per frame and one `write` per buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for oversized fields (see
    /// [`Frame::encode`]) or a body over [`MAX_FRAME_LEN`] bytes — the
    /// exact frame the read side would refuse. `out` is truncated back
    /// to its length on entry, so a failed frame never leaves half a
    /// body behind the frames already appended.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        let start = out.len();
        // Length placeholder, back-patched once the body is in place.
        out.extend_from_slice(&[0; 4]);
        let result = self.encode_body(out).and_then(|()| {
            let body_len = out.len() - start - 4;
            if body_len > MAX_FRAME_LEN {
                return Err(ServiceError::Protocol(format!(
                    "frame body of {body_len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
                )));
            }
            out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
            Ok(())
        });
        if result.is_err() {
            out.truncate(start);
        }
        result
    }

    /// Appends the frame body (type, version, payload) to `out`; on an
    /// error `out` may hold a partial body past its entry length.
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), ServiceError> {
        out.push(self.type_code());
        put_u16(out, PROTOCOL_VERSION);
        match self {
            Frame::RegisterQubit {
                qubit,
                decoder,
                window,
                commit,
                predecode,
                datapath,
                scenario,
            } => {
                put_u32(out, *qubit);
                out.push(*decoder);
                put_u32(out, *window);
                put_u32(out, *commit);
                out.push(*predecode);
                out.push(*datapath);
                put_str(out, scenario)?;
            }
            Frame::RegisterAck {
                qubit,
                ok,
                shard,
                message,
            } => {
                put_u32(out, *qubit);
                out.push(u8::from(*ok));
                put_u32(out, *shard);
                put_str(out, message)?;
            }
            Frame::SubmitRounds { qubit, shot, dets } => {
                put_u32(out, *qubit);
                put_u64(out, *shot);
                put_count(out, dets.len(), 4, "detector list")?;
                for &d in dets {
                    put_u32(out, d);
                }
            }
            Frame::CommitResult {
                qubit,
                shot,
                obs_flip,
                failed,
                shed,
                shed_reason,
                windows,
                service_ns_total,
            } => {
                put_u32(out, *qubit);
                put_u64(out, *shot);
                put_u64(out, *obs_flip);
                out.push(u8::from(*failed) | (u8::from(*shed) << 1) | ((*shed_reason & 0b11) << 2));
                put_u32(out, *windows);
                put_f64(out, *service_ns_total);
            }
            Frame::StatsRequest | Frame::Shutdown | Frame::ShutdownAck => {}
            Frame::StatsReport { tenants } => {
                put_count(out, tenants.len(), 88, "tenant stats list")?;
                for t in tenants {
                    put_u32(out, t.qubit);
                    put_u32(out, t.shard);
                    put_u64(out, t.shots);
                    put_u64(out, t.windows);
                    put_u64(out, t.shed);
                    put_u64(out, t.deadline_misses);
                    put_f64(out, t.mean_ns);
                    put_f64(out, t.p50_ns);
                    put_f64(out, t.p99_ns);
                    put_f64(out, t.max_ns);
                    put_u64(out, t.l1_rounds);
                    put_u64(out, t.escalated_windows);
                }
            }
            Frame::Error { message } => put_str(out, message)?,
        }
        Ok(())
    }

    /// Decodes a frame body produced by [`Frame::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] for truncated bodies, unknown
    /// type codes, version mismatches, or trailing garbage.
    pub fn decode(body: &[u8]) -> Result<Frame, ServiceError> {
        let mut r = Reader { buf: body, pos: 0 };
        let ty = r.u8()?;
        let version = r.u16()?;
        if version != PROTOCOL_VERSION {
            return Err(ServiceError::Protocol(format!(
                "protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
        let frame = match ty {
            0 => Frame::RegisterQubit {
                qubit: r.u32()?,
                decoder: r.u8()?,
                window: r.u32()?,
                commit: r.u32()?,
                predecode: r.u8()?,
                datapath: r.u8()?,
                scenario: r.str16()?,
            },
            1 => Frame::RegisterAck {
                qubit: r.u32()?,
                ok: r.u8()? != 0,
                shard: r.u32()?,
                message: r.str16()?,
            },
            2 => {
                let qubit = r.u32()?;
                let shot = r.u64()?;
                let n = r.u32()? as usize;
                let mut dets = Vec::with_capacity(n.min(MAX_FRAME_LEN / 4));
                for _ in 0..n {
                    dets.push(r.u32()?);
                }
                Frame::SubmitRounds { qubit, shot, dets }
            }
            3 => {
                let qubit = r.u32()?;
                let shot = r.u64()?;
                let obs_flip = r.u64()?;
                let flags = r.u8()?;
                Frame::CommitResult {
                    qubit,
                    shot,
                    obs_flip,
                    failed: flags & 1 != 0,
                    shed: flags & 2 != 0,
                    shed_reason: (flags >> 2) & 0b11,
                    windows: r.u32()?,
                    service_ns_total: r.f64()?,
                }
            }
            4 => Frame::StatsRequest,
            5 => {
                let n = r.u32()? as usize;
                let mut tenants = Vec::with_capacity(n.min(MAX_FRAME_LEN / 64));
                for _ in 0..n {
                    tenants.push(TenantStatsWire {
                        qubit: r.u32()?,
                        shard: r.u32()?,
                        shots: r.u64()?,
                        windows: r.u64()?,
                        shed: r.u64()?,
                        deadline_misses: r.u64()?,
                        mean_ns: r.f64()?,
                        p50_ns: r.f64()?,
                        p99_ns: r.f64()?,
                        max_ns: r.f64()?,
                        l1_rounds: r.u64()?,
                        escalated_windows: r.u64()?,
                    });
                }
                Frame::StatsReport { tenants }
            }
            6 => Frame::Shutdown,
            7 => Frame::ShutdownAck,
            8 => Frame::Error {
                message: r.str16()?,
            },
            other => {
                return Err(ServiceError::Protocol(format!(
                    "unknown frame type {other}"
                )));
            }
        };
        if r.pos != body.len() {
            return Err(ServiceError::Protocol(format!(
                "{} trailing bytes after a type-{ty} frame",
                body.len() - r.pos
            )));
        }
        Ok(frame)
    }

    /// Peeks the type code of an encoded frame body without decoding it
    /// (`None` for bodies too short to carry the type + version header).
    pub fn body_type(body: &[u8]) -> Option<u8> {
        (body.len() >= 3).then(|| body[0])
    }

    /// Decodes a [`Frame::SubmitRounds`] body as a borrowed
    /// [`SubmitBody`] view — no allocation, no detector-list
    /// materialization (see [`SubmitBody`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Protocol`] when the body is not a
    /// well-formed type-2 frame of this protocol version.
    pub fn decode_submit_body(body: &[u8]) -> Result<SubmitBody<'_>, ServiceError> {
        let mut r = Reader { buf: body, pos: 0 };
        let ty = r.u8()?;
        if ty != 2 {
            return Err(ServiceError::Protocol(format!(
                "expected a type-2 submit body, got type {ty}"
            )));
        }
        let version = r.u16()?;
        if version != PROTOCOL_VERSION {
            return Err(ServiceError::Protocol(format!(
                "protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )));
        }
        let qubit = r.u32()?;
        let shot = r.u64()?;
        let count = r.u32()?;
        let det_bytes = &body[r.pos..];
        if det_bytes.len() != count as usize * 4 {
            return Err(ServiceError::Protocol(format!(
                "submit body carries {} detector bytes, count {count} wants {}",
                det_bytes.len(),
                count as usize * 4
            )));
        }
        Ok(SubmitBody {
            qubit,
            shot,
            count,
            det_bytes,
        })
    }

    /// Encodes the frame with its length prefix — the exact bytes both
    /// transports put on the wire.
    ///
    /// # Errors
    ///
    /// The encode-side [`ServiceError::Protocol`] errors of
    /// [`Frame::encode_into`].
    pub fn to_wire(&self) -> Result<Vec<u8>, ServiceError> {
        let mut wire = Vec::new();
        self.encode_into(&mut wire)?;
        Ok(wire)
    }

    /// Writes the length-prefixed frame to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w` and encode-side
    /// [`ServiceError::Protocol`] errors from [`Frame::to_wire`].
    pub fn write_to(&self, w: &mut dyn Write) -> Result<(), ServiceError> {
        w.write_all(&self.to_wire()?)?;
        w.flush()?;
        Ok(())
    }

    /// Reads one length-prefixed frame from `r`. Returns `None` on a
    /// clean EOF at a frame boundary.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Io`] for mid-frame EOF or transport
    /// failures, [`ServiceError::Protocol`] for oversized or malformed
    /// frames.
    pub fn read_from(r: &mut dyn Read) -> Result<Option<Frame>, ServiceError> {
        let mut body = Vec::new();
        if read_body(r, &mut body)? {
            Frame::decode(&body).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// Reads one length-prefixed frame's body from `r` into `body`,
/// replacing its contents; `false` means a clean EOF at a frame
/// boundary. The one length-prefix reader: [`Frame::read_from`] and
/// every transport source go through it.
///
/// Only EOF before the first prefix byte is a clean close. EOF after one
/// to three prefix bytes, or inside the body, is a truncated frame.
///
/// # Errors
///
/// [`ServiceError::Io`] for a truncated frame or a transport failure,
/// [`ServiceError::Protocol`] for a length above [`MAX_FRAME_LEN`].
pub(crate) fn read_body<R: Read + ?Sized>(
    r: &mut R,
    body: &mut Vec<u8>,
) -> Result<bool, ServiceError> {
    let mut len = [0u8; 4];
    loop {
        match r.read(&mut len[..1]) {
            Ok(0) => return Ok(false),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    r.read_exact(&mut len[1..])?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ServiceError::Protocol(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    body.clear();
    body.resize(len, 0);
    r.read_exact(body)?;
    Ok(true)
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), ServiceError> {
    let bytes = s.as_bytes();
    if bytes.len() > u16::MAX as usize {
        return Err(ServiceError::Protocol(format!(
            "string field of {} bytes exceeds the u16 length prefix",
            bytes.len()
        )));
    }
    put_u16(out, bytes.len() as u16);
    out.extend_from_slice(bytes);
    Ok(())
}

/// Writes a `u32` element count, rejecting lists whose `elem_bytes`-wide
/// encoding cannot fit one frame (which also makes the `as u32` cast
/// lossless — the old unguarded cast silently wrapped huge counts).
fn put_count(
    out: &mut Vec<u8>,
    n: usize,
    elem_bytes: usize,
    what: &str,
) -> Result<(), ServiceError> {
    if n > MAX_FRAME_LEN / elem_bytes {
        return Err(ServiceError::Protocol(format!(
            "{what} of {n} entries exceeds the {MAX_FRAME_LEN}-byte frame limit"
        )));
    }
    put_u32(out, n as u32);
    Ok(())
}

/// Cursor over a frame body with truncation-checked reads.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ServiceError> {
        if self.pos + n > self.buf.len() {
            return Err(ServiceError::Protocol(format!(
                "truncated frame: wanted {n} bytes at offset {}, body is {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServiceError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServiceError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, ServiceError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ServiceError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, ServiceError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str16(&mut self) -> Result<String, ServiceError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| ServiceError::Protocol(format!("invalid UTF-8 in string field: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::RegisterQubit {
                qubit: 7,
                decoder: 5,
                window: 4,
                commit: 2,
                predecode: 1,
                datapath: 1,
                scenario: "sd6-d5".into(),
            },
            Frame::RegisterAck {
                qubit: 7,
                ok: true,
                shard: 3,
                message: String::new(),
            },
            Frame::RegisterAck {
                qubit: 9,
                ok: false,
                shard: 0,
                message: "unknown scenario 'x'".into(),
            },
            Frame::SubmitRounds {
                qubit: 7,
                shot: 41,
                dets: vec![1, 5, 9, 1000],
            },
            Frame::SubmitRounds {
                qubit: 0,
                shot: 0,
                dets: Vec::new(),
            },
            Frame::CommitResult {
                qubit: 7,
                shot: 41,
                obs_flip: 1,
                failed: false,
                shed: true,
                shed_reason: 2,
                windows: 3,
                service_ns_total: 812.5,
            },
            Frame::CommitResult {
                qubit: 8,
                shot: 42,
                obs_flip: 0,
                failed: true,
                shed: false,
                shed_reason: 0,
                windows: 3,
                service_ns_total: 99.0,
            },
            Frame::StatsRequest,
            Frame::StatsReport {
                tenants: vec![TenantStatsWire {
                    qubit: 7,
                    shard: 3,
                    shots: 100,
                    windows: 300,
                    shed: 2,
                    deadline_misses: 1,
                    mean_ns: 420.25,
                    p50_ns: 400.0,
                    p99_ns: 900.0,
                    max_ns: 1400.0,
                    l1_rounds: 240,
                    escalated_windows: 12,
                }],
            },
            Frame::Shutdown,
            Frame::ShutdownAck,
            Frame::Error {
                message: "qubit 12 is not registered".into(),
            },
        ]
    }

    #[test]
    fn shed_reason_bits_share_the_commit_flags_byte() {
        for (failed, shed, reason) in [
            (false, true, 1u8),
            (false, true, 2),
            (true, false, 0),
            (false, true, 3),
        ] {
            let f = Frame::CommitResult {
                qubit: 1,
                shot: 2,
                obs_flip: 0,
                failed,
                shed,
                shed_reason: reason,
                windows: 0,
                service_ns_total: 0.0,
            };
            let body = f.encode().unwrap();
            assert_eq!(Frame::decode(&body).unwrap(), f);
        }
    }

    #[test]
    fn every_frame_round_trips() {
        for f in sample_frames() {
            let body = f.encode().unwrap();
            let back = Frame::decode(&body).unwrap();
            assert_eq!(back, f);
            // Byte-level fixed point.
            assert_eq!(back.encode().unwrap(), body);
        }
    }

    #[test]
    fn framed_io_round_trips_over_a_byte_pipe() {
        let mut wire = Vec::new();
        for f in sample_frames() {
            f.write_to(&mut wire).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for f in sample_frames() {
            let got = Frame::read_from(&mut cursor).unwrap().unwrap();
            assert_eq!(got, f);
        }
        // Clean EOF at a frame boundary is end-of-stream, not an error.
        assert!(Frame::read_from(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn submit_body_view_matches_the_decoded_frame() {
        let f = Frame::SubmitRounds {
            qubit: 7,
            shot: 41,
            dets: vec![1, 5, 9, 1000],
        };
        let body = f.encode().unwrap();
        assert_eq!(Frame::body_type(&body), Some(2));
        let view = Frame::decode_submit_body(&body).unwrap();
        assert_eq!(view.qubit, 7);
        assert_eq!(view.shot, 41);
        assert_eq!(view.count, 4);
        assert_eq!(view.dets().collect::<Vec<u32>>(), vec![1, 5, 9, 1000]);
        // The empty shot works too.
        let body = Frame::SubmitRounds {
            qubit: 0,
            shot: 0,
            dets: Vec::new(),
        }
        .encode()
        .unwrap();
        let view = Frame::decode_submit_body(&body).unwrap();
        assert_eq!(view.count, 0);
        assert_eq!(view.dets().count(), 0);
        // Non-submit bodies and malformed counts are rejected.
        let other = Frame::StatsRequest.encode().unwrap();
        assert_eq!(Frame::body_type(&other), Some(4));
        assert!(Frame::decode_submit_body(&other).is_err());
        let mut truncated = f.encode().unwrap();
        truncated.truncate(truncated.len() - 2);
        assert!(Frame::decode_submit_body(&truncated).is_err());
        let mut wrong_version = f.encode().unwrap();
        wrong_version[1] = 99;
        assert!(Frame::decode_submit_body(&wrong_version).is_err());
        assert_eq!(Frame::body_type(&[2]), None);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut body = Frame::Shutdown.encode().unwrap();
        body[1] = 99; // clobber the version field
        let err = Frame::decode(&body).unwrap_err();
        assert!(matches!(err, ServiceError::Protocol(_)), "{err}");
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn retired_scrape_codes_are_unknown_and_v5_peers_are_refused() {
        // v6 retired the metrics (9/10) and trace (11/12) scrapes.
        for code in 9u8..=12 {
            let mut body = vec![code];
            put_u16(&mut body, PROTOCOL_VERSION);
            let err = Frame::decode(&body).unwrap_err();
            assert!(
                err.to_string()
                    .contains(&format!("unknown frame type {code}")),
                "{err}"
            );
        }
        let mut body = Frame::StatsRequest.encode().unwrap();
        body[1..3].copy_from_slice(&5u16.to_le_bytes());
        let err = Frame::decode(&body).unwrap_err();
        assert!(
            err.to_string()
                .contains("protocol version 5 (this build speaks 6)"),
            "{err}"
        );
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        // Unknown type.
        let mut body = Frame::Shutdown.encode().unwrap();
        body[0] = 42;
        assert!(Frame::decode(&body).is_err());
        // Truncated payload.
        let body = Frame::SubmitRounds {
            qubit: 1,
            shot: 2,
            dets: vec![3, 4],
        }
        .encode()
        .unwrap();
        assert!(Frame::decode(&body[..body.len() - 2]).is_err());
        // Trailing garbage.
        let mut body = Frame::StatsRequest.encode().unwrap();
        body.push(0);
        assert!(Frame::decode(&body).is_err());
        // Empty body.
        assert!(Frame::decode(&[]).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut cursor = std::io::Cursor::new(wire);
        let err = Frame::read_from(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
    }

    #[test]
    fn oversized_fields_are_encode_errors_not_silent_wraps() {
        // A string past the u16 length prefix (formerly an assert).
        let f = Frame::Error {
            message: "x".repeat(u16::MAX as usize + 1),
        };
        assert!(matches!(f.encode(), Err(ServiceError::Protocol(_))));
        // A detector list whose count the old `as u32` cast would have
        // emitted unchecked into a frame no peer can read.
        let f = Frame::SubmitRounds {
            qubit: 0,
            shot: 0,
            dets: vec![0; MAX_FRAME_LEN / 4 + 1],
        };
        let err = f.encode().unwrap_err();
        assert!(err.to_string().contains("frame limit"), "{err}");
        assert!(matches!(f.to_wire(), Err(ServiceError::Protocol(_))));
        // A body that passes the count guard but overflows the frame
        // limit with its header is caught by to_wire — the exact frame
        // the read side would refuse.
        let f = Frame::SubmitRounds {
            qubit: 0,
            shot: 0,
            dets: vec![0; MAX_FRAME_LEN / 4],
        };
        assert!(f.encode().is_ok());
        let err = f.to_wire().unwrap_err();
        assert!(err.to_string().contains("limit"), "{err}");
        // write_to refuses before touching the writer.
        let mut sink = Vec::new();
        assert!(f.write_to(&mut sink).is_err());
        assert!(sink.is_empty());
        // encode_into refuses both kinds and hands the buffer back as it
        // found it: no placeholder, no half-written body.
        let mut out = Frame::Shutdown.to_wire().unwrap();
        let before = out.clone();
        assert!(f.encode_into(&mut out).is_err());
        let long = Frame::Error {
            message: "x".repeat(u16::MAX as usize + 1),
        };
        assert!(long.encode_into(&mut out).is_err());
        assert_eq!(out, before);
    }

    #[test]
    fn mid_frame_eof_is_an_io_error_not_end_of_stream() {
        let wire = Frame::SubmitRounds {
            qubit: 1,
            shot: 2,
            dets: vec![3, 4],
        }
        .to_wire()
        .unwrap();
        // Only zero bytes is a clean close: a cut inside the length
        // prefix (1–3 bytes) is as truncated as one inside the body.
        for cut in 1..wire.len() {
            let mut cursor = std::io::Cursor::new(&wire[..cut]);
            assert!(
                matches!(Frame::read_from(&mut cursor), Err(ServiceError::Io(_))),
                "read_from, cut at {cut}"
            );
            let endpoints = ["in-process", "tcp"].into_iter();
            for (endpoint, (mut client, mut server)) in
                endpoints.zip(crate::transport::tests::both())
            {
                client.sink.send_wire(&wire[..cut]).unwrap();
                drop(client);
                assert!(
                    matches!(server.source.recv(), Err(ServiceError::Io(_))),
                    "{endpoint} source, cut at {cut}"
                );
            }
        }
    }
}
