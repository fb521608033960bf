//! Frame transports: loopback TCP and in-process channels behind one
//! pair of traits.
//!
//! A transport endpoint is a ([`FrameSink`], [`FrameSource`]) pair —
//! split halves, so a session's router thread can block on the source
//! while the sink, wrapped in a [`ReplySink`], takes replies from that
//! router and from every shard that decodes the session's submissions.
//! Both implementations
//! move the **same encoded bytes** (see [`crate::protocol`]): the
//! channel transport ships `Vec<u8>` wire frames through `std::sync::
//! mpsc`, the TCP transport writes them to a `TcpStream`. In-process
//! tests therefore exercise the full serialization path, and switching a
//! deployment from channels to TCP changes nothing but the endpoint
//! constructor.
//!
//! The TCP endpoint never waits on a kernel timer and never pays a
//! syscall per frame: [`tcp_endpoint`] sets `TCP_NODELAY` (a reply
//! written while an earlier one is un-ACKed goes out now, not when the
//! peer's next submit or its 40 ms delayed-ACK timer releases Nagle's
//! buffer), the source reads through a 64 KiB buffer (a 16-frame burst
//! is one `read`, not 32) and says when a whole further frame is already
//! in it ([`FrameSource::has_buffered`]), and [`FrameSink::send_wire`]
//! puts any number of already encoded frames on the wire in one `write`.

use crate::protocol::{Frame, ServiceError, MAX_FRAME_LEN};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

/// The sending half of a transport endpoint.
pub trait FrameSink: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Returns an error when the peer is gone or the transport failed.
    fn send(&mut self, frame: &Frame) -> Result<(), ServiceError>;

    /// Sends `wire` — whole length-prefixed frames back to back, as
    /// [`Frame::encode_into`] appends them — in order. What the peer
    /// receives is what one [`FrameSink::send`] per frame would have
    /// delivered; TCP pays one `write` for the lot.
    ///
    /// # Errors
    ///
    /// Returns an error when the peer is gone, the transport failed, or
    /// `wire` does not end on a frame boundary.
    fn send_wire(&mut self, wire: &[u8]) -> Result<(), ServiceError>;

    /// Closes the connection in both directions after a failed send, so
    /// a half-written frame is never followed by more bytes and the
    /// peer's reader (and this side's) sees the end. The default does
    /// nothing: a channel send is all or nothing.
    fn shutdown(&mut self) {}
}

/// The receiving half of a transport endpoint.
pub trait FrameSource: Send {
    /// Receives the next frame's *body* (everything after the length
    /// prefix) into `buf`, replacing its contents; returns `false` on a
    /// clean peer close. The zero-copy ingest path: the caller peeks
    /// [`Frame::body_type`] and parses submit bodies in place instead of
    /// materializing a [`Frame`] per submission — `buf` is recycled
    /// across calls, so steady-state receive allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed framing or transport failures.
    fn recv_body(&mut self, buf: &mut Vec<u8>) -> Result<bool, ServiceError>;

    /// Whether a whole further frame is already at hand, so the next
    /// [`FrameSource::recv_body`] returns it without blocking (a source
    /// may take it off its transport early to tell). The default `false`
    /// is always safe: a caller that defers work while more input is at
    /// hand then just never defers.
    fn has_buffered(&mut self) -> bool {
        false
    }

    /// Receives the next frame; `None` means the peer closed cleanly.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed bytes or transport failures.
    fn recv(&mut self) -> Result<Option<Frame>, ServiceError> {
        let mut buf = Vec::new();
        if self.recv_body(&mut buf)? {
            Frame::decode(&buf).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// One side of a connection: a sink to the peer and a source from it.
pub struct Endpoint {
    /// Frames written here reach the peer's source.
    pub sink: Box<dyn FrameSink>,
    /// Frames from the peer's sink arrive here.
    pub source: Box<dyn FrameSource>,
}

/// One session's reply path, shared by its router and every shard that
/// sweeps one of its submission rings: the sink and a recycled encode
/// buffer behind one lock, so replies reach the peer in the order their
/// writers took the lock.
///
/// A send that fails — the peer is gone, or it stopped reading and a
/// TCP write timed out — kills the sink: the transport is shut down both
/// ways ([`FrameSink::shutdown`]), so no half-written frame is followed
/// by more bytes, and every later reply is dropped. A stalled peer thus
/// holds a writer for at most one write timeout, once.
pub struct ReplySink {
    state: Mutex<SinkState>,
}

struct SinkState {
    sink: Box<dyn FrameSink>,
    /// Encode scratch of [`ReplySink::send`], recycled across frames.
    wire: Vec<u8>,
    dead: bool,
}

impl ReplySink {
    /// Wraps a transport sink.
    pub fn new(sink: Box<dyn FrameSink>) -> Self {
        ReplySink {
            state: Mutex::new(SinkState {
                sink,
                wire: Vec::new(),
                dead: false,
            }),
        }
    }

    /// Encodes one frame into the recycled buffer and sends it. A frame
    /// that cannot be encoded kills the sink like a failed write.
    pub fn send(&self, frame: &Frame) {
        let mut state = self.state.lock().expect("reply sink poisoned");
        let SinkState { sink, wire, dead } = &mut *state;
        if *dead {
            return;
        }
        wire.clear();
        if frame
            .encode_into(wire)
            .and_then(|()| sink.send_wire(wire))
            .is_err()
        {
            *dead = true;
            sink.shutdown();
        }
    }

    /// Sends `wire` — whole frames back to back, as
    /// [`Frame::encode_into`] appends them — with one
    /// [`FrameSink::send_wire`].
    pub fn send_wire(&self, wire: &[u8]) {
        if wire.is_empty() {
            return;
        }
        let mut state = self.state.lock().expect("reply sink poisoned");
        if !state.dead && state.sink.send_wire(wire).is_err() {
            state.dead = true;
            state.sink.shutdown();
        }
    }
}

// ---------------------------------------------------------------------
// In-process channel transport.

struct ChannelSink {
    tx: Sender<Vec<u8>>,
}

impl ChannelSink {
    /// Ships one frame's wire bytes as one channel message.
    fn ship(&mut self, one: Vec<u8>) -> Result<(), ServiceError> {
        self.tx
            .send(one)
            .map_err(|_| ServiceError::Protocol("channel peer hung up".into()))
    }
}

impl FrameSink for ChannelSink {
    fn send(&mut self, frame: &Frame) -> Result<(), ServiceError> {
        self.ship(frame.to_wire()?)
    }

    fn send_wire(&mut self, mut wire: &[u8]) -> Result<(), ServiceError> {
        // One channel message per frame, whatever the batch: the source
        // side checks each message against its own length prefix.
        while !wire.is_empty() {
            let (one, rest) = wire
                .first_chunk::<4>()
                .and_then(|len| wire.split_at_checked(4 + u32::from_le_bytes(*len) as usize))
                .ok_or_else(|| ServiceError::Protocol("wire batch ends mid-frame".into()))?;
            self.ship(one.to_vec())?;
            wire = rest;
        }
        Ok(())
    }
}

struct ChannelSource {
    rx: Receiver<Vec<u8>>,
    /// A message [`FrameSource::has_buffered`] took off the channel
    /// ahead of its [`FrameSource::recv_body`].
    ahead: Option<Vec<u8>>,
}

impl FrameSource for ChannelSource {
    fn recv_body(&mut self, buf: &mut Vec<u8>) -> Result<bool, ServiceError> {
        let wire = match self.ahead.take().map_or_else(|| self.rx.recv(), Ok) {
            Ok(wire) => wire,
            // Sender dropped: clean end-of-stream, like TCP EOF.
            Err(_) => return Ok(false),
        };
        if wire.len() < 4 {
            return Err(ServiceError::Protocol("short wire frame".into()));
        }
        let len = u32::from_le_bytes(wire[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN || wire.len() != 4 + len {
            return Err(ServiceError::Protocol(format!(
                "wire frame length {} does not match prefix {len}",
                wire.len() - 4
            )));
        }
        buf.clear();
        buf.extend_from_slice(&wire[4..]);
        Ok(true)
    }

    fn has_buffered(&mut self) -> bool {
        // Every message is one whole frame.
        if self.ahead.is_none() {
            self.ahead = self.rx.try_recv().ok();
        }
        self.ahead.is_some()
    }
}

/// Creates a connected (client, server) pair of in-process endpoints.
pub fn channel_pair() -> (Endpoint, Endpoint) {
    let (client_tx, server_rx) = channel();
    let (server_tx, client_rx) = channel();
    (
        Endpoint {
            sink: Box::new(ChannelSink { tx: client_tx }),
            source: Box::new(ChannelSource {
                rx: client_rx,
                ahead: None,
            }),
        },
        Endpoint {
            sink: Box::new(ChannelSink { tx: server_tx }),
            source: Box::new(ChannelSource {
                rx: server_rx,
                ahead: None,
            }),
        },
    )
}

// ---------------------------------------------------------------------
// Loopback TCP transport.

/// Read-buffer size of a TCP source: far above one burst of submits, so
/// a burst is one `read`, and small enough to stay cache-resident.
const TCP_BUF_BYTES: usize = 64 << 10;

struct TcpSink {
    stream: TcpStream,
    /// Encode scratch of [`FrameSink::send`], recycled across frames.
    wire: Vec<u8>,
}

impl FrameSink for TcpSink {
    fn send(&mut self, frame: &Frame) -> Result<(), ServiceError> {
        self.wire.clear();
        frame.encode_into(&mut self.wire)?;
        Ok(self.stream.write_all(&self.wire)?)
    }

    fn send_wire(&mut self, wire: &[u8]) -> Result<(), ServiceError> {
        Ok(self.stream.write_all(wire)?)
    }

    fn shutdown(&mut self) {
        // The socket, not the handle: the source's clone sees EOF too.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

struct TcpSource {
    stream: BufReader<TcpStream>,
}

impl FrameSource for TcpSource {
    fn recv_body(&mut self, buf: &mut Vec<u8>) -> Result<bool, ServiceError> {
        let mut len_buf = [0u8; 4];
        match self.stream.read_exact(&mut len_buf) {
            Ok(()) => {}
            // EOF at a frame boundary: clean close.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(false),
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME_LEN {
            return Err(ServiceError::Protocol(format!(
                "frame length {len} exceeds the {MAX_FRAME_LEN}-byte limit"
            )));
        }
        buf.clear();
        buf.resize(len, 0);
        self.stream.read_exact(buf)?;
        Ok(true)
    }

    fn has_buffered(&mut self) -> bool {
        // A whole frame, not just its first bytes: a frame split across
        // reads still needs a blocking one.
        let buffered = self.stream.buffer();
        buffered
            .first_chunk::<4>()
            .is_some_and(|len| buffered.len() - 4 >= u32::from_le_bytes(*len) as usize)
    }
}

/// Wraps a connected TCP stream as a transport endpoint (the writer half
/// is a `try_clone` of the stream, so sink and source can live on
/// different threads).
///
/// Sets `TCP_NODELAY` on the socket — here, not on the server's accept
/// path, because both ends of a session need it and both come through
/// this constructor: accepted sockets, `repro serve --transport tcp`
/// clients and the determinism tests. The option lives on the socket,
/// not the handle, so every earlier or later `try_clone` shares it.
///
/// # Errors
///
/// Propagates the `set_nodelay` or `try_clone` failure.
pub fn tcp_endpoint(stream: TcpStream) -> Result<Endpoint, ServiceError> {
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok(Endpoint {
        sink: Box::new(TcpSink {
            stream: writer,
            wire: Vec::new(),
        }),
        source: Box::new(TcpSource {
            stream: BufReader::with_capacity(TCP_BUF_BYTES, stream),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn ping() -> Frame {
        Frame::SubmitRounds {
            qubit: 3,
            shot: 8,
            dets: vec![2, 4, 6],
        }
    }

    #[test]
    fn channel_pair_delivers_frames_both_ways() {
        let (mut client, mut server) = channel_pair();
        client.sink.send(&ping()).unwrap();
        assert_eq!(server.source.recv().unwrap(), Some(ping()));
        server.sink.send(&Frame::ShutdownAck).unwrap();
        assert_eq!(client.source.recv().unwrap(), Some(Frame::ShutdownAck));
        // Dropping the client's sink ends the server's stream cleanly.
        drop(client);
        assert_eq!(server.source.recv().unwrap(), None);
    }

    #[test]
    fn recv_body_recycles_one_buffer_across_frames() {
        let (mut client, mut server) = channel_pair();
        client.sink.send(&ping()).unwrap();
        client.sink.send(&Frame::ShutdownAck).unwrap();
        let mut buf = Vec::new();
        assert!(server.source.recv_body(&mut buf).unwrap());
        assert_eq!(
            Frame::body_type(&buf),
            Some(2),
            "submit bodies peek as type 2"
        );
        assert_eq!(Frame::decode(&buf).unwrap(), ping());
        let cap = buf.capacity();
        assert!(server.source.recv_body(&mut buf).unwrap());
        assert_eq!(
            buf.capacity(),
            cap,
            "the body buffer is reused, not regrown"
        );
        assert_eq!(Frame::decode(&buf).unwrap(), Frame::ShutdownAck);
        drop(client);
        assert!(!server.source.recv_body(&mut buf).unwrap(), "clean close");
    }

    #[test]
    fn tcp_endpoints_deliver_frames_over_loopback() {
        // Ephemeral port (bind to 0) so parallel test runs never collide.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut ep = tcp_endpoint(stream).unwrap();
            let got = ep.source.recv().unwrap().unwrap();
            ep.sink.send(&got).unwrap();
            assert_eq!(ep.source.recv().unwrap(), None);
        });
        let mut client = tcp_endpoint(TcpStream::connect(addr).unwrap()).unwrap();
        client.sink.send(&ping()).unwrap();
        assert_eq!(client.source.recv().unwrap(), Some(ping()));
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn tcp_endpoint_sets_nodelay_on_the_socket_not_the_handle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // A handle cloned *before* the endpoint exists sees the option
        // afterwards: it is the socket's, so the sink's clone has it too.
        let earlier = stream.try_clone().unwrap();
        assert!(!earlier.nodelay().unwrap(), "Nagle is the OS default");
        let _ep = tcp_endpoint(stream).unwrap();
        assert!(earlier.nodelay().unwrap());
    }

    #[test]
    fn send_wire_delivers_a_batch_frame_for_frame_on_both_transports() {
        let frames = [ping(), Frame::ShutdownAck, ping()];
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire).unwrap();
        }
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tcp_client = tcp_endpoint(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        let tcp_server = tcp_endpoint(listener.accept().unwrap().0);
        for (mut client, mut server) in [channel_pair(), (tcp_client.unwrap(), tcp_server.unwrap())]
        {
            server.sink.send_wire(&wire).unwrap();
            for f in &frames {
                assert_eq!(client.source.recv().unwrap().as_ref(), Some(f));
            }
            // The empty batch is nothing at all, not an empty message.
            server.sink.send_wire(&[]).unwrap();
            drop(server);
            assert_eq!(client.source.recv().unwrap(), None);
        }
        // The channel transport splits per frame, so a batch that stops
        // mid-frame is refused instead of shipped as a short message.
        let (_client, mut server) = channel_pair();
        assert!(server.sink.send_wire(&wire[..wire.len() - 1]).is_err());
        assert!(server.sink.send_wire(&wire[..2]).is_err());
    }

    #[test]
    fn sources_report_only_whole_frames_as_buffered() {
        let mut wire = Vec::new();
        ping().encode_into(&mut wire).unwrap();
        let one = wire.len();
        ping().encode_into(&mut wire).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let tcp_client = tcp_endpoint(TcpStream::connect(listener.local_addr().unwrap()).unwrap());
        let tcp_server = tcp_endpoint(listener.accept().unwrap().0);
        for (mut client, mut server) in [channel_pair(), (tcp_client.unwrap(), tcp_server.unwrap())]
        {
            assert!(!server.source.has_buffered(), "nothing sent yet");
            client.sink.send_wire(&wire[..one]).unwrap();
            assert_eq!(server.source.recv().unwrap(), Some(ping()));
            assert!(!server.source.has_buffered());
            // Two frames in one write: after the first, the second is at
            // hand, and a frame still in flight is not.
            client.sink.send_wire(&wire).unwrap();
            assert_eq!(server.source.recv().unwrap(), Some(ping()));
            assert!(server.source.has_buffered());
            assert_eq!(server.source.recv().unwrap(), Some(ping()));
            assert!(!server.source.has_buffered());
        }
        // Over TCP a frame split across reads is not a buffered frame
        // until its last byte is in.
        let (mut client, server) = (
            tcp_endpoint(TcpStream::connect(listener.local_addr().unwrap()).unwrap()).unwrap(),
            listener.accept().unwrap().0,
        );
        let mut source = TcpSource {
            stream: BufReader::with_capacity(TCP_BUF_BYTES, server),
        };
        client.sink.send_wire(&wire[..one + 5]).unwrap();
        assert_eq!(source.recv().unwrap(), Some(ping()));
        assert!(!source.has_buffered(), "five bytes of a frame");
        client.sink.send_wire(&wire[one + 5..]).unwrap();
        assert_eq!(source.recv().unwrap(), Some(ping()));
    }

    #[test]
    fn a_failed_send_kills_the_reply_sink_and_closes_the_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client =
            tcp_endpoint(TcpStream::connect(listener.local_addr().unwrap()).unwrap()).unwrap();
        let Endpoint { sink, mut source } = tcp_endpoint(listener.accept().unwrap().0).unwrap();
        let reply = ReplySink::new(sink);
        reply.send(&Frame::ShutdownAck);
        assert_eq!(client.source.recv().unwrap(), Some(Frame::ShutdownAck));
        // A frame too large to encode fails like a write: the socket is
        // shut down both ways, so the peer reads EOF, the server's own
        // source sees the end, and later replies go nowhere.
        reply.send(&Frame::Error {
            message: "x".repeat(MAX_FRAME_LEN + 1),
        });
        assert_eq!(source.recv().unwrap(), None);
        reply.send(&Frame::ShutdownAck);
        reply.send_wire(&Frame::ShutdownAck.to_wire().unwrap());
        assert_eq!(
            client.source.recv().unwrap(),
            None,
            "no bytes after the failure"
        );
    }
}
