//! Frame transports: loopback TCP and in-process channels behind one
//! pair of traits.
//!
//! A transport endpoint is a ([`FrameSink`], [`FrameSource`]) pair —
//! split halves, so the server can hand the sink to a writer thread
//! while a router thread blocks on the source. Both implementations
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
//! is one `read`, not 32), and [`FrameSink::send_wire`] puts any number
//! of already encoded frames on the wire in one `write`.

use crate::protocol::{Frame, ServiceError, MAX_FRAME_LEN};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};

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
}

impl FrameSource for ChannelSource {
    fn recv_body(&mut self, buf: &mut Vec<u8>) -> Result<bool, ServiceError> {
        match self.rx.recv() {
            Ok(wire) => {
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
            // Sender dropped: clean end-of-stream, like TCP EOF.
            Err(_) => Ok(false),
        }
    }
}

/// Creates a connected (client, server) pair of in-process endpoints.
pub fn channel_pair() -> (Endpoint, Endpoint) {
    let (client_tx, server_rx) = channel();
    let (server_tx, client_rx) = channel();
    (
        Endpoint {
            sink: Box::new(ChannelSink { tx: client_tx }),
            source: Box::new(ChannelSource { rx: client_rx }),
        },
        Endpoint {
            sink: Box::new(ChannelSink { tx: server_tx }),
            source: Box::new(ChannelSource { rx: server_rx }),
        },
    )
}

// ---------------------------------------------------------------------
// Loopback TCP transport.

/// Read-buffer size of a TCP source and the reply writer's coalescing
/// bound (see `server`): far above one burst of submits or commits, so a
/// burst is one syscall each way, and small enough to stay cache-resident.
pub(crate) const TCP_BUF_BYTES: usize = 64 << 10;

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
}
