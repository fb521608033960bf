//! Frame transports: every session is one byte stream — a loopback TCP
//! connection, or an in-process Unix socket pair from [`channel_pair`] —
//! read and written by one sink and one source.
//!
//! An [`Endpoint`] is a ([`FrameSink`], [`FrameSource`]) pair — split
//! halves of one socket, so a session's router thread can block on the
//! source while the sink, wrapped in a [`ReplySink`], takes replies from
//! that router and from every shard that decodes the session's
//! submissions. Both kinds of socket go through the same code, so
//! in-process tests exercise the production read and write path. The
//! kernel's socket buffers bound what is in flight, and every
//! server-side socket has a write timeout, so a wrong or stalled peer
//! can only produce an error, a write timeout or EOF — never an
//! unbounded queue.
//!
//! No endpoint waits on a kernel timer or pays a syscall per frame:
//! [`tcp_endpoint`] sets `TCP_NODELAY` (a reply written while an earlier
//! one is un-ACKed goes out now, not when the peer's next submit or its
//! 40 ms delayed-ACK timer releases Nagle's buffer), the source reads
//! through a 64 KiB buffer (a 16-frame burst is one `read`, not 32) and
//! says when a whole further frame is already in it
//! ([`FrameSource::has_buffered`]), and [`FrameSink::send_wire`] puts any
//! number of already encoded frames on the wire in one `write`.

use crate::protocol::{read_body, Frame, ServiceError};
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::Duration;

/// The sending half of a transport endpoint.
pub trait FrameSink: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Returns an error when the peer is gone or the transport failed.
    fn send(&mut self, frame: &Frame) -> Result<(), ServiceError>;

    /// Sends `wire` — whole length-prefixed frames back to back, as
    /// [`Frame::encode_into`] appends them — in order, with one `write`.
    /// What the peer receives is what one [`FrameSink::send`] per frame
    /// would have delivered.
    ///
    /// # Errors
    ///
    /// Returns an error when the peer is gone or the transport failed.
    fn send_wire(&mut self, wire: &[u8]) -> Result<(), ServiceError>;

    /// Closes the connection in both directions after a failed send, so
    /// a half-written frame is never followed by more bytes and the
    /// peer's reader (and this side's) sees the end.
    fn shutdown(&mut self);
}

/// The receiving half of a transport endpoint: the socket behind a
/// 64 KiB read buffer.
pub struct FrameSource {
    stream: BufReader<Socket>,
}

impl FrameSource {
    /// Receives the next frame's *body* (everything after the length
    /// prefix) into `buf`, replacing its contents; returns `false` on a
    /// clean peer close. The zero-copy ingest path: the caller peeks
    /// [`Frame::body_type`] and parses submit bodies in place instead of
    /// materializing a [`Frame`] per submission — `buf` is recycled
    /// across calls, so steady-state receive allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed or truncated framing and transport
    /// failures.
    pub fn recv_body(&mut self, buf: &mut Vec<u8>) -> Result<bool, ServiceError> {
        read_body(&mut self.stream, buf)
    }

    /// Whether a whole further frame is already in the read buffer, so
    /// the next [`FrameSource::recv_body`] returns it without blocking.
    /// A frame split across reads is not buffered until its last byte
    /// is in.
    pub fn has_buffered(&self) -> bool {
        let buffered = self.stream.buffer();
        buffered
            .first_chunk::<4>()
            .is_some_and(|len| buffered.len() - 4 >= u32::from_le_bytes(*len) as usize)
    }

    /// Receives the next frame; `None` means the peer closed cleanly.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed or truncated bytes and transport
    /// failures.
    pub fn recv(&mut self) -> Result<Option<Frame>, ServiceError> {
        Frame::read_from(&mut self.stream)
    }
}

/// One side of a connection: a sink to the peer and a source from it.
pub struct Endpoint {
    /// Frames written here reach the peer's source.
    pub sink: Box<dyn FrameSink>,
    /// Frames from the peer's sink arrive here.
    pub source: FrameSource,
}

/// One session's reply path, shared by its router and every shard that
/// sweeps one of its submission rings: the sink and a recycled encode
/// buffer behind one lock, so replies reach the peer in the order their
/// writers took the lock.
///
/// A send that fails — the peer is gone, or it stopped reading and a
/// write timed out — kills the sink: the transport is shut down both
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

/// Read-buffer size of a source: far above one burst of submits, so a
/// burst is one `read`, and small enough to stay cache-resident.
const BUF_BYTES: usize = 64 << 10;

/// Write timeout of every server-side socket. Shards write replies
/// straight to the sockets of the sessions they serve, so without it a
/// peer that stops reading would block its shard — and every other
/// session on that shard — once the socket buffers fill. With it, the
/// stalled write fails, the session's [`ReplySink`] dies (the socket is
/// shut down both ways), and the shard moves on: a stalled peer costs
/// its neighbours at most this long, once. Local writes to a reading
/// peer take microseconds.
const REPLY_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// The byte stream under an endpoint.
enum Socket {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Socket {
    fn try_clone(&self) -> io::Result<Socket> {
        Ok(match self {
            Socket::Tcp(s) => Socket::Tcp(s.try_clone()?),
            Socket::Unix(s) => Socket::Unix(s.try_clone()?),
        })
    }

    fn shutdown(&self) -> io::Result<()> {
        match self {
            Socket::Tcp(s) => s.shutdown(Shutdown::Both),
            Socket::Unix(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Socket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.read(buf),
            Socket::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Socket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Socket::Tcp(s) => s.write(buf),
            Socket::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct SocketSink {
    socket: Socket,
    /// Encode scratch of [`FrameSink::send`], recycled across frames.
    wire: Vec<u8>,
}

impl FrameSink for SocketSink {
    fn send(&mut self, frame: &Frame) -> Result<(), ServiceError> {
        self.wire.clear();
        frame.encode_into(&mut self.wire)?;
        Ok(self.socket.write_all(&self.wire)?)
    }

    fn send_wire(&mut self, wire: &[u8]) -> Result<(), ServiceError> {
        Ok(self.socket.write_all(wire)?)
    }

    fn shutdown(&mut self) {
        // The socket, not the handle: the source's clone sees EOF too.
        let _ = self.socket.shutdown();
    }
}

impl Endpoint {
    /// Splits `socket` into a sink (a `try_clone`, so sink and source
    /// can live on different threads) and a buffered source.
    fn over(socket: Socket) -> io::Result<Endpoint> {
        Ok(Endpoint {
            sink: Box::new(SocketSink {
                socket: socket.try_clone()?,
                wire: Vec::new(),
            }),
            source: FrameSource {
                stream: BufReader::with_capacity(BUF_BYTES, socket),
            },
        })
    }
}

/// Readies the server half of a session by giving its socket
/// [`REPLY_WRITE_TIMEOUT`]. It is the one place the timeout is set: the
/// server half of [`channel_pair`] and every socket `serve_tcp` accepts
/// come through here, and client halves never do. The option lives on
/// the socket, not the handle, so the sink's clone has it too.
pub(crate) fn server_side(ep: Endpoint) -> io::Result<Endpoint> {
    let timeout = Some(REPLY_WRITE_TIMEOUT);
    match ep.source.stream.get_ref() {
        Socket::Tcp(s) => s.set_write_timeout(timeout)?,
        Socket::Unix(s) => s.set_write_timeout(timeout)?,
    }
    Ok(ep)
}

/// Creates a connected (client, server) pair of in-process endpoints:
/// the two ends of a Unix socket pair, read and written exactly as TCP
/// endpoints are. The server half gets the reply write timeout.
///
/// # Panics
///
/// Panics if the process cannot create or clone a socket (it has run
/// out of file descriptors).
pub fn channel_pair() -> (Endpoint, Endpoint) {
    let pair = || -> io::Result<(Endpoint, Endpoint)> {
        let (client, server) = UnixStream::pair()?;
        Ok((
            Endpoint::over(Socket::Unix(client))?,
            server_side(Endpoint::over(Socket::Unix(server))?)?,
        ))
    };
    pair().expect("cannot create an in-process socket pair")
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
    Ok(Endpoint::over(Socket::Tcp(stream))?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::MAX_FRAME_LEN;
    use std::net::TcpListener;

    fn ping() -> Frame {
        Frame::SubmitRounds {
            qubit: 3,
            shot: 8,
            dets: vec![2, 4, 6],
        }
    }

    /// A connected (client, server) pair over loopback TCP, the server
    /// half readied as `serve_tcp` readies an accepted socket.
    pub(crate) fn tcp_pair() -> (Endpoint, Endpoint) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let server = tcp_endpoint(listener.accept().unwrap().0).unwrap();
        (tcp_endpoint(client).unwrap(), server_side(server).unwrap())
    }

    /// Both endpoints, in-process first, as (client, server) pairs.
    pub(crate) fn both() -> [(Endpoint, Endpoint); 2] {
        [channel_pair(), tcp_pair()]
    }

    #[test]
    fn channel_pair_delivers_frames_both_ways() {
        let (mut client, mut server) = channel_pair();
        client.sink.send(&ping()).unwrap();
        assert_eq!(server.source.recv().unwrap(), Some(ping()));
        server.sink.send(&Frame::ShutdownAck).unwrap();
        assert_eq!(client.source.recv().unwrap(), Some(Frame::ShutdownAck));
        // Dropping the client closes its socket: a clean end of stream.
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
    fn only_server_halves_get_the_reply_write_timeout() {
        let write_timeout = |ep: &Endpoint| match ep.source.stream.get_ref() {
            Socket::Tcp(s) => s.write_timeout().unwrap(),
            Socket::Unix(s) => s.write_timeout().unwrap(),
        };
        for (client, server) in both() {
            assert_eq!(write_timeout(&server), Some(REPLY_WRITE_TIMEOUT));
            assert_eq!(write_timeout(&client), None);
        }
    }

    #[test]
    fn send_wire_delivers_a_batch_frame_for_frame_on_both_transports() {
        let frames = [ping(), Frame::ShutdownAck, ping()];
        let mut wire = Vec::new();
        for f in &frames {
            f.encode_into(&mut wire).unwrap();
        }
        for (mut client, mut server) in both() {
            server.sink.send_wire(&wire).unwrap();
            for f in &frames {
                assert_eq!(client.source.recv().unwrap().as_ref(), Some(f));
            }
            // The empty batch is nothing at all.
            server.sink.send_wire(&[]).unwrap();
            drop(server);
            assert_eq!(client.source.recv().unwrap(), None);
        }
    }

    #[test]
    fn sources_report_only_whole_frames_as_buffered() {
        let mut wire = Vec::new();
        ping().encode_into(&mut wire).unwrap();
        let one = wire.len();
        ping().encode_into(&mut wire).unwrap();
        for (mut client, mut server) in both() {
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
            // A frame split across reads is not a buffered frame until
            // its last byte is in.
            client.sink.send_wire(&wire[..one + 5]).unwrap();
            assert_eq!(server.source.recv().unwrap(), Some(ping()));
            assert!(!server.source.has_buffered(), "five bytes of a frame");
            client.sink.send_wire(&wire[one + 5..]).unwrap();
            assert_eq!(server.source.recv().unwrap(), Some(ping()));
        }
    }

    #[test]
    fn a_failed_send_kills_the_reply_sink_and_closes_the_socket() {
        for (mut client, server) in both() {
            let Endpoint { sink, mut source } = server;
            let reply = ReplySink::new(sink);
            reply.send(&Frame::ShutdownAck);
            assert_eq!(client.source.recv().unwrap(), Some(Frame::ShutdownAck));
            // A frame too large to encode fails like a write: the socket
            // is shut down both ways, so the peer reads EOF, the server's
            // own source sees the end, and later replies go nowhere.
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
}
