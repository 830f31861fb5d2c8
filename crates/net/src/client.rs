//! Pooled wire-protocol clients.
//!
//! [`WireConn`] is one handshook TCP connection; [`ClientPool`] keeps a
//! small stack of idle connections, dials on demand, and retries a
//! failed call once on a fresh connection. Retrying gives the remote
//! path *at-least-once* semantics — exactly the delivery contract the
//! rest of the pipeline already assumes, with duplicate suppression
//! living downstream in the trace machinery rather than in the
//! transport.

use crate::frame::{decode_frame, encode_frame, Decoded, Frame, FrameError, FrameType};
use crate::rpc::{RequestEnvelope, ResponseEnvelope, STATUS_OK};
use crate::server::{HELLO_BAD_VERSION, HELLO_OK, HELLO_SHED};
use crate::telemetry::{pool_connections, telemetry};
use crate::wire::WireError;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Errors surfaced by wire clients.
#[derive(Debug)]
pub enum NetError {
    /// The socket failed (connect, read or write).
    Io(io::Error),
    /// A frame failed its header or checksum validation.
    Frame(FrameError),
    /// A verified payload could not be field-decoded.
    Wire(WireError),
    /// The server shed this connection at the handshake (backpressure).
    Shed,
    /// The handshake failed for a protocol reason (bad version, or the
    /// peer is not an mps-net server).
    Handshake(String),
    /// The server answered with a non-zero status; the opcode table
    /// defines what `code` and `payload` mean.
    Remote {
        /// The response status byte.
        code: u8,
        /// The error-specific body bytes.
        payload: Vec<u8>,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(err) => write!(f, "socket error: {err}"),
            NetError::Frame(err) => write!(f, "frame error: {err}"),
            NetError::Wire(err) => write!(f, "payload error: {err}"),
            NetError::Shed => write!(f, "server shed the connection (backpressure)"),
            NetError::Handshake(msg) => write!(f, "handshake failed: {msg}"),
            NetError::Remote { code, payload } => write!(
                f,
                "remote error {code}: {}",
                String::from_utf8_lossy(payload)
            ),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(err) => Some(err),
            NetError::Frame(err) => Some(err),
            NetError::Wire(err) => Some(err),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(err: io::Error) -> Self {
        NetError::Io(err)
    }
}

impl From<FrameError> for NetError {
    fn from(err: FrameError) -> Self {
        NetError::Frame(err)
    }
}

impl From<WireError> for NetError {
    fn from(err: WireError) -> Self {
        NetError::Wire(err)
    }
}

impl NetError {
    /// Whether retrying on a fresh connection could help: true for
    /// transport-level failures, false for remote/service errors (the
    /// server answered — asking again with the same arguments would just
    /// repeat the answer).
    #[must_use]
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            NetError::Io(_) | NetError::Frame(_) | NetError::Wire(_) | NetError::Handshake(_)
        )
    }
}

/// Tunables for client connections.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Ceiling on a received frame payload.
    pub max_frame_bytes: usize,
    /// How long a call waits for bytes of the response before failing.
    pub read_timeout: Duration,
    /// Idle connections the pool keeps for reuse.
    pub max_idle: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_frame_bytes: crate::frame::DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Duration::from_secs(10),
            max_idle: 4,
        }
    }
}

/// One handshook connection to a wire server.
#[derive(Debug)]
pub struct WireConn {
    stream: TcpStream,
    buf: Vec<u8>,
    next_correlation: u64,
    max_frame_bytes: usize,
    deadline: Duration,
}

impl WireConn {
    /// Dials `addr` and performs the Hello/HelloAck handshake.
    ///
    /// # Errors
    ///
    /// * [`NetError::Io`] — the dial failed.
    /// * [`NetError::Shed`] — the server is at capacity.
    /// * [`NetError::Handshake`] — the peer rejected the version or is
    ///   not speaking this protocol.
    pub fn connect(addr: impl ToSocketAddrs, config: &ClientConfig) -> Result<WireConn, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(config.read_timeout))?;
        stream.set_nodelay(true)?;
        let mut conn = WireConn {
            stream,
            buf: Vec::new(),
            next_correlation: 1,
            max_frame_bytes: config.max_frame_bytes,
            deadline: config.read_timeout,
        };
        conn.send_frame(&Frame::new(
            FrameType::Hello,
            vec![crate::frame::PROTOCOL_VERSION],
        ))?;
        let ack = conn.recv_frame()?;
        if ack.frame_type != FrameType::HelloAck {
            return Err(NetError::Handshake("expected HelloAck".into()));
        }
        match ack.payload.first().copied() {
            Some(HELLO_OK) => Ok(conn),
            Some(HELLO_SHED) => Err(NetError::Shed),
            Some(HELLO_BAD_VERSION) => Err(NetError::Handshake(format!(
                "server speaks protocol version {:?}, this build speaks {}",
                ack.payload.get(1),
                crate::frame::PROTOCOL_VERSION
            ))),
            other => Err(NetError::Handshake(format!(
                "unknown handshake status {other:?}"
            ))),
        }
    }

    /// Performs one request/response exchange.
    ///
    /// # Errors
    ///
    /// Transport failures ([`NetError::Io`] / [`NetError::Frame`] /
    /// [`NetError::Wire`]) leave the connection unusable; a
    /// [`NetError::Remote`] means the server answered with an error and
    /// the connection stays good.
    pub fn call(
        &mut self,
        opcode: u8,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        let correlation = self.next_correlation;
        self.next_correlation = self.next_correlation.wrapping_add(1);
        let request = RequestEnvelope {
            correlation,
            opcode,
            headers: headers.to_vec(),
            body: body.to_vec(),
        };
        self.send_frame(&Frame::new(FrameType::Request, request.encode()))?;
        let frame = self.recv_frame()?;
        if frame.frame_type != FrameType::Response {
            return Err(NetError::Handshake("expected a Response frame".into()));
        }
        let response = ResponseEnvelope::decode(&frame.payload)?;
        if response.correlation != correlation {
            return Err(NetError::Handshake(format!(
                "correlation mismatch: sent {correlation}, got {}",
                response.correlation
            )));
        }
        if response.status == STATUS_OK {
            Ok(response.body)
        } else {
            Err(NetError::Remote {
                code: response.status,
                payload: response.body,
            })
        }
    }

    fn send_frame(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.stream.write_all(&encode_frame(frame))?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv_frame(&mut self) -> Result<Frame, NetError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "a socket deadline is real host time"
        )]
        let started = Instant::now();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match decode_frame(&self.buf, self.max_frame_bytes) {
                Decoded::Frame(frame, used) => {
                    self.buf.drain(..used);
                    return Ok(frame);
                }
                Decoded::Invalid(err) => {
                    telemetry().frames_corrupt.inc();
                    return Err(NetError::Frame(err));
                }
                Decoded::End | Decoded::Torn => {}
            }
            if started.elapsed() > self.deadline {
                return Err(NetError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "timed out waiting for a response frame",
                )));
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    if !self.buf.is_empty() {
                        telemetry().frames_corrupt.inc();
                        return Err(NetError::Frame(FrameError::Torn));
                    }
                    return Err(NetError::Io(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "server closed the connection",
                    )));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(err)
                    if err.kind() == io::ErrorKind::WouldBlock
                        || err.kind() == io::ErrorKind::TimedOut => {}
                Err(err) => return Err(NetError::Io(err)),
            }
        }
    }
}

/// A bounded LIFO stack of idle resources behind one mutex.
///
/// This is the concurrency kernel of [`ClientPool`], factored out so
/// the loom model in `tests/loom.rs` can exhaustively check the
/// checkout/return interleavings with a cheap payload (`u32`) instead
/// of a live socket. Its `Mutex` comes from `crate::sync`, so a
/// `RUSTFLAGS="--cfg loom"` build swaps in the modelled version.
///
/// Invariants the model asserts: the stack never holds more than
/// `max_idle` items, a popped item is owned by exactly one thread, and
/// no item is lost unless `push` reported `false`.
pub struct IdleStack<T> {
    max_idle: usize,
    idle: crate::sync::Mutex<Vec<T>>,
}

impl<T> IdleStack<T> {
    /// An empty stack parking at most `max_idle` items.
    #[must_use]
    pub fn new(max_idle: usize) -> IdleStack<T> {
        IdleStack {
            max_idle,
            idle: crate::sync::Mutex::new(Vec::new()),
        }
    }

    /// Takes the most recently parked item, if any.
    pub fn pop(&self) -> Option<T> {
        self.idle.lock().ok().and_then(|mut idle| idle.pop())
    }

    /// Parks `item` unless the stack is full (or its lock is poisoned);
    /// returns whether the item was retained.
    pub fn push(&self, item: T) -> bool {
        if let Ok(mut idle) = self.idle.lock() {
            if idle.len() < self.max_idle {
                idle.push(item);
                return true;
            }
        }
        false
    }

    /// How many items are currently parked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.idle.lock().map(|idle| idle.len()).unwrap_or(0)
    }

    /// Whether no items are parked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> fmt::Debug for IdleStack<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdleStack")
            .field("max_idle", &self.max_idle)
            .field("len", &self.len())
            .finish()
    }
}

/// A thread-safe pool of [`WireConn`]s to one server address.
///
/// `call` borrows an idle connection (dialling if none is free), retries
/// exactly once on a fresh connection after a transport failure, and
/// returns the connection to the pool on success.
pub struct ClientPool {
    addr: String,
    config: ClientConfig,
    idle: IdleStack<WireConn>,
}

impl fmt::Debug for ClientPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientPool")
            .field("addr", &self.addr)
            .field("idle", &self.idle.len())
            .finish()
    }
}

impl ClientPool {
    /// Creates a pool dialling `addr` (e.g. `"127.0.0.1:7401"`) lazily.
    #[must_use]
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> ClientPool {
        let max_idle = config.max_idle;
        ClientPool {
            addr: addr.into(),
            config,
            idle: IdleStack::new(max_idle),
        }
    }

    /// The server address this pool dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn checkout(&self) -> Result<WireConn, NetError> {
        if let Some(conn) = self.idle.pop() {
            pool_connections("idle").sub(1);
            pool_connections("in_use").add(1);
            return Ok(conn);
        }
        telemetry().client_reconnects.inc();
        let conn = WireConn::connect(&*self.addr, &self.config)?;
        pool_connections("in_use").add(1);
        Ok(conn)
    }

    fn checkin(&self, conn: WireConn) {
        pool_connections("in_use").sub(1);
        if self.idle.push(conn) {
            pool_connections("idle").add(1);
        }
    }

    /// Performs one request/response exchange, retrying once on a fresh
    /// connection after a transport failure.
    ///
    /// # Errors
    ///
    /// Returns the final [`NetError`] if both attempts fail, or the
    /// server's [`NetError::Remote`] verbatim (remote errors are
    /// answers, not transport failures — they are never retried).
    pub fn call(
        &self,
        opcode: u8,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        let shared = telemetry();
        shared.client_requests.inc();
        #[expect(clippy::disallowed_methods, reason = "RPC latency is real host time")]
        let started = Instant::now();
        let result = self.call_once(opcode, headers, body).or_else(|err| {
            if err.is_transport() {
                // The pooled connection may simply have gone stale; one
                // fresh dial distinguishes "server gone" from "idle
                // connection died".
                shared.client_reconnects.inc();
                let mut conn = WireConn::connect(&*self.addr, &self.config)?;
                pool_connections("in_use").add(1);
                match conn.call(opcode, headers, body) {
                    Ok(reply) => {
                        self.checkin(conn);
                        Ok(reply)
                    }
                    Err(err) => {
                        // The retry connection dies with its error.
                        pool_connections("in_use").sub(1);
                        Err(err)
                    }
                }
            } else {
                Err(err)
            }
        });
        let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
        shared.client_request_ms.observe(elapsed_ms);
        if let Err(err) = &result {
            if err.is_transport() {
                shared.client_errors.inc();
            }
        }
        result
    }

    fn call_once(
        &self,
        opcode: u8,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        let mut conn = self.checkout()?;
        match conn.call(opcode, headers, body) {
            Ok(reply) => {
                self.checkin(conn);
                Ok(reply)
            }
            Err(err @ NetError::Remote { .. }) => {
                // The server answered; the connection is still healthy.
                self.checkin(conn);
                Err(err)
            }
            Err(err) => {
                // The transport died; the checked-out connection is
                // dropped here, so it leaves the in_use gauge.
                pool_connections("in_use").sub(1);
                Err(err)
            }
        }
    }
}

impl Drop for ClientPool {
    fn drop(&mut self) {
        pool_connections("idle").sub(self.idle.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerConfig, ServiceError, WireServer, WireService};
    use std::sync::Arc;

    /// The `Upper` test service ignores its opcode, but the byte on the
    /// wire is still named (L007): raw opcode literals live only in the
    /// declaring api modules.
    const OP_UPPER: u8 = 1;

    #[derive(Debug)]
    struct Upper;

    impl WireService for Upper {
        fn handle(
            &self,
            _opcode: u8,
            _headers: &[(String, String)],
            body: &[u8],
        ) -> Result<Vec<u8>, ServiceError> {
            Ok(body.to_ascii_uppercase())
        }
    }

    #[test]
    fn pool_reuses_connections() {
        let mut server =
            WireServer::bind("127.0.0.1:0", Arc::new(Upper), ServerConfig::default()).unwrap();
        let pool = ClientPool::new(server.local_addr().to_string(), ClientConfig::default());
        for _ in 0..5 {
            assert_eq!(pool.call(OP_UPPER, &[], b"abc").unwrap(), b"ABC");
        }
        assert_eq!(
            pool.idle.len(),
            1,
            "sequential calls share one pooled connection"
        );
        server.shutdown();
    }

    #[test]
    fn pool_retries_once_on_stale_connection() {
        let mut first =
            WireServer::bind("127.0.0.1:0", Arc::new(Upper), ServerConfig::default()).unwrap();
        let addr = first.local_addr();
        let pool = ClientPool::new(addr.to_string(), ClientConfig::default());
        assert_eq!(pool.call(OP_UPPER, &[], b"x").unwrap(), b"X");
        // Kill the server; the pooled connection is now stale.
        first.shutdown();
        let second = WireServer::bind(addr, Arc::new(Upper), ServerConfig::default());
        match second {
            Ok(mut second) => {
                assert_eq!(pool.call(OP_UPPER, &[], b"y").unwrap(), b"Y");
                second.shutdown();
            }
            // The OS may refuse an immediate rebind of the same port;
            // the stale connection must then surface as a transport
            // error rather than hanging.
            Err(_) => assert!(pool.call(OP_UPPER, &[], b"y").unwrap_err().is_transport()),
        }
    }

    #[test]
    fn connect_to_closed_port_is_io_error() {
        let server =
            WireServer::bind("127.0.0.1:0", Arc::new(Upper), ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        drop(server);
        let err = WireConn::connect(addr, &ClientConfig::default()).unwrap_err();
        assert!(matches!(err, NetError::Io(_)));
    }

    /// Real threads hammering the checkout/return path — the ThreadSanitizer
    /// counterpart to the bounded loom model in `tests/loom.rs` (the CI
    /// tsan job selects tests matching `concurrent`).
    #[test]
    fn idle_stack_concurrent_checkout_return_respects_capacity() {
        let stack: Arc<IdleStack<u32>> = Arc::new(IdleStack::new(2));
        let handles: Vec<_> = (0..4u32)
            .map(|tid| {
                let stack = Arc::clone(&stack);
                std::thread::spawn(move || {
                    let mut parked = 0u32;
                    for i in 0..100 {
                        if let Some(conn) = stack.pop() {
                            // "Use" the borrowed connection, then return it.
                            std::hint::black_box(conn);
                            if stack.push(conn) {
                                parked += 1;
                            }
                        } else if stack.push(tid * 1000 + i) {
                            parked += 1;
                        }
                    }
                    parked
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(stack.len() <= 2, "capacity bound holds under contention");
    }

    #[test]
    fn pool_concurrent_calls_share_the_idle_stack() {
        let mut server =
            WireServer::bind("127.0.0.1:0", Arc::new(Upper), ServerConfig::default()).unwrap();
        let pool = Arc::new(ClientPool::new(
            server.local_addr().to_string(),
            ClientConfig::default(),
        ));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..8 {
                        assert_eq!(pool.call(OP_UPPER, &[], b"abc").unwrap(), b"ABC");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            pool.idle.len() <= ClientConfig::default().max_idle,
            "the pool never parks beyond max_idle"
        );
        server.shutdown();
    }
}
