//! A threaded TCP server speaking the mps-net frame protocol.
//!
//! One [`WireServer`] owns a listening socket and serves a single
//! [`WireService`] — the broker and docstore services in
//! [`crate::broker_api`] and [`crate::docstore_api`], or anything else
//! that maps `(opcode, headers, body)` to result bytes. Each connection
//! gets its own thread and its own *bounded* receive buffer; connections
//! beyond [`ServerConfig::max_connections`] are **shed** at the
//! handshake with an explicit `HelloAck(shed)` (counted in
//! `net_server_shed_total`) rather than queued — backpressure is a
//! visible, attributable outcome, never a silent stall.
//!
//! Every server also carries the **observability plane** (see
//! [`crate::admin`]): per-RPC latency histograms and error counters
//! (`net_server_rpc_seconds{opcode=…}` /
//! `net_server_rpc_errors_total{opcode=…,code=…}`), a bounded
//! slow-request ring, and the remote admin opcodes `OP_METRICS`,
//! `OP_HEALTH`, `OP_FLIGHT_DRAIN` and `OP_SLOW_RPCS`.

use crate::admin::{
    admin_opcode_name, health_json, SlowRpcRing, ADMIN_OPCODE_MIN, OP_FLIGHT_DRAIN, OP_HEALTH,
    OP_METRICS, OP_SLOW_RPCS,
};
use crate::frame::{
    decode_frame, encode_frame, Decoded, Frame, FrameType, DEFAULT_MAX_FRAME_BYTES,
};
use crate::rpc::{RequestEnvelope, ResponseEnvelope, OP_SHUTDOWN, STATUS_BAD_REQUEST, STATUS_OK};
use crate::telemetry::{rpc_errors, rpc_seconds, telemetry};
use mps_telemetry::trace::FlightRecorder;
use mps_telemetry::{Histogram, Registry};
use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Handshake status: the connection is accepted.
pub const HELLO_OK: u8 = 0;
/// Handshake status: the server is at capacity and sheds the connection.
pub const HELLO_SHED: u8 = 1;
/// Handshake status: the client requested a protocol version the server
/// does not speak.
pub const HELLO_BAD_VERSION: u8 = 2;

/// An error a service maps to a non-zero response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Response status code (must be non-zero; the opcode table defines
    /// meanings).
    pub code: u8,
    /// Error-specific body bytes.
    pub payload: Vec<u8>,
}

impl ServiceError {
    /// Builds an error whose payload is a UTF-8 message.
    #[must_use]
    pub fn msg(code: u8, detail: &str) -> ServiceError {
        ServiceError {
            code: code.max(1),
            payload: detail.as_bytes().to_vec(),
        }
    }
}

/// A body the field decoders reject is answered [`STATUS_BAD_REQUEST`],
/// with the decoder's complaint as the text.
impl From<crate::wire::WireError> for ServiceError {
    fn from(error: crate::wire::WireError) -> ServiceError {
        ServiceError::msg(STATUS_BAD_REQUEST, &error.to_string())
    }
}

/// The request handler a [`WireServer`] dispatches to.
///
/// Implementations must be thread-safe: every connection thread calls
/// `handle` concurrently.
pub trait WireService: Send + Sync + 'static {
    /// Maps one request to result bytes or a typed error.
    ///
    /// # Errors
    ///
    /// Returns a [`ServiceError`] that the server encodes as a non-zero
    /// response status with the error's payload as the body.
    fn handle(
        &self,
        opcode: u8,
        headers: &[(String, String)],
        body: &[u8],
    ) -> Result<Vec<u8>, ServiceError>;

    /// The service's role name, reported in the `OP_HEALTH` body (e.g.
    /// `"broker"`, `"docstore"`).
    fn role(&self) -> &'static str {
        "service"
    }

    /// The mnemonic for a service opcode, used as the `opcode` label of
    /// the per-RPC telemetry series and in slow-request reports. `None`
    /// falls back to the decimal opcode.
    fn opcode_name(&self, opcode: u8) -> Option<&'static str> {
        let _ = opcode;
        None
    }
}

/// Tunables for a [`WireServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections served concurrently before the handshake sheds.
    pub max_connections: usize,
    /// Ceiling on a single frame payload (bounds each connection's
    /// receive buffer).
    pub max_frame_bytes: usize,
    /// How long a connection thread blocks on the socket before
    /// re-checking the shutdown flag.
    pub read_timeout: Duration,
    /// This process's name in the fleet, echoed by `OP_HEALTH` and used
    /// as the `instance` label when a scraper merges registries.
    pub instance: String,
    /// Record per-opcode latency histograms and error counters
    /// (`net_server_rpc_seconds` / `net_server_rpc_errors_total`).
    /// `perf_baseline`'s bare loopback server, `rpc_allocations.rs` and
    /// the server's tests switch this off, to time or count an RPC
    /// without it.
    pub rpc_telemetry: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_timeout: Duration::from_millis(200),
            instance: "mps".to_string(),
            rpc_telemetry: true,
        }
    }
}

/// Capacity of each server's slow-request ring (drop-oldest beyond this).
/// Its threshold is zero: every request is admitted, so `OP_SLOW_RPCS`
/// ranks the recent past even on a healthy server.
const SLOW_RPC_CAPACITY: usize = 256;

/// State shared by the accept loop, every connection thread, and the
/// admin plane: the live-connection count the readiness verdict is made
/// from, the start instant uptime is measured from, and the
/// slow-request ring `OP_SLOW_RPCS` drains.
struct ServerShared {
    config: ServerConfig,
    service: Arc<dyn WireService>,
    active: AtomicUsize,
    started: Instant,
    slow: SlowRpcRing,
}

impl std::fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerShared")
            .field("config", &self.config)
            .field("active", &self.active)
            .finish_non_exhaustive()
    }
}

/// A running wire server; shuts down when dropped, on [`WireServer::shutdown`],
/// or when a client sends [`OP_SHUTDOWN`].
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `service`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the socket cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<dyn WireService>,
        config: ServerConfig,
    ) -> io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        #[expect(clippy::disallowed_methods, reason = "uptime is real host time")]
        let started = Instant::now();
        let shared = Arc::new(ServerShared {
            active: AtomicUsize::new(0),
            started,
            slow: SlowRpcRing::new(SLOW_RPC_CAPACITY, Duration::ZERO),
            service,
            config,
        });
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || accept_loop(&listener, &shared, &shutdown))
        };
        Ok(WireServer {
            addr: local,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port `0`).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the server has begun shutting down.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and waits for the accept loop and all
    /// connection threads to finish.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Blocks until the server shuts down (via [`WireServer::shutdown`]
    /// from another thread, or a client's [`OP_SHUTDOWN`] request). This
    /// is what the daemon binaries call after printing their address.
    pub fn join(mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Decrements the live-connection count when a connection thread exits,
/// however it exits.
struct ConnGuard(Arc<ServerShared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>, shutdown: &Arc<AtomicBool>) {
    let workers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let slot = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
                let guard = ConnGuard(Arc::clone(shared));
                let shed = slot > shared.config.max_connections;
                let shared = Arc::clone(shared);
                let shutdown = Arc::clone(shutdown);
                let handle = thread::spawn(move || {
                    let _guard = guard;
                    serve_connection(stream, shed, &shared, &shutdown);
                });
                if let Ok(mut workers) = workers.lock() {
                    workers.retain(|w| !w.is_finished());
                    workers.push(handle);
                }
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
    let drained = match workers.lock() {
        Ok(mut workers) => workers.drain(..).collect::<Vec<_>>(),
        Err(poisoned) => poisoned.into_inner().drain(..).collect(),
    };
    for worker in drained {
        let _ = worker.join();
    }
}

fn serve_connection(
    mut stream: TcpStream,
    shed: bool,
    shared: &ServerShared,
    shutdown: &AtomicBool,
) {
    let counters = telemetry();
    // Per-connection handle cache: the hot path pays the registry's
    // name+label lookup once per (connection, opcode), not per request.
    let mut seconds_cache: [Option<Histogram>; 256] = std::array::from_fn(|_| None);
    let config = &shared.config;
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_nodelay(true);

    // ---- handshake: Hello -> HelloAck(ok | shed | bad-version)
    let mut buf: Vec<u8> = Vec::new();
    let hello = match read_one_frame(&mut stream, &mut buf, config, shutdown) {
        Some(frame) if frame.frame_type == FrameType::Hello => frame,
        _ => return,
    };
    let requested = hello.payload.first().copied().unwrap_or(0);
    let status = if shed {
        counters.server_shed.inc();
        HELLO_SHED
    } else if requested != crate::frame::PROTOCOL_VERSION {
        HELLO_BAD_VERSION
    } else {
        counters.server_connections.inc();
        HELLO_OK
    };
    let ack = Frame::new(
        FrameType::HelloAck,
        vec![status, crate::frame::PROTOCOL_VERSION],
    );
    if stream.write_all(&encode_frame(&ack)).is_err() || stream.flush().is_err() {
        return;
    }
    if status != HELLO_OK {
        return;
    }

    // ---- request loop
    while !shutdown.load(Ordering::SeqCst) {
        let Some(frame) = read_one_frame(&mut stream, &mut buf, config, shutdown) else {
            return;
        };
        if frame.frame_type != FrameType::Request {
            return;
        }
        let response = match RequestEnvelope::decode(&frame.payload) {
            Ok(request) => {
                counters.server_requests.inc();
                #[expect(clippy::disallowed_methods, reason = "RPC latency is real host time")]
                let started = Instant::now();
                let label = opcode_label(&*shared.service, request.opcode);
                if request.opcode == OP_SHUTDOWN {
                    let response = ResponseEnvelope::ok(request.correlation, Vec::new());
                    finish_rpc(
                        shared,
                        &mut seconds_cache,
                        request.opcode,
                        &label,
                        started.elapsed(),
                        STATUS_OK,
                    );
                    write_response(&mut stream, &response);
                    shutdown.store(true, Ordering::SeqCst);
                    return;
                }
                let result = if request.opcode >= ADMIN_OPCODE_MIN {
                    handle_admin(shared, request.opcode, &request.body)
                } else {
                    shared
                        .service
                        .handle(request.opcode, &request.headers, &request.body)
                };
                let (response, status) = match result {
                    Ok(body) => (ResponseEnvelope::ok(request.correlation, body), STATUS_OK),
                    Err(err) => {
                        counters.server_errors.inc();
                        let code = err.code;
                        (
                            ResponseEnvelope::error(request.correlation, err.code, err.payload),
                            code,
                        )
                    }
                };
                finish_rpc(
                    shared,
                    &mut seconds_cache,
                    request.opcode,
                    &label,
                    started.elapsed(),
                    status,
                );
                response
            }
            Err(err) => {
                counters.server_errors.inc();
                if config.rpc_telemetry {
                    rpc_errors("invalid", STATUS_BAD_REQUEST).inc();
                }
                ResponseEnvelope::error(0, STATUS_BAD_REQUEST, err.to_string().into_bytes())
            }
        };
        if !write_response(&mut stream, &response) {
            return;
        }
    }
}

/// The `opcode` label for the per-RPC series: the admin mnemonic, the
/// service's mnemonic, or the decimal opcode.
fn opcode_label(service: &dyn WireService, opcode: u8) -> Cow<'static, str> {
    if let Some(name) = admin_opcode_name(opcode) {
        return Cow::Borrowed(name);
    }
    match service.opcode_name(opcode) {
        Some(name) => Cow::Borrowed(name),
        None => Cow::Owned(opcode.to_string()),
    }
}

/// Completes one request's telemetry: latency histogram, error counter
/// (non-OK statuses only), and the slow-request ring.
fn finish_rpc(
    shared: &ServerShared,
    seconds_cache: &mut [Option<Histogram>; 256],
    opcode: u8,
    label: &str,
    elapsed: Duration,
    status: u8,
) {
    if shared.config.rpc_telemetry {
        seconds_cache[opcode as usize]
            .get_or_insert_with(|| rpc_seconds(label))
            .observe(elapsed.as_secs_f64());
        if status != STATUS_OK {
            rpc_errors(label, status).inc();
        }
    }
    shared.slow.observe(opcode, label, elapsed, status);
}

/// Serves one admin-band request (see [`crate::admin`]).
fn handle_admin(shared: &ServerShared, opcode: u8, body: &[u8]) -> Result<Vec<u8>, ServiceError> {
    match opcode {
        OP_METRICS => Ok(Registry::global().render_text().into_bytes()),
        OP_HEALTH => {
            let active = shared.active.load(Ordering::SeqCst);
            let ready = active < shared.config.max_connections;
            Ok(health_json(
                &shared.config.instance,
                shared.service.role(),
                ready,
                active,
                shared.config.max_connections,
                shared.started.elapsed(),
            )
            .into_bytes())
        }
        OP_FLIGHT_DRAIN => {
            let recorder = FlightRecorder::global();
            let jsonl = recorder.export_jsonl();
            if body.first() == Some(&1) {
                recorder.clear();
            }
            Ok(jsonl.into_bytes())
        }
        OP_SLOW_RPCS => {
            let k = match body.first().copied() {
                None | Some(0) => 10,
                Some(k) => k as usize,
            };
            Ok(shared.slow.to_json(k).into_bytes())
        }
        other => Err(ServiceError::msg(
            STATUS_BAD_REQUEST,
            &format!("unknown admin opcode {other}"),
        )),
    }
}

fn write_response(stream: &mut TcpStream, response: &ResponseEnvelope) -> bool {
    let frame = Frame::new(FrameType::Response, response.encode());
    stream.write_all(&encode_frame(&frame)).is_ok() && stream.flush().is_ok()
}

/// Reads one complete frame through the connection's bounded buffer.
/// Returns `None` on clean close, torn/corrupt input (counted), socket
/// error, or shutdown.
fn read_one_frame(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    config: &ServerConfig,
    shutdown: &AtomicBool,
) -> Option<Frame> {
    let shared = telemetry();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match decode_frame(buf, config.max_frame_bytes) {
            Decoded::Frame(frame, used) => {
                buf.drain(..used);
                return Some(frame);
            }
            Decoded::Invalid(_) => {
                shared.frames_corrupt.inc();
                return None;
            }
            Decoded::End | Decoded::Torn => {}
        }
        if shutdown.load(Ordering::SeqCst) {
            return None;
        }
        // The buffer is bounded by max_frame_bytes plus one read chunk:
        // decode_frame rejects oversized declared lengths before we ever
        // accumulate them.
        match stream.read(&mut chunk) {
            Ok(0) => {
                if !buf.is_empty() {
                    // The peer vanished mid-frame: a torn frame, counted
                    // exactly like a torn WAL tail.
                    shared.frames_corrupt.inc();
                }
                return None;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, WireConn};

    #[derive(Debug)]
    struct Echo;

    impl WireService for Echo {
        fn handle(
            &self,
            opcode: u8,
            headers: &[(String, String)],
            body: &[u8],
        ) -> Result<Vec<u8>, ServiceError> {
            if opcode == 9 {
                return Err(ServiceError::msg(42, "boom"));
            }
            let mut out = body.to_vec();
            out.push(headers.len() as u8);
            Ok(out)
        }

        fn role(&self) -> &'static str {
            "echo"
        }

        fn opcode_name(&self, opcode: u8) -> Option<&'static str> {
            (opcode == 3).then_some("ECHO")
        }
    }

    fn start(config: ServerConfig) -> WireServer {
        WireServer::bind("127.0.0.1:0", Arc::new(Echo), config).unwrap()
    }

    #[test]
    fn echo_round_trip_over_tcp() {
        let mut server = start(ServerConfig::default());
        let mut conn = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
        let reply = conn
            .call(3, &[("x-k".into(), "v".into())], b"ping")
            .unwrap();
        assert_eq!(reply, b"ping\x01");
        server.shutdown();
    }

    #[test]
    fn service_errors_carry_code_and_payload() {
        let mut server = start(ServerConfig::default());
        let mut conn = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
        let err = conn.call(9, &[], b"").unwrap_err();
        match err {
            crate::client::NetError::Remote { code, payload } => {
                assert_eq!(code, 42);
                assert_eq!(payload, b"boom");
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn connections_beyond_capacity_are_shed() {
        let mut server = start(ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        });
        let shed_before = mps_telemetry::Registry::global()
            .counter_value("net_server_shed_total")
            .unwrap_or(0);
        let _held = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
        let second = WireConn::connect(server.local_addr(), &ClientConfig::default());
        assert!(matches!(second, Err(crate::client::NetError::Shed)));
        let shed_after = mps_telemetry::Registry::global()
            .counter_value("net_server_shed_total")
            .unwrap_or(0);
        assert!(shed_after > shed_before, "shed must be counted");
        server.shutdown();
    }

    #[test]
    fn shutdown_opcode_stops_the_server() {
        let server = start(ServerConfig::default());
        let addr = server.local_addr();
        let mut conn = WireConn::connect(addr, &ClientConfig::default()).unwrap();
        conn.call(OP_SHUTDOWN, &[], b"").unwrap();
        // join returns promptly because the shutdown flag is set.
        server.join();
        assert!(WireConn::connect(addr, &ClientConfig::default()).is_err());
    }

    #[test]
    fn metrics_opcode_returns_prometheus_text() {
        let mut server = start(ServerConfig::default());
        let mut conn = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
        conn.call(3, &[], b"warm").unwrap();
        let body = conn.call(OP_METRICS, &[], b"").unwrap();
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("# TYPE net_server_requests_total counter"));
        assert!(text.contains("net_server_rpc_seconds_bucket{"), "{text}");
        assert!(text.contains("le=\"+Inf\""), "{text}");
        server.shutdown();
    }

    #[test]
    fn health_opcode_reports_identity_and_readiness() {
        let mut server = start(ServerConfig {
            instance: "probe-1".to_string(),
            ..ServerConfig::default()
        });
        let mut conn = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
        let body = conn.call(OP_HEALTH, &[], b"").unwrap();
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"instance\":\"probe-1\""), "{text}");
        assert!(text.contains("\"role\":\"echo\""), "{text}");
        assert!(text.contains("\"ready\":true"), "{text}");
        server.shutdown();
    }

    #[test]
    fn slow_rpcs_opcode_ranks_the_retained_window() {
        let mut server = start(ServerConfig::default());
        let mut conn = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
        conn.call(3, &[], b"one").unwrap();
        let _ = conn.call(9, &[], b"");
        let body = conn.call(OP_SLOW_RPCS, &[], &[5]).unwrap();
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"slow\":[{"), "{text}");
        assert!(text.contains("\"name\":\"ECHO\""), "named opcode: {text}");
        assert!(text.contains("\"name\":\"9\""), "decimal fallback: {text}");
        assert!(text.contains("\"status\":42"), "error status kept: {text}");
        server.shutdown();
    }

    #[test]
    fn flight_drain_opcode_exports_and_optionally_clears() {
        use mps_telemetry::trace::{Hop, SpanRecord, TraceId};
        let mut server = start(ServerConfig::default());
        let mut conn = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
        let trace = TraceId::from_raw(0xfeed_beef_0042);
        FlightRecorder::global().record(SpanRecord::new(trace, Hop::Sensed, 7));
        // Peek (empty body) keeps the ring intact …
        let peek = String::from_utf8(conn.call(OP_FLIGHT_DRAIN, &[], b"").unwrap()).unwrap();
        assert!(peek.contains(&format!("{trace}")), "{peek}");
        // … drain (body = [1]) returns the spans and clears the ring.
        let drain = String::from_utf8(conn.call(OP_FLIGHT_DRAIN, &[], &[1]).unwrap()).unwrap();
        assert!(drain.contains(&format!("{trace}")));
        let after = String::from_utf8(conn.call(OP_FLIGHT_DRAIN, &[], b"").unwrap()).unwrap();
        assert!(!after.contains(&format!("{trace}")), "{after}");
        server.shutdown();
    }

    #[test]
    fn per_rpc_series_record_latency_and_errors() {
        let registry = mps_telemetry::Registry::global();
        let hist_before = registry
            .histogram_count("net_server_rpc_seconds")
            .unwrap_or(0);
        let err_before = registry
            .counter_value_labeled(
                "net_server_rpc_errors_total",
                &[("code", "42"), ("opcode", "9")],
            )
            .unwrap_or(0);
        let mut server = start(ServerConfig::default());
        let mut conn = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
        conn.call(3, &[], b"tick").unwrap();
        let _ = conn.call(9, &[], b"");
        let hist_after = registry.histogram_count("net_server_rpc_seconds").unwrap();
        let err_after = registry
            .counter_value_labeled(
                "net_server_rpc_errors_total",
                &[("code", "42"), ("opcode", "9")],
            )
            .unwrap();
        assert!(hist_after >= hist_before + 2, "both RPCs timed");
        assert!(err_after > err_before, "error counted under opcode+code");
        server.shutdown();
    }

    #[derive(Debug)]
    struct Quiet;

    impl WireService for Quiet {
        fn handle(
            &self,
            _opcode: u8,
            _headers: &[(String, String)],
            body: &[u8],
        ) -> Result<Vec<u8>, ServiceError> {
            Ok(body.to_vec())
        }

        fn opcode_name(&self, opcode: u8) -> Option<&'static str> {
            (opcode == 7).then_some("QUIETECHO")
        }
    }

    #[test]
    fn rpc_telemetry_can_be_disabled() {
        let mut server = WireServer::bind(
            "127.0.0.1:0",
            Arc::new(Quiet),
            ServerConfig {
                rpc_telemetry: false,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut conn = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
        conn.call(7, &[], b"quiet").unwrap();
        // The QUIETECHO label is unique to this test, so its absence from
        // the registry proves the quiet path registered nothing.
        let text = mps_telemetry::Registry::global().render_text();
        assert!(!text.contains("QUIETECHO"), "no per-RPC series registered");
        // The slow ring still works: it feeds OP_SLOW_RPCS, not the registry.
        let body = conn.call(OP_SLOW_RPCS, &[], b"").unwrap();
        assert!(String::from_utf8(body)
            .unwrap()
            .contains("\"name\":\"QUIETECHO\""));
        server.shutdown();
    }

    #[test]
    fn garbage_bytes_drop_the_connection_without_killing_the_server() {
        let mut server = start(ServerConfig::default());
        {
            let mut raw = TcpStream::connect(server.local_addr()).unwrap();
            raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            let mut sink = Vec::new();
            let _ = raw.read_to_end(&mut sink);
        }
        let mut conn = WireConn::connect(server.local_addr(), &ClientConfig::default()).unwrap();
        assert_eq!(conn.call(1, &[], b"ok").unwrap(), b"ok\x00");
        server.shutdown();
    }
}
