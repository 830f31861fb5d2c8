//! A fault-injecting TCP proxy for the wire protocol.
//!
//! [`SocketFaultProxy`] sits between a wire client and a wire server and
//! applies an [`mps_faults::FaultPlan`] *at the frame boundary* of the
//! client→server direction — the moral equivalent of [`mps_faults`]'s
//! `FaultyLink`, moved from the simulated radio link to an actual
//! socket. Faults are always **visible**: a dropped request tears the
//! TCP stream (the peer sees a torn frame / closed connection and the
//! client's retry machinery takes over), never a silently swallowed
//! call with a fabricated success.
//!
//! Action mapping, per request frame:
//!
//! * `Deliver` — forward the frame unchanged.
//! * `Drop` — forward a truncated prefix of the frame, then sever both
//!   directions. The server counts a torn frame; the client sees a
//!   transport error.
//! * `Delay` — hold the frame back (bounded by
//!   [`SocketFaultProxy::MAX_DELAY_MS`]) and then forward it.
//! * `Duplicate` — forwarded once, like `Deliver`: a duplicated *RPC
//!   frame* would desynchronise request/response correlation, and
//!   duplicate suppression belongs to the message layer (trace
//!   machinery), not the RPC layer. The plan still counts the decision.
//!
//! Handshake (`Hello`) frames always pass — the plan decides the fate
//! of *operations*, not of connection establishment; shed/refused
//! connections are the server's backpressure domain.

use crate::frame::{decode_frame, encode_frame, Decoded, FrameType, DEFAULT_MAX_FRAME_BYTES};
use crate::rpc::RequestEnvelope;
use mps_faults::{FaultAction, FaultPlan, FaultStats};
use mps_types::SimTime;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A running proxy; stops when dropped or on [`SocketFaultProxy::stop`].
#[derive(Debug)]
pub struct SocketFaultProxy {
    addr: SocketAddr,
    plan: Arc<Mutex<FaultPlan>>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl SocketFaultProxy {
    /// Ceiling on an injected delay, so a pathological dice roll cannot
    /// outlast client timeouts.
    pub const MAX_DELAY_MS: i64 = 2_000;

    /// Starts a proxy listening on `127.0.0.1:0`, forwarding to
    /// `upstream`, deciding each request frame's fate with `plan`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the listening socket cannot be bound.
    pub fn start(upstream: SocketAddr, plan: FaultPlan) -> io::Result<SocketFaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let plan = Arc::new(Mutex::new(plan));
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let plan = Arc::clone(&plan);
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || accept_loop(&listener, upstream, &plan, &shutdown))
        };
        Ok(SocketFaultProxy {
            addr,
            plan,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should dial instead of the upstream.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The plan's conservation counters so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        match self.plan.lock() {
            Ok(plan) => plan.stats(),
            Err(poisoned) => poisoned.into_inner().stats(),
        }
    }

    /// Stops accepting and tears down forwarding threads.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SocketFaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &Arc<Mutex<FaultPlan>>,
    shutdown: &Arc<AtomicBool>,
) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the fault plan runs on the proxy's real uptime"
    )]
    let started = Instant::now();
    let workers: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let Ok(server) = TcpStream::connect(upstream) else {
                    // Upstream down: refuse by closing — exactly what the
                    // client would see without a proxy in the middle.
                    continue;
                };
                let plan = Arc::clone(plan);
                let shutdown = Arc::clone(shutdown);
                let handle = thread::spawn(move || {
                    proxy_connection(client, server, &plan, &shutdown, started)
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

fn proxy_connection(
    client: TcpStream,
    server: TcpStream,
    plan: &Arc<Mutex<FaultPlan>>,
    shutdown: &Arc<AtomicBool>,
    epoch: Instant,
) {
    let _ = client.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = server.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);

    // server→client: raw byte pump, no faults (responses tear with the
    // connection when a request is dropped; a lost-response direction
    // would make every drop ambiguous instead of attributable).
    let downstream = {
        let mut server = match server.try_clone() {
            Ok(clone) => clone,
            Err(_) => return,
        };
        let mut client = match client.try_clone() {
            Ok(clone) => clone,
            Err(_) => return,
        };
        let shutdown = Arc::clone(shutdown);
        thread::spawn(move || pump_raw(&mut server, &mut client, &shutdown))
    };

    forward_frames(client, server, plan, shutdown, epoch);
    let _ = downstream.join();
}

fn pump_raw(from: &mut TcpStream, to: &mut TcpStream, shutdown: &AtomicBool) {
    let mut chunk = [0u8; 16 * 1024];
    while !shutdown.load(Ordering::SeqCst) {
        match from.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                if to.write_all(&chunk[..n]).is_err() || to.flush().is_err() {
                    break;
                }
            }
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

fn forward_frames(
    mut client: TcpStream,
    mut server: TcpStream,
    plan: &Arc<Mutex<FaultPlan>>,
    shutdown: &Arc<AtomicBool>,
    epoch: Instant,
) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    'outer: while !shutdown.load(Ordering::SeqCst) {
        loop {
            match decode_frame(&buf, DEFAULT_MAX_FRAME_BYTES) {
                Decoded::Frame(frame, used) => {
                    buf.drain(..used);
                    let encoded = encode_frame(&frame);
                    let action = if frame.frame_type == FrameType::Request {
                        let route = RequestEnvelope::decode(&frame.payload)
                            .map(|req| format!("op{}", req.opcode))
                            .unwrap_or_else(|_| "op?".to_string());
                        let now = SimTime::from_millis(
                            epoch.elapsed().as_millis().min(i64::MAX as u128) as i64,
                        );
                        match plan.lock() {
                            Ok(mut plan) => plan.decide(&route, now),
                            Err(poisoned) => poisoned.into_inner().decide(&route, now),
                        }
                    } else {
                        FaultAction::Deliver
                    };
                    match action {
                        FaultAction::Deliver | FaultAction::Duplicate(_) => {
                            if server.write_all(&encoded).is_err() || server.flush().is_err() {
                                break 'outer;
                            }
                        }
                        FaultAction::Delay(by) => {
                            let ms = by.as_millis().clamp(0, SocketFaultProxy::MAX_DELAY_MS);
                            thread::sleep(Duration::from_millis(ms as u64));
                            if server.write_all(&encoded).is_err() || server.flush().is_err() {
                                break 'outer;
                            }
                        }
                        FaultAction::Drop(_) => {
                            // Tear the frame: half of it reaches the server,
                            // then both directions die. Loss is visible on
                            // both sides.
                            let _ = server.write_all(&encoded[..encoded.len() / 2]);
                            let _ = server.flush();
                            break 'outer;
                        }
                    }
                }
                Decoded::Invalid(_) => break 'outer,
                Decoded::End | Decoded::Torn => break,
            }
        }
        match client.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(err)
                if err.kind() == io::ErrorKind::WouldBlock
                    || err.kind() == io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    let _ = server.shutdown(Shutdown::Both);
    let _ = client.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, ClientPool};
    use crate::server::{ServerConfig, ServiceError, WireServer, WireService};
    use mps_faults::FaultSpec;

    /// The `Echo` test service ignores its opcode; the byte is still
    /// named so no raw wire constant appears at a call site (L007).
    const OP_ECHO: u8 = 1;

    #[derive(Debug)]
    struct Echo;

    impl WireService for Echo {
        fn handle(
            &self,
            _opcode: u8,
            _headers: &[(String, String)],
            body: &[u8],
        ) -> Result<Vec<u8>, ServiceError> {
            Ok(body.to_vec())
        }
    }

    fn short_timeout() -> ClientConfig {
        ClientConfig {
            read_timeout: Duration::from_secs(2),
            ..ClientConfig::default()
        }
    }

    #[test]
    fn transparent_proxy_passes_traffic() {
        let mut server =
            WireServer::bind("127.0.0.1:0", Arc::new(Echo), ServerConfig::default()).unwrap();
        let mut proxy =
            SocketFaultProxy::start(server.local_addr(), FaultPlan::new(7, FaultSpec::default()))
                .unwrap();
        let pool = ClientPool::new(proxy.local_addr().to_string(), short_timeout());
        for i in 0..10u8 {
            assert_eq!(pool.call(OP_ECHO, &[], &[i]).unwrap(), vec![i]);
        }
        assert_eq!(proxy.stats().decisions, 10);
        assert_eq!(proxy.stats().dropped, 0);
        proxy.stop();
        server.shutdown();
    }

    #[test]
    fn drops_are_visible_failures_and_recoverable_by_retry() {
        let mut server =
            WireServer::bind("127.0.0.1:0", Arc::new(Echo), ServerConfig::default()).unwrap();
        let spec = FaultSpec {
            drop_prob: 0.4,
            ..FaultSpec::default()
        };
        let mut proxy =
            SocketFaultProxy::start(server.local_addr(), FaultPlan::new(42, spec)).unwrap();
        let pool = ClientPool::new(proxy.local_addr().to_string(), short_timeout());
        let mut ok = 0usize;
        let mut failed = 0usize;
        for i in 0..30u8 {
            // The pool already retries once; with p=0.4 a double drop is
            // common enough that we retry at this level too, as any real
            // client of a lossy link would.
            let mut attempts = 0;
            loop {
                attempts += 1;
                match pool.call(OP_ECHO, &[], &[i]) {
                    Ok(reply) => {
                        assert_eq!(reply, vec![i]);
                        ok += 1;
                        break;
                    }
                    Err(_) if attempts < 8 => continue,
                    Err(_) => {
                        failed += 1;
                        break;
                    }
                }
            }
        }
        assert_eq!(failed, 0, "every call must eventually succeed");
        assert_eq!(ok, 30);
        let stats = proxy.stats();
        assert!(stats.dropped > 0, "the dice must have fired at p=0.4");
        proxy.stop();
        server.shutdown();
    }
}
