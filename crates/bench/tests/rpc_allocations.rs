//! What per-RPC telemetry costs a loopback RPC, counted rather than
//! timed: heap allocations per `publish` through a [`WireServer`] that
//! records its per-opcode histograms (the default) and through one with
//! `rpc_telemetry: false`, both ends of the socket counted. Telemetry on
//! the hot path must not allocate: a histogram is resolved once per
//! connection and opcode, and an observation is an atomic add. So the
//! two counts are equal — the per-RPC allowance is zero allocations —
//! however loaded the machine is: no clock is read.
//!
//! It lives here rather than beside the server: a `#[global_allocator]`
//! needs an `unsafe impl`, which every crate that inherits the
//! workspace's lint table forbids, and `mps-bench` is the member that
//! does not. One test, so that no other test's allocations land in the
//! counts.

use mps_broker::{Broker, BrokerTransport, ExchangeType};
use mps_net::{ClientConfig, RemoteBroker, ServerConfig, WireServer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

/// `System`, with a running count of the blocks it hands out.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call goes to `System` unchanged; only calls are counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, SeqCst);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, SeqCst);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // `layout`: the caller guarantees it.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, SeqCst);
        // SAFETY: as for `dealloc`, and the caller's guarantees for
        // `new_size` are `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// RPCs per count.
const RPCS: u64 = 200;

/// Allocations that `RPCS` publishes through `remote` make, client and
/// server together, once the connection and the series are warm.
fn allocations(remote: &RemoteBroker, payload: &[u8]) -> u64 {
    let publish = || {
        let routed = remote.publish("bench", "obs.paris.noise", payload);
        assert_eq!(routed, Ok(0), "an unbound exchange routes nowhere");
    };
    for _ in 0..RPCS {
        publish();
    }
    let before = ALLOCATIONS.load(SeqCst);
    for _ in 0..RPCS {
        publish();
    }
    ALLOCATIONS.load(SeqCst) - before
}

#[test]
fn rpc_telemetry_allocates_nothing_per_rpc() {
    let backend: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
    backend
        .declare_exchange("bench", ExchangeType::Topic)
        .expect("declare the exchange");
    let server = |rpc_telemetry| {
        let service = Arc::new(mps_net::BrokerService::new(Arc::clone(&backend)));
        let config = ServerConfig {
            rpc_telemetry,
            ..ServerConfig::default()
        };
        WireServer::bind("127.0.0.1:0", service, config).expect("bind loopback")
    };
    let (mut traced, mut untraced) = (server(true), server(false));
    let connect = |server: &WireServer| {
        RemoteBroker::connect(server.local_addr().to_string(), ClientConfig::default())
    };
    let (traced_remote, untraced_remote) = (connect(&traced), connect(&untraced));
    let payload = vec![0x5a_u8; 64];
    // Twice each, interleaved: were anything still warming up (a series,
    // a buffer) while one side counts, the two counts would differ.
    let counts: Vec<(u64, u64)> = (0..2)
        .map(|_| {
            let traced = allocations(&traced_remote, &payload);
            (traced, allocations(&untraced_remote, &payload))
        })
        .collect();
    println!("allocations per {RPCS} RPCs (traced, untraced): {counts:?}");
    for &(traced, untraced) in &counts {
        assert_eq!(
            traced, untraced,
            "{RPCS} traced RPCs allocated {traced} times, untraced {untraced}: {counts:?}"
        );
    }
    traced.shutdown();
    untraced.shutdown();
}
