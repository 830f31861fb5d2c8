//! What per-RPC telemetry costs a loopback RPC, counted rather than
//! timed: heap allocations per `publish` through a [`WireServer`] that
//! records its per-opcode histograms (the default) and through one with
//! `rpc_telemetry: false`, both ends of the socket counted. Telemetry on
//! the hot path must not allocate: a histogram is resolved once per
//! connection and opcode, and an observation is an atomic add. So the
//! two counts are equal — the per-RPC allowance is zero allocations —
//! however loaded the machine is: no clock is read (`counting`). One
//! test, so that no other test's allocations land in the counts.

mod counting;

use mps_broker::{Broker, BrokerTransport};
use mps_net::{ClientConfig, RemoteBroker, ServerConfig, WireServer};
use std::sync::Arc;

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
    let before = counting::allocations();
    for _ in 0..RPCS {
        publish();
    }
    counting::allocations() - before
}

#[test]
fn rpc_telemetry_allocates_nothing_per_rpc() {
    let backend: Arc<dyn BrokerTransport> = Arc::new(Broker::new());
    backend
        .declare_exchange("bench")
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
        // 49 a publish, both ends together: the client writes the frame
        // from the borrowed key and payload, and the server keeps the key
        // it reads.
        assert!(
            traced <= 49 * RPCS,
            "{RPCS} publishes allocated {traced} times: {counts:?}"
        );
    }
    traced.shutdown();
    untraced.shutdown();
}
