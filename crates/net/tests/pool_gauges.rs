//! The client pool's connection gauges live in the process-global
//! registry, so this test has a process to itself: beside the unit tests,
//! every other pool moved the same gauge while it was being read.

use mps_net::{ClientConfig, ClientPool, ServerConfig, ServiceError, WireServer, WireService};
use std::sync::Arc;

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
fn pool_gauges_track_idle_and_in_use() {
    let gauge = |state: &str| {
        mps_telemetry::Registry::global()
            .gauge_value_labeled("net_client_pool_connections", &[("state", state)])
            .unwrap_or(0)
    };
    let mut server =
        WireServer::bind("127.0.0.1:0", Arc::new(Upper), ServerConfig::default()).unwrap();
    let pool = ClientPool::new(server.local_addr().to_string(), ClientConfig::default());
    assert_eq!(pool.call(1, &[], b"abc").unwrap(), b"ABC");
    assert_eq!(gauge("idle"), 1, "the call's connection was parked idle");
    assert_eq!(gauge("in_use"), 0, "and is no longer counted as in use");
    drop(pool);
    assert_eq!(gauge("idle"), 0, "drop withdrew the idle connection");
    server.shutdown();
}
