//! Shared `net_*` series in the process-wide telemetry registry.

use mps_telemetry::{Counter, Gauge, Histogram, Registry};
use std::sync::OnceLock;

/// Per-opcode RPC latency buckets: `exponential_buckets(1e-5, 4.0, 12)`,
/// precomputed so every registration site shares one literal. 10µs
/// catches loopback no-ops; ~42s catches a hung disk with room to spare.
const RPC_SECONDS_BUCKETS: [f64; 12] = [
    1e-5, 4e-5, 1.6e-4, 6.4e-4, 2.56e-3, 1.024e-2, 4.096e-2, 0.16384, 0.65536, 2.62144, 10.48576,
    41.94304,
];

/// The per-opcode server-side service-latency histogram.
pub(crate) fn rpc_seconds(opcode: &str) -> Histogram {
    Registry::global().histogram_labeled(
        "net_server_rpc_seconds",
        &[("opcode", opcode)],
        "Server-side RPC service latency in seconds, per opcode",
        &RPC_SECONDS_BUCKETS,
    )
}

/// The per-opcode, per-status-code server-side RPC error counter.
pub(crate) fn rpc_errors(opcode: &str, code: u8) -> Counter {
    Registry::global().counter_labeled(
        "net_server_rpc_errors_total",
        &[("code", &code.to_string()), ("opcode", opcode)],
        "Server-side RPC errors, per opcode and response status code",
    )
}

/// The pooled-client connection gauge for one `state` (`idle` or
/// `in_use`); the two states sum to the pool's live connection count.
pub(crate) fn pool_connections(state: &'static str) -> Gauge {
    Registry::global().gauge_labeled(
        "net_client_pool_connections",
        &[("state", state)],
        "Pooled client connections by state (idle in the pool vs checked out)",
    )
}

/// Shared networking metric handles, under the workspace naming
/// convention `net_<side>_<metric>`.
pub(crate) struct NetTelemetry {
    /// Requests issued by pooled clients (before any retry).
    pub(crate) client_requests: Counter,
    /// Fresh connections dialled because the pool was empty or a pooled
    /// connection had gone stale.
    pub(crate) client_reconnects: Counter,
    /// Client calls that ultimately failed (after the one retry).
    pub(crate) client_errors: Counter,
    /// Wall-clock round-trip latency of client calls.
    pub(crate) client_request_ms: Histogram,
    /// Connections a server accepted and handshook.
    pub(crate) server_connections: Counter,
    /// Connections shed at the handshake because the server was at its
    /// connection ceiling — the explicit backpressure signal.
    pub(crate) server_shed: Counter,
    /// Requests a server dispatched to its service.
    pub(crate) server_requests: Counter,
    /// Requests that returned an error status to the client.
    pub(crate) server_errors: Counter,
    /// Frames rejected for checksum, magic, version or size violations.
    pub(crate) frames_corrupt: Counter,
}

/// The lazily-registered networking metric set.
pub(crate) fn telemetry() -> &'static NetTelemetry {
    static TELEMETRY: OnceLock<NetTelemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| {
        let registry = Registry::global();
        NetTelemetry {
            client_requests: registry.counter(
                "net_client_requests_total",
                "Wire requests issued by pooled clients before retries",
            ),
            client_reconnects: registry.counter(
                "net_client_reconnects_total",
                "Fresh connections dialled by pooled clients",
            ),
            client_errors: registry.counter(
                "net_client_errors_total",
                "Client wire calls that failed after retrying",
            ),
            client_request_ms: registry.histogram(
                "net_client_request_ms",
                "Round-trip latency of client wire calls in milliseconds",
                &[
                    0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                ],
            ),
            server_connections: registry.counter(
                "net_server_connections_total",
                "Connections accepted and handshook by wire servers",
            ),
            server_shed: registry.counter(
                "net_server_shed_total",
                "Connections shed at the handshake by server backpressure",
            ),
            server_requests: registry.counter(
                "net_server_requests_total",
                "Requests dispatched by wire servers to their service",
            ),
            server_errors: registry.counter(
                "net_server_errors_total",
                "Requests answered with an error status by wire servers",
            ),
            frames_corrupt: registry.counter(
                "net_frames_corrupt_total",
                "Frames rejected for checksum, magic, version or size violations",
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_follow_convention() {
        let t = telemetry();
        t.client_requests.inc();
        t.frames_corrupt.inc();
        let registry = Registry::global();
        assert!(registry
            .counter_value("net_client_requests_total")
            .is_some());
        assert!(registry.counter_value("net_frames_corrupt_total").is_some());
    }

    #[test]
    fn rpc_series_register_per_opcode_children() {
        rpc_seconds("PUBLISH_MESSAGE").observe(0.002);
        rpc_errors("PUBLISH_MESSAGE", 16).inc();
        let registry = Registry::global();
        assert!(registry.histogram_count("net_server_rpc_seconds").unwrap() >= 1);
        assert!(
            registry
                .counter_value_labeled(
                    "net_server_rpc_errors_total",
                    &[("code", "16"), ("opcode", "PUBLISH_MESSAGE")],
                )
                .unwrap()
                >= 1
        );
    }

    #[test]
    fn pool_gauge_states_share_one_series() {
        pool_connections("idle").add(2);
        pool_connections("in_use").add(1);
        let total = Registry::global()
            .gauge_value("net_client_pool_connections")
            .unwrap();
        assert!(total >= 3);
        pool_connections("idle").sub(2);
        pool_connections("in_use").sub(1);
    }
}
