//! Fleet scraping: one view over N processes.
//!
//! A deployment of this middleware is several daemons — `mps-brokerd`,
//! `mps-docstored`, drivers — each exposing the admin opcodes
//! ([`crate::admin`]) on its wire port. This module is the scraper side:
//! dial every endpoint, pull metrics / health / flight-recorder spans /
//! slow RPCs, and merge them into one fleet-wide picture:
//!
//! * [`FleetSnapshot::merged_metrics`] — every instance's Prometheus
//!   text merged under an injected `instance` label, one preamble per
//!   family (what a real Prometheus would store after federation).
//! * [`FleetSnapshot::stitched`] — the instances' flight recorders
//!   merged on [`TraceId`] (span ids remapped per instance, so a trace
//!   whose hops ran in three processes reads as one tree).
//! * [`FleetSnapshot::conservation`] — the loss ledger over stitched
//!   traces: every terminated observation is stored, dead-lettered,
//!   quarantined, or attributed to an explicit loss outcome; the books
//!   must balance.
//! * [`FleetSnapshot::render_dashboard`] — the `xtask obs` text
//!   dashboard: fleet table, cross-process latency waterfall, loss
//!   attribution, top slow RPCs, and per-instance p99 vs the declared
//!   SLO budget.
//!
//! The paper's operational lesson drives the shape: during the
//! large-scale experiment the authors could not attribute loss per node
//! until they had *one* merged view; per-process logs each looked
//! healthy while the fleet lost data in the seams between them.
//!
//! [`TraceId`]: mps_telemetry::trace::TraceId

use crate::admin::{OP_FLIGHT_DRAIN, OP_HEALTH, OP_METRICS, OP_SLOW_RPCS};
use crate::client::{ClientConfig, ClientPool};
use mps_telemetry::trace::{
    merge_instance_spans, LatencyWaterfall, LossAttribution, Outcome, SpanRecord, TraceIndex,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One scrape target: a fleet-unique name plus a dialable address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// The instance name used for the injected `instance` label.
    pub name: String,
    /// The `host:port` the daemon listens on.
    pub addr: String,
}

impl Endpoint {
    /// Parses a `name=host:port` spec (a bare `host:port` names the
    /// instance after its address).
    ///
    /// # Errors
    ///
    /// Returns a message when either side is empty or the address has
    /// no port separator.
    pub fn parse(spec: &str) -> Result<Endpoint, String> {
        let (name, addr) = match spec.split_once('=') {
            Some((name, addr)) => (name.trim(), addr.trim()),
            None => (spec.trim(), spec.trim()),
        };
        if name.is_empty() || addr.is_empty() {
            return Err(format!("bad endpoint spec {spec:?} (want name=host:port)"));
        }
        if !addr.contains(':') {
            return Err(format!("endpoint address {addr:?} has no port"));
        }
        Ok(Endpoint {
            name: name.to_string(),
            addr: addr.to_string(),
        })
    }
}

/// Everything pulled from one instance in one scrape pass.
#[derive(Debug)]
pub struct InstanceScrape {
    /// The endpoint's fleet name.
    pub name: String,
    /// The address that was dialled.
    pub addr: String,
    /// The instance's Prometheus text exposition (empty on error).
    pub metrics: String,
    /// The parsed `OP_HEALTH` report (`Null` on error).
    pub health: serde_json::Value,
    /// The instance's flight-recorder spans.
    pub spans: Vec<SpanRecord>,
    /// The parsed `OP_SLOW_RPCS` report (`Null` on error).
    pub slow: serde_json::Value,
    /// The first scrape failure, when any admin call failed.
    pub error: Option<String>,
}

impl InstanceScrape {
    /// Whether the instance reported itself ready.
    #[must_use]
    pub fn ready(&self) -> bool {
        self.health["ready"].as_bool() == Some(true)
    }
}

/// A merged view over one scrape pass of the whole fleet.
#[derive(Debug)]
pub struct FleetSnapshot {
    /// Per-instance scrapes, in endpoint order.
    pub instances: Vec<InstanceScrape>,
}

/// The fleet-wide observation ledger computed from stitched traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Conservation {
    /// Traces whose primary terminal is `ok` (stored durably).
    pub stored: u64,
    /// Traces parked in a dead-letter queue.
    pub dead_lettered: u64,
    /// Traces diverted to quarantine.
    pub quarantined: u64,
    /// Traces lost to drops, black-holes or retry-queue shedding.
    pub lost: u64,
    /// Traces with no primary terminal (still in flight, or their spans
    /// were evicted from a recorder ring).
    pub unterminated: u64,
}

impl Conservation {
    /// Traces that arrived at *some* terminal accounting.
    #[must_use]
    pub fn terminated(&self) -> u64 {
        self.stored + self.dead_lettered + self.quarantined + self.lost
    }

    /// The books balance when every trace is accounted for:
    /// `stored + dlq + quarantined + lost == terminated` by
    /// construction, so the check that matters operationally is that
    /// nothing is left unterminated.
    #[must_use]
    pub fn balanced(&self) -> bool {
        self.unterminated == 0
    }
}

impl FleetSnapshot {
    /// Scrapes every endpoint once. `drain` forwards to
    /// [`OP_FLIGHT_DRAIN`]: `true` clears each instance's recorder
    /// after export (exactly-once span collection for pipelines of
    /// scrapers), `false` peeks.
    ///
    /// A dead endpoint still appears in the snapshot — with its error —
    /// so the dashboard shows the hole instead of silently shrinking.
    #[must_use]
    pub fn scrape(endpoints: &[Endpoint], config: &ClientConfig, drain: bool) -> FleetSnapshot {
        let instances = endpoints
            .iter()
            .map(|endpoint| scrape_instance(endpoint, config, drain))
            .collect();
        FleetSnapshot { instances }
    }

    /// Every instance's metrics merged under an injected `instance`
    /// label, grouped per family with one `# HELP`/`# TYPE` preamble.
    #[must_use]
    pub fn merged_metrics(&self) -> String {
        struct Family {
            preamble: Vec<String>,
            samples: Vec<String>,
        }
        let mut families: BTreeMap<String, Family> = BTreeMap::new();
        for instance in &self.instances {
            let mut current: Option<String> = None;
            for line in instance.metrics.lines() {
                if line.is_empty() {
                    continue;
                }
                if let Some(rest) = line.strip_prefix("# ") {
                    // "# HELP <name> …" / "# TYPE <name> <kind>"
                    let mut parts = rest.splitn(3, ' ');
                    let _marker = parts.next();
                    if let Some(name) = parts.next() {
                        let family = families.entry(name.to_string()).or_insert_with(|| Family {
                            preamble: Vec::new(),
                            samples: Vec::new(),
                        });
                        if !family.preamble.iter().any(|p| p == line) {
                            family.preamble.push(line.to_string());
                        }
                        current = Some(name.to_string());
                    }
                } else if let Some(name) = &current {
                    if let Some(family) = families.get_mut(name) {
                        if let Some(sample) = inject_instance_label(line, &instance.name) {
                            family.samples.push(sample);
                        }
                    }
                }
            }
        }
        let mut out = String::new();
        for family in families.values() {
            for line in &family.preamble {
                out.push_str(line);
                out.push('\n');
            }
            for line in &family.samples {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// The instances' spans merged into one id space (see
    /// [`merge_instance_spans`]): per-instance span ids are remapped,
    /// parents follow, and every span gains an `instance` attribute.
    #[must_use]
    pub fn merged_spans(&self) -> Vec<SpanRecord> {
        merge_instance_spans(
            self.instances
                .iter()
                .map(|i| (i.name.clone(), i.spans.clone()))
                .collect(),
        )
    }

    /// Cross-process traces stitched on trace id over the merged spans.
    #[must_use]
    pub fn stitched(&self) -> TraceIndex {
        TraceIndex::from_spans(self.merged_spans())
    }

    /// The fleet-wide observation ledger over stitched traces.
    #[must_use]
    pub fn conservation(&self) -> Conservation {
        let mut ledger = Conservation::default();
        for tree in self.stitched().iter() {
            match tree.terminal().map(|span| span.outcome) {
                Some(Outcome::Ok) => ledger.stored += 1,
                Some(Outcome::DeadLettered) => ledger.dead_lettered += 1,
                Some(Outcome::Quarantined) => ledger.quarantined += 1,
                Some(_) => ledger.lost += 1,
                None => ledger.unterminated += 1,
            }
        }
        ledger
    }

    /// The fleet's slow RPCs merged across instances, slowest first.
    /// Each row is `(instance, opcode name, micros, status)`.
    #[must_use]
    pub fn slow_rpcs(&self, k: usize) -> Vec<(String, String, u64, u64)> {
        let mut rows: Vec<(String, String, u64, u64)> = Vec::new();
        for instance in &self.instances {
            if let Some(entries) = instance.slow["slow"].as_array() {
                for entry in entries {
                    rows.push((
                        instance.name.clone(),
                        entry["name"].as_str().unwrap_or("?").to_string(),
                        entry["micros"].as_u64().unwrap_or(0),
                        entry["status"].as_u64().unwrap_or(0),
                    ));
                }
            }
        }
        rows.sort_by_key(|row| std::cmp::Reverse(row.2));
        rows.truncate(k);
        rows
    }

    /// The ops dashboard `xtask obs` prints: fleet table, stitched
    /// latency waterfall, loss attribution + conservation verdict, top
    /// slow RPCs, and per-instance server p99 against `slo_p99_ms`.
    #[must_use]
    pub fn render_dashboard(&self, slo_p99_ms: f64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== fleet ==");
        let _ = writeln!(
            out,
            "{:<12} {:<9} {:<6} {:>9} {:>9} {:>9} {:>7} {:>7} {:>6}",
            "instance", "role", "ready", "uptime_ms", "rpcs", "errors", "conns", "queue", "dlq"
        );
        for i in &self.instances {
            if let Some(error) = &i.error {
                let _ = writeln!(out, "{:<12} UNREACHABLE {} ({})", i.name, i.addr, error);
                continue;
            }
            let _ = writeln!(
                out,
                "{:<12} {:<9} {:<6} {:>9} {:>9} {:>9} {:>3}/{:<3} {:>7} {:>6}",
                i.name,
                i.health["role"].as_str().unwrap_or("?"),
                if i.ready() { "yes" } else { "NO" },
                i.health["uptime_ms"].as_u64().unwrap_or(0),
                i.health["rpc"]["requests"].as_u64().unwrap_or(0),
                i.health["rpc"]["errors"].as_u64().unwrap_or(0),
                i.health["connections"]["active"].as_u64().unwrap_or(0),
                i.health["connections"]["max"].as_u64().unwrap_or(0),
                i.health["queues"]["ready_depth"].as_i64().unwrap_or(0),
                i.health["queues"]["dlq_depth"].as_i64().unwrap_or(0),
            );
        }

        let spans = self.merged_spans();
        if !spans.is_empty() {
            let _ = writeln!(out, "\n== cross-process latency waterfall ==");
            out.push_str(&LatencyWaterfall::from_spans(&spans).render());
            let _ = writeln!(out, "\n== loss attribution ==");
            out.push_str(&LossAttribution::from_spans(&spans).render());
        }
        let ledger = self.conservation();
        let _ = writeln!(
            out,
            "\n== conservation ==\nstored {} + dead-lettered {} + quarantined {} + lost {} = {} terminated; {} unterminated -> {}",
            ledger.stored,
            ledger.dead_lettered,
            ledger.quarantined,
            ledger.lost,
            ledger.terminated(),
            ledger.unterminated,
            if ledger.balanced() { "BALANCED" } else { "NOT BALANCED" },
        );

        let slow = self.slow_rpcs(10);
        if !slow.is_empty() {
            let _ = writeln!(out, "\n== top slow RPCs ==");
            let _ = writeln!(
                out,
                "{:<12} {:<24} {:>10} {:>6}",
                "instance", "opcode", "micros", "status"
            );
            for (instance, name, micros, status) in slow {
                let _ = writeln!(out, "{instance:<12} {name:<24} {micros:>10} {status:>6}");
            }
        }

        let _ = writeln!(out, "\n== SLO burn (server RPC p99 vs {slo_p99_ms} ms) ==");
        for i in &self.instances {
            match rpc_p99_seconds(&i.metrics) {
                Some(p99) => {
                    let p99_ms = p99 * 1000.0;
                    let burn = p99_ms / slo_p99_ms;
                    let _ = writeln!(
                        out,
                        "{:<12} p99 {:>10.3} ms  budget burn {:>6.2}x {}",
                        i.name,
                        p99_ms,
                        burn,
                        if burn > 1.0 { "OVER BUDGET" } else { "ok" },
                    );
                }
                None => {
                    let _ = writeln!(out, "{:<12} no RPC latency samples", i.name);
                }
            }
        }
        out
    }
}

fn scrape_instance(endpoint: &Endpoint, config: &ClientConfig, drain: bool) -> InstanceScrape {
    let pool = ClientPool::new(endpoint.addr.clone(), config.clone());
    let mut scrape = InstanceScrape {
        name: endpoint.name.clone(),
        addr: endpoint.addr.clone(),
        metrics: String::new(),
        health: serde_json::Value::Null,
        spans: Vec::new(),
        slow: serde_json::Value::Null,
        error: None,
    };
    let note = |error: String, slot: &mut Option<String>| {
        if slot.is_none() {
            *slot = Some(error);
        }
    };
    match pool.call(OP_METRICS, &[], b"") {
        Ok(body) => scrape.metrics = String::from_utf8_lossy(&body).into_owned(),
        Err(err) => note(format!("metrics: {err}"), &mut scrape.error),
    }
    match pool.call(OP_HEALTH, &[], b"") {
        Ok(body) => {
            scrape.health = serde_json::from_slice(&body).unwrap_or(serde_json::Value::Null);
        }
        Err(err) => note(format!("health: {err}"), &mut scrape.error),
    }
    match pool.call(OP_FLIGHT_DRAIN, &[], &[u8::from(drain)]) {
        Ok(body) => {
            scrape.spans = String::from_utf8_lossy(&body)
                .lines()
                .filter_map(SpanRecord::from_jsonl)
                .collect();
        }
        Err(err) => note(format!("flight-drain: {err}"), &mut scrape.error),
    }
    match pool.call(OP_SLOW_RPCS, &[], &[10]) {
        Ok(body) => {
            scrape.slow = serde_json::from_slice(&body).unwrap_or(serde_json::Value::Null);
        }
        Err(err) => note(format!("slow-rpcs: {err}"), &mut scrape.error),
    }
    scrape
}

/// Injects `instance="…"` as the first label of one Prometheus sample
/// line (`name{labels} value` or `name value`).
fn inject_instance_label(line: &str, instance: &str) -> Option<String> {
    let (series, value) = line.rsplit_once(' ')?;
    let labeled = match series.split_once('{') {
        Some((name, rest)) => format!("{name}{{instance=\"{instance}\",{rest}"),
        None => format!("{series}{{instance=\"{instance}\"}}"),
    };
    Some(format!("{labeled} {value}"))
}

/// Estimates the server-side RPC p99 in seconds from the cumulative
/// `net_server_rpc_seconds_bucket` lines of one instance's metrics
/// text, summed across opcodes. `None` without samples.
#[must_use]
pub fn rpc_p99_seconds(metrics: &str) -> Option<f64> {
    let mut buckets: BTreeMap<u64, (f64, u64)> = BTreeMap::new();
    for line in metrics.lines() {
        let Some(rest) = line.strip_prefix("net_server_rpc_seconds_bucket{") else {
            continue;
        };
        let (labels, value) = rest.rsplit_once("} ")?;
        let le = labels
            .split(',')
            .find_map(|label| label.strip_prefix("le=\""))?
            .trim_end_matches('"');
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>().ok()?
        };
        let count: u64 = value.trim().parse().ok()?;
        // Key by the bit pattern so +Inf sorts last and equal bounds
        // from different opcodes land in one cell.
        let entry = buckets.entry(bound.to_bits()).or_insert((bound, 0));
        entry.1 += count;
    }
    let total = buckets.values().map(|(_, n)| *n).max()?;
    if total == 0 {
        return None;
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        reason = "a bucket count far below 2^52, and a non-negative rank"
    )]
    let target = ((total as f64) * 0.99).ceil() as u64;
    let mut p99 = f64::INFINITY;
    for (bound, cumulative) in buckets.values() {
        if *cumulative >= target {
            p99 = *bound;
            break;
        }
    }
    Some(p99)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerConfig, ServiceError, WireServer, WireService};
    use std::sync::Arc;

    #[test]
    fn endpoint_parse_accepts_named_and_bare_forms() {
        let named = Endpoint::parse("broker-a=127.0.0.1:7401").unwrap();
        assert_eq!(named.name, "broker-a");
        assert_eq!(named.addr, "127.0.0.1:7401");
        let bare = Endpoint::parse("127.0.0.1:7402").unwrap();
        assert_eq!(bare.name, bare.addr);
        assert!(Endpoint::parse("=1.2.3.4:5").is_err());
        assert!(Endpoint::parse("x=noport").is_err());
    }

    #[test]
    fn instance_label_is_injected_first() {
        assert_eq!(
            inject_instance_label("a_total 3", "n1").unwrap(),
            "a_total{instance=\"n1\"} 3"
        );
        assert_eq!(
            inject_instance_label("a_bucket{le=\"1\"} 2", "n1").unwrap(),
            "a_bucket{instance=\"n1\",le=\"1\"} 2"
        );
    }

    #[test]
    fn p99_reads_summed_cumulative_buckets() {
        let text = "\
net_server_rpc_seconds_bucket{opcode=\"A\",le=\"0.001\"} 90
net_server_rpc_seconds_bucket{opcode=\"A\",le=\"0.01\"} 99
net_server_rpc_seconds_bucket{opcode=\"A\",le=\"+Inf\"} 100
";
        let p99 = rpc_p99_seconds(text).unwrap();
        assert!((p99 - 0.01).abs() < 1e-9, "{p99}");
        assert!(rpc_p99_seconds("").is_none());
    }

    #[derive(Debug)]
    struct Nop;

    impl WireService for Nop {
        fn handle(
            &self,
            _opcode: u8,
            _headers: &[(String, String)],
            body: &[u8],
        ) -> Result<Vec<u8>, ServiceError> {
            Ok(body.to_vec())
        }

        fn role(&self) -> &'static str {
            "nop"
        }
    }

    #[test]
    fn scrape_merges_metrics_under_instance_labels() {
        let mut a = WireServer::bind(
            "127.0.0.1:0",
            Arc::new(Nop),
            ServerConfig {
                instance: "alpha".into(),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut b = WireServer::bind(
            "127.0.0.1:0",
            Arc::new(Nop),
            ServerConfig {
                instance: "beta".into(),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let endpoints = vec![
            Endpoint {
                name: "alpha".into(),
                addr: a.local_addr().to_string(),
            },
            Endpoint {
                name: "beta".into(),
                addr: b.local_addr().to_string(),
            },
        ];
        let snapshot = FleetSnapshot::scrape(&endpoints, &ClientConfig::default(), false);
        assert_eq!(snapshot.instances.len(), 2);
        assert!(snapshot.instances.iter().all(|i| i.error.is_none()));
        assert!(snapshot.instances.iter().all(InstanceScrape::ready));
        let merged = snapshot.merged_metrics();
        assert!(merged.contains("instance=\"alpha\""), "{merged}");
        assert!(merged.contains("instance=\"beta\""));
        // One preamble per family even with two instances contributing.
        assert_eq!(
            merged
                .matches("# TYPE net_server_requests_total counter")
                .count(),
            1
        );
        let dashboard = snapshot.render_dashboard(50.0);
        assert!(dashboard.contains("alpha"), "{dashboard}");
        assert!(dashboard.contains("beta"));
        assert!(dashboard.contains("== conservation =="));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dead_endpoints_surface_their_error() {
        let endpoints = vec![Endpoint {
            name: "ghost".into(),
            addr: "127.0.0.1:1".into(),
        }];
        let config = ClientConfig {
            read_timeout: std::time::Duration::from_millis(200),
            ..ClientConfig::default()
        };
        let snapshot = FleetSnapshot::scrape(&endpoints, &config, false);
        assert!(snapshot.instances[0].error.is_some());
        let dashboard = snapshot.render_dashboard(50.0);
        assert!(dashboard.contains("UNREACHABLE"), "{dashboard}");
    }
}
