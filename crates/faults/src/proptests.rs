//! In-crate property tests: trace propagation conserves identity under
//! arbitrary fault plans. Seeded loops over [`SimRng`], so they run
//! wherever the unit tests do.

use crate::{FaultPlan, FaultSpec, FaultyLink, Link, LinkError, SendTrace};
use mps_simcore::check::check;
use mps_simcore::SimRng;
use mps_telemetry::trace::{
    FlightRecorder, Hop, Outcome, SpanRecord, TraceContext, TraceId, TraceIndex,
};
use mps_types::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique device ids across cases so each case's traces stay disjoint in
/// the shared global recorder.
static DEVICE: AtomicU64 = AtomicU64::new(7_000_000);

/// The far side of the link: "stores" every arriving copy, recording
/// the terminal `ok` span ingest would.
struct StoringSink;

impl Link for StoringSink {
    fn send(&self, _route: &str, _payload: &[u8]) -> Result<usize, LinkError> {
        Ok(1)
    }

    fn send_traced(
        &self,
        _route: &str,
        _payload: &[u8],
        trace: &SendTrace<'_>,
    ) -> Result<usize, LinkError> {
        for ctx in trace.contexts {
            FlightRecorder::global().record(
                SpanRecord::new(ctx.trace, Hop::DocstoreWrite, trace.now_ms)
                    .parent(ctx.parent)
                    .duplicate(ctx.duplicate)
                    .outcome(Outcome::Ok),
            );
        }
        Ok(1)
    }
}

/// An arbitrary (but sane) fault mix exercising every fault class the
/// link can inject.
fn spec(r: &mut SimRng) -> FaultSpec {
    let spec = FaultSpec {
        drop_prob: r.uniform_in(0.0, 0.5),
        delay_prob: r.uniform_in(0.0, 0.5),
        mean_delay: SimDuration::from_secs(1 + r.index(119) as i64),
        duplicate_prob: r.uniform_in(0.0, 0.3),
        max_duplicates: 1 + r.index(3) as u32,
        reorder_prob: r.uniform_in(0.0, 0.3),
        reorder_window: SimDuration::from_secs(10),
        ..FaultSpec::none()
    };
    if r.chance(0.5) {
        return spec;
    }
    let (from_s, len_s) = (r.index(90) as i64, 1 + r.index(59) as i64);
    spec.with_blackhole(
        "obs",
        SimTime::from_millis(from_s * 1_000),
        SimTime::from_millis((from_s + len_s) * 1_000),
    )
}

/// Every sensed observation's trace terminates in exactly one primary
/// terminal outcome span, duplicates share the parent trace, and the
/// per-outcome span counts agree with the plan's conservation counters —
/// for any seed and any fault mix.
#[test]
fn trace_identity_is_conserved_under_arbitrary_plans() {
    check(conserves_trace_identity);
}

fn conserves_trace_identity(r: &mut SimRng) {
    let spec = spec(r);
    let sends = 30 + r.index(90);
    let device = DEVICE.fetch_add(1, Ordering::Relaxed);
    let link = FaultyLink::new(StoringSink, FaultPlan::new(r.seed(), spec));
    let mut traces = BTreeSet::new();
    for i in 0..sends {
        let now = SimTime::from_millis(i as i64 * 1_000);
        link.advance_to(now).unwrap();
        let trace = TraceId::for_observation(device, now.as_millis());
        traces.insert(trace);
        let sensed =
            FlightRecorder::global().record(SpanRecord::new(trace, Hop::Sensed, now.as_millis()));
        link.send_at_traced(
            "obs.paris.noise",
            b"{}",
            now,
            &[TraceContext::new(trace).child_of(sensed)],
        )
        .unwrap();
    }
    link.drain_pending().unwrap();
    assert_eq!(link.pending(), 0);
    let stats = link.stats();

    let spans: Vec<SpanRecord> = FlightRecorder::global()
        .snapshot()
        .into_iter()
        .filter(|s| traces.contains(&s.trace))
        .collect();
    let index = TraceIndex::from_spans(spans.iter().cloned());
    assert_eq!(index.len(), traces.len(), "every sensed trace is retained");
    assert!(index.unterminated().is_empty(), "every trace terminated");

    for tree in index.iter() {
        let primaries = tree
            .spans
            .iter()
            .filter(|s| s.outcome.is_terminal() && !s.duplicate)
            .count();
        assert_eq!(
            primaries, 1,
            "trace {} must have exactly one primary terminal",
            tree.trace
        );
    }

    // Duplicate copies share the parent trace — structurally true by
    // grouping, so assert the stronger count identities against the
    // plan's own books.
    let count = |outcome: Outcome, dup: bool| {
        spans
            .iter()
            .filter(|s| s.outcome == outcome && s.duplicate == dup)
            .count() as u64
    };
    assert_eq!(count(Outcome::Ok, true), stats.duplicated);
    assert_eq!(count(Outcome::Dropped, false), stats.dropped);
    assert_eq!(count(Outcome::Blackholed, false), stats.blackholed);
    assert_eq!(count(Outcome::Dropped, true), 0);
    assert_eq!(count(Outcome::Blackholed, true), 0);
    assert_eq!(
        count(Outcome::Ok, false) + stats.dropped + stats.blackholed,
        sends as u64,
        "primary copies: stored + counted losses == sends"
    );
}
