//! The bounded in-memory flight recorder spans land in.

use super::{SpanId, SpanRecord};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Mutex;
#[cfg(not(loom))]
use std::sync::OnceLock;
use std::sync::PoisonError;

/// Default capacity of the process-wide recorder
/// ([`FlightRecorder::global`]): 16,384 spans (~2 MiB resident).
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

/// A bounded, drop-oldest ring buffer of [`SpanRecord`]s.
///
/// The recorder is the crash-safe core of the tracing layer: recording
/// **never blocks on a global lock and never allocates beyond the ring**,
/// so tracing a million-device run cannot OOM the process — once the
/// ring wraps, the oldest spans are overwritten and counted in
/// [`FlightRecorder::dropped`]. Slot reservation is a single atomic
/// `fetch_add`; the reserved slot is guarded by its own uncontended
/// mutex, so writers only ever contend when the ring has fully wrapped
/// within one reservation window.
///
/// Sizing guidance: each in-flight observation produces 4–7 spans, so
/// size the ring at roughly `8 × expected observations` for a run you
/// want to reconstruct in full. The [`DEFAULT_CAPACITY`] of 16Ki spans
/// comfortably holds a 10-simulated-hour, one-observation-per-minute
/// faulted run; scale up with [`FlightRecorder::with_capacity`] for
/// bigger scenarios.
///
/// # Examples
///
/// ```
/// use mps_telemetry::trace::{FlightRecorder, Hop, Outcome, SpanRecord, TraceId};
///
/// let recorder = FlightRecorder::with_capacity(8);
/// let trace = TraceId::for_observation(4, 0);
/// recorder.record(SpanRecord::new(trace, Hop::Sensed, 0));
/// recorder.record(SpanRecord::new(trace, Hop::DocstoreWrite, 30_000).outcome(Outcome::Ok));
/// assert_eq!(recorder.recorded(), 2);
/// assert_eq!(recorder.dropped(), 0);
/// assert_eq!(recorder.snapshot().len(), 2);
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<SpanRecord>>>,
    head: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` spans (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || Mutex::new(None));
        Self {
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// The process-wide recorder every traced hop reports into.
    ///
    /// Absent under `--cfg loom`: loom primitives may only be created
    /// inside a model run, so the lazily-initialised process-wide
    /// instance cannot exist there (loom tests build their own
    /// recorders per model).
    #[cfg(not(loom))]
    pub fn global() -> &'static FlightRecorder {
        static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
        GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_CAPACITY))
    }

    /// Records a span, assigning and returning its [`SpanId`].
    ///
    /// Ids are assigned in recording order starting at 1, so sorting a
    /// snapshot by id recovers the order events were observed.
    pub fn record(&self, mut span: SpanRecord) -> SpanId {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let id = SpanId::from_raw(seq + 1);
        span.span = id;
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(span);
        id
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Spans lost to ring wrap-around since the last [`clear`].
    ///
    /// [`clear`]: FlightRecorder::clear
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// The ring capacity in spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The retained spans, sorted by recording order (span id).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut spans: Vec<SpanRecord> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).clone())
            .collect();
        spans.sort_by_key(|s| s.span);
        spans
    }

    /// Serialises the retained spans as JSON Lines (one span per line,
    /// recording order), ready to write to a `.jsonl` export.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.snapshot() {
            out.push_str(&span.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Empties the ring and resets the id sequence — used by exhibits
    /// and tests that need an isolated recording window. Span ids
    /// restart at 1 afterwards.
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.lock().unwrap_or_else(PoisonError::into_inner) = None;
        }
        self.head.store(0, Ordering::Relaxed);
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::trace::{Hop, Outcome, TraceId};

    fn span(i: i64) -> SpanRecord {
        SpanRecord::new(TraceId::from_raw(i as u64 + 1), Hop::Sensed, i)
    }

    #[test]
    fn ids_are_sequential_from_one() {
        let r = FlightRecorder::with_capacity(4);
        assert_eq!(r.record(span(0)).raw(), 1);
        assert_eq!(r.record(span(1)).raw(), 2);
        assert_eq!(r.recorded(), 2);
    }

    #[test]
    fn wraparound_drops_oldest_and_counts() {
        let r = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            r.record(span(i));
        }
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        let kept = r.snapshot();
        assert_eq!(kept.len(), 3);
        // The oldest two were overwritten; spans 3..=5 remain, in order.
        assert_eq!(
            kept.iter().map(|s| s.span.raw()).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn clear_resets_everything() {
        let r = FlightRecorder::with_capacity(2);
        r.record(span(0));
        r.record(span(1));
        r.record(span(2));
        r.clear();
        assert_eq!(r.recorded(), 0);
        assert_eq!(r.dropped(), 0);
        assert!(r.snapshot().is_empty());
        assert_eq!(r.record(span(9)).raw(), 1, "ids restart after clear");
    }

    #[test]
    fn export_jsonl_is_one_line_per_span() {
        let r = FlightRecorder::with_capacity(8);
        r.record(span(0));
        r.record(span(1).outcome(Outcome::Ok));
        let export = r.export_jsonl();
        let lines: Vec<_> = export.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"span\":1"));
        assert!(lines[1].contains("\"outcome\":\"ok\""));
        assert!(export.ends_with('\n'));
    }

    #[test]
    fn capacity_floor_is_one() {
        let r = FlightRecorder::with_capacity(0);
        assert_eq!(r.capacity(), 1);
        r.record(span(0));
        r.record(span(1));
        assert_eq!(r.snapshot().len(), 1);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn concurrent_recording_is_safe_and_complete() {
        let r = std::sync::Arc::new(FlightRecorder::with_capacity(4096));
        let mut handles = Vec::new();
        for t in 0..4 {
            let r = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..250 {
                    r.record(span(t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.recorded(), 1000);
        assert_eq!(r.dropped(), 0);
        let ids: Vec<u64> = r.snapshot().iter().map(|s| s.span.raw()).collect();
        assert_eq!(ids.len(), 1000);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids strictly ordered");
    }

    #[test]
    fn global_is_shared_and_bounded() {
        let before = FlightRecorder::global().recorded();
        FlightRecorder::global().record(span(0));
        assert!(FlightRecorder::global().recorded() > before);
        assert_eq!(FlightRecorder::global().capacity(), DEFAULT_CAPACITY);
    }
}
