//! What recording a span costs the heap, counted rather than timed. Once
//! the flight recorder's ring has wrapped, recording a span without
//! attributes takes a slot and drops the span it held: no record may
//! allocate, and certainly not the whole ring. So recording N spans and
//! recording 2N allocate equally often — a constant, not a count per
//! span — however loaded the machine is: no clock is read. One test, so
//! that no other test's allocations land in the counts.

mod counting;

use mps_telemetry::trace::{FlightRecorder, Hop, SpanRecord, TraceId};

/// The ring's slots.
const CAPACITY: u32 = 1024;

/// Allocations that recording `spans` copies of `span` into `recorder`
/// makes.
fn allocations(recorder: &FlightRecorder, span: &SpanRecord, spans: u32) -> u64 {
    let before = counting::allocations();
    for _ in 0..spans {
        recorder.record(span.clone());
    }
    counting::allocations() - before
}

#[test]
fn recording_into_a_full_ring_allocates_a_constant_number_of_times() {
    let recorder = FlightRecorder::with_capacity(CAPACITY as usize);
    let span = SpanRecord::new(TraceId::from_raw(7), Hop::LinkTransmit, 42);
    // Every record after these replaces one.
    allocations(&recorder, &span, CAPACITY);
    let spans = 10 * CAPACITY;
    let once = allocations(&recorder, &span, spans);
    let twice = allocations(&recorder, &span, 2 * spans);
    println!(
        "allocations recording {spans} and {} spans: {once}, {twice}",
        2 * spans
    );
    assert_eq!(
        once,
        twice,
        "recording {spans} spans allocated {once} times, {} spans {twice} times",
        2 * spans
    );
    assert_eq!(recorder.dropped(), u64::from(3 * spans));
}
