//! RAII stage timing.

use crate::Histogram;
use std::time::Instant;

/// An RAII guard timing a pipeline stage into a [`Histogram`] of
/// seconds.
///
/// Start it at the top of a stage; when the guard drops (or
/// [`SpanTimer::stop`] is called explicitly) the elapsed wall-clock time
/// is recorded. Dropping on an early return or a panic still records the
/// span, so stage-duration histograms see every pass.
///
/// # Examples
///
/// ```
/// use mps_telemetry::{Histogram, SpanTimer};
///
/// let pass = Histogram::new(Histogram::exponential_buckets(1e-6, 10.0, 8));
/// {
///     let _timer = SpanTimer::start(&pass);
///     // ... the timed stage ...
/// }
/// let elapsed = SpanTimer::start(&pass).stop();
/// assert_eq!(pass.count(), 2);
/// assert!(elapsed >= 0.0);
/// ```
#[derive(Debug)]
pub struct SpanTimer {
    histogram: Option<Histogram>,
    started: Instant,
}

impl SpanTimer {
    /// Starts timing into `histogram` (units: seconds).
    pub fn start(histogram: &Histogram) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "SpanTimer measures real host latency by contract; sim-path stages time themselves with SimSpanTimer instead"
        )]
        let started = Instant::now();
        Self {
            histogram: Some(histogram.clone()),
            started,
        }
    }

    /// Stops the timer early, recording and returning the elapsed
    /// seconds.
    pub fn stop(mut self) -> f64 {
        self.record()
    }

    fn record(&mut self) -> f64 {
        let elapsed = self.started.elapsed().as_secs_f64();
        if let Some(histogram) = self.histogram.take() {
            histogram.observe(elapsed);
        }
        elapsed
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.record();
    }
}

/// A sim-clock counterpart to [`SpanTimer`] for deterministic
/// simulations.
///
/// [`SpanTimer`] reads the wall clock, which is the right tool for
/// *compute* stages (a BLUE pass really does take host time) but makes
/// simulated-pipeline timings irreproducible: two replays of the same
/// seeded scenario should report identical latencies. `SimSpanTimer`
/// takes explicit sim-clock timestamps instead and records the elapsed
/// **milliseconds** (the workspace convention for sim-time series, e.g.
/// `goflow_ingest_delivery_delay_ms`).
///
/// Because the stop time must be supplied, there is no `Drop` recording:
/// an unstopped timer records nothing.
///
/// # Examples
///
/// ```
/// use mps_telemetry::{Histogram, SimSpanTimer};
///
/// let waits = Histogram::new(Histogram::exponential_buckets(10.0, 4.0, 8));
/// let timer = SimSpanTimer::start_at(&waits, 60_000);
/// let elapsed_ms = timer.stop_at(95_000);
/// assert_eq!(elapsed_ms, 35_000.0);
/// assert_eq!(waits.count(), 1);
/// ```
#[derive(Debug)]
pub struct SimSpanTimer {
    histogram: Histogram,
    started_ms: i64,
}

impl SimSpanTimer {
    /// Starts timing into `histogram` (units: milliseconds) at sim time
    /// `now_ms`.
    pub fn start_at(histogram: &Histogram, now_ms: i64) -> Self {
        Self {
            histogram: histogram.clone(),
            started_ms: now_ms,
        }
    }

    /// Stops at sim time `now_ms`, recording and returning the elapsed
    /// milliseconds (clamped at zero — a span can't end before it
    /// started).
    pub fn stop_at(self, now_ms: i64) -> f64 {
        let elapsed = (now_ms - self.started_ms).max(0) as f64;
        self.histogram.observe(elapsed);
        elapsed
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn records_on_drop() {
        let h = Histogram::new(vec![1.0]);
        {
            let _t = SpanTimer::start(&h);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn stop_records_exactly_once() {
        let h = Histogram::new(vec![1.0]);
        let elapsed = SpanTimer::start(&h).stop();
        assert!(elapsed >= 0.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn records_even_on_panic() {
        let h = Histogram::new(vec![1.0]);
        let h2 = h.clone();
        let result = std::panic::catch_unwind(move || {
            let _t = SpanTimer::start(&h2);
            panic!("stage failed");
        });
        assert!(result.is_err());
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn sim_timer_is_deterministic() {
        let h = Histogram::new(vec![1_000.0, 100_000.0]);
        for _ in 0..3 {
            let t = SimSpanTimer::start_at(&h, 60_000);
            assert_eq!(t.stop_at(95_000), 35_000.0);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 105_000.0);
    }

    #[test]
    fn sim_timer_clamps_time_travel() {
        let h = Histogram::new(vec![1.0]);
        assert_eq!(SimSpanTimer::start_at(&h, 100).stop_at(50), 0.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn elapsed_is_plausible() {
        let h = Histogram::new(vec![60.0]);
        let t = SpanTimer::start(&h);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let elapsed = t.stop();
        assert!(elapsed >= 0.005, "elapsed {elapsed}");
        assert!(h.sum() >= 0.005);
    }
}
