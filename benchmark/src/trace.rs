//! The benchmark's own spans.
//!
//! A span is recorded around each call from the benchmark into a product
//! layer: name (`layer.operation`), start, end, the span that was open
//! when it started, and the id of the operation it belongs to. Spans stay
//! in memory and are written out after measurement. A layer's self time
//! is its spans' durations minus the time their children cover, so the
//! layers of one workload add up to its traced wall time.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u64,
}

/// Span recorder for one thread. All tracers of a run share one `epoch`
/// so their files line up.
#[derive(Debug)]
pub struct Tracer {
    /// Spans are recorded only while this is set; workloads flip it per
    /// repetition to interleave traced and untraced work.
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            on: false,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, on the same clock.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.epoch)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name` belonging to operation `op`.
    /// With tracing off this is a plain call.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            op,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.now_ns();
        result
    }

    pub fn spans_recorded(&self) -> usize {
        self.spans.len()
    }

    /// Moves another thread's spans in, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += shift;
            }
            s
        }));
    }

    /// Self time in nanoseconds and span count per span name, over the
    /// spans at or below a root called `root` (the timed region; set-up
    /// and output checks hang under other roots).
    pub fn self_times(&self, root: &str) -> SelfTimes {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        let mut under_root = vec![false; self.spans.len()];
        for (index, span) in self.spans.iter().enumerate() {
            // A parent is always recorded before its children.
            under_root[index] = match span.parent {
                NO_PARENT => span.name == root,
                parent => under_root[parent as usize],
            };
            if span.parent != NO_PARENT {
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(span.end_ns - span.start_ns);
            }
        }
        let mut by_name = SelfTimes::new();
        for ((span, ns), counted) in self.spans.iter().zip(own).zip(under_root) {
            if counted {
                let entry = by_name.entry(span.name).or_default();
                entry.0 += ns;
                entry.1 += 1;
            }
        }
        by_name
    }

    /// Self time per layer (the part of the name before the first `.`).
    pub fn layer_self_ns(&self, root: &str) -> BTreeMap<&'static str, u64> {
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, (ns, _)) in self.self_times(root) {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_default() += ns;
        }
        layers
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in self.spans.iter().enumerate() {
            write!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{},\"parent\":",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
            if s.parent == NO_PARENT {
                writeln!(out, "null}}")?;
            } else {
                writeln!(out, "{}}}", s.parent)?;
            }
        }
        out.flush()
    }
}

/// Self time and span count per span name, as [`Tracer::self_times`]
/// returns them.
pub type SelfTimes = BTreeMap<&'static str, (u64, u64)>;

/// Mean self time of the spans called `name`, in nanoseconds (0 if none).
pub fn mean_ns(times: &SelfTimes, name: &str) -> f64 {
    match times.get(name) {
        Some(&(ns, count)) if count > 0 => ns as f64 / count as f64,
        _ => 0.0,
    }
}

/// Total self time of the spans called `name`, in seconds.
pub fn total_s(times: &SelfTimes, name: &str) -> f64 {
    times.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_layers_sum_to_the_root() {
        let mut t = Tracer::new(Instant::now());
        t.on = true;
        t.span("bench.timed", 0, |t| {
            t.span("types.parse", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("docstore.insert", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let root = t.spans[0].end_ns - t.spans[0].start_ns;
        let layers = t.layer_self_ns("bench.timed");
        assert_eq!(layers.values().sum::<u64>(), root);
        assert!(layers["types"] >= 2_000_000 && layers["docstore"] >= 3_000_000);
        assert!(layers["bench"] < 1_000_000, "{layers:?}");
        assert_eq!(t.spans[1].parent, 0);
        assert_eq!(t.spans[0].parent, NO_PARENT);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        assert_eq!(t.span("bench.timed", 0, |_| 7), 7);
        assert_eq!(t.spans_recorded(), 0);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let (mut a, mut b) = (Tracer::new(epoch), Tracer::new(epoch));
        a.on = true;
        b.on = true;
        a.span("bench.a", 0, |_| ());
        b.span("bench.b", 0, |t| t.span("wal.x", 0, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, 1);
    }
}
