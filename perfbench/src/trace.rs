//! In-memory spans recorded around calls into each crate.
//!
//! A span has a name, a start and end (ns since the tracer's epoch), the
//! index of the span that caused it, and the id of the op it belongs to.
//! A layer's self time is its span minus the spans nested in it. Spans
//! stay in memory during the timed phase and are written out after it.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The name of the span that wraps one whole op.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `qasm.parse`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    /// A disabled tracer whose timestamps count from `epoch`; op ids
    /// start at `first_op` (tracers of concurrent clients use disjoint
    /// ranges).
    pub fn new(epoch: Instant, first_op: u64) -> Tracer {
        Tracer {
            enabled: false,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            next_op: first_op,
        }
    }

    /// Turns recording on or off (between ops).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`. A span opened with no span
    /// open starts a new op.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.next_op += 1;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.next_op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Records an already-finished span nested in the innermost open one
    /// (used for the passes, whose times come from the compile report).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            op: self.next_op,
        });
    }

    /// Appends another tracer's spans (same epoch) to this one's.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Per-name call counts, self times and inclusive times.
    pub fn summary(&self) -> Summary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.total_ns += span.duration_ns();
            layer.self_ns += span.duration_ns().saturating_sub(*children);
        }
        Summary { layers }
    }

    /// Writes every span as one JSON line: name, start, end, parent
    /// index and op id.
    ///
    /// # Errors
    ///
    /// Any error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
        out.flush()
    }
}

/// Time spent under one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Sum of durations.
    pub total_ns: u64,
}

/// Aggregated spans.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Per span name.
    pub layers: BTreeMap<&'static str, LayerTime>,
}

impl Summary {
    /// Mean self time per call of `name`, in ms (`None` if never seen).
    pub fn self_ms(&self, name: &str) -> Option<f64> {
        self.layers
            .get(name)
            .map(|l| l.self_ns as f64 / l.calls as f64 / 1e6)
    }

    /// Mean duration per call of `name`, in ms (`None` if never seen).
    pub fn total_ms(&self, name: &str) -> Option<f64> {
        self.layers
            .get(name)
            .map(|l| l.total_ns as f64 / l.calls as f64 / 1e6)
    }

    /// Puts the mean self time of every layer in `names` into `layers`
    /// under its metric name (`<span name>_ms`), plus the op totals:
    /// `trace.op_ms` (mean traced op) and `trace.unattributed_ms` (mean
    /// op time outside every layer span).
    pub fn fill(
        &self,
        names: &[(&'static str, &'static str)],
        layers: &mut BTreeMap<&'static str, f64>,
    ) {
        for &(span, metric) in names {
            if let Some(ms) = self.self_ms(span) {
                layers.insert(metric, ms);
            }
        }
        if let (Some(op), Some(unattributed)) = (self.total_ms(OP), self.self_ms(OP)) {
            layers.insert("trace.op_ms", op);
            layers.insert("trace.unattributed_ms", unattributed);
        }
    }
}

/// Where a traced run writes its spans: inside the benchmark's own
/// directory, which `.gitignore` excludes.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(Instant::now(), 0);
        tracer.set_enabled(true);
        tracer.span(OP, |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            let now = t.now_ns();
            std::thread::sleep(std::time::Duration::from_millis(1));
            t.record("b", now, now + 500_000);
        });
        let summary = tracer.summary();
        let op = summary.layers[OP];
        let a = summary.layers["a"];
        assert_eq!(op.calls, 1);
        assert_eq!(op.self_ns, op.total_ns - a.total_ns - 500_000);
        assert_eq!(tracer.spans.iter().filter(|s| s.op == 1).count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), 0);
        assert_eq!(tracer.span(OP, |t| t.span("a", |_| 7)), 7);
        assert!(tracer.summary().layers.is_empty());
    }
}
