//! In-memory spans recorded around calls into the engine's layers.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to. Spans stay in memory while the workload runs
//! and are written out once at the end. A span's *self time* is its
//! duration minus the durations of its child spans. Some children are
//! re-executions of a layer's public call on the same inputs, made right
//! beside the composed call they stand for (the benchmark cannot time
//! inside a library call), so self time is plain duration arithmetic, not
//! interval overlap.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// A span recorder. A disabled trace records nothing and costs one branch
/// per call, so the untimed code path and the traced one are the same code.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Self { origin, enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        if self.enabled {
            let span =
                Span { name, start_ns: self.ns(start), end_ns: self.ns(end), parent, request };
            self.spans.push(span);
        }
        self.spans.len().saturating_sub(1)
    }

    /// Open a span starting at `start`; its children may name it as parent
    /// before [`Trace::close`] sets its end.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.record(name, start, start, parent, request)
    }

    pub fn close(&mut self, id: SpanId, end: Instant) {
        if self.enabled {
            self.spans[id].end_ns = self.ns(end);
        }
    }

    /// Time `f` as a span and return its result with the span's id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let start = Instant::now();
        let out = f();
        (out, self.record(name, start, Instant::now(), parent, request))
    }

    /// Append another trace's spans (same origin), keeping parent links.
    pub fn merge(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Self time in seconds of every span, in recording order.
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::duration_s).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                out[parent] -= span.duration_s();
            }
        }
        out
    }

    /// Self times in seconds grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_s) in self.spans.iter().zip(self.self_times()) {
            out.entry(span.name).or_default().push(self_s);
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `id name start_ns end_ns parent request self_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns")?;
        for (id, (span, self_s)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                span.name,
                span.start_ns,
                span.end_ns,
                span.request,
                (self_s * 1e9).round() as i64
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let o = Instant::now();
        let mut t = Trace::new(o, true);
        let root = t.open("build", at(o, 0), None, 1);
        let ingest = t.record("store.ingest", at(o, 0), at(o, 30), Some(root), 1);
        let register = t.open("engine.register", at(o, 30), Some(root), 1);
        t.close(register, at(o, 90));
        // Re-executed constituents of the register call: children by
        // cause, recorded after the parent closed.
        t.record("solver.solve", at(o, 100), at(o, 140), Some(register), 1);
        t.record("ann.build", at(o, 140), at(o, 150), Some(register), 1);
        t.close(root, at(o, 95));

        let selfs = t.self_times();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(selfs[ingest], 0.030));
        assert!(close(selfs[register], 0.060 - 0.050));
        assert!(close(selfs[root], 0.095 - 0.030 - 0.060));
        // Self times partition the root: their sum is its duration.
        assert!(close(selfs.iter().sum::<f64>(), 0.095));
        assert_eq!(t.self_times_by_name()["solver.solve"].len(), 1);
    }

    #[test]
    fn merge_keeps_parent_links_and_disabled_records_nothing() {
        let o = Instant::now();
        let mut a = Trace::new(o, true);
        a.record("x", at(o, 0), at(o, 1), None, 1);
        let mut b = Trace::new(o, true);
        let p = b.open("statement.point", at(o, 0), None, 2);
        b.record("engine.session", at(o, 0), at(o, 1), Some(p), 2);
        b.close(p, at(o, 3));
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].request, 2);

        let mut off = Trace::new(o, false);
        let id = off.open("y", at(o, 0), None, 0);
        off.close(id, at(o, 5));
        off.record("z", at(o, 0), at(o, 1), Some(id), 0);
        assert!(off.spans().is_empty());
        assert!(off.self_times().is_empty());
    }
}
