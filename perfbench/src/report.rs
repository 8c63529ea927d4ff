//! Output: the one-line result the benchmark ends with, and the report
//! file with machine facts, configuration, sample counts and spans.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::ser::Content;
use serde::Serialize;

use crate::stats::Summary;

/// Named entries, serialized as one JSON object in their order.
#[derive(Clone, Debug, PartialEq)]
pub struct Named<T>(pub Vec<(String, T)>);

impl<T: Serialize> Serialize for Named<T> {
    fn to_content(&self) -> Content {
        Content::Map(self.0.iter().map(|(k, v)| (k.clone(), v.to_content())).collect())
    }
}

impl<K: Into<String>, T> FromIterator<(K, T)> for Named<T> {
    fn from_iter<I: IntoIterator<Item = (K, T)>>(iter: I) -> Self {
        Self(iter.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// The end-to-end metrics the result line carries, each bounded in
/// `BENCHMARK.json`. Every other metric a workload measures goes to the
/// report only: those moved by more than a usable bound between runs on a
/// shared two-core machine (read medians, point p99, `stream`'s write
/// latency and freshness).
pub const END_TO_END: [&str; 8] = [
    "setup_s",
    "build_s",
    "peak_rss_mb",
    "join_p99_ms",
    "knn_p99_ms",
    "read_qps",
    "knn_recall10",
    "ok_ratio",
];

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self { name: name.into(), unit, value }
    }
}

/// A metric as the result line and the report carry it, under its name.
#[derive(Serialize)]
struct Reading {
    value: f64,
    unit: &'static str,
}

fn readings<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> Named<Reading> {
    metrics
        .into_iter()
        .map(|m| (m.name.clone(), Reading { value: m.value, unit: m.unit }))
        .collect()
}

/// A timing kept for the report file: its summary in `unit`.
#[derive(Clone, Debug)]
pub struct Timing {
    pub name: String,
    pub unit: &'static str,
    pub summary: Summary,
}

/// A timing as the report carries it, under its name.
#[derive(Serialize)]
struct TimingEntry {
    unit: &'static str,
    count: usize,
    p50: f64,
    p99: f64,
    p99_supported: bool,
    tail_pct: f64,
    tail: f64,
    max: f64,
}

/// What `stream` adds to its report.
#[derive(Clone, Debug, Serialize)]
pub struct StreamFacts {
    /// Seconds of each publish in the window.
    pub publish_s: Vec<f64>,
    pub acked_writes: usize,
    pub flush_policy: &'static str,
    pub recover_s: f64,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// End-to-end metrics (printed untraced).
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (printed traced).
    pub layers: Vec<Metric>,
    pub timings: Vec<Timing>,
    /// Wall time of each phase of the run, in order.
    pub phases: Vec<(&'static str, f64)>,
    /// Traced `serve`: each build layer's self time and `unaccounted`, which sum
    /// to `build_s` (seconds, medians over the builds).
    pub build_breakdown_s: Option<Named<f64>>,
    pub stream: Option<StreamFacts>,
    /// Traced runs: each end-to-end figure minus that of the untraced run
    /// of the same workload and seed.
    pub trace_overhead: Option<Named<f64>>,
}

/// The run's arguments and fixed configuration, as the report records them.
#[derive(Debug, Serialize)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub preset: &'static str,
    pub client_threads: usize,
    pub solver_threads: usize,
    pub setup_reps: usize,
    pub solver: String,
    pub probes: &'static str,
    pub stream_flush_policy: &'static str,
}

/// Processor count, CPU model and total memory of the machine.
#[derive(Debug, Serialize)]
pub struct Machine {
    pub nproc: usize,
    pub cpu_model: String,
    pub mem_total_mb: u64,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Named<Reading>,
}

#[derive(Serialize)]
struct Report<'a> {
    run: &'a Run,
    machine: Machine,
    correct: bool,
    attempted: u64,
    failed: u64,
    mismatches: &'a [String],
    metrics: Named<Reading>,
    layers: Named<Reading>,
    timings: Named<TimingEntry>,
    phases_s: Named<f64>,
    build_breakdown_s: &'a Option<Named<f64>>,
    stream: &'a Option<StreamFacts>,
    trace_overhead: &'a Option<Named<f64>>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, unit, value));
    }

    /// Record an oracle check: a failed check is an operation failure and
    /// makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }

    pub fn timing(&mut self, name: impl Into<String>, unit: &'static str, summary: Summary) {
        self.timings.push(Timing { name: name.into(), unit, summary });
    }

    /// Record the phase that ran from `since` until now; returns now.
    pub fn phase(&mut self, name: &'static str, since: Instant) -> Instant {
        let now = Instant::now();
        self.phases.push((name, now.duration_since(since).as_secs_f64()));
        now
    }

    /// The last line of standard output: the [`END_TO_END`] metrics, or
    /// the per-layer ones for a traced run.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = if traced {
            readings(&self.layers)
        } else {
            readings(
                END_TO_END.iter().filter_map(|&name| self.metrics.iter().find(|m| m.name == name)),
            )
        };
        let line = ResultLine {
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        };
        serde_json::to_string(&line).expect("result line serializes")
    }

    /// The full report as pretty JSON: run, machine facts, result,
    /// timings, phases and the workload's own sections.
    pub fn report(&self, run: &Run) -> String {
        let timings = self
            .timings
            .iter()
            .map(|t| {
                let s = &t.summary;
                let entry = TimingEntry {
                    unit: t.unit,
                    count: s.count,
                    p50: s.p50,
                    p99: s.p99,
                    p99_supported: s.p99_supported(),
                    tail_pct: s.tail_pct,
                    tail: s.tail,
                    max: s.max,
                };
                (t.name.clone(), entry)
            })
            .collect();
        let report = Report {
            run,
            machine: machine_facts(),
            correct: self.correct(),
            attempted: self.attempted,
            failed: self.failed,
            mismatches: &self.mismatches,
            metrics: readings(&self.metrics),
            layers: readings(&self.layers),
            timings,
            phases_s: self.phases.iter().copied().collect(),
            build_breakdown_s: &self.build_breakdown_s,
            stream: &self.stream,
            trace_overhead: &self.trace_overhead,
        };
        serde_json::to_string_pretty(&report).expect("report serializes")
    }

    /// Each end-to-end metric minus its value in the report `base` (the
    /// text of an untraced run's report); metrics `base` lacks are skipped.
    pub fn overhead_against(&self, base: &str) -> Option<Named<f64>> {
        let base: serde_json::Value = serde_json::from_str(base).ok()?;
        let metrics = &base["metrics"];
        Some(
            self.metrics
                .iter()
                .filter_map(|m| {
                    Some((m.name.clone(), m.value - metrics[&*m.name]["value"].as_f64()?))
                })
                .collect(),
        )
    }
}

/// `{out}/{workload}-seed{seed}-trace{0|1}` with the given extension.
pub fn artifact(out: &Path, workload: &str, seed: u64, trace: bool, ext: &str) -> PathBuf {
    out.join(format!("{workload}-seed{seed}-trace{}.{ext}", u8::from(trace)))
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|line| line.starts_with(key))
        .and_then(|line| line.split_once(':'))
        .map(|(_, value)| value.trim().to_owned())
}

/// Peak resident set size of this process (VmHWM) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 =
        proc_field("/proc/self/status", "VmHWM")?.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn machine_facts() -> Machine {
    let mem_kb: u64 = proc_field("/proc/meminfo", "MemTotal")
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0);
    Machine {
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        cpu_model: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        mem_total_mb: mem_kb / 1024,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metric("point_p50_ms", "ms", 0.5);
        o.metric("build_s", "s", 1.25);
        o.layers.push(Metric::new("store.parse_us", "us", 2.5));
        o.check(true, String::new);
        assert_eq!(
            o.result_line(false),
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"build_s":{"value":1.25,"unit":"s"}}}"#
        );
        assert!(o.result_line(true).ends_with(r#"{"store.parse_us":{"value":2.5,"unit":"us"}}}"#));
        o.check(false, || "x".into());
        assert!(!o.correct());
        assert_eq!(o.failed, 1);
    }

    #[test]
    fn overhead_is_traced_minus_untraced() {
        let mut base = Outcome::default();
        base.metric("build_s", "s", 2.0);
        let run = Run {
            workload: "serve".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            preset: "paper",
            client_threads: 2,
            solver_threads: 2,
            setup_reps: 1,
            solver: "paper_rn".into(),
            probes: "default",
            stream_flush_policy: "none",
        };
        let text = base.report(&run);
        let mut traced = Outcome::default();
        traced.metric("build_s", "s", 2.5);
        traced.metric("setup_s", "s", 1.0);
        assert_eq!(traced.overhead_against(&text), Some(Named(vec![("build_s".to_owned(), 0.5)])));
        assert_eq!(traced.overhead_against("not json"), None);
    }
}
