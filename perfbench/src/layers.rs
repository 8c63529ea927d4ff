//! The per-layer metrics of a traced run, each named after the module it
//! times. Every traced run reports all of them; a layer a workload
//! bypasses reads 0.

use std::collections::BTreeMap;

use crate::report::{Metric, Outcome};
use crate::stats::{percentile, Summary};
use crate::trace::Trace;

/// How a span-derived metric aggregates the self times of its spans.
#[derive(Clone, Copy)]
enum Agg {
    Median,
    P99,
}

/// Span-derived metrics: `(metric, span, aggregate, unit, seconds → unit)`.
const FROM_SPANS: [(&str, &str, Agg, &str, f64); 19] = [
    ("engine.session_us", "engine.session", Agg::Median, "us", 1e6),
    ("store.parse_us", "store.parse", Agg::Median, "us", 1e6),
    ("store.plan_us", "store.plan", Agg::Median, "us", 1e6),
    ("store.exec_us.point", "store.query.point", Agg::Median, "us", 1e6),
    ("store.exec_us.join", "store.query.join", Agg::Median, "us", 1e6),
    ("serve.nearest_us", "serve.nearest", Agg::Median, "us", 1e6),
    ("store.knn_sql_self_us", "store.query.knn", Agg::Median, "us", 1e6),
    ("engine.execute_us", "engine.execute", Agg::Median, "us", 1e6),
    ("store.write_wait_ms", "store.write_wait", Agg::P99, "ms", 1e3),
    ("engine.refresh_ms", "engine.refresh", Agg::Median, "ms", 1e3),
    ("incremental.prepare_ms", "incremental.prepare", Agg::Median, "ms", 1e3),
    ("incremental.solve_ms", "incremental.solve", Agg::Median, "ms", 1e3),
    ("store.clone_ms", "store.clone", Agg::Median, "ms", 1e3),
    ("store.ingest_s", "store.ingest", Agg::Median, "s", 1.0),
    ("catalog.extract_s", "catalog.extract", Agg::Median, "s", 1.0),
    ("relations.extract_s", "relations.extract", Agg::Median, "s", 1.0),
    ("problem.assemble_s", "problem.assemble", Agg::Median, "s", 1.0),
    ("solver.solve_s", "solver.solve", Agg::Median, "s", 1.0),
    ("ann.build_s", "ann.build", Agg::Median, "s", 1.0),
];

/// Metrics the workloads count themselves: `(metric, unit)`.
const COUNTED: [(&str, &str); 14] = [
    ("engine.admitted", "count"),
    ("engine.shed", "count"),
    ("store.rows_out.point", "count"),
    ("store.rows_out.join", "count"),
    ("store.rows_out.knn", "count"),
    ("wal.bytes_per_write", "count"),
    ("incremental.dirty_rows", "count"),
    ("refresh.full", "count"),
    ("refresh.delta", "count"),
    ("refresh.nochange", "count"),
    ("engine.generations_pinned", "count"),
    ("store.recover_s", "s"),
    ("client.late_ms", "ms"),
    ("build.unaccounted_s", "s"),
];

/// Fill `out.layers` with every per-layer metric: span-derived ones from
/// `trace`, counted ones from `counted`, 0 for
/// a layer this workload bypassed. Also keeps each span name's self-time
/// summary (count, p50, p99, max) for the report.
pub fn collect(out: &mut Outcome, trace: &Trace, counted: &BTreeMap<&'static str, f64>) {
    let by_name = trace.self_times_by_name();
    for (&name, selfs) in &by_name {
        if let Some(s) = Summary::of(selfs) {
            out.timing(format!("self.{name}"), "s", s);
        }
    }
    for (metric, span, agg, unit, scale) in FROM_SPANS {
        let value = by_name.get(span).map_or(0.0, |selfs| {
            let mut sorted = selfs.clone();
            sorted.sort_by(f64::total_cmp);
            let pct = match agg {
                Agg::Median => 50.0,
                Agg::P99 => 99.0,
            };
            percentile(&sorted, pct).unwrap_or(0.0) * scale
        });
        out.layers.push(Metric::new(metric, unit, value));
    }
    for (metric, unit) in COUNTED {
        out.layers.push(Metric::new(metric, unit, counted.get(metric).copied().unwrap_or(0.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_layer_is_reported_once_and_bypassed_layers_read_zero() {
        let mut out = Outcome::default();
        let trace = Trace::new(std::time::Instant::now(), true);
        collect(&mut out, &trace, &BTreeMap::from([("engine.shed", 2.0)]));
        let mut names: Vec<_> = out.layers.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), FROM_SPANS.len() + COUNTED.len());
        assert!(out
            .layers
            .iter()
            .all(|m| m.value == f64::from(u8::from(m.name == "engine.shed")) * 2.0));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FROM_SPANS.len() + COUNTED.len());
    }
}
