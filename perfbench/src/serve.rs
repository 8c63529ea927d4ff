//! `serve`: read-only, closed loop. Client threads share one pinned
//! generation; every statement opens its own session, so admission and
//! pinning are paid and counted per statement. The planner, executor,
//! table functions, ANN probe and admission do all the work; the solver,
//! refresh, clone and WAL do none.
//!
//! Its set-up builds the engine cold (ingest → register → first
//! `NEAREST`) [`SETUP_REPS`](fixture::SETUP_REPS) times; traced, those
//! builds give the build layers' self times.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use retro_store::sql::PlanMode;

use crate::fixture::{self, Class, Keys, Rng, Settings, SHAPES};
use crate::layers;
use crate::report::{Named, Outcome};
use crate::stats::median;
use crate::trace::Trace;

/// Statements per shape in the planner oracle sample.
const ORACLE_PER_SHAPE: usize = 2;

/// The layers `build_s` is split into, by span name.
const BUILD_LAYERS: [&str; 8] = [
    "store.ingest",
    "catalog.extract",
    "relations.extract",
    "problem.assemble",
    "solver.solve",
    "ann.build",
    "store.clone",
    "engine.first_nearest",
];

pub fn run(settings: &Settings, origin: Instant) -> (Outcome, Trace) {
    let mut out = Outcome::default();
    let t = Instant::now();
    let mut build_trace = Trace::new(origin, settings.trace);
    let setup = fixture::setup(settings, None, &mut build_trace, &mut out);
    setup.report(&mut out);
    let build_s = median(&setup.build_s).expect("built at least once");
    let fixture::Setup { built, keys, .. } = setup;
    out.phase("setup", t);

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(settings.seconds);
    let load = fixture::ReadLoad {
        classes: &Class::ALL,
        threads: fixture::CLIENT_THREADS,
        seed: settings.seed,
        stop: fixture::Stop::Deadline(deadline),
    };
    let (samples, mut trace) =
        fixture::closed_loop(&built.engine, &keys, &load, origin, settings.trace);
    out.metric("read_qps", "ops/s", samples.qps(start, settings.seconds));
    fixture::report_reads(&mut out, &samples, &Class::ALL);
    out.attempted += samples.counts.attempted;
    out.failed += samples.counts.failed();
    let t = out.phase("window", start);

    // Outside the window: the planner oracle, recall and the full-probe oracle.
    let rows_out = plan_oracle(&built.engine, &keys, settings.seed, &mut out);
    fixture::recall_and_full_probe(&built.engine, &keys, &mut out);
    out.phase("checks", t);

    if trace.enabled() {
        let mut counted = BTreeMap::from([
            ("engine.admitted", samples.counts.admitted as f64),
            ("engine.shed", samples.counts.shed as f64),
        ]);
        counted.extend(rows_out);
        counted.insert("build.unaccounted_s", build_breakdown(&mut out, &build_trace, build_s));
        trace.merge(build_trace);
        layers::collect(&mut out, &trace, &counted);
    }
    (out, trace)
}

/// Split the traced `build_s` into each layer's self time (medians over
/// the builds) plus an explicit unaccounted row, which sum to it; keep the
/// split for the report and return the unaccounted seconds.
fn build_breakdown(out: &mut Outcome, trace: &Trace, build_s: f64) -> f64 {
    let selfs = trace.self_times_by_name();
    let mut rows: Vec<(String, f64)> = BUILD_LAYERS
        .iter()
        .map(|&name| (name.to_owned(), selfs.get(name).and_then(|s| median(s)).unwrap_or(0.0)))
        .collect();
    let unaccounted = build_s - rows.iter().map(|(_, secs)| secs).sum::<f64>();
    rows.push(("unaccounted".to_owned(), unaccounted));
    rows.push(("build_s".to_owned(), build_s));
    out.build_breakdown_s = Some(Named(rows));
    unaccounted
}

/// A fixed, seeded sample of every statement shape must equal its
/// `PlanMode::ForceScan` result. Returns the rows each class returned.
pub fn plan_oracle(
    engine: &retro_core::Engine,
    keys: &Keys,
    seed: u64,
    out: &mut Outcome,
) -> BTreeMap<&'static str, f64> {
    let mut rng = Rng::new(seed ^ 0x0AC1E);
    let session = fixture::open_session(engine).expect("admitted");
    let mut rows = BTreeMap::new();
    for (shape, shape_name) in SHAPES.iter().enumerate() {
        for _ in 0..ORACLE_PER_SHAPE {
            let stmt = fixture::shaped(keys, shape, &mut rng);
            let planned = session.query(&stmt.sql);
            let forced = session.query_with(&stmt.sql, PlanMode::ForceScan);
            let name = match stmt.class {
                Class::Point => "store.rows_out.point",
                Class::Join => "store.rows_out.join",
                Class::Knn => "store.rows_out.knn",
            };
            *rows.entry(name).or_insert(0.0) +=
                planned.as_ref().map_or(0.0, |r| r.rows.len() as f64);
            let same = matches!((&planned, &forced), (Ok(p), Ok(f)) if p.rows == f.rows);
            out.check(same, || {
                format!("{shape_name}: planned differs from ForceScan: {}", stmt.sql)
            });
        }
    }
    rows
}
