//! **Load driver** — mixed-workload harness against the multi-database
//! [`Engine`]: concurrent SQL point/join reads, `NEAREST` kNN queries, and
//! write traffic, all through the admission gate, with a background
//! refresher publishing new generations while the load runs.
//!
//! Three traffic classes run for `--duration-secs` on their own threads:
//!
//! - **sql** — generation-pinned sessions answering point lookups and
//!   FK joins over the frozen store,
//! - **knn** — the same sessions answering `NEAREST(...)` table-function
//!   SQL (sub-linear probe scan by default; `--exact` forces the oracle),
//! - **write** — `INSERT`s through [`Engine::execute`] against the live
//!   database (`--durable` opens a WAL-backed store under group commit).
//!
//! Reported per class: throughput (q/s) and p50/p99 latency; plus the
//! engine's admitted/shed counters and the number of generations the
//! refresher published. The JSON report lands in `results/load_driver.json`.
//!
//! ```text
//! cargo run --release -p retro-bench --bin load_driver -- \
//!     [--smoke] [--durable] [--exact] [--preset paper|small] \
//!     [--duration-secs 30] [--sql-threads 4] [--knn-threads 2] \
//!     [--write-threads 1] [--threads 8]
//! ```
//!
//! `--smoke` is the CI shape: the small preset for ~2s, then hard
//! assertions — every class made progress and nothing was shed — with a
//! non-zero exit on violation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use retro_bench::{arg_num, arg_value, time, write_report, ReportRow};
use retro_core::serve::SearchMode;
use retro_core::{Engine, EngineConfig, EngineError, Hyperparameters, RetroConfig};
use retro_datasets::{SizePreset, TmdbConfig, TmdbDataset};
use retro_store::{Database, DurabilityPolicy, SharedDatabase, Value};

/// `--name` presence (the arg helpers in the bench crate only parse
/// `--flag value` pairs).
fn flag(name: &str) -> bool {
    let want = format!("--{name}");
    std::env::args().any(|a| a == want)
}

/// Deterministic per-worker pseudo-random stream (LCG; no shared state,
/// no seeding ceremony — the classes only need decorrelated key picks).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Per-class outcome: one latency sample per completed operation, plus
/// how many acquisitions the gate refused (sheds are *expected* under
/// deliberate overload, but the smoke gate asserts zero).
struct ClassStats {
    latencies: Vec<f64>,
    shed: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() as f64 * p) as usize).min(sorted.len() - 1)]
}

/// Merge per-worker stats, print the class line, and append report rows.
fn report_class(
    name: &str,
    per_worker: Vec<ClassStats>,
    window_secs: f64,
    rows: &mut Vec<ReportRow>,
) -> (usize, u64) {
    let shed: u64 = per_worker.iter().map(|s| s.shed).sum();
    let mut all: Vec<f64> = per_worker.into_iter().flat_map(|s| s.latencies).collect();
    all.sort_by(f64::total_cmp);
    let count = all.len();
    let qps = count as f64 / window_secs.max(1e-9);
    let p50 = percentile(&all, 0.50);
    let p99 = percentile(&all, 0.99);
    println!(
        "  {name:<6} {count:>9} ops   {qps:>9.0} q/s   p50 {:>8.3}ms   p99 {:>8.3}ms   shed {shed}",
        p50 * 1e3,
        p99 * 1e3
    );
    rows.push(ReportRow::from_samples(format!("{name}/qps"), &[qps]));
    rows.push(ReportRow::from_samples(format!("{name}/p50_ms"), &[p50 * 1e3]));
    rows.push(ReportRow::from_samples(format!("{name}/p99_ms"), &[p99 * 1e3]));
    (count, shed)
}

/// One reader/searcher worker: acquire a session, answer a batch through
/// it, drop it (returning the admission permit), repeat until the
/// deadline. `run` answers one operation through the session.
fn session_worker(
    engine: &Engine,
    deadline: Instant,
    exact: bool,
    mut run: impl FnMut(&retro_core::Session, &mut Lcg, usize) -> Vec<f64>,
    seed: u64,
) -> ClassStats {
    const BATCH: usize = 32;
    let mut rng = Lcg(seed);
    let mut stats = ClassStats { latencies: Vec::new(), shed: 0 };
    while Instant::now() < deadline {
        let mut session = match engine.session("tmdb") {
            Ok(s) => s,
            Err(EngineError::Overloaded(_)) => {
                stats.shed += 1;
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            Err(err) => panic!("session acquisition failed: {err}"),
        };
        if !exact {
            let probes = session.snapshot().default_probes();
            session.set_search_mode(SearchMode::Approx { probes });
        }
        stats.latencies.extend(run(&session, &mut rng, BATCH));
    }
    stats
}

fn main() {
    let smoke = flag("smoke");
    let durable = flag("durable");
    let exact = flag("exact");
    let preset_default = if smoke { "small" } else { "paper" };
    let preset = SizePreset::from_name(&arg_value("preset", preset_default)).unwrap_or_else(|| {
        eprintln!("unknown --preset (expected `small` or `paper`); using {preset_default}");
        SizePreset::from_name(preset_default).expect("default preset parses")
    });
    let duration = Duration::from_secs(arg_num("duration-secs", if smoke { 2 } else { 30 }));
    let sql_threads: usize = arg_num("sql-threads", if smoke { 2 } else { 4 });
    let knn_threads: usize = arg_num("knn-threads", 2);
    let write_threads: usize = arg_num("write-threads", 1);
    let solve_threads: usize = arg_num(
        "threads",
        std::thread::available_parallelism().map(usize::from).unwrap_or(1).clamp(1, 8),
    );

    println!("== Engine load driver ==");
    println!(
        "preset: {preset}   duration: {}s   sql/knn/write threads: {sql_threads}/{knn_threads}/{write_threads}   durable: {durable}   search: {}",
        duration.as_secs_f64(),
        if exact { "exact" } else { "approx" }
    );

    let (tmdb, secs) = time(|| TmdbDataset::generate(TmdbConfig::preset(preset)));
    println!("  generation               {secs:>9.3}s  ({} movies)", tmdb.movie_titles.len());

    // Captured before the database moves into the engine: point-read key
    // range, apostrophe-free kNN query tokens and write literals (the SQL
    // tokenizer has no quote escaping, so quoted fragments must be clean).
    let movies = tmdb.db.table("movies").expect("movies generated");
    let max_id = movies
        .rows()
        .iter()
        .map(|r| match r[0] {
            Value::Int(id) => id,
            _ => 0,
        })
        .max()
        .unwrap_or(0);
    let language = movies
        .rows()
        .iter()
        .find_map(|r| match &r[3] {
            Value::Text(s) if !s.contains('\'') => Some(s.to_string()),
            _ => None,
        })
        .expect("an apostrophe-free language value exists");
    let tokens: Vec<String> =
        tmdb.movie_titles.iter().filter(|t| !t.contains('\'')).cloned().collect();
    assert!(!tokens.is_empty(), "no quotable movie titles");

    // `--durable` replays the generated state into a WAL-backed store
    // under group commit, so the write class exercises the logged path.
    let scratch = std::env::temp_dir().join(format!("retro_load_driver_{}", std::process::id()));
    let db = if durable {
        let _ = std::fs::remove_dir_all(&scratch);
        let (_, order) = retro_bench::schema_only_clone(&tmdb.db);
        let mut out = Database::open(&scratch).expect("scratch dir is writable");
        for name in &order {
            out.create_table(tmdb.db.table(name).expect("present").schema().clone())
                .expect("fresh database");
        }
        let mut loader = out.bulk();
        for (name, rows) in retro_bench::materialize_rows(&tmdb.db, &order) {
            let handle = loader.table(&name).expect("same schema set");
            loader.reserve(handle, rows.len());
            for row in rows {
                loader.stage(handle, row).expect("rows were valid at generation");
            }
        }
        loader.commit().expect("all stages succeeded");
        out.set_durability_policy(DurabilityPolicy::Group(256, Duration::from_millis(2)))
            .expect("durable database accepts a policy");
        out
    } else {
        tmdb.db.clone()
    };

    let engine = Engine::new(EngineConfig::default());
    let config = RetroConfig::default()
        .with_params(Hyperparameters::paper_rn().with_threads(solve_threads))
        .with_iterations(5);
    let shared = SharedDatabase::new(db);
    let ((), secs) = time(|| {
        engine.register("tmdb", shared.clone(), tmdb.base.clone(), config).expect("register");
    });
    println!("  register (initial solve) {secs:>9.3}s");

    let stop = AtomicBool::new(false);
    let refreshes = AtomicU64::new(0);
    let deadline = Instant::now() + duration;
    let started = Instant::now();

    let (sql_stats, knn_stats, write_stats, window_secs) = std::thread::scope(|s| {
        // Background refresher: fold landed writes into new generations
        // while the load runs, so sessions opened late see fresh data.
        let refresher = s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                if let Ok(Some(_)) = engine.refresh_if_stale("tmdb") {
                    refreshes.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });

        let sql_workers: Vec<_> = (0..sql_threads)
            .map(|w| {
                let engine = &engine;
                s.spawn(move || {
                    session_worker(
                        engine,
                        deadline,
                        exact,
                        |session, rng, batch| {
                            let mut samples = Vec::with_capacity(batch);
                            for _ in 0..batch {
                                let id = 1 + (rng.next() as i64) % max_id.max(1);
                                // Alternate a PK point read with an FK join
                                // probing the same key.
                                let sql_text = if rng.next() % 4 == 0 {
                                    format!(
                                        "SELECT m.title, r.text FROM reviews r \
                                         JOIN movies m ON r.movie_id = m.id WHERE m.id = {id}"
                                    )
                                } else {
                                    format!("SELECT title, popularity FROM movies WHERE id = {id}")
                                };
                                let (result, secs) = time(|| session.query(&sql_text));
                                result.expect("read-only SQL on a pinned generation");
                                samples.push(secs);
                            }
                            samples
                        },
                        0x5EED + w as u64,
                    )
                })
            })
            .collect();

        let knn_workers: Vec<_> = (0..knn_threads)
            .map(|w| {
                let engine = &engine;
                let tokens = &tokens;
                s.spawn(move || {
                    session_worker(
                        engine,
                        deadline,
                        exact,
                        |session, rng, batch| {
                            let mut samples = Vec::with_capacity(batch);
                            for _ in 0..batch {
                                let token = &tokens[rng.next() as usize % tokens.len()];
                                // Alternate a bare rank list with the
                                // rank-joins-relational shape.
                                let sql_text = if rng.next() % 4 == 0 {
                                    format!(
                                        "SELECT m.title, n.score FROM \
                                         NEAREST('movies', 'title', '{token}', 10) n \
                                         JOIN movies m ON m.title = n.token"
                                    )
                                } else {
                                    format!(
                                        "SELECT id, token, score FROM \
                                         NEAREST('movies', 'title', '{token}', 10) n"
                                    )
                                };
                                let (result, secs) = time(|| session.query(&sql_text));
                                let result = result.expect("NEAREST over a pinned generation");
                                assert!(result.rows.len() <= 10);
                                samples.push(secs);
                            }
                            samples
                        },
                        0xACE5 + w as u64,
                    )
                })
            })
            .collect();

        let write_workers: Vec<_> = (0..write_threads)
            .map(|w| {
                let engine = &engine;
                let language = &language;
                s.spawn(move || {
                    let mut stats = ClassStats { latencies: Vec::new(), shed: 0 };
                    // Ids partitioned per worker, past everything generated.
                    let mut next = max_id + 1 + (w as i64) * 10_000_000;
                    while Instant::now() < deadline {
                        let sql_text = format!(
                            "INSERT INTO movies VALUES ({next}, 'streamed movie {w}-{next}', \
                             'an overview of streamed movie {w}-{next}', '{language}', \
                             0.0, 0.0, 0.0)"
                        );
                        let (result, secs) = time(|| engine.execute("tmdb", &sql_text));
                        match result {
                            Ok(_) => {
                                stats.latencies.push(secs);
                                next += 1;
                            }
                            Err(EngineError::Overloaded(_)) => {
                                stats.shed += 1;
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(err) => panic!("write failed: {err}"),
                        }
                    }
                    stats
                })
            })
            .collect();

        let sql_stats: Vec<_> = sql_workers.into_iter().map(|h| h.join().expect("sql")).collect();
        let knn_stats: Vec<_> = knn_workers.into_iter().map(|h| h.join().expect("knn")).collect();
        let write_stats: Vec<_> =
            write_workers.into_iter().map(|h| h.join().expect("write")).collect();
        // The window closes when the last client finishes. Joining the
        // refresher can wait out a whole in-flight publish, which no
        // client operation ran during, so it stays outside the rates.
        let window_secs = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::Release);
        refresher.join().expect("refresher");
        (sql_stats, knn_stats, write_stats, window_secs)
    });

    if durable {
        // Push any trailing partial group to disk before reporting.
        shared.with_write(|db| db.flush_wal()).expect("flush trailing group");
    }

    println!("\n-- results ({window_secs:.1}s window) --");
    let mut rows = Vec::new();
    let (sql_count, sql_shed) = report_class("sql", sql_stats, window_secs, &mut rows);
    let (knn_count, knn_shed) = report_class("knn", knn_stats, window_secs, &mut rows);
    let (write_count, write_shed) = report_class("write", write_stats, window_secs, &mut rows);
    let published = refreshes.load(Ordering::Relaxed);
    println!(
        "  engine admitted {}   shed {}   refreshes published {published}",
        engine.admitted_count(),
        engine.shed_count()
    );
    rows.push(ReportRow::from_samples("engine/admitted", &[engine.admitted_count() as f64]));
    rows.push(ReportRow::from_samples("engine/shed", &[engine.shed_count() as f64]));
    rows.push(ReportRow::from_samples("engine/refreshes", &[published as f64]));

    let path = write_report(
        "load_driver",
        &format!("Engine load driver ({preset}, {}s)", duration.as_secs()),
        &rows,
    );
    println!("report: {}", path.display());

    if durable {
        let _ = std::fs::remove_dir_all(&scratch);
    }

    if smoke {
        let mut failures = Vec::new();
        if sql_count == 0 {
            failures.push("sql class made no progress");
        }
        if knn_count == 0 {
            failures.push("knn class made no progress");
        }
        if write_count == 0 {
            failures.push("write class made no progress");
        }
        if sql_shed + knn_shed + write_shed + engine.shed_count() > 0 {
            failures.push("default admission bounds shed traffic at smoke concurrency");
        }
        if failures.is_empty() {
            println!("SMOKE OK");
        } else {
            for failure in &failures {
                eprintln!("SMOKE FAILED: {failure}");
            }
            std::process::exit(1);
        }
    }
}
