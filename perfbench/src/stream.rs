//! `stream`: writes beside reads on a durable store. Two open-loop
//! clients follow fixed schedules, one of `INSERT`s and one of point reads
//! of recently written ids alternating with bare `NEAREST`s, each
//! operation timed from when it was due; one publisher calls
//! `Engine::refresh_if_stale` back to back. The write path, WAL, delta
//! refresh, store clone and IVF patch do most of the work.

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use retro_core::{Engine, EngineConfig, EngineError, IncrementalRetro, RefreshKind};
use retro_store::{Database, SharedDatabase, Value, WAL_FILE};

use crate::fixture::{self, Class, Counts, Rng, Settings, Stmt, DB};
use crate::layers;
use crate::report::{Outcome, StreamFacts};
use crate::schedule::{due_offset, wait_until, DueTimed};
use crate::stats::{median, Summary};
use crate::trace::Trace;

/// Scheduled operations per second of each kind: writes, point reads and
/// `NEAREST`s (so a ten-second run has 1000 of each, just enough for a p99).
pub const RATE_PER_KIND: f64 = 100.0;
/// Point reads pick among this many most recently written ids.
const RECENT: usize = 64;
/// Fewest warm-up publishes before the window, and the inserts each folds.
const MIN_WARMUP_PUBLISHES: usize = 2;
const WARMUP_ROWS: usize = 50;

/// True when the engine caches as many generations as it ever keeps.
fn generation_cache_full(engine: &Engine) -> bool {
    let cached = engine.pinned_generations(DB).map_or(0, |g| g.len());
    cached >= EngineConfig::default().generation_cache
}

pub fn run(settings: &Settings, origin: Instant, out_dir: &Path) -> (Outcome, Trace) {
    let mut out = Outcome::default();
    let t = Instant::now();
    let wal_dir = out_dir.join(format!("stream-wal-seed{}-{}", settings.seed, std::process::id()));
    let setup = fixture::setup(settings, Some(&wal_dir), &mut Trace::new(origin, false), &mut out);
    setup.report(&mut out);
    let fixture::Setup { built, keys, .. } = setup;
    let t = out.phase("setup", t);
    // Reach the steady state outside the window. The first delta publish
    // builds the target-sum cache every later one reuses; once the
    // engine's generation cache is full, every publish evicts (and frees)
    // its oldest generation, so every publish in the window does.
    let mut next_id = keys.max_movie + 1;
    let mut warmups = 0;
    while warmups < MIN_WARMUP_PUBLISHES || !generation_cache_full(&built.engine) {
        for _ in 0..WARMUP_ROWS {
            built.engine.execute(DB, &fixture::insert_sql(&keys, next_id)).expect("warm-up insert");
            next_id += 1;
        }
        built.engine.refresh(DB).expect("warm-up publish");
        warmups += 1;
    }
    let t = out.phase("warmup", t);
    built.shared.with_write(Database::flush_wal).expect("flush before the window");
    let wal_before = file_len(&wal_dir.join(WAL_FILE));

    let traced = settings.trace;
    let pending = Mutex::new(Vec::new());
    let writes_done = AtomicBool::new(false);
    let mut shadow = ShadowRefresh::new(origin);
    let (client, (fresh, publishes)) = std::thread::scope(|s| {
        let publisher = s.spawn(|| {
            let shadow = traced.then_some(&mut shadow);
            publish_until_visible(&built.engine, &pending, &writes_done, shadow)
        });
        let client =
            open_loop(&built.engine, &built.shared, &keys, next_id, settings, &pending, origin);
        writes_done.store(true, Ordering::Release);
        (client, publisher.join().expect("publisher"))
    });
    let generations_pinned = built.engine.pinned_generations(DB).map_or(0, |g| g.len());
    let t = out.phase("window_and_drain", t);

    out.metric("read_qps", "ops/s", client.reads_in_window as f64 / settings.seconds);
    report_writes(&mut out, &client.writes, &fresh);
    for (class, samples) in [(Class::Point, &client.points), (Class::Knn, &client.knns)] {
        let mut reads = fixture::ReadSamples::default();
        reads.latencies[class as usize] = samples.clone();
        fixture::report_reads(&mut out, &reads, &[class]);
    }
    out.attempted += client.counts.attempted;
    out.failed += client.counts.failed();
    let late = Summary::of(&client.late).map(|s| s.scaled(1e3));
    if let Some(s) = late {
        out.timing("client_late_ms", "ms", s);
    }

    // Outside the window: a join probe, recall on the final generation,
    // visibility of every acknowledged insert, then WAL recovery.
    fixture::read_probe(&built.engine, &keys, settings, &[Class::Join], &mut out);
    let t = out.phase("join_probe", t);
    fixture::recall_and_full_probe(&built.engine, &keys, &mut out);
    let session = built.engine.session(DB).expect("admitted");
    let movies = session.store().table("movies").expect("movies");
    let invisible = client.acked.iter().filter(|&&id| !movies.contains_pk(id)).count();
    out.check(invisible == 0, || {
        format!("{invisible} acknowledged inserts missing from the final generation")
    });
    drop(session);

    built.shared.with_write(Database::flush_wal).expect("flush after the run");
    let wal_after = file_len(&wal_dir.join(WAL_FILE));
    let live = built.shared.with_read(digest);
    let fixture::Built { engine, shared, .. } = built;
    drop((engine, shared));
    let start = Instant::now();
    let recovered = Database::recover(&wal_dir);
    let recover_s = start.elapsed().as_secs_f64();
    let same = recovered.as_ref().is_ok_and(|db| digest(db) == live);
    out.check(same, || "Database::recover of the WAL does not reproduce the live rows".into());
    drop(recovered);
    let _ = std::fs::remove_dir_all(&wal_dir);
    out.phase("checks", t);

    let mut trace = client.trace;
    if traced {
        let acked = client.acked.len().max(1) as f64;
        let mut counted = BTreeMap::from([
            ("engine.admitted", client.counts.admitted as f64),
            ("engine.shed", client.counts.shed as f64),
            ("wal.bytes_per_write", wal_after.saturating_sub(wal_before) as f64 / acked),
            ("engine.generations_pinned", generations_pinned as f64),
            ("store.recover_s", recover_s),
            ("client.late_ms", late.map_or(0.0, |s| s.p99)),
            ("incremental.dirty_rows", median(&shadow.dirty).unwrap_or(0.0)),
        ]);
        for (kind, n) in shadow.kinds {
            counted.insert(kind, n as f64);
        }
        trace.merge(shadow.trace);
        layers::collect(&mut out, &trace, &counted);
    }
    out.stream = Some(StreamFacts {
        publish_s: publishes,
        acked_writes: client.acked.len(),
        flush_policy: fixture::FLUSH_POLICY_NOTE,
        recover_s,
    });
    (out, trace)
}

/// Report write and freshness percentiles (ms).
fn report_writes(out: &mut Outcome, writes: &[f64], fresh: &[f64]) {
    for (name, samples) in [("write", writes), ("fresh", fresh)] {
        match Summary::of(samples) {
            Some(s) => {
                let s = s.scaled(1e3);
                out.metric(format!("{name}_p50_ms"), "ms", s.p50);
                out.metric(format!("{name}_p99_ms"), "ms", s.p99);
                out.timing(format!("{name}_ms"), "ms", s);
            }
            None => out.check(false, || format!("no {name} samples")),
        }
    }
}

/// Publisher loop: `Engine::refresh_if_stale` back to back; after each
/// publish, a newly opened session looks for every acknowledged write
/// still pending and records its freshness. Returns once writes are done
/// and every acknowledged write is visible (or a minute passed), with the
/// freshness samples and each publish's seconds. Traced, `shadow` re-runs
/// each refresh's constituents after its freshness probe.
fn publish_until_visible(
    engine: &Engine,
    pending: &Mutex<Vec<(i64, Instant)>>,
    writes_done: &AtomicBool,
    mut shadow: Option<&mut ShadowRefresh>,
) -> (Vec<f64>, Vec<f64>) {
    let mut fresh = Vec::new();
    let mut publishes = Vec::new();
    let mut drain_deadline = None;
    loop {
        let done = writes_done.load(Ordering::Acquire);
        if done {
            let deadline =
                *drain_deadline.get_or_insert_with(|| Instant::now() + Duration::from_secs(60));
            if pending.lock().expect("pending").is_empty() || Instant::now() > deadline {
                break;
            }
        }
        if let Some(shadow) = shadow.as_mut() {
            shadow.before(engine);
        }
        let start = Instant::now();
        let published = engine.refresh_if_stale(DB).expect("refresh");
        let end = Instant::now();
        let Some(generation) = published else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        publishes.push(end.duration_since(start).as_secs_f64());
        let waiting = std::mem::take(&mut *pending.lock().expect("pending"));
        let session = engine.session(DB).expect("publisher session admitted");
        let mut still = Vec::new();
        for (id, ack) in waiting {
            let sql = format!("SELECT id FROM movies WHERE id = {id}");
            let found = session.query(&sql).is_ok_and(|r| r.rows.len() == 1);
            if found {
                fresh.push(ack.elapsed().as_secs_f64());
            } else {
                still.push((id, ack));
            }
        }
        drop(session);
        pending.lock().expect("pending").extend(still);
        if let Some(shadow) = shadow.as_mut() {
            shadow.after(engine, generation, start, end);
        }
    }
    (fresh, publishes)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Order-sensitive digest of every table's rows.
fn digest(db: &Database) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for table in db.tables() {
        h.write(table.name().as_bytes());
        h.write_usize(table.len());
        for row in table.rows() {
            for value in row {
                match value {
                    Value::Null => h.write_u8(0),
                    Value::Int(v) => {
                        h.write_u8(1);
                        h.write_i64(*v);
                    }
                    Value::Float(v) => {
                        h.write_u8(2);
                        h.write_u64(v.to_bits());
                    }
                    Value::Text(s) => {
                        h.write_u8(3);
                        h.write(s.as_bytes());
                        h.write_u8(0xFF);
                    }
                }
            }
        }
    }
    h.finish()
}

/// What the open-loop clients measured (seconds, from due time).
struct Client {
    writes: Vec<f64>,
    points: Vec<f64>,
    knns: Vec<f64>,
    late: Vec<f64>,
    acked: Vec<i64>,
    counts: Counts,
    /// Reads finished by the end of the scheduled window (the throughput
    /// numerator): an open-loop reader that falls behind its schedule
    /// loses the reads it has not served by then.
    reads_in_window: u64,
    trace: Trace,
}

/// The two open-loop clients, sharing one start: a writer with an
/// `INSERT` due every `1 / RATE_PER_KIND` seconds, and a reader
/// alternating point reads of recently acknowledged ids with bare
/// `NEAREST`s, one due every `1 / (2 * RATE_PER_KIND)` seconds.
fn open_loop(
    engine: &Engine,
    shared: &SharedDatabase,
    keys: &fixture::Keys,
    first_id: i64,
    settings: &Settings,
    pending: &Mutex<Vec<(i64, Instant)>>,
    origin: Instant,
) -> Client {
    let recent = Mutex::new(std::collections::VecDeque::<i64>::with_capacity(RECENT));
    let start = Instant::now();
    let window_end = start + Duration::from_secs_f64(settings.seconds);
    let slots = |rate: f64| (settings.seconds * rate) as u64;
    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut c = Client::new(origin, settings.trace);
            for j in 0..slots(RATE_PER_KIND) {
                let due = start + due_offset(j, RATE_PER_KIND);
                let sent = wait_until(due);
                let id = first_id + j as i64;
                c.counts.attempted += 1;
                let root = c.trace.open("stream.write", sent, None, j);
                if c.trace.enabled() {
                    let wait = Instant::now();
                    drop(shared.write());
                    c.trace.record("store.write_wait", wait, Instant::now(), Some(root), j);
                }
                let exec = Instant::now();
                let result = engine.execute(DB, &fixture::insert_sql(keys, id));
                let done = Instant::now();
                c.trace.record("engine.execute", exec, done, Some(root), j);
                c.trace.close(root, done);
                match result {
                    Ok(_) => {
                        c.counts.admitted += 1;
                        c.acked.push(id);
                        pending.lock().expect("pending").push((id, done));
                        let mut recent = recent.lock().expect("recent");
                        if recent.len() == RECENT {
                            recent.pop_front();
                        }
                        recent.push_back(id);
                        drop(recent);
                        let t = DueTimed::new(due, sent, done);
                        c.writes.push(t.latency);
                        c.late.push(t.late);
                    }
                    Err(EngineError::Overloaded(_)) => c.counts.shed += 1,
                    Err(_) => c.counts.errors += 1,
                }
            }
            c
        });
        let reader = s.spawn(|| {
            let mut c = Client::new(origin, settings.trace);
            let mut rng = Rng::new(settings.seed ^ 0x5713);
            let rate = 2.0 * RATE_PER_KIND;
            for j in 0..slots(rate) {
                let due = start + due_offset(j, rate);
                let sent = wait_until(due);
                let point = j % 2 == 0;
                let stmt = if point {
                    let recent = recent.lock().expect("recent");
                    let id = if recent.is_empty() {
                        1 + rng.below(keys.max_movie as usize) as i64
                    } else {
                        recent[rng.below(recent.len())]
                    };
                    drop(recent);
                    Stmt {
                        class: Class::Point,
                        sql: format!("SELECT title, popularity FROM movies WHERE id = {id}"),
                        token: None,
                    }
                } else {
                    fixture::statement(keys, Class::Knn, true, &mut rng)
                };
                let request = (1 << 40) | j;
                if let Some((_, done)) =
                    fixture::run_read(engine, &stmt, &mut c.counts, &mut c.trace, request)
                {
                    let t = DueTimed::new(due, sent, done);
                    if point { &mut c.points } else { &mut c.knns }.push(t.latency);
                    c.late.push(t.late);
                    c.reads_in_window += u64::from(done <= window_end);
                }
            }
            c
        });
        (writer.join().expect("writer"), reader.join().expect("reader"))
    });
    let mut c = writer;
    c.points = reader.points;
    c.knns = reader.knns;
    c.late.extend(reader.late);
    c.counts.add(reader.counts);
    c.reads_in_window = reader.reads_in_window;
    c.trace.merge(reader.trace);
    c
}

impl Client {
    fn new(origin: Instant, traced: bool) -> Self {
        Self {
            writes: Vec::new(),
            points: Vec::new(),
            knns: Vec::new(),
            late: Vec::new(),
            acked: Vec::new(),
            counts: Counts::default(),
            reads_in_window: 0,
            trace: Trace::new(origin, traced),
        }
    }
}

/// Traced publishes: each `Engine::refresh` gets its constituent public
/// calls re-run as children of its span, and its kind counted.
///
/// Before the publish, [`ShadowRefresh::before`] copies the service's
/// incremental session (under the session lock only, which writers never
/// take). After it, [`ShadowRefresh::after`] re-runs on the published
/// generation's frozen store, which holds exactly the rows the refresh
/// saw: `Database::clone`, then `prepare_refresh` and `complete_refresh` on
/// the copy. So the dirty rows are those the measured publish folded, and
/// no re-run holds the live store's guard.
pub struct ShadowRefresh {
    pub trace: Trace,
    /// The service's session as it was before the next publish.
    before: Option<IncrementalRetro>,
    /// Dirty rows of each publish's plan.
    pub dirty: Vec<f64>,
    /// Publishes per refresh kind.
    pub kinds: [(&'static str, u64); 3],
}

impl ShadowRefresh {
    pub fn new(origin: Instant) -> Self {
        Self {
            trace: Trace::new(origin, true),
            before: None,
            dirty: Vec::new(),
            kinds: [("refresh.full", 0), ("refresh.delta", 0), ("refresh.nochange", 0)],
        }
    }

    /// Before `Engine::refresh_if_stale`: copy the session the refresh
    /// will start from, when there is something to publish.
    pub fn before(&mut self, engine: &Engine) {
        self.before = None;
        let Ok(service) = engine.service(DB) else { return };
        if service.out_of_date() {
            service.tune_session(|session| self.before = Some(session.clone()));
        }
    }

    /// After publishing `generation` (the refresh call ran from `start` to
    /// `end`): record the refresh span and its re-run constituents, and
    /// count its kind.
    pub fn after(&mut self, engine: &Engine, generation: u64, start: Instant, end: Instant) {
        let request = self.trace.spans().len() as u64;
        let parent = self.trace.record("engine.refresh", start, end, None, request);
        let Ok(service) = engine.service(DB) else { return };
        let slot = match service.last_refresh() {
            Some(RefreshKind::Full) => 0,
            Some(RefreshKind::Delta) => 1,
            _ => 2,
        };
        self.kinds[slot].1 += 1;

        let Some(mut copy) = self.before.take() else { return };
        let Ok(session) = engine.session(DB) else { return };
        if session.generation() != generation {
            return;
        }
        let store = session.store();
        let trace = &mut self.trace;
        let (clone, _) = trace.time("store.clone", Some(parent), request, || store.clone());
        drop(clone);
        let (plan, _) = trace.time("incremental.prepare", Some(parent), request, || {
            copy.prepare_refresh(store, service.base())
        });
        let Ok(plan) = plan else { return };
        self.dirty.push(plan.dirty_rows().map_or(plan.len(), <[u32]>::len) as f64);
        trace.time("incremental.solve", Some(parent), request, || copy.complete_refresh(plan));
    }
}
