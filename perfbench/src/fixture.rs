//! What every workload shares: the generated TMDB input, the cold build
//! (ingest → register → first `NEAREST`), the statement shapes, the
//! closed-loop read client and the fixed-size probes.

use std::path::Path;
use std::time::{Duration, Instant};

use retro_core::relations::extract_relations;
use retro_core::serve::SearchMode;
use retro_core::solver::solve_rn_parallel;
use retro_core::{
    Engine, EngineConfig, EngineError, Hyperparameters, RetroConfig, RetrofitProblem, Session,
    TextValueCatalog,
};
use retro_datasets::{SizePreset, TmdbConfig, TmdbDataset};
use retro_embed::EmbeddingSet;
use retro_nn::{IvfConfig, IvfIndex};
use retro_store::sql::QueryResult;
use retro_store::{Database, DurabilityPolicy, SharedDatabase, Value};

use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::Trace;

/// Name the database is registered under.
pub const DB: &str = "tmdb";
/// Neighbours per `NEAREST`.
pub const K: usize = 10;
/// RN iterations of the initial solve and every refresh.
pub const ITERATIONS: usize = 5;
/// Distinct `NEAREST` query tokens per run.
pub const QUERY_TOKENS: usize = 1024;
/// The first this many query tokens form the recall panel.
pub const RECALL_PANEL: usize = 32;
/// Samples per class a probe collects: twice what a supported p99 needs,
/// so that p99 rests on 20 samples beyond it.
pub const PROBE_SAMPLES: usize = 2000;
/// The `stream` store's flush policy, as `load_driver --durable` uses it.
pub const FLUSH_POLICY: DurabilityPolicy = DurabilityPolicy::Group(256, Duration::from_millis(2));
pub const FLUSH_POLICY_NOTE: &str =
    "Group(256, 2 ms): WAL records are written to the OS in groups, without fsync";
/// Client threads of every workload (sized for a two-core machine).
pub const CLIENT_THREADS: usize = 2;
/// Solver, IVF build and exact-scan threads.
pub const SOLVER_THREADS: usize = 2;
/// Set-up repetitions (generation and cold build) of every workload;
/// `setup_s` and `build_s` are their medians.
pub const SETUP_REPS: usize = 3;
/// Equal slices of a closed loop's window; `read_qps` is the median of
/// their rates.
pub const QPS_SLICES: usize = 10;

/// Run-wide settings.
#[derive(Clone, Debug)]
pub struct Settings {
    pub preset: SizePreset,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Settings {
    pub fn retro_config(&self) -> RetroConfig {
        RetroConfig::default()
            .with_params(Hyperparameters::paper_rn().with_threads(SOLVER_THREADS))
            .with_iterations(ITERATIONS)
    }
}

/// A deterministic stream of pseudo-random numbers (splitmix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A permutation of `0..3`: the class order of one block.
    pub fn block3(&mut self) -> [usize; 3] {
        const ORDERS: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        ORDERS[self.below(6)]
    }
}

/// Keys and literals the statements draw from, captured at generation.
#[derive(Clone, Debug)]
pub struct Keys {
    pub max_movie: i64,
    pub max_person: i64,
    /// Quotable movie titles: the `NEAREST` query panel.
    pub tokens: Vec<String>,
    pub genres: Vec<String>,
    pub keywords: Vec<String>,
    /// Languages of randomly drawn generated movies: inserted movies
    /// follow the generated language mix, hubs included.
    pub languages: Vec<String>,
}

/// How many generated movies' languages the inserts cycle through.
const LANGUAGE_DRAWS: usize = 1024;

/// The generated input: pre-materialized rows in a creation order that
/// never sees a dangling foreign key, the base embedding and the keys.
pub struct Input {
    pub schema: Vec<retro_store::TableSchema>,
    pub rows: Vec<(String, Vec<Vec<Value>>)>,
    pub base: EmbeddingSet,
    pub keys: Keys,
}

fn quotable(text: &str) -> bool {
    !text.contains('\'')
}

fn max_int_key(db: &Database, table: &str) -> i64 {
    db.table(table)
        .expect("generated table")
        .rows()
        .iter()
        .filter_map(|r| match r[0] {
            Value::Int(id) => Some(id),
            _ => None,
        })
        .max()
        .unwrap_or(1)
}

fn texts(db: &Database, table: &str, col: usize) -> Vec<String> {
    db.table(table)
        .expect("generated table")
        .rows()
        .iter()
        .filter_map(|r| match &r[col] {
            Value::Text(s) if quotable(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// Generate the dataset and materialize its rows; the generated
/// `Database` is dropped, so only the rows move on into the build.
pub fn generate(settings: &Settings) -> Input {
    let config = TmdbConfig { seed: settings.seed, ..TmdbConfig::preset(settings.preset) };
    let tmdb = TmdbDataset::generate(config);
    let db = tmdb.db;

    let mut rng = Rng::new(settings.seed ^ 0x70C3);
    let titles: Vec<&String> = tmdb.movie_titles.iter().filter(|t| quotable(t)).collect();
    let mut tokens = Vec::with_capacity(QUERY_TOKENS);
    while tokens.len() < QUERY_TOKENS.min(titles.len()) {
        let t = titles[rng.below(titles.len())];
        if !tokens.contains(t) {
            tokens.push(t.clone());
        }
    }
    let movie_languages = texts(&db, "movies", 3);
    assert!(!movie_languages.is_empty(), "no quotable language");
    let languages = (0..LANGUAGE_DRAWS)
        .map(|_| movie_languages[rng.below(movie_languages.len())].clone())
        .collect();
    let keys = Keys {
        max_movie: max_int_key(&db, "movies"),
        max_person: max_int_key(&db, "persons"),
        tokens,
        genres: texts(&db, "genres", 1),
        keywords: texts(&db, "keywords", 1),
        languages,
    };

    // Parents before children: retry until every schema is creatable.
    let mut probe = Database::new();
    let mut remaining: Vec<_> = db.tables().map(|t| t.schema().clone()).collect();
    let mut schema = Vec::new();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|s| {
            let failed = probe.create_table(s.clone()).is_err();
            if !failed {
                schema.push(s.clone());
            }
            failed
        });
        assert!(remaining.len() < before, "foreign-key cycle in the generated schema");
    }
    let rows = schema
        .iter()
        .map(|s| (s.name.clone(), db.table(&s.name).expect("present").rows().to_vec()))
        .collect();
    Input { schema, rows, base: tmdb.base, keys }
}

/// A built engine with its live database.
pub struct Built {
    pub engine: Engine,
    pub shared: SharedDatabase,
    pub build_s: f64,
}

/// What [`setup`] leaves: the last build, its keys, and the seconds of
/// every generation and every build.
pub struct Setup {
    pub built: Built,
    pub keys: Keys,
    pub generate_s: Vec<f64>,
    pub build_s: Vec<f64>,
}

/// Set up [`SETUP_REPS`] times: generate the input (same seed, same
/// input), then [`build`] it cold, into a fresh WAL directory at
/// `durable_dir` when one is given. The previous build is dropped before
/// the next generation starts, so only one engine is ever alive. Keeps the
/// last build.
pub fn setup(
    settings: &Settings,
    durable_dir: Option<&Path>,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Setup {
    let mut generate_s = Vec::new();
    let mut build_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        if let Some(dir) = durable_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        let input = generate(settings);
        generate_s.push(t.elapsed().as_secs_f64());
        let keys = input.keys.clone();
        let built = build(settings, input, durable_dir, trace, out);
        build_s.push(built.build_s);
        last = Some((built, keys));
    }
    let (built, keys) = last.expect("at least one repetition");
    Setup { built, keys, generate_s, build_s }
}

impl Setup {
    /// Report `setup_s` and `build_s`, the medians of the repetitions, and
    /// keep the builds' summary for the report.
    pub fn report(&self, out: &mut Outcome) {
        let builds = Summary::of(&self.build_s).expect("built at least once");
        out.metric("setup_s", "s", median(&self.generate_s).expect("set up at least once"));
        out.metric("build_s", "s", builds.p50);
        out.timing("build_s", "s", builds);
    }
}

/// Cold build: ingest the rows through `BulkLoader` (into a WAL-backed
/// store under [`FLUSH_POLICY`] when `durable_dir` is given), register the
/// database (extract, assemble, RN solve, IVF build, generation-1 pin) and
/// answer the first `NEAREST` (exact, checked against the exact scan).
///
/// Traced, the register span gets the constituent public calls re-run on
/// the same inputs as children, so its self time is what the engine adds.
pub fn build(
    settings: &Settings,
    input: Input,
    durable_dir: Option<&Path>,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Built {
    let Input { schema, rows, base, keys } = input;
    let request = trace.spans().len() as u64;
    let start = Instant::now();
    let root = trace.open("build", start, None, request);

    let (mut db, _) = trace.time("store.ingest", Some(root), request, || {
        let mut db = match durable_dir {
            Some(dir) => Database::open(dir).expect("WAL directory is writable"),
            None => Database::new(),
        };
        for s in &schema {
            db.create_table(s.clone()).expect("creation order is valid");
        }
        let mut loader = db.bulk();
        for (name, rows) in rows {
            let handle = loader.table(&name).expect("same schema");
            loader.reserve(handle, rows.len());
            for row in rows {
                loader.stage(handle, row).expect("rows were valid at generation");
            }
        }
        loader.commit().expect("all stages succeeded");
        db
    });
    if durable_dir.is_some() {
        db.set_durability_policy(FLUSH_POLICY).expect("durable store accepts a policy");
    }

    let engine = Engine::new(EngineConfig::default());
    let shared = SharedDatabase::new(db);
    let ((), register) = trace.time("engine.register", Some(root), request, || {
        engine
            .register(DB, shared.clone(), base.clone(), settings.retro_config())
            .expect("register");
    });

    let token = keys.tokens[0].clone();
    let sql = bare_nearest(&token);
    let (first, _) = trace.time("engine.first_nearest", Some(root), request, || {
        let session = engine.session(DB).expect("admitted");
        let result = session.query(&sql).expect("first NEAREST");
        (result, session)
    });
    let end = Instant::now();
    trace.close(root, end);
    let build_s = end.duration_since(start).as_secs_f64();

    // Oracle: the first answer equals the exact scan of the same
    // generation (ids and scores bit for bit).
    let (result, session) = first;
    let oracle = session.snapshot().nearest_token("movies", "title", &token, K, SearchMode::Exact);
    out.check(oracle.as_ref().is_some_and(|o| same_ranking(&result, o)), || {
        format!("first NEAREST('{token}') differs from the exact scan")
    });

    if trace.enabled() {
        let snapshot = session.snapshot();
        let guard = shared.read();
        let (catalog, _) = trace.time("catalog.extract", Some(register), request, || {
            TextValueCatalog::extract(&guard, &[])
        });
        let (groups, _) = trace.time("relations.extract", Some(register), request, || {
            extract_relations(&guard, &catalog, &[])
        });
        let (problem, _) = trace.time("problem.assemble", Some(register), request, || {
            RetrofitProblem::from_parts(catalog, groups, &base)
        });
        let params = settings.retro_config().params;
        let (solved, _) = trace.time("solver.solve", Some(register), request, || {
            solve_rn_parallel(&problem, &params, ITERATIONS, SOLVER_THREADS)
        });
        drop((solved, problem));
        let embeddings = &snapshot.output().embeddings;
        let norms = snapshot.norms();
        let (index, _) = trace.time("ann.build", Some(register), request, || {
            IvfIndex::build(embeddings, norms, IvfConfig::auto(embeddings.rows()), SOLVER_THREADS)
        });
        drop(index);
        let (clone, _) = trace.time("store.clone", Some(register), request, || guard.clone());
        drop(clone);
    }
    drop(session);
    Built { engine, shared, build_s }
}

/// True when a `NEAREST` SQL result lists exactly `oracle`'s ids and
/// scores in order.
pub fn same_ranking(result: &QueryResult, oracle: &[(usize, f32)]) -> bool {
    result.rows.len() == oracle.len()
        && result.rows.iter().zip(oracle).all(|(row, &(id, score))| {
            row[0] == Value::Int(id as i64) && row[2] == Value::Float(f64::from(score))
        })
}

// ---------------------------------------------------------------------------
// Statement shapes.
// ---------------------------------------------------------------------------

/// Read classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Point,
    Join,
    Knn,
}

impl Class {
    pub const ALL: [Class; 3] = [Class::Point, Class::Join, Class::Knn];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::Join => "join",
            Class::Knn => "knn",
        }
    }

    fn statement_span(self) -> &'static str {
        match self {
            Class::Point => "statement.point",
            Class::Join => "statement.join",
            Class::Knn => "statement.knn",
        }
    }

    fn query_span(self) -> &'static str {
        match self {
            Class::Point => "store.query.point",
            Class::Join => "store.query.join",
            Class::Knn => "store.query.knn",
        }
    }
}

/// One read statement.
#[derive(Clone, Debug)]
pub struct Stmt {
    pub class: Class,
    pub sql: String,
    /// The `NEAREST` query token, for knn statements.
    pub token: Option<String>,
}

/// Statement shape names, by the `shape` argument of [`shaped`].
pub const SHAPES: [&str; 8] = [
    "point.movie",
    "point.person",
    "join.review_movie",
    "join.movie_director_person",
    "join.count_genre",
    "join.count_keyword_genre",
    "knn.bare",
    "knn.join_movies",
];

pub fn bare_nearest(token: &str) -> String {
    format!("SELECT id, token, score FROM NEAREST('movies', 'title', '{token}', {K}) n")
}

/// A statement of shape `shape` with keys drawn from `rng`.
pub fn shaped(keys: &Keys, shape: usize, rng: &mut Rng) -> Stmt {
    let movie = 1 + rng.below(keys.max_movie as usize) as i64;
    let pick = |rng: &mut Rng, pool: &[String]| pool[rng.below(pool.len())].clone();
    let (class, sql, token) = match shape {
        0 => {
            (Class::Point, format!("SELECT title, popularity FROM movies WHERE id = {movie}"), None)
        }
        1 => {
            let person = 1 + rng.below(keys.max_person as usize) as i64;
            (Class::Point, format!("SELECT name FROM persons WHERE id = {person}"), None)
        }
        2 => (
            Class::Join,
            format!(
                "SELECT m.title, r.text FROM reviews r JOIN movies m ON r.movie_id = m.id \
                 WHERE m.id = {movie}"
            ),
            None,
        ),
        3 => (
            Class::Join,
            format!(
                "SELECT m.title, p.name FROM movies m \
                 JOIN movie_director d ON d.movie_id = m.id \
                 JOIN persons p ON p.id = d.movie_director_ref WHERE m.id = {movie}"
            ),
            None,
        ),
        4 => {
            let genre = pick(rng, &keys.genres);
            (
                Class::Join,
                format!(
                    "SELECT COUNT(*) FROM movie_genre mg \
                     JOIN genres g ON g.id = mg.movie_genre_ref \
                     JOIN movies m ON m.id = mg.movie_id WHERE g.name = '{genre}'"
                ),
                None,
            )
        }
        5 => {
            let keyword = pick(rng, &keys.keywords);
            let genre = pick(rng, &keys.genres);
            (
                Class::Join,
                format!(
                    "SELECT COUNT(*) FROM movie_keyword mk \
                     JOIN keywords k ON k.id = mk.movie_keyword_ref \
                     JOIN movie_genre mg ON mg.movie_id = mk.movie_id \
                     JOIN genres g ON g.id = mg.movie_genre_ref \
                     WHERE k.name = '{keyword}' AND g.name = '{genre}'"
                ),
                None,
            )
        }
        6 => {
            let token = pick(rng, &keys.tokens);
            (Class::Knn, bare_nearest(&token), Some(token))
        }
        7 => {
            let token = pick(rng, &keys.tokens);
            let sql = format!(
                "SELECT m.title, n.score FROM NEAREST('movies', 'title', '{token}', {K}) n \
                 JOIN movies m ON m.title = n.token"
            );
            (Class::Knn, sql, Some(token))
        }
        _ => unreachable!("shape out of range"),
    };
    Stmt { class, sql, token }
}

/// A statement of `class` in the `serve` mix: points split evenly between
/// movies and persons; joins three pk-anchored for every link-table
/// `COUNT(*)`; knn three bare `NEAREST` for every one joined to movies.
/// `bare_knn` restricts knn to the bare shape.
pub fn statement(keys: &Keys, class: Class, bare_knn: bool, rng: &mut Rng) -> Stmt {
    let r = rng.below(8);
    let shape = match class {
        Class::Point => r % 2,
        Class::Join => [2, 3, 2, 3, 2, 3, 4, 5][r],
        Class::Knn if bare_knn || !r.is_multiple_of(4) => 6,
        Class::Knn => 7,
    };
    shaped(keys, shape, rng)
}

/// A session in the benchmark's search mode: default IVF probes.
pub fn open_session(engine: &Engine) -> Result<Session, EngineError> {
    let mut session = engine.session(DB)?;
    let probes = session.snapshot().default_probes();
    session.set_search_mode(SearchMode::Approx { probes });
    Ok(session)
}

/// Admission and error counts a client keeps per statement.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub attempted: u64,
    pub admitted: u64,
    pub shed: u64,
    pub errors: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.admitted += other.admitted;
        self.shed += other.shed;
        self.errors += other.errors;
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errors
    }
}

/// Run one read statement the way `serve` does: open a session (one
/// admission per statement), query, drop the session. Returns when it
/// started and finished, `None` when shed or failed. Traced, the statement
/// gets spans for the session and the query, and the query gets re-run
/// constituents as children: `EXPLAIN` (planning, itself parent of a
/// parse) for point and join, `nearest_token` for knn.
pub fn run_read(
    engine: &Engine,
    stmt: &Stmt,
    counts: &mut Counts,
    trace: &mut Trace,
    request: u64,
) -> Option<(Instant, Instant)> {
    counts.attempted += 1;
    let start = Instant::now();
    let session = match open_session(engine) {
        Ok(s) => s,
        Err(EngineError::Overloaded(_)) => {
            counts.shed += 1;
            return None;
        }
        Err(_) => {
            counts.errors += 1;
            return None;
        }
    };
    counts.admitted += 1;
    let opened = Instant::now();
    let result = session.query(&stmt.sql);
    let done = Instant::now();
    if result.is_err() {
        counts.errors += 1;
        return None;
    }
    if trace.enabled() {
        let root = trace.open(stmt.class.statement_span(), start, None, request);
        trace.record("engine.session", start, opened, Some(root), request);
        let query = trace.record(stmt.class.query_span(), opened, done, Some(root), request);
        trace.close(root, done);
        match &stmt.token {
            Some(token) => {
                trace.time("serve.nearest", Some(query), request, || {
                    session.nearest_token("movies", "title", token, K)
                });
            }
            None => {
                let explain = format!("EXPLAIN {}", stmt.sql);
                let plan = trace.open("store.plan", Instant::now(), Some(query), request);
                let _ = session.query(&explain);
                trace.close(plan, Instant::now());
                let _ = trace.time("store.parse", Some(plan), request, || {
                    retro_store::sql::parse_statement(&explain)
                });
            }
        }
    }
    Some((start, done))
}

/// Per-class latency samples (seconds) with the client's counts.
#[derive(Debug, Default)]
pub struct ReadSamples {
    pub latencies: [Vec<f64>; 3],
    pub counts: Counts,
    /// When each completed statement finished (the throughput samples).
    pub done: Vec<Instant>,
}

impl ReadSamples {
    pub fn merge(&mut self, other: ReadSamples) {
        for (mine, theirs) in self.latencies.iter_mut().zip(other.latencies) {
            mine.extend(theirs);
        }
        self.counts.add(other.counts);
        self.done.extend(other.done);
    }

    pub fn class(&self, class: Class) -> &[f64] {
        &self.latencies[class as usize]
    }

    /// Statements completed per second in the window of `seconds` from
    /// `start`: the median rate of its [`QPS_SLICES`] equal slices, so a
    /// stall in one slice moves the figure less than it moves the mean.
    /// Statements finishing after the window do not count.
    pub fn qps(&self, start: Instant, seconds: f64) -> f64 {
        let offsets: Vec<f64> =
            self.done.iter().map(|done| done.duration_since(start).as_secs_f64()).collect();
        crate::stats::sliced_rate(&offsets, seconds, QPS_SLICES)
    }
}

/// What closed-loop read clients send: blocks of one statement per class
/// of `classes` in the `serve` mix and a seeded order, from `threads`
/// threads, until `stop`.
#[derive(Clone, Copy, Debug)]
pub struct ReadLoad<'a> {
    pub classes: &'a [Class],
    pub threads: usize,
    pub seed: u64,
    pub stop: Stop,
}

/// When a closed-loop client stops.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// At the deadline (statements finishing after it do not count).
    Deadline(Instant),
    /// After this many blocks of one statement per class.
    Blocks(usize),
}

/// Closed-loop read clients sending `load`, one session per statement.
pub fn closed_loop(
    engine: &Engine,
    keys: &Keys,
    load: &ReadLoad,
    origin: Instant,
    traced: bool,
) -> (ReadSamples, Trace) {
    let per_thread: Vec<(ReadSamples, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..load.threads)
            .map(|t| {
                s.spawn(move || {
                    let mut rng = Rng::new(load.seed.wrapping_mul(31).wrapping_add(t as u64 + 1));
                    let mut trace = Trace::new(origin, traced);
                    let mut out = ReadSamples::default();
                    let mut blocks = 0usize;
                    'blocks: loop {
                        if let Stop::Blocks(n) = load.stop {
                            if blocks >= n {
                                break;
                            }
                        }
                        let order = rng.block3().map(|c| Class::ALL[c]);
                        for class in order.into_iter().filter(|c| load.classes.contains(c)) {
                            if let Stop::Deadline(deadline) = load.stop {
                                if Instant::now() >= deadline {
                                    break 'blocks;
                                }
                            }
                            let stmt = statement(keys, class, false, &mut rng);
                            let request = ((t as u64) << 40) | out.counts.attempted;
                            let ran = run_read(engine, &stmt, &mut out.counts, &mut trace, request);
                            if let Some((start, done)) = ran {
                                out.latencies[class as usize].push((done - start).as_secs_f64());
                                out.done.push(done);
                            }
                        }
                        blocks += 1;
                    }
                    (out, trace)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("read client")).collect()
    });
    let mut samples = ReadSamples::default();
    let mut trace = Trace::new(origin, traced);
    for (s, t) in per_thread {
        samples.merge(s);
        trace.merge(t);
    }
    (samples, trace)
}

/// Report the p99 (ms) of each read class, and keep the summaries (with
/// the median) for the report. Read medians are not end-to-end metrics:
/// these sub-millisecond and memory-bound shapes move by more than any
/// usable bound between runs on a shared machine.
pub fn report_reads(out: &mut Outcome, samples: &ReadSamples, classes: &[Class]) {
    for &class in classes {
        let name = class.name();
        let Some(s) = Summary::of(samples.class(class)) else {
            out.check(false, || format!("no {name} samples"));
            continue;
        };
        let s = s.scaled(1e3);
        if !s.p99_supported() {
            eprintln!("warning: {name} class has {} samples; p99 is not supported", s.count);
        }
        out.metric(format!("{name}_p99_ms"), "ms", s.p99);
        out.timing(format!("{name}_ms"), "ms", s);
    }
}

/// Fixed read probe for workloads whose own window has no such traffic:
/// [`PROBE_SAMPLES`] statements per class of `classes` from
/// [`CLIENT_THREADS`] closed-loop clients.
pub fn read_probe(
    engine: &Engine,
    keys: &Keys,
    settings: &Settings,
    classes: &[Class],
    out: &mut Outcome,
) {
    let start = Instant::now();
    let load = ReadLoad {
        classes,
        threads: CLIENT_THREADS,
        seed: settings.seed ^ 0x9B0B,
        stop: Stop::Blocks(PROBE_SAMPLES.div_ceil(CLIENT_THREADS)),
    };
    let (samples, _) = closed_loop(engine, keys, &load, start, false);
    report_reads(out, &samples, classes);
    out.attempted += samples.counts.attempted;
    out.failed += samples.counts.failed();
}

/// An `INSERT` of a new movie `id`, in the generated language mix.
pub fn insert_sql(keys: &Keys, id: i64) -> String {
    let language = &keys.languages[id as usize % keys.languages.len()];
    format!(
        "INSERT INTO movies VALUES ({id}, 'streamed movie {id}', \
         'an overview of streamed movie {id}', '{language}', 0.0, 0.0, 0.0)"
    )
}

/// Mean recall@10 of default-probe `NEAREST` against the exact scan over
/// the query panel, and the check that probing every list reproduces the
/// exact scan bit for bit.
pub fn recall_and_full_probe(engine: &Engine, keys: &Keys, out: &mut Outcome) {
    let session = engine.session(DB).expect("admitted");
    let snapshot = session.snapshot();
    let probes = snapshot.default_probes();
    let nlist = snapshot.index().nlist();
    let mut overlap = 0usize;
    let mut total = 0usize;
    for (i, token) in keys.tokens.iter().take(RECALL_PANEL).enumerate() {
        let exact = snapshot.nearest_token("movies", "title", token, K, SearchMode::Exact);
        let approx =
            snapshot.nearest_token("movies", "title", token, K, SearchMode::Approx { probes });
        let (Some(exact), Some(approx)) = (exact, approx) else {
            out.check(false, || format!("query token '{token}' missing from the catalog"));
            continue;
        };
        total += exact.len();
        overlap += approx.iter().filter(|(id, _)| exact.iter().any(|(e, _)| e == id)).count();
        if i % 4 == 0 {
            let full = snapshot.nearest_token(
                "movies",
                "title",
                token,
                K,
                SearchMode::Approx { probes: nlist },
            );
            out.check(full.as_ref() == Some(&exact), || {
                format!("full-probe NEAREST('{token}') differs from the exact scan")
            });
        }
    }
    out.metric("knn_recall10", "ratio", overlap as f64 / total.max(1) as f64);
}
