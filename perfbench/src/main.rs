//! Run one workload of the benchmark and print its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve|stream --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics, or with
//! `--trace 1` the per-layer ones. The full report (machine facts,
//! configuration, sample counts, percentiles with their maxima) goes to
//! `DIR/<workload>-seed<N>-trace<0|1>.json`, and a traced run's spans to
//! `DIR/<workload>-seed<N>-trace1.spans.tsv`.

use std::path::PathBuf;
use std::time::Instant;

use perfbench::fixture::{
    Settings, CLIENT_THREADS, FLUSH_POLICY_NOTE, ITERATIONS, SETUP_REPS, SOLVER_THREADS,
};
use perfbench::report::{self, Metric, Run};
use perfbench::{serve, stream};
use retro_datasets::SizePreset;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["serve", "stream"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}` (serve or stream)", args.workload));
    }
    Ok(args)
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.out).expect("output directory is writable");
    let settings = Settings {
        preset: SizePreset::Paper,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let (mut out, trace) = match args.workload.as_str() {
        "serve" => serve::run(&settings, origin),
        _ => stream::run(&settings, origin, &args.out),
    };
    out.metric("peak_rss_mb", "MB", report::peak_rss_mb().unwrap_or(f64::NAN));
    out.metric("ok_ratio", "ratio", 1.0 - out.failed as f64 / out.attempted.max(1) as f64);

    let artifact =
        |ext: &str| report::artifact(&args.out, &args.workload, args.seed, args.trace, ext);
    if args.trace {
        trace.write_tsv(&artifact("spans.tsv")).expect("spans file is writable");
        // Tracing overhead: this run's end-to-end figures minus those of
        // the untraced run of the same workload and seed, when one exists.
        let untraced = report::artifact(&args.out, &args.workload, args.seed, false, "json");
        if let Ok(base) = std::fs::read_to_string(untraced) {
            out.trace_overhead = out.overhead_against(&base);
        }
    }
    let run = Run {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        preset: SizePreset::Paper.name(),
        client_threads: CLIENT_THREADS,
        solver_threads: SOLVER_THREADS,
        setup_reps: SETUP_REPS,
        solver: format!("paper_rn, {ITERATIONS} iterations"),
        probes: "IVF default (an eighth of the lists)",
        stream_flush_policy: FLUSH_POLICY_NOTE,
    };
    let path = artifact("json");
    std::fs::write(&path, out.report(&run) + "\n").expect("report is writable");

    println!(
        "perfbench {} seed {} ({}s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.workload == "stream" {
        println!("  store flush policy: {FLUSH_POLICY_NOTE}");
    }
    let shown: &[Metric] = if args.trace { &out.layers } else { &out.metrics };
    for m in shown {
        println!("  {:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for t in &out.timings {
        let s = &t.summary;
        println!(
            "  {:<28} n={:<7} p50 {:.4} p99 {:.4} max {:.4} {}",
            t.name, s.count, s.p50, s.p99, s.max, t.unit
        );
    }
    let phases: Vec<String> =
        out.phases.iter().map(|(name, secs)| format!("{name} {secs:.1}s")).collect();
    println!("  phases: {}", phases.join(", "));
    for mismatch in &out.mismatches {
        eprintln!("MISMATCH: {mismatch}");
    }
    println!("report: {}", path.display());
    println!("{}", out.result_line(args.trace));
}
