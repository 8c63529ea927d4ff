//! For a fixed seed, the counts the benchmark reports (refresh kinds,
//! dirty rows, rows out per class, recall) repeat exactly.

use std::time::Instant;

use perfbench::fixture::{self, Settings, DB};
use perfbench::report::Outcome;
use perfbench::serve::plan_oracle;
use perfbench::stream::ShadowRefresh;
use perfbench::trace::Trace;
use retro_datasets::SizePreset;

fn settings(seed: u64) -> Settings {
    Settings { preset: SizePreset::Small, seed, seconds: 1.0, trace: true }
}

/// Rows out per class, recall, publishes per refresh kind, dirty rows.
type Counts = (Vec<(&'static str, f64)>, f64, [(&'static str, u64); 3], Vec<f64>);

/// Everything counted on one seeded engine: rows out per class, recall,
/// then three publishes of 40 inserts each with refresh kinds and dirty rows.
fn counts(seed: u64) -> Counts {
    let settings = settings(seed);
    let origin = Instant::now();
    let mut out = Outcome::default();
    let fixture::Setup { built, keys, .. } =
        fixture::setup(&settings, None, &mut Trace::new(origin, false), &mut out);
    let rows_out = plan_oracle(&built.engine, &keys, seed, &mut out).into_iter().collect();
    fixture::recall_and_full_probe(&built.engine, &keys, &mut out);
    let recall = out.metrics.iter().find(|m| m.name == "knn_recall10").expect("recall").value;

    let mut shadow = ShadowRefresh::new(origin);
    let mut id = keys.max_movie + 1;
    for _ in 0..3 {
        for _ in 0..40 {
            built.engine.execute(DB, &fixture::insert_sql(&keys, id)).expect("insert");
            id += 1;
        }
        shadow.before(&built.engine);
        let start = Instant::now();
        let generation =
            built.engine.refresh_if_stale(DB).expect("refresh").expect("stale after inserts");
        shadow.after(&built.engine, generation, start, Instant::now());
    }
    assert!(out.correct(), "oracle mismatches: {:?}", out.mismatches);
    (rows_out, recall, shadow.kinds, shadow.dirty)
}

#[test]
fn counts_repeat_exactly_for_a_fixed_seed() {
    let first = counts(11);
    assert_eq!(first, counts(11));
    let (rows_out, recall, kinds, dirty) = &first;
    assert_eq!(rows_out.len(), 3, "every class returned rows: {rows_out:?}");
    assert!(*recall > 0.5 && *recall <= 1.0);
    assert_eq!(kinds.iter().map(|(_, n)| n).sum::<u64>(), 3);
    assert_eq!(dirty.len(), 3);
    assert!(dirty.iter().all(|&d| d > 0.0));
}
