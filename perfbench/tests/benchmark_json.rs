//! `BENCHMARK.json` at the repository root names exactly the metrics the
//! benchmark prints: the end-to-end ones untraced, the per-layer ones traced.

use std::collections::BTreeMap;
use std::time::Instant;

use perfbench::layers;
use perfbench::report::{Outcome, END_TO_END};
use perfbench::trace::Trace;
use serde_json::Value;

/// The `name` of every entry of the array `section`.
fn names(bench: &Value, section: &str) -> Vec<String> {
    let entries = bench[section].as_array().expect("section is an array");
    entries.iter().map(|e| e["name"].as_str().expect("entry has a name").to_owned()).collect()
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(names(&bench, "end_to_end"), END_TO_END);

    let mut out = Outcome::default();
    layers::collect(&mut out, &Trace::new(Instant::now(), true), &BTreeMap::new());
    let printed: Vec<String> = out.layers.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names(&bench, "per_layer"), printed);
}
