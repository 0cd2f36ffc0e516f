//! `BENCHMARK.json` and the benchmark's own catalog must name the same
//! workloads and metrics, with the same units; and the command must print
//! exactly the catalog's metrics.

use std::path::{Path, PathBuf};
use std::process::Command;

use nexus_obs::{parse_json, Json};
use perfbench::report::{per_layer, END_TO_END};
use perfbench::WORKLOADS;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn catalog_e2e() -> Vec<(String, String)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

fn catalog_layers() -> Vec<(String, String)> {
    per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_catalog() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), catalog_e2e());
    assert_eq!(listed(&doc, "per_layer"), catalog_layers());
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for m in doc.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
}

/// Metric `(name, unit)` pairs of the JSON result on the last line of a
/// run's standard output, with its `correct` flag.
fn run(args: &[&str]) -> (bool, Vec<(String, String)>) {
    let out_dir: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-spans");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{args:?} failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = parse_json(stdout.lines().last().expect("output")).expect("JSON result line");
    let correct = last
        .get("correct")
        .and_then(Json::as_bool)
        .expect("correct");
    assert!(last.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let Some(Json::Object(metrics)) = last.get("metrics") else {
        panic!("metrics object");
    };
    let pairs = metrics
        .iter()
        .map(|(n, v)| {
            assert!(v.get("value").and_then(Json::as_f64).is_some(), "{n}");
            let unit = v.get("unit").and_then(Json::as_str).expect("unit");
            (n.clone(), unit.to_owned())
        })
        .collect();
    (correct, pairs)
}

#[test]
fn printed_metrics_are_exactly_the_listed_ones() {
    let doc = benchmark_json();
    let base = ["--workload", "node-mux", "--seed", "3", "--seconds", "0.2"];
    let (ok, e2e) = run(&[&base[..], &["--trace", "0"]].concat());
    assert!(ok);
    assert_eq!(e2e, listed(&doc, "end_to_end"));
    let (ok, layers) = run(&[&base[..], &["--trace", "1"]].concat());
    assert!(ok);
    assert_eq!(layers, listed(&doc, "per_layer"));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"][..],
        &["--workload", "node-mux", "--seed", "x"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark starts");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
