//! The benchmark's contract with `BENCHMARK.json`: every declared metric is
//! printed for every workload under its declared unit, names are plain,
//! and the checker really checks (a corrupted destination fails the run).
//!
//! Each test drives the built binary in `--quick` mode: one set-up, two
//! timed runs, minimal kernel passes.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn spec() -> Value {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v[key].as_array().map_or(&[], Vec::as_slice)
}

fn names(v: &Value, key: &str) -> Vec<(String, String)> {
    list(v, key)
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap_or_default().to_string(),
                m["unit"].as_str().unwrap_or_default().to_string(),
            )
        })
        .collect()
}

/// Run the benchmark binary; returns its exit code and parsed last line.
fn bench(args: &[&str]) -> (i32, Option<Value>) {
    let out = Command::new(env!("CARGO_BIN_EXE_migration-benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .and_then(|l| serde_json::from_str(l).ok());
    (out.status.code().unwrap_or(-1), last)
}

fn plain(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn declared_names_and_units_are_plain_and_unique() {
    let spec = spec();
    let mut seen = std::collections::BTreeSet::new();
    for key in ["workloads", "end_to_end", "per_layer"] {
        for entry in list(&spec, key) {
            let name = entry["name"].as_str().unwrap_or_default();
            assert!(plain(name), "{key}: name {name:?} is not [A-Za-z0-9_.-]+");
            assert!(seen.insert(name.to_string()), "{name} is declared twice");
            if key != "workloads" {
                let unit = entry["unit"].as_str().unwrap_or_default();
                assert!(
                    !unit.is_empty()
                        && unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "{name}: unit {unit:?}"
                );
            }
        }
    }
    assert!(names(&spec, "end_to_end")
        .iter()
        .any(|(n, u)| n == "setup_s" && u == "s"));
}

/// Every declared metric is printed, under its declared unit, with a
/// finite value, and nothing undeclared is printed.
fn assert_prints(workload: &str, trace: &str, declared: &[(String, String)]) {
    let (code, result) = bench(&[
        "--workload",
        workload,
        "--seed",
        "11",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--quick",
    ]);
    let result = result.unwrap_or_else(|| panic!("{workload} --trace {trace}: no result line"));
    assert_eq!(code, 0, "{workload} --trace {trace}: {result}");
    let Value::Object(keys) = &result else {
        panic!("result is not an object: {result}");
    };
    let mut keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result["correct"], true, "{workload}: {result}");
    assert_eq!(result["failed"].as_u64(), Some(0));
    assert!(result["attempted"].as_u64().unwrap_or(0) >= 1);

    let Value::Object(printed) = &result["metrics"] else {
        panic!("metrics is not an object: {result}");
    };
    let printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    let declared_names: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(printed_names, declared_names, "{workload} --trace {trace}");
    for ((name, unit), (_, metric)) in declared.iter().zip(printed) {
        assert_eq!(metric["unit"], unit.as_str(), "{workload}: unit of {name}");
        let value = metric["value"].as_f64();
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {:?}",
            metric["value"]
        );
        if trace == "0" {
            assert!(
                value.unwrap_or(0.0) > 0.0,
                "{workload}: {name} must never be 0"
            );
        }
    }
}

#[test]
fn every_workload_prints_every_declared_metric() {
    let spec = spec();
    let workloads = list(&spec, "workloads");
    assert_eq!(workloads.len(), 5);
    for workload in workloads {
        let workload = workload["name"].as_str().unwrap_or_default();
        assert_prints(workload, "0", &names(&spec, "end_to_end"));
        assert_prints(workload, "1", &names(&spec, "per_layer"));

        // The traced run left its spans behind.
        let path = manifest_dir().join(format!("out/{workload}.trace.json"));
        let text = std::fs::read_to_string(&path).expect("span file written");
        let spans: Value = serde_json::from_str(&text).expect("span file parses");
        assert!(!list(&spans, "spans").is_empty(), "{workload}: no spans");
    }
}

#[test]
fn corrupted_destination_fails_the_run() {
    let (code, result) = bench(&[
        "--workload",
        "incremental_return",
        "--seed",
        "11",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--quick",
        "--corrupt-dest",
    ]);
    assert_ne!(code, 0, "a wrong destination image must fail the command");
    let result = result.expect("the result line is still printed");
    assert_eq!(result["correct"], false);
    let failed = result["failed"].as_u64().unwrap_or(0);
    assert!(failed > 0 && failed == result["attempted"].as_u64().unwrap_or(0));
}

#[test]
fn unknown_workload_is_refused() {
    let (code, result) = bench(&["--workload", "nope", "--trace", "0"]);
    assert_eq!(code, 2);
    assert!(result.is_none());
}
