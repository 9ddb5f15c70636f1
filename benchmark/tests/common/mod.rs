#![allow(dead_code)] // each test crate uses its own subset

//! Shared by the integration tests: running the built binary from the
//! repository root, where it expects `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use dpdpu_benchmark::spec::Spec;
use dpdpu_telemetry::json::Json;

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// The checked-in declaration.
pub fn spec() -> Spec {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Spec::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs the benchmark binary with `args` from the repository root and
/// returns its stdout; panics (with its stderr) on a nonzero exit.
pub fn run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dpdpu-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("benchmark binary starts");
    assert!(
        out.status.success(),
        "`dpdpu-benchmark {}` failed ({}):\n{}\n{}",
        args.join(" "),
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The `metrics` object of a run's last stdout line, after checking the
/// line has exactly the contract's four keys.
pub fn result_metrics(stdout: &str) -> Vec<(String, f64)> {
    let last = stdout.lines().last().expect("a result line");
    let Json::Obj(result) = Json::parse(last).expect("the last line is JSON") else {
        panic!("the result line is not an object: {last}");
    };
    let keys: Vec<&str> = result.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result["correct"], Json::Bool(true));
    assert!(result["attempted"].as_f64().expect("a count") >= 1.0);
    let Json::Obj(metrics) = &result["metrics"] else {
        panic!("`metrics` is not an object: {last}");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("a numeric value");
            assert!(
                m.get("unit").and_then(Json::as_str).is_some(),
                "{name} has no unit"
            );
            (name.clone(), value)
        })
        .collect()
}

/// Asserts a reported name is well-formed and its value finite.
pub fn assert_well_formed(name: &str, value: f64) {
    assert!(
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
        "metric name `{name}` has characters outside [A-Za-z0-9_.-]"
    );
    assert!(value.is_finite(), "{name} = {value} is not finite");
}

/// Names as a set.
pub fn names<'a>(it: impl IntoIterator<Item = &'a String>) -> BTreeSet<String> {
    it.into_iter().cloned().collect()
}
