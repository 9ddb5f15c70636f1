//! `--smoke` end to end: every workload at 1/50 size, in child
//! processes, must emit exactly the names `BENCHMARK.json` declares.

mod common;

use std::collections::BTreeSet;

use common::{assert_well_formed, names, result_metrics, run, spec};
use dpdpu_telemetry::json::Json;

fn keys(obj: Option<&Json>) -> BTreeSet<String> {
    match obj {
        Some(Json::Obj(map)) => map.keys().cloned().collect(),
        other => panic!("expected an object, found {other:?}"),
    }
}

#[test]
fn smoke_run_emits_exactly_the_declared_names() {
    let spec = spec();
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    let out_dir_arg = out_dir.to_str().expect("utf-8 path");
    run(&["--smoke", "--out-dir", out_dir_arg]);
    let latest = out_dir.join("latest.json");
    let doc = Json::parse(&std::fs::read_to_string(&latest).expect("latest.json was written"))
        .expect("latest.json parses");

    assert_eq!(keys(doc.get("workloads")), names(&spec.workloads));
    let declared_e2e = names(spec.end_to_end.iter().map(|m| &m.name));
    let declared_layer = names(spec.per_layer.iter().map(|m| &m.name));
    let mut seen_layer = keys(doc.get("isolated"));
    for w in &spec.workloads {
        let entry = doc
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .expect("workload entry");
        let e2e = entry.get("end_to_end").and_then(|e| e.get("metrics"));
        assert_eq!(keys(e2e), declared_e2e, "{w}: end-to-end names");
        seen_layer.extend(keys(entry.get("per_layer").and_then(|e| e.get("metrics"))));
        for part in ["end_to_end", "per_layer"] {
            let Some(Json::Obj(metrics)) = entry.get(part).and_then(|e| e.get("metrics")) else {
                panic!("{w}: no {part} metrics");
            };
            for (name, m) in metrics {
                assert_well_formed(
                    name,
                    m.get("value").and_then(Json::as_f64).expect("a value"),
                );
            }
        }
        assert!(
            out_dir.join(format!("trace-{w}.json")).exists(),
            "{w}: spans were not written"
        );
    }
    // Every declared layer metric has a source on some workload (or an
    // isolated driver), and nothing undeclared is emitted.
    assert_eq!(seen_layer, declared_layer);

    // A results file agrees with itself under the bounds.
    let latest = latest.to_str().expect("utf-8 path");
    let table = run(&["--compare", latest, latest]);
    assert_eq!(
        table.matches("unchanged=").count(),
        spec.workloads.len() * spec.end_to_end.len()
    );
}

#[test]
fn result_lines_carry_exactly_the_declared_metrics() {
    let spec = spec();
    for (trace, declared) in [("0", &spec.end_to_end), ("1", &spec.per_layer)] {
        let stdout = run(&[
            "--workload",
            "gateway_storm",
            "--smoke",
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        let metrics = result_metrics(&stdout);
        let reported: Vec<&String> = metrics.iter().map(|(n, _)| n).collect();
        assert_eq!(
            names(reported),
            names(declared.iter().map(|m| &m.name)),
            "--trace {trace}"
        );
        for (name, value) in &metrics {
            assert_well_formed(name, *value);
        }
    }
}
