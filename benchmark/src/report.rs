//! Result lines, the results file, and `--compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dpdpu_telemetry::json::{escape, number, Json};

use crate::spec::{Better, MetricSpec, Spec};
use crate::stats::{iqr_share, median};
use crate::workloads::Virtual;

/// One measured metric: the value (a median where repetitions exist)
/// and the repetition values behind it.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// The reported value.
    pub value: f64,
    /// Per-repetition values (empty for single-shot metrics).
    pub reps: Vec<f64>,
}

impl Measured {
    /// A single-shot value.
    pub fn single(value: f64) -> Self {
        Measured {
            value,
            reps: Vec::new(),
        }
    }

    /// The median over repetitions.
    pub fn over(reps: Vec<f64>) -> Self {
        Measured {
            value: median(&reps),
            reps,
        }
    }
}

/// Metric values by name.
pub type Values = BTreeMap<String, Measured>;

/// The last stdout line of a `--trace` run: the contract's result
/// object, with exactly the metrics `declared` lists. A layer metric the
/// workload has no source for is reported as 0.
pub fn result_line(
    declared: &[MetricSpec],
    values: &Values,
    attempted: u64,
    failed: u64,
) -> String {
    let mut metrics = String::new();
    for (i, m) in declared.iter().enumerate() {
        let value = values.get(&m.name).map_or(0.0, |v| v.value);
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            escape(&m.name),
            number(value),
            escape(&m.unit),
        );
    }
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

/// Prefix of the stdout line that carries a run's details (repetition
/// values, raw model readings) to the parent process.
pub const DETAIL_PREFIX: &str = "detail: ";

/// Prefix of the values that are host readings as measured, before
/// they were restated on the reference host. They travel in the detail
/// line's `raw` object, not among the metrics.
pub const RAW_PREFIX: &str = "raw_";

/// The detail line's JSON: every computed metric with its repetition
/// values, the as-measured host readings, and the model readings.
pub fn detail_json(values: &Values, virt: &Virtual) -> String {
    let object = |raw: bool| -> String {
        let fields: Vec<String> = values
            .iter()
            .filter(|(name, _)| name.starts_with(RAW_PREFIX) == raw)
            .map(|(name, m)| {
                let reps: Vec<String> = m.reps.iter().map(|v| number(*v)).collect();
                format!(
                    "\"{}\": {{\"value\": {}, \"reps\": [{}]}}",
                    escape(name.strip_prefix(RAW_PREFIX).unwrap_or(name)),
                    number(m.value),
                    reps.join(", "),
                )
            })
            .collect();
        fields.join(", ")
    };
    format!(
        "{{\"metrics\": {{{}}}, \"raw\": {{{}}}, \"virtual\": {}}}",
        object(false),
        object(true),
        virtual_json(virt)
    )
}

fn virtual_json(v: &Virtual) -> String {
    let tenants: Vec<String> = v
        .tenants
        .iter()
        .map(|t| {
            format!(
                "{{\"name\": \"{}\", \"issued\": {}, \"ok\": {}, \"shed\": {}, \"errors\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}}}",
                escape(&t.name),
                t.issued,
                t.ok,
                t.shed,
                t.errors,
                t.p50_ns,
                t.p99_ns
            )
        })
        .collect();
    format!(
        "{{\"issued\": {}, \"ok\": {}, \"shed\": {}, \"errors\": {}, \"unexpected\": {}, \
         \"elapsed_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"samples\": {}, \"host_busy_ns\": {}, \
         \"polls\": {}, \"client_retries\": {}, \"client_timeouts\": {}, \"cluster_shed\": {}, \
         \"remote\": {}, \"tenants\": [{}]}}",
        v.issued,
        v.ok,
        v.shed,
        v.errors,
        v.unexpected,
        v.elapsed_ns,
        v.p50_ns,
        v.p99_ns,
        v.samples,
        v.host_busy_ns,
        v.polls,
        v.client_retries,
        v.client_timeouts,
        v.cluster_shed,
        v.remote,
        tenants.join(", ")
    )
}

/// What the parent keeps of one child run.
pub struct ChildRun {
    /// `attempted` of the result line.
    pub attempted: u64,
    /// `failed` of the result line.
    pub failed: u64,
    /// The detail line's object, verbatim.
    pub detail: String,
    /// Metric values parsed back from the detail line.
    pub values: Values,
}

/// Parses a child's stdout: the detail line and the final result line.
pub fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("child printed no detail line")?;
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err("child did not report correct outputs".into());
    }
    let count = |key: &str| -> Result<u64, String> {
        result
            .get(key)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("child result line lacks `{key}`"))
    };
    let doc = Json::parse(detail).map_err(|e| format!("child detail line: {e}"))?;
    Ok(ChildRun {
        attempted: count("attempted")?,
        failed: count("failed")?,
        detail: detail.to_string(),
        values: values_of(doc.get("metrics").ok_or("detail line lacks `metrics`")?),
    })
}

fn values_of(metrics: &Json) -> Values {
    let Json::Obj(map) = metrics else {
        return Values::new();
    };
    map.iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                Measured {
                    value: m.get("value")?.as_f64()?,
                    reps: m
                        .get("reps")
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(Json::as_f64).collect())
                        .unwrap_or_default(),
                },
            ))
        })
        .collect()
}

/// One workload's entry in the results file.
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// The `--trace 0` child.
    pub end_to_end: ChildRun,
    /// The `--trace 1` child.
    pub per_layer: ChildRun,
}

/// Renders the results file.
pub fn results_json(
    seed: u64,
    smoke: bool,
    results: &[WorkloadResult],
    isolated: &Values,
) -> String {
    let mut out = format!(
        "{{\n  \"seed\": {seed},\n  \"smoke\": {smoke},\n  \"threads\": {},\n  \"workloads\": {{\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    \"{}\": {{\n      \"attempted\": {},\n      \"failed\": {},\n      \
             \"end_to_end\": {},\n      \"per_layer\": {}\n    }}{}\n",
            escape(&r.name),
            r.end_to_end.attempted,
            r.end_to_end.failed,
            r.end_to_end.detail,
            r.per_layer.detail,
            if i + 1 < results.len() { "," } else { "" },
        );
    }
    let iso: Vec<String> = isolated
        .iter()
        .map(|(name, m)| format!("    \"{}\": {}", escape(name), number(m.value)))
        .collect();
    let _ = write!(
        out,
        "  }},\n  \"isolated\": {{\n{}\n  }}\n}}\n",
        iso.join(",\n")
    );
    out
}

/// The verdict on one metric × workload pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the parent by more than the bound and the spread.
    Improved,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// Worse than the parent by more than the bound and the spread.
    Worse,
    /// The run-to-run spread is wider than the bound (or than the
    /// difference), so the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` for one metric.
pub fn judge(spec: &MetricSpec, parent: &Measured, change: &Measured) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    if parent.value == change.value {
        return Verdict::Unchanged;
    }
    // Signed so that positive is worse.
    let delta = match spec.better {
        Better::Lower => (change.value - parent.value) / parent.value.abs(),
        Better::Higher => (parent.value - change.value) / parent.value.abs(),
    };
    let spread = [parent, change]
        .iter()
        .filter_map(|m| iqr_share(&m.reps))
        .fold(0.0, f64::max);
    if spread > bound && delta.abs() <= spread.max(bound) {
        Verdict::Unresolved
    } else if delta > bound {
        Verdict::Worse
    } else if delta < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Compares two results files under `spec`'s bounds. Returns the table
/// (one row per workload, one column per end-to-end metric; `=` marks a
/// bit-identical value) and whether any pairing is worse.
pub fn compare(spec: &Spec, parent: &str, change: &str) -> Result<(String, bool), String> {
    let parse = |text: &str| Json::parse(text).map_err(|e| format!("results file: {e}"));
    let (a, b) = (parse(parent)?, parse(change)?);
    let metrics_of = |doc: &Json, workload: &str| -> Values {
        doc.get("workloads")
            .and_then(|w| w.get(workload))
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get("metrics"))
            .map(values_of)
            .unwrap_or_default()
    };
    let mut table = String::new();
    let _ = write!(table, "{:<14}", "workload");
    for m in &spec.end_to_end {
        let _ = write!(table, " {:>18}", m.name);
    }
    table.push('\n');
    let mut any_worse = false;
    for workload in &spec.workloads {
        let (va, vb) = (metrics_of(&a, workload), metrics_of(&b, workload));
        let _ = write!(table, "{workload:<14}");
        for m in &spec.end_to_end {
            let cell = match (va.get(&m.name), vb.get(&m.name)) {
                (Some(pa), Some(ch)) => {
                    let verdict = judge(m, pa, ch);
                    any_worse |= verdict == Verdict::Worse;
                    let same = if pa.value.to_bits() == ch.value.to_bits() {
                        "="
                    } else {
                        ""
                    };
                    format!("{}{same}", verdict.label())
                }
                _ => "missing".to_string(),
            };
            let _ = write!(table, " {cell:>18}");
        }
        table.push('\n');
    }
    Ok((table, any_worse))
}
