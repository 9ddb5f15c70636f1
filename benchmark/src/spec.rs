//! `BENCHMARK.json`: which metrics exist, in what unit, which way is
//! better, and how far each may worsen.

use dpdpu_telemetry::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// What a user of the system sees.
    pub end_to_end: Vec<MetricSpec>,
    /// Single-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

/// Where the declaration lives, relative to the repository root (which
/// `run.sh` makes the working directory).
pub const SPEC_PATH: &str = "BENCHMARK.json";

impl Spec {
    /// Loads and validates [`SPEC_PATH`].
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string(SPEC_PATH)
            .map_err(|e| format!("cannot read {SPEC_PATH} (run from the repository root): {e}"))?;
        Spec::parse(&text)
    }

    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{SPEC_PATH}: `{key}` must be an array"))
        };
        let text_of = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{SPEC_PATH}: entry without a string `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: match text_of(m, "better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("{SPEC_PATH}: better = `{other}`")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
