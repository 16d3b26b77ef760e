//! `BENCHMARK.json`, read once at compile time: the names, units and
//! bounds this binary prints and gates on are the ones the file declares,
//! so the two cannot drift apart.

use payloadpark::jsonio::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the reference median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// Metrics of the untraced run.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of the traced run.
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(root: &Value, key: &str) -> Vec<MetricSpec> {
    let rows = root.get(key).and_then(Value::as_arr).expect("BENCHMARK.json metric list");
    rows.iter()
        .map(|m| {
            let text =
                |k: &str| m.get(k).and_then(Value::as_str).expect("metric field").to_string();
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Value::as_f64),
            }
        })
        .collect()
}

impl Spec {
    /// The declaration this binary was built against.
    pub fn load() -> Spec {
        let root = jsonio::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = root.get("workloads").and_then(Value::as_arr).expect("workloads");
        Spec {
            run_seconds: root.get("run_seconds").and_then(Value::as_u64).expect("run_seconds"),
            workloads: workloads
                .iter()
                .map(|w| w.get("name").and_then(Value::as_str).expect("workload name").to_string())
                .collect(),
            end_to_end: metrics(&root, "end_to_end"),
            per_layer: metrics(&root, "per_layer"),
        }
    }
}
