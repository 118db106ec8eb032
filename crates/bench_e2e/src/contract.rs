//! The benchmark's contract, read from the repository's
//! `BENCHMARK.json` at build time so that the metric names, units and
//! bounds the program prints are the ones the file declares.

use serde_json::Value;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the program needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Seconds one run measures unless `--seconds` says otherwise.
    pub run_seconds: u64,
    /// Metrics a user of the system would see.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics of single layers, reported by the traced run.
    pub per_layer: Vec<MetricSpec>,
}

fn metric_list(document: &Value, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = document[key]
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?;
    list.iter()
        .map(|entry| {
            let text = |field: &str| {
                entry[field]
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a `{key}` entry lacks `{field}`"))
            };
            Ok(MetricSpec {
                name: text("name")?,
                unit: text("unit")?,
                better: match text("better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                },
                bound: entry["bound"].as_f64(),
            })
        })
        .collect()
}

impl Contract {
    /// Parses the embedded file.
    ///
    /// # Errors
    ///
    /// The file is not the JSON the contract describes.
    pub fn load() -> Result<Contract, String> {
        let document: Value =
            serde_json::from_str(BENCHMARK_JSON).map_err(|err| format!("BENCHMARK.json: {err}"))?;
        Ok(Contract {
            run_seconds: document["run_seconds"]
                .as_u64()
                .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
            end_to_end: metric_list(&document, "end_to_end")?,
            per_layer: metric_list(&document, "per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn the_committed_file_names_the_workloads_and_bounds_every_end_to_end_metric() {
        let contract = Contract::load().unwrap();
        assert!((1..=60).contains(&contract.run_seconds));
        assert!(contract
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        for metric in &contract.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: {bound}", metric.name);
        }
        assert!(contract.per_layer.iter().all(|m| m.bound.is_none()));

        let document: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let declared: Vec<&str> = document["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|w| w["name"].as_str())
            .collect();
        assert_eq!(declared, workloads::NAMES);
        // Each workload's `why` records its frozen operations per round.
        for workload in document["workloads"].as_array().unwrap() {
            let ops = workloads::ops_per_round(workload["name"].as_str().unwrap()).unwrap();
            assert!(
                workload["why"].as_str().unwrap().contains(&ops.to_string()),
                "{}: `why` must state {ops} operations per round",
                workload["name"]
            );
        }
    }
}
