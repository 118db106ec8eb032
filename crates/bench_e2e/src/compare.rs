//! `--compare <a.json> <b.json>`: two result sets side by side.
//!
//! A result set file holds one or more lines, each the last line an
//! all-workloads run printed. Per workload and end-to-end metric the
//! report gives both medians, the relative difference, and whether `b`
//! is inside the bound `BENCHMARK.json` fixes — or `unresolved` when the
//! run-to-run spread of either side is wider than that bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

use crate::contract::{Better, Contract};
use crate::stats;
use crate::workloads;

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Inside,
    /// `b` is worse than `a` by more than the bound.
    Outside,
    /// The spread of a side exceeds the bound; no call is made.
    Unresolved,
}

/// One row of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median over `a`'s lines.
    pub a: f64,
    /// Median over `b`'s lines.
    pub b: f64,
    /// `(b - a) / a`.
    pub relative: f64,
    /// Largest interquartile range over median of the two sides, when a
    /// side has at least two lines.
    pub spread: Option<f64>,
    /// The call.
    pub verdict: Verdict,
}

/// `workload -> metric -> one value per line`.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn samples_of(text: &str, origin: &str) -> Result<(Samples, u64), String> {
    let mut samples = Samples::new();
    let mut failed = 0;
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let set: Value =
            serde_json::from_str(line).map_err(|err| format!("{origin}:{}: {err}", number + 1))?;
        let results = set["results"]
            .as_object()
            .ok_or_else(|| format!("{origin}:{}: no `results` object", number + 1))?;
        for (workload, result) in results {
            failed += result["failed"].as_u64().unwrap_or(0);
            let Some(metrics) = result["metrics"].as_object() else {
                continue;
            };
            for (name, metric) in metrics {
                if let Some(value) = metric["value"].as_f64() {
                    samples
                        .entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok((samples, failed))
}

fn spread_of(values: &[f64]) -> Option<f64> {
    let (q1, q3) = stats::quartiles(&mut values.to_vec())?;
    let median = stats::median(&mut values.to_vec());
    (median != 0.0).then(|| (q3 - q1) / median.abs())
}

/// Compares two result sets; returns the rows and the total of failed
/// operations over both files.
///
/// # Errors
///
/// A file is not a result set.
pub fn compare(a_text: &str, b_text: &str, contract: &Contract) -> Result<(Vec<Row>, u64), String> {
    let (a, a_failed) = samples_of(a_text, "a")?;
    let (b, b_failed) = samples_of(b_text, "b")?;
    let mut rows = Vec::new();
    for workload in workloads::NAMES {
        for spec in &contract.end_to_end {
            let values = |side: &Samples| -> Vec<f64> {
                side.get(workload)
                    .and_then(|metrics| metrics.get(&spec.name))
                    .cloned()
                    .unwrap_or_default()
            };
            let (a_values, b_values) = (values(&a), values(&b));
            if a_values.is_empty() || b_values.is_empty() {
                continue;
            }
            let a_median = stats::median(&mut a_values.clone());
            let b_median = stats::median(&mut b_values.clone());
            let bound = spec.bound.unwrap_or(0.0);
            let relative = (b_median - a_median) / a_median;
            let worse_by = match spec.better {
                Better::Lower => relative,
                Better::Higher => -relative,
            };
            let spread = [spread_of(&a_values), spread_of(&b_values)]
                .into_iter()
                .flatten()
                .reduce(f64::max);
            let verdict = if spread.is_some_and(|spread| spread > bound) {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Outside
            } else {
                Verdict::Inside
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: spec.name.clone(),
                a: a_median,
                b: b_median,
                relative,
                spread,
                verdict,
            });
        }
    }
    Ok((rows, a_failed + b_failed))
}

/// The report as text, one workload per block and one metric per row.
pub fn render(rows: &[Row], failed: u64) -> String {
    let mut out = String::new();
    let mut current = "";
    for row in rows {
        if row.workload != current {
            current = &row.workload;
            let _ = writeln!(out, "\n{current}");
            let _ = writeln!(
                out,
                "  {:<20} {:>14} {:>14} {:>9} {:>8}  verdict",
                "metric", "a (median)", "b (median)", "b vs a", "spread"
            );
        }
        let spread = row.spread.map_or_else(
            || "-".to_string(),
            |spread| format!("{:.2}%", spread * 100.0),
        );
        let _ = writeln!(
            out,
            "  {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>8}  {}",
            row.metric,
            row.a,
            row.b,
            row.relative * 100.0,
            spread,
            match row.verdict {
                Verdict::Inside => "inside bound",
                Verdict::Outside => "OUTSIDE bound",
                Verdict::Unresolved => "unresolved (spread exceeds bound)",
            }
        );
    }
    let _ = writeln!(out, "\nfailed operations over both sets: {failed}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ops_per_s: f64, latency: f64) -> String {
        serde_json::json!({
            "seed": 1,
            "results": {
                "proxy_passthrough": {
                    "correct": true, "attempted": 10, "failed": 0,
                    "metrics": {
                        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
                        "op_latency_p50_us": {"value": latency, "unit": "us"},
                    }
                }
            }
        })
        .to_string()
    }

    fn verdicts(a: &str, b: &str) -> Vec<(String, Verdict)> {
        let contract = Contract::load().unwrap();
        let (rows, failed) = compare(a, b, &contract).unwrap();
        assert_eq!(failed, 0);
        rows.into_iter()
            .map(|row| (row.metric, row.verdict))
            .collect()
    }

    #[test]
    fn direction_and_bound_decide_inside_or_outside() {
        // Throughput down 30 %, latency down 30 %: only the first is worse.
        let rows = verdicts(&set(1000.0, 100.0), &set(700.0, 70.0));
        assert_eq!(
            rows,
            vec![
                ("ops_per_s".to_string(), Verdict::Outside),
                ("op_latency_p50_us".to_string(), Verdict::Inside),
            ]
        );
        // Within a percent either way.
        let rows = verdicts(&set(1000.0, 100.0), &set(995.0, 100.5));
        assert!(rows.iter().all(|(_, verdict)| *verdict == Verdict::Inside));
    }

    #[test]
    fn a_wide_spread_leaves_the_metric_unresolved() {
        let noisy = [set(1000.0, 100.0), set(1400.0, 100.0), set(700.0, 100.0)].join("\n");
        let steady = [set(1000.0, 100.0), set(1001.0, 100.0), set(999.0, 100.0)].join("\n");
        let rows = verdicts(&noisy, &steady);
        assert_eq!(rows[0], ("ops_per_s".to_string(), Verdict::Unresolved));
        assert_eq!(rows[1], ("op_latency_p50_us".to_string(), Verdict::Inside));
        assert!(render(
            &compare(&noisy, &steady, &Contract::load().unwrap())
                .unwrap()
                .0,
            0
        )
        .contains("unresolved"));
    }

    #[test]
    fn files_that_are_not_result_sets_are_refused() {
        let contract = Contract::load().unwrap();
        assert!(compare("{}", &set(1.0, 1.0), &contract).is_err());
        assert!(compare("not json", &set(1.0, 1.0), &contract).is_err());
    }
}
