//! Emission and comparison of run sets.
//!
//! A run set is one JSON document: a row per (workload, metric) with
//! every run's value, the median, the quartiles and the spread. JSON is
//! written and read with `opine_server::json`.

use crate::metrics::{self, Better, Metric};
use crate::run::RunResult;
use crate::stats::{median, quartiles, spread};
use crate::workload::Workload;
use opine_server::json::{self, JsonValue};
use std::fmt::Write;

/// One (workload, metric) row of a run set.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// One value per run, in run order.
    pub values: Vec<f64>,
}

impl Row {
    /// Median over the runs.
    pub fn median(&self) -> f64 {
        median(&self.values)
    }
}

/// The driver-contract result line of one run: exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`, and in `metrics` exactly
/// `names`.
pub fn contract_line(result: &RunResult, names: &[&Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.failed == 0,
        result.attempted,
        result.failed
    );
    for (i, metric) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::escape_into(&mut out, metric.name);
        out.push_str(": {\"value\": ");
        json::push_f64(&mut out, result.metrics[metric.name]);
        out.push_str(", \"unit\": ");
        json::escape_into(&mut out, metric.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Everything one run measured, as one line: how `opine-bench run`
/// reads a run back from the child process that made it.
pub fn run_line(result: &RunResult) -> String {
    let mut out = format!(
        "{{\"attempted\": {}, \"failed\": {}, \"samples\": {}, \"stream_hash\": \"{:016x}\", \"metrics\": {{",
        result.attempted, result.failed, result.samples, result.stream_hash
    );
    for (i, (name, value)) in result.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::escape_into(&mut out, name);
        out.push_str(": ");
        json::push_f64(&mut out, *value);
    }
    out.push_str("}}");
    out
}

/// Inverse of [`run_line`].
pub fn parse_run_line(line: &str) -> Result<RunResult, String> {
    let doc = json::parse(line).map_err(|e| format!("{e} in run line {line:?}"))?;
    let number = |key: &str| {
        doc.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("run line without {key}"))
    };
    let Some(JsonValue::Object(members)) = doc.get("metrics") else {
        return Err("run line without metrics".into());
    };
    let mut metrics = std::collections::BTreeMap::new();
    for (name, value) in members {
        let metric = metrics::find(name).ok_or_else(|| format!("unregistered metric {name}"))?;
        metrics.insert(metric.name, value.as_f64().unwrap_or(0.0));
    }
    Ok(RunResult {
        attempted: number("attempted")? as u64,
        failed: number("failed")? as u64,
        samples: number("samples")? as usize,
        stream_hash: doc
            .get("stream_hash")
            .and_then(JsonValue::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("run line without stream_hash")?,
        metrics,
    })
}

/// A human-readable table of one run: every metric by name with its
/// unit, and the sample count behind the latency percentiles.
pub fn table(workload: Workload, result: &RunResult) -> String {
    let mut out = format!(
        "{}: attempted {} failed {} samples {} stream {:016x}\n",
        workload.name(),
        result.attempted,
        result.failed,
        result.samples,
        result.stream_hash
    );
    for (name, value) in &result.metrics {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        let _ = writeln!(out, "  {name:<44} {value:>16.4} {unit}");
    }
    out
}

/// Renders a run set.
pub fn document(
    seed: u64,
    vary_seed: bool,
    window_s: f64,
    smoke: bool,
    traced: bool,
    runs: &[(Workload, Vec<RunResult>)],
) -> String {
    let mut out = String::from("{\n  \"bench\": \"opine-bench\",\n");
    let _ = writeln!(
        out,
        "  \"seed\": {seed},\n  \"vary_seed\": {vary_seed},\n  \"window_s\": {window_s},\n  \"smoke\": {smoke},\n  \"traced\": {traced},"
    );
    out.push_str("  \"workloads\": [");
    for (i, (workload, results)) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"runs\": {}, \"stream_hashes\": [{}], \"attempted\": [{}], \"failed\": [{}], \"samples\": [{}]}}",
            workload.name(),
            results.len(),
            join(results.iter().map(|r| format!("\"{:016x}\"", r.stream_hash))),
            join(results.iter().map(|r| r.attempted.to_string())),
            join(results.iter().map(|r| r.failed.to_string())),
            join(results.iter().map(|r| r.samples.to_string())),
        );
    }
    out.push_str("\n  ],\n  \"rows\": [");
    let mut first = true;
    for (workload, results) in runs {
        let Some(head) = results.first() else {
            continue;
        };
        for name in head.metrics.keys() {
            let values: Vec<f64> = results.iter().map(|r| r.metrics[name]).collect();
            let metric = metrics::find(name).expect("runs report registered metrics");
            let (q1, q3) = quartiles(&values);
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"workload\": \"{}\", \"metric\": \"{name}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": ",
                workload.name(),
                metric.unit,
                metric.better.as_str()
            );
            match metric.bound {
                Some(bound) => json::push_f64(&mut out, bound),
                None => out.push_str("null"),
            }
            out.push_str(", \"median\": ");
            json::push_f64(&mut out, median(&values));
            out.push_str(", \"q1\": ");
            json::push_f64(&mut out, q1);
            out.push_str(", \"q3\": ");
            json::push_f64(&mut out, q3);
            out.push_str(", \"spread\": ");
            json::push_f64(&mut out, spread(&values));
            out.push_str(", \"values\": [");
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                json::push_f64(&mut out, *v);
            }
            out.push_str("]}");
        }
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

/// A run set read back: its rows, and per workload the identity of each
/// run's request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSet {
    /// One row per (workload, metric).
    pub rows: Vec<Row>,
    /// (workload, one stream hash per run).
    pub stream_hashes: Vec<(String, Vec<String>)>,
}

/// Reads a run set back.
pub fn parse_document(text: &str) -> Result<RunSet, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let array = |value: Option<&JsonValue>, what: &str| match value {
        Some(JsonValue::Array(items)) => Ok(items.clone()),
        _ => Err(format!("run set has no {what} array")),
    };
    let text_of = |value: &JsonValue, key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing {key}"))
    };
    let mut rows = Vec::new();
    for row in array(doc.get("rows"), "rows")? {
        rows.push(Row {
            workload: text_of(&row, "workload")?,
            metric: text_of(&row, "metric")?,
            values: array(row.get("values"), "values")?
                .iter()
                .filter_map(JsonValue::as_f64)
                .collect(),
        });
    }
    let mut hashes = Vec::new();
    for workload in array(doc.get("workloads"), "workloads")? {
        hashes.push((
            text_of(&workload, "name")?,
            array(workload.get("stream_hashes"), "stream_hashes")?
                .iter()
                .filter_map(|h| h.as_str().map(str::to_string))
                .collect(),
        ));
    }
    Ok(RunSet {
        rows,
        stream_hashes: hashes,
    })
}

/// How one row fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No bound: a layer metric, shown for information.
    Info,
    /// Within the bound.
    Holds,
    /// Run-to-run spread exceeds the bound, and the two sets' runs
    /// overlap: the comparison cannot tell.
    Unresolved,
    /// Worse than the parent's median by more than the bound.
    Regression,
}

/// `change`'s median against `parent`'s under `metric`'s direction and
/// bound. Returns the verdict and by how much the median got worse, as
/// a share of the parent's (negative: better).
pub fn judge(metric: &Metric, parent: &Row, change: &Row) -> (Verdict, f64) {
    let (base, new) = (parent.median(), change.median());
    let worse_by = if base == 0.0 {
        0.0
    } else {
        match metric.better {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    };
    let Some(bound) = metric.bound else {
        return (Verdict::Info, worse_by);
    };
    let noisy = spread(&parent.values).max(spread(&change.values)) > bound;
    if noisy {
        // Still decided when every run of the change reads better than
        // every run of the parent.
        let better = |a: f64, b: f64| match metric.better {
            Better::Lower => a < b,
            Better::Higher => a > b,
        };
        let dominates = change
            .values
            .iter()
            .all(|&c| parent.values.iter().all(|&p| better(c, p)));
        if !dominates {
            return (Verdict::Unresolved, worse_by);
        }
    }
    if worse_by > bound {
        (Verdict::Regression, worse_by)
    } else {
        (Verdict::Holds, worse_by)
    }
}

/// Compares two run sets row by row. Returns the printed table and
/// whether any bounded row regressed (or the two sets did not measure
/// the same traffic).
pub fn compare(parent: &str, change: &str) -> Result<(String, bool), String> {
    let RunSet {
        rows: parent_rows,
        stream_hashes: parent_hashes,
    } = parse_document(parent)?;
    let RunSet {
        rows: change_rows,
        stream_hashes: change_hashes,
    } = parse_document(change)?;
    let mut out = String::new();
    let mut failed = false;
    for (workload, hashes) in &parent_hashes {
        let other = change_hashes.iter().find(|(w, _)| w == workload);
        let same = other.is_some_and(|(_, h)| h == hashes);
        let _ = writeln!(
            out,
            "{workload}: request streams {}",
            if same { "identical" } else { "DIFFER" }
        );
        failed |= !same;
    }
    let _ = writeln!(
        out,
        "{:<15} {:<42} {:>14} {:>14} {:>9} {:>8}  verdict",
        "workload", "metric", "parent", "change", "ratio", "worse"
    );
    for parent in &parent_rows {
        let Some(change) = change_rows
            .iter()
            .find(|r| r.workload == parent.workload && r.metric == parent.metric)
        else {
            continue;
        };
        let Some(metric) = metrics::find(&parent.metric) else {
            continue;
        };
        let (verdict, worse_by) = judge(metric, parent, change);
        failed |= verdict == Verdict::Regression;
        let ratio = if parent.median() == 0.0 {
            0.0
        } else {
            change.median() / parent.median()
        };
        let _ = writeln!(
            out,
            "{:<15} {:<42} {:>14.4} {:>14.4} {:>8.3}x {:>+7.1}%  {}",
            parent.workload,
            parent.metric,
            parent.median(),
            change.median(),
            ratio,
            worse_by * 100.0,
            match verdict {
                Verdict::Info => "info".to_string(),
                Verdict::Holds =>
                    format!("holds (bound {:.0}%)", metric.bound.unwrap_or(0.0) * 100.0),
                Verdict::Unresolved => format!(
                    "UNRESOLVED (spread {:.1}% / {:.1}% > bound {:.0}%)",
                    spread(&parent.values) * 100.0,
                    spread(&change.values) * 100.0,
                    metric.bound.unwrap_or(0.0) * 100.0
                ),
                Verdict::Regression => format!(
                    "REGRESSION (bound {:.0}%)",
                    metric.bound.unwrap_or(0.0) * 100.0
                ),
            }
        );
    }
    Ok((out, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(values: &[f64]) -> Row {
        Row {
            workload: "w".into(),
            metric: "m".into(),
            values: values.to_vec(),
        }
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        let metric = |better| Metric {
            name: "m",
            unit: "u",
            better,
            bound: Some(0.10),
        };
        let (qps, p50) = (&metric(Better::Higher), &metric(Better::Lower));
        let steady = row(&[100.0, 101.0, 99.0]);
        // Higher is better: 85 is 15% worse, beyond the 10% bound.
        assert_eq!(
            judge(qps, &steady, &row(&[85.0, 85.5, 84.5])).0,
            Verdict::Regression
        );
        assert_eq!(
            judge(qps, &steady, &row(&[95.0, 95.5, 94.5])).0,
            Verdict::Holds
        );
        // Lower is better: the same numbers read the other way.
        assert_eq!(
            judge(p50, &steady, &row(&[85.0, 85.5, 84.5])).0,
            Verdict::Holds
        );
        assert_eq!(
            judge(p50, &steady, &row(&[115.0, 115.5, 114.5])).0,
            Verdict::Regression
        );
        // Spread beyond the bound: unresolved while the runs overlap …
        let noisy = row(&[80.0, 100.0, 125.0]);
        assert_eq!(judge(p50, &steady, &noisy).0, Verdict::Unresolved);
        // … decided once every run of the change beats every run of
        // the parent.
        assert_eq!(
            judge(p50, &steady, &row(&[50.0, 70.0, 90.0])).0,
            Verdict::Holds
        );
    }

    #[test]
    fn documents_round_trip() {
        let mut metrics = std::collections::BTreeMap::new();
        metrics.insert("qps", 1234.5);
        metrics.insert("p50_us", 20.25);
        let result = |qps: f64| {
            let mut metrics = metrics.clone();
            metrics.insert("qps", qps);
            RunResult {
                attempted: 10,
                failed: 0,
                metrics,
                samples: 10,
                stream_hash: 0xabc,
            }
        };
        let text = document(
            1,
            false,
            1.0,
            true,
            false,
            &[(Workload::ServeHot, vec![result(1000.0), result(1100.0)])],
        );
        let RunSet {
            rows,
            stream_hashes: hashes,
        } = parse_document(&text).expect("own output parses");
        assert_eq!(rows.len(), 2);
        let qps = rows.iter().find(|r| r.metric == "qps").unwrap();
        assert_eq!(qps.values, vec![1000.0, 1100.0]);
        assert_eq!(hashes[0].0, "serve_hot");
        assert_eq!(hashes[0].1.len(), 2);
        let (table, failed) = compare(&text, &text).expect("compares with itself");
        assert!(!failed, "{table}");
        assert!(table.contains("identical"));
    }
}
