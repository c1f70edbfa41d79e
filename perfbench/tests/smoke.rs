//! The `--smoke` scale end to end: every workload, plain and traced,
//! reports every metric it declares exactly once and fails nothing; and
//! `BENCHMARK.json` says what the registry says.

use opine_perfbench::metrics::{Metric, END_TO_END, INGEST_END_TO_END, PER_LAYER};
use opine_perfbench::run::{broken_expectations, declared, run_once, RunConfig};
use opine_perfbench::workload::Workload;
use opine_server::json::{self, JsonValue};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Duration;

#[test]
fn smoke_scale_reports_every_declared_metric_exactly_once() {
    // One after the other: each run saturates both cores on purpose.
    for workload in Workload::ALL {
        for traced in [false, true] {
            let result = run_once(&RunConfig {
                workload,
                seed: 7,
                window: Duration::from_secs(1),
                traced,
                smoke: true,
                trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
            })
            .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", workload.name()));
            assert_eq!(result.failed, 0, "{} traced={traced}", workload.name());
            assert!(result.attempted > 0);
            let names = declared(workload, traced);
            let distinct: BTreeSet<&str> = names.iter().copied().collect();
            assert_eq!(distinct.len(), names.len(), "a name is declared twice");
            let reported: BTreeSet<&str> = result.metrics.keys().copied().collect();
            assert_eq!(reported, distinct, "{} traced={traced}", workload.name());
            assert!(
                result.metrics.values().all(|v| v.is_finite()),
                "{:?}",
                result.metrics
            );
            if traced && workload == Workload::RankWarm {
                replay_accounts_for_its_time(&result.metrics);
            }
            if traced {
                let trace = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                    .join(format!("{}-7.trace.json", workload.name()));
                let spans = std::fs::read_to_string(trace).expect("spans are written out");
                assert!(json::parse(&spans).is_ok(), "trace file is JSON");
                assert_eq!(
                    result.metrics["trace.spans"] as usize,
                    spans.matches("\"id\":").count()
                );
            }
        }
    }
}

/// Layer self times and the unexplained part add up to the replay total
/// (they are all means over the same requests), and `rank_warm` is the
/// workload it claims to be: nothing repeats, every predicate is
/// pre-touched.
fn replay_accounts_for_its_time(metrics: &BTreeMap<&'static str, f64>) {
    let layers: f64 = PER_LAYER
        .iter()
        .filter(|m| m.unit == "us/req" && m.name != "trace.replay_total_us")
        .filter(|m| m.name != "core.ingest.first_read_after_insert_us")
        .map(|m| metrics[m.name])
        .sum();
    let total = metrics["trace.replay_total_us"];
    assert!(
        (layers - total).abs() <= 0.02 * total,
        "layers {layers} vs total {total}"
    );
    assert_eq!(
        broken_expectations(Workload::RankWarm, metrics),
        Vec::<String>::new()
    );
}

fn members<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.get(key) {
        Some(JsonValue::Array(items)) => items,
        _ => panic!("BENCHMARK.json has no {key} array"),
    }
}

fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {value:?}"))
}

#[test]
fn benchmark_json_agrees_with_the_registry() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();

    let workloads: Vec<&str> = members(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let registered: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, registered);
    assert!(members(&doc, "workloads")
        .iter()
        .all(|w| text(w, "why").len() <= 200));

    let check = |listed: &[JsonValue], registry: Vec<&Metric>, bounded: bool| {
        assert_eq!(listed.len(), registry.len());
        for (entry, metric) in listed.iter().zip(registry) {
            assert_eq!(text(entry, "name"), metric.name);
            assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
            assert_eq!(
                text(entry, "better"),
                metric.better.as_str(),
                "{}",
                metric.name
            );
            let bound = entry.get("bound").and_then(JsonValue::as_f64);
            assert_eq!(bound, metric.bound.filter(|_| bounded), "{}", metric.name);
        }
    };
    check(
        members(&doc, "end_to_end"),
        END_TO_END.iter().collect(),
        true,
    );
    check(
        members(&doc, "per_layer"),
        PER_LAYER.iter().chain(&INGEST_END_TO_END).collect(),
        false,
    );
    assert_eq!(
        members(&doc, "paths")
            .iter()
            .filter_map(JsonValue::as_str)
            .collect::<Vec<_>>(),
        ["perfbench"]
    );
}
