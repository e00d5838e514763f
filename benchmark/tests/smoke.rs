//! A 1/100-scale run of every workload, untraced and traced, and the
//! agreement between what the runs emit, what `spec` declares and what
//! `BENCHMARK.json` at the repo root promises the driver.

use std::time::Instant;

use fdpcache_benchmark::run::{run, RunArgs};
use fdpcache_benchmark::spec::{self, Metric};
use serde::Value;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("`{key}` is not a string: {other:?}"),
    }
}

fn entries<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Arr(a)) => a,
        other => panic!("`{key}` is not an array: {other:?}"),
    }
}

/// `(name, unit, better, bound)` rows of one metric table of the manifest.
fn manifest_metrics(v: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    entries(v, key)
        .iter()
        .map(|m| {
            let bound = match m.get("bound") {
                Some(Value::Float(f)) => Some(*f),
                Some(Value::Int(i)) => Some(*i as f64),
                _ => None,
            };
            (
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                text(m, "better").to_string(),
                bound,
            )
        })
        .collect()
}

fn spec_rows(metrics: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string(), m.better.as_str().to_string(), m.bound))
        .collect()
}

#[test]
fn manifest_mirrors_the_spec() {
    let v = manifest();
    assert_eq!(manifest_metrics(&v, "end_to_end"), spec_rows(&spec::end_to_end()));
    assert_eq!(manifest_metrics(&v, "per_layer"), spec_rows(&spec::per_layer()));
    let listed: Vec<(String, String)> = entries(&v, "workloads")
        .iter()
        .map(|w| (text(w, "name").to_string(), text(w, "why").to_string()))
        .collect();
    let declared: Vec<(String, String)> =
        spec::workloads().iter().map(|w| (w.name.to_string(), w.why.to_string())).collect();
    assert_eq!(listed, declared);
    assert!(
        matches!(v.get("run_seconds"), Some(Value::Int(s)) if *s as f64 == fdpcache_benchmark::cli::DEFAULT_SECONDS)
    );
}

#[test]
fn manifest_respects_the_contract_limits() {
    let v = manifest();
    let name_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names = std::collections::BTreeSet::new();
    for table in ["end_to_end", "per_layer"] {
        for (name, unit, better, bound) in manifest_metrics(&v, table) {
            assert!(name_ok(&name), "metric name `{name}`");
            assert!(unit_ok(&unit), "unit `{unit}` of `{name}`");
            assert!(better == "higher" || better == "lower");
            assert!(bound.is_none_or(|b| (0.0..=0.25).contains(&b)), "bound of `{name}`");
            assert_eq!(
                bound.is_some(),
                table == "end_to_end",
                "only end-to-end metrics are bounded"
            );
            assert!(names.insert(name.clone()), "`{name}` is used twice");
        }
    }
    assert!(names.contains("setup_s"));
    assert!((1..=16).contains(&entries(&v, "end_to_end").len()));
    assert!((1..=128).contains(&entries(&v, "per_layer").len()));
    let workloads = entries(&v, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert!(name_ok(text(w, "name")) && names.insert(text(w, "name").to_string()));
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "why of `{}`", text(w, "name"));
    }
}

/// Runs every workload at 1/100 scale and checks that each run is
/// correct and emits exactly the declared metric names, in order.
#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    for w in spec::workloads() {
        for traced in [false, true] {
            let args = RunArgs {
                seed: 7,
                seconds: 0.06,
                traced,
                setups: 1,
                warmup_scale: 0.01,
                process_start: Instant::now(),
            };
            let report = run(&w, &args);
            let declared = if traced { spec::per_layer() } else { spec::end_to_end() };
            let emitted: Vec<&str> = report.metrics.iter().map(|(n, _)| n.as_str()).collect();
            let expected: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(emitted, expected, "{} traced={traced}", w.name);
            assert!(report.correct, "{} traced={traced}: {report:?}", w.name);
            assert_eq!(report.failed, 0, "{} traced={traced}", w.name);
            assert!(report.attempted >= 1);
            for (name, value) in &report.metrics {
                assert!(value.is_finite(), "{}: {name} = {value}", w.name);
                if !traced {
                    assert!(*value != 0.0, "{}: end-to-end metric {name} is 0", w.name);
                }
            }
        }
    }
}
