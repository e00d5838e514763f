//! Result files and the driver's result line: a writer over plain
//! strings, and typed readers over the vendored `serde_json` parser.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Value;

use crate::run::RunReport;
use crate::spec::Metric;

fn quoted(s: &str) -> String {
    let mut out = String::new();
    serde::write_json_str(&mut out, s);
    out
}

fn number(v: f64) -> String {
    // Rust's shortest round-trip form keeps every digit measured. JSON
    // has no NaN or infinity; a metric that produced one is a bug the
    // reader should see, not a parse error.
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// The one-line JSON object a single run ends its standard output with.
pub fn result_line(report: &RunReport, metrics: &[Metric]) -> String {
    let unit = |name: &str| metrics.iter().find(|m| m.name == name).map_or("", |m| m.unit);
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(name),
                number(*v),
                quoted(unit(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    )
}

/// Parses a result line back into a report.
pub fn parse_result_line(line: &str) -> Result<RunReport, String> {
    let v = serde_json::parse_value(line).map_err(|e| e.to_string())?;
    let correct = matches!(v.get("correct"), Some(Value::Bool(true)));
    let int = |key: &str| match v.get(key) {
        Some(Value::Int(i)) => u64::try_from(*i).map_err(|_| format!("`{key}` is negative")),
        _ => Err(format!("`{key}` is not an integer")),
    };
    let Some(Value::Obj(entries)) = v.get("metrics") else {
        return Err("`metrics` is not an object".into());
    };
    let mut metrics = Vec::new();
    for (name, entry) in entries {
        let value = entry.get("value").and_then(as_f64).ok_or(format!("`{name}` has no value"))?;
        metrics.push((name.clone(), value));
    }
    Ok(RunReport { correct, attempted: int("attempted")?, failed: int("failed")?, metrics })
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// A set of runs of the whole benchmark: for every workload and metric,
/// the values of all runs, one per seed. This is what `benchmark/out/`
/// and `benchmark/baseline/` hold and what `--compare` reads.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultSet {
    /// `linux-x86_64-2cpu` and the like; see `host::tag`.
    pub host_tag: String,
    /// Logical CPUs the runs had.
    pub nproc: usize,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// The seeds, in run order.
    pub seeds: Vec<u64>,
    /// workload → metric → one value per seed.
    pub workloads: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

impl ResultSet {
    /// Serialises the set as indented JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"host_tag\": {},", quoted(&self.host_tag));
        let _ = writeln!(out, "  \"nproc\": {},", self.nproc);
        let _ = writeln!(out, "  \"seconds\": {},", number(self.seconds));
        let _ = writeln!(out, "  \"seeds\": [{}],", seeds.join(", "));
        let _ = writeln!(out, "  \"workloads\": {{");
        let workloads: Vec<String> = self
            .workloads
            .iter()
            .map(|(name, metrics)| {
                let rows: Vec<String> = metrics
                    .iter()
                    .map(|(metric, values)| {
                        let vs: Vec<String> = values.iter().map(|v| number(*v)).collect();
                        format!("      {}: [{}]", quoted(metric), vs.join(", "))
                    })
                    .collect();
                format!("    {}: {{\n{}\n    }}", quoted(name), rows.join(",\n"))
            })
            .collect();
        let _ = writeln!(out, "{}", workloads.join(",\n"));
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }

    /// Parses a set written by [`ResultSet::to_json`].
    pub fn from_json(text: &str) -> Result<ResultSet, String> {
        let v = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        let mut set = ResultSet::default();
        if let Some(Value::Str(s)) = v.get("host_tag") {
            set.host_tag = s.clone();
        }
        if let Some(Value::Int(n)) = v.get("nproc") {
            set.nproc = *n as usize;
        }
        set.seconds = v.get("seconds").and_then(as_f64).unwrap_or(0.0);
        if let Some(Value::Arr(seeds)) = v.get("seeds") {
            set.seeds = seeds.iter().filter_map(as_f64).map(|s| s as u64).collect();
        }
        let Some(Value::Obj(workloads)) = v.get("workloads") else {
            return Err("`workloads` is not an object".into());
        };
        for (name, metrics) in workloads {
            let Value::Obj(metrics) = metrics else {
                return Err(format!("workload `{name}` is not an object"));
            };
            let mut table = BTreeMap::new();
            for (metric, values) in metrics {
                let Value::Arr(values) = values else {
                    return Err(format!("`{name}.{metric}` is not an array"));
                };
                // `null` stands for a non-finite value; keep its slot.
                table.insert(
                    metric.clone(),
                    values.iter().map(|x| as_f64(x).unwrap_or(f64::NAN)).collect(),
                );
            }
            set.workloads.insert(name.clone(), table);
        }
        Ok(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let report = RunReport {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![("setup_s".into(), 0.8127349812), ("host_kops".into(), 441.0)],
        };
        let line = result_line(&report, &spec::end_to_end());
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127349812, \"unit\": \"s\"}"), "{line}");
        assert!(!line.contains('\n'));
        assert_eq!(parse_result_line(&line).unwrap(), report);
    }

    #[test]
    fn result_set_round_trips() {
        let mut set = ResultSet {
            host_tag: "linux-x86_64-2cpu".into(),
            nproc: 2,
            seconds: 6.0,
            seeds: vec![42, 43],
            ..Default::default()
        };
        set.workloads
            .entry("kv_mixed_fdp".into())
            .or_default()
            .insert("dlwa".into(), vec![1.0026, 1.003]);
        set.workloads
            .entry("kv_mixed_fdp".into())
            .or_default()
            .insert("host_kops".into(), vec![440.5, 438.25]);
        assert_eq!(ResultSet::from_json(&set.to_json()).unwrap(), set);
    }
}
