//! `--compare A.json B.json`: applies each end-to-end metric's bound to
//! two result sets, workload by workload, the way a change must be
//! judged — medians against the bound, and "unresolved" rather than
//! "unchanged" where the run-to-run spread is wider than the bound.

use crate::json::ResultSet;
use crate::spec::{self, Better, Metric};
use crate::stats::{median, spread};

/// The judgement on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The data cannot say: a side is missing, or its spread exceeds
    /// the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A on one metric. Returns the verdict and by what
/// share of A's median B is worse (negative when better).
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let bound = metric.bound.unwrap_or(0.0);
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return (Verdict::Unresolved, f64::NAN);
    };
    if !ma.is_finite() || !mb.is_finite() {
        return (Verdict::Unresolved, f64::NAN);
    }
    let worse_by = match metric.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    // A metric expected to be exactly 0 (the failure share) has no
    // scale: any worsening at all is infinite against it.
    let worse = if ma != 0.0 {
        worse_by / ma.abs()
    } else if worse_by > 0.0 {
        f64::INFINITY
    } else {
        0.0
    };
    let too_noisy = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    let verdict = if too_noisy(a) || too_noisy(b) {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// The metrics `--compare` judges: every end-to-end metric, and the
/// failure share, which may not increase at all.
pub fn judged_metrics() -> Vec<Metric> {
    let mut metrics = spec::end_to_end();
    metrics.extend(
        spec::per_layer()
            .into_iter()
            .filter(|m| m.name == "harness.failed_ops_share")
            .map(|m| Metric { bound: Some(0.0), ..m }),
    );
    metrics
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of A's runs.
    pub a: f64,
    /// Median of B's runs.
    pub b: f64,
    /// Share of A's median by which B is worse.
    pub worse: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// Compares B against A on every workload × judged metric.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Vec<Row> {
    let none = Vec::new();
    let mut rows = Vec::new();
    for w in spec::workloads() {
        for m in judged_metrics() {
            let values = |set: &ResultSet| {
                set.workloads.get(w.name).and_then(|t| t.get(&m.name)).unwrap_or(&none).clone()
            };
            let (va, vb) = (values(a), values(b));
            let (verdict, worse) = judge(&m, &va, &vb);
            rows.push(Row {
                workload: w.name.to_string(),
                metric: m.name.clone(),
                a: median(&va).unwrap_or(f64::NAN),
                b: median(&vb).unwrap_or(f64::NAN),
                worse,
                bound: m.bound.unwrap_or(0.0),
                verdict,
            });
        }
    }
    rows
}

/// Renders the table and returns whether any row regressed.
pub fn render(rows: &[Row]) -> (String, bool) {
    let mut out = format!(
        "{:<20} {:<26} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "A median", "B median", "worse by", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:<26} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse * 100.0,
            r.bound * 100.0,
            r.verdict.as_str()
        ));
    }
    (out, rows.iter().any(|r| r.verdict == Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Metric {
        Metric { name: "m".into(), unit: "x", better, bound: Some(bound) }
    }

    #[test]
    fn within_bound_is_ok_beyond_is_regressed() {
        let lower = metric(Better::Lower, 0.10);
        assert_eq!(judge(&lower, &[100.0], &[109.0]).0, Verdict::Ok);
        assert_eq!(judge(&lower, &[100.0], &[111.0]).0, Verdict::Regressed);
        assert_eq!(judge(&lower, &[100.0], &[50.0]).0, Verdict::Ok, "better is never a regression");
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(judge(&higher, &[100.0], &[91.0]).0, Verdict::Ok);
        assert_eq!(judge(&higher, &[100.0], &[89.0]).0, Verdict::Regressed);
        assert_eq!(judge(&higher, &[100.0], &[150.0]).0, Verdict::Ok);
    }

    #[test]
    fn medians_not_single_runs_are_compared() {
        let m = metric(Better::Lower, 0.10);
        let a = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5, 100.0, 101.0, 99.0];
        let b = [100.0, 101.0, 99.5, 100.0, 130.0, 99.0, 100.5, 100.0, 101.0];
        assert_eq!(judge(&m, &a, &b).0, Verdict::Ok, "one outlier must not move the median");
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        let m = metric(Better::Lower, 0.05);
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&m, &noisy, &[100.0]).0, Verdict::Unresolved);
        assert_eq!(judge(&m, &[100.0], &noisy).0, Verdict::Unresolved);
        assert_eq!(judge(&m, &[], &[100.0]).0, Verdict::Unresolved);
    }

    #[test]
    fn a_zero_metric_may_not_increase_at_all() {
        let m = metric(Better::Lower, 0.0);
        assert_eq!(judge(&m, &[0.0, 0.0], &[0.0, 0.0]).0, Verdict::Ok);
        assert_eq!(judge(&m, &[0.0, 0.0], &[1e-9, 1e-9]).0, Verdict::Regressed);
    }

    #[test]
    fn compare_covers_every_workload_and_judged_metric() {
        let rows = compare(&ResultSet::default(), &ResultSet::default());
        assert_eq!(rows.len(), spec::workloads().len() * (spec::end_to_end().len() + 1));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Unresolved));
        assert!(!render(&rows).1, "unresolved is not a regression");
    }
}
