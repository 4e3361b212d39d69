//! `--agree <setA> <setB>`: do two sets of result files agree within the
//! benchmark's own bounds?

use crate::report::{Catalog, MetricSpec};
use crate::stats::{iqr_share, median};
use doma_analysis::jsonv::Jv;
use std::collections::BTreeMap;
use std::path::Path;

/// One set: per workload, what identifies its runs as comparable and every
/// end-to-end metric's values over the runs.
type ResultSet = BTreeMap<String, (String, BTreeMap<String, Vec<f64>>)>;

/// Reads every untraced `*.result.json` under `dir`.
fn load(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if !path.to_string_lossy().ends_with(".result.json") {
            continue;
        }
        let at = |what: &str| format!("{}: {what}", path.display());
        let text = std::fs::read_to_string(&path).map_err(|e| at(&e.to_string()))?;
        let doc = Jv::parse(&text).map_err(|e| at(&e))?;
        if doc.get("traced") != Some(&Jv::Bool(false)) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Jv::as_str)
            .ok_or(at("no workload"))?;
        let provenance = doc.get("provenance").ok_or(at("no provenance"))?;
        // Runs compare only at the same seed, sizes and core count, and
        // pinned to one CPU (or not) alike.
        let pinned = provenance
            .get("pinned_cpu")
            .is_some_and(|cpu| *cpu != Jv::Null);
        let identity = format!(
            "seed {} nproc {} pinned {pinned} sizes {}",
            doc.get("seed").map_or("?".into(), Jv::render),
            provenance.get("nproc").map_or("?".into(), Jv::render),
            provenance.get("sizes").map_or("?".into(), Jv::render),
        );
        let entry = set
            .entry(workload.to_string())
            .or_insert_with(|| (identity.clone(), BTreeMap::new()));
        if entry.0 != identity {
            return Err(at(&format!("{identity}, but its set has {}", entry.0)));
        }
        let metrics = doc
            .get("end_to_end")
            .and_then(Jv::as_object)
            .ok_or(at("no end_to_end"))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Jv::as_f64)
                .ok_or(at("metric without a value"))?;
            entry.1.entry(name.clone()).or_default().push(value);
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(set)
}

/// How one metric of one workload compares between the two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Agree,
    /// B's median is worse than A's by more than the bound.
    Outside,
    /// A set's own spread is wider than the bound, so a gap of that size
    /// means nothing either way.
    Unresolved,
}

/// The share of A's median by which B's is worse (negative: better).
fn worse_by(spec: &MetricSpec, a: f64, b: f64) -> f64 {
    if spec.lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> (Verdict, f64, f64) {
    let bound = spec.bound.expect("end-to-end metrics have bounds");
    let gap = worse_by(spec, median(a), median(b));
    let spread_of = |v: &[f64]| if v.len() < 2 { 0.0 } else { iqr_share(v) };
    let spread = spread_of(a).max(spread_of(b));
    let every_b_beats_every_a = a
        .iter()
        .all(|a| b.iter().all(|b| worse_by(spec, *a, *b) < 0.0));
    let verdict = if spread > bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else if gap > bound {
        Verdict::Outside
    } else {
        Verdict::Agree
    };
    (verdict, gap, spread)
}

/// Prints one row per (metric, workload); `Ok(false)` if any is outside.
pub fn agree(catalog: &Catalog, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (load(dir_a)?, load(dir_b)?);
    let mut all_inside = true;
    println!(
        "{:<10} {:<18} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "spread", "bound"
    );
    for (workload, (identity_a, metrics_a)) in &set_a {
        let (identity_b, metrics_b) = set_b
            .get(workload)
            .ok_or(format!("{workload} is in {} only", dir_a.display()))?;
        if identity_a != identity_b {
            return Err(format!("{workload}: {identity_a} against {identity_b}"));
        }
        for spec in &catalog.end_to_end {
            let (a, b) = match (metrics_a.get(&spec.name), metrics_b.get(&spec.name)) {
                (Some(a), Some(b)) => (a, b),
                _ => return Err(format!("{workload}: {} is missing from a set", spec.name)),
            };
            let (verdict, gap, spread) = judge(spec, a, b);
            all_inside &= verdict != Verdict::Outside;
            println!(
                "{workload:<10} {:<18} {:>14.4} {:>14.4} {:>8.2}% {:>8.2}% {:>6.1}%  {}",
                spec.name,
                median(a),
                median(b),
                gap * 100.0,
                spread * 100.0,
                spec.bound.unwrap_or(0.0) * 100.0,
                match verdict {
                    Verdict::Agree => "agree",
                    Verdict::Outside => "outside",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if let Some(extra) = set_b.keys().find(|w| !set_a.contains_key(*w)) {
        return Err(format!("{extra} is in {} only", dir_b.display()));
    }
    Ok(all_inside)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower_is_better: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            lower_is_better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady_a = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Throughput down 20% against a 10% bound.
        let slow_b = [80.0, 81.0, 79.0, 80.0, 80.5];
        assert_eq!(
            judge(&spec(false, 0.10), &steady_a, &slow_b).0,
            Verdict::Outside
        );
        // The same numbers as a latency are an improvement.
        assert_eq!(
            judge(&spec(true, 0.10), &steady_a, &slow_b).0,
            Verdict::Agree
        );
        assert_eq!(
            judge(&spec(false, 0.25), &steady_a, &slow_b).0,
            Verdict::Agree
        );
        // A set that wanders more than the bound resolves nothing …
        let noisy_b = [60.0, 120.0, 90.0, 100.0, 140.0];
        assert_eq!(
            judge(&spec(false, 0.10), &steady_a, &noisy_b).0,
            Verdict::Unresolved
        );
        // … unless every run of B reads better than every run of A.
        let noisy_fast_b = [160.0, 320.0, 190.0, 200.0, 240.0];
        assert_eq!(
            judge(&spec(false, 0.10), &steady_a, &noisy_fast_b).0,
            Verdict::Agree
        );
        // Identical values, zero bound: the exact metrics.
        assert_eq!(
            judge(&spec(true, 0.0), &[1.5, 1.5], &[1.5, 1.5]).0,
            Verdict::Agree
        );
    }
}
