//! What a run prints and writes: the one-line result on stdout, the table
//! on stderr, and the result file with its provenance. `BENCHMARK.json`,
//! compiled in, is the one place metric names, units and bounds live.

use crate::deploy::Sizes;
use crate::spans::NameTotals;
use crate::sys::Host;
use doma_analysis::jsonv::Jv;
use doma_obs::json::escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric of the catalog in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

/// The catalog: which metrics a run reports, in order.
pub struct Catalog {
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Catalog {
    pub fn load() -> Catalog {
        let doc = Jv::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let specs = |key: &str| -> Vec<MetricSpec> {
            doc.get(key)
                .and_then(Jv::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Jv::as_str).expect("string field");
                    MetricSpec {
                        name: text("name").to_string(),
                        unit: text("unit").to_string(),
                        lower_is_better: text("better") == "lower",
                        bound: m.get("bound").and_then(Jv::as_f64),
                    }
                })
                .collect()
        };
        Catalog {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Jv::as_u64)
                .expect("run_seconds"),
            end_to_end: specs("end_to_end"),
            per_layer: specs("per_layer"),
        }
    }
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Pairs every metric of `specs` with its measured value, in catalog
/// order. A metric with no value, a value for no metric, or a value that
/// is not a finite number is a bug in this benchmark.
pub fn in_catalog_order(
    specs: &[MetricSpec],
    values: &Values,
) -> Result<Vec<(MetricSpec, f64)>, String> {
    if let Some(stray) = values.keys().find(|k| !specs.iter().any(|s| &s.name == *k)) {
        return Err(format!(
            "measured {stray}, which BENCHMARK.json does not list"
        ));
    }
    specs
        .iter()
        .map(|spec| match values.get(&spec.name) {
            Some(v) if v.is_finite() => Ok((spec.clone(), *v)),
            Some(v) => Err(format!("{} = {v} is not a finite number", spec.name)),
            None => Err(format!("{} was not measured", spec.name)),
        })
        .collect()
}

fn metrics_json(metrics: &[(MetricSpec, f64)]) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|(spec, value)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                escape(&spec.name),
                escape(&spec.unit)
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// Everything one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub report_digest: String,
    pub sizes: Sizes,
    /// Wall seconds per deployment and pass, in the order they ran.
    pub wall_s: Vec<(&'static str, f64)>,
    /// Per `uds` segment: requests per second, p50 and p99 latency in µs
    /// (each end-to-end `uds_*` metric is the best of its column).
    pub uds_segments: Vec<[f64; 3]>,
    /// `VmHWM` in MiB when the whole run ended.
    pub peak_rss_end_mb: f64,
    /// The CPU everything but `shard2` was pinned to, if pinning worked.
    pub pinned_cpu: Option<usize>,
    pub end_to_end: Vec<(MetricSpec, f64)>,
    /// Only a traced run has these.
    pub per_layer: Vec<(MetricSpec, f64)>,
    pub span_totals: BTreeMap<&'static str, NameTotals>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line: every end-to-end metric, or on a traced
    /// run every per-layer metric.
    pub fn result_line(&self) -> String {
        let metrics = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(metrics)
        )
    }

    /// The result file: the measured metrics with where, on what and at
    /// which sizes they were measured.
    pub fn file_json(&self, host: &Host) -> String {
        let s = &self.sizes;
        let wall: Vec<String> = self
            .wall_s
            .iter()
            .map(|(name, secs)| format!("\"{name}\": {secs}"))
            .collect();
        let column = |i: usize| -> String {
            let values: Vec<String> = self.uds_segments.iter().map(|s| s[i].to_string()).collect();
            values.join(", ")
        };
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        let spans: Vec<String> = self
            .span_totals
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.count, t.total_ns, t.self_ns
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {},\n  \
             \"smoke\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \
             \"failures\": [{}],\n  \"report_digest\": \"{}\",\n  \"provenance\": {{\n    \
             \"git_commit\": \"{}\",\n    \"nproc\": {},\n    \"kernel\": \"{}\",\n    \
             \"rustc\": \"{}\",\n    \"sizes\": {{\"requests\": {}, \"sim_reps\": {}, \"obs_reps\": {}, \
             \"trace_reps\": {}, \"trace_requests\": {}, \"shard_reps\": {}, \"shards\": {}, \
             \"rounds\": {}, \"uds_clusters\": {}, \"segments\": {}, \"segment_requests\": {}, \"tcp_cap_s\": {}, \
             \"span_requests\": {}, \"setup_reps\": {}}},\n    \"wall_s\": {{{}}},\n    \"peak_rss_end_mb\": {},\n    \"pinned_cpu\": {},\n    \
             \"uds_segments\": {{\"req_per_s\": [{}], \"p50_us\": [{}], \"p99_us\": [{}]}}\n  }},\n  \
             \"end_to_end\": {},\n  \"per_layer\": {},\n  \"spans\": {{{}}}\n}}\n",
            self.workload,
            self.seed,
            self.seconds,
            self.traced,
            self.smoke,
            self.correct(),
            self.attempted,
            self.failed,
            failures.join(", "),
            escape(&self.report_digest),
            escape(&host.git_commit),
            host.nproc,
            escape(&host.kernel),
            escape(&host.rustc),
            s.requests,
            s.sim_reps,
            s.obs_reps,
            s.trace_reps,
            s.trace_requests,
            s.shard_reps,
            crate::deploy::SHARDS,
            s.rounds,
            s.uds_clusters,
            s.segments,
            s.segment_requests,
            s.tcp_cap_s,
            s.span_requests,
            s.setup_reps,
            wall.join(", "),
            self.peak_rss_end_mb,
            self.pinned_cpu.map_or("null".to_string(), |cpu| cpu.to_string()),
            column(0),
            column(1),
            column(2),
            metrics_json(&self.end_to_end),
            metrics_json(&self.per_layer),
            spans.join(", "),
        )
    }

    /// The table a person reads, for stderr.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} seed {} ({}{}) ==",
            self.workload,
            self.seed,
            if self.smoke { "smoke" } else { "full" },
            if self.traced {
                ", traced: end-to-end values below include span recording"
            } else {
                ""
            }
        );
        let mut rows = |title: &str, metrics: &[(MetricSpec, f64)]| {
            if metrics.is_empty() {
                return;
            }
            let _ = writeln!(out, "-- {title} --");
            for (spec, value) in metrics {
                let bound = spec.bound.map_or(String::new(), |b| {
                    format!("  (may worsen by {:.1}%)", b * 100.0)
                });
                let _ = writeln!(
                    out,
                    "{:<40} {:>16.4} {:<8} {} is better{bound}",
                    spec.name,
                    value,
                    spec.unit,
                    if spec.lower_is_better {
                        "lower"
                    } else {
                        "higher"
                    },
                );
            }
        };
        rows("end to end", &self.end_to_end);
        rows("per layer", &self.per_layer);
        if !self.span_totals.is_empty() {
            let _ = writeln!(out, "-- spans: count, total ms, self ms --");
            for (name, t) in &self.span_totals {
                let _ = writeln!(
                    out,
                    "{name:<40} {:>10} {:>12.3} {:>12.3}",
                    t.count,
                    t.total_ns as f64 / 1e6,
                    t.self_ns as f64 / 1e6
                );
            }
        }
        let wall: Vec<String> = self
            .wall_s
            .iter()
            .map(|(name, secs)| format!("{name} {secs:.2}s"))
            .collect();
        let _ = writeln!(out, "-- wall: {} --", wall.join(", "));
        let _ = writeln!(
            out,
            "{}: {} attempted, {} failed",
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            },
            self.attempted,
            self.failed
        );
        for failure in &self.failures {
            let _ = writeln!(out, "  failed: {failure}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_meets_the_contract() {
        let catalog = Catalog::load();
        assert_eq!(catalog.end_to_end.len(), 13);
        assert!(catalog.per_layer.len() <= 128);
        assert!((1..=60).contains(&catalog.run_seconds));
        let setup = catalog
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in catalog.end_to_end.iter().chain(&catalog.per_layer) {
            assert!(name_ok(&m.name), "{}", m.name);
            assert!(unit_ok(&m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name.clone()), "{} is listed twice", m.name);
        }
        for m in &catalog.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(catalog.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn values_must_match_the_catalog_exactly() {
        let specs = vec![MetricSpec {
            name: "a".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: None,
        }];
        let ok = Values::from([("a".to_string(), 1.5)]);
        assert_eq!(in_catalog_order(&specs, &ok).unwrap()[0].1, 1.5);
        assert!(in_catalog_order(&specs, &Values::new()).is_err());
        let stray = Values::from([("a".to_string(), 1.0), ("b".to_string(), 2.0)]);
        assert!(in_catalog_order(&specs, &stray).is_err());
        let nan = Values::from([("a".to_string(), f64::NAN)]);
        assert!(in_catalog_order(&specs, &nan).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let spec = MetricSpec {
            name: "setup_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(0.25),
        };
        let result = RunResult {
            workload: "mix64",
            seed: 1,
            seconds: 20,
            traced: false,
            smoke: false,
            attempted: 10,
            failed: 0,
            failures: vec![],
            report_digest: "d".into(),
            sizes: Sizes::smoke(),
            wall_s: vec![("sim", 0.5)],
            uds_segments: vec![[2500.0, 390.0, 700.0]],
            peak_rss_end_mb: 60.0,
            pinned_cpu: Some(1),
            end_to_end: vec![(spec, 0.8127)],
            per_layer: vec![],
            span_totals: BTreeMap::new(),
        };
        let line = Jv::parse(&result.result_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        // The result file parses and carries the provenance --agree needs.
        let host = Host {
            git_commit: "abc".into(),
            nproc: 2,
            kernel: "k".into(),
            rustc: "rustc 1".into(),
        };
        let file = Jv::parse(&result.file_json(&host)).unwrap();
        let provenance = file.get("provenance").unwrap();
        assert_eq!(provenance.get("nproc").unwrap().as_u64(), Some(2));
        assert_eq!(
            provenance
                .get("sizes")
                .unwrap()
                .get("requests")
                .unwrap()
                .as_u64(),
            Some(20_000)
        );
    }
}
