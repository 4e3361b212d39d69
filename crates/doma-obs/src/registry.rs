//! The metrics registry: named counters with label sets, resolved once
//! under a lock and updated through lock-free atomic handles thereafter.

use crate::json::escape;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A metric's identity: `(component, name, labels)`. Labels are sorted
/// at construction so equal label sets compare equal regardless of the
/// order the instrumentation site listed them in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// The subsystem that owns the metric (`sim`, `protocol`, `fault`…).
    pub component: String,
    /// The metric name, dot-separated (`cost.io`, `msgs_sent`…).
    pub name: String,
    /// Sorted `(key, value)` label pairs (`op=read`, `node=N0`…).
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(component: &str, name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricKey {
            component: component.to_string(),
            name: name.to_string(),
            labels,
        }
    }

    /// The value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.component, self.name)?;
        if !self.labels.is_empty() {
            let rendered: Vec<String> = self
                .labels
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            write!(f, "{{{}}}", rendered.join(","))?;
        }
        Ok(())
    }
}

/// A pre-resolved counter handle: one relaxed atomic add per update.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current tally.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An immutable point-in-time metric value: the paper's cost model is
/// three monotone tallies, so a metric is a counter. Non-exhaustive so
/// that a match outside this crate keeps a fallback arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MetricValue {
    /// A monotone tally.
    Counter(u64),
}

/// The shared registry. Cloning shares the underlying table; handle
/// resolution takes the lock once, after which updates go through the
/// returned atomic handles.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<MetricKey, Arc<AtomicU64>>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<MetricKey, Arc<AtomicU64>>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolves (registering on first use) a counter handle.
    pub fn counter(&self, component: &str, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(component, name, labels);
        Counter(Arc::clone(self.lock().entry(key).or_default()))
    }

    /// One-shot counter add for cold paths (takes the lock; hot paths
    /// should hold a resolved [`Counter`] instead).
    pub fn add(&self, component: &str, name: &str, labels: &[(&str, &str)], n: u64) {
        self.counter(component, name, labels).add(n);
    }

    /// Folds a snapshot into this registry: counters add. Keys are
    /// registered even at zero value, so merging the K per-shard
    /// registries of a sharded run reproduces the sequential registry's
    /// key set *and* totals exactly — the determinism contract the
    /// sharded executor's observability path rests on.
    pub fn merge(&self, other: &MetricsSnapshot) {
        let mut table = self.lock();
        for (key, MetricValue::Counter(v)) in &other.metrics {
            table
                .entry(key.clone())
                .or_default()
                .fetch_add(*v, Ordering::Relaxed);
        }
    }

    /// A deterministic point-in-time copy of every registered metric,
    /// in key order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self
                .lock()
                .iter()
                .map(|(k, c)| (k.clone(), MetricValue::Counter(c.load(Ordering::Relaxed))))
                .collect(),
        }
    }
}

/// An immutable, ordered snapshot of a registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Every metric at snapshot time, in key order.
    pub metrics: BTreeMap<MetricKey, MetricValue>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The value of one counter (0 when absent).
    pub fn counter(&self, component: &str, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counter_at(&MetricKey::new(component, name, labels))
    }

    /// The sum of every counter with this component and name, across
    /// all label sets — e.g. total `protocol/cost.io` over every
    /// `(op, node, algo)` breakdown.
    pub fn sum_counters(&self, component: &str, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.component == component && k.name == name)
            .map(|(_, MetricValue::Counter(c))| *c)
            .sum()
    }

    /// The counter-wise difference `self - earlier` (saturating).
    /// Metrics that did not change (zero delta) are omitted, so a delta
    /// renders as exactly the activity since `earlier`.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let metrics = self
            .metrics
            .iter()
            .filter_map(|(key, MetricValue::Counter(now))| {
                let d = now.saturating_sub(earlier.counter_at(key));
                (d > 0).then(|| (key.clone(), MetricValue::Counter(d)))
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    fn counter_at(&self, key: &MetricKey) -> u64 {
        match self.metrics.get(key) {
            Some(MetricValue::Counter(v)) => *v,
            None => 0,
        }
    }

    /// The stable JSON array: one object per metric, keys and rows in
    /// deterministic order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (key, MetricValue::Counter(v))) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"component\": \"{}\", \"name\": \"{}\", \"labels\": {{",
                escape(&key.component),
                escape(&key.name)
            ));
            for (j, (k, v)) in key.labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": \"{}\"", escape(k), escape(v)));
            }
            out.push_str(&format!("}}, \"kind\": \"counter\", \"value\": {v}}}"));
        }
        out.push(']');
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.metrics.is_empty() {
            return writeln!(f, "  (none)");
        }
        let width = self
            .metrics
            .keys()
            .map(|k| k.to_string().len())
            .max()
            .unwrap_or(0);
        for (key, MetricValue::Counter(v)) in &self.metrics {
            writeln!(f, "  {:<width$}  {v}", key.to_string())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_through_shared_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("sim", "msgs_sent", &[("kind", "control")]);
        let b = reg.counter("sim", "msgs_sent", &[("kind", "control")]);
        a.add(2);
        b.inc();
        assert_eq!(a.value(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim", "msgs_sent", &[("kind", "control")]), 3);
    }

    #[test]
    fn label_order_does_not_split_keys() {
        let reg = MetricsRegistry::new();
        reg.add("p", "cost.io", &[("op", "read"), ("node", "N0")], 1);
        reg.add("p", "cost.io", &[("node", "N0"), ("op", "read")], 1);
        assert_eq!(reg.snapshot().metrics.len(), 1);
        assert_eq!(reg.snapshot().sum_counters("p", "cost.io"), 2);
    }

    #[test]
    fn delta_keeps_only_changed_metrics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("p", "cost.control", &[("op", "read")]);
        c.add(2);
        let before = reg.snapshot();
        c.add(3);
        reg.add("p", "cost.data", &[("op", "write")], 1);
        let delta = reg.snapshot().delta(&before);
        assert_eq!(delta.metrics.len(), 2);
        assert_eq!(delta.counter("p", "cost.control", &[("op", "read")]), 3);
        assert_eq!(delta.counter("p", "cost.data", &[("op", "write")]), 1);
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let reg = MetricsRegistry::new();
        reg.add("b", "later", &[], 1);
        reg.add("a", "first", &[("z", "1"), ("a", "2")], 1);
        let a = reg.snapshot().to_json();
        let b = reg.snapshot().to_json();
        assert_eq!(a, b);
        let first = a.find("\"first\"").expect("present");
        let later = a.find("\"later\"").expect("present");
        assert!(first < later, "{a}");
        assert!(
            a.contains("\"labels\": {\"a\": \"2\", \"z\": \"1\"}"),
            "{a}"
        );
    }
}
