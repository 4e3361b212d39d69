//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms with label sets, resolved once under a lock and updated
//! through lock-free atomic handles thereafter.

use crate::json::escape;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
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

/// A pre-resolved gauge handle (a signed last-written value).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Inclusive upper bounds of the finite buckets; an implicit
    /// overflow bucket follows.
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum: AtomicU64,
}

/// A pre-resolved fixed-bucket histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(core.bounds.len());
        core.counts[idx].fetch_add(1, Ordering::Relaxed);
        core.total.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// An immutable point-in-time metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotone tally.
    Counter(u64),
    /// A last-written value.
    Gauge(i64),
    /// Bucket counts (finite buckets by upper bound, then overflow),
    /// total observation count and sum.
    Histogram {
        /// Inclusive upper bounds of the finite buckets.
        bounds: Vec<u64>,
        /// Per-bucket counts; `counts.len() == bounds.len() + 1` (the
        /// last entry is the overflow bucket).
        counts: Vec<u64>,
        /// Total observations.
        total: u64,
        /// Sum of observations.
        sum: u64,
    },
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

impl Slot {
    fn value(&self) -> MetricValue {
        match self {
            Slot::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
            Slot::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
            Slot::Histogram(h) => MetricValue::Histogram {
                bounds: h.bounds.clone(),
                counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
                total: h.total.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
            },
        }
    }
}

/// The shared registry. Cloning shares the underlying table; handle
/// resolution takes the lock once, after which updates go through the
/// returned atomic handles.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<MetricKey, Slot>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<MetricKey, Slot>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolves (registering on first use) a counter handle. If the key
    /// is already registered as a different metric kind the returned
    /// handle is detached (its updates are not exported) — a total
    /// function beats a panic in instrumentation code.
    pub fn counter(&self, component: &str, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(component, name, labels);
        let mut table = self.lock();
        let slot = table
            .entry(key)
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => Counter(Arc::clone(c)),
            _ => Counter(Arc::new(AtomicU64::new(0))),
        }
    }

    /// Resolves (registering on first use) a gauge handle; kind
    /// mismatches detach, as for [`MetricsRegistry::counter`].
    pub fn gauge(&self, component: &str, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(component, name, labels);
        let mut table = self.lock();
        let slot = table
            .entry(key)
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicI64::new(0))));
        match slot {
            Slot::Gauge(g) => Gauge(Arc::clone(g)),
            _ => Gauge(Arc::new(AtomicI64::new(0))),
        }
    }

    /// Resolves (registering on first use) a histogram with the given
    /// finite bucket bounds (sorted ascending by the caller); kind
    /// mismatches detach, as for [`MetricsRegistry::counter`].
    pub fn histogram(
        &self,
        component: &str,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Histogram {
        let key = MetricKey::new(component, name, labels);
        let mut table = self.lock();
        let slot = table.entry(key).or_insert_with(|| {
            Slot::Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }))
        });
        match slot {
            Slot::Histogram(h) => Histogram(Arc::clone(h)),
            _ => Histogram(Arc::new(HistogramCore {
                bounds: bounds.to_vec(),
                counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                total: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            })),
        }
    }

    /// One-shot counter add for cold paths (takes the lock; hot paths
    /// should hold a resolved [`Counter`] instead).
    pub fn add(&self, component: &str, name: &str, labels: &[(&str, &str)], n: u64) {
        self.counter(component, name, labels).add(n);
    }

    /// Folds a snapshot into this registry: counters add, gauges take
    /// the snapshot's value, histograms add bucket counts, total and sum
    /// (created with the snapshot's bounds when absent). Keys are
    /// registered even at zero value, so merging the K per-shard
    /// registries of a sharded run reproduces the sequential registry's
    /// key set *and* totals exactly — the determinism contract the
    /// sharded executor's observability path rests on. Kind mismatches
    /// are ignored, consistent with the detached-handle policy above.
    pub fn merge(&self, other: &MetricsSnapshot) {
        let mut table = self.lock();
        for (key, value) in &other.metrics {
            match value {
                MetricValue::Counter(v) => {
                    let slot = table
                        .entry(key.clone())
                        .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
                    if let Slot::Counter(c) = slot {
                        c.fetch_add(*v, Ordering::Relaxed);
                    }
                }
                MetricValue::Gauge(v) => {
                    let slot = table
                        .entry(key.clone())
                        .or_insert_with(|| Slot::Gauge(Arc::new(AtomicI64::new(0))));
                    if let Slot::Gauge(g) = slot {
                        g.store(*v, Ordering::Relaxed);
                    }
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    total,
                    sum,
                } => {
                    let slot = table.entry(key.clone()).or_insert_with(|| {
                        Slot::Histogram(Arc::new(HistogramCore {
                            bounds: bounds.clone(),
                            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                            total: AtomicU64::new(0),
                            sum: AtomicU64::new(0),
                        }))
                    });
                    if let Slot::Histogram(h) = slot {
                        for (bucket, add) in h.counts.iter().zip(counts) {
                            bucket.fetch_add(*add, Ordering::Relaxed);
                        }
                        h.total.fetch_add(*total, Ordering::Relaxed);
                        h.sum.fetch_add(*sum, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    /// A deterministic point-in-time copy of every registered metric,
    /// in key order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self
                .lock()
                .iter()
                .map(|(k, slot)| (k.clone(), slot.value()))
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

    /// The value of one counter (0 when absent or not a counter).
    pub fn counter(&self, component: &str, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self.metrics.get(&MetricKey::new(component, name, labels)) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The sum of every counter with this component and name, across
    /// all label sets — e.g. total `protocol/cost.io` over every
    /// `(op, node, algo)` breakdown.
    pub fn sum_counters(&self, component: &str, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.component == component && k.name == name)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// The component-wise difference `self - earlier`: counters and
    /// histogram counts subtract (saturating), gauges keep their current
    /// value. Metrics that did not change (zero delta) are omitted, so a
    /// delta renders as exactly the activity since `earlier`.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = BTreeMap::new();
        for (key, value) in &self.metrics {
            let diff = match (value, earlier.metrics.get(key)) {
                (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                    let d = now.saturating_sub(*then);
                    (d > 0).then_some(MetricValue::Counter(d))
                }
                (MetricValue::Counter(now), _) => (*now > 0).then_some(MetricValue::Counter(*now)),
                (MetricValue::Gauge(now), Some(MetricValue::Gauge(then))) => {
                    (now != then).then_some(MetricValue::Gauge(*now))
                }
                (MetricValue::Gauge(now), _) => Some(MetricValue::Gauge(*now)),
                (
                    MetricValue::Histogram {
                        bounds,
                        counts,
                        total,
                        sum,
                    },
                    earlier_value,
                ) => {
                    let (then_counts, then_total, then_sum) = match earlier_value {
                        Some(MetricValue::Histogram {
                            counts: c,
                            total: t,
                            sum: s,
                            ..
                        }) => (c.clone(), *t, *s),
                        _ => (vec![0; counts.len()], 0, 0),
                    };
                    let d_total = total.saturating_sub(then_total);
                    (d_total > 0).then(|| MetricValue::Histogram {
                        bounds: bounds.clone(),
                        counts: counts
                            .iter()
                            .zip(then_counts.iter().chain(std::iter::repeat(&0)))
                            .map(|(now, then)| now.saturating_sub(*then))
                            .collect(),
                        total: d_total,
                        sum: sum.saturating_sub(then_sum),
                    })
                }
            };
            if let Some(d) = diff {
                out.insert(key.clone(), d);
            }
        }
        MetricsSnapshot { metrics: out }
    }

    /// The stable JSON array: one object per metric, keys and rows in
    /// deterministic order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (key, value)) in self.metrics.iter().enumerate() {
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
            out.push_str("}, ");
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("\"kind\": \"counter\", \"value\": {v}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("\"kind\": \"gauge\", \"value\": {v}"));
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    total,
                    sum,
                } => {
                    out.push_str("\"kind\": \"histogram\", \"buckets\": [");
                    for (j, count) in counts.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        match bounds.get(j) {
                            Some(le) => {
                                out.push_str(&format!("{{\"le\": {le}, \"count\": {count}}}"))
                            }
                            None => {
                                out.push_str(&format!("{{\"le\": \"inf\", \"count\": {count}}}"))
                            }
                        }
                    }
                    out.push_str(&format!("], \"total\": {total}, \"sum\": {sum}"));
                }
            }
            out.push('}');
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
        for (key, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => {
                    writeln!(f, "  {:<width$}  {v}", key.to_string())?;
                }
                MetricValue::Gauge(v) => {
                    writeln!(f, "  {:<width$}  {v}", key.to_string())?;
                }
                MetricValue::Histogram { total, sum, .. } => {
                    writeln!(f, "  {:<width$}  n={total} sum={sum}", key.to_string())?
                }
            }
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
    fn kind_mismatch_detaches_instead_of_panicking() {
        let reg = MetricsRegistry::new();
        reg.add("a", "x", &[], 5);
        let g = reg.gauge("a", "x", &[]);
        g.set(9);
        assert_eq!(reg.snapshot().counter("a", "x", &[]), 5);
    }

    #[test]
    fn gauges_and_histograms_snapshot() {
        let reg = MetricsRegistry::new();
        reg.gauge("p", "join_list", &[("node", "N1")]).set(3);
        let h = reg.histogram("p", "read_latency", &[], &[1, 4, 16]);
        h.observe(0);
        h.observe(5);
        h.observe(100);
        let snap = reg.snapshot();
        assert_eq!(
            snap.metrics
                .get(&MetricKey::new("p", "join_list", &[("node", "N1")])),
            Some(&MetricValue::Gauge(3))
        );
        match snap.metrics.get(&MetricKey::new("p", "read_latency", &[])) {
            Some(MetricValue::Histogram {
                counts, total, sum, ..
            }) => {
                assert_eq!(counts, &vec![1, 0, 1, 1]);
                assert_eq!(*total, 3);
                assert_eq!(*sum, 105);
            }
            other => panic!("unexpected {other:?}"),
        }
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
