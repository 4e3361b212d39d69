//! `doma-obs`: the workspace's zero-dependency observability layer.
//!
//! The paper's whole argument is a cost accounting — `cio`/`cc`/`cd`
//! per read, write and save-read under the t-availability constraint —
//! and this crate makes that accounting visible *while it accrues*
//! instead of only as end-of-run totals:
//!
//! * [`MetricsRegistry`] — lock-cheap counters keyed by
//!   `(component, name, labels)`, one per tally the cost model and the
//!   engine keep (the paper's costs are monotone counts, so counters are
//!   the only metric kind). Handles resolve once under a lock and then
//!   update atomics, so the hot simulation paths pay one relaxed atomic
//!   add per event.
//! * [`EventLog`] — a bounded log of structured records with
//!   span support ([`span!`] → enter/exit pairs carrying sim-time
//!   durations). Fields are typed ([`FieldValue`]) and held inside the
//!   record ([`Fields`]); text is produced only when a record is
//!   rendered, so recording numbers, flags, ids and literals allocates
//!   nothing. When the bound is hit the oldest records are discarded
//!   **and counted**: [`EventLog::dropped_events`] exposes the
//!   truncation instead of wrapping silently.
//! * [`Obs`] — the bundle the harnesses attach (registry + log), with a
//!   deterministic human table ([`std::fmt::Display`]) and a stable
//!   JSON snapshot ([`Obs::snapshot_json`]) consumed by `domactl obs`
//!   and appended to bench reports.
//! * [`trace`] — the causal layer over the log: per-request spans with
//!   message-level happens-before edges, a deterministic critical-path
//!   analyzer, a byte-stable Chrome trace-event exporter and the
//!   slowest-K text report behind `domactl trace`.
//!
//! # Determinism contract
//!
//! Nothing in this crate reads wall-clock time, the process id, or any
//! randomness. Every timestamp is the caller's virtual [`SimTime`]-style
//! tick; every snapshot iterates `BTreeMap`s in key order. Two runs of
//! the same seeded scenario therefore produce **byte-identical** JSON —
//! tests assert on snapshots directly, and `scripts/verify.sh` diffs two
//! `domactl obs` runs as a gate.
//!
//! [`SimTime`]: u64

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Output flows through the event log and the registry.
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

pub mod event;
pub mod json;
pub mod registry;
pub mod trace;

pub use event::{EventLog, EventPhase, EventRecord, FieldRef, FieldValue, Fields, SpanId};
pub use registry::{Counter, MetricKey, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use trace::{MsgEdge, RequestTrace, TraceModel};

use std::fmt;

/// The attachable observability bundle: one metrics registry plus one
/// bounded event log. Cloning shares both (handles are `Arc`-backed);
/// the simulation engine, every protocol node and the fault driver all
/// hold clones of the same bundle.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    metrics: MetricsRegistry,
    events: EventLog,
}

impl Obs {
    /// A fresh bundle whose event log retains at most `event_capacity`
    /// records (older records are dropped *and counted*).
    pub fn new(event_capacity: usize) -> Self {
        Obs {
            metrics: MetricsRegistry::new(),
            events: EventLog::new(event_capacity),
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Folds per-shard bundles into this one, deterministically:
    ///
    /// * metric snapshots merge via [`MetricsRegistry::merge`], so
    ///   counter totals and the registered key set are identical to a
    ///   sequential run regardless of how many shards produced them;
    /// * every shard's retained event records are interleaved by
    ///   `(time, shard, index)` — a total order, since indices are
    ///   unique within a shard — and appended with a `shard` label
    ///   (times stay shard-local: each shard's engine runs its own
    ///   virtual clock);
    /// * dropped-event counts sum.
    ///
    /// The `shard` label and shard-local event times are the *only*
    /// documented differences between a merged K-shard snapshot and the
    /// sequential one; the metrics section is byte-identical.
    pub fn merge_shards(&self, shards: &[Obs]) {
        let mut records: Vec<(u64, usize, u64, EventRecord)> = Vec::new();
        for (shard, bundle) in shards.iter().enumerate() {
            self.metrics.merge(&bundle.metrics().snapshot());
            self.events.add_dropped(bundle.events().dropped_events());
            for record in bundle.events().snapshot() {
                records.push((record.time, shard, record.index, record));
            }
        }
        records.sort_by_key(|(time, shard, index, _)| (*time, *shard, *index));
        for (_, shard, _, mut record) in records {
            record.fields.push("shard", shard);
            self.events.append_record(&record);
        }
    }

    /// The stable JSON snapshot: `{"dropped_events": …, "events": […],
    /// "metrics": […]}` with every object key and metric row in a
    /// deterministic order. Byte-identical across two runs of the same
    /// seeded scenario.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"dropped_events\": {}, \"events\": [",
            self.events.dropped_events()
        ));
        let records = self.events.snapshot();
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&r.to_json());
        }
        out.push_str("], \"metrics\": ");
        out.push_str(&self.metrics.snapshot().to_json());
        out.push('}');
        out
    }
}

impl fmt::Display for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "metrics:")?;
        write!(f, "{}", self.metrics.snapshot())?;
        writeln!(
            f,
            "events ({} retained, {} dropped):",
            self.events.len(),
            self.events.dropped_events()
        )?;
        for record in self.events.snapshot() {
            writeln!(f, "  {record}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_stable_and_shaped() {
        let obs = Obs::new(4);
        obs.metrics()
            .add("sim", "msgs_sent", &[("kind", "control")], 2);
        obs.events()
            .record(3, "sim.crash", vec![("node".into(), "N1".into())]);
        let a = obs.snapshot_json();
        let b = obs.snapshot_json();
        assert_eq!(a, b);
        assert!(
            a.starts_with("{\"dropped_events\": 0, \"events\": ["),
            "{a}"
        );
        assert!(a.contains("\"metrics\": ["), "{a}");
        assert!(a.contains("\"sim.crash\""), "{a}");
    }

    #[test]
    fn merge_shards_reproduces_sequential_metrics_and_orders_events() {
        // "Sequential" bundle: everything recorded into one registry.
        let seq = Obs::new(16);
        seq.metrics().add("p", "cost.io", &[("op", "read")], 3);
        seq.metrics().add("p", "cost.io", &[("op", "write")], 5);

        // Same totals split across two shard bundles.
        let s0 = Obs::new(16);
        s0.metrics().add("p", "cost.io", &[("op", "read")], 3);
        s0.events().record(4, "late", vec![]);
        let s1 = Obs::new(16);
        s1.metrics().add("p", "cost.io", &[("op", "write")], 5);
        // Zero-valued key must still register so key sets match.
        s1.metrics().add("p", "cost.io", &[("op", "read")], 0);
        s1.events().record(2, "early", vec![]);

        let merged = Obs::new(16);
        merged.merge_shards(&[s0, s1]);
        assert_eq!(
            merged.metrics().snapshot().to_json(),
            seq.metrics().snapshot().to_json()
        );
        // Events interleave by (time, shard, index) and carry the label.
        let events = merged.events().snapshot();
        assert_eq!(events[0].name, "early");
        assert_eq!(events[0].fields, fields!(shard = 1u64));
        assert_eq!(events[1].name, "late");
        assert_eq!(events[1].fields, fields!(shard = 0u64));
    }

    #[test]
    fn merge_shards_sums_dropped_events() {
        let shard = Obs::new(1);
        shard.events().record(1, "a", vec![]);
        shard.events().record(2, "b", vec![]);
        shard.events().record(3, "c", vec![]);
        assert_eq!(shard.events().dropped_events(), 2);
        let merged = Obs::new(8);
        merged.merge_shards(&[shard]);
        assert_eq!(merged.events().dropped_events(), 2);
        assert_eq!(merged.events().len(), 1);
    }

    #[test]
    fn display_lists_metrics_and_events() {
        let obs = Obs::new(2);
        obs.metrics().add("p", "cost.io", &[("op", "read")], 1);
        obs.events().record(1, "e.one", vec![]);
        obs.events().record(2, "e.two", vec![]);
        obs.events().record(3, "e.three", vec![]);
        let text = obs.to_string();
        assert!(text.contains("cost.io"), "{text}");
        assert!(text.contains("2 retained, 1 dropped"), "{text}");
    }

    #[test]
    fn typed_fields_render_identically_through_snapshot_and_merge() {
        let record_into = |obs: &Obs, stringly: bool| {
            if stringly {
                obs.events().record(
                    3,
                    "sim.drop",
                    vec![
                        ("from".to_string(), "N1".to_string()),
                        ("kind".to_string(), "Data".to_string()),
                        ("delivered".to_string(), "false".to_string()),
                        ("round".to_string(), "7".to_string()),
                        ("label".to_string(), "Lost(\"x\")".to_string()),
                    ],
                );
            } else {
                event!(
                    obs.events(),
                    3,
                    "sim.drop",
                    from = FieldRef::Id("N", 1),
                    kind = "Data",
                    delivered = false,
                    round = 7u64,
                    label = String::from("Lost(\"x\")"),
                );
            }
        };
        let (typed, stringly) = (Obs::new(4), Obs::new(4));
        record_into(&typed, false);
        record_into(&stringly, true);
        assert_eq!(
            typed.snapshot_json(),
            "{\"dropped_events\": 0, \"events\": [{\"index\": 0, \"time\": 3, \
             \"name\": \"sim.drop\", \"phase\": \"point\", \"fields\": {\"from\": \"N1\", \
             \"kind\": \"Data\", \"delivered\": \"false\", \"round\": \"7\", \
             \"label\": \"Lost(\\\"x\\\")\"}}], \"metrics\": []}"
        );
        assert_eq!(typed.snapshot_json(), stringly.snapshot_json());
        assert_eq!(typed.to_string(), stringly.to_string());

        // The merge appends `shard` as the sixth field of either form.
        let (merged_typed, merged_stringly) = (Obs::new(4), Obs::new(4));
        merged_typed.merge_shards(&[Obs::new(1), typed]);
        merged_stringly.merge_shards(&[Obs::new(1), stringly]);
        assert_eq!(
            merged_typed.events().render(),
            "#0 t=3 sim.drop from=N1 kind=Data delivered=false round=7 label=Lost(\"x\") shard=1"
        );
        assert_eq!(
            merged_typed.snapshot_json(),
            merged_stringly.snapshot_json()
        );
        assert_eq!(
            merged_typed.events().snapshot(),
            merged_stringly.events().snapshot()
        );
    }
}
