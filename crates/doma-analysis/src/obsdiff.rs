//! Structural diff of two obs snapshots (`domactl obs diff`).
//!
//! Both inputs are the byte-stable JSON that [`doma_obs::Obs::snapshot_json`]
//! emits — either raw, wrapped in a scenario report's `"obs"` member, or
//! inside the array `domactl scenario all --format json` prints. The diff
//! is *structural*, not textual: metrics are keyed by
//! `(component, name, labels, kind)` so a reordered or re-run snapshot
//! with the same content diffs clean, while a changed counter shows as
//! one `~` row instead of a wall of JSON. Event streams are compared as
//! per-name record counts plus the `dropped_events` tally — the
//! granularity at which two runs of a deterministic scenario can
//! legitimately differ.

use crate::jsonv::Jv;
use std::collections::BTreeMap;

/// One metric present in both snapshots with different values.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// The metric identity: `component/name{labels} kind`.
    pub key: String,
    /// Rendered value in the first snapshot.
    pub before: String,
    /// Rendered value in the second snapshot.
    pub after: String,
}

/// The structural difference between two obs snapshots.
#[derive(Debug, Clone, Default)]
pub struct ObsDiff {
    /// Metrics only in the second snapshot, with their values.
    pub added: Vec<(String, String)>,
    /// Metrics only in the first snapshot, with their values.
    pub removed: Vec<(String, String)>,
    /// Metrics in both with different values.
    pub changed: Vec<MetricDelta>,
    /// Event names whose record counts differ: `(name, count_a, count_b)`.
    pub events: Vec<(String, u64, u64)>,
    /// Total retained event records in each snapshot.
    pub total_events: (u64, u64),
    /// `dropped_events` in each snapshot.
    pub dropped: (u64, u64),
}

impl ObsDiff {
    /// Whether the two snapshots are structurally identical.
    pub fn is_clean(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.changed.is_empty()
            && self.events.is_empty()
            && self.dropped.0 == self.dropped.1
    }
}

/// Locates the obs snapshot inside a parsed document: accepts a raw
/// snapshot (`events` + `metrics` members), a scenario report
/// (`"obs": {…}`), or an array of reports — `which` selects by scenario
/// name, otherwise the array must contain exactly one report.
pub fn extract_obs<'a>(doc: &'a Jv, which: Option<&str>) -> Result<&'a Jv, String> {
    if doc.get("events").is_some() && doc.get("metrics").is_some() {
        return Ok(doc);
    }
    if let Some(obs) = doc.get("obs") {
        return extract_obs(obs, which);
    }
    if let Some(items) = doc.as_array() {
        let report = match which {
            Some(name) => items
                .iter()
                .find(|r| r.get("scenario").and_then(Jv::as_str) == Some(name))
                .ok_or_else(|| format!("no scenario named '{name}' in the report array"))?,
            None if items.len() == 1 => &items[0],
            None => {
                return Err(format!(
                    "report array has {} entries; pass a scenario name to pick one",
                    items.len()
                ))
            }
        };
        return extract_obs(report, which);
    }
    Err("document is neither an obs snapshot nor a scenario report".to_string())
}

/// Renders a metric row's value for diff display.
fn metric_value(row: &Jv) -> String {
    row.get("value")
        .map(Jv::render)
        .unwrap_or_else(|| "<no value>".to_string())
}

/// The metric identity key: `component/name{k=v,…} kind`. Labels are
/// emitted in snapshot order, which the registry already sorts.
fn metric_key(row: &Jv) -> String {
    let component = row.get("component").and_then(Jv::as_str).unwrap_or("?");
    let name = row.get("name").and_then(Jv::as_str).unwrap_or("?");
    let kind = row.get("kind").and_then(Jv::as_str).unwrap_or("?");
    let labels = match row.get("labels").and_then(Jv::as_object) {
        Some(members) if !members.is_empty() => {
            let pairs: Vec<String> = members
                .iter()
                .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                .collect();
            format!("{{{}}}", pairs.join(","))
        }
        _ => String::new(),
    };
    format!("{component}/{name}{labels} {kind}")
}

fn metric_map(snapshot: &Jv) -> Result<BTreeMap<String, String>, String> {
    let rows = snapshot
        .get("metrics")
        .and_then(Jv::as_array)
        .ok_or("snapshot has no \"metrics\" array")?;
    Ok(rows
        .iter()
        .map(|row| (metric_key(row), metric_value(row)))
        .collect())
}

fn event_counts(snapshot: &Jv) -> Result<(BTreeMap<String, u64>, u64, u64), String> {
    let rows = snapshot
        .get("events")
        .and_then(Jv::as_array)
        .ok_or("snapshot has no \"events\" array")?;
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for row in rows {
        let name = row.get("name").and_then(Jv::as_str).unwrap_or("?");
        *counts.entry(name.to_string()).or_insert(0) += 1;
    }
    let dropped = snapshot
        .get("dropped_events")
        .and_then(Jv::as_u64)
        .unwrap_or(0);
    Ok((counts, rows.len() as u64, dropped))
}

/// Computes the structural diff between two parsed obs snapshots.
pub fn diff(a: &Jv, b: &Jv) -> Result<ObsDiff, String> {
    let metrics_a = metric_map(a)?;
    let metrics_b = metric_map(b)?;
    let mut out = ObsDiff::default();
    for (key, value) in &metrics_a {
        match metrics_b.get(key) {
            None => out.removed.push((key.clone(), value.clone())),
            Some(other) if other != value => out.changed.push(MetricDelta {
                key: key.clone(),
                before: value.clone(),
                after: other.clone(),
            }),
            Some(_) => {}
        }
    }
    for (key, value) in &metrics_b {
        if !metrics_a.contains_key(key) {
            out.added.push((key.clone(), value.clone()));
        }
    }
    let (counts_a, total_a, dropped_a) = event_counts(a)?;
    let (counts_b, total_b, dropped_b) = event_counts(b)?;
    let mut names: Vec<&String> = counts_a.keys().chain(counts_b.keys()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let ca = counts_a.get(name).copied().unwrap_or(0);
        let cb = counts_b.get(name).copied().unwrap_or(0);
        if ca != cb {
            out.events.push((name.clone(), ca, cb));
        }
    }
    out.total_events = (total_a, total_b);
    out.dropped = (dropped_a, dropped_b);
    Ok(out)
}

/// Parses both snapshot documents and diffs them; `which` selects a
/// scenario by name when a document is a report array.
pub fn diff_texts(a: &str, b: &str, which: Option<&str>) -> Result<ObsDiff, String> {
    let doc_a = Jv::parse(a).map_err(|e| format!("first snapshot: {e}"))?;
    let doc_b = Jv::parse(b).map_err(|e| format!("second snapshot: {e}"))?;
    diff(extract_obs(&doc_a, which)?, extract_obs(&doc_b, which)?)
}

/// Renders the diff as a stable text report (one line per difference).
pub fn render(d: &ObsDiff) -> String {
    if d.is_clean() {
        return "obs diff: snapshots are structurally identical\n".to_string();
    }
    let mut out = format!(
        "obs diff: {} added, {} removed, {} changed metric(s); {} event name(s) differ\n",
        d.added.len(),
        d.removed.len(),
        d.changed.len(),
        d.events.len()
    );
    for (key, value) in &d.removed {
        out.push_str(&format!("  - {key} = {value}\n"));
    }
    for (key, value) in &d.added {
        out.push_str(&format!("  + {key} = {value}\n"));
    }
    for delta in &d.changed {
        out.push_str(&format!(
            "  ~ {}: {} -> {}\n",
            delta.key, delta.before, delta.after
        ));
    }
    for (name, ca, cb) in &d.events {
        out.push_str(&format!("  events {name}: {ca} -> {cb}\n"));
    }
    out.push_str(&format!(
        "  events total: {} -> {} (dropped {} -> {})\n",
        d.total_events.0, d.total_events.1, d.dropped.0, d.dropped.1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(metrics: &str, events: &str, dropped: u64) -> String {
        format!(
            "{{\"dropped_events\": {dropped}, \"events\": [{events}], \"metrics\": [{metrics}]}}"
        )
    }

    const COUNTER_A: &str = "{\"component\": \"protocol\", \"name\": \"cost.control\", \
         \"labels\": {\"op\": \"read\"}, \"kind\": \"counter\", \"value\": 3}";
    const COUNTER_A2: &str = "{\"component\": \"protocol\", \"name\": \"cost.control\", \
         \"labels\": {\"op\": \"read\"}, \"kind\": \"counter\", \"value\": 5}";
    const COUNTER_B: &str = "{\"component\": \"protocol\", \"name\": \"cost.data\", \
         \"labels\": {}, \"kind\": \"counter\", \"value\": 1}";
    const EVENT: &str = "{\"index\": 0, \"time\": 1, \"name\": \"sim.trace\", \
         \"phase\": \"point\", \"fields\": {}}";

    #[test]
    fn identical_snapshots_diff_clean() {
        let s = snap(COUNTER_A, EVENT, 0);
        let d = diff_texts(&s, &s, None).unwrap();
        assert!(d.is_clean());
        assert_eq!(
            render(&d),
            "obs diff: snapshots are structurally identical\n"
        );
    }

    #[test]
    fn added_removed_changed_and_event_deltas() {
        let a = snap(COUNTER_A, EVENT, 0);
        let b = snap(
            &format!("{COUNTER_A2}, {COUNTER_B}"),
            &format!("{EVENT}, {EVENT}"),
            2,
        );
        let d = diff_texts(&a, &b, None).unwrap();
        assert!(!d.is_clean());
        assert_eq!(d.added.len(), 1);
        assert!(d.added[0].0.contains("cost.data"));
        assert!(d.removed.is_empty());
        assert_eq!(d.changed.len(), 1);
        assert_eq!(d.changed[0].key, "protocol/cost.control{op=read} counter");
        assert_eq!(
            (d.changed[0].before.as_str(), d.changed[0].after.as_str()),
            ("3", "5")
        );
        assert_eq!(d.events, vec![("sim.trace".to_string(), 1, 2)]);
        assert_eq!(d.dropped, (0, 2));
        let text = render(&d);
        assert!(text.contains("~ protocol/cost.control{op=read} counter: 3 -> 5"));
        assert!(text.contains("dropped 0 -> 2"));
    }

    #[test]
    fn unwraps_reports_and_report_arrays() {
        let inner = snap(COUNTER_A, EVENT, 0);
        let report =
            format!("{{\"scenario\": \"append-only-6-2\", \"violations\": [], \"obs\": {inner}}}");
        let arr = format!("[{report}]");
        let d = diff_texts(&arr, &inner, None).unwrap();
        assert!(d.is_clean());
        let named = diff_texts(&arr, &inner, Some("append-only-6-2")).unwrap();
        assert!(named.is_clean());
        assert!(diff_texts(&arr, &inner, Some("missing")).is_err());
    }

    #[test]
    fn rejects_non_snapshots() {
        assert!(diff_texts("{\"x\": 1}", "{\"x\": 1}", None).is_err());
        assert!(diff_texts("not json", "{}", None).is_err());
    }
}
