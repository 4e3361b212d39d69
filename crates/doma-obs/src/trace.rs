//! Causal request tracing over the event log: per-request spans,
//! message-level happens-before edges, a deterministic critical-path
//! analyzer, a byte-stable Chrome trace-event exporter and the
//! "slowest-K requests" text report.
//!
//! The protocol driver brackets every request between a
//! [`REQUEST_SPAN`] enter/exit pair and emits one [`REQUEST_COST_EVENT`]
//! carrying the request's *exact* control/data/io delta (the driver is
//! strictly one-request-at-a-time, so the deltas telescope to the
//! schedule total — the property test in `doma-protocol` proves the sum
//! equals `cost_of_schedule`). The engine's tracer interleaves one
//! [`MESSAGE_EVENT`] record per delivery into the same log, so every
//! record between an enter and its exit belongs to that request's
//! causal window. Shard-merged logs carry a `shard` field per record
//! (see [`crate::Obs::merge_shards`]); the model brackets per shard, so
//! K-shard traces reconstruct exactly.
//!
//! Everything here is a pure function of the record slice: no clocks,
//! no randomness, `BTreeMap` iteration only — two runs of the same
//! seeded scenario export byte-identical Chrome JSON.

use crate::event::{EventPhase, EventRecord};
use crate::json::escape;
use crate::Obs;
use std::collections::BTreeMap;

/// Span name bracketing one request's full execution window
/// (`doma-protocol` opens it at injection, closes it at quiescence).
pub const REQUEST_SPAN: &str = "protocol.request";
/// Point event carrying one request's exact cost delta
/// (`control`/`data`/`io` fields).
pub const REQUEST_COST_EVENT: &str = "protocol.request_cost";
/// Point event recording an adaptive oracle's plan decision.
pub const PLAN_EVENT: &str = "protocol.plan";
/// The engine tracer's per-delivery record name (`doma-sim`).
pub const MESSAGE_EVENT: &str = "sim.trace";
/// Synthetic marker the exporters emit when the bounded log evicted
/// records out of an open request window (never silently corrupt).
pub const TRUNCATED_MARKER: &str = "trace.truncated";

/// One message delivery (or drop) inside a request's causal window,
/// parsed from a [`MESSAGE_EVENT`] record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgEdge {
    /// The record's virtual time (shard-local ticks).
    pub time: u64,
    /// Sending node index, as the tracer printed it.
    pub from: String,
    /// Receiving node index.
    pub to: String,
    /// `Control` or `Data`.
    pub kind: String,
    /// Whether the message was delivered (`false` = dropped by a fault).
    pub delivered: bool,
    /// Human-readable wire label (e.g. `ReadReq(obj0,saving)`).
    pub label: String,
}

/// One reconstructed per-request trace: the span bracket, the exact
/// cost delta, the plan decision (adaptive objects only) and every
/// message delivered inside the window.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Shard the records came from (`None` for an unsharded log).
    pub shard: Option<usize>,
    /// The driver's request sequence number (`req` span field).
    pub req: u64,
    /// `read` or `write`.
    pub op: String,
    /// Target object, as printed by the driver.
    pub object: String,
    /// Issuing processor, as printed by the driver.
    pub issuer: String,
    /// Span enter time (shard-local ticks).
    pub start: u64,
    /// Span duration in ticks (0 until the exit record is seen).
    pub duration: u64,
    /// Whether the exit record was observed.
    pub complete: bool,
    /// The request's exact `(control, data, io)` delta, when the cost
    /// event survived the log bound.
    pub cost: Option<(u64, u64, u64)>,
    /// The adaptive oracle's decision summary, when one was recorded.
    pub plan: Option<String>,
    /// Every [`MESSAGE_EVENT`] inside the window, in delivery order.
    pub messages: Vec<MsgEdge>,
}

impl RequestTrace {
    /// The deterministic critical path through this request's delivered
    /// messages: indices into [`RequestTrace::messages`], in causal
    /// order. Reconstructed backward from the last delivery — each
    /// step's predecessor is the *latest* earlier delivery into the
    /// current sender (`pred.to == cur.from`, `pred.time <= cur.time`);
    /// delivery order breaks ties, so the path is a pure function of
    /// the record sequence.
    pub fn critical_path(&self) -> Vec<usize> {
        let delivered: Vec<usize> = (0..self.messages.len())
            .filter(|&i| self.messages[i].delivered)
            .collect();
        let Some(&last) = delivered.last() else {
            return Vec::new();
        };
        let mut path = vec![last];
        let mut cur = last;
        loop {
            let cur_msg = &self.messages[cur];
            let pred = delivered
                .iter()
                .rev()
                .filter(|&&i| i < cur)
                .find(|&&i| {
                    let m = &self.messages[i];
                    m.to == cur_msg.from && m.time <= cur_msg.time
                })
                .copied();
            match pred {
                Some(p) => {
                    path.push(p);
                    cur = p;
                }
                None => break,
            }
        }
        path.reverse();
        path
    }
}

/// The reconstructed trace of a whole run: every request window found
/// in the record slice, plus the truncation accounting that keeps a
/// wrapped log honest.
#[derive(Debug, Clone, Default)]
pub struct TraceModel {
    /// Per-request traces, in log order.
    pub requests: Vec<RequestTrace>,
    /// Records the bounded log evicted before the snapshot.
    pub dropped_events: u64,
    /// `REQUEST_SPAN` exits whose enter record was evicted — the
    /// wrap-around blind spot; exporters surface these as a
    /// [`TRUNCATED_MARKER`] instead of fabricating a window.
    pub orphan_exits: u64,
}

/// One field rendered as text — the model holds what the exporters
/// print, whichever entry point recorded it.
fn text(record: &EventRecord, key: &str) -> Option<String> {
    record.fields.get(key).map(|v| v.to_string())
}

fn number(record: &EventRecord, key: &str) -> u64 {
    record.fields.get(key).and_then(|v| v.as_u64()).unwrap_or(0)
}

fn shard_of(record: &EventRecord) -> Option<usize> {
    let shard = record.fields.get("shard")?.as_u64()?;
    usize::try_from(shard).ok()
}

impl TraceModel {
    /// Reconstructs the model from an obs bundle's retained records.
    pub fn from_obs(obs: &Obs) -> Self {
        Self::from_records(&obs.events().snapshot(), obs.events().dropped_events())
    }

    /// Reconstructs the model from a record slice (oldest first, as
    /// [`crate::EventLog::snapshot`] returns them). `dropped` is the
    /// log's eviction count; a non-zero value plus an exit-without-
    /// enter marks the head of the log as truncated.
    pub fn from_records(records: &[EventRecord], dropped: u64) -> Self {
        let mut model = TraceModel {
            requests: Vec::new(),
            dropped_events: dropped,
            orphan_exits: 0,
        };
        // Per shard, the index (into model.requests) of the open window.
        let mut open: BTreeMap<Option<usize>, usize> = BTreeMap::new();
        for record in records {
            let shard = shard_of(record);
            if record.name == REQUEST_SPAN {
                match &record.phase {
                    EventPhase::Enter => {
                        model.requests.push(RequestTrace {
                            shard,
                            req: number(record, "req"),
                            op: text(record, "op").unwrap_or_else(|| "?".into()),
                            object: text(record, "object").unwrap_or_else(|| "?".into()),
                            issuer: text(record, "issuer").unwrap_or_else(|| "?".into()),
                            start: record.time,
                            duration: 0,
                            complete: false,
                            cost: None,
                            plan: None,
                            messages: Vec::new(),
                        });
                        open.insert(shard, model.requests.len() - 1);
                    }
                    EventPhase::Exit { duration } => match open.remove(&shard) {
                        Some(i) => {
                            if let Some(req) = model.requests.get_mut(i) {
                                req.duration = *duration;
                                req.complete = true;
                            }
                        }
                        None => model.orphan_exits += 1,
                    },
                    EventPhase::Point => {}
                }
                continue;
            }
            let Some(&i) = open.get(&shard) else {
                continue; // pre/post-amble record outside any window
            };
            let Some(req) = model.requests.get_mut(i) else {
                continue;
            };
            match record.name {
                MESSAGE_EVENT => req.messages.push(MsgEdge {
                    time: record.time,
                    from: text(record, "from").unwrap_or_else(|| "?".into()),
                    to: text(record, "to").unwrap_or_else(|| "?".into()),
                    kind: text(record, "kind").unwrap_or_else(|| "?".into()),
                    delivered: text(record, "delivered").as_deref() == Some("true"),
                    label: text(record, "label").unwrap_or_default(),
                }),
                REQUEST_COST_EVENT => {
                    req.cost = Some((
                        number(record, "control"),
                        number(record, "data"),
                        number(record, "io"),
                    ));
                }
                PLAN_EVENT => {
                    req.plan = text(record, "decision");
                }
                _ => {}
            }
        }
        model
    }

    /// Whether the bounded log cut into the trace (evictions or
    /// exit-without-enter orphans).
    pub fn truncated(&self) -> bool {
        self.dropped_events > 0 || self.orphan_exits > 0
    }

    /// Sums the per-request cost deltas: `(control, data, io)`. Equal to
    /// the run's exact [`SimReport`-style] totals when no window was
    /// truncated — the critical-path-equals-cost property test in
    /// `doma-protocol` pins this against `cost_of_schedule`.
    ///
    /// [`SimReport`-style]: RequestTrace::cost
    pub fn total_cost(&self) -> (u64, u64, u64) {
        let mut total = (0u64, 0u64, 0u64);
        for req in &self.requests {
            if let Some((c, d, io)) = req.cost {
                total.0 += c;
                total.1 += d;
                total.2 += io;
            }
        }
        total
    }

    /// Request indices sorted slowest-first: duration descending, then
    /// `(shard, log order)` ascending — a total, deterministic order.
    pub fn slowest(&self, k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.requests.len()).collect();
        order.sort_by_key(|&i| {
            let r = &self.requests[i];
            (u64::MAX - r.duration, r.shard.unwrap_or(0), i)
        });
        order.truncate(k);
        order
    }
}

/// Extracts the numeric suffix of a node/processor label (`"3"`,
/// `"P3"`, `"N3"` all map to 3) for Chrome pid/tid slots.
fn ordinal(s: &str) -> u64 {
    let digits: String = s.chars().filter(|c| c.is_ascii_digit()).collect();
    digits.parse().unwrap_or(0)
}

fn push_args(out: &mut String, args: &[(&str, String)]) {
    out.push_str("\"args\": {");
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": \"{}\"", escape(k), escape(v)));
    }
    out.push_str("}}");
}

/// Exports the model as Chrome trace-event JSON (the
/// `{"traceEvents": […]}` object format; loadable in Perfetto /
/// `chrome://tracing`). Timestamps are virtual ticks verbatim; the
/// `pid` slot carries the shard, the `tid` slot the node. Request
/// windows become complete (`"X"`) events, deliveries become thread
/// instants (`"i"`) on the receiving node with critical-path members
/// flagged `"cp": "1"`, and a truncated log yields one leading
/// [`TRUNCATED_MARKER`] instant instead of fabricated windows.
/// Byte-stable: a pure function of the model.
pub fn chrome_trace(model: &TraceModel) -> String {
    let mut events: Vec<String> = Vec::new();
    if model.truncated() {
        let mut e = format!(
            "{{\"name\": \"{TRUNCATED_MARKER}\", \"cat\": \"meta\", \"ph\": \"i\", \
             \"ts\": 0, \"pid\": 0, \"tid\": 0, \"s\": \"g\", "
        );
        push_args(
            &mut e,
            &[
                ("dropped_events", model.dropped_events.to_string()),
                ("orphan_exits", model.orphan_exits.to_string()),
            ],
        );
        events.push(e);
    }
    let mut shards: BTreeMap<u64, ()> = BTreeMap::new();
    for req in &model.requests {
        shards.insert(req.shard.unwrap_or(0) as u64, ());
    }
    for shard in shards.keys() {
        let mut e =
            format!("{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {shard}, \"tid\": 0, ");
        push_args(&mut e, &[("name", format!("shard {shard}"))]);
        events.push(e);
    }
    for req in &model.requests {
        let pid = req.shard.unwrap_or(0);
        let cp: Vec<usize> = req.critical_path();
        let mut e = format!(
            "{{\"name\": \"{}\", \"cat\": \"request\", \"ph\": \"X\", \"ts\": {}, \
             \"dur\": {}, \"pid\": {pid}, \"tid\": {}, ",
            escape(REQUEST_SPAN),
            req.start,
            req.duration,
            ordinal(&req.issuer),
        );
        let (c, d, io) = req.cost.unwrap_or((0, 0, 0));
        let mut args = vec![
            ("req", req.req.to_string()),
            ("op", req.op.clone()),
            ("object", req.object.clone()),
            ("issuer", req.issuer.clone()),
            ("control", c.to_string()),
            ("data", d.to_string()),
            ("io", io.to_string()),
        ];
        if let Some(plan) = &req.plan {
            args.push(("plan", plan.clone()));
        }
        if !req.complete {
            args.push(("incomplete", "1".to_string()));
        }
        push_args(&mut e, &args);
        events.push(e);
        for (i, msg) in req.messages.iter().enumerate() {
            let mut e = format!(
                "{{\"name\": \"{}\", \"cat\": \"message\", \"ph\": \"i\", \"ts\": {}, \
                 \"pid\": {pid}, \"tid\": {}, \"s\": \"t\", ",
                escape(&msg.label),
                msg.time,
                ordinal(&msg.to),
            );
            let mut args = vec![
                ("req", req.req.to_string()),
                ("from", msg.from.clone()),
                ("to", msg.to.clone()),
                ("kind", msg.kind.clone()),
                ("delivered", msg.delivered.to_string()),
            ];
            if cp.contains(&i) {
                args.push(("cp", "1".to_string()));
            }
            push_args(&mut e, &args);
            events.push(e);
        }
    }
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(e);
    }
    out.push_str("]}");
    out
}

/// The "slowest-K requests with their critical paths" text report.
/// One block per request, slowest first; deterministic.
pub fn slowest_report(model: &TraceModel, k: usize) -> String {
    let mut out = String::new();
    if model.truncated() {
        out.push_str(&format!(
            "{TRUNCATED_MARKER}: {} records evicted, {} orphan span exits — \
             windows before the cut are not shown\n",
            model.dropped_events, model.orphan_exits
        ));
    }
    let order = model.slowest(k);
    out.push_str(&format!(
        "slowest {} of {} requests (by span duration, ticks):\n",
        order.len(),
        model.requests.len()
    ));
    for i in order {
        let req = &model.requests[i];
        let shard = req.shard.map(|s| format!(" shard={s}")).unwrap_or_default();
        let (c, d, io) = req.cost.unwrap_or((0, 0, 0));
        out.push_str(&format!(
            "  req #{} {} {} by {}{} t=[{}, {}] dur={} cost={}c/{}d/{}io{}\n",
            req.req,
            req.op,
            req.object,
            req.issuer,
            shard,
            req.start,
            req.start + req.duration,
            req.duration,
            c,
            d,
            io,
            if req.complete { "" } else { " [incomplete]" },
        ));
        if let Some(plan) = &req.plan {
            out.push_str(&format!("    plan: {plan}\n"));
        }
        let cp = req.critical_path();
        if cp.is_empty() {
            out.push_str("    critical path: local (no messages)\n");
        } else {
            out.push_str(&format!(
                "    critical path ({} of {} msgs):",
                cp.len(),
                req.messages.len()
            ));
            for idx in cp {
                let m = &req.messages[idx];
                out.push_str(&format!(
                    " [{}]{}->{} {} @{}",
                    m.kind, m.from, m.to, m.label, m.time
                ));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventLog;

    fn kv(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn msg(log: &EventLog, time: u64, from: &str, to: &str, kind: &str, label: &str) {
        log.record(
            time,
            MESSAGE_EVENT,
            kv(&[
                ("from", from),
                ("to", to),
                ("kind", kind),
                ("delivered", "true"),
                ("label", label),
            ]),
        );
    }

    fn one_request_log() -> EventLog {
        let log = EventLog::new(64);
        let id = log.span_enter(
            10,
            REQUEST_SPAN,
            kv(&[
                ("issuer", "2"),
                ("object", "obj0"),
                ("op", "read"),
                ("req", "0"),
            ]),
        );
        msg(&log, 11, "2", "0", "Control", "ReadReq(obj0)");
        msg(&log, 14, "0", "2", "Data", "ObjData(obj0,v0)");
        log.record(
            14,
            REQUEST_COST_EVENT,
            kv(&[("control", "1"), ("data", "1"), ("io", "2"), ("req", "0")]),
        );
        log.span_exit(id, 14);
        log
    }

    #[test]
    fn reconstructs_request_windows_with_messages_and_cost() {
        let log = one_request_log();
        let model = TraceModel::from_records(&log.snapshot(), log.dropped_events());
        assert_eq!(model.requests.len(), 1);
        assert!(!model.truncated());
        let req = &model.requests[0];
        assert_eq!(req.op, "read");
        assert_eq!(req.object, "obj0");
        assert_eq!(req.start, 10);
        assert_eq!(req.duration, 4);
        assert!(req.complete);
        assert_eq!(req.cost, Some((1, 1, 2)));
        assert_eq!(req.messages.len(), 2);
        assert_eq!(model.total_cost(), (1, 1, 2));
    }

    #[test]
    fn critical_path_chains_backward_through_senders() {
        let log = EventLog::new(64);
        let id = log.span_enter(
            0,
            REQUEST_SPAN,
            kv(&[
                ("issuer", "3"),
                ("object", "obj0"),
                ("op", "write"),
                ("req", "0"),
            ]),
        );
        // 3 -> 0 (request), 0 -> 1 and 0 -> 2 fan-out; 2 -> 3 completion.
        msg(&log, 1, "3", "0", "Control", "WriteReq");
        msg(&log, 2, "0", "1", "Data", "WriteProp");
        msg(&log, 3, "0", "2", "Data", "WriteProp");
        msg(&log, 5, "2", "3", "Control", "Ack");
        log.span_exit(id, 5);
        let model = TraceModel::from_records(&log.snapshot(), 0);
        let req = &model.requests[0];
        let cp = req.critical_path();
        // Last delivery is 2->3; its sender 2 was reached by 0->2; 0 by 3->0.
        assert_eq!(cp, vec![0, 2, 3]);
    }

    #[test]
    fn dropped_deliveries_are_excluded_from_the_path() {
        let log = EventLog::new(64);
        let id = log.span_enter(0, REQUEST_SPAN, kv(&[("req", "0")]));
        msg(&log, 1, "1", "0", "Control", "Req");
        log.record(
            2,
            MESSAGE_EVENT,
            kv(&[
                ("from", "0"),
                ("to", "1"),
                ("kind", "Data"),
                ("delivered", "false"),
                ("label", "Lost"),
            ]),
        );
        log.span_exit(id, 3);
        let model = TraceModel::from_records(&log.snapshot(), 0);
        assert_eq!(model.requests[0].critical_path(), vec![0]);
    }

    #[test]
    fn wrap_around_yields_truncated_marker_not_corruption() {
        // Satellite: open spans, overflow the bounded log so the Enter
        // records are evicted, and assert the exits become an orphan
        // count + a synthetic marker — never a fabricated window.
        let log = EventLog::new(4);
        let id0 = log.span_enter(0, REQUEST_SPAN, kv(&[("req", "0")]));
        let id1 = log.span_enter(1, REQUEST_SPAN, kv(&[("req", "1")]));
        for t in 2..8u64 {
            msg(&log, t, "0", "1", "Control", "Flood");
        }
        // Both enters are long evicted; the open-span table still
        // closes them, appending exits with stored names.
        log.span_exit(id0, 9);
        log.span_exit(id1, 9);
        assert!(log.dropped_events() >= 4, "{}", log.dropped_events());
        let model = TraceModel::from_records(&log.snapshot(), log.dropped_events());
        assert!(model.truncated());
        assert_eq!(model.orphan_exits, 2, "evicted enters => orphan exits");
        assert!(model.requests.is_empty(), "no fabricated windows");
        let chrome = chrome_trace(&model);
        assert!(chrome.contains(TRUNCATED_MARKER), "{chrome}");
        assert!(chrome.contains("\"orphan_exits\": \"2\""), "{chrome}");
        let report = slowest_report(&model, 3);
        assert!(report.contains(TRUNCATED_MARKER), "{report}");
    }

    #[test]
    fn sharded_records_bracket_per_shard() {
        // Interleave two shards' windows the way merge_shards does:
        // records sorted by (time, shard, index), each with a shard
        // field. Shard 1's window opens inside shard 0's.
        let log = EventLog::new(64);
        let a = log.span_enter(0, REQUEST_SPAN, kv(&[("req", "0"), ("shard", "0")]));
        let b = log.span_enter(1, REQUEST_SPAN, kv(&[("req", "0"), ("shard", "1")]));
        log.record(
            2,
            MESSAGE_EVENT,
            kv(&[
                ("from", "1"),
                ("to", "2"),
                ("kind", "Control"),
                ("delivered", "true"),
                ("label", "B"),
                ("shard", "1"),
            ]),
        );
        log.record(
            2,
            MESSAGE_EVENT,
            kv(&[
                ("from", "3"),
                ("to", "4"),
                ("kind", "Control"),
                ("delivered", "true"),
                ("label", "A"),
                ("shard", "0"),
            ]),
        );
        log.span_exit(b, 3);
        log.span_exit(a, 4);
        // span_exit replays the *enter* fields, shard included.
        let model = TraceModel::from_records(&log.snapshot(), 0);
        assert_eq!(model.requests.len(), 2);
        let shard0 = model.requests.iter().find(|r| r.shard == Some(0)).unwrap();
        let shard1 = model.requests.iter().find(|r| r.shard == Some(1)).unwrap();
        assert_eq!(shard0.messages.len(), 1);
        assert_eq!(shard0.messages[0].label, "A");
        assert_eq!(shard1.messages.len(), 1);
        assert_eq!(shard1.messages[0].label, "B");
        assert!(shard0.complete && shard1.complete);
    }

    #[test]
    fn chrome_trace_is_byte_stable_and_shaped() {
        let log = one_request_log();
        let model = TraceModel::from_records(&log.snapshot(), 0);
        let a = chrome_trace(&model);
        let b = chrome_trace(&TraceModel::from_records(&log.snapshot(), 0));
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": ["));
        assert!(a.ends_with("]}"));
        assert!(a.contains("\"ph\": \"X\""), "{a}");
        assert!(a.contains("\"ph\": \"i\""), "{a}");
        assert!(a.contains("\"cp\": \"1\""), "{a}");
        assert!(a.contains("\"process_name\""), "{a}");
        // Balanced braces — crude but effective well-formedness check.
        assert_eq!(a.matches('{').count(), a.matches('}').count());
    }

    #[test]
    fn slowest_report_orders_by_duration() {
        let log = EventLog::new(64);
        for (req, start, end) in [(0u64, 0u64, 3u64), (1, 4, 12), (2, 13, 14)] {
            let id = log.span_enter(
                start,
                REQUEST_SPAN,
                kv(&[
                    ("issuer", "1"),
                    ("object", "obj0"),
                    ("op", "read"),
                    ("req", &req.to_string()),
                ]),
            );
            log.span_exit(id, end);
        }
        let model = TraceModel::from_records(&log.snapshot(), 0);
        assert_eq!(model.slowest(2), vec![1, 0]);
        let report = slowest_report(&model, 2);
        let pos1 = report.find("req #1").unwrap();
        let pos0 = report.find("req #0").unwrap();
        assert!(pos1 < pos0, "slowest first: {report}");
        assert!(report.contains("critical path: local"), "{report}");
    }

    /// [`one_request_log`] as the instrumented crates record it: typed
    /// values through the macros.
    fn one_request_log_typed() -> EventLog {
        use crate::{event, span, FieldRef};
        let log = EventLog::new(64);
        let id = span!(
            log,
            10,
            REQUEST_SPAN,
            issuer = 2u64,
            object = FieldRef::Id("obj", 0),
            op = "read",
            req = 0u64,
        );
        for (time, from, to, kind, label) in [
            (11, 2u64, 0u64, "Control", "ReadReq(obj0)"),
            (14, 0, 2, "Data", "ObjData(obj0,v0)"),
        ] {
            event!(
                log,
                time,
                MESSAGE_EVENT,
                from = from,
                to = to,
                kind = kind,
                delivered = true,
                label = label.to_string(),
            );
        }
        event!(
            log,
            14,
            REQUEST_COST_EVENT,
            control = 1u64,
            data = 1u64,
            io = 2u64,
            req = 0u64,
        );
        log.span_exit(id, 14);
        log
    }

    #[test]
    fn typed_and_string_records_reconstruct_the_same_model() {
        let (typed, stringly) = (one_request_log_typed(), one_request_log());
        assert_eq!(typed.snapshot(), stringly.snapshot());
        let model = TraceModel::from_records(&typed.snapshot(), 0);
        let req = &model.requests[0];
        assert_eq!((req.req, req.op.as_str()), (0, "read"));
        assert_eq!((req.object.as_str(), req.issuer.as_str()), ("obj0", "2"));
        assert_eq!(req.cost, Some((1, 1, 2)));
        assert_eq!(
            req.messages[1],
            MsgEdge {
                time: 14,
                from: "0".into(),
                to: "2".into(),
                kind: "Data".into(),
                delivered: true,
                label: "ObjData(obj0,v0)".into(),
            }
        );
        let reference = TraceModel::from_records(&stringly.snapshot(), 0);
        assert_eq!(chrome_trace(&model), chrome_trace(&reference));
        assert_eq!(slowest_report(&model, 1), slowest_report(&reference, 1));
        assert_eq!(
            slowest_report(&model, 1),
            "slowest 1 of 1 requests (by span duration, ticks):\n  \
             req #0 read obj0 by 2 t=[10, 14] dur=4 cost=1c/1d/2io\n    \
             critical path (2 of 2 msgs): [Control]2->0 ReadReq(obj0) @11 \
             [Data]0->2 ObjData(obj0,v0) @14\n"
        );

        // A merged record's `shard` label reads the same from either form.
        let sharded = Obs::new(64);
        let bundle = Obs::new(64);
        for record in typed.snapshot() {
            bundle.events().append_record(&record);
        }
        sharded.merge_shards(&[Obs::new(1), bundle]);
        let merged = TraceModel::from_obs(&sharded);
        assert_eq!(merged.requests[0].shard, Some(1));
        assert_eq!(merged.requests[0].messages.len(), 2);
    }
}
