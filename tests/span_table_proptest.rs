//! Property test: `EventLog`'s span table against a reference model.
//!
//! The reference keeps open spans in a `BTreeMap` keyed by span id and
//! clones each span's fields at enter — the plain statement of the
//! log's contract. Random sequences of point events, span enters and
//! span exits run through both at capacities 1–8, so open enters are
//! routinely evicted before their exit. Exits hit the span on top, an
//! arbitrary issued span (out of order, or already closed) and ids this
//! log never issued. After every step the retained records, their text
//! and JSON renderings, the dropped count and the next index must agree.

use doma_obs::{fields, EventLog, EventPhase, EventRecord, Fields, SpanId};
use doma_testkit::property as prop;
use std::collections::{BTreeMap, VecDeque};

/// The log's contract, written the obvious way.
struct Reference {
    records: VecDeque<EventRecord>,
    capacity: usize,
    dropped: u64,
    next_index: u64,
    open: BTreeMap<u64, (&'static str, Fields, u64)>,
    next_span: u64,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Reference {
            records: VecDeque::new(),
            capacity,
            dropped: 0,
            next_index: 0,
            open: BTreeMap::new(),
            next_span: 0,
        }
    }

    fn push(&mut self, time: u64, name: &'static str, fields: Fields, phase: EventPhase) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(EventRecord {
            index: self.next_index,
            time,
            name,
            fields,
            phase,
        });
        self.next_index += 1;
    }

    fn enter(&mut self, time: u64, name: &'static str, fields: Fields) -> u64 {
        self.push(time, name, fields.clone(), EventPhase::Enter);
        let id = self.next_span;
        self.next_span += 1;
        self.open.insert(id, (name, fields, time));
        id
    }

    fn exit(&mut self, id: u64, time: u64) {
        if let Some((name, fields, enter)) = self.open.remove(&id) {
            let duration = time.saturating_sub(enter);
            self.push(time, name, fields, EventPhase::Exit { duration });
        }
    }
}

/// A record name and payload: four plain fields (all inline), six plain
/// fields (past the inline slots) or one plain field then owned text.
fn payload(arg: u64) -> (&'static str, Fields) {
    match arg % 3 {
        0 => ("p.narrow", fields!(a = arg, b = true, c = "x", d = arg + 1)),
        1 => (
            "p.wide",
            fields!(a = arg, b = 1u64, c = 2u64, d = 3u64, e = 4u64, f = 5u64),
        ),
        _ => ("p.text", fields!(a = arg, label = format!("l\"{arg}\""))),
    }
}

fn assert_agree(log: &EventLog, reference: &Reference, step: usize) {
    let expected: Vec<EventRecord> = reference.records.iter().cloned().collect();
    let snapshot = log.snapshot();
    assert_eq!(snapshot, expected, "snapshot after step {step}");
    let render = |records: &[EventRecord]| -> String {
        records
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(log.render(), render(&expected), "render after step {step}");
    let json = |records: &[EventRecord]| -> Vec<String> {
        records.iter().map(EventRecord::to_json).collect()
    };
    assert_eq!(
        json(&snapshot),
        json(&expected),
        "to_json after step {step}"
    );
    assert_eq!(
        log.dropped_events(),
        reference.dropped,
        "dropped_events after step {step}"
    );
    assert_eq!(
        log.next_index(),
        reference.next_index,
        "next_index after step {step}"
    );
}

/// One step: `(kind, time advance, argument)`.
type Step = ((u8, u64), u64);

fn steps() -> impl prop::Gen<Value = Vec<Step>> {
    let step = prop::pair(
        prop::pair(prop::range(0u8..5), prop::range(0u64..3)),
        prop::range(0u64..40),
    );
    prop::vec_in(step, 0..64)
}

doma_testkit::property! {
    #[cases(256)]
    /// Every step leaves the log and the reference with the same
    /// observable state.
    fn span_table_matches_the_btree_reference(
        capacity in prop::range(1usize..9),
        steps in steps(),
    ) {
        let log = EventLog::new(capacity);
        let mut reference = Reference::new(capacity);
        // Ids from a log that issued far more spans than any case opens:
        // none of them names a span of `log`.
        let foreign = EventLog::new(1);
        let never_issued: Vec<SpanId> = (0..1_000u64)
            .map(|t| foreign.span_enter(t, "p.foreign", Fields::new()))
            .skip(960)
            .collect();
        // Both sides' ids for every span opened so far, in opening order.
        let mut issued: Vec<(SpanId, u64)> = Vec::new();
        let mut time = 0u64;
        for (step, &((kind, dt), arg)) in steps.iter().enumerate() {
            time += dt;
            match kind {
                0 => {
                    let (name, fields) = payload(arg);
                    log.record(time, name, fields.clone());
                    reference.push(time, name, fields, EventPhase::Point);
                }
                1 => {
                    let (name, fields) = payload(arg);
                    let id = log.span_enter(time, name, fields.clone());
                    issued.push((id, reference.enter(time, name, fields)));
                }
                // The most recently opened span still open: the
                // last-in-first-out close a request makes.
                2 => {
                    let top = issued
                        .iter()
                        .rev()
                        .find(|(_, r)| reference.open.contains_key(r));
                    if let Some(&(id, r)) = top {
                        log.span_exit(id, time);
                        reference.exit(r, time);
                    }
                }
                // Any span opened so far: out of order, or a double exit.
                3 => {
                    if !issued.is_empty() {
                        let (id, r) = issued[arg as usize % issued.len()];
                        log.span_exit(id, time);
                        reference.exit(r, time);
                    }
                }
                _ => log.span_exit(never_issued[arg as usize], time),
            }
            assert_agree(&log, &reference, step);
        }
    }
}
