//! The bounded, seekable event log and span records.
//!
//! Records carry a global monotone `index`, so a consumer can *seek*:
//! remember the last index it saw and fetch only newer records with
//! [`EventLog::snapshot_from`], even across ring-buffer wraps. A wrap
//! never loses information silently — [`EventLog::dropped_events`]
//! counts every discarded record.

use crate::json::escape;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Where a record sits in a span's lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventPhase {
    /// A free-standing event.
    Point,
    /// A span opened here.
    Enter,
    /// A span closed here; `duration` is in the caller's sim-time ticks.
    Exit {
        /// Exit time minus enter time, in ticks.
        duration: u64,
    },
}

/// One field's value as an instrumentation site hands it over: held as
/// is and turned into text only when a record is rendered — recording a
/// number, a flag, a literal or an id therefore allocates nothing.
/// Built through `From`: `u64`, `usize`, `bool`, `&'static str`,
/// [`FieldRef`] (for ids) and `String`.
#[derive(Debug, Clone)]
pub enum FieldValue {
    /// A value that owns nothing.
    Plain(FieldRef<'static>),
    /// Text only known at run time (message labels, plan decisions).
    Text(String),
}

impl FieldValue {
    /// The value as a record hands it back.
    pub fn as_ref(&self) -> FieldRef<'_> {
        match self {
            FieldValue::Plain(value) => *value,
            FieldValue::Text(s) => FieldRef::Str(s),
        }
    }
}

impl From<FieldRef<'static>> for FieldValue {
    fn from(value: FieldRef<'static>) -> Self {
        FieldValue::Plain(value)
    }
}

impl From<&'static str> for FieldValue {
    fn from(s: &'static str) -> Self {
        FieldRef::Str(s).into()
    }
}

impl From<u64> for FieldValue {
    fn from(n: u64) -> Self {
        FieldRef::U64(n).into()
    }
}

impl From<usize> for FieldValue {
    fn from(n: usize) -> Self {
        FieldRef::U64(n as u64).into()
    }
}

impl From<bool> for FieldValue {
    fn from(b: bool) -> Self {
        FieldRef::Bool(b).into()
    }
}

impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Text(s)
    }
}

/// One field's value as a record hands it back: a borrowed, `Copy` view
/// that renders through [`fmt::Display`].
///
/// Two values are equal when they render the same: the string-pair entry
/// point ([`Fields::from`] over a `Vec<(String, String)>`) stores `"3"`
/// as text where a typed site stores [`FieldRef::U64`], and the two
/// records must compare (and export) identically.
#[derive(Debug, Clone, Copy)]
pub enum FieldRef<'a> {
    /// Literal or run-time text.
    Str(&'a str),
    /// A count, index or tick value.
    U64(u64),
    /// A flag; renders `true` / `false`.
    Bool(bool),
    /// A prefixed id: `Id("N", 3)` renders `N3`.
    Id(&'static str, u64),
}

impl fmt::Display for FieldRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldRef::Str(s) => f.write_str(s),
            FieldRef::U64(n) => write!(f, "{n}"),
            FieldRef::Bool(b) => write!(f, "{b}"),
            FieldRef::Id(prefix, n) => write!(f, "{prefix}{n}"),
        }
    }
}

impl PartialEq for FieldRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (FieldRef::Str(a), FieldRef::Str(b)) => a == b,
            (FieldRef::U64(a), FieldRef::U64(b)) => a == b,
            (FieldRef::Bool(a), FieldRef::Bool(b)) => a == b,
            _ => self.to_string() == other.to_string(),
        }
    }
}

impl Eq for FieldRef<'_> {}

impl FieldRef<'_> {
    /// The value as a number: a [`FieldRef::U64`] directly, text when it
    /// parses as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldRef::U64(n) => Some(*n),
            FieldRef::Str(s) => s.parse().ok(),
            FieldRef::Bool(_) | FieldRef::Id(..) => None,
        }
    }
}

/// Fields a record holds without touching the heap — the widest record
/// the workspace emits (`sim.trace`, five fields) plus the `shard` label
/// a merge appends.
const INLINE_FIELDS: usize = 6;

/// A record's ordered `(key, value)` payload.
///
/// The leading fields with a literal key and a value that owns no heap
/// text — every field of every record on the request path — live inside
/// the record as plain data: building, cloning and dropping them is a
/// copy. From the first field that owns something (run-time text, or a
/// key from the string-pair entry point) onwards, and past the sixth
/// field, the payload continues on the heap.
#[derive(Debug, Clone)]
pub struct Fields {
    /// Fields held in `inline`; slots past it are padding.
    len: usize,
    inline: [(&'static str, FieldRef<'static>); INLINE_FIELDS],
    /// Keys are literals at typed sites, owned only when they came in
    /// through the string-pair entry point.
    rest: Vec<(Cow<'static, str>, FieldValue)>,
}

impl Default for Fields {
    fn default() -> Self {
        Fields::new()
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Fields {}

impl Fields {
    /// No fields.
    pub const fn new() -> Self {
        Fields {
            len: 0,
            inline: [("", FieldRef::U64(0)); INLINE_FIELDS],
            rest: Vec::new(),
        }
    }

    /// Appends one field.
    #[inline]
    pub fn push(&mut self, key: impl Into<Cow<'static, str>>, value: impl Into<FieldValue>) {
        let (key, value) = (key.into(), value.into());
        if self.rest.is_empty() && self.len < INLINE_FIELDS {
            if let (Cow::Borrowed(key), FieldValue::Plain(value)) = (&key, &value) {
                self.inline[self.len] = (key, *value);
                self.len += 1;
                return;
            }
        }
        self.rest.push((key, value));
    }

    /// The fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, FieldRef<'_>)> {
        let inline = self.inline[..self.len].iter().copied();
        let rest = self.rest.iter().map(|(k, v)| (k.as_ref(), v.as_ref()));
        inline.chain(rest)
    }

    /// The first value recorded under `key`.
    pub fn get(&self, key: &str) -> Option<FieldRef<'_>> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// The string-pair entry point: every pair becomes an owned key and a
/// [`FieldValue::Text`].
impl From<Vec<(String, String)>> for Fields {
    fn from(pairs: Vec<(String, String)>) -> Self {
        let mut out = Fields::new();
        out.rest.reserve_exact(pairs.len());
        for (key, value) in pairs {
            out.push(key, value);
        }
        out
    }
}

/// One structured record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Global monotone position in the log (survives wraps).
    pub index: u64,
    /// The caller's virtual time, in ticks.
    pub time: u64,
    /// Dot-separated event name, `component.event` by convention
    /// (`sim.crash`, `protocol.quorum_read`…).
    pub name: &'static str,
    /// Ordered `(key, value)` payload fields.
    pub fields: Fields,
    /// Point, span-enter or span-exit.
    pub phase: EventPhase,
}

impl EventRecord {
    /// The stable JSON object for this record.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"index\": {}, \"time\": {}, \"name\": \"{}\", \"phase\": ",
            self.index,
            self.time,
            escape(self.name)
        );
        match &self.phase {
            EventPhase::Point => out.push_str("\"point\""),
            EventPhase::Enter => out.push_str("\"enter\""),
            EventPhase::Exit { duration } => {
                out.push_str(&format!("\"exit\", \"duration\": {duration}"))
            }
        }
        out.push_str(", \"fields\": {");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": \"{}\"",
                escape(k),
                escape(&v.to_string())
            ));
        }
        out.push_str("}}");
        out
    }
}

impl fmt::Display for EventRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} t={} {}", self.index, self.time, self.name)?;
        for (k, v) in self.fields.iter() {
            write!(f, " {k}={v}")?;
        }
        match &self.phase {
            EventPhase::Point => Ok(()),
            EventPhase::Enter => write!(f, " [span enter]"),
            EventPhase::Exit { duration } => write!(f, " [span exit Δt={duration}]"),
        }
    }
}

#[derive(Debug)]
struct OpenSpan {
    name: &'static str,
    fields: Fields,
    enter_time: u64,
}

#[derive(Debug)]
struct Inner {
    records: VecDeque<EventRecord>,
    capacity: usize,
    dropped: u64,
    next_index: u64,
    open_spans: BTreeMap<u64, OpenSpan>,
    next_span: u64,
}

/// An identifier for an open span, returned by
/// [`EventLog::span_enter`] and consumed by [`EventLog::span_exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpanId(u64);

/// A cloneable handle on a bounded event log. When the buffer is full
/// the oldest records are discarded **and counted** — see
/// [`EventLog::dropped_events`].
#[derive(Debug, Clone)]
pub struct EventLog {
    inner: Arc<Mutex<Inner>>,
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::new(256)
    }
}

impl EventLog {
    /// A log retaining at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            inner: Arc::new(Mutex::new(Inner {
                records: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
                next_index: 0,
                open_spans: BTreeMap::new(),
                next_span: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(
        inner: &mut Inner,
        time: u64,
        name: &'static str,
        fields: Fields,
        phase: EventPhase,
    ) -> u64 {
        if inner.records.len() == inner.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        let index = inner.next_index;
        inner.next_index += 1;
        inner.records.push_back(EventRecord {
            index,
            time,
            name,
            fields,
            phase,
        });
        index
    }

    /// Appends a point event; returns its global index. `fields` is a
    /// typed [`Fields`] (what [`event!`](crate::event!) builds) or a
    /// `Vec<(String, String)>`.
    pub fn record(&self, time: u64, name: &'static str, fields: impl Into<Fields>) -> u64 {
        let mut inner = self.lock();
        Self::push(&mut inner, time, name, fields.into(), EventPhase::Point)
    }

    /// Opens a span: appends an enter record and remembers the enter
    /// time so the matching [`EventLog::span_exit`] can carry the
    /// sim-time duration. The fields are kept with the open span and
    /// move into the exit record, so an exit carries them even after the
    /// ring evicted its enter.
    pub fn span_enter(&self, time: u64, name: &'static str, fields: impl Into<Fields>) -> SpanId {
        let fields = fields.into();
        let mut inner = self.lock();
        Self::push(&mut inner, time, name, fields.clone(), EventPhase::Enter);
        let id = inner.next_span;
        inner.next_span += 1;
        inner.open_spans.insert(
            id,
            OpenSpan {
                name,
                fields,
                enter_time: time,
            },
        );
        SpanId(id)
    }

    /// Closes a span: appends an exit record carrying
    /// `time - enter_time`. Unknown (or already-closed) ids are ignored.
    pub fn span_exit(&self, id: SpanId, time: u64) {
        let mut inner = self.lock();
        if let Some(span) = inner.open_spans.remove(&id.0) {
            let duration = time.saturating_sub(span.enter_time);
            Self::push(
                &mut inner,
                time,
                span.name,
                span.fields,
                EventPhase::Exit { duration },
            );
        }
    }

    /// Appends a pre-built record (typically taken from another log's
    /// snapshot), preserving its time, name, fields and phase but
    /// assigning this log's own next index. The shard merge folds
    /// per-shard logs into one master log with it; span bookkeeping is
    /// deliberately untouched — a copied `Enter`/`Exit` pair already
    /// carries its duration.
    pub fn append_record(&self, record: &EventRecord) -> u64 {
        let mut inner = self.lock();
        Self::push(
            &mut inner,
            record.time,
            record.name,
            record.fields.clone(),
            record.phase.clone(),
        )
    }

    /// Adds `n` to the dropped-records counter — used when folding in
    /// another log whose own capacity bound already discarded records.
    pub fn add_dropped(&self, n: u64) {
        self.lock().dropped += n;
    }

    /// The retained records, oldest first.
    pub fn snapshot(&self) -> Vec<EventRecord> {
        self.lock().records.iter().cloned().collect()
    }

    /// Seek: the retained records with `index >= from`, oldest first.
    /// Records older than the retention window are gone (but counted in
    /// [`EventLog::dropped_events`]).
    pub fn snapshot_from(&self, from: u64) -> Vec<EventRecord> {
        self.lock()
            .records
            .iter()
            .filter(|r| r.index >= from)
            .cloned()
            .collect()
    }

    /// The last `n` retained records, oldest first.
    pub fn tail(&self, n: usize) -> Vec<EventRecord> {
        let inner = self.lock();
        let skip = inner.records.len().saturating_sub(n);
        inner.records.iter().skip(skip).cloned().collect()
    }

    /// Number of records discarded by the capacity bound since
    /// construction (or the last [`EventLog::clear`]).
    pub fn dropped_events(&self) -> u64 {
        self.lock().dropped
    }

    /// The index the *next* record will get (== total records ever
    /// appended). A consumer stores this to seek later.
    pub fn next_index(&self) -> u64 {
        self.lock().next_index
    }

    /// Number of currently retained records.
    pub fn len(&self) -> usize {
        self.lock().records.len()
    }

    /// Whether no records are retained.
    pub fn is_empty(&self) -> bool {
        self.lock().records.is_empty()
    }

    /// Drops all retained records, the dropped counter and any open
    /// spans; indices restart from zero.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.records.clear();
        inner.dropped = 0;
        inner.next_index = 0;
        inner.open_spans.clear();
    }

    /// Renders the retained records one per line.
    pub fn render(&self) -> String {
        self.snapshot()
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Builds a typed [`Fields`] from `key = value` pairs; each value goes
/// through `FieldValue::from`. The payload half of [`span!`] and
/// [`event!`].
#[macro_export]
macro_rules! fields {
    ($($key:ident = $val:expr),* $(,)?) => {{
        #[allow(unused_mut)]
        let mut fields = $crate::Fields::new();
        $(fields.push(stringify!($key), $val);)*
        fields
    }};
}

/// Opens a span on an [`EventLog`]: `span!(log, time, "da.write",
/// obj = o, node = n)` appends an enter record with the named fields and
/// returns the [`SpanId`] to pass to [`EventLog::span_exit`]. Values are
/// anything `FieldValue::from` accepts — nothing is formatted here.
#[macro_export]
macro_rules! span {
    ($log:expr, $time:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $log.span_enter($time, $name, $crate::fields!($($key = $val),*))
    };
}

/// Appends a point event: `event!(log, time, "sim.crash", node = id)`.
#[macro_export]
macro_rules! event {
    ($log:expr, $time:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        $log.record($time, $name, $crate::fields!($($key = $val),*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_counts_dropped_events_and_keeps_indices() {
        let log = EventLog::new(2);
        for t in 0..5u64 {
            log.record(t, "e", vec![]);
        }
        assert_eq!(log.dropped_events(), 3);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].index, 3);
        assert_eq!(snap[1].index, 4);
        assert_eq!(log.next_index(), 5);
    }

    #[test]
    fn snapshot_from_seeks_by_global_index() {
        let log = EventLog::new(10);
        for t in 0..6u64 {
            log.record(t, "e", vec![]);
        }
        let newer = log.snapshot_from(4);
        assert_eq!(newer.len(), 2);
        assert_eq!(newer[0].index, 4);
    }

    #[test]
    fn spans_carry_sim_time_durations() {
        let log = EventLog::new(10);
        let id = span!(log, 5, "da.write", obj = "obj0", node = 2u64);
        log.record(6, "between", vec![]);
        log.span_exit(id, 9);
        let snap = log.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].phase, EventPhase::Enter);
        assert_eq!(snap[2].phase, EventPhase::Exit { duration: 4 });
        assert_eq!(snap[2].name, "da.write");
        assert_eq!(
            snap[2].fields.iter().next(),
            Some(("obj", FieldRef::Str("obj0")))
        );
        log.span_exit(id, 20); // double-exit is ignored
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn tail_and_render_and_clear() {
        let log = EventLog::new(10);
        event!(log, 1, "a.one", k = 1u64);
        event!(log, 2, "a.two");
        assert_eq!(log.tail(1)[0].name, "a.two");
        assert_eq!(log.render(), "#0 t=1 a.one k=1\n#1 t=2 a.two");
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.dropped_events(), 0);
        assert_eq!(log.next_index(), 0);
    }

    #[test]
    fn record_json_is_stable() {
        let log = EventLog::new(4);
        let id = log.span_enter(2, "p.span", vec![("node".into(), "N1".into())]);
        log.span_exit(id, 7);
        let snap = log.snapshot();
        assert_eq!(
            snap[1].to_json(),
            "{\"index\": 1, \"time\": 7, \"name\": \"p.span\", \"phase\": \"exit\", \
             \"duration\": 5, \"fields\": {\"node\": \"N1\"}}"
        );
    }

    /// One value of every variant, with characters JSON must escape.
    fn every_variant() -> Fields {
        fields!(
            op = "save-read",
            io = 42u64,
            quorum = true,
            node = FieldRef::Id("N", 3),
            label = String::from("fault-\"drop\":\tm3\n"),
        )
    }

    #[test]
    fn every_value_variant_renders_byte_for_byte() {
        let log = EventLog::new(4);
        let id = log.span_enter(7, "p.all", every_variant());
        log.span_exit(id, 9);
        log.record(9, "p.none", Fields::new());
        let snap = log.snapshot();
        assert_eq!(
            snap[0].to_string(),
            "#0 t=7 p.all op=save-read io=42 quorum=true node=N3 \
             label=fault-\"drop\":\tm3\n [span enter]"
        );
        assert_eq!(
            snap[1].to_json(),
            "{\"index\": 1, \"time\": 9, \"name\": \"p.all\", \"phase\": \"exit\", \
             \"duration\": 2, \"fields\": {\"op\": \"save-read\", \"io\": \"42\", \
             \"quorum\": \"true\", \"node\": \"N3\", \
             \"label\": \"fault-\\\"drop\\\":\\tm3\\n\"}}"
        );
        assert_eq!(
            snap[2].to_json(),
            "{\"index\": 2, \"time\": 9, \"name\": \"p.none\", \"phase\": \"point\", \
             \"fields\": {}}"
        );
    }

    #[test]
    fn string_pairs_and_typed_fields_make_equal_records() {
        let pairs = || -> Vec<(String, String)> {
            every_variant()
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        let (typed, stringly) = (EventLog::new(8), EventLog::new(8));
        typed.record(1, "p.point", every_variant());
        stringly.record(1, "p.point", pairs());
        let id = typed.span_enter(2, "p.span", every_variant());
        typed.span_exit(id, 5);
        let id = stringly.span_enter(2, "p.span", pairs());
        stringly.span_exit(id, 5);
        assert_eq!(typed.snapshot(), stringly.snapshot());
        assert_eq!(typed.render(), stringly.render());
        let json = |log: &EventLog| -> Vec<String> {
            log.snapshot().iter().map(EventRecord::to_json).collect()
        };
        assert_eq!(json(&typed), json(&stringly));
        // Same key, different rendering: not equal.
        assert_ne!(fields!(io = 42u64), fields!(io = 43u64));
        assert_ne!(fields!(io = 42u64), fields!(io = "forty-two"));
    }

    #[test]
    fn payloads_wider_than_the_inline_slots_keep_their_order() {
        // Literal keys and plain values: six stay inline, the rest spill.
        let wide = fields!(
            k0 = 0u64,
            k1 = 1u64,
            k2 = 2u64,
            k3 = 3u64,
            k4 = 4u64,
            k5 = 5u64,
            k6 = 6u64,
            k7 = 7u64,
            k8 = 8u64,
        );
        let pairs: Vec<(String, String)> =
            (0..9).map(|i| (format!("k{i}"), i.to_string())).collect();
        assert_eq!(wide, Fields::from(pairs));
        assert_eq!(wide.get("k7"), Some(FieldRef::U64(7)));
        assert_eq!(wide.get("k9"), None);
        let keys: Vec<&str> = wide.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"]);
        // An owning field in the middle keeps its place too.
        let mixed = fields!(a = 1u64, b = String::from("text"), c = true);
        assert_eq!(
            mixed
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>(),
            ["a=1", "b=text", "c=true"]
        );
        let log = EventLog::new(2);
        log.record(0, "p.wide", wide.clone());
        assert_eq!(log.snapshot()[0].fields, wide);
    }
}
