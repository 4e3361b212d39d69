//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: kept in memory, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One span: a name, when it ran, the span that caused it, and the request
/// (position in the schedule) it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub request: u32,
}

/// Count, total time and self time of every span of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The in-memory span store of one traced run.
pub struct Spans {
    epoch: Instant,
    rows: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            rows: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u32) -> u32 {
        let start_ns = self.now_ns();
        self.rows.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.rows.len() - 1) as u32
    }

    /// Closes a span now and returns its duration.
    pub fn close(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.rows[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    #[cfg(test)]
    pub fn rows(&self) -> &[Span] {
        &self.rows
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.rows
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per name: how many spans, their summed duration, and their self
    /// time — the duration minus what their child spans cover of it.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        // A child counts for the part of its parent's interval it covers:
        // a delivery caused by another runs after it returned and covers
        // none of it, while `sim.inject` lies inside its `request`.
        let mut covered_ns = vec![0u64; self.rows.len()];
        for span in &self.rows {
            if let Some(parent) = span.parent {
                let p = &self.rows[parent as usize];
                let overlap = span
                    .end_ns
                    .min(p.end_ns)
                    .saturating_sub(span.start_ns.max(p.start_ns));
                covered_ns[parent as usize] += overlap;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, covered) in self.rows.iter().zip(covered_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(covered);
        }
        out
    }

    /// The span file: `{"columns": [...], "spans": [[...], ...]}`, one row
    /// per span in recording order; a row's index is its id, `parent` is
    /// the id of the span that caused it or `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.rows.len() * 64);
        out.push_str(
            "{\"columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\"], \"spans\": [",
        );
        for (i, s) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "[\"{}\", {}, {}, {}, {}]",
                s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_a_span_minus_its_children() {
        let mut spans = Spans::new();
        spans.rows = vec![
            Span {
                name: "request",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 0,
            },
            Span {
                name: "sim.inject",
                start_ns: 5,
                end_ns: 25,
                parent: Some(0),
                request: 0,
            },
            Span {
                name: "sim.settle",
                start_ns: 30,
                end_ns: 90,
                parent: Some(0),
                request: 0,
            },
        ];
        let totals = spans.totals();
        assert_eq!(
            totals["request"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(totals["sim.settle"].self_ns, 60);
        assert_eq!(spans.durations("sim.inject"), vec![20.0]);
        assert!(spans.to_json().contains("[\"sim.inject\", 5, 25, 0, 0]"));
    }
}
