//! The mutation self-test wall: every rule must prove itself by
//! catching a seeded violation at the exact `(file, line, rule)` —
//! the same differential discipline as the PR 2 dropped-Invalidate
//! mutation test, applied to the linter itself. A rule that cannot
//! catch its own fixture is a hole in the wall, not a lint.
//!
//! Fixtures are synthetic in-memory workspaces fed straight to
//! [`doma_lint::run`]; nothing touches the disk.

use doma_lint::engine::{SourceFile, Workspace};
use doma_lint::{run, Finding};

fn sf(path: &str, text: &str) -> SourceFile {
    let crate_name = path
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("")
        .to_string();
    SourceFile {
        path: path.to_string(),
        crate_name,
        text: text.to_string(),
    }
}

fn ws(files: Vec<SourceFile>) -> Workspace {
    Workspace {
        files,
        ..Workspace::default()
    }
}

/// Asserts the report contains a finding with exactly this
/// `(file, line, rule)` triple.
fn assert_finding(findings: &[Finding], file: &str, line: usize, rule: &str) {
    assert!(
        findings
            .iter()
            .any(|f| f.file == file && f.line == line && f.rule == rule),
        "expected ({file}, {line}, {rule}) in {findings:?}"
    );
}

fn assert_clean(findings: &[Finding]) {
    assert!(findings.is_empty(), "expected clean, got {findings:?}");
}

// ---------------------------------------------------------------------------
// lint-headers
// ---------------------------------------------------------------------------

#[test]
fn lint_headers_catch_missing_pragmas() {
    let report = run(&ws(vec![sf(
        "crates/doma-core/src/lib.rs",
        "//! Docs.\npub fn f() {}\n",
    )]));
    assert_finding(
        &report.findings,
        "crates/doma-core/src/lib.rs",
        1,
        "lint-headers",
    );
    assert_eq!(report.findings.len(), 2, "both pragmas missing");
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

#[test]
fn determinism_flags_fp_ordering_and_leaves_the_rest_to_clippy() {
    let src = "use std::collections::HashMap;\n\
               fn f() {\n\
               \x20   let t = std::time::Instant::now();\n\
               \x20   let v = std::env::var(\"DOMA_X\");\n\
               \x20   let c = 1.0f64.partial_cmp(&2.0);\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-sim/src/a.rs", src)]));
    assert_finding(
        &report.findings,
        "crates/doma-sim/src/a.rs",
        5,
        "determinism",
    );
    assert_eq!(report.findings.len(), 1, "{report:?}");
}

#[test]
fn determinism_spares_trait_impls_and_nondeterministic_crates() {
    // Defining `partial_cmp` (a trait impl) is not calling it.
    let impl_src = "impl PartialOrd for K {\n\
                    \x20   fn partial_cmp(&self, o: &K) -> Option<Ordering> { None }\n\
                    }\n";
    let report = run(&ws(vec![sf("crates/doma-sim/src/k.rs", impl_src)]));
    assert_clean(&report.findings);
    // Outside the deterministic crates the rule does not apply.
    let src = "fn f(a: f64) -> bool { a.partial_cmp(&1.0).is_some() }\n";
    let report = run(&ws(vec![sf("crates/doma-analysis/src/t.rs", src)]));
    assert_clean(&report.findings);
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

#[test]
fn lock_order_catches_reentrant_acquisition() {
    let src = "impl Shard {\n\
               \x20   fn tick(&self) {\n\
               \x20       let a = self.queue.lock();\n\
               \x20       let b = self.queue.lock();\n\
               \x20   }\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-obs/src/event.rs", src)]));
    assert_finding(
        &report.findings,
        "crates/doma-obs/src/event.rs",
        4,
        "lock-order",
    );
}

#[test]
fn lock_order_catches_acquisition_cycles_across_functions() {
    let src = "impl Shard {\n\
               \x20   fn ab(&self) {\n\
               \x20       let a = self.m1.lock();\n\
               \x20       let b = self.m2.lock();\n\
               \x20   }\n\
               \x20   fn ba(&self) {\n\
               \x20       let b = self.m2.lock();\n\
               \x20       let a = self.m1.lock();\n\
               \x20   }\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-obs/src/event.rs", src)]));
    let cyc: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order")
        .collect();
    assert_eq!(cyc.len(), 1, "{report:?}");
    assert_eq!(cyc[0].line, 4, "first edge site anchors the cycle");
    assert!(cyc[0].message.contains("cycle"));
}

#[test]
fn lock_order_sees_through_a_lock_helper_across_methods() {
    // doma-obs's shape: the mutex sits behind `fn lock(&self)`, so every
    // acquisition reads `<receiver>.lock()`. Two methods nesting two
    // logs' guards in opposite orders deadlock when they race.
    let src = "impl EventLog {\n\
               \x20   fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {\n\
               \x20       self.inner.lock().unwrap_or_else(|e| e.into_inner())\n\
               \x20   }\n\
               \x20   pub fn absorb(&self, other: &EventLog) {\n\
               \x20       let mut mine = self.lock();\n\
               \x20       let theirs = other.lock();\n\
               \x20       mine.dropped += theirs.dropped;\n\
               \x20   }\n\
               \x20   pub fn drain_into(&self, other: &EventLog) {\n\
               \x20       let mut theirs = other.lock();\n\
               \x20       let mine = self.lock();\n\
               \x20       theirs.dropped += mine.dropped;\n\
               \x20   }\n\
               \x20   pub fn len_twice(&self) -> usize {\n\
               \x20       let inner = self.lock();\n\
               \x20       inner.records.len() + self.lock().records.len()\n\
               \x20   }\n\
               }\n";
    let f = "crates/doma-obs/src/event.rs";
    let report = run(&ws(vec![sf(f, src)]));
    let found: Vec<_> = report
        .findings
        .iter()
        .filter(|x| x.rule == "lock-order")
        .collect();
    assert_eq!(found.len(), 2, "{report:?}");
    assert_finding(&report.findings, f, 7, "lock-order");
    assert!(found[0].message.contains("cycle"), "{found:?}");
    assert_finding(&report.findings, f, 17, "lock-order");
    assert!(found[1].message.contains("re-entrant"), "{found:?}");
    // The same file in a crate the rule does not audit is not its business.
    let report = run(&ws(vec![sf("crates/doma-sim/src/net.rs", src)]));
    assert!(report.findings.iter().all(|x| x.rule != "lock-order"));
}

#[test]
fn lock_order_respects_drop_and_scope_ends() {
    let src = "impl Shard {\n\
               \x20   fn ok(&self) {\n\
               \x20       let a = self.m1.lock();\n\
               \x20       drop(a);\n\
               \x20       let b = self.m2.lock();\n\
               \x20   }\n\
               \x20   fn scoped(&self) {\n\
               \x20       { let b = self.m2.lock(); }\n\
               \x20       let a = self.m1.lock();\n\
               \x20   }\n\
               }\n";
    // Neither function holds two guards at once, so no edges and no
    // cycle — even though the orders would conflict if held.
    let report = run(&ws(vec![sf("crates/doma-obs/src/event.rs", src)]));
    assert_clean(&report.findings);
}

// ---------------------------------------------------------------------------
// message-flow
// ---------------------------------------------------------------------------

#[test]
fn message_flow_catches_unsendable_and_dead_variants() {
    let def = "pub enum DomMsg {\n\
               \x20   Used { x: u8 },\n\
               \x20   NeverBuilt,\n\
               \x20   NeverMatched(u8),\n\
               }\n";
    let uses = "fn f(msg: DomMsg) -> DomMsg {\n\
                \x20   match msg {\n\
                \x20       DomMsg::Used { .. } => {}\n\
                \x20       DomMsg::NeverBuilt => {}\n\
                \x20       DomMsg::NeverMatched(_) => {}\n\
                \x20   }\n\
                \x20   let m = DomMsg::Used { x: 1 };\n\
                \x20   if matches!(m, DomMsg::Used { .. }) {\n\
                \x20       return DomMsg::NeverMatched(2);\n\
                \x20   }\n\
                \x20   m\n\
                }\n";
    // Every variant is matched by the dispatch, and Used/NeverMatched
    // are constructed — NeverBuilt's missing construction is the one
    // seeded violation (the dead-variant case is the next test).
    let report = run(&ws(vec![
        sf("crates/doma-protocol/src/msg.rs", def),
        sf("crates/doma-protocol/src/node.rs", uses),
    ]));
    let mf: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "message-flow")
        .collect();
    assert_eq!(mf.len(), 1, "{report:?}");
    assert_eq!(
        (mf[0].file.as_str(), mf[0].line),
        ("crates/doma-protocol/src/msg.rs", 3),
        "NeverBuilt is never constructed"
    );
    assert!(mf[0].message.contains("never constructed"));
}

#[test]
fn message_flow_catches_dead_variants() {
    let def = "pub enum DomMsg {\n\
               \x20   Used,\n\
               \x20   Dead,\n\
               }\n";
    let uses = "fn f(msg: DomMsg) -> bool {\n\
                \x20   let _ = DomMsg::Dead;\n\
                \x20   let _ = DomMsg::Used;\n\
                \x20   matches!(msg, DomMsg::Used)\n\
                }\n";
    let report = run(&ws(vec![
        sf("crates/doma-protocol/src/msg.rs", def),
        sf("crates/doma-protocol/src/node.rs", uses),
    ]));
    let mf: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "message-flow")
        .collect();
    assert_eq!(mf.len(), 1, "{report:?}");
    assert_eq!(
        (mf[0].file.as_str(), mf[0].line),
        ("crates/doma-protocol/src/msg.rs", 3),
        "Dead is never dispatched"
    );
    assert!(mf[0].message.contains("never matched"));
}

// ---------------------------------------------------------------------------
// obs-catalog
// ---------------------------------------------------------------------------

const DESIGN_STUB: &str = "## 7. Other\n\
                           `not.a_metric_section`\n\
                           ## 8. Observability\n\
                           | `proto.good` | a metric |\n\
                           ## 9. After\n\
                           ## 13. Causal tracing\n\
                           | `proto.span_ok` | a span |\n\
                           ## 14. After\n";

#[test]
fn obs_catalog_catches_uncataloged_metrics_and_unsorted_labels() {
    let src = "fn f(reg: &Registry) {\n\
               \x20   reg.counter(\"proto\", \"good\", &[]).add2(1);\n\
               \x20   reg.counter(\"proto\", \"bogus\", &[]).add2(1);\n\
               \x20   reg.add(\"proto\", \"good\", &[(\"node\", n), (\"algo\", a)], 1);\n\
               }\n";
    let mut w = ws(vec![sf("crates/doma-protocol/src/o.rs", src)]);
    w.design = DESIGN_STUB.to_string();
    let report = run(&w);
    let oc: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "obs-catalog")
        .collect();
    assert_eq!(oc.len(), 2, "{report:?}");
    assert_eq!(oc[0].line, 3, "bogus metric name");
    assert!(oc[0].message.contains("proto.bogus"));
    assert_eq!(oc[1].line, 4, "algo after node");
    assert!(oc[1].message.contains("not sorted"));
}

#[test]
fn obs_catalog_only_reads_section_eight() {
    // `not.a_metric_section` appears under §7 — it is not catalog.
    let src = "fn f(reg: &Registry) { reg.counter(\"not\", \"a_metric_section\", &[]); }\n";
    let mut w = ws(vec![sf("crates/doma-protocol/src/o.rs", src)]);
    w.design = DESIGN_STUB.to_string();
    let report = run(&w);
    assert_finding(
        &report.findings,
        "crates/doma-protocol/src/o.rs",
        1,
        "obs-catalog",
    );
}

// ---------------------------------------------------------------------------
// span-catalog
// ---------------------------------------------------------------------------

#[test]
fn span_catalog_catches_uncataloged_span_names() {
    let src = "fn f(log: &EventLog) {\n\
               \x20   let a = log.span_enter(5, \"proto.span_ok\", Vec::new());\n\
               \x20   let b = log.span_enter(6, \"proto.rogue\", Vec::new());\n\
               \x20   let c = span!(log, 7, \"proto.rogue2\", node = 1);\n\
               }\n";
    let mut w = ws(vec![sf("crates/doma-sim/src/s.rs", src)]);
    w.design = DESIGN_STUB.to_string();
    let report = run(&w);
    let sc: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "span-catalog")
        .collect();
    assert_eq!(sc.len(), 2, "{report:?}");
    assert_eq!(
        (sc[0].file.as_str(), sc[0].line),
        ("crates/doma-sim/src/s.rs", 3),
        "rogue span_enter name literal"
    );
    assert!(sc[0].message.contains("proto.rogue"));
    assert_eq!(
        (sc[1].file.as_str(), sc[1].line),
        ("crates/doma-sim/src/s.rs", 4),
        "rogue span! macro name literal"
    );
    assert!(sc[1].message.contains("proto.rogue2"));
}

#[test]
fn span_catalog_only_reads_section_thirteen() {
    // `proto.good` lives in the §8 metric catalog, not §13 — a span
    // named after a metric still needs its own §13 row.
    let src = "fn f(log: &EventLog) { log.span_enter(1, \"proto.good\", Vec::new()); }\n";
    let mut w = ws(vec![sf("crates/doma-sim/src/s.rs", src)]);
    w.design = DESIGN_STUB.to_string();
    let report = run(&w);
    assert_finding(
        &report.findings,
        "crates/doma-sim/src/s.rs",
        1,
        "span-catalog",
    );
}

// ---------------------------------------------------------------------------
// Site rules: each fires on its needle, and a needle that sits only in a
// trailing comment (where the old grep/awk guards saw it) stays silent.
// ---------------------------------------------------------------------------

fn findings_of<'f>(findings: &'f [Finding], rule: &str) -> Vec<&'f Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn roster_once_catches_a_second_roster() {
    let roster = "pub fn build() { let w = WriteInvalidateCache::new(1); }\n\
                  pub const LABEL: &str = \"write-invalidate\";\n";
    let copy = "fn harness() {\n\
                \x20   let w = doma_algorithms::WriteInvalidateCache::new(1);\n\
                }\n\
                #[cfg(test)]\n\
                mod tests {\n\
                \x20   const L: &str = \"write-invalidate\";\n\
                }\n";
    let report = run(&ws(vec![
        sf("crates/doma-protocol/src/roster.rs", roster),
        sf("crates/doma-analysis/src/copy.rs", copy),
        // doma-algorithms defines the contenders; it is out of scope.
        sf("crates/doma-algorithms/src/c.rs", copy),
    ]));
    let f = findings_of(&report.findings, "roster-once");
    assert_eq!(f.len(), 2, "{report:?}");
    assert_finding(
        &report.findings,
        "crates/doma-analysis/src/copy.rs",
        2,
        "roster-once",
    );
    assert_finding(
        &report.findings,
        "crates/doma-analysis/src/copy.rs",
        6,
        "roster-once",
    );
}

#[test]
fn roster_once_ignores_a_trailing_comment() {
    let src = "fn harness() { let e = Entrant::ALL; } // not WriteInvalidateCache::new(1)\n\
               fn other() {} /* \"write-invalidate\" */\n";
    let report = run(&ws(vec![sf("crates/doma-analysis/src/copy.rs", src)]));
    assert_clean(&report.findings);
}

#[test]
fn typed_events_catch_a_direct_record() {
    let src = "fn deliver(log: &EventLog) {\n\
               \x20   event!(log, 1, \"proto.ok\", node = 1);\n\
               \x20   log.record(2, \"proto.raw\", vec![(\"k\".to_string(), v.to_string())]);\n\
               }\n";
    let report = run(&ws(vec![
        sf("crates/doma-protocol/src/node.rs", src),
        // doma-obs owns `record` and its macros; it is out of scope.
        sf("crates/doma-obs/src/event.rs", src),
    ]));
    let f = findings_of(&report.findings, "typed-events");
    assert_eq!(f.len(), 1, "{report:?}");
    assert_finding(
        &report.findings,
        "crates/doma-protocol/src/node.rs",
        3,
        "typed-events",
    );
}

#[test]
fn typed_events_ignore_a_trailing_comment() {
    let src = "fn deliver(log: &EventLog) {\n\
               \x20   event!(log, 1, \"proto.ok\", node = 1); // not log.record(…)\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-protocol/src/node.rs", src)]));
    assert_clean(&report.findings);
}

#[test]
fn counter_handles_catch_a_third_lookup_site() {
    let src = "fn tally(obs: &ObsBundle) {\n\
               \x20   let handle = obs.metrics().snapshot();\n\
               \x20   obs.metrics()\n\
               \x20       .add(\"protocol\", \"cost.control\", &[], 1);\n\
               \x20   let reg = obs.metrics();\n\
               }\n";
    let report = run(&ws(vec![
        sf("crates/doma-protocol/src/obs.rs", src),
        sf("crates/doma-sim/src/engine.rs", src),
        sf("crates/doma-protocol/src/node.rs", src),
    ]));
    let f = findings_of(&report.findings, "counter-handles");
    assert_eq!(f.len(), 2, "only the third file, twice: {report:?}");
    assert_finding(
        &report.findings,
        "crates/doma-protocol/src/node.rs",
        3,
        "counter-handles",
    );
    assert_finding(
        &report.findings,
        "crates/doma-protocol/src/node.rs",
        5,
        "counter-handles",
    );
}

#[test]
fn counter_handles_ignore_a_trailing_comment() {
    let src = "fn tally(c: &Counter) {\n\
               \x20   c.add(1); // was obs.metrics().add(\"protocol\", \"x\", &[], 1)\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-protocol/src/node.rs", src)]));
    assert_clean(&report.findings);
}

#[test]
fn one_settle_catches_a_bare_drain() {
    let sim = "impl ProtocolSim {\n\
               \x20   pub fn settle(&mut self) -> u64 { self.engine.run_until_idle() }\n\
               \x20   pub fn shortcut(&mut self) -> u64 { self.engine.run_until_idle() }\n\
               }\n";
    let test = "#[test]\n\
                fn drains() {\n\
                \x20   sim.engine_mut().run_until_idle();\n\
                }\n";
    let report = run(&ws(vec![
        sf("crates/doma-protocol/src/sim.rs", sim),
        sf("tests/event_budget.rs", test),
        // doma-sim defines the drain; it is out of scope.
        sf("crates/doma-sim/src/engine.rs", test),
    ]));
    let f = findings_of(&report.findings, "one-settle");
    assert_eq!(f.len(), 2, "{report:?}");
    assert_finding(
        &report.findings,
        "crates/doma-protocol/src/sim.rs",
        3,
        "one-settle",
    );
    assert_finding(&report.findings, "tests/event_budget.rs", 3, "one-settle");
}

#[test]
fn one_settle_ignores_a_trailing_comment() {
    let src = "fn drains() {\n\
               \x20   sim.settle().unwrap(); // not engine_mut().run_until_idle()\n\
               }\n";
    let report = run(&ws(vec![sf("examples/quickstart.rs", src)]));
    assert_clean(&report.findings);
}
