//! The mutation self-test wall: every rule must prove itself by
//! catching a seeded violation at the exact `(file, line, rule)` —
//! the same differential discipline as the PR 2 dropped-Invalidate
//! mutation test, applied to the linter itself. A rule that cannot
//! catch its own fixture is a hole in the wall, not a lint.
//!
//! Fixtures are synthetic in-memory workspaces fed straight to
//! [`doma_lint::run`]; nothing touches the disk, and violation snippets
//! live in string literals the token-level rules cannot see when this
//! file itself is linted.

use doma_lint::engine::{SourceFile, Workspace, LOCK_ORDER_CRATES};
use doma_lint::lex::Delim;
use doma_lint::tree::{parse, strip_cfg_test, walk_levels};
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
        in_src: path.contains("/src/"),
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
// Legacy rules on the token engine
// ---------------------------------------------------------------------------

#[test]
fn no_panic_catches_unwrap_expect_and_panic() {
    let src = "fn f(o: Option<u8>) -> u8 {\n\
               \x20   let x = o.unwrap();\n\
               \x20   let y = o.expect(\"gone\");\n\
               \x20   panic!(\"boom\");\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-sim/src/a.rs", src)])).unwrap();
    assert_finding(&report.findings, "crates/doma-sim/src/a.rs", 2, "no-panic");
    assert_finding(&report.findings, "crates/doma-sim/src/a.rs", 3, "no-panic");
    assert_finding(&report.findings, "crates/doma-sim/src/a.rs", 4, "no-panic");
    assert_eq!(report.findings.len(), 3);
}

#[test]
fn no_panic_ignores_tests_strings_comments_and_lookalikes() {
    let src = "fn f(o: Option<u8>) -> u8 {\n\
               \x20   // o.unwrap() in a comment\n\
               \x20   let s = \"o.unwrap() in a string\";\n\
               \x20   let _ = s;\n\
               \x20   o.unwrap_or(0)\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   fn t(o: Option<u8>) { o.unwrap(); panic!(); }\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-sim/src/a.rs", src)])).unwrap();
    assert_clean(&report.findings);
}

#[test]
fn exhaustive_dispatch_catches_wildcard_arms() {
    let src = "fn handle(msg: DomMsg) {\n\
               \x20   match msg {\n\
               \x20       DomMsg::Invalidate { .. } => {}\n\
               \x20       _ => {}\n\
               \x20   }\n\
               \x20   match other { _ => {} }\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-protocol/src/a.rs", src)])).unwrap();
    assert_finding(
        &report.findings,
        "crates/doma-protocol/src/a.rs",
        4,
        "exhaustive-dispatch",
    );
    // `match other` may use wildcards; `_` field binds inside patterns too.
    assert_eq!(
        report
            .findings
            .iter()
            .filter(|f| f.rule == "exhaustive-dispatch")
            .count(),
        1
    );
}

#[test]
fn no_adhoc_print_catches_println_in_library_code() {
    let src = "fn f() {\n\
               \x20   println!(\"dbg\");\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-obs/src/a.rs", src)])).unwrap();
    assert_finding(
        &report.findings,
        "crates/doma-obs/src/a.rs",
        2,
        "no-adhoc-print",
    );
    // The same text under src/bin is exempt (CLI front-ends print).
    let report = run(&ws(vec![sf("crates/doma-obs/src/bin/a.rs", src)])).unwrap();
    assert_clean(&report.findings);
}

#[test]
fn thread_containment_catches_spawn_outside_fanout_modules() {
    let src = "fn f() {\n\
               \x20   std::thread::spawn(|| {});\n\
               \x20   let n = std::thread::available_parallelism();\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-core/src/a.rs", src)])).unwrap();
    assert_finding(
        &report.findings,
        "crates/doma-core/src/a.rs",
        2,
        "thread-containment",
    );
    assert_eq!(report.findings.len(), 1, "available_parallelism is allowed");
    // The sanctioned fan-out module is exempt.
    let report = run(&ws(vec![sf("crates/doma-sim/src/shard.rs", src)])).unwrap();
    assert_clean(&report.findings);
}

#[test]
fn net_containment_confines_sockets_to_doma_net() {
    let src = "use std::net::TcpListener;\n\
               fn f() {\n\
               \x20   let s = std::os::unix::net::UnixStream::connect(\"p\");\n\
               \x20   let _ = s;\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-protocol/src/a.rs", src)])).unwrap();
    // Line 1 trips twice (the `std::net` path and the `TcpListener`
    // type); line 3 likewise. The pinned triples are what matter.
    assert_finding(
        &report.findings,
        "crates/doma-protocol/src/a.rs",
        1,
        "net-containment",
    );
    assert_finding(
        &report.findings,
        "crates/doma-protocol/src/a.rs",
        3,
        "net-containment",
    );
    assert!(report.findings.iter().all(|f| f.rule == "net-containment"));
    // Tests are NOT exempt: a socket in a test still escapes the sim.
    let test_src = "#[cfg(test)]\n\
                    mod tests {\n\
                    \x20   fn t() { let _ = std::net::UdpSocket::bind(\"x\"); }\n\
                    }\n";
    let report = run(&ws(vec![sf("crates/doma-core/src/b.rs", test_src)])).unwrap();
    assert_finding(
        &report.findings,
        "crates/doma-core/src/b.rs",
        3,
        "net-containment",
    );
    // The sanctioned crate is exempt, its tests included.
    let report = run(&ws(vec![
        sf("crates/doma-net/src/runtime.rs", src),
        sf("crates/doma-net/tests/t.rs", test_src),
    ]))
    .unwrap();
    assert_clean(&report.findings);
    // `std::os::unix::fs` and a local ident `net` stay clean.
    let benign = "fn g() {\n\
                  \x20   use std::os::unix::fs::PermissionsExt;\n\
                  \x20   let net = 3;\n\
                  \x20   let _ = (net, std::net::IpAddr::V4);\n\
                  }\n";
    let report = run(&ws(vec![sf("crates/doma-core/src/c.rs", benign)])).unwrap();
    // Only the std::net path on line 4 trips — the rest is benign.
    assert_eq!(report.findings.len(), 1);
    assert_finding(
        &report.findings,
        "crates/doma-core/src/c.rs",
        4,
        "net-containment",
    );
}

#[test]
fn lint_headers_catch_missing_pragmas() {
    let report = run(&ws(vec![sf(
        "crates/doma-core/src/lib.rs",
        "//! Docs.\npub fn f() {}\n",
    )]))
    .unwrap();
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
fn determinism_catches_all_four_hazard_classes() {
    let src = "use std::collections::HashMap;\n\
               fn f() {\n\
               \x20   let t = std::time::Instant::now();\n\
               \x20   let v = std::env::var(\"DOMA_X\");\n\
               \x20   let c = 1.0f64.partial_cmp(&2.0);\n\
               }\n";
    let report = run(&ws(vec![sf("crates/doma-sim/src/a.rs", src)])).unwrap();
    let f = "crates/doma-sim/src/a.rs";
    assert_finding(&report.findings, f, 1, "determinism"); // HashMap
    assert_finding(&report.findings, f, 3, "determinism"); // Instant
    assert_finding(&report.findings, f, 4, "determinism"); // env::var
    assert_finding(&report.findings, f, 5, "determinism"); // partial_cmp
    assert_eq!(report.findings.len(), 4);
}

#[test]
fn determinism_spares_trait_impls_and_nondeterministic_crates() {
    // Defining `partial_cmp` (a trait impl) is not calling it.
    let impl_src = "impl PartialOrd for K {\n\
                    \x20   fn partial_cmp(&self, o: &K) -> Option<Ordering> { None }\n\
                    }\n";
    let report = run(&ws(vec![sf("crates/doma-sim/src/k.rs", impl_src)])).unwrap();
    assert_clean(&report.findings);
    // Outside the deterministic crates only the wall-clock half applies.
    let src = "use std::collections::HashMap;\n\
               fn f() -> Option<String> { std::env::var(\"X\").ok() }\n";
    let report = run(&ws(vec![sf("crates/doma-analysis/src/t.rs", src)])).unwrap();
    assert_clean(&report.findings);
}

#[test]
fn wall_clock_is_a_finding_in_every_crate_but_doma_net() {
    let src = "fn f() -> u128 {\n\
               \x20   let start = std::time::Instant::now();\n\
               \x20   start.elapsed().as_nanos()\n\
               }\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   fn t() { let _ = std::time::SystemTime::now(); }\n\
               }\n";
    let f = "crates/doma-analysis/src/experiments.rs";
    let report = run(&ws(vec![sf(f, src)])).unwrap();
    assert_finding(&report.findings, f, 2, "determinism");
    assert_eq!(report.findings.len(), 1, "test code is exempt");
    // The socket runtime measures real time by design; integration
    // tests and benches are not `src/`.
    for spared in [
        "crates/doma-net/src/runtime.rs",
        "crates/doma-analysis/tests/t.rs",
    ] {
        let report = run(&ws(vec![sf(spared, src)])).unwrap();
        assert_clean(&report.findings);
    }
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
    let report = run(&ws(vec![sf("crates/doma-obs/src/event.rs", src)])).unwrap();
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
    let report = run(&ws(vec![sf("crates/doma-obs/src/event.rs", src)])).unwrap();
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
    let report = run(&ws(vec![sf(f, src)])).unwrap();
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
    let report = run(&ws(vec![sf("crates/doma-sim/src/net.rs", src)])).unwrap();
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
    let report = run(&ws(vec![sf("crates/doma-obs/src/event.rs", src)])).unwrap();
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
    ]))
    .unwrap();
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
    ]))
    .unwrap();
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
    let report = run(&w).unwrap();
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
    let report = run(&w).unwrap();
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
    let report = run(&w).unwrap();
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
    let report = run(&w).unwrap();
    assert_finding(
        &report.findings,
        "crates/doma-sim/src/s.rs",
        1,
        "span-catalog",
    );
}

// ---------------------------------------------------------------------------
// stale-allowlist
// ---------------------------------------------------------------------------

#[test]
fn stale_allowlist_entries_become_findings() {
    let mut w = ws(vec![sf("crates/doma-sim/src/a.rs", "fn f() {}\n")]);
    w.allowlist = Some(
        "# header comment\n\
         determinism crates/doma-sim/src/a.rs env::var\n"
            .to_string(),
    );
    let report = run(&w).unwrap();
    assert_finding(&report.findings, "lint-allow.list", 2, "stale-allowlist");
    assert_eq!(report.findings.len(), 1);
}

// ---------------------------------------------------------------------------
// The real tree
// ---------------------------------------------------------------------------

#[test]
fn the_real_tree_is_findings_free() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = doma_lint::load_workspace(&root).expect("workspace loads");
    let report = run(&ws).expect("lint runs");
    assert!(
        report.findings.is_empty(),
        "the checked-in tree must lint clean: {:#?}",
        report.findings
    );
    assert!(report.files_checked > 100, "walker saw the whole tree");

    // A rule that audits nothing passes forever: the lock-order crates
    // must hold at least one lock for the clean verdict above to mean
    // anything.
    let mut acquisitions = 0;
    for f in &ws.files {
        if f.in_src && LOCK_ORDER_CRATES.contains(&f.crate_name.as_str()) {
            walk_levels(&strip_cfg_test(parse(&f.text)), &mut |level| {
                acquisitions += level
                    .windows(3)
                    .filter(|w| {
                        w[0].is_punct('.')
                            && w[1].is_ident("lock")
                            && w[2]
                                .group_with(Delim::Paren)
                                .is_some_and(|args| args.children.is_empty())
                    })
                    .count();
            });
        }
    }
    assert!(
        acquisitions > 0,
        "no `.lock()` in {LOCK_ORDER_CRATES:?}: the lock-order rule audits an empty set"
    );
}
