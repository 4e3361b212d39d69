//! The lint engine: workspace loading, rule orchestration, allowlist
//! application, and byte-stable rendering.
//!
//! [`run`] is pure — it consumes an in-memory [`Workspace`], so the
//! mutation self-tests feed it synthetic workspaces without touching
//! the disk; [`load_workspace`] walks a real checkout. Findings are
//! sorted by `(file, line, col, rule, message)` and rendered with a
//! hand-rolled JSON writer, so two runs over the same tree are
//! byte-identical — the same determinism bar the obs and scenario walls
//! hold themselves to (verify.sh diffs two invocations).

use crate::allow::Allowlist;
use crate::rules;
use crate::tree::{parse, strip_cfg_test, Tree};
use crate::Finding;
use std::path::Path;

/// Crates whose non-test code must never panic. `doma-algorithms` joined
/// when its baselines were promoted to first-class tournament entrants:
/// every allocator on the roster now runs inside the protocol sim as a
/// plan oracle, so a panic there takes the whole cluster down.
pub const NO_PANIC_CRATES: &[&str] = &["doma-algorithms", "doma-protocol", "doma-sim"];
/// Crates whose message dispatch must name every variant.
pub const DISPATCH_CRATES: &[&str] = &["doma-protocol"];
/// Instrumented crates whose library code must not print ad hoc: output
/// flows through the `doma-obs` event log / metric registry (or the
/// sanctioned `console::debug_line` choke point).
pub const NO_PRINT_CRATES: &[&str] = &[
    "doma-obs",
    "doma-sim",
    "doma-protocol",
    "doma-fault",
    "doma-check",
];
/// Crates whose non-test code must be a pure function of the seed: the
/// golden obs digests and the sharded-merge bit-identity both assume it.
pub const DETERMINISM_CRATES: &[&str] = &["doma-sim", "doma-protocol", "doma-obs", "doma-scenario"];
/// The only crate whose non-test code may read the wall clock
/// (`Instant`/`SystemTime`): the socket runtime, where real time is the
/// subject. Everything else under `crates/` stays stopwatch-free —
/// timing lives in `benchmark/`.
pub const WALL_CLOCK_CRATE: &str = "doma-net";
/// Crates audited by the static lock-acquisition-order graph: the ones
/// holding a `Mutex` in non-test code — `doma-obs`'s metric registry and
/// event log.
pub const LOCK_ORDER_CRATES: &[&str] = &["doma-obs"];
/// Crates whose metric registrations must match the DESIGN §8 catalog
/// and whose literal span names must match the DESIGN §13 span catalog.
pub const OBS_CATALOG_CRATES: &[&str] = &[
    "doma-obs",
    "doma-sim",
    "doma-protocol",
    "doma-fault",
    "doma-check",
    "doma-scenario",
];
/// The only modules allowed to touch `std::thread`: the audited fan-out
/// points. Everything else — every crate, benches and tests included —
/// must stay single-threaded or route through `doma_sim::shard`.
pub const THREAD_MODULES: &[&str] = &[
    "doma-analysis/src/sweep.rs",
    "doma-sim/src/shard.rs",
    "doma-fault/src/torture.rs",
    // The real runtime: one thread per node plus per-connection readers,
    // and the driver's quiescence barrier sleeps between poll rounds.
    "doma-net/src/runtime.rs",
    "doma-net/src/cluster.rs",
];
/// The only crate allowed to touch real sockets (`std::net`, Unix domain
/// sockets): the transport runtime. Everywhere else — tests and benches
/// included — protocol traffic flows through `doma_protocol::Transport`,
/// keeping the deterministic twin authoritative.
pub const NET_CRATE: &str = "doma-net";
/// The enum audited by the `message-flow` rule.
pub const MESSAGE_ENUM: &str = "DomMsg";
/// The allowlist's workspace-relative path.
pub const ALLOWLIST_FILE: &str = "lint-allow.list";

/// One source file of the workspace, path workspace-relative with `/`
/// separators.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/doma-sim/src/engine.rs`).
    pub path: String,
    /// The owning crate's directory name (`doma-sim`).
    pub crate_name: String,
    /// Whether the file lives under the crate's `src/` (vs. `tests/`,
    /// `benches/`).
    pub in_src: bool,
    /// File contents.
    pub text: String,
}

/// Everything the engine lints, fully in memory.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// All `.rs` files under `crates/*/{src,benches,tests}`.
    pub files: Vec<SourceFile>,
    /// `DESIGN.md` contents (source of the §8 metric catalog and the
    /// §13 span catalog).
    pub design: String,
    /// `lint-allow.list` contents, if the file exists.
    pub allowlist: Option<String>,
    /// Number of crate directories seen (reporting only).
    pub crates: usize,
}

/// The result of a lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Findings, sorted by `(file, line, col, rule, message)`.
    pub findings: Vec<Finding>,
    /// Number of source files checked.
    pub files_checked: usize,
    /// Number of crate directories seen.
    pub crates: usize,
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.file, b.line, b.col, b.rule, &b.message))
    });
}

/// Runs the full rule catalog over `ws` and applies its allowlist.
///
/// Returns `Err` only for a malformed allowlist — every source file,
/// however broken, still lints (the parser is tolerant by design).
pub fn run(ws: &Workspace) -> Result<LintReport, String> {
    struct Parsed<'a> {
        file: &'a SourceFile,
        raw: Vec<Tree<'a>>,
        stripped: Vec<Tree<'a>>,
    }
    let parsed: Vec<Parsed<'_>> = ws
        .files
        .iter()
        .map(|file| {
            let raw = parse(&file.text);
            let stripped = strip_cfg_test(raw.clone());
            Parsed {
                file,
                raw,
                stripped,
            }
        })
        .collect();

    let mut findings = Vec::new();
    for p in &parsed {
        let f = p.file;
        let name = f.crate_name.as_str();
        if f.path.ends_with("src/lib.rs") {
            findings.extend(rules::check_lint_headers(&f.path, &f.text));
        }
        if !THREAD_MODULES.iter().any(|m| f.path.ends_with(m)) {
            findings.extend(rules::check_thread_containment(&f.path, &p.raw));
        }
        if name != NET_CRATE {
            findings.extend(rules::check_net_containment(&f.path, &p.raw));
        }
        if !f.in_src {
            continue;
        }
        if NO_PANIC_CRATES.contains(&name) {
            findings.extend(rules::check_no_panics(&f.path, &p.stripped));
        }
        if DISPATCH_CRATES.contains(&name) {
            findings.extend(rules::check_dispatch_exhaustive(&f.path, &p.stripped));
        }
        let in_bin = f.path.contains("/bin/");
        if NO_PRINT_CRATES.contains(&name) && !in_bin {
            findings.extend(rules::check_no_adhoc_prints(&f.path, &p.stripped));
        }
        if DETERMINISM_CRATES.contains(&name) {
            findings.extend(rules::check_determinism(&f.path, &p.stripped));
        }
        if name != WALL_CLOCK_CRATE {
            findings.extend(rules::check_wall_clock(&f.path, &p.stripped));
        }
    }

    let cross = |set: &[&str]| -> Vec<(&str, &[Tree<'_>])> {
        parsed
            .iter()
            .filter(|p| p.file.in_src && set.contains(&p.file.crate_name.as_str()))
            .map(|p| (p.file.path.as_str(), p.stripped.as_slice()))
            .collect()
    };
    findings.extend(rules::check_lock_order(&cross(LOCK_ORDER_CRATES)));
    findings.extend(rules::check_message_flow(
        MESSAGE_ENUM,
        &cross(DISPATCH_CRATES),
    ));
    let catalog = rules::design_metric_catalog(&ws.design);
    findings.extend(rules::check_obs_catalog(
        &cross(OBS_CATALOG_CRATES),
        &catalog,
    ));
    let spans = rules::design_span_catalog(&ws.design);
    findings.extend(rules::check_span_catalog(
        &cross(OBS_CATALOG_CRATES),
        &spans,
    ));

    if let Some(text) = &ws.allowlist {
        let list = Allowlist::parse(text)?;
        findings = list.apply(findings, ALLOWLIST_FILE);
    }
    sort_findings(&mut findings);
    Ok(LintReport {
        findings,
        files_checked: ws.files.len(),
        crates: ws.crates,
    })
}

/// Walks a real checkout rooted at `root` into a [`Workspace`].
pub fn load_workspace(root: &Path) -> Result<Workspace, String> {
    fn rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        paths.sort();
        for path in paths {
            if path.is_dir() {
                rs_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let rel = |path: &Path| -> String {
        let s = path
            .strip_prefix(root)
            .unwrap_or(path)
            .display()
            .to_string();
        s.replace('\\', "/")
    };

    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("no crates/ under {}: {e}", root.display()))?;
    let mut crate_dirs: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut ws = Workspace {
        crates: crate_dirs.len(),
        ..Workspace::default()
    };
    for dir in &crate_dirs {
        let crate_name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        for sub in ["src", "benches", "tests"] {
            let mut files = Vec::new();
            rs_files(&dir.join(sub), &mut files);
            for file in files {
                let Ok(text) = std::fs::read_to_string(&file) else {
                    continue;
                };
                ws.files.push(SourceFile {
                    path: rel(&file),
                    crate_name: crate_name.clone(),
                    in_src: sub == "src",
                    text,
                });
            }
        }
    }
    ws.design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    ws.allowlist = std::fs::read_to_string(root.join(ALLOWLIST_FILE)).ok();
    Ok(ws)
}

/// Renders the report as the human table (one `file:line:col: [rule]
/// message` row per finding plus a summary line).
pub fn render_table(report: &LintReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&format!("{f}\n"));
    }
    out.push_str(&format!(
        "doma-lint: {} crates, {} files checked, {} finding(s)\n",
        report.crates,
        report.files_checked,
        report.findings.len()
    ));
    out
}

fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders the report as byte-stable JSON: fixed key order, findings
/// pre-sorted, minimal escaping, trailing newline. Two runs over the
/// same tree produce identical bytes.
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"crates\": {},\n", report.crates));
    out.push_str(&format!("  \"files_checked\": {},\n", report.files_checked));
    out.push_str(&format!("  \"findings\": {},\n", report.findings.len()));
    out.push_str("  \"items\": [");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"",
            {
                let mut p = String::new();
                json_escape(&f.file, &mut p);
                p
            },
            f.line,
            f.col,
            f.rule
        ));
        json_escape(&f.message, &mut out);
        out.push_str("\"}");
    }
    if report.findings.is_empty() {
        out.push_str("]\n");
    } else {
        out.push_str("\n  ]\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, crate_name: &str, in_src: bool, text: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            in_src,
            text: text.to_string(),
        }
    }

    #[test]
    fn json_output_is_byte_stable_and_sorted() {
        let ws = Workspace {
            files: vec![file(
                "crates/doma-sim/src/z.rs",
                "doma-sim",
                true,
                "fn f(o: Option<u8>) -> u8 { o.unwrap() }\nuse std::collections::HashMap;\n",
            )],
            ..Workspace::default()
        };
        let r1 = run(&ws).expect("runs");
        let r2 = run(&ws).expect("runs");
        assert_eq!(render_json(&r1), render_json(&r2));
        // Sorted by line: HashMap (line 2) after unwrap (line 1).
        assert_eq!(r1.findings[0].rule, "no-panic");
        assert_eq!(r1.findings[1].rule, "determinism");
        let json = render_json(&r1);
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"findings\": 2"));
    }

    #[test]
    fn allowlist_suppression_flows_through_run() {
        let ws = Workspace {
            files: vec![file(
                "crates/doma-sim/src/a.rs",
                "doma-sim",
                true,
                "fn f() -> String { std::env::var(\"X\").unwrap_or_default() }\n",
            )],
            allowlist: Some("determinism crates/doma-sim/src/a.rs env::var\n".to_string()),
            ..Workspace::default()
        };
        let report = run(&ws).expect("runs");
        assert!(
            report.findings.is_empty(),
            "suppressed, no stale: {:?}",
            report.findings
        );
    }
}
