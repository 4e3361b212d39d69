//! The lint engine: workspace loading and rule orchestration.
//!
//! [`run`] is pure — it consumes an in-memory [`Workspace`], so the
//! mutation self-tests feed it synthetic workspaces without touching
//! the disk; [`load_workspace`] walks a real checkout (the tree wall,
//! `tests/tree_wall.rs`, walks this one). Findings are sorted by
//! `(file, line, col, rule, message)`.

use crate::rules;
use crate::tree::{parse, strip_cfg_test, Tree};
use crate::Finding;
use std::path::Path;

/// Crates whose message dispatch is audited by `message-flow`.
pub const DISPATCH_CRATES: &[&str] = &["doma-protocol"];
/// Crates whose non-test code must be a pure function of the seed: the
/// golden obs digests and the sharded-merge bit-identity both assume it.
/// `determinism` audits their float ordering; `clippy.toml` bans hash
/// iteration, the environment and the wall clock in every crate.
pub const DETERMINISM_CRATES: &[&str] = &["doma-sim", "doma-protocol", "doma-obs", "doma-scenario"];
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
    "doma-scenario",
];
/// The enum audited by the `message-flow` rule.
pub const MESSAGE_ENUM: &str = "DomMsg";
/// The one file outside `doma-algorithms` that may spell out the roster
/// (`roster-once`).
pub const ROSTER_FILE: &str = "crates/doma-protocol/src/roster.rs";
/// Where the metrics registry may be looked up by name (`counter-handles`):
/// `NodeObs` and `Engine::set_obs`, which resolve handles once per cell.
pub const REGISTRY_FILES: &[&str] = &[
    "crates/doma-protocol/src/obs.rs",
    "crates/doma-sim/src/engine.rs",
];
/// The file whose `fn settle` is the one engine drain outside `doma-sim`
/// (`one-settle`).
pub const SETTLE_FILE: &str = "crates/doma-protocol/src/sim.rs";

/// One source file of the workspace, path workspace-relative with `/`
/// separators.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path (`crates/doma-sim/src/engine.rs`).
    pub path: String,
    /// The owning crate's directory name (`doma-sim`); empty for the root
    /// package's `tests/` and `examples/`.
    pub crate_name: String,
    /// File contents.
    pub text: String,
}

/// Everything the engine lints, fully in memory.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// All `.rs` files under `crates/*/src`, then the root `tests/` and
    /// `examples/` (which only `one-settle` audits).
    pub files: Vec<SourceFile>,
    /// `DESIGN.md` contents (source of the §8 metric catalog and the
    /// §13 span catalog).
    pub design: String,
}

/// The result of a lint run.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Findings, sorted by `(file, line, col, rule, message)`.
    pub findings: Vec<Finding>,
    /// Number of source files checked.
    pub files_checked: usize,
}

/// Runs the full rule catalog over `ws`. Every source file, however
/// broken, lints: the parser is tolerant by design.
pub fn run(ws: &Workspace) -> LintReport {
    // Each file as (source, unstripped trees, `#[cfg(test)]`-stripped trees).
    let parsed: Vec<(&SourceFile, Vec<Tree<'_>>, Vec<Tree<'_>>)> = ws
        .files
        .iter()
        .map(|file| {
            let raw = parse(&file.text);
            (file, raw.clone(), strip_cfg_test(raw))
        })
        .collect();

    let mut findings = Vec::new();
    for (file, _, trees) in &parsed {
        if file.path.ends_with("src/lib.rs") {
            findings.extend(rules::check_lint_headers(&file.path, &file.text));
        }
        if DETERMINISM_CRATES.contains(&file.crate_name.as_str()) {
            findings.extend(rules::check_determinism(&file.path, trees));
        }
    }

    let cross = |set: &[&str]| -> Vec<(&str, &[Tree<'_>])> {
        parsed
            .iter()
            .filter(|(file, _, _)| set.contains(&file.crate_name.as_str()))
            .map(|(file, _, trees)| (file.path.as_str(), trees.as_slice()))
            .collect()
    };
    findings.extend(rules::check_lock_order(&cross(LOCK_ORDER_CRATES)));
    findings.extend(rules::check_message_flow(
        MESSAGE_ENUM,
        &cross(DISPATCH_CRATES),
    ));
    findings.extend(rules::check_obs_catalog(
        &cross(OBS_CATALOG_CRATES),
        &rules::design_catalog(&ws.design, 8),
    ));
    findings.extend(rules::check_span_catalog(
        &cross(OBS_CATALOG_CRATES),
        &rules::design_catalog(&ws.design, 13),
    ));

    // The site rules see unit-test modules too. `outside` is every crate's
    // `src/` but one crate's.
    let sites = |keep: &dyn Fn(&SourceFile) -> bool| -> Vec<(&str, &[Tree<'_>])> {
        parsed
            .iter()
            .filter(|(file, _, _)| keep(file))
            .map(|(file, raw, _)| (file.path.as_str(), raw.as_slice()))
            .collect()
    };
    let outside = |skip: &'static str| {
        move |file: &SourceFile| !file.crate_name.is_empty() && file.crate_name != skip
    };
    findings.extend(rules::check_roster_once(
        &sites(&outside("doma-algorithms")),
        ROSTER_FILE,
    ));
    findings.extend(rules::check_typed_events(&sites(&outside("doma-obs"))));
    findings.extend(rules::check_counter_handles(
        &sites(&outside("doma-obs")),
        REGISTRY_FILES,
    ));
    findings.extend(rules::check_one_settle(
        &sites(&|file| file.crate_name != "doma-sim"),
        SETTLE_FILE,
    ));

    // `Finding`'s derived order is `(file, line, col, rule, message)`.
    findings.sort();
    LintReport {
        findings,
        files_checked: ws.files.len(),
    }
}

/// Walks a real checkout rooted at `root` into a [`Workspace`]: every
/// crate's `src/`, then the root package's `tests/` and `examples/`.
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

    // (directory to walk, owning crate's name): every crate's `src/`,
    // then the root package's `tests/` and `examples/`.
    let mut sources: Vec<(std::path::PathBuf, String)> = crate_dirs
        .iter()
        .map(|dir| {
            let name = dir.file_name().and_then(|n| n.to_str()).unwrap_or("");
            (dir.join("src"), name.to_string())
        })
        .collect();
    sources.extend(["tests", "examples"].map(|dir| (root.join(dir), String::new())));

    let mut ws = Workspace::default();
    for (dir, crate_name) in sources {
        let mut files = Vec::new();
        rs_files(&dir, &mut files);
        for file in files {
            let Ok(text) = std::fs::read_to_string(&file) else {
                continue;
            };
            ws.files.push(SourceFile {
                path: rel(&file),
                crate_name: crate_name.clone(),
                text,
            });
        }
    }
    ws.design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    Ok(ws)
}
