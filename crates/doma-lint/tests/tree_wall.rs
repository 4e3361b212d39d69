//! The lint wall on this checkout: every crate's `src/`, and the root
//! `tests/` and `examples/`, must come out of [`doma_lint::run`]
//! findings-free, and a failure lists each finding as
//! `file:line:col: [rule] message`. The walk is audited too, so an empty
//! or partial walk cannot pass, and so is every rule whose input could
//! silently be empty: the lock-order crates' locks and the site rules'
//! sanctioned sites. The root manifest is audited last: the tier-1
//! `cargo test` must keep running this wall.

use doma_lint::engine::{
    SourceFile, Workspace, LOCK_ORDER_CRATES, REGISTRY_FILES, ROSTER_FILE, SETTLE_FILE,
};
use doma_lint::lex::Delim;
use doma_lint::rules::{engine_drain_sites, registry_lookup_sites, roster_sites, ROSTER_NEEDLES};
use doma_lint::tree::{parse, strip_cfg_test, walk_levels};
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn file<'w>(ws: &'w Workspace, path: &str) -> &'w SourceFile {
    ws.files
        .iter()
        .find(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path} was not walked"))
}

#[test]
fn the_real_tree_is_findings_free() {
    let root = root();
    let ws = doma_lint::load_workspace(&root).expect("workspace loads");
    let report = doma_lint::run(&ws);
    let listing: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(
        listing.is_empty(),
        "the checked-in tree must lint clean; {} finding(s):\n{}",
        listing.len(),
        listing.join("\n")
    );

    let crates = std::fs::read_dir(root.join("crates")).unwrap().flatten();
    for dir in crates.filter(|e| e.path().is_dir()) {
        let name = dir.file_name().to_string_lossy().into_owned();
        assert!(
            ws.files.iter().any(|f| f.crate_name == name),
            "no source file checked under crates/{name}/src"
        );
    }
    assert!(report.files_checked > 100, "walker saw the whole tree");
    for dir in ["tests/", "examples/"] {
        assert!(
            ws.files.iter().any(|f| f.path.starts_with(dir)),
            "no root {dir} file checked: one-settle audits them"
        );
    }

    // A rule that audits nothing passes forever: the lock-order crates
    // must hold at least one lock for the clean verdict above to mean
    // anything.
    let mut acquisitions = 0;
    for f in &ws.files {
        if LOCK_ORDER_CRATES.contains(&f.crate_name.as_str()) {
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

/// The site rules pass on the tree only if what they allow is really
/// there: a rule whose sanctioned site moved or vanished would otherwise
/// audit an empty set and pass forever.
#[test]
fn every_site_rule_audits_a_real_site() {
    let ws = doma_lint::load_workspace(&root()).expect("workspace loads");

    let roster = file(&ws, ROSTER_FILE);
    let found: Vec<&str> = roster_sites(&parse(&roster.text))
        .into_iter()
        .map(|(needle, _)| needle)
        .collect();
    for needle in ROSTER_NEEDLES {
        assert!(found.contains(&needle), "{needle} not in {ROSTER_FILE}");
    }

    for path in REGISTRY_FILES {
        let sites = registry_lookup_sites(&parse(&file(&ws, path).text));
        assert!(!sites.is_empty(), "no by-name registry lookup in {path}");
    }

    let drains: Vec<(&str, Option<&str>)> = ws
        .files
        .iter()
        .filter(|f| f.crate_name != "doma-sim")
        .flat_map(|f| {
            engine_drain_sites(&parse(&f.text))
                .into_iter()
                .map(|(in_fn, _)| (f.path.as_str(), in_fn))
        })
        .collect();
    assert_eq!(
        drains,
        [(SETTLE_FILE, Some("settle"))],
        "`run_until_idle(` must appear exactly once outside doma-sim, in `settle`"
    );
}

/// Tier 1 is `cargo test` at the root: without `default-members` naming
/// every crate it runs only the root package, and this wall with it.
#[test]
fn the_root_manifest_tests_every_crate() {
    let manifest = std::fs::read_to_string(root().join("Cargo.toml")).expect("root Cargo.toml");
    let line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("default-members"))
        .expect("the root [workspace] declares default-members");
    for member in ["\".\"", "\"crates/*\""] {
        assert!(
            line.contains(member),
            "default-members lacks {member}: {line}"
        );
    }
}
