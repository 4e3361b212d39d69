//! The lint wall on this checkout: every crate's `src/` must come out of
//! [`doma_lint::run`] findings-free, and a failure lists each finding as
//! `file:line:col: [rule] message`. The walk is audited too, so an empty
//! or partial walk cannot pass, and so is the lock-order rule's input.

use doma_lint::engine::LOCK_ORDER_CRATES;
use doma_lint::lex::Delim;
use doma_lint::tree::{parse, strip_cfg_test, walk_levels};
use std::path::Path;

#[test]
fn the_real_tree_is_findings_free() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
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
