//! Per-entrant golden-digest regression wall (satellite of the
//! scenario-engine PR): every tournament entrant runs the §6.2
//! append-only/standing-order scenario (`append-only-6-2`, the Huang &
//! Wolfson satellite-image workload) and must reproduce a pinned obs
//! digest.
//!
//! The builtin file pins the digest for its own entrant (`sa`); this
//! wall extends the pin to all six allocators so a behavioural drift
//! in *any* entrant — not just the one the builtin happens to name — is
//! caught by `cargo test`.
//!
//! If a digest changes intentionally, re-harvest with the ignored
//! `print_append_only_digests` helper below and update `GOLDEN`.

use doma::scenario::{builtin, runner, Entrant};

/// Pinned FNV-1a digests of the obs snapshot for `append-only-6-2`, one
/// per entrant, in `Entrant::ALL` order.
const GOLDEN: [(&str, &str); 6] = [
    ("sa", "0xb64ce3fa9b390fdb"),
    ("da", "0x773b0d7e294d00b2"),
    ("convergent", "0xfc0c7651e2b1c10f"),
    ("write-invalidate", "0xa1b34cf52d14f5b5"),
    ("cost-oblivious", "0xf676c9b71f1558ff"),
    ("mobile-mirror", "0xabc95445324d6957"),
];

/// The §6.2 scenario re-targeted at `entrant`: same catalog, seed and
/// phases; the availability floor follows the entrant's own `t` (the
/// write-invalidate cache keeps a single valid copy by design) and the
/// file's `sa` digest pin is cleared so this wall supplies its own.
fn scenario_for(entrant: Entrant) -> doma::scenario::Scenario {
    let mut s = builtin::load("append-only-6-2").expect("builtin parses");
    s.entrant = entrant;
    s.expect.min_valid_holders = Some(entrant.t());
    // The file's churn ceiling of 0 is an SA-specific invariant; the
    // dynamic allocators are allowed (indeed expected) to migrate.
    s.expect.max_scheme_churn = None;
    s.golden = None;
    s
}

#[test]
fn every_entrant_reproduces_its_pinned_append_only_digest() {
    assert_eq!(GOLDEN.len(), Entrant::ALL.len());
    let mut drifted = Vec::new();
    for (entrant, (name, golden)) in Entrant::ALL.into_iter().zip(GOLDEN) {
        assert_eq!(entrant.as_str(), name, "GOLDEN out of roster order");
        let report = runner::run(&scenario_for(entrant)).expect("scenario runs");
        assert!(report.passed(), "{name}: {:?}", report.violations);
        if report.digest != golden {
            drifted.push(format!("{name}: pinned {golden}, got {}", report.digest));
        }
    }
    assert!(
        drifted.is_empty(),
        "append-only digest drift (re-pin via print_append_only_digests if intended):\n{}",
        drifted.join("\n")
    );
}

#[test]
fn entrants_are_deterministic_on_the_append_only_scenario() {
    for entrant in Entrant::ALL {
        let s = scenario_for(entrant);
        let a = runner::run(&s).expect("first run");
        let b = runner::run(&s).expect("second run");
        assert_eq!(
            a.snapshot_json,
            b.snapshot_json,
            "{} not replay-stable",
            entrant.as_str()
        );
    }
}

/// Harvest helper: `cargo test -q print_append_only_digests -- --ignored
/// --nocapture` prints the current digest table in `GOLDEN` format.
#[test]
#[ignore = "harvest helper, not a regression test"]
fn print_append_only_digests() {
    for entrant in Entrant::ALL {
        let report = runner::run(&scenario_for(entrant)).expect("scenario runs");
        println!("    (\"{}\", \"{}\"),", entrant.as_str(), report.digest);
    }
}
