//! The regression wall: every protocol hardening from the fault-injection
//! campaign, encoded as a scenario that the checker proves clean on the
//! fixed protocol and demonstrably catches when the fix is reverted via
//! its test-only toggle — with a minimal, replayable counterexample.

use doma_core::{ProcessorId, Request};
use doma_fault::replay::{parse_bugs, replay, trace_from_env, BUGS_ENV};
use doma_fault::scenario::{
    da_resurrect, da_small, sa_quorum_duplicates, sa_quorum_overlap, sa_small,
};
use doma_fault::{builtin, check, CheckOptions, InvariantChecker, Scenario, Violation};
use doma_protocol::failover::FailoverDriver;
use doma_protocol::{BugSwitches, ProtocolSim};

fn opts() -> CheckOptions {
    CheckOptions::default()
}

#[test]
fn small_bound_sa_configuration_is_exhaustively_clean() {
    let report = check(&sa_small(), &opts()).unwrap();
    assert!(report.complete, "search must exhaust the space: {report}");
    assert!(report.counterexample.is_none(), "{report}");
    assert!(report.states_explored > 10, "{report}");
}

#[test]
fn small_bound_da_configuration_is_exhaustively_clean() {
    let report = check(&da_small(), &opts()).unwrap();
    assert!(report.complete, "search must exhaust the space: {report}");
    assert!(report.counterexample.is_none(), "{report}");
    assert!(report.states_explored > 10, "{report}");
}

/// Every builtin explores to completion with no violation, and the
/// report `doma-check` prints for them — state, transition, dedup and
/// prune counts — is the committed `tests/golden/doma_check.txt` that
/// EXPERIMENTS.md cites.
#[test]
fn every_builtin_scenario_is_exhaustively_clean() {
    let mut printed = String::new();
    for scenario in builtin() {
        let report = check(&scenario, &opts()).unwrap();
        assert!(report.complete, "{report}");
        assert!(report.counterexample.is_none(), "{report}");
        printed.push_str(&format!("{report}\n"));
    }
    assert_eq!(
        printed,
        include_str!("../../../tests/golden/doma_check.txt"),
        "doma-check drifted from tests/golden/doma_check.txt; if the move is deliberate, \
         regenerate it with `cargo run -q --release --offline -p doma-fault --bin doma-check \
         > tests/golden/doma_check.txt` and say why in CHANGES.md"
    );
}

/// Runs a bug-toggled scenario, asserts the checker catches it with the
/// expected violation shape, and proves the minimal trace replays to the
/// same violation under the switches its printed replay line names.
fn assert_caught(scenario: Scenario, bugs: BugSwitches, expect: impl Fn(&Violation) -> bool) {
    let clean = check(&scenario, &opts()).unwrap();
    assert!(
        clean.complete && clean.counterexample.is_none(),
        "scenario must be clean without the bug: {clean}"
    );
    let buggy = scenario.with_bugs(bugs);
    let report = check(&buggy, &opts()).unwrap();
    let cex = report
        .counterexample
        .as_ref()
        .unwrap_or_else(|| panic!("reverted fix must be caught: {report}"));
    assert!(
        expect(&cex.violation),
        "unexpected violation shape: {}",
        cex.violation
    );
    assert!(cex.minimized, "counterexample must be BFS-minimal");
    let metrics = cex
        .metrics
        .as_deref()
        .expect("counterexample must carry the replayed metric table");
    assert!(
        metrics.contains("protocol") && metrics.contains("cost."),
        "metric table must show protocol cost activity:\n{metrics}"
    );
    eprintln!("{report}");
    let line = cex.replay_line(&buggy, "replay_trace_from_env");
    eprintln!("  {line}");
    let printed = line
        .split_whitespace()
        .find_map(|word| word.strip_prefix(&format!("{BUGS_ENV}=")));
    assert_eq!(
        printed.and_then(parse_bugs),
        Some(buggy.bugs),
        "the replay line must name the switches: {line}"
    );
    let replayed = replay(&buggy, &cex.trace()).unwrap();
    let violation = replayed
        .violation
        .unwrap_or_else(|| panic!("minimal trace must replay to the violation"));
    assert!(
        expect(&violation),
        "replayed violation diverged: {violation}"
    );
    // Minimality spot-check: the trace is never longer than the whole
    // schedule budget, and every step is a real queued event.
    assert!(replayed.steps.len() == cex.steps.len());
}

#[test]
fn reverting_the_round_tag_fix_is_caught() {
    // Quorum replies from an earlier round counted toward a later
    // operation let a straggler assemble a stale majority.
    assert_caught(
        sa_quorum_overlap(),
        BugSwitches {
            ignore_round_tags: true,
            ..BugSwitches::default()
        },
        |v| matches!(v, Violation::StaleRead { .. }),
    );
}

#[test]
fn reverting_the_responder_dedup_fix_is_caught() {
    // Duplicated replies from one stale peer counted as distinct
    // responders let a reader reach its majority without intersecting
    // the write quorum.
    assert_caught(
        sa_quorum_duplicates(),
        BugSwitches {
            count_duplicate_responders: true,
            ..BugSwitches::default()
        },
        |v| matches!(v, Violation::StaleRead { .. }),
    );
}

#[test]
fn reverting_the_invalidation_floor_fix_is_caught() {
    // A duplicated saving-read reply arriving after the write's
    // invalidation resurrects the invalidated replica; the next phase
    // reads it stale.
    assert_caught(
        da_resurrect(),
        BugSwitches {
            no_invalidated_floor: true,
            ..BugSwitches::default()
        },
        |v| matches!(v, Violation::StaleRead { .. }),
    );
}

#[test]
fn reverting_the_mode_reset_gate_is_caught() {
    // The destructive ModeChange{false} broadcast on recovery lives in
    // the failover driver, outside the message-interleaving space, so
    // this regression drives the driver directly under the same oracle:
    // an outsider write moves the replication scheme off the static
    // F ∪ {p}, and an ungated normal-mode reset then flushes the only
    // replicas keeping the object t-available.
    for buggy in [false, true] {
        let sim =
            ProtocolSim::new_da(4, [0usize].into_iter().collect(), ProcessorId::new(1)).unwrap();
        let mut driver = FailoverDriver::new(sim, 4);
        let mut checker = InvariantChecker::new(driver.sim_mut());
        driver.set_destructive_mode_reset(buggy);
        let mut audit = |driver: &mut FailoverDriver, context: &str| {
            let normal_cost = driver.normal_mode_cost();
            checker.check(driver.sim_mut(), normal_cost, None, context)
        };

        driver.execute_request(Request::write(3usize)).unwrap();
        audit(&mut driver, "outsider write").unwrap();
        driver.crash(ProcessorId::new(2)).unwrap();
        audit(&mut driver, "non-scheme crash").unwrap();
        driver.recover(ProcessorId::new(2)).unwrap();
        let verdict = audit(&mut driver, "recovery");
        if buggy {
            let violation = verdict.expect_err("ungated mode reset must be caught");
            assert!(
                matches!(violation, Violation::AvailabilityBelowT { .. }),
                "unexpected violation shape: {violation}"
            );
        } else {
            verdict.expect("gated recovery must stay t-available");
        }
    }
}

#[test]
fn sleep_sets_prune_without_changing_the_verdict() {
    let mut bare = opts();
    bare.sleep_sets = false;
    let por = opts();

    // Clean scenario: identical verdict, strictly less work with POR.
    let slow = check(&da_small(), &bare).unwrap();
    let fast = check(&da_small(), &por).unwrap();
    assert!(slow.complete && fast.complete);
    assert!(slow.counterexample.is_none() && fast.counterexample.is_none());
    assert!(
        fast.transitions < slow.transitions,
        "sleep sets must prune some transitions ({} vs {})",
        fast.transitions,
        slow.transitions
    );

    // Buggy scenario: the violation survives the reduction.
    let buggy = da_resurrect().with_bugs(BugSwitches {
        no_invalidated_floor: true,
        ..BugSwitches::default()
    });
    let slow = check(&buggy, &bare).unwrap();
    let fast = check(&buggy, &por).unwrap();
    assert!(slow.counterexample.is_some() && fast.counterexample.is_some());
}

#[test]
fn state_budget_is_reported_as_incomplete() {
    let mut tight = opts();
    tight.max_states = 5;
    let report = check(&sa_small(), &tight).unwrap();
    assert!(!report.complete);
    assert!(report.counterexample.is_none());
    assert!(report.states_explored <= 5);
}

/// Replays a trace from the environment against a named built-in
/// scenario, printing every step — the `DOMA_CHECK_TRACE` convention
/// printed by [`doma_fault::Counterexample::replay_line`]. A no-op when
/// the variable is unset. `DOMA_CHECK_BUGS` re-applies the switches the
/// trace was minted under (comma-separated `round`, `dup`, `floor`).
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "replay knob: a no-op unless DOMA_CHECK_TRACE is set"
)]
fn replay_trace_from_env() {
    let Some(trace) = trace_from_env() else {
        return;
    };
    let name = std::env::var("DOMA_CHECK_SCENARIO").expect("set DOMA_CHECK_SCENARIO");
    let mut scenario = builtin()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown scenario {name:?}"));
    if let Ok(bugs) = std::env::var(BUGS_ENV) {
        scenario.bugs = parse_bugs(&bugs).unwrap_or_else(|| panic!("bad {BUGS_ENV}={bugs:?}"));
    }
    let report = replay(&scenario, &trace).unwrap();
    for (i, step) in report.steps.iter().enumerate() {
        println!("step {:>2} (phase {}): {}", i + 1, step.phase, step.label);
    }
    match report.violation {
        Some(v) => println!("violation: {v}"),
        None => println!("trace replayed clean"),
    }
}
