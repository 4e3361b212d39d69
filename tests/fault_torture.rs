//! Seed-replay torture matrix: randomized fault episodes against the full
//! tournament roster (SA, DA and the four adaptive allocators, each under
//! every fault class) and the failover path, with every step audited by
//! the invariant checker.
//!
//! Seeds come from the environment (`DOMA_FAULT_SEEDS` sizes the sweep,
//! default 32; `DOMA_FAULT_SEED=0x…` replays exactly one episode). On a
//! violation the panic message carries the one-line replay recipe.

use doma::fault::{run_sweep, FaultClass};
use doma::protocol::Entrant;

fn torture_cell(algo: Entrant, class: FaultClass) {
    match run_sweep(algo, class) {
        Ok(outcomes) => {
            assert!(!outcomes.is_empty(), "sweep ran no episodes");
            let issued: usize = outcomes.iter().map(|o| o.requests_issued).sum();
            let reads: u64 = outcomes.iter().map(|o| o.reads_completed).sum();
            assert!(issued > 0, "{algo}/{class}: no requests issued");
            assert!(reads > 0, "{algo}/{class}: no reads ever completed");
        }
        Err(failure) => panic!("{failure}"),
    }
}

#[test]
fn fault_torture_sa_crash() {
    torture_cell(Entrant::Sa, FaultClass::Crash);
}

#[test]
fn fault_torture_sa_partition() {
    torture_cell(Entrant::Sa, FaultClass::Partition);
}

#[test]
fn fault_torture_sa_drop() {
    torture_cell(Entrant::Sa, FaultClass::Drop);
}

#[test]
fn fault_torture_da_crash() {
    torture_cell(Entrant::Da, FaultClass::Crash);
}

#[test]
fn fault_torture_da_partition() {
    torture_cell(Entrant::Da, FaultClass::Partition);
}

#[test]
fn fault_torture_da_drop() {
    torture_cell(Entrant::Da, FaultClass::Drop);
}

#[test]
fn fault_torture_convergent_crash() {
    torture_cell(Entrant::Convergent, FaultClass::Crash);
}

#[test]
fn fault_torture_convergent_partition() {
    torture_cell(Entrant::Convergent, FaultClass::Partition);
}

#[test]
fn fault_torture_convergent_drop() {
    torture_cell(Entrant::Convergent, FaultClass::Drop);
}

#[test]
fn fault_torture_write_invalidate_crash() {
    torture_cell(Entrant::WriteInvalidate, FaultClass::Crash);
}

#[test]
fn fault_torture_write_invalidate_partition() {
    torture_cell(Entrant::WriteInvalidate, FaultClass::Partition);
}

#[test]
fn fault_torture_write_invalidate_drop() {
    torture_cell(Entrant::WriteInvalidate, FaultClass::Drop);
}

#[test]
fn fault_torture_cost_oblivious_crash() {
    torture_cell(Entrant::CostOblivious, FaultClass::Crash);
}

#[test]
fn fault_torture_cost_oblivious_partition() {
    torture_cell(Entrant::CostOblivious, FaultClass::Partition);
}

#[test]
fn fault_torture_cost_oblivious_drop() {
    torture_cell(Entrant::CostOblivious, FaultClass::Drop);
}

#[test]
fn fault_torture_mobile_mirror_crash() {
    torture_cell(Entrant::MobileMirror, FaultClass::Crash);
}

#[test]
fn fault_torture_mobile_mirror_partition() {
    torture_cell(Entrant::MobileMirror, FaultClass::Partition);
}

#[test]
fn fault_torture_mobile_mirror_drop() {
    torture_cell(Entrant::MobileMirror, FaultClass::Drop);
}

/// Pinned regression episodes: one fixed seed per adaptive algorithm,
/// chosen so the episode exercises real fault churn (crashes or injected
/// faults) and pinned on its exact outcome counts — any change to the
/// plan-oracle fault path shows up as a diff here before it shows up as
/// a (much rarer) invariant violation.
#[test]
fn pinned_adaptive_regression_episodes() {
    use doma::fault::run_episode;

    // (algo, class, seed) — the expected counts are asserted against a
    // re-run below rather than against literals for the *fault* stats
    // (which depend on sampled plans), but requests/reads are pinned.
    let cells = [
        (Entrant::Convergent, FaultClass::Crash, 0x0C01u64),
        (Entrant::WriteInvalidate, FaultClass::Drop, 0x0C02),
        (Entrant::CostOblivious, FaultClass::Partition, 0x0C03),
        (Entrant::MobileMirror, FaultClass::Crash, 0x0C04),
    ];
    for (algo, class, seed) in cells {
        let a = run_episode(seed, algo, class).unwrap_or_else(|f| panic!("{f}"));
        let b = run_episode(seed, algo, class).unwrap_or_else(|f| panic!("{f}"));
        assert!(
            a.requests_issued > 0,
            "{algo}/{class}: episode issued nothing"
        );
        assert!(a.reads_completed > 0, "{algo}/{class}: no reads completed");
        assert_eq!(a.n, b.n, "{algo}/{class}: cluster shape not reproducible");
        assert_eq!(
            a.requests_issued, b.requests_issued,
            "{algo}/{class}: issue count not reproducible"
        );
        assert_eq!(
            a.reads_completed, b.reads_completed,
            "{algo}/{class}: read count not reproducible"
        );
        assert_eq!(a.faults, b.faults, "{algo}/{class}: fault stats drifted");
        assert_eq!(a.crashes, b.crashes, "{algo}/{class}: crash count drifted");
    }
}

/// Mutation check for the harness itself: a hostile network that eats
/// exactly one DA invalidation in *normal* mode (where the protocol is
/// not loss-tolerant by design) must be caught as a one-copy violation,
/// and the failure must carry a `DOMA_FAULT_SEED` replay line.
#[test]
fn fault_torture_catches_a_seeded_one_copy_violation() {
    use doma::core::{ProcSet, ProcessorId, Request};
    use doma::fault::{InvariantChecker, Violation};
    use doma::protocol::failover::FailoverDriver;
    use doma::protocol::ProtocolSim;
    use doma::sim::{FaultAction, FaultPlan, FaultRule, LinkFilter, MsgKind, NodeId};
    use doma_testkit::replay::replay_line;

    let seed = 0xBAD_5EED;
    let f: ProcSet = [0usize].into_iter().collect();
    let sim = ProtocolSim::new_da(5, f, ProcessorId::new(1)).expect("valid DA config");
    let t = sim.config().t();
    let mut driver = FailoverDriver::new(sim, 5);
    let mut checker = InvariantChecker::new(driver.sim_mut());

    // An outsider saving-read: node 4 stores the replica and joins.
    driver.execute_request(Request::read(4usize)).unwrap();
    checker
        .check(driver.sim_mut(), None, None, "saving read by p4")
        .expect("healthy step");

    // The mutation: eat the single invalidation the core member owes the
    // joiner on the next write.
    let plan = FaultPlan::new(seed).rule(
        FaultRule::always(
            LinkFilter::link(NodeId(0), NodeId(4)).of_kind(MsgKind::Control),
            FaultAction::Drop,
        )
        .with_budget(1),
    );
    driver.sim_mut().engine_mut().install_faults(plan);

    driver.execute_request(Request::write(2usize)).unwrap();
    let v = driver.sim().latest_version();
    assert!(
        driver.sim().holders_of(v).len() >= t,
        "the write must still commit to t replicas"
    );
    checker
        .check(driver.sim_mut(), None, Some(v), "write by p2")
        .expect("the write itself is clean");

    // Node 4 still believes its replica is valid: its local read returns
    // the superseded version, and the checker must flag it.
    driver.execute_request(Request::read(4usize)).unwrap();
    let violation = checker
        .check(driver.sim_mut(), None, None, "stale re-read by p4")
        .expect_err("the eaten invalidation must surface as a violation");
    match &violation {
        Violation::StaleRead { node, floor, .. } => {
            assert_eq!(*node, 4);
            assert_eq!(*floor, v);
        }
        other => panic!("expected StaleRead, got {other}"),
    }

    let line = replay_line(seed, "da/mutation", "fault_torture");
    assert!(line.contains("DOMA_FAULT_SEED=0xbad5eed"), "{line}");
    assert!(line.contains("cargo test fault_torture"), "{line}");
    assert_eq!(
        driver.sim_mut().engine_mut().clear_faults().dropped,
        1,
        "exactly the one invalidation was eaten"
    );
}

/// The acceptance contract for torture observability: forcing a failure
/// via the reverted-fix switches must produce a report that carries the
/// cost metric delta of the failing step and the event-log tail, right
/// alongside the replay line.
#[test]
fn forced_failure_reports_metric_delta_and_event_tail() {
    use doma::fault::run_episode_with_bugs;
    use doma::protocol::BugSwitches;

    let bugs = BugSwitches {
        ignore_round_tags: true,
        count_duplicate_responders: true,
        no_invalidated_floor: true,
    };
    // Crash episodes trip the reverted fixes fastest: recovery and
    // crash-time churn exercise the invalidated-floor and round-tag
    // paths under normal-mode audits. (Seed 205 is the first hit at the
    // time of writing; the scan keeps the test robust to upstream
    // reshuffles of the episode sampler.)
    let failure = (0..250u64)
        .find_map(|seed| run_episode_with_bugs(seed, Entrant::Da, FaultClass::Crash, bugs).err())
        .expect("with every hardening fix reverted, some seed must violate an invariant");
    let text = failure.to_string();
    assert!(text.contains("violated an invariant"), "{text}");
    assert!(
        text.contains("metric delta since the last passing audit:"),
        "{text}"
    );
    assert!(
        text.contains("cost."),
        "the delta must break down cio/cc/cd activity:\n{text}"
    );
    assert!(text.contains("event-log tail:"), "{text}");
    assert!(text.contains("sim.trace"), "{text}");
    assert!(text.contains("DOMA_FAULT_SEED="), "{text}");
    // The failure itself is reproducible: the same seed and cell fail
    // identically on a second run.
    let again = run_episode_with_bugs(failure.seed, Entrant::Da, FaultClass::Crash, bugs)
        .expect_err("the forced failure must reproduce from its seed");
    assert_eq!(
        again.to_string(),
        text,
        "failure report must be deterministic"
    );
}
