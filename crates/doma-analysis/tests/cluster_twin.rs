//! The loopback parity wall: the §6.2 append-only scenario over real
//! Unix-domain sockets must reproduce the deterministic sim twin exactly
//! — same allocation-scheme trajectory, same cost totals, same protocol
//! obs metrics — across cluster sizes and pinned seeds.

use doma_analysis::cluster::run_twin;
use doma_net::TransportKind;

/// Runs the twin harness, treating a socket-less sandbox as a skip (the
/// verify wall prints the same notice) and anything else as a failure.
fn twin_or_skip(
    scenario: &doma_scenario::Scenario,
    kind: TransportKind,
) -> Option<doma_analysis::cluster::TwinReport> {
    match run_twin(scenario, kind) {
        Ok(report) => Some(report),
        Err(e) if e.starts_with("sockets unavailable") => {
            eprintln!("skipping cluster twin test: {e}");
            None
        }
        Err(e) => panic!("twin run failed: {e}"),
    }
}

/// K ∈ {2, 3, 5} nodes over UDS running the §6.2 append-only scenario
/// produce the same trajectory and obs cost totals as the sim twin, for
/// three pinned seeds each.
#[test]
fn append_only_6_2_matches_sim_across_k_and_seeds() {
    let base = doma_scenario::builtin::load("append-only-6-2").unwrap();
    for k in [2usize, 3, 5] {
        for seed in [7u64, 11, 1994] {
            let mut scenario = base.clone();
            scenario.seed = seed;
            scenario.n = k;
            let Some(report) = twin_or_skip(&scenario, TransportKind::Uds) else {
                return;
            };
            assert!(
                report.matches(),
                "k={k} seed={seed} diverged: {:?}",
                report.diffs
            );
            assert_eq!(report.n, k);
            assert_eq!(report.requests, 40);
            assert_eq!(report.sim_trajectory.len(), 40);
            // The twin JSONs are byte-identical, so `domactl obs diff`
            // on the exported snapshots reports a clean diff too.
            assert_eq!(report.sim_obs_json, report.net_obs_json);
            let d = doma_analysis::obsdiff::diff_texts(
                &report.sim_obs_json,
                &report.net_obs_json,
                None,
            )
            .unwrap();
            assert!(d.is_clean());
        }
    }
}

/// An adaptive entrant (driver-side oracle, plan-carrying requests)
/// reaches parity over TCP loopback as well.
#[test]
fn adaptive_entrant_matches_sim_over_tcp() {
    let scenario = doma_scenario::builtin::load("diurnal-drift").unwrap();
    let Some(report) = twin_or_skip(&scenario, TransportKind::Tcp) else {
        return;
    };
    assert!(report.matches(), "diverged: {:?}", report.diffs);
    assert!(report.net_cost.control + report.net_cost.data > 0);
}

/// Fault-bearing scenarios are rejected up front: the real runtime is
/// failure-free, and a silent no-fault replay would diff against the
/// wrong oracle.
#[test]
fn fault_scenarios_are_rejected() {
    let scenario = doma_scenario::builtin::load("jittery-uplink").unwrap();
    assert!(!scenario.is_failure_free(), "fixture lost its faults");
    let err = run_twin(&scenario, TransportKind::Uds).unwrap_err();
    assert!(
        err.contains("failure-free") && err.contains("domactl scenario jittery-uplink"),
        "unexpected error: {err}"
    );
}

/// A resized scenario resizes both twins coherently: parity holds at a
/// size the scenario author never pinned.
#[test]
fn nodes_override_resizes_both_twins() {
    let mut scenario = doma_scenario::builtin::load("trace-replay").unwrap();
    scenario.n = 8;
    let Some(report) = twin_or_skip(&scenario, TransportKind::Uds) else {
        return;
    };
    assert_eq!(report.n, 8);
    assert!(report.matches(), "diverged: {:?}", report.diffs);
}
