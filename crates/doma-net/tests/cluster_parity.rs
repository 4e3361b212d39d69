//! The socket cluster against its deterministic twin: same planner, same
//! schedule, same seed of truth — trajectories and cost totals must be
//! identical. This is the core cross-check the `domactl cluster` command
//! builds on.

use doma_core::{DomaError, ObjectId, ProcSet, ProcessorId, Schedule};
use doma_net::{Cluster, TransportKind};
use doma_protocol::{Entrant, ProtocolConfig, ProtocolSim, Tunables};
use std::collections::BTreeMap;

fn pair(a: u8, b: u8) -> ProcSet {
    let mut s = ProcSet::EMPTY;
    s.insert(ProcessorId::new(a as usize));
    s.insert(ProcessorId::new(b as usize));
    s
}

/// Boots a cluster or skips the test with a notice when the sandbox
/// refuses sockets — a missing runtime is not a protocol failure.
fn boot(n: usize, config: ProtocolConfig, kind: TransportKind) -> Option<(Cluster, ObjectId)> {
    let object = ProtocolSim::object();
    let mut configs = BTreeMap::new();
    configs.insert(object, config);
    match Cluster::new(n, configs, Vec::new(), kind, None) {
        Ok(c) => Some((c, object)),
        Err(DomaError::Net(msg)) => {
            eprintln!("skipping cluster parity test: sockets unavailable ({msg})");
            None
        }
        Err(other) => panic!("cluster boot failed: {other}"),
    }
}

/// Runs `schedule` through both twins and asserts identical per-request
/// holder trajectories and identical final cost/holders/read tallies.
fn assert_parity(n: usize, config: ProtocolConfig, kind: TransportKind, schedule: &str) {
    let schedule: Schedule = schedule.parse().unwrap();
    let Some((mut cluster, object)) = boot(n, config, kind) else {
        return;
    };

    let mut sim = match config {
        ProtocolConfig::Sa { q } => ProtocolSim::new_sa(n, q).unwrap(),
        ProtocolConfig::Da { f, p } => ProtocolSim::new_da(n, f, p).unwrap(),
        ProtocolConfig::Adaptive { .. } => unreachable!("adaptive needs an oracle"),
    };
    let mut sim_trajectory = Vec::new();
    for request in schedule.iter() {
        sim.execute_request_on(object, request).unwrap();
        sim_trajectory.push(sim.valid_holders_of(object));
    }
    let sim_report = sim.report();

    let net_trajectory = cluster.execute_schedule(object, &schedule).unwrap();
    let net_report = cluster.report().unwrap();
    cluster.shutdown().unwrap();

    assert_eq!(
        net_trajectory, sim_trajectory,
        "holder trajectories diverged"
    );
    assert_eq!(net_report.cost, sim_report.cost, "cost totals diverged");
    assert_eq!(net_report.final_holders, sim_report.final_holders);
    assert_eq!(net_report.reads_completed, sim_report.reads_completed);
    assert_eq!(net_report.errors, 0, "cluster recorded protocol errors");
}

const MIXED: &str = "w2 r4 w3 r1 r2 w0 r3 r4 r0 w1 r2 r3";

#[test]
fn sa_uds_matches_sim() {
    assert_parity(
        5,
        ProtocolConfig::Sa { q: pair(0, 1) },
        TransportKind::Uds,
        MIXED,
    );
}

#[test]
fn sa_tcp_matches_sim() {
    assert_parity(
        5,
        ProtocolConfig::Sa { q: pair(1, 3) },
        TransportKind::Tcp,
        MIXED,
    );
}

#[test]
fn da_uds_matches_sim() {
    assert_parity(
        5,
        ProtocolConfig::Da {
            f: ProcSet::EMPTY.with(ProcessorId::new(0)),
            p: ProcessorId::new(1),
        },
        TransportKind::Uds,
        MIXED,
    );
}

#[test]
fn da_tcp_matches_sim() {
    assert_parity(
        3,
        ProtocolConfig::Da {
            f: ProcSet::EMPTY.with(ProcessorId::new(2)),
            p: ProcessorId::new(0),
        },
        TransportKind::Tcp,
        "w0 r1 r2 w2 r0 r1 w1 r2",
    );
}

/// `Cluster::new` returns only once every node's mesh is up, so a cluster
/// shut down at once stops cleanly — before the fix a node could still be
/// dialling a peer that had already shut down ("connection refused").
#[test]
fn immediate_shutdown_after_boot_is_clean() {
    for _ in 0..20 {
        let Some((cluster, _)) = boot(8, ProtocolConfig::Sa { q: pair(0, 1) }, TransportKind::Uds)
        else {
            return;
        };
        cluster.shutdown().unwrap();
    }
}

/// Invalid requests are rejected by the planner before touching the
/// wire, with the same error strings as the sim driver.
#[test]
fn planner_rejects_bad_requests_before_sending() {
    let Some((mut cluster, object)) =
        boot(3, ProtocolConfig::Sa { q: pair(0, 1) }, TransportKind::Uds)
    else {
        return;
    };
    let err = cluster
        .execute_request(object, doma_core::Request::read(ProcessorId::new(9)))
        .unwrap_err();
    assert!(matches!(err, DomaError::InvalidConfig(_)));
    let err = cluster
        .execute_request(ObjectId(99), doma_core::Request::read(ProcessorId::new(0)))
        .unwrap_err();
    assert!(err.to_string().contains("catalog"));
    // The cluster is still healthy after rejected requests.
    cluster
        .execute_request(object, doma_core::Request::write(ProcessorId::new(2)))
        .unwrap();
    cluster.shutdown().unwrap();
}

/// A request completes only when the driver's double poll finds every
/// frame it caused handled. So after *each* `execute_request` the
/// cluster's tallies must already equal the sim twin's after the same
/// number of requests: a barrier that let go early would let the `Report`
/// round overtake a frame still in flight and show as a cost, holder or
/// read-count mismatch. SA, DA and an adaptive entrant whose two-replica
/// scheme makes every write fan out, over both transports.
#[test]
fn every_request_is_complete_when_the_cluster_is_quiet() {
    let n = 5;
    let schedule: Schedule = "w3 r2 r4 w0 r3 r3 w4 r1 r2 w2 r0 r4 w1 r3 r2 r4 w3 r0"
        .parse()
        .unwrap();
    let object = ProtocolSim::object();
    for kind in [TransportKind::Uds, TransportKind::Tcp] {
        for entrant in [Entrant::Sa, Entrant::Da, Entrant::Convergent] {
            let config = entrant.config();
            let oracles = config
                .oracle(n, Tunables::CANONICAL)
                .unwrap()
                .map(|o| (object, o))
                .into_iter()
                .collect();
            let mut cluster =
                match Cluster::new(n, BTreeMap::from([(object, config)]), oracles, kind, None) {
                    Ok(c) => c,
                    Err(DomaError::Net(msg)) => {
                        eprintln!("skipping per-request twin test: sockets unavailable ({msg})");
                        return;
                    }
                    Err(other) => panic!("cluster boot failed: {other}"),
                };
            let mut sim = entrant.sim(n).unwrap();
            for (step, request) in schedule.iter().enumerate() {
                sim.execute_request_on(object, request).unwrap();
                cluster.execute_request(object, request).unwrap();
                let (want, got) = (sim.report(), cluster.report().unwrap());
                let at = format!("{entrant} over {kind:?}, after request {step} ({request:?})");
                assert_eq!(got.cost, want.cost, "{at}: cost");
                assert_eq!(got.final_holders, want.final_holders, "{at}: holders");
                assert_eq!(got.reads_completed, want.reads_completed, "{at}: reads");
                assert_eq!(got.errors, 0, "{at}: protocol errors");
            }
            cluster.shutdown().unwrap();
        }
    }
}
