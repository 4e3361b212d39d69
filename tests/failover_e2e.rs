//! End-to-end failure scenarios: crash, quorum fallback, missing-writes
//! recovery, and durability of the redo-log substrate — the §2 sketch
//! exercised across `doma-protocol`, `doma-sim` and `doma-storage`.

use doma::core::{ProcSet, ProcessorId, Request};
use doma::protocol::failover::FailoverDriver;
use doma::protocol::ProtocolSim;
use doma::workload::{ScheduleGen, UniformWorkload};

fn da_cluster(n: usize) -> FailoverDriver {
    let sim = ProtocolSim::new_da(n, ProcSet::from_iter([0]), ProcessorId::new(1)).unwrap();
    FailoverDriver::new(sim, n)
}

#[test]
fn full_failure_cycle_preserves_latest_version() {
    let mut d = da_cluster(5);

    // Normal operation.
    d.execute_request(Request::write(2usize)).unwrap();
    d.execute_request(Request::read(4usize)).unwrap();

    // Core failure → quorum mode; service continues.
    d.crash(ProcessorId::new(0)).unwrap();
    d.execute_request(Request::write(3usize)).unwrap();
    d.execute_request(Request::read(2usize)).unwrap();
    let v_during = d.sim().latest_version();
    assert!(d.live_holders_of(v_during) >= 2);

    // Recovery: catch-up then normal mode; more traffic.
    d.recover(ProcessorId::new(0)).unwrap();
    assert!(d.sim().holders_of(v_during).contains(ProcessorId::new(0)));
    d.execute_request(Request::write(4usize)).unwrap();
    d.execute_request(Request::read(3usize)).unwrap();
    let v_final = d.sim().latest_version();
    // Normal DA: the writer, the core, and the saving-reader hold v_final.
    let holders = d.sim().holders_of(v_final);
    assert!(holders.contains(ProcessorId::new(0)), "{holders}");
    assert!(holders.contains(ProcessorId::new(4)), "{holders}");
    assert!(holders.contains(ProcessorId::new(3)), "{holders}");
}

#[test]
fn repeated_failures_of_different_nodes() {
    let mut d = da_cluster(5);
    let workload = UniformWorkload::new(5, 0.6).unwrap();
    let schedule = workload.generate(30, 3);
    for (k, request) in schedule.iter().enumerate() {
        // Periodically bounce a node (alternating core / non-core).
        if k == 10 {
            d.crash(ProcessorId::new(0)).unwrap();
        }
        if k == 15 {
            d.recover(ProcessorId::new(0)).unwrap();
        }
        if k == 20 {
            d.crash(ProcessorId::new(4)).unwrap();
        }
        if k == 25 {
            d.recover(ProcessorId::new(4)).unwrap();
        }
        // Skip requests issued by currently crashed processors (their
        // clients are down too).
        let issuer_down = ((10..15).contains(&k) && request.issuer.index() == 0)
            || ((20..25).contains(&k) && request.issuer.index() == 4);
        if !issuer_down {
            d.execute_request(request).unwrap();
        }
    }
    // After the dust settles the cluster is in normal mode and consistent:
    // the latest version is held by at least t = 2 processors.
    let v = d.sim().latest_version();
    assert!(d.live_holders_of(v) >= 2);
}

#[test]
fn store_recovery_is_exact_after_crash() {
    // Crash a node that had saved a replica; on recovery the redo log
    // reproduces its exact pre-crash store state (stale or valid).
    let mut d = da_cluster(4);
    d.execute_request(Request::read(3usize)).unwrap(); // 3 joins via saving-read
    d.execute_request(Request::write(2usize)).unwrap(); // 3 invalidated
    let sim = d.sim_mut();
    let before_version = sim
        .engine_ref()
        .actor(doma::sim::NodeId(3))
        .replica_version();
    sim.engine_mut().schedule_crash(doma::sim::NodeId(3), 0);
    sim.settle().unwrap();
    sim.engine_mut().schedule_recover(doma::sim::NodeId(3), 0);
    sim.settle().unwrap();
    let node = sim.engine_ref().actor(doma::sim::NodeId(3));
    assert_eq!(node.replica_version(), before_version);
    assert!(
        !node.holds_valid(),
        "invalidation must survive the crash (it was logged)"
    );
}

#[test]
fn crash_during_write_is_detected_at_quiescence() {
    // The core member dies one tick into a write's propagation — after
    // the WriteProp messages are sent but (data latency is 3 ticks)
    // before they are delivered. The failure detector reacts at the next
    // quiescence, like a timeout-based detector noticing stalled traffic.
    let mut d = da_cluster(5);
    d.execute_request(Request::write(2usize)).unwrap();
    let v_before = d.sim().latest_version();

    d.crash_in(ProcessorId::new(0), 1);
    d.execute_request(Request::write(3usize)).unwrap();
    let v_crash = d.sim().latest_version();
    assert!(v_crash > v_before);

    // Detection fired inside execute_request: the survivors are in quorum
    // mode, and the mode-entry push spread the latest committed version
    // to a write majority even though the core member never applied it.
    for i in 1..5 {
        assert!(
            d.sim()
                .engine_ref()
                .actor(doma::sim::NodeId(i))
                .in_quorum_mode(),
            "node {i} must have fallen back to quorum mode"
        );
    }
    assert!(
        d.live_holders_of(v_crash) >= 3,
        "majority must hold the mid-crash write"
    );

    // Quorum service continues; recovery resolves the missing writes.
    d.execute_request(Request::write(4usize)).unwrap();
    let v_during = d.sim().latest_version();
    d.recover(ProcessorId::new(0)).unwrap();
    assert!(
        d.sim().holders_of(v_during).contains(ProcessorId::new(0)),
        "catch-up must deliver the writes the core member missed"
    );
    for i in 0..5 {
        assert!(!d
            .sim()
            .engine_ref()
            .actor(doma::sim::NodeId(i))
            .in_quorum_mode());
    }
}

#[test]
fn floating_member_crash_engages_failover() {
    // The floating member p is part of the home scheme F ∪ {p}: core
    // writes snap the allocation back to it, so its crash endangers the
    // next write exactly like a core crash and must engage the fallback.
    let mut d = da_cluster(5);
    d.execute_request(Request::write(0usize)).unwrap(); // core write: scheme F ∪ {p}
    d.crash(ProcessorId::new(1)).unwrap(); // p down
    assert!(
        d.sim()
            .engine_ref()
            .actor(doma::sim::NodeId(0))
            .in_quorum_mode(),
        "a scheme-member crash must trigger quorum fallback"
    );

    // Writes keep committing to live majorities while p is down.
    d.execute_request(Request::write(0usize)).unwrap();
    d.execute_request(Request::write(3usize)).unwrap();
    let v = d.sim().latest_version();
    assert!(d.live_holders_of(v) >= 3);

    // Recovery: p catches up on the writes it missed, normal mode
    // resumes, and the home scheme is fully current again.
    d.recover(ProcessorId::new(1)).unwrap();
    assert!(
        d.sim().holders_of(v).contains(ProcessorId::new(1)),
        "the floater must be current after catch-up"
    );
    for i in 0..5 {
        assert!(!d
            .sim()
            .engine_ref()
            .actor(doma::sim::NodeId(i))
            .in_quorum_mode());
    }
    // Normal DA service: a core write reaches the whole home scheme.
    d.execute_request(Request::write(0usize)).unwrap();
    let v2 = d.sim().latest_version();
    assert!(d.sim().holders_of(v2).contains(ProcessorId::new(0)));
    assert!(d.sim().holders_of(v2).contains(ProcessorId::new(1)));
}

#[test]
fn quorum_mode_intersects_reads_and_writes() {
    // With the core down, do several writes from different processors and
    // read from yet another: the read must return the *latest* version
    // (read quorum ∩ write quorum ≠ ∅).
    let mut d = da_cluster(7);
    d.crash(ProcessorId::new(0)).unwrap();
    for w in [2usize, 3, 4, 5] {
        d.execute_request(Request::write(w)).unwrap();
    }
    let latest = d.sim().latest_version();
    d.execute_request(Request::read(6usize)).unwrap();
    // Reader 6 completed its read; in quorum mode it does not store the
    // result, so we check it *observed* it indirectly: the read completed
    // and the majority holds `latest`.
    assert_eq!(d.sim().report().reads_completed, 1);
    assert!(d.live_holders_of(latest) >= 4, "majority must hold latest");
}
