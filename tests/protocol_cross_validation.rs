//! Integration: the simulated message-passing protocols must match the
//! analytic cost engine *exactly* — control message for control message,
//! I/O for I/O — across randomized workloads and configurations.

use doma::algorithms::{DynamicAllocation, StaticAllocation};
use doma::core::{run_online, ProcSet, ProcessorId, Schedule};
use doma::protocol::{Entrant, ProtocolSim};
use doma::workload::{
    AppendOnlyWorkload, ChaoticWorkload, HotspotWorkload, MobileWorkload, ScheduleGen,
    UniformWorkload, ZipfWorkload,
};

fn workloads(n: usize) -> Vec<Box<dyn ScheduleGen>> {
    vec![
        Box::new(UniformWorkload::new(n, 0.7).unwrap()),
        Box::new(UniformWorkload::new(n, 0.2).unwrap()),
        Box::new(ZipfWorkload::new(n, 1.2, 0.6).unwrap()),
        Box::new(HotspotWorkload::new(n, 15, 0.8).unwrap()),
        Box::new(ChaoticWorkload::new(n, 7).unwrap()),
        Box::new(AppendOnlyWorkload::new(n, 2, 2.5).unwrap()),
    ]
}

#[test]
fn sa_protocol_matches_analytic_on_random_workloads() {
    let n = 6;
    let q = ProcSet::from_iter([0, 1, 2]); // t = 3
    for gen in workloads(n) {
        for seed in 0..5 {
            let schedule = gen.generate(80, seed);
            let mut sim = ProtocolSim::new_sa(n, q).unwrap();
            let report = sim.execute(&schedule).unwrap();
            let mut sa = StaticAllocation::new(q).unwrap();
            let analytic = run_online(&mut sa, &schedule).unwrap();
            assert_eq!(
                report.cost,
                analytic.costed.total,
                "SA tally mismatch on {}/seed{seed}: schedule {schedule}",
                gen.name()
            );
            assert_eq!(report.final_holders, analytic.costed.final_scheme);
            assert_eq!(report.dropped_messages, 0);
        }
    }
}

#[test]
fn da_protocol_matches_analytic_on_random_workloads() {
    let n = 6;
    let f = ProcSet::from_iter([0, 3]);
    let p = ProcessorId::new(5);
    for gen in workloads(n) {
        for seed in 0..5 {
            let schedule = gen.generate(80, seed);
            let mut sim = ProtocolSim::new_da(n, f, p).unwrap();
            let report = sim.execute(&schedule).unwrap();
            let mut da = DynamicAllocation::new(f, p).unwrap();
            let analytic = run_online(&mut da, &schedule).unwrap();
            assert_eq!(
                report.cost,
                analytic.costed.total,
                "DA tally mismatch on {}/seed{seed}: schedule {schedule}",
                gen.name()
            );
            assert_eq!(report.final_holders, analytic.costed.final_scheme);
        }
    }
}

#[test]
fn da_protocol_matches_on_mobile_traces() {
    let workload = MobileWorkload::new(4, 3, 0.4, 0.6).unwrap();
    let n = workload.universe();
    for seed in 0..8 {
        let schedule = workload.generate(120, seed);
        let mut sim = Entrant::Da.sim(n).unwrap();
        let report = sim.execute(&schedule).unwrap();
        let mut da = DynamicAllocation::new(ProcSet::from_iter([0]), ProcessorId::new(1)).unwrap();
        let analytic = run_online(&mut da, &schedule).unwrap();
        assert_eq!(report.cost, analytic.costed.total, "seed {seed}");
        assert_eq!(report.final_holders, analytic.costed.final_scheme);
    }
}

#[test]
fn protocol_state_is_consistent_with_schedule_semantics() {
    // After every request, the valid-replica set equals the allocation
    // scheme the analytic engine predicts, step by step.
    let schedule: Schedule = "r4 w2 r3 r4 w0 r2 w5 r1 r1".parse().unwrap();
    let f = ProcSet::from_iter([0]);
    let p = ProcessorId::new(1);
    let mut sim = ProtocolSim::new_da(6, f, p).unwrap();
    let mut da = DynamicAllocation::new(f, p).unwrap();
    let analytic = run_online(&mut da, &schedule).unwrap();
    for (k, request) in schedule.iter().enumerate() {
        sim.execute_request(request).unwrap();
        let expected = analytic.alloc.scheme_at(k + 1);
        assert_eq!(
            sim.report().final_holders,
            expected,
            "replica set diverged after request {k} ({request})"
        );
    }
}

#[test]
fn read_latency_reflects_locality() {
    // A workload of only member reads is all-local (latency 0); a workload
    // of outsider first-reads pays request+data latency.
    let mut sim = ProtocolSim::new_sa(5, ProcSet::from_iter([0, 1])).unwrap();
    let local: Schedule = "r0 r1 r0 r1".parse().unwrap();
    let report = sim.execute(&local).unwrap();
    assert_eq!(report.mean_read_latency, 0.0);

    let mut sim = ProtocolSim::new_sa(5, ProcSet::from_iter([0, 1])).unwrap();
    let remote: Schedule = "r2 r3 r4".parse().unwrap();
    let report = sim.execute(&remote).unwrap();
    // Control latency (1) + data latency (3) with the default network.
    assert_eq!(report.mean_read_latency, 4.0);
}
