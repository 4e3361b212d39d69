//! Critical-path-equals-cost property test (ISSUE 9 tentpole proof
//! obligation): with request spans enabled, the per-request
//! `protocol.request_cost` deltas reconstructed by
//! [`doma_obs::trace::TraceModel`] sum to **exactly** the schedule's
//! analytic cost — `doma_core::cost_of_schedule` for SA and DA, and the
//! analytic engine's `run_online` of the same algorithm for each of the
//! five adaptive entrants. Execution is strictly one-request-at-a-time,
//! so the deltas telescope: any drift in the span bracketing, the cost
//! attribution or the analytic parity breaks the sum.
//!
//! Failures print a `DOMA_PROP_SEED=…` replay line via the testkit
//! harness.

use doma_algorithms::{DynamicAllocation, StaticAllocation};
use doma_core::{
    cost_of_schedule, run_online, AllocationSchedule, CostVector, OnlineDom, ProcSet, ProcessorId,
    Request, Schedule,
};
use doma_obs::trace::TraceModel;
use doma_protocol::{Entrant, ProtocolSim, Tunables};
use doma_testkit::property::{self as prop, Gen};
use doma_testkit::rng::Rng;
use doma_testkit::TestRng;

/// One sampled case: a cluster size, a scheme (SA's `Q`, or DA's `F`
/// plus the floater as the last member), and a schedule over the
/// cluster — the same shape the cost-parity property samples.
#[derive(Debug, Clone)]
struct Case {
    n: usize,
    scheme: Vec<usize>,
    schedule: Schedule,
}

struct CaseGen;

impl Gen for CaseGen {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let n = prop::range(3usize..8).generate(rng);
        let k = prop::range(2usize..n.min(4) + 1).generate(rng);
        let mut members: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut members);
        members.truncate(k);
        let len = prop::range(0usize..40).generate(rng);
        let requests: Vec<Request> = (0..len)
            .map(|_| {
                let p = prop::range(0usize..n).generate(rng);
                if prop::bools().generate(rng) {
                    Request::read(p)
                } else {
                    Request::write(p)
                }
            })
            .collect();
        Case {
            n,
            scheme: members,
            schedule: Schedule::from_requests(requests),
        }
    }

    fn shrink(&self, v: &Case) -> Vec<Case> {
        let requests: Vec<Request> = v.schedule.iter().collect();
        let mut out = Vec::new();
        if !requests.is_empty() {
            for shorter in [
                requests[..requests.len() / 2].to_vec(),
                requests[1..].to_vec(),
            ] {
                out.push(Case {
                    n: v.n,
                    scheme: v.scheme.clone(),
                    schedule: Schedule::from_requests(shorter),
                });
            }
        }
        out
    }
}

/// Runs `sim` traced and checks the reconstructed model against the
/// expected exact total. Returns the model for extra assertions.
fn traced_model(mut sim: ProtocolSim, schedule: &Schedule, expected: CostVector) -> TraceModel {
    let obs = sim.attach_obs(1 << 16); // ample: no truncation allowed here
    sim.attach_tracer_on(obs.events().clone());
    sim.enable_request_spans();
    let report = sim.execute(schedule).unwrap();
    assert_eq!(report.cost, expected, "sim/analytic parity on {schedule}");
    let model = TraceModel::from_obs(&obs);
    assert!(!model.truncated(), "capacity was ample");
    assert_eq!(
        model.requests.len(),
        schedule.len(),
        "one span window per request on {schedule}"
    );
    for req in &model.requests {
        assert!(req.complete, "every window closes: {req:?}");
        assert!(req.cost.is_some(), "every window carries a cost: {req:?}");
        // A request that cost messages must show them — and a critical
        // path through them; a free request must not invent any.
        let (c, d, _) = req.cost.unwrap();
        let delivered = req.messages.iter().filter(|m| m.delivered).count();
        if c + d > 0 {
            assert!(delivered > 0, "costed request with no messages: {req:?}");
            assert!(!req.critical_path().is_empty(), "{req:?}");
        }
        let path = req.critical_path();
        // The path is causally ordered and made of delivered edges.
        for pair in path.windows(2) {
            let (a, b) = (&req.messages[pair[0]], &req.messages[pair[1]]);
            assert!(a.delivered && b.delivered);
            assert_eq!(a.to, b.from, "hop mismatch in {req:?}");
            assert!(a.time <= b.time);
        }
    }
    assert_eq!(
        model.total_cost(),
        (expected.control, expected.data, expected.io),
        "per-request deltas must telescope to the analytic total on {schedule}"
    );
    model
}

/// Replays the algorithm's own decisions through the analytic cost
/// engine (the same oracle the cost-parity property uses).
fn analytic_total<A: OnlineDom>(algo: &mut A, schedule: &Schedule) -> doma_core::CostedSchedule {
    algo.reset();
    let mut alloc = AllocationSchedule::new(algo.initial_scheme());
    for request in schedule.iter() {
        let decision = algo.decide(request);
        alloc.push(request, decision);
    }
    cost_of_schedule(&alloc, algo.t()).expect("online DA/SA schedules are always legal")
}

fn check_adaptive(entrant: Entrant, schedule: &Schedule) {
    let name = entrant.as_str();
    let mut algo = entrant.config().algorithm(6, Tunables::CANONICAL).unwrap();
    let analytic = run_online(&mut *algo, schedule).unwrap();
    let model = traced_model(entrant.sim(6).unwrap(), schedule, analytic.costed.total);
    // Adaptive requests additionally carry the oracle's plan decision.
    for req in &model.requests {
        assert!(
            req.plan.as_deref().is_some_and(|p| p.contains("exec=")),
            "{name}: span window without a protocol.plan event: {req:?}"
        );
    }
}

doma_testkit::property! {
    #[cases(32)]
    /// SA over a random `Q`: span-window cost sums == cost_of_schedule.
    fn sa_critical_path_sums_equal_cost_of_schedule(case in CaseGen) {
        let q: ProcSet = case.scheme.iter().copied().collect();
        let sim = ProtocolSim::new_sa(case.n, q).unwrap();
        let costed =
            analytic_total(&mut StaticAllocation::new(q).unwrap(), &case.schedule);
        traced_model(sim, &case.schedule, costed.total);
    }

    #[cases(32)]
    /// DA over a random `F ∪ {p}`: span-window cost sums == cost_of_schedule.
    fn da_critical_path_sums_equal_cost_of_schedule(case in CaseGen) {
        let (last, f_members) = case.scheme.split_last().unwrap();
        let f: ProcSet = f_members.iter().copied().collect();
        let p = ProcessorId::new(*last);
        let sim = ProtocolSim::new_da(case.n, f, p).unwrap();
        let costed =
            analytic_total(&mut DynamicAllocation::new(f, p).unwrap(), &case.schedule);
        traced_model(sim, &case.schedule, costed.total);
    }

    #[cases(12)]
    /// All five adaptive entrants: span-window cost sums == run_online.
    fn adaptive_critical_path_sums_equal_run_online(case in CaseGen) {
        // Fixed n = 6 cluster (the tournament shape); only the schedule
        // varies. Reject issuers outside the cluster.
        let schedule = Schedule::from_requests(
            case.schedule
                .iter()
                .map(|r| {
                    let p = r.issuer.index() % 6;
                    if r.is_read() { Request::read(p) } else { Request::write(p) }
                })
                .collect::<Vec<_>>(),
        );
        for entrant in Entrant::ALL {
            if !matches!(entrant, Entrant::Sa | Entrant::Da) {
                check_adaptive(entrant, &schedule);
            }
        }
    }
}
