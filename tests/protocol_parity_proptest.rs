//! Property test: the simulated wire protocols and the analytic cost
//! engine agree *exactly* on arbitrary schedules — the strongest statement
//! of the repository's central cross-validation invariant.
//!
//! Runs on the in-tree `doma-testkit` harness with a reduced case count:
//! each case drives a full protocol simulation.

use doma::algorithms::{DynamicAllocation, OfflineOptimal, StaticAllocation};
use doma::core::{run_online, CostModel, ProcSet, ProcessorId, Request, Schedule};
use doma::protocol::{Entrant, ProtocolSim, Tunables};
use doma_testkit::property::{self as prop, Gen};
use doma_testkit::TestRng;

const N: usize = 6;

/// One roster entrant in its canonical deployment: the plan-executing
/// protocol must match `run_online` on the roster's own algorithm
/// instance exactly.
fn check_entrant_parity(entrant: Entrant, schedule: &Schedule) {
    let name = entrant.as_str();
    let report = entrant.sim(N).unwrap().execute(schedule).unwrap();
    let mut algo = entrant.config().algorithm(N, Tunables::CANONICAL).unwrap();
    let analytic = run_online(&mut *algo, schedule).unwrap();
    assert_eq!(report.cost, analytic.costed.total, "{name} on {schedule}");
    assert_eq!(report.final_holders, analytic.costed.final_scheme, "{name}");
    assert_eq!(report.dropped_messages, 0, "{name}");
    assert_eq!(
        report.reads_completed as usize,
        schedule.read_count(),
        "{name}"
    );
}

/// Requests over `N` issuers; shrinks writes to reads and issuers toward 0.
struct RequestGen;

impl Gen for RequestGen {
    type Value = Request;

    fn generate(&self, rng: &mut TestRng) -> Request {
        let p = prop::range(0usize..N).generate(rng);
        if prop::bools().generate(rng) {
            Request::read(p)
        } else {
            Request::write(p)
        }
    }

    fn shrink(&self, v: &Request) -> Vec<Request> {
        let mut out = Vec::new();
        if v.op == doma::core::Op::Write {
            out.push(Request::read(v.issuer));
        }
        for issuer in prop::range(0usize..N).shrink(&v.issuer.index()) {
            out.push(Request {
                op: v.op,
                issuer: ProcessorId::new(issuer),
            });
        }
        out
    }
}

fn arb_schedule() -> impl Gen<Value = Schedule> {
    prop::iso(
        prop::vec_in(RequestGen, 0..60),
        Schedule::from_requests,
        |s: &Schedule| s.iter().collect(),
    )
}

doma_testkit::property! {
    #[cases(64)]
    /// SA: protocol tallies == analytic tallies, replica set == scheme.
    fn sa_parity(schedule in arb_schedule()) {
        let q = ProcSet::from_iter([0, 1]);
        let mut sim = ProtocolSim::new_sa(N, q).unwrap();
        let report = sim.execute(&schedule).unwrap();
        let mut sa = StaticAllocation::new(q).unwrap();
        let analytic = run_online(&mut sa, &schedule).unwrap();
        assert_eq!(report.cost, analytic.costed.total, "on {}", schedule);
        assert_eq!(report.final_holders, analytic.costed.final_scheme);
        assert_eq!(report.dropped_messages, 0);
        assert_eq!(report.reads_completed as usize, schedule.read_count());
    }

    #[cases(64)]
    /// DA: same, with join-lists and floater tracking in play.
    fn da_parity(schedule in arb_schedule()) {
        let f = ProcSet::from_iter([0]);
        let p = ProcessorId::new(1);
        let mut sim = ProtocolSim::new_da(N, f, p).unwrap();
        let report = sim.execute(&schedule).unwrap();
        let mut da = DynamicAllocation::new(f, p).unwrap();
        let analytic = run_online(&mut da, &schedule).unwrap();
        assert_eq!(report.cost, analytic.costed.total, "on {}", schedule);
        assert_eq!(report.final_holders, analytic.costed.final_scheme);
        assert_eq!(report.reads_completed as usize, schedule.read_count());
    }

    #[cases(64)]
    /// DA with a wider core (t = 3): the invalidation bookkeeping is the
    /// subtle part, so cover a second configuration.
    fn da_parity_wider_core(schedule in arb_schedule()) {
        let f = ProcSet::from_iter([2, 4]);
        let p = ProcessorId::new(0);
        let mut sim = ProtocolSim::new_da(N, f, p).unwrap();
        let report = sim.execute(&schedule).unwrap();
        let mut da = DynamicAllocation::new(f, p).unwrap();
        let analytic = run_online(&mut da, &schedule).unwrap();
        assert_eq!(report.cost, analytic.costed.total, "on {}", schedule);
        assert_eq!(report.final_holders, analytic.costed.final_scheme);
    }

    #[cases(16)]
    /// The promoted baselines run through the plan-oracle driver match
    /// `run_online` exactly — the tournament-promotion analogue of
    /// `sa_parity`/`da_parity`.
    fn promoted_baseline_parity(schedule in arb_schedule()) {
        check_entrant_parity(Entrant::Convergent, &schedule);
        check_entrant_parity(Entrant::WriteInvalidate, &schedule);
    }

    #[cases(16)]
    /// The three tournament contenders match `run_online` exactly too.
    fn contender_parity(schedule in arb_schedule()) {
        check_entrant_parity(Entrant::CostOblivious, &schedule);
        check_entrant_parity(Entrant::MobileMirror, &schedule);
        check_entrant_parity(Entrant::Clustered, &schedule);
    }

    #[cases(16)]
    /// The observability registry decomposes the same tallies: summing
    /// the per-(algo, node, op) cost counters reproduces the report's
    /// CostVector exactly, for every first-class allocator. Chained with
    /// the parity properties above, the registry therefore agrees with
    /// the analytic cost engine too.
    fn obs_registry_parity(schedule in arb_schedule()) {
        for entrant in Entrant::ALL {
            let algo = entrant.as_str();
            let mut sim = entrant.sim(N).unwrap();
            let obs = sim.attach_obs(64);
            let report = sim.execute(&schedule).unwrap();
            sim.obs_flush();
            let snap = obs.metrics().snapshot();
            assert_eq!(
                snap.sum_counters("protocol", "cost.control"),
                report.cost.control,
                "{algo} control on {}", schedule
            );
            assert_eq!(
                snap.sum_counters("protocol", "cost.data"),
                report.cost.data,
                "{algo} data on {}", schedule
            );
            assert_eq!(
                snap.sum_counters("protocol", "cost.io"),
                report.cost.io,
                "{algo} io on {}", schedule
            );
        }
    }

    #[cases(12)]
    /// Differential floor: no online allocator may beat the exact offline
    /// optimum built with its own threshold and initial scheme, under
    /// either environment's pricing.
    fn no_algorithm_beats_opt(schedule in arb_schedule()) {
        let models = [
            CostModel::stationary(0.25, 1.0).unwrap(),
            CostModel::mobile(1.0, 4.0).unwrap(),
        ];
        for entrant in Entrant::ALL {
            let mut algo = entrant.config().algorithm(N, Tunables::CANONICAL).unwrap();
            let name = entrant.as_str();
            let outcome = run_online(&mut *algo, &schedule).unwrap();
            for model in &models {
                let opt = OfflineOptimal::new(N, algo.t(), algo.initial_scheme(), *model).unwrap();
                let opt_cost = opt.optimal_cost(&schedule).unwrap();
                let algo_cost = outcome.costed.total_cost(model);
                assert!(
                    algo_cost + 1e-9 >= opt_cost,
                    "{name} beat OPT under {:?} on {}: {algo_cost} < {opt_cost}",
                    model.environment(),
                    schedule
                );
            }
        }
    }
}
