//! The cost engine: per-request cost tallies (§3.2/§3.3) and scheme
//! evolution, plus whole-schedule costing.
//!
//! The two cost tables of the paper (stationary §3.2 and mobile §3.3) are a
//! single formula parameterized by `cio`; we therefore account resources as
//! exact integer tallies and let [`crate::CostModel`] price them.
//!
//! With `Y` the allocation scheme at the request and `X` its execution set:
//!
//! | request | control msgs | data msgs | I/Os |
//! |---|---|---|---|
//! | read `rᵢ`, `i ∈ X` | `\|X\|-1` | `\|X\|-1` | `\|X\|` |
//! | read `rᵢ`, `i ∉ X` | `\|X\|`   | `\|X\|`   | `\|X\|` |
//! | saving-read | as the read | as the read | read + 1 (store at `i`) |
//! | write `wᵢ`, `i ∈ X` | `\|Y \ X\|` (invalidate) | `\|X\|-1` | `\|X\|` |
//! | write `wᵢ`, `i ∉ X` | `\|Y \ X \ {i}\|` | `\|X\|` | `\|X\|` |
//!
//! In the mobile model the I/O column is priced at zero, which reproduces
//! the §3.3 table exactly (including "the cost of a saving-read does not
//! differ from that of a non-saving read").

use crate::{
    AllocatedRequest, AllocationSchedule, CostModel, CostVector, DomaError, Op, ProcSet, Result,
};

/// The exact resource tally of a single allocated request executed against
/// allocation scheme `scheme` (the paper's `COST(q)`), per the table above.
///
/// This function is purely arithmetic: it does not check legality (use
/// [`crate::validate_allocation`] or [`cost_of_schedule`] for that).
pub fn request_cost(step: &AllocatedRequest, scheme: ProcSet) -> CostVector {
    let x = step.exec;
    let i = step.request.issuer;
    let xn = x.len() as u64;
    match step.request.op {
        Op::Read => {
            let mut v = if x.contains(i) {
                // (|X|-1)·cc + |X|·cio + (|X|-1)·cd
                CostVector::new(xn - 1, xn - 1, xn)
            } else {
                // |X|·(cc + cio + cd)
                CostVector::new(xn, xn, xn)
            };
            if step.saving {
                // Extra output of the object into i's local database.
                v.io += 1;
            }
            v
        }
        Op::Write => {
            if x.contains(i) {
                // |Y\X|·cc + (|X|-1)·cd + |X|·cio
                let invalidated = scheme.difference(x).len() as u64;
                CostVector::new(invalidated, xn - 1, xn)
            } else {
                // |Y\X\{i}|·cc + |X|·(cd + cio)
                let invalidated = scheme.difference(x).without(i).len() as u64;
                CostVector::new(invalidated, xn, xn)
            }
        }
    }
}

/// The allocation scheme after executing `step` against scheme `scheme`:
///
/// * a write's execution set becomes the new scheme (everything else was
///   invalidated);
/// * a saving-read adds the reader to the scheme;
/// * a plain read leaves the scheme unchanged.
#[inline]
pub fn scheme_after(scheme: ProcSet, step: &AllocatedRequest) -> ProcSet {
    match step.request.op {
        Op::Write => step.exec,
        Op::Read => {
            if step.saving {
                scheme.with(step.request.issuer)
            } else {
                scheme
            }
        }
    }
}

/// The cost of one request within a costed schedule, with the scheme it was
/// executed against (for reporting and debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerRequestCost {
    /// The allocated request.
    pub step: AllocatedRequest,
    /// The allocation scheme at the request.
    pub scheme: ProcSet,
    /// Its exact resource tally.
    pub cost: CostVector,
}

/// A fully costed allocation schedule: the total tally, per-request tallies
/// and the final allocation scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct CostedSchedule {
    /// Sum of all per-request tallies — the paper's `COST(I, τ)` before
    /// pricing.
    pub total: CostVector,
    /// Tally and scheme for each request, in order.
    pub per_request: Vec<PerRequestCost>,
    /// The allocation scheme after the last request.
    pub final_scheme: ProcSet,
}

impl CostedSchedule {
    /// Prices the total tally under `model`.
    pub fn total_cost(&self, model: &CostModel) -> f64 {
        self.total.eval(model)
    }
}

/// Walks an allocation schedule once, checking legality and `t`-availability
/// while accumulating exact costs (the paper's `COST(I, τ) = Σ COST(oᵢ)`).
///
/// Checks performed (violations return [`DomaError`]):
/// * every execution set is non-empty;
/// * every read's execution set intersects the scheme at the read
///   (*legality*, §3.1);
/// * the scheme at every request has at least `t` members, as does the
///   final scheme (*t-availability*);
/// * the initial scheme is non-empty and has at least `t` members.
pub fn cost_of_schedule(alloc: &AllocationSchedule, t: usize) -> Result<CostedSchedule> {
    if alloc.initial.len() < t {
        return Err(DomaError::AvailabilityViolation {
            position: 0,
            scheme_size: alloc.initial.len(),
            t,
        });
    }
    let mut scheme = alloc.initial;
    let mut total = CostVector::ZERO;
    let mut per_request = Vec::with_capacity(alloc.steps.len());
    for (k, step) in alloc.steps.iter().enumerate() {
        if step.exec.is_empty() {
            return Err(DomaError::EmptyExecutionSet { position: k });
        }
        if scheme.len() < t {
            return Err(DomaError::AvailabilityViolation {
                position: k,
                scheme_size: scheme.len(),
                t,
            });
        }
        if step.request.is_read() && !step.exec.intersects(scheme) {
            return Err(DomaError::IllegalRead {
                position: k,
                exec: step.exec,
                scheme,
            });
        }
        let cost = request_cost(step, scheme);
        total += cost;
        per_request.push(PerRequestCost {
            step: *step,
            scheme,
            cost,
        });
        scheme = scheme_after(scheme, step);
    }
    if scheme.len() < t {
        return Err(DomaError::AvailabilityViolation {
            position: alloc.steps.len(),
            scheme_size: scheme.len(),
            t,
        });
    }
    Ok(CostedSchedule {
        total,
        per_request,
        final_scheme: scheme,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decision, Request};

    fn ps(v: &[usize]) -> ProcSet {
        v.iter().copied().collect()
    }

    fn step(req: Request, exec: ProcSet, saving: bool) -> AllocatedRequest {
        AllocatedRequest::new(
            req,
            if saving {
                Decision::saving(exec)
            } else {
                Decision::exec(exec)
            },
        )
    }

    #[test]
    fn read_local_singleton_costs_one_io() {
        // §1.2: "If s is in the allocation scheme, the cost of servicing the
        // read request is cio."
        let s = step(Request::read(2usize), ps(&[2]), false);
        assert_eq!(request_cost(&s, ps(&[1, 2])), CostVector::new(0, 0, 1));
    }

    #[test]
    fn read_remote_singleton_costs_cc_io_cd() {
        // §1.2: "If s is not in the allocation scheme, the cost is
        // cc + cio + cd."
        let s = step(Request::read(5usize), ps(&[1]), false);
        assert_eq!(request_cost(&s, ps(&[1, 2])), CostVector::new(1, 1, 1));
    }

    #[test]
    fn saving_read_adds_one_io() {
        let plain = step(Request::read(5usize), ps(&[1]), false);
        let saving = step(Request::read(5usize), ps(&[1]), true);
        let y = ps(&[1, 2]);
        let d = request_cost(&saving, y).saturating_sub(&request_cost(&plain, y));
        assert_eq!(d, CostVector::new(0, 0, 1));
    }

    #[test]
    fn read_multi_member_execution_set() {
        // i ∈ X, |X| = 3: (|X|-1)cc + |X|cio + (|X|-1)cd — e.g. quorum reads.
        let s = step(Request::read(1usize), ps(&[1, 2, 3]), false);
        assert_eq!(request_cost(&s, ps(&[2, 3])), CostVector::new(2, 2, 3));
        // i ∉ X, |X| = 2: |X|(cc + cio + cd).
        let s = step(Request::read(9usize), ps(&[1, 2]), false);
        assert_eq!(request_cost(&s, ps(&[1, 2])), CostVector::new(2, 2, 2));
    }

    #[test]
    fn write_member_invalidates_scheme_minus_exec() {
        // Y = {1,2,3,4}, X = {2,3}, i = 2 ∈ X:
        // |Y\X| = 2 invalidations, |X|-1 = 1 data msg, |X| = 2 I/Os.
        let s = step(Request::write(2usize), ps(&[2, 3]), false);
        assert_eq!(
            request_cost(&s, ps(&[1, 2, 3, 4])),
            CostVector::new(2, 1, 2)
        );
    }

    #[test]
    fn write_nonmember_excludes_self_from_invalidation() {
        // Y = {1,2,5}, X = {2,3}, i = 5 ∉ X:
        // Y\X\{i} = {1} → 1 invalidation; |X| data msgs; |X| I/Os.
        let s = step(Request::write(5usize), ps(&[2, 3]), false);
        assert_eq!(request_cost(&s, ps(&[1, 2, 5])), CostVector::new(1, 2, 2));
    }

    #[test]
    fn write_nonmember_not_in_scheme_either() {
        // i ∉ X and i ∉ Y: the \{i} subtraction is a no-op.
        let s = step(Request::write(7usize), ps(&[2, 3]), false);
        assert_eq!(request_cost(&s, ps(&[1, 2])), CostVector::new(1, 2, 2));
    }

    #[test]
    fn scheme_evolution() {
        let y = ps(&[1, 2]);
        let w = step(Request::write(3usize), ps(&[3, 4]), false);
        assert_eq!(scheme_after(y, &w), ps(&[3, 4]));
        let r = step(Request::read(5usize), ps(&[1]), false);
        assert_eq!(scheme_after(y, &r), y);
        let sr = step(Request::read(5usize), ps(&[1]), true);
        assert_eq!(scheme_after(y, &sr), ps(&[1, 2, 5]));
    }

    /// Full costing of the §3.1 example τ̄0 with initial scheme {3,4}, t=2.
    #[test]
    fn tau0_total_cost() {
        let mut a = AllocationSchedule::new(ps(&[3, 4]));
        a.push(Request::write(2usize), Decision::exec(ps(&[2, 3])));
        a.push(Request::read(4usize), Decision::exec(ps(&[1, 2])));
        a.push(Request::write(3usize), Decision::exec(ps(&[2, 3])));
        a.push(Request::read(1usize), Decision::saving(ps(&[1, 2])));
        a.push(Request::read(2usize), Decision::exec(ps(&[2])));
        // NOTE: r4{1,2} is *illegal at position 1* only if {1,2} ∩ {2,3} = ∅,
        // which it is not (2 is shared) — the paper calls τ̄0 legal.
        let costed = cost_of_schedule(&a, 2).expect("τ̄0 is legal and 2-available");

        // Hand-computed tallies:
        // w2{2,3} against {3,4}: i∈X, |Y\X|={4}→1cc, 1cd, 2io
        // r4{1,2} against {2,3}: i∉X → 2cc, 2cd, 2io
        // w3{2,3} against {2,3}: i∈X, |Y\X|=0 → 0cc, 1cd, 2io
        // r̲1{1,2} against {2,3}: i∈X → 1cc, 1cd, 2io, +1io saving = 3io
        // r2{2}  against {1,2,3}: i∈X singleton → 1io
        assert_eq!(costed.per_request[0].cost, CostVector::new(1, 1, 2));
        assert_eq!(costed.per_request[1].cost, CostVector::new(2, 2, 2));
        assert_eq!(costed.per_request[2].cost, CostVector::new(0, 1, 2));
        assert_eq!(costed.per_request[3].cost, CostVector::new(1, 1, 3));
        assert_eq!(costed.per_request[4].cost, CostVector::new(0, 0, 1));
        assert_eq!(costed.total, CostVector::new(4, 5, 10));
        assert_eq!(costed.final_scheme, ps(&[1, 2, 3]));

        let m = CostModel::stationary(0.5, 1.0).unwrap();
        assert!((costed.total_cost(&m) - (4.0 * 0.5 + 5.0 + 10.0)).abs() < 1e-12);
    }

    #[test]
    fn illegal_read_detected() {
        // §3.1: τ̄0 becomes illegal if the last request's execution set is
        // changed from {2} to {4} (4 is not in the scheme {1,2,3}).
        let mut a = AllocationSchedule::new(ps(&[3, 4]));
        a.push(Request::write(2usize), Decision::exec(ps(&[2, 3])));
        a.push(Request::read(4usize), Decision::exec(ps(&[1, 2])));
        a.push(Request::write(3usize), Decision::exec(ps(&[2, 3])));
        a.push(Request::read(1usize), Decision::saving(ps(&[1, 2])));
        a.push(Request::read(2usize), Decision::exec(ps(&[4])));
        let err = cost_of_schedule(&a, 2).unwrap_err();
        assert!(matches!(err, DomaError::IllegalRead { position: 4, .. }));
    }

    #[test]
    fn availability_violations_detected() {
        // Initial scheme too small.
        let a = AllocationSchedule::new(ps(&[3]));
        assert!(matches!(
            cost_of_schedule(&a, 2),
            Err(DomaError::AvailabilityViolation { position: 0, .. })
        ));
        // A write that shrinks the scheme below t.
        let mut a = AllocationSchedule::new(ps(&[1, 2]));
        a.push(Request::write(1usize), Decision::exec(ps(&[1])));
        a.push(Request::read(1usize), Decision::exec(ps(&[1])));
        assert!(matches!(
            cost_of_schedule(&a, 2),
            Err(DomaError::AvailabilityViolation { position: 1, .. })
        ));
        // A final write below t is also rejected.
        let mut a = AllocationSchedule::new(ps(&[1, 2]));
        a.push(Request::write(1usize), Decision::exec(ps(&[1])));
        assert!(matches!(
            cost_of_schedule(&a, 2),
            Err(DomaError::AvailabilityViolation { .. })
        ));
    }

    #[test]
    fn empty_execution_set_rejected() {
        let mut a = AllocationSchedule::new(ps(&[1, 2]));
        a.push(Request::read(1usize), Decision::exec(ProcSet::EMPTY));
        assert!(matches!(
            cost_of_schedule(&a, 2),
            Err(DomaError::EmptyExecutionSet { position: 0 })
        ));
    }

    #[test]
    fn empty_schedule_costs_zero() {
        let a = AllocationSchedule::new(ps(&[1, 2]));
        let c = cost_of_schedule(&a, 2).unwrap();
        assert!(c.total.is_zero());
        assert_eq!(c.final_scheme, ps(&[1, 2]));
    }
}
