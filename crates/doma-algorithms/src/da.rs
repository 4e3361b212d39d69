//! Dynamic Allocation (DA) — §4.2.2.
//!
//! DA fixes a core set `F` of `t-1` processors that *always* hold the
//! latest version, plus one floating member (initially a designated
//! processor `p ∉ F`):
//!
//! * a read by a data processor is local;
//! * a read by a non-data processor `q` is served by a member `u` of `F`
//!   and converted to a **saving-read** — `q` stores the object and joins
//!   the allocation scheme, and `u` records `q` in its *join-list*;
//! * a write by `j ∈ F ∪ {p}` has execution set `F ∪ {p}`;
//! * a write by `j ∉ F ∪ {p}` has execution set `F ∪ {j}` (the floater is
//!   superseded by the writer);
//! * every write invalidates all copies outside the new scheme, realized by
//!   the members of `F` sending invalidations to their join-lists.

use doma_core::{
    Decision, DomAlgorithm, DomaError, OnlineDom, ProcSet, ProcessorId, Request, Result,
};

/// The dynamic allocation algorithm with core `F` and initial floater `p`.
///
/// ```
/// use doma_algorithms::DynamicAllocation;
/// use doma_core::{run_online, ProcSet, ProcessorId, Schedule};
///
/// // Mobile configuration of §2: t = 2, F = {base station 0}, floater 1.
/// let mut da = DynamicAllocation::new(
///     ProcSet::from_iter([0]),
///     ProcessorId::new(1),
/// ).unwrap();
/// let schedule: Schedule = "r2 r2 w3 r2".parse().unwrap();
/// let out = run_online(&mut da, &schedule).unwrap();
/// // After w3, the scheme is {0, 3}; r2 re-joins by saving-read.
/// assert_eq!(out.costed.final_scheme, ProcSet::from_iter([0, 2, 3]));
/// ```
#[derive(Debug, Clone)]
pub struct DynamicAllocation {
    f: ProcSet,
    p: ProcessorId,
    /// Current allocation scheme (data processors).
    scheme: ProcSet,
    /// Join-list of each member of `F`: the non-core data processors it is
    /// responsible for invalidating. Indexed by the member's processor id.
    join_lists: Vec<(ProcessorId, ProcSet)>,
    /// Round-robin cursor over `F` for serving non-member reads, so
    /// join-list bookkeeping spreads over the core (cost-neutral in the
    /// homogeneous model).
    serve_cursor: usize,
}

impl DynamicAllocation {
    /// Creates DA with core `f` (`|f| = t - 1 ≥ 1`) and initial floating
    /// member `p ∉ f`. The initial allocation scheme is `f ∪ {p}`.
    pub fn new(f: ProcSet, p: ProcessorId) -> Result<Self> {
        if f.is_empty() {
            return Err(DomaError::InvalidConfig(
                "DA requires |F| >= 1 (t >= 2)".to_string(),
            ));
        }
        if f.contains(p) {
            return Err(DomaError::InvalidConfig(format!(
                "DA requires p not in F, got p={p} in F={f}"
            )));
        }
        let join_lists = f.iter().map(|m| (m, ProcSet::EMPTY)).collect();
        Ok(DynamicAllocation {
            f,
            p,
            scheme: f.with(p),
            join_lists,
            serve_cursor: 0,
        })
    }

    /// The current allocation scheme (the data processors).
    pub fn current_scheme(&self) -> ProcSet {
        self.scheme
    }

    /// Union of all join-lists: who the core would send invalidations to
    /// on the next write.
    pub fn joined_processors(&self) -> ProcSet {
        self.join_lists
            .iter()
            .fold(ProcSet::EMPTY, |acc, (_, l)| acc.union(*l))
    }

    fn clear_join_lists(&mut self) {
        for (_, list) in &mut self.join_lists {
            *list = ProcSet::EMPTY;
        }
    }
}

impl DomAlgorithm for DynamicAllocation {
    fn name(&self) -> &str {
        "DA"
    }

    fn t(&self) -> usize {
        self.f.len() + 1
    }

    fn initial_scheme(&self) -> ProcSet {
        self.f.with(self.p)
    }
}

impl OnlineDom for DynamicAllocation {
    fn decide(&mut self, request: Request) -> Decision {
        let i = request.issuer;
        if request.is_read() {
            if self.scheme.contains(i) {
                // Data processor: local read.
                Decision::exec(ProcSet::singleton(i))
            } else {
                // Non-data processor: saving-read served by a core member,
                // which records the reader in its join-list.
                let members: Vec<ProcessorId> = self.f.iter().collect();
                let u = members[self.serve_cursor % members.len()];
                self.serve_cursor = self.serve_cursor.wrapping_add(1);
                if let Some((_, list)) = self.join_lists.iter_mut().find(|(m, _)| *m == u) {
                    list.insert(i);
                }
                self.scheme.insert(i);
                Decision::saving(ProcSet::singleton(u))
            }
        } else {
            // Write: the new scheme is F ∪ {p} for core/floater writers,
            // F ∪ {j} otherwise. Everything else is invalidated (accounted
            // by the cost model; realized by join-list invalidations in the
            // protocol crate).
            let core_or_floater = self.f.with(self.p);
            let exec = if core_or_floater.contains(i) {
                core_or_floater
            } else {
                self.f.with(i)
            };
            self.scheme = exec;
            // Join-lists: everyone outside the new scheme was invalidated.
            // An outsider writer becomes the new floating data processor
            // and must itself be tracked for the *next* invalidation round.
            self.clear_join_lists();
            if !core_or_floater.contains(i) {
                if let Some((_, list)) = self.join_lists.first_mut() {
                    list.insert(i);
                }
            }
            Decision::exec(exec)
        }
    }

    fn reset(&mut self) {
        self.scheme = self.f.with(self.p);
        self.serve_cursor = 0;
        for (_, list) in &mut self.join_lists {
            *list = ProcSet::EMPTY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::{run_online, CostVector, Schedule};

    fn ps(v: &[usize]) -> ProcSet {
        v.iter().copied().collect()
    }

    fn da(f: &[usize], p: usize) -> DynamicAllocation {
        DynamicAllocation::new(f.iter().copied().collect(), ProcessorId::new(p)).unwrap()
    }

    #[test]
    fn constructor_validation() {
        assert!(DynamicAllocation::new(ProcSet::EMPTY, ProcessorId::new(1)).is_err());
        assert!(DynamicAllocation::new(ps(&[1, 2]), ProcessorId::new(1)).is_err());
        let d = da(&[1, 2], 3);
        assert_eq!(d.t(), 3);
        assert_eq!(d.initial_scheme(), ps(&[1, 2, 3]));
    }

    #[test]
    fn member_read_is_local_nonmember_read_saves() {
        let mut d = da(&[0], 1);
        let schedule: Schedule = "r1 r2 r2".parse().unwrap();
        let out = run_online(&mut d, &schedule).unwrap();
        let steps = &out.alloc.steps;
        assert!(!steps[0].saving); // r1: member, local
        assert_eq!(steps[0].exec, ps(&[1]));
        assert!(steps[1].saving); // r2: joins
        assert_eq!(steps[1].exec, ps(&[0])); // served by F
        assert!(!steps[2].saving); // r2 again: now a data processor
        assert_eq!(steps[2].exec, ps(&[2]));
        assert_eq!(out.costed.final_scheme, ps(&[0, 1, 2]));
    }

    #[test]
    fn write_by_core_or_floater_targets_core_plus_floater() {
        let mut d = da(&[0], 1);
        let schedule: Schedule = "r2 w0 r2".parse().unwrap();
        let out = run_online(&mut d, &schedule).unwrap();
        // After r2 the scheme is {0,1,2}; w0 executes at {0,1} and
        // invalidates 2; the next r2 must re-join.
        assert_eq!(out.alloc.steps[1].exec, ps(&[0, 1]));
        assert_eq!(out.alloc.scheme_at(2), ps(&[0, 1]));
        assert!(out.alloc.steps[2].saving);
    }

    #[test]
    fn write_by_outsider_supersedes_floater() {
        let mut d = da(&[0], 1);
        let schedule: Schedule = "w5 r1".parse().unwrap();
        let out = run_online(&mut d, &schedule).unwrap();
        assert_eq!(out.alloc.steps[0].exec, ps(&[0, 5]));
        // The floater 1 was invalidated: its read must re-join.
        assert!(out.alloc.steps[1].saving);
        assert_eq!(out.costed.final_scheme, ps(&[0, 1, 5]));
    }

    #[test]
    fn join_lists_track_saving_reads_and_writes() {
        let mut d = da(&[0, 1], 2);
        d.decide(Request::read(5usize));
        d.decide(Request::read(6usize));
        assert_eq!(d.joined_processors(), ps(&[5, 6]));
        // Round-robin spread over F.
        assert!(d.join_lists.iter().all(|(_, l)| l.len() == 1));
        // A write from core clears all join-lists.
        d.decide(Request::write(0usize));
        assert!(d.joined_processors().is_empty());
        // A write from an outsider keeps (only) the writer joined.
        d.decide(Request::read(5usize));
        d.decide(Request::write(7usize));
        assert_eq!(d.joined_processors(), ps(&[7]));
    }

    #[test]
    fn costs_match_paper_da_description() {
        // t=2, F={0}, p=1. Schedule: r2 (join), w2 (writer in scheme but
        // outside F∪{p} → exec {0,2}), w0 (core write → exec {0,1}).
        let mut d = da(&[0], 1);
        let schedule: Schedule = "r2 w2 w0".parse().unwrap();
        let out = run_online(&mut d, &schedule).unwrap();
        let c = &out.costed.per_request;
        // r2 saving: cc + io + cd + io.
        assert_eq!(c[0].cost, CostVector::new(1, 1, 2));
        // w2 with Y={0,1,2}, X={0,2}, i∈X: invalidate {1}: 1cc, 1cd, 2io.
        assert_eq!(c[1].cost, CostVector::new(1, 1, 2));
        // w0 with Y={0,2}, X={0,1}, i∈X: invalidate {2}: 1cc, 1cd, 2io.
        assert_eq!(c[2].cost, CostVector::new(1, 1, 2));
        assert_eq!(out.costed.final_scheme, ps(&[0, 1]));
    }

    #[test]
    fn core_always_holds_latest_version() {
        // Invariant: F ⊆ scheme at every point, for any schedule.
        let mut d = da(&[2, 4], 0);
        let schedule: Schedule = "r1 w3 r5 w4 r3 w1 r2 w5 r4".parse().unwrap();
        let out = run_online(&mut d, &schedule).unwrap();
        for k in 0..=schedule.len() {
            assert!(
                ps(&[2, 4]).is_subset(out.alloc.scheme_at(k)),
                "F must be in the scheme at step {k}"
            );
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut d = da(&[0], 1);
        d.decide(Request::read(5usize));
        d.decide(Request::write(6usize));
        d.reset();
        assert_eq!(d.current_scheme(), ps(&[0, 1]));
        assert!(d.joined_processors().is_empty());
    }

    #[test]
    fn section_13_example_dynamic_beats_static() {
        // §1.3: schedule r1 r1 r2 w2 r2 r2 r2; dynamic allocation that
        // migrates to processor 2 beats keeping the scheme fixed at {1}.
        // The paper's single-copy story needs t=1; our t≥2 variants show
        // the same effect: DA(F={1},p=0) vs SA(Q={0,1}).
        let schedule: Schedule = "r1 r1 r2 w2 r2 r2 r2".parse().unwrap();
        let model = doma_core::CostModel::stationary(0.5, 1.0).unwrap();

        let mut sa = crate::StaticAllocation::new(ps(&[0, 1])).unwrap();
        let sa_cost = run_online(&mut sa, &schedule)
            .unwrap()
            .costed
            .total_cost(&model);

        let mut da = da(&[1], 0);
        let da_cost = run_online(&mut da, &schedule)
            .unwrap()
            .costed
            .total_cost(&model);

        assert!(
            da_cost < sa_cost,
            "dynamic ({da_cost}) must beat static ({sa_cost}) on the §1.3 workload"
        );
    }
}
