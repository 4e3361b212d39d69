//! The optimal offline DOM algorithm (OPT) — the competitive-analysis
//! yardstick of §4.1.
//!
//! OPT produces, for a given schedule, initial scheme and cost model, the
//! minimum-cost *legal*, *t-available* allocation schedule. It is computed
//! exactly by a dynamic program whose state is the current allocation
//! scheme (a subset of the `n` processors):
//!
//! * a **read** by `i` either executes locally (`i ∈ Y`), executes remotely
//!   without saving (scheme unchanged), or executes remotely as a
//!   saving-read (scheme gains `i`) — in a homogeneous system a singleton
//!   execution set from the scheme is always optimal for reads, and the
//!   serving member's identity is cost-irrelevant;
//! * a **write** by `i` may choose *any* execution set `X` with `|X| ≥ t`
//!   as the new scheme, paying `cc` per invalidated copy, `cd` per copy
//!   shipped, and `cio` per copy stored.
//!
//! A naive write transition considers every (old scheme, new scheme) pair —
//! O(4ⁿ). We instead compute, for every new scheme `V`,
//! `min over Y of [cost(Y) + cc·|Y \ V|]` with two O(2ⁿ·n) relaxation
//! sweeps (a superset sweep that "drops" copies at `cc` each, then a
//! subset-minimum sweep), giving O(2ⁿ·n) per request. The naive version is
//! kept in [`crate::NaiveDpOptimal`] and cross-checked by tests.

use doma_core::{
    AllocationSchedule, CostModel, Decision, DomAlgorithm, DomaError, OfflineDom, ProcSet, Result,
    Schedule,
};

/// Practical cap on the number of processors for the exact DP (2ⁿ states
/// per request are materialized for backtracking).
pub const MAX_OPT_PROCESSORS: usize = 20;

/// The exact offline-optimal DOM algorithm for a fixed system size `n`,
/// availability threshold `t`, initial scheme and cost model.
///
/// ```
/// use doma_algorithms::OfflineOptimal;
/// use doma_core::{run_offline, CostModel, ProcSet, Schedule};
///
/// let model = CostModel::stationary(0.25, 0.5).unwrap();
/// let opt = OfflineOptimal::new(4, 2, ProcSet::from_iter([0, 1]), model).unwrap();
/// let schedule: Schedule = "r2 r2 r2 w0 r2".parse().unwrap();
/// let out = run_offline(&opt, &schedule).unwrap();
/// // OPT converts the first r2 into a saving-read so the next two are free.
/// assert!(out.alloc.steps[0].saving);
/// ```
#[derive(Debug, Clone)]
pub struct OfflineOptimal {
    n: usize,
    t: usize,
    initial: ProcSet,
    model: CostModel,
}

impl OfflineOptimal {
    /// Creates OPT for an `n`-processor system with threshold `t` and
    /// initial scheme `initial` (`t ≤ |initial|`, `t ≥ 1`, `n ≤ 20`).
    pub fn new(n: usize, t: usize, initial: ProcSet, model: CostModel) -> Result<Self> {
        if n == 0 || n > MAX_OPT_PROCESSORS {
            return Err(DomaError::InvalidConfig(format!(
                "OPT supports 1..={MAX_OPT_PROCESSORS} processors, got {n}"
            )));
        }
        if t == 0 || t > n {
            return Err(DomaError::InvalidConfig(format!(
                "OPT requires 1 <= t <= n, got t={t}, n={n}"
            )));
        }
        if !initial.is_subset(ProcSet::universe(n)) {
            return Err(DomaError::InvalidConfig(format!(
                "initial scheme {initial} not within universe of {n}"
            )));
        }
        if initial.len() < t {
            return Err(DomaError::InvalidConfig(format!(
                "initial scheme {initial} smaller than t={t}"
            )));
        }
        Ok(OfflineOptimal {
            n,
            t,
            initial,
            model,
        })
    }

    /// The cost model OPT optimizes under.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The system size `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Computes only the optimal cost (no allocation schedule
    /// reconstruction, so no per-request rows are kept) — the ratio
    /// denominator every worst-case search pays once per candidate.
    pub fn optimal_cost(&self, schedule: &Schedule) -> Result<f64> {
        let last = self.forward(schedule, None)?;
        Ok(last.iter().copied().fold(f64::INFINITY, f64::min))
    }

    /// Runs the DP over `schedule` and returns the last row's costs; with
    /// `rows`, also records every row for [`Self::backtrack`].
    fn forward(&self, schedule: &Schedule, mut rows: Option<&mut Vec<DpRow>>) -> Result<Vec<f64>> {
        if schedule.min_processors() > self.n {
            return Err(DomaError::InvalidConfig(format!(
                "schedule references processor {} but n={}",
                schedule.min_processors() - 1,
                self.n
            )));
        }
        let size = 1usize << self.n;
        let cc = self.model.cc();
        let cd = self.model.cd();
        let cio = self.model.cio();

        let mut cur = vec![f64::INFINITY; size];
        cur[self.initial.bits() as usize] = 0.0;

        // Scratch buffers reused across requests.
        let mut next = vec![f64::INFINITY; size];
        let mut prev = vec![u32::MAX; size];
        let mut relax = vec![f64::INFINITY; size];
        let mut relax_arg = vec![u32::MAX; size];

        for request in schedule.iter() {
            let i = request.issuer.index();
            let ibit = 1usize << i;
            next.fill(f64::INFINITY);
            prev.fill(u32::MAX);

            if request.is_read() {
                for (y, &c) in cur.iter().enumerate() {
                    if !c.is_finite() {
                        continue;
                    }
                    if y & ibit != 0 {
                        // Local read.
                        relax_min(&mut next, &mut prev, y, c + cio, y as u32);
                    } else {
                        // Remote read without saving…
                        relax_min(&mut next, &mut prev, y, c + cc + cio + cd, y as u32);
                        // …or a saving-read that adds i to the scheme.
                        relax_min(
                            &mut next,
                            &mut prev,
                            y | ibit,
                            c + cc + 2.0 * cio + cd,
                            y as u32,
                        );
                    }
                }
            } else {
                // Write: step 1 — superset sweep. After this,
                // relax[w] = min over Y ⊇ w of cur[Y] + cc·|Y \ w|.
                relax.copy_from_slice(&cur);
                for (w, a) in relax_arg.iter_mut().enumerate() {
                    *a = if cur[w].is_finite() {
                        w as u32
                    } else {
                        u32::MAX
                    };
                }
                for j in 0..self.n {
                    let jbit = 1usize << j;
                    for w in 0..size {
                        if w & jbit == 0 {
                            let via = relax[w | jbit] + cc;
                            if via < relax[w] {
                                relax[w] = via;
                                relax_arg[w] = relax_arg[w | jbit];
                            }
                        }
                    }
                }
                // Step 2 — subset-minimum sweep. After this,
                // relax[v] = min over W ⊆ v of (step-1 value), i.e.
                // min over Y of cur[Y] + cc·|Y \ v|.
                for j in 0..self.n {
                    let jbit = 1usize << j;
                    for v in 0..size {
                        if v & jbit != 0 && relax[v ^ jbit] < relax[v] {
                            relax[v] = relax[v ^ jbit];
                            relax_arg[v] = relax_arg[v ^ jbit];
                        }
                    }
                }
                // Step 3 — score every candidate new scheme X, |X| ≥ t.
                for x in 0..size {
                    let xn = (x as u64).count_ones() as usize;
                    if xn < self.t {
                        continue;
                    }
                    // Invalidations never target the writer itself: the set
                    // whose survivors avoid the cc charge is X ∪ {i}.
                    let v = x | ibit;
                    let base = if x & ibit != 0 {
                        cd * (xn as f64 - 1.0) + cio * xn as f64
                    } else {
                        cd * xn as f64 + cio * xn as f64
                    };
                    let cand = relax[v] + base;
                    if cand < next[x] {
                        next[x] = cand;
                        prev[x] = relax_arg[v];
                    }
                }
            }

            if let Some(rows) = rows.as_deref_mut() {
                rows.push(DpRow {
                    cost: next.clone(),
                    prev: prev.clone(),
                });
            }
            std::mem::swap(&mut cur, &mut next);
        }

        Ok(cur)
    }

    /// Reconstructs the optimal allocation schedule from the DP rows.
    fn backtrack(&self, schedule: &Schedule, rows: &[DpRow]) -> AllocationSchedule {
        let mut alloc = AllocationSchedule::new(self.initial);
        if schedule.is_empty() {
            return alloc;
        }
        let Some(last) = rows.last() else {
            return alloc;
        };
        // At least one final state is reachable (the forward pass
        // succeeded); an empty filter would only mean an internal DP bug,
        // in which case the validating caller rejects the empty schedule.
        let Some((mut state, _)) = last
            .cost
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_finite())
            .min_by(|a, b| a.1.total_cmp(b.1))
        else {
            return alloc;
        };

        // Walk backwards collecting (request, decision) pairs.
        let mut decisions: Vec<Decision> = Vec::with_capacity(schedule.len());
        for (k, &request) in schedule.requests().iter().enumerate().rev() {
            let row = &rows[k];
            let y = row.prev[state] as usize;
            debug_assert_ne!(row.prev[state], u32::MAX, "backpointer must exist");
            let i = request.issuer;
            let ibit = 1usize << i.index();
            let decision = if request.is_read() {
                if state == y {
                    if y & ibit != 0 {
                        Decision::exec(ProcSet::singleton(i))
                    } else {
                        // Reachable DP states are t-available, so non-empty.
                        let server = ProcSet::from_bits(y as u64).any_member().unwrap_or(i);
                        Decision::exec(ProcSet::singleton(server))
                    }
                } else {
                    // Saving-read: state == y | ibit.
                    debug_assert_eq!(state, y | ibit);
                    let server = ProcSet::from_bits(y as u64).any_member().unwrap_or(i);
                    Decision::saving(ProcSet::singleton(server))
                }
            } else {
                // Write: the new state *is* the execution set.
                Decision::exec(ProcSet::from_bits(state as u64))
            };
            decisions.push(decision);
            state = y;
        }
        debug_assert_eq!(state, self.initial.bits() as usize);
        decisions.reverse();
        for (request, decision) in schedule.iter().zip(decisions) {
            alloc.push(request, decision);
        }
        alloc
    }
}

#[inline]
fn relax_min(next: &mut [f64], prev: &mut [u32], state: usize, cand: f64, from: u32) {
    if cand < next[state] {
        next[state] = cand;
        prev[state] = from;
    }
}

struct DpRow {
    cost: Vec<f64>,
    prev: Vec<u32>,
}

impl DomAlgorithm for OfflineOptimal {
    fn name(&self) -> &str {
        "OPT"
    }

    fn t(&self) -> usize {
        self.t
    }

    fn initial_scheme(&self) -> ProcSet {
        self.initial
    }
}

impl OfflineDom for OfflineOptimal {
    fn allocate(&self, schedule: &Schedule) -> Result<AllocationSchedule> {
        let mut rows = Vec::with_capacity(schedule.len());
        self.forward(schedule, Some(&mut rows))?;
        Ok(self.backtrack(schedule, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::{cost_of_schedule, run_offline, ProcessorId};

    fn ps(v: &[usize]) -> ProcSet {
        v.iter().copied().collect()
    }

    fn sc(cc: f64, cd: f64) -> CostModel {
        CostModel::stationary(cc, cd).unwrap()
    }

    #[test]
    fn constructor_validation() {
        let m = sc(0.1, 0.2);
        assert!(OfflineOptimal::new(0, 1, ProcSet::EMPTY, m).is_err());
        assert!(OfflineOptimal::new(30, 2, ps(&[0, 1]), m).is_err());
        assert!(OfflineOptimal::new(4, 0, ps(&[0, 1]), m).is_err());
        assert!(OfflineOptimal::new(4, 5, ps(&[0, 1]), m).is_err());
        assert!(OfflineOptimal::new(4, 3, ps(&[0, 1]), m).is_err()); // |I| < t
        assert!(OfflineOptimal::new(3, 2, ps(&[0, 5]), m).is_err()); // outside universe
        assert!(OfflineOptimal::new(4, 2, ps(&[0, 1]), m).is_ok());
    }

    #[test]
    fn rejects_schedule_outside_universe() {
        let opt = OfflineOptimal::new(3, 2, ps(&[0, 1]), sc(0.1, 0.2)).unwrap();
        let schedule: Schedule = "r5".parse().unwrap();
        assert!(opt.allocate(&schedule).is_err());
    }

    #[test]
    fn empty_schedule_costs_zero() {
        let opt = OfflineOptimal::new(3, 2, ps(&[0, 1]), sc(0.1, 0.2)).unwrap();
        let schedule = Schedule::new();
        assert_eq!(opt.optimal_cost(&schedule).unwrap(), 0.0);
        let out = run_offline(&opt, &schedule).unwrap();
        assert!(out.alloc.is_empty());
    }

    #[test]
    fn all_local_reads_cost_io_each() {
        let opt = OfflineOptimal::new(3, 2, ps(&[0, 1]), sc(0.5, 0.5)).unwrap();
        let schedule: Schedule = "r0 r1 r0".parse().unwrap();
        assert!((opt.optimal_cost(&schedule).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn saving_read_amortizes_repeated_remote_reads() {
        let model = sc(0.25, 0.5);
        let opt = OfflineOptimal::new(4, 2, ps(&[0, 1]), model).unwrap();
        let schedule: Schedule = "r2 r2 r2 r2".parse().unwrap();
        let out = run_offline(&opt, &schedule).unwrap();
        // Save on the first read: (cc + 2 + cd) then 3 local reads.
        let expect = (0.25 + 2.0 + 0.5) + 3.0;
        assert!((out.costed.total_cost(&model) - expect).abs() < 1e-9);
        assert!(out.alloc.steps[0].saving);
        assert!(out.alloc.steps[1..].iter().all(|s| !s.saving));
    }

    #[test]
    fn single_remote_read_is_not_saved_when_saving_is_dearer() {
        let model = sc(0.25, 0.5);
        let opt = OfflineOptimal::new(4, 2, ps(&[0, 1]), model).unwrap();
        let schedule: Schedule = "r2".parse().unwrap();
        let out = run_offline(&opt, &schedule).unwrap();
        assert!(!out.alloc.steps[0].saving);
        assert!((out.costed.total_cost(&model) - (0.25 + 1.0 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn write_chooses_minimal_scheme_of_size_t() {
        let model = sc(0.1, 0.4);
        let opt = OfflineOptimal::new(4, 2, ps(&[0, 1]), model).unwrap();
        let schedule: Schedule = "w2".parse().unwrap();
        let out = run_offline(&opt, &schedule).unwrap();
        let exec = out.alloc.steps[0].exec;
        assert_eq!(exec.len(), 2, "no reason to store more than t copies");
        assert!(
            exec.contains(ProcessorId::new(2)),
            "cheapest X contains the writer"
        );
        // Writer in X: cost = |Y\X|·cc + 1·cd + 2·cio; Y\X is {0,1} minus
        // whichever member X retains. Best: keep one of {0,1}: 1 invalidation.
        assert!((out.costed.total_cost(&model) - (0.1 + 0.4 + 2.0)).abs() < 1e-9);
    }

    #[test]
    fn opt_is_lower_bound_for_sa_and_da() {
        use crate::{DynamicAllocation, StaticAllocation};
        use doma_core::run_online;
        let model = sc(0.3, 0.9);
        let n = 5;
        let init = ps(&[0, 1]);
        let opt = OfflineOptimal::new(n, 2, init, model).unwrap();
        let schedules = [
            "r2 w3 r4 r4 w0 r1 r2 r2 w2 r3",
            "w0 w1 w2 w3 w4",
            "r4 r4 r4 r4 w4 r0 r1",
        ];
        for s in schedules {
            let schedule: Schedule = s.parse().unwrap();
            let opt_cost = opt.optimal_cost(&schedule).unwrap();

            let mut sa = StaticAllocation::new(init).unwrap();
            let sa_cost = run_online(&mut sa, &schedule)
                .unwrap()
                .costed
                .total_cost(&model);
            let mut da = DynamicAllocation::new(ps(&[0]), ProcessorId::new(1)).unwrap();
            let da_cost = run_online(&mut da, &schedule)
                .unwrap()
                .costed
                .total_cost(&model);
            assert!(opt_cost <= sa_cost + 1e-9, "OPT > SA on {s}");
            assert!(opt_cost <= da_cost + 1e-9, "OPT > DA on {s}");
        }
    }

    #[test]
    fn backtracked_schedule_is_valid_and_matches_dp_cost() {
        let model = sc(0.2, 0.7);
        let opt = OfflineOptimal::new(5, 2, ps(&[0, 1]), model).unwrap();
        let schedule: Schedule = "r3 w4 r3 r2 w1 r4 r4 w3 r0".parse().unwrap();
        let dp_cost = opt.optimal_cost(&schedule).unwrap();
        let alloc = opt.allocate(&schedule).unwrap();
        let costed = cost_of_schedule(&alloc, 2).expect("OPT output must validate");
        assert!(
            (costed.total.eval(&model) - dp_cost).abs() < 1e-9,
            "reconstructed cost {} != DP cost {}",
            costed.total.eval(&model),
            dp_cost
        );
        assert_eq!(alloc.corresponding_schedule(), schedule);
    }

    #[test]
    fn mobile_model_free_local_reads() {
        let model = CostModel::mobile(0.2, 1.0).unwrap();
        let opt = OfflineOptimal::new(4, 2, ps(&[0, 1]), model).unwrap();
        // In MC, saving a read costs nothing extra, so OPT saves the first
        // remote read and all subsequent r2s are free.
        let schedule: Schedule = "r2 r2 r2 r2 r2".parse().unwrap();
        let c = opt.optimal_cost(&schedule).unwrap();
        assert!((c - (0.2 + 1.0)).abs() < 1e-9);
    }
}
