//! Independent, slower implementations of the offline optimum, used to
//! cross-validate [`crate::OfflineOptimal`]'s optimized dynamic program.
//!
//! * [`NaiveDpOptimal`] — the same scheme-state DP but with the textbook
//!   O(4ⁿ) write transition (every old-scheme × new-scheme pair).
//! * [`BruteForceOptimal`] — exhaustive recursion over *every* legal
//!   allocation schedule, including dominated choices (multi-member read
//!   execution sets, gratuitous saving-reads, oversized write sets).
//!   Exponential in everything; only usable for tiny inputs, which is
//!   exactly its job.

use doma_core::{
    cost_of_schedule, AllocationSchedule, CostModel, Decision, DomAlgorithm, DomaError, OfflineDom,
    ProcSet, Request, Result, Schedule,
};

/// O(4ⁿ)-per-write reference DP. Produces the same costs as
/// [`crate::OfflineOptimal`]; kept as an oracle for tests.
#[derive(Debug, Clone)]
pub struct NaiveDpOptimal {
    n: usize,
    t: usize,
    initial: ProcSet,
    model: CostModel,
}

impl NaiveDpOptimal {
    /// Creates the naive reference OPT (`n ≤ 14` — it is O(4ⁿ) per write).
    pub fn new(n: usize, t: usize, initial: ProcSet, model: CostModel) -> Result<Self> {
        if n == 0 || n > 14 {
            return Err(DomaError::InvalidConfig(format!(
                "NaiveDpOptimal supports 1..=14 processors, got {n}"
            )));
        }
        if t == 0 || t > n || initial.len() < t || !initial.is_subset(ProcSet::universe(n)) {
            return Err(DomaError::InvalidConfig(
                "invalid t / initial scheme".to_string(),
            ));
        }
        Ok(NaiveDpOptimal {
            n,
            t,
            initial,
            model,
        })
    }

    /// The minimum cost of serving `schedule`.
    pub fn optimal_cost(&self, schedule: &Schedule) -> Result<f64> {
        if schedule.min_processors() > self.n {
            return Err(DomaError::InvalidConfig(
                "schedule references processors outside the universe".to_string(),
            ));
        }
        let size = 1usize << self.n;
        let cc = self.model.cc();
        let cd = self.model.cd();
        let cio = self.model.cio();
        let mut cur = vec![f64::INFINITY; size];
        cur[self.initial.bits() as usize] = 0.0;
        for request in schedule.iter() {
            let ibit = 1usize << request.issuer.index();
            let mut next = vec![f64::INFINITY; size];
            for (y, &c) in cur.iter().enumerate() {
                if !c.is_finite() {
                    continue;
                }
                if request.is_read() {
                    if y & ibit != 0 {
                        next[y] = next[y].min(c + cio);
                    } else {
                        next[y] = next[y].min(c + cc + cio + cd);
                        next[y | ibit] = next[y | ibit].min(c + cc + 2.0 * cio + cd);
                    }
                } else {
                    #[allow(clippy::needless_range_loop)] // x is both mask and index
                    for x in 0..size {
                        let xn = (x as u64).count_ones() as usize;
                        if xn < self.t {
                            continue;
                        }
                        let cost = if x & ibit != 0 {
                            let inval = (y & !x).count_ones() as f64;
                            c + inval * cc + (xn as f64 - 1.0) * cd + xn as f64 * cio
                        } else {
                            let inval = (y & !x & !ibit).count_ones() as f64;
                            c + inval * cc + xn as f64 * (cd + cio)
                        };
                        next[x] = next[x].min(cost);
                    }
                }
            }
            cur = next;
        }
        Ok(cur.into_iter().fold(f64::INFINITY, f64::min))
    }
}

/// Exhaustive enumeration of every legal allocation schedule. Ground truth
/// for tiny inputs (`n ≤ 4`, a handful of requests).
#[derive(Debug, Clone)]
pub struct BruteForceOptimal {
    n: usize,
    t: usize,
    initial: ProcSet,
    model: CostModel,
}

impl BruteForceOptimal {
    /// Creates the brute-force OPT (`n ≤ 5` enforced; the search tree is
    /// exponential in both `n` and the schedule length).
    pub fn new(n: usize, t: usize, initial: ProcSet, model: CostModel) -> Result<Self> {
        if n == 0 || n > 5 {
            return Err(DomaError::InvalidConfig(format!(
                "BruteForceOptimal supports 1..=5 processors, got {n}"
            )));
        }
        if t == 0 || t > n || initial.len() < t || !initial.is_subset(ProcSet::universe(n)) {
            return Err(DomaError::InvalidConfig(
                "invalid t / initial scheme".to_string(),
            ));
        }
        Ok(BruteForceOptimal {
            n,
            t,
            initial,
            model,
        })
    }

    fn recurse(
        &self,
        requests: &[Request],
        scheme: ProcSet,
        decisions: &mut Vec<Decision>,
        best: &mut (f64, Vec<Decision>),
        cost_so_far: f64,
    ) {
        if cost_so_far >= best.0 {
            return; // branch-and-bound: costs are non-negative
        }
        let Some(&request) = requests.first() else {
            *best = (cost_so_far, decisions.clone());
            return;
        };
        let rest = &requests[1..];
        let universe = ProcSet::universe(self.n);
        if request.is_read() {
            for exec in universe.subsets() {
                if exec.is_empty() || !exec.intersects(scheme) {
                    continue;
                }
                for saving in [false, true] {
                    let decision = if saving {
                        Decision::saving(exec)
                    } else {
                        Decision::exec(exec)
                    };
                    let step = doma_core::AllocatedRequest::new(request, decision);
                    let c = doma_core::request_cost(&step, scheme).eval(&self.model);
                    let next = doma_core::scheme_after(scheme, &step);
                    decisions.push(decision);
                    self.recurse(rest, next, decisions, best, cost_so_far + c);
                    decisions.pop();
                }
            }
        } else {
            for exec in universe.subsets() {
                if exec.len() < self.t {
                    continue;
                }
                let decision = Decision::exec(exec);
                let step = doma_core::AllocatedRequest::new(request, decision);
                let c = doma_core::request_cost(&step, scheme).eval(&self.model);
                decisions.push(decision);
                self.recurse(rest, exec, decisions, best, cost_so_far + c);
                decisions.pop();
            }
        }
    }
}

impl DomAlgorithm for BruteForceOptimal {
    fn name(&self) -> &str {
        "BruteOPT"
    }
    fn t(&self) -> usize {
        self.t
    }
    fn initial_scheme(&self) -> ProcSet {
        self.initial
    }
}

impl OfflineDom for BruteForceOptimal {
    fn allocate(&self, schedule: &Schedule) -> Result<AllocationSchedule> {
        if schedule.min_processors() > self.n {
            return Err(DomaError::InvalidConfig(
                "schedule references processors outside the universe".to_string(),
            ));
        }
        let mut best = (f64::INFINITY, Vec::new());
        let mut decisions = Vec::new();
        self.recurse(
            schedule.requests(),
            self.initial,
            &mut decisions,
            &mut best,
            0.0,
        );
        if schedule.is_empty() {
            return Ok(AllocationSchedule::new(self.initial));
        }
        if best.0.is_infinite() {
            return Err(DomaError::InvalidConfig(
                "no legal allocation schedule exists".to_string(),
            ));
        }
        let mut alloc = AllocationSchedule::new(self.initial);
        for (request, decision) in schedule.iter().zip(best.1) {
            alloc.push(request, decision);
        }
        // Sanity: the enumeration only produced legal, t-available schedules.
        debug_assert!(cost_of_schedule(&alloc, self.t).is_ok());
        Ok(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OfflineOptimal;
    use doma_core::run_offline;

    fn ps(v: &[usize]) -> ProcSet {
        v.iter().copied().collect()
    }

    #[test]
    fn naive_rejects_bad_configs() {
        let m = CostModel::stationary(0.1, 0.2).unwrap();
        assert!(NaiveDpOptimal::new(20, 2, ps(&[0, 1]), m).is_err());
        assert!(NaiveDpOptimal::new(4, 9, ps(&[0, 1]), m).is_err());
        assert!(NaiveDpOptimal::new(4, 2, ps(&[0]), m).is_err());
    }

    #[test]
    fn brute_rejects_bad_configs() {
        let m = CostModel::stationary(0.1, 0.2).unwrap();
        assert!(BruteForceOptimal::new(6, 2, ps(&[0, 1]), m).is_err());
        assert!(BruteForceOptimal::new(3, 0, ps(&[0, 1]), m).is_err());
    }

    /// The three OPT implementations must agree exactly on small inputs.
    #[test]
    fn three_way_agreement_on_small_schedules() {
        let models = [
            CostModel::stationary(0.0, 0.0).unwrap(),
            CostModel::stationary(0.3, 0.7).unwrap(),
            CostModel::stationary(1.0, 2.0).unwrap(),
            CostModel::mobile(0.4, 1.1).unwrap(),
        ];
        let schedules = [
            "r2 w1 r2",
            "w0 r1 r2 w2",
            "r2 r2 r2",
            "w2 w0 w1",
            "r0 w2 r1 w0",
        ];
        for model in models {
            let fast = OfflineOptimal::new(3, 2, ps(&[0, 1]), model).unwrap();
            let naive = NaiveDpOptimal::new(3, 2, ps(&[0, 1]), model).unwrap();
            let brute = BruteForceOptimal::new(3, 2, ps(&[0, 1]), model).unwrap();
            for s in schedules {
                let schedule: Schedule = s.parse().unwrap();
                let a = fast.optimal_cost(&schedule).unwrap();
                let b = naive.optimal_cost(&schedule).unwrap();
                let out = run_offline(&brute, &schedule).unwrap();
                let c = out.costed.total_cost(&model);
                assert!(
                    (a - b).abs() < 1e-9,
                    "fast {a} != naive {b} on {s} ({model:?})"
                );
                assert!(
                    (a - c).abs() < 1e-9,
                    "fast {a} != brute {c} on {s} ({model:?})"
                );
            }
        }
    }

    #[test]
    fn naive_empty_schedule() {
        let m = CostModel::stationary(0.1, 0.2).unwrap();
        let naive = NaiveDpOptimal::new(3, 2, ps(&[0, 1]), m).unwrap();
        assert_eq!(naive.optimal_cost(&Schedule::new()).unwrap(), 0.0);
    }

    #[test]
    fn brute_force_finds_saving_read_plan() {
        let model = CostModel::stationary(0.25, 0.5).unwrap();
        let brute = BruteForceOptimal::new(3, 2, ps(&[0, 1]), model).unwrap();
        let schedule: Schedule = "r2 r2 r2".parse().unwrap();
        let out = run_offline(&brute, &schedule).unwrap();
        assert!(out.alloc.steps[0].saving);
        let expect = (0.25 + 2.0 + 0.5) + 2.0;
        assert!((out.costed.total_cost(&model) - expect).abs() < 1e-9);
    }
}
