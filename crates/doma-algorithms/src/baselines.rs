//! Extension/baseline algorithms for the ablation experiments (E14).
//!
//! None of these are contributions of the paper; they realize the design
//! alternatives its §5 discusses, so the experiments can quantify what each of
//! DA's ingredients buys:
//!
//! * [`SlidingWindowConvergent`] — a *convergent* (frequency-driven)
//!   allocator in the spirit of Wolfson–Jajodia [27, 28]: it tracks recent
//!   per-processor read activity in a sliding window and steers the scheme
//!   toward the currently hottest readers. Good on regular patterns,
//!   unboundedly bad on chaotic ones (§5.1).
//! * [`WriteInvalidateCache`] — CDVM-style caching (§5.2): DA's
//!   saving-read + write-invalidation mechanics *without* the availability
//!   core `F` (t = 1). Quantifies the price of the t-availability
//!   constraint.
//! * [`DaNoSave`] — DA with saving-reads disabled: non-member reads stay
//!   remote forever. Quantifies what saving-reads buy.

use doma_core::{
    Decision, DomAlgorithm, DomaError, OnlineDom, ProcSet, ProcessorId, Request, Result,
};
use std::collections::VecDeque;

/// A convergent allocator: every `period` requests, re-targets the
/// allocation scheme at the `t` processors with the most reads in the last
/// `window` requests (ties broken by lower processor index). The scheme
/// only actually changes at writes (the only moments an online algorithm
/// may shrink it), via execution set `target ∪ {writer}`; reads by
/// processors in the target set are converted to saving-reads.
#[derive(Debug, Clone)]
pub struct SlidingWindowConvergent {
    n: usize,
    t: usize,
    initial: ProcSet,
    window: usize,
    period: usize,
    // --- mutable state ---
    scheme: ProcSet,
    target: ProcSet,
    history: VecDeque<Request>,
    since_retarget: usize,
}

impl SlidingWindowConvergent {
    /// Creates the allocator. `initial` must have at least `t ≥ 2` members;
    /// `window` and `period` must be positive.
    pub fn new(n: usize, t: usize, initial: ProcSet, window: usize, period: usize) -> Result<Self> {
        if t < 2 || initial.len() < t {
            return Err(DomaError::InvalidConfig(format!(
                "need t >= 2 and |initial| >= t (t={t}, initial={initial})"
            )));
        }
        if window == 0 || period == 0 {
            return Err(DomaError::InvalidConfig(
                "window and period must be positive".to_string(),
            ));
        }
        if !initial.is_subset(ProcSet::universe(n)) {
            return Err(DomaError::InvalidConfig(format!(
                "initial {initial} outside universe of {n}"
            )));
        }
        Ok(SlidingWindowConvergent {
            n,
            t,
            initial,
            window,
            period,
            scheme: initial,
            target: initial,
            history: VecDeque::new(),
            since_retarget: 0,
        })
    }

    /// The scheme the algorithm is currently steering toward.
    pub fn target(&self) -> ProcSet {
        self.target
    }

    fn observe(&mut self, request: Request) {
        self.history.push_back(request);
        while self.history.len() > self.window {
            self.history.pop_front();
        }
        self.since_retarget += 1;
        if self.since_retarget >= self.period {
            self.since_retarget = 0;
            self.retarget();
        }
    }

    fn retarget(&mut self) {
        let mut reads = vec![0u32; self.n];
        for r in &self.history {
            if r.is_read() {
                reads[r.issuer.index()] += 1;
            }
        }
        // Top-t processors by read count, lower index first on ties.
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by_key(|&p| (std::cmp::Reverse(reads[p]), p));
        self.target = order.iter().take(self.t).copied().collect();
    }
}

impl DomAlgorithm for SlidingWindowConvergent {
    fn name(&self) -> &str {
        "Convergent"
    }
    fn t(&self) -> usize {
        self.t
    }
    fn initial_scheme(&self) -> ProcSet {
        self.initial
    }
}

impl OnlineDom for SlidingWindowConvergent {
    fn decide(&mut self, request: Request) -> Decision {
        self.observe(request);
        let i = request.issuer;
        if request.is_read() {
            if self.scheme.contains(i) {
                Decision::exec(ProcSet::singleton(i))
            } else {
                // Non-empty by construction: writes keep |scheme| >= t.
                let server = self.scheme.any_member().unwrap_or(i);
                if self.target.contains(i) {
                    // A hot reader: pull the object in.
                    self.scheme.insert(i);
                    Decision::saving(ProcSet::singleton(server))
                } else {
                    Decision::exec(ProcSet::singleton(server))
                }
            }
        } else {
            // Write: land the new version on the target scheme (plus the
            // writer, so its own copy is fresh). |target| = t keeps the
            // availability constraint.
            let exec = self.target.with(i);
            self.scheme = exec;
            Decision::exec(exec)
        }
    }

    fn reset(&mut self) {
        self.scheme = self.initial;
        self.target = self.initial;
        self.history.clear();
        self.since_retarget = 0;
    }
}

/// CDVM-style write-invalidate caching: every reader caches (saving-read),
/// every write shrinks the scheme to the writer alone. No availability
/// core — `t() = 1` — so it is *not* admissible under the paper's `t ≥ 2`
/// constraint; it exists to price that constraint in the ablation experiment.
#[derive(Debug, Clone)]
pub struct WriteInvalidateCache {
    initial: ProcSet,
    scheme: ProcSet,
}

impl WriteInvalidateCache {
    /// Creates the cache protocol with a non-empty initial scheme.
    pub fn new(initial: ProcSet) -> Result<Self> {
        if initial.is_empty() {
            return Err(DomaError::InvalidConfig(
                "initial scheme must be non-empty".to_string(),
            ));
        }
        Ok(WriteInvalidateCache {
            initial,
            scheme: initial,
        })
    }
}

impl DomAlgorithm for WriteInvalidateCache {
    fn name(&self) -> &str {
        "WriteInvalidate"
    }
    fn t(&self) -> usize {
        1
    }
    fn initial_scheme(&self) -> ProcSet {
        self.initial
    }
}

impl OnlineDom for WriteInvalidateCache {
    fn decide(&mut self, request: Request) -> Decision {
        let i = request.issuer;
        if request.is_read() {
            if self.scheme.contains(i) {
                Decision::exec(ProcSet::singleton(i))
            } else {
                // Non-empty by construction: writes leave the writer behind.
                let server = self.scheme.any_member().unwrap_or(i);
                self.scheme.insert(i);
                Decision::saving(ProcSet::singleton(server))
            }
        } else {
            let exec = ProcSet::singleton(i);
            self.scheme = exec;
            Decision::exec(exec)
        }
    }

    fn reset(&mut self) {
        self.scheme = self.initial;
    }
}

/// DA with saving-reads disabled: non-member reads are served remotely and
/// the reader never joins the scheme. Writes behave exactly as in DA.
#[derive(Debug, Clone)]
pub struct DaNoSave {
    f: ProcSet,
    p: ProcessorId,
    scheme: ProcSet,
}

impl DaNoSave {
    /// Creates the ablated DA; same preconditions as
    /// [`crate::DynamicAllocation::new`].
    pub fn new(f: ProcSet, p: ProcessorId) -> Result<Self> {
        if f.is_empty() || f.contains(p) {
            return Err(DomaError::InvalidConfig(
                "need non-empty F with p outside F".to_string(),
            ));
        }
        Ok(DaNoSave {
            f,
            p,
            scheme: f.with(p),
        })
    }
}

impl DomAlgorithm for DaNoSave {
    fn name(&self) -> &str {
        "DA-nosave"
    }
    fn t(&self) -> usize {
        self.f.len() + 1
    }
    fn initial_scheme(&self) -> ProcSet {
        self.f.with(self.p)
    }
}

impl OnlineDom for DaNoSave {
    fn decide(&mut self, request: Request) -> Decision {
        let i = request.issuer;
        if request.is_read() {
            if self.scheme.contains(i) {
                Decision::exec(ProcSet::singleton(i))
            } else {
                // F is non-empty by construction.
                Decision::exec(ProcSet::singleton(self.f.any_member().unwrap_or(i)))
            }
        } else {
            let core_or_floater = self.f.with(self.p);
            let exec = if core_or_floater.contains(i) {
                core_or_floater
            } else {
                self.f.with(i)
            };
            self.scheme = exec;
            Decision::exec(exec)
        }
    }

    fn reset(&mut self) {
        self.scheme = self.f.with(self.p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::{run_online, CostModel, Schedule};

    fn ps(v: &[usize]) -> ProcSet {
        v.iter().copied().collect()
    }

    #[test]
    fn convergent_validation() {
        assert!(SlidingWindowConvergent::new(4, 1, ps(&[0, 1]), 8, 4).is_err());
        assert!(SlidingWindowConvergent::new(4, 2, ps(&[0]), 8, 4).is_err());
        assert!(SlidingWindowConvergent::new(4, 2, ps(&[0, 1]), 0, 4).is_err());
        assert!(SlidingWindowConvergent::new(2, 2, ps(&[0, 5]), 8, 4).is_err());
        assert!(SlidingWindowConvergent::new(4, 2, ps(&[0, 1]), 8, 4).is_ok());
    }

    #[test]
    fn convergent_tracks_hot_readers() {
        let mut algo = SlidingWindowConvergent::new(4, 2, ps(&[0, 1]), 8, 4).unwrap();
        // Processors 2 and 3 read heavily; after a retarget + a write the
        // scheme should contain them.
        let schedule: Schedule = "r2 r3 r2 r3 r2 r3 w0 r2 r3".parse().unwrap();
        let out = run_online(&mut algo, &schedule).unwrap();
        let final_scheme = out.costed.final_scheme;
        assert!(final_scheme.contains(ProcessorId::new(2)), "{final_scheme}");
        assert!(final_scheme.contains(ProcessorId::new(3)), "{final_scheme}");
    }

    #[test]
    fn convergent_always_valid() {
        let mut algo = SlidingWindowConvergent::new(5, 2, ps(&[0, 1]), 6, 3).unwrap();
        let schedule: Schedule = "r4 w2 r3 r3 w4 r0 w1 r2 r2 r2 w3".parse().unwrap();
        // run_online validates legality + t-availability internally.
        run_online(&mut algo, &schedule).expect("must stay legal and 2-available");
    }

    #[test]
    fn convergent_beats_da_on_regular_pattern() {
        // A regular pattern whose hot set shifts slowly: the convergent
        // algorithm should land the scheme on the readers and beat DA's
        // fixed core. (§5.1: convergent is better on regular patterns.)
        let model = CostModel::stationary(0.2, 0.4).unwrap();
        let phase1: Schedule = "r2 r3 r2 r3 r2 r3 w2".parse().unwrap();
        let schedule = phase1.repeated(12);
        let mut conv = SlidingWindowConvergent::new(5, 2, ps(&[0, 1]), 14, 7).unwrap();
        let conv_cost = run_online(&mut conv, &schedule)
            .unwrap()
            .costed
            .total_cost(&model);
        let mut da = crate::DynamicAllocation::new(ps(&[0]), ProcessorId::new(1)).unwrap();
        let da_cost = run_online(&mut da, &schedule)
            .unwrap()
            .costed
            .total_cost(&model);
        assert!(
            conv_cost < da_cost,
            "convergent ({conv_cost}) should beat DA ({da_cost}) on a regular pattern"
        );
    }

    #[test]
    fn cache_shrinks_to_writer() {
        let mut c = WriteInvalidateCache::new(ps(&[0])).unwrap();
        let schedule: Schedule = "r1 r2 w3 r3".parse().unwrap();
        let out = run_online(&mut c, &schedule).unwrap();
        assert_eq!(out.alloc.scheme_at(3), ps(&[3]));
        assert!(out.alloc.steps[0].saving && out.alloc.steps[1].saving);
        assert!(!out.alloc.steps[3].saving); // local after own write
    }

    #[test]
    fn cache_rejects_empty_initial() {
        assert!(WriteInvalidateCache::new(ProcSet::EMPTY).is_err());
    }

    #[test]
    fn nosave_never_saves_and_matches_da_on_writes() {
        let mut ns = DaNoSave::new(ps(&[0]), ProcessorId::new(1)).unwrap();
        let schedule: Schedule = "r2 r2 w5 r5 w0".parse().unwrap();
        let out = run_online(&mut ns, &schedule).unwrap();
        assert!(out.alloc.steps.iter().all(|s| !s.saving));
        assert_eq!(out.alloc.steps[2].exec, ps(&[0, 5])); // write by outsider
        assert_eq!(out.alloc.steps[4].exec, ps(&[0, 1])); // write by core
    }

    #[test]
    fn nosave_is_dearer_than_da_on_read_heavy_remote_workload() {
        let model = CostModel::stationary(0.2, 0.8).unwrap();
        let schedule: Schedule = "r2 r2 r2 r2 r2 r2 r2 r2".parse().unwrap();
        let mut ns = DaNoSave::new(ps(&[0]), ProcessorId::new(1)).unwrap();
        let ns_cost = run_online(&mut ns, &schedule)
            .unwrap()
            .costed
            .total_cost(&model);
        let mut da = crate::DynamicAllocation::new(ps(&[0]), ProcessorId::new(1)).unwrap();
        let da_cost = run_online(&mut da, &schedule)
            .unwrap()
            .costed
            .total_cost(&model);
        assert!(da_cost < ns_cost);
    }
}
