//! Tournament contenders adapted from the related online-allocation
//! literature (ROADMAP item 3: the algorithm tournament).
//!
//! None of these are contributions of the paper; each adapts a published
//! allocation idea to the DOM setting (legal, `t`-available allocation
//! schedules over `n` processors) so the tournament can compare them
//! against SA/DA/OPT under one differential-test wall:
//!
//! * [`CostOblivious`] — storage reallocation in the spirit of Bender
//!   et al. (arXiv:1404.2019): decisions never consult the cost model.
//!   A non-member joins the scheme only after a *threshold* of remote
//!   reads since the last write (the ski-rental rule); writes re-home
//!   the scheme onto the writer plus the most recently active sites and
//!   reset every counter.
//! * [`MobileMirror`] — multiple-mobile-resource online allocation in
//!   the spirit of Feldkord et al. (arXiv:1907.09834): the `t` replicas
//!   behave like mobile servers chasing requests. Every outsider read
//!   pulls a mirror to the reader (saving-read); every write collapses
//!   the mirrors back onto the writer and the `t - 1` most recently
//!   active sites.
//!
//! Both implement [`OnlineDom`] and are deterministic pure
//! functions of the request sequence, which is what lets the protocol
//! simulator replay them as driver-side plan oracles with exact cost
//! parity.

use doma_core::{
    Decision, DomAlgorithm, DomaError, OnlineDom, ProcSet, ProcessorId, Request, Result,
    MAX_PROCESSORS,
};

fn validate_adaptive(n: usize, t: usize, initial: ProcSet) -> Result<()> {
    if n == 0 || n > MAX_PROCESSORS {
        return Err(DomaError::InvalidConfig(format!(
            "need 1 <= n <= {MAX_PROCESSORS}, got {n}"
        )));
    }
    if t == 0 || t > n {
        return Err(DomaError::InvalidConfig(format!(
            "need 1 <= t <= n, got t={t}, n={n}"
        )));
    }
    if !initial.is_subset(ProcSet::universe(n)) {
        return Err(DomaError::InvalidConfig(format!(
            "initial {initial} outside universe of {n}"
        )));
    }
    if initial.len() < t {
        return Err(DomaError::InvalidConfig(format!(
            "initial scheme {initial} smaller than t={t}"
        )));
    }
    Ok(())
}

/// A most-recent-first activity list over the processors; the common
/// "who moved last" signal the contenders steer by.
#[derive(Debug, Clone, Default)]
struct Recency {
    order: Vec<ProcessorId>,
}

impl Recency {
    fn touch(&mut self, p: ProcessorId) {
        self.order.retain(|&q| q != p);
        self.order.insert(0, p);
    }

    /// The `k` most recently active processors other than `exclude`.
    fn top(&self, k: usize, exclude: ProcessorId) -> impl Iterator<Item = ProcessorId> + '_ {
        self.order
            .iter()
            .copied()
            .filter(move |&q| q != exclude)
            .take(k)
    }

    fn clear(&mut self) {
        self.order.clear();
    }
}

/// Grows `set` to at least `t` members: first from `preferred` (in
/// order), then by lowest processor index over the `n`-universe.
fn pad_to_t(
    mut set: ProcSet,
    t: usize,
    n: usize,
    preferred: impl Iterator<Item = ProcessorId>,
) -> ProcSet {
    for p in preferred {
        if set.len() >= t {
            break;
        }
        set.insert(p);
    }
    let mut index = 0;
    while set.len() < t && index < n {
        set.insert(ProcessorId::new(index));
        index += 1;
    }
    set
}

/// Cost-oblivious reallocation (after Bender et al., arXiv:1404.2019):
/// the ski-rental rule for replica placement. A non-member pays for
/// `threshold` remote reads before the algorithm commits to replicating
/// at it; a write re-homes the scheme onto the writer plus the `t - 1`
/// most recently active processors and resets every rental counter. The
/// decisions never look at `cc`/`cd` — the point of the adaptation is
/// to measure how far cost-obliviousness falls behind DA per cost cell.
#[derive(Debug, Clone)]
pub struct CostOblivious {
    n: usize,
    t: usize,
    initial: ProcSet,
    threshold: u32,
    // --- mutable state ---
    scheme: ProcSet,
    misses: Vec<u32>,
    recency: Recency,
}

impl CostOblivious {
    /// Creates the allocator (`1 ≤ t ≤ n`, `|initial| ≥ t`,
    /// `threshold ≥ 1`).
    pub fn new(n: usize, t: usize, initial: ProcSet, threshold: u32) -> Result<Self> {
        validate_adaptive(n, t, initial)?;
        if threshold == 0 {
            return Err(DomaError::InvalidConfig(
                "threshold must be positive".to_string(),
            ));
        }
        Ok(CostOblivious {
            n,
            t,
            initial,
            threshold,
            scheme: initial,
            misses: vec![0; n],
            recency: Recency::default(),
        })
    }
}

impl DomAlgorithm for CostOblivious {
    fn name(&self) -> &str {
        "CostOblivious"
    }
    fn t(&self) -> usize {
        self.t
    }
    fn initial_scheme(&self) -> ProcSet {
        self.initial
    }
}

impl OnlineDom for CostOblivious {
    fn decide(&mut self, request: Request) -> Decision {
        let i = request.issuer;
        self.recency.touch(i);
        if request.is_read() {
            if self.scheme.contains(i) {
                return Decision::exec(ProcSet::singleton(i));
            }
            let server = self.scheme.any_member().unwrap_or(i);
            self.misses[i.index()] += 1;
            if self.misses[i.index()] >= self.threshold {
                // Rental paid off: buy the replica.
                self.misses[i.index()] = 0;
                self.scheme.insert(i);
                Decision::saving(ProcSet::singleton(server))
            } else {
                Decision::exec(ProcSet::singleton(server))
            }
        } else {
            let exec = pad_to_t(
                ProcSet::singleton(i),
                self.t,
                self.n,
                self.recency.top(self.t - 1, i),
            );
            self.scheme = exec;
            self.misses.fill(0);
            Decision::exec(exec)
        }
    }

    fn reset(&mut self) {
        self.scheme = self.initial;
        self.misses.fill(0);
        self.recency.clear();
    }
}

/// Multiple-mobile-resource online allocation (after Feldkord et al.,
/// arXiv:1907.09834): the `t` replicas are mobile servers that chase the
/// request sequence. Every outsider read immediately pulls a mirror to
/// the reader (a saving-read, so the scheme grows between writes), and
/// every write collapses the mirrors back onto the writer plus the
/// `t - 1` most recently active sites.
#[derive(Debug, Clone)]
pub struct MobileMirror {
    n: usize,
    t: usize,
    initial: ProcSet,
    // --- mutable state ---
    scheme: ProcSet,
    recency: Recency,
}

impl MobileMirror {
    /// Creates the allocator (`1 ≤ t ≤ n`, `|initial| ≥ t`).
    pub fn new(n: usize, t: usize, initial: ProcSet) -> Result<Self> {
        validate_adaptive(n, t, initial)?;
        Ok(MobileMirror {
            n,
            t,
            initial,
            scheme: initial,
            recency: Recency::default(),
        })
    }
}

impl DomAlgorithm for MobileMirror {
    fn name(&self) -> &str {
        "MobileMirror"
    }
    fn t(&self) -> usize {
        self.t
    }
    fn initial_scheme(&self) -> ProcSet {
        self.initial
    }
}

impl OnlineDom for MobileMirror {
    fn decide(&mut self, request: Request) -> Decision {
        let i = request.issuer;
        self.recency.touch(i);
        if request.is_read() {
            if self.scheme.contains(i) {
                Decision::exec(ProcSet::singleton(i))
            } else {
                let server = self.scheme.any_member().unwrap_or(i);
                self.scheme.insert(i);
                Decision::saving(ProcSet::singleton(server))
            }
        } else {
            let exec = pad_to_t(
                ProcSet::singleton(i),
                self.t,
                self.n,
                self.recency.top(self.t - 1, i),
            );
            self.scheme = exec;
            Decision::exec(exec)
        }
    }

    fn reset(&mut self) {
        self.scheme = self.initial;
        self.recency.clear();
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
    fn constructor_validation() {
        assert!(CostOblivious::new(0, 1, ProcSet::EMPTY, 2).is_err());
        assert!(CostOblivious::new(4, 0, ps(&[0]), 2).is_err());
        assert!(CostOblivious::new(4, 2, ps(&[0]), 2).is_err());
        assert!(CostOblivious::new(4, 2, ps(&[0, 1]), 0).is_err());
        assert!(CostOblivious::new(2, 2, ps(&[0, 5]), 2).is_err());
        assert!(CostOblivious::new(4, 2, ps(&[0, 1]), 2).is_ok());
        assert!(MobileMirror::new(4, 5, ps(&[0, 1]),).is_err());
        assert!(MobileMirror::new(4, 2, ps(&[0, 1])).is_ok());
    }

    #[test]
    fn cost_oblivious_joins_only_after_threshold() {
        let mut algo = CostOblivious::new(4, 2, ps(&[0, 1]), 3).unwrap();
        let schedule: Schedule = "r2 r2 r2 r2".parse().unwrap();
        let out = run_online(&mut algo, &schedule).unwrap();
        // Reads 1 and 2 rent (no save); read 3 hits the threshold and buys.
        assert!(!out.alloc.steps[0].saving);
        assert!(!out.alloc.steps[1].saving);
        assert!(out.alloc.steps[2].saving);
        // Read 4 is then local.
        assert_eq!(out.alloc.steps[3].exec, ps(&[2]));
    }

    #[test]
    fn cost_oblivious_write_rehomes_on_recent_actors() {
        let mut algo = CostOblivious::new(5, 2, ps(&[0, 1]), 2).unwrap();
        let schedule: Schedule = "r3 w4".parse().unwrap();
        let out = run_online(&mut algo, &schedule).unwrap();
        // The write lands on the writer plus the most recent actor (3).
        assert_eq!(out.costed.final_scheme, ps(&[3, 4]));
    }

    #[test]
    fn mobile_mirror_chases_readers_and_collapses_on_write() {
        let mut algo = MobileMirror::new(5, 2, ps(&[0, 1])).unwrap();
        let schedule: Schedule = "r2 r3 w3".parse().unwrap();
        let out = run_online(&mut algo, &schedule).unwrap();
        assert!(out.alloc.steps[0].saving && out.alloc.steps[1].saving);
        assert_eq!(out.alloc.scheme_at(2), ps(&[0, 1, 2, 3]));
        // Write by 3: collapse to writer + most recent other actor (2).
        assert_eq!(out.costed.final_scheme, ps(&[2, 3]));
    }

    #[test]
    fn all_contenders_stay_legal_on_a_mixed_schedule() {
        let schedule: Schedule = "r4 w2 r3 r3 w4 r0 w1 r2 r2 r2 w3 r1 w0 r4".parse().unwrap();
        run_online(
            &mut CostOblivious::new(5, 2, ps(&[0, 1]), 2).unwrap(),
            &schedule,
        )
        .expect("cost-oblivious must stay legal and t-available");
        run_online(
            &mut MobileMirror::new(5, 2, ps(&[0, 1])).unwrap(),
            &schedule,
        )
        .expect("mobile-mirror must stay legal and t-available");
    }

    #[test]
    fn contenders_reset_reproduces_first_run() {
        let schedule: Schedule = "r2 r2 w3 r4 r4 w1 r0".parse().unwrap();
        let mut algo = CostOblivious::new(5, 2, ps(&[0, 1]), 2).unwrap();
        let a = run_online(&mut algo, &schedule).unwrap();
        let b = run_online(&mut algo, &schedule).unwrap();
        assert_eq!(a, b, "run_online resets to identical behavior");
    }

    #[test]
    fn mobile_mirror_beats_da_on_migrating_hotspot() {
        // A hotspot that moves: mirrors chase it, DA's fixed core pays
        // remote reads forever.
        let model = CostModel::stationary(0.2, 0.4).unwrap();
        let phase: Schedule = "r3 r3 r3 w3 r4 r4 r4 w4".parse().unwrap();
        let schedule = phase.repeated(8);
        let mut mm = MobileMirror::new(5, 2, ps(&[0, 1])).unwrap();
        let mm_cost = run_online(&mut mm, &schedule)
            .unwrap()
            .costed
            .total_cost(&model);
        let mut da = crate::DynamicAllocation::new(ps(&[0]), ProcessorId::new(1)).unwrap();
        let da_cost = run_online(&mut da, &schedule)
            .unwrap()
            .costed
            .total_cost(&model);
        assert!(
            mm_cost < da_cost,
            "mirrors ({mm_cost}) should beat DA ({da_cost}) on a migrating hotspot"
        );
    }
}
