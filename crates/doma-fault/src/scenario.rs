//! Checker scenarios: a cluster under test plus a phased script of
//! concurrent actions.
//!
//! A scenario's phases execute in order with a *quiescence barrier*
//! between them: phase `k + 1` is injected only on paths where every
//! event of phase `k` (and its cascade) has been delivered. Actions
//! *within* a phase are concurrent — the explorer considers every
//! delivery order of the events they give rise to. This mirrors the
//! paper's §3.1 schedule model: reads between two writes are concurrent,
//! and a scenario that wants the normal-mode one-copy guarantee audited
//! puts each write in its own phase. Quorum-mode scenarios may mix reads
//! and writes freely in one phase — the per-read floor capture in
//! [`crate::InvariantChecker`] keeps the oracle sound under overlap.

use doma_core::{DomaError, ProcSet, Result};
use doma_protocol::{BugSwitches, Entrant, ProtocolConfig, ProtocolSim, Tunables};
use doma_sim::{FaultAction, FaultPlan, LinkFilter, MsgKind, NodeId};

/// One client- or environment-level action, injected at the start of its
/// phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Node `p` issues a read of object 0.
    Read(usize),
    /// Node `p` issues a write of object 0 (versions are assigned in
    /// action order within the scenario).
    Write(usize),
    /// Node `p` crashes (volatile state lost, stable store kept).
    Crash(usize),
    /// Node `p` recovers, reloading its replica from the stable log.
    Recover(usize),
    /// Every node is told to enter (`true`) or leave (`false`) quorum
    /// mode. Each node's mode flip is its own explored event.
    ModeChange(bool),
    /// Node `p` alone is told to enter or leave quorum mode. Staggering
    /// entries across barrier phases keeps the mode-transition push
    /// cascades from all interleaving at once, which shrinks the search
    /// space without hiding the orders that matter later.
    ModeChangeAt(usize, bool),
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Read(p) => write!(f, "r{p}"),
            Action::Write(p) => write!(f, "w{p}"),
            Action::Crash(p) => write!(f, "crash{p}"),
            Action::Recover(p) => write!(f, "recover{p}"),
            Action::ModeChange(q) => write!(f, "mode({q})"),
            Action::ModeChangeAt(p, q) => write!(f, "mode{p}({q})"),
        }
    }
}

/// A bounded-model-checking scenario: cluster, phased action script,
/// optional deterministic fault plan and protocol bug toggles.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name shown in reports and replay lines.
    pub name: String,
    /// Cluster size.
    pub n: usize,
    /// What every node of the cluster under test runs. Adaptive
    /// configurations get their plan oracle with the roster's canonical
    /// tunables; oracle state is a deterministic function of the injected
    /// request sequence (identical on every explored path), so the
    /// explorer's content-fingerprint deduplication stays sound.
    pub config: ProtocolConfig,
    /// Phases of concurrent actions, barrier-separated.
    pub phases: Vec<Vec<Action>>,
    /// Deterministic message faults (duplicates, drops) applied for the
    /// whole run. Restricted by [`Scenario::build_sim`] to rules whose
    /// behaviour cannot depend on virtual time or randomness, so that the
    /// explorer's state deduplication stays sound.
    pub faults: Option<FaultPlan>,
    /// Historical protocol bugs to re-introduce (regression checking).
    pub bugs: BugSwitches,
}

impl Scenario {
    /// A scenario with no phases, faults or bugs.
    pub fn new(name: impl Into<String>, n: usize, config: ProtocolConfig) -> Self {
        Scenario {
            name: name.into(),
            n,
            config,
            phases: Vec::new(),
            faults: None,
            bugs: BugSwitches::default(),
        }
    }

    /// Appends a phase of concurrent actions.
    pub fn phase(mut self, actions: &[Action]) -> Self {
        self.phases.push(actions.to_vec());
        self
    }

    /// Installs a deterministic fault plan (validated at build time).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Re-introduces historical protocol bugs for regression checking.
    pub fn with_bugs(mut self, bugs: BugSwitches) -> Self {
        self.bugs = bugs;
        self
    }

    /// Total number of client requests across all phases.
    pub fn request_count(&self) -> usize {
        self.phases
            .iter()
            .flatten()
            .filter(|a| matches!(a, Action::Read(_) | Action::Write(_)))
            .count()
    }

    /// Validates the scenario and builds the cluster it runs against,
    /// with bug toggles applied and the fault plan installed.
    ///
    /// A phase holds at most one write: the §3.1 schedule model orders
    /// writes, and two concurrent writes would surface later as a
    /// `VersionRegression` instead of as the script error they are.
    ///
    /// Fault plans are restricted to shapes whose judgements are a pure
    /// function of the message (probability 1, no budget, unbounded
    /// window, no partitions): the explorer
    /// deduplicates states by content fingerprint, which is only sound
    /// when fault behaviour cannot depend on virtual time, arrival order
    /// or PRNG draws.
    pub fn build_sim(&self) -> Result<ProtocolSim> {
        let n = self.n;
        for action in self.phases.iter().flatten() {
            let p = match action {
                Action::Read(p)
                | Action::Write(p)
                | Action::Crash(p)
                | Action::Recover(p)
                | Action::ModeChangeAt(p, _) => *p,
                Action::ModeChange(_) => 0,
            };
            if p >= n {
                return Err(DomaError::InvalidConfig(format!(
                    "scenario {}: action {action} outside cluster of {n}",
                    self.name
                )));
            }
        }
        for (k, phase) in self.phases.iter().enumerate() {
            if phase
                .iter()
                .filter(|a| matches!(a, Action::Write(_)))
                .count()
                > 1
            {
                let actions: Vec<String> = phase.iter().map(Action::to_string).collect();
                return Err(DomaError::InvalidConfig(format!(
                    "scenario {}: phase {k} [{}] holds more than one write; the §3.1 \
                     schedule model puts each write in its own phase",
                    self.name,
                    actions.join(", ")
                )));
            }
        }
        if let Some(plan) = &self.faults {
            if !plan.partitions().is_empty() {
                return Err(DomaError::InvalidConfig(format!(
                    "scenario {}: fault plans for the checker may not schedule \
                     partitions (use Action::Crash / phases instead)",
                    self.name
                )));
            }
            for rule in plan.rules() {
                if rule.probability < 1.0 || rule.budget.is_some() || rule.window != (0, u64::MAX) {
                    return Err(DomaError::InvalidConfig(format!(
                        "scenario {}: checker fault rules must be deterministic \
                         (probability 1, no budget, unbounded window)",
                        self.name
                    )));
                }
            }
        }
        // Adaptive scenarios stay out of quorum-*exit* territory: the
        // checker injects ModeChange as raw messages, bypassing the
        // failover driver's oracle reset, so a scenario that leaves quorum
        // mode would run with a desynchronized oracle. Entering quorum
        // mode is fine (plans are ignored there).
        if matches!(self.config, ProtocolConfig::Adaptive { .. })
            && self.phases.iter().flatten().any(|action| {
                matches!(
                    action,
                    Action::ModeChange(false) | Action::ModeChangeAt(_, false)
                )
            })
        {
            return Err(DomaError::InvalidConfig(format!(
                "scenario {}: adaptive clusters may not leave quorum \
                 mode (oracle state is only resynchronized by the \
                 failover driver)",
                self.name
            )));
        }
        let mut sim = ProtocolSim::deploy(n, self.config, Tunables::CANONICAL)?;
        sim.set_bug_switches(self.bugs);
        if let Some(plan) = &self.faults {
            sim.engine_mut().install_faults(plan.clone());
        }
        Ok(sim)
    }
}

/// A fault plan duplicating every data message on the directed link
/// `from → to` — the checker-safe shape of the at-least-once-link fault.
pub fn duplicate_data_link(from: usize, to: usize) -> FaultPlan {
    FaultPlan::new(0).rule(doma_sim::FaultRule::always(
        LinkFilter::link(NodeId(from), NodeId(to)).of_kind(MsgKind::Data),
        FaultAction::Duplicate(1),
    ))
}

/// The small-bound SA configuration from the verification wall: 3
/// processors, Q = {0, 1}, 6 requests with reads concurrent between
/// barrier-separated writes (§3.1 schedule model).
pub fn sa_small() -> Scenario {
    Scenario::new("sa-small", 3, Entrant::Sa.config())
        .phase(&[Action::Read(2), Action::Read(2)])
        .phase(&[Action::Write(0)])
        .phase(&[Action::Read(1), Action::Read(2)])
        .phase(&[Action::Write(2)])
}

/// The small-bound DA configuration: 3 processors, F = {0}, floater
/// p = 1, 6 requests including saving reads and an outsider write that
/// moves the floater.
pub fn da_small() -> Scenario {
    Scenario::new("da-small", 3, Entrant::Da.config())
        .phase(&[Action::Read(2), Action::Read(2)])
        .phase(&[Action::Write(0)])
        .phase(&[Action::Read(2), Action::Read(1)])
        .phase(&[Action::Write(2)])
}

/// Quorum-mode SA scenario with a read/write/read overlap on one node:
/// the delivery orders include a straggler reply from the first read's
/// round arriving during the second read's round. Clean on the fixed
/// protocol; flips to a stale read when
/// [`BugSwitches::ignore_round_tags`] is set.
pub fn sa_quorum_overlap() -> Scenario {
    Scenario::new("sa-quorum-overlap", 3, Entrant::Sa.config())
        .phase(&[Action::ModeChange(true)])
        .phase(&[Action::Read(2), Action::Write(0), Action::Read(2)])
}

/// Normal-mode DA scenario where a duplicated saving-read reply races a
/// write's invalidation. Clean on the fixed protocol; flips to a stale
/// read when [`BugSwitches::no_invalidated_floor`] is set (the late
/// duplicate resurrects the invalidated replica, and the next phase
/// reads it).
pub fn da_resurrect() -> Scenario {
    Scenario::new("da-resurrect", 3, Entrant::Da.config())
        .with_faults(duplicate_data_link(0, 2))
        .phase(&[Action::Read(2), Action::Write(0)])
        .phase(&[Action::Read(2)])
}

/// Quorum-mode scenario (5 processors) where a reader can assemble its
/// majority from duplicated replies of a single stale peer. Clean on the
/// fixed protocol (responder sets are deduplicated); flips to a stale
/// read when [`BugSwitches::count_duplicate_responders`] is set.
pub fn sa_quorum_duplicates() -> Scenario {
    // Mode entries staggered across barriers: concurrent entry of five
    // nodes (two of them pushing missing writes to four peers each)
    // explodes the space past the small-bound budget without adding
    // orders that matter to the duplicate-responder race in the final
    // phase.
    Scenario::new("sa-quorum-duplicates", 5, Entrant::Sa.config())
        .with_faults(duplicate_data_link(4, 3))
        .phase(&[Action::ModeChangeAt(0, true)])
        .phase(&[Action::ModeChangeAt(1, true)])
        .phase(&[Action::ModeChangeAt(2, true)])
        .phase(&[Action::ModeChangeAt(3, true)])
        .phase(&[Action::ModeChangeAt(4, true)])
        .phase(&[Action::Crash(3), Action::Crash(4)])
        .phase(&[Action::Write(0)])
        .phase(&[Action::Recover(3), Action::Recover(4)])
        .phase(&[Action::Read(3)])
}

/// Small-bound scenario for the promoted sliding-window convergent
/// baseline: 3 processors, initial scheme {0, 1}, with an outsider read,
/// a write that may shrink the scheme, two concurrent reads, and an
/// outsider write — enough churn for the oracle to issue a non-trivial
/// expansion/contraction plan. Reads within one phase are concurrent on
/// *different* nodes: adaptive reads are untagged (round 0), so two
/// overlapping reads on the same node would alias their replies.
pub fn convergent_small() -> Scenario {
    Scenario::new("convergent-small", 3, Entrant::Convergent.config())
        .phase(&[Action::Read(2)])
        .phase(&[Action::Write(0)])
        .phase(&[Action::Read(2), Action::Read(1)])
        .phase(&[Action::Write(2)])
}

/// Small-bound scenario for the promoted write-invalidate baseline
/// (t = 1, single-copy): cache-populating reads from two outsiders, then
/// a write by a non-holder that must invalidate every cached copy before
/// the final read audits the one-copy guarantee.
pub fn write_invalidate_small() -> Scenario {
    Scenario::new(
        "write-invalidate-small",
        3,
        ProtocolConfig::Adaptive {
            initial: ProcSet::from_iter([0usize]),
            algo: Entrant::WriteInvalidate,
        },
    )
    .phase(&[Action::Read(2)])
    .phase(&[Action::Write(0)])
    .phase(&[Action::Read(1)])
    .phase(&[Action::Write(2)])
}

/// The cost-oblivious contender under quorum mode: after the cluster
/// enters quorum mode the oracle's plans are ignored and reads/writes may
/// overlap freely in one phase — the same round-tag straggler race as
/// [`sa_quorum_overlap`], now reached from an adaptive cluster.
pub fn cost_oblivious_quorum_overlap() -> Scenario {
    Scenario::new(
        "cost-oblivious-quorum-overlap",
        3,
        Entrant::CostOblivious.config(),
    )
    .phase(&[Action::ModeChange(true)])
    .phase(&[Action::Read(2), Action::Write(0), Action::Read(2)])
}

/// The mobile-mirror contender against the duplicated-data-link fault of
/// [`da_resurrect`]: every data message on 0 → 2 is duplicated, so the
/// saving-read reply and the write's replica shipment each arrive twice,
/// and the late duplicates race the write's invalidation of node 1. The
/// saving read runs in its own phase: mobile-mirror *moves* its scheme on
/// writes (unlike DA's static core), so a write concurrent with the
/// scheme-growing read would drop node 1 while node 2's replica is still
/// in flight — a transient (and checker-visible) dip below t that the
/// phase barrier rules out, mirroring the paper's §3.1 schedule model
/// where the scheme change between writes is well-founded.
pub fn mobile_mirror_resurrect() -> Scenario {
    Scenario::new("mobile-mirror-resurrect", 3, Entrant::MobileMirror.config())
        .with_faults(duplicate_data_link(0, 2))
        .phase(&[Action::Read(2)])
        .phase(&[Action::Write(0)])
        .phase(&[Action::Read(2)])
}

/// Every built-in scenario, clean by construction on the fixed protocol.
pub fn builtin() -> Vec<Scenario> {
    vec![
        sa_small(),
        da_small(),
        sa_quorum_overlap(),
        da_resurrect(),
        sa_quorum_duplicates(),
        convergent_small(),
        write_invalidate_small(),
        cost_oblivious_quorum_overlap(),
        mobile_mirror_resurrect(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_with_two_writes_is_a_typed_build_error() {
        let scenario = Scenario::new("two-writers", 3, Entrant::Da.config())
            .phase(&[Action::Read(2)])
            .phase(&[Action::Write(2), Action::Read(1), Action::Write(0)]);
        match scenario.build_sim() {
            Err(DomaError::InvalidConfig(msg)) => assert!(
                msg.contains("two-writers") && msg.contains("phase 1 [w2, r1, w0]"),
                "{msg}"
            ),
            Err(other) => panic!("expected InvalidConfig, got {other}"),
            Ok(_) => panic!("a phase with two writes must not build"),
        }
        // One write per phase, however many reads, still builds.
        for scenario in builtin() {
            scenario.build_sim().unwrap();
        }
    }
}
