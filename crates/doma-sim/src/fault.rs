//! Deterministic fault injection: a declarative plan of message faults
//! (drop / delay / duplicate / jitter-reorder) and network partitions,
//! executed by the [`crate::Engine`] at delivery-scheduling time. Crashes
//! are not plan entries: they are engine events
//! ([`crate::Engine::schedule_crash`] / [`crate::Engine::schedule_recover`]).
//!
//! Everything is reproducible by construction: probabilistic rules carry
//! their own SplitMix64 stream (seeded from the plan seed and the rule
//! index), so the same [`FaultPlan`] applied to the same simulation always
//! injects the same faults at the same virtual instants. That is what
//! makes the `DOMA_FAULT_SEED=…` torture-test replay recipes exact.
//!
//! Semantics (all checked against the paper's model):
//!
//! * Faults act on *network* messages only. Local client injections
//!   ([`crate::Engine::inject`]) are co-located with their node and cannot
//!   be lost.
//! * The sender has already paid for a transmission when a fault eats it,
//!   so send tallies ([`crate::NetStats`]) are unaffected; injected drops
//!   are counted separately in [`FaultStats`].
//! * Partitions drop messages *crossing* the cut, in both directions;
//!   intra-component traffic is untouched.

use crate::{MsgKind, NodeId};
use doma_testkit::rng::splitmix64;
use std::fmt;

/// What a matching [`FaultRule`] does to a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The message vanishes in transit.
    Drop,
    /// Delivery is postponed by this many extra ticks.
    Delay(u64),
    /// The message is delivered twice: once on time, once after this many
    /// extra ticks (models retransmission bugs / at-least-once links).
    Duplicate(u64),
    /// Delivery is postponed by a *random* number of extra ticks in
    /// `0..=max`, drawn from the rule's deterministic stream — the
    /// reordering fault: two messages on the same link may now arrive in
    /// the opposite order from how they were sent.
    Jitter {
        /// Upper bound (inclusive) on the extra delay.
        max: u64,
    },
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::Drop => write!(f, "drop"),
            FaultAction::Delay(d) => write!(f, "delay(+{d})"),
            FaultAction::Duplicate(d) => write!(f, "dup(+{d})"),
            FaultAction::Jitter { max } => write!(f, "jitter(0..={max})"),
        }
    }
}

/// Selects the messages a rule applies to. `None` components match
/// anything, so `LinkFilter::default()` matches every message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFilter {
    /// Only messages sent by this node.
    pub from: Option<NodeId>,
    /// Only messages destined for this node.
    pub to: Option<NodeId>,
    /// Only messages of this kind (control vs data).
    pub kind: Option<MsgKind>,
}

impl LinkFilter {
    /// Matches every message.
    pub fn any() -> Self {
        LinkFilter::default()
    }

    /// Matches one directed link.
    pub fn link(from: NodeId, to: NodeId) -> Self {
        LinkFilter {
            from: Some(from),
            to: Some(to),
            kind: None,
        }
    }

    /// Restricts the filter to one message kind.
    pub fn of_kind(mut self, kind: MsgKind) -> Self {
        self.kind = Some(kind);
        self
    }

    fn matches(&self, from: NodeId, to: NodeId, kind: MsgKind) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && self.kind.is_none_or(|k| k == kind)
    }
}

/// One fault rule: *while the clock is inside `window`, messages matching
/// `filter` suffer `action` with probability `probability`, at most
/// `budget` times*.
///
/// Rules are consulted in plan order; the first rule that fires wins (so
/// a plan reads top-to-bottom like a schedule of adversities).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Half-open tick window `[start, end)` during which the rule is armed.
    pub window: (u64, u64),
    /// Which messages the rule applies to.
    pub filter: LinkFilter,
    /// What happens to a matched message.
    pub action: FaultAction,
    /// Probability the rule fires on a matching message (1.0 = always).
    pub probability: f64,
    /// Maximum number of times the rule may fire (`None` = unlimited).
    pub budget: Option<u64>,
}

impl FaultRule {
    /// A rule armed forever, firing on every match.
    pub fn always(filter: LinkFilter, action: FaultAction) -> Self {
        FaultRule {
            window: (0, u64::MAX),
            filter,
            action,
            probability: 1.0,
            budget: None,
        }
    }

    /// Restricts the rule to a tick window.
    pub fn during(mut self, start: u64, end: u64) -> Self {
        self.window = (start, end);
        self
    }

    /// Makes the rule probabilistic.
    pub fn with_probability(mut self, p: f64) -> Self {
        self.probability = p.clamp(0.0, 1.0);
        self
    }

    /// Caps how many times the rule may fire.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// A network partition: during `window`, messages crossing the cut between
/// `side` and its complement are dropped (both directions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Half-open tick window `[start, end)`.
    pub window: (u64, u64),
    /// One side of the cut (node indices); the other side is everyone else.
    pub side: Vec<usize>,
}

impl Partition {
    fn cuts(&self, now: u64, from: NodeId, to: NodeId) -> bool {
        if now < self.window.0 || now >= self.window.1 {
            return false;
        }
        let a = self.side.contains(&from.0);
        let b = self.side.contains(&to.0);
        a != b
    }
}

/// A declarative schedule of adversities, installed into an engine with
/// [`crate::Engine::install_faults`].
///
/// ```
/// use doma_sim::{FaultAction, FaultPlan, FaultRule, LinkFilter, NodeId};
///
/// let plan = FaultPlan::new(42)
///     .rule(FaultRule::always(LinkFilter::link(NodeId(0), NodeId(2)), FaultAction::Drop)
///         .during(0, 100)
///         .with_budget(1))
///     .partition(50, 80, vec![0, 1]);
/// assert_eq!((plan.rules().len(), plan.partitions().len()), (1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// An empty plan. `seed` drives the probabilistic rules' streams.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Appends a rule (consulted in insertion order, first match wins).
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Adds a partition separating `side` from the rest during
    /// `[start, end)` ticks.
    pub fn partition(mut self, start: u64, end: u64, side: Vec<usize>) -> Self {
        self.partitions.push(Partition {
            window: (start, end),
            side,
        });
        self
    }

    /// The plan's message-fault rules, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// The plan's scheduled partitions.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.partitions.is_empty()
    }
}

/// Exact tallies of the faults injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages eaten by [`FaultAction::Drop`] rules.
    pub dropped: u64,
    /// Messages eaten by an active [`Partition`].
    pub partition_dropped: u64,
    /// Messages postponed by [`FaultAction::Delay`].
    pub delayed: u64,
    /// Extra copies created by [`FaultAction::Duplicate`].
    pub duplicated: u64,
    /// Messages given a random extra delay by [`FaultAction::Jitter`].
    pub jittered: u64,
}

/// What the engine should do with one outgoing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Judgement {
    /// Deliver normally.
    Deliver,
    /// The message is lost; `partition` tells the caller which counter
    /// (and trace label) to use.
    Lost {
        /// Lost to a partition rather than a drop rule.
        partition: bool,
    },
    /// Deliver once per listed extra delay (a single entry with a non-zero
    /// delay is a delayed message; two entries are a duplication).
    Deliveries {
        /// Extra ticks to add to the natural delivery time, one per copy.
        extra: Vec<u64>,
        /// Which action produced this (for tracing).
        action: FaultAction,
    },
}

/// Live state of an installed plan: per-rule hit counters and RNG streams.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    hits: Vec<u64>,
    streams: Vec<u64>,
    stats: FaultStats,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        // Give every rule an independent, seed-derived SplitMix64 stream:
        // rule evaluation order then never perturbs another rule's draws.
        let streams = (0..plan.rules.len())
            .map(|i| {
                let mut s = plan.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                splitmix64(&mut s);
                s
            })
            .collect();
        let hits = vec![0; plan.rules.len()];
        FaultState {
            plan,
            hits,
            streams,
            stats: FaultStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Judges one outgoing message at send time `now`.
    pub(crate) fn judge(&mut self, now: u64, from: NodeId, to: NodeId, kind: MsgKind) -> Judgement {
        // Partitions first: a cut link loses everything, regardless of
        // rules.
        if self.plan.partitions.iter().any(|p| p.cuts(now, from, to)) {
            self.stats.partition_dropped += 1;
            return Judgement::Lost { partition: true };
        }
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if now < rule.window.0 || now >= rule.window.1 {
                continue;
            }
            if !rule.filter.matches(from, to, kind) {
                continue;
            }
            if rule.budget.is_some_and(|b| self.hits[i] >= b) {
                continue;
            }
            if rule.probability < 1.0 {
                let draw =
                    (splitmix64(&mut self.streams[i]) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                if draw >= rule.probability {
                    continue;
                }
            }
            self.hits[i] += 1;
            return match rule.action {
                FaultAction::Drop => {
                    self.stats.dropped += 1;
                    Judgement::Lost { partition: false }
                }
                FaultAction::Delay(d) => {
                    self.stats.delayed += 1;
                    Judgement::Deliveries {
                        extra: vec![d],
                        action: rule.action,
                    }
                }
                FaultAction::Duplicate(d) => {
                    self.stats.duplicated += 1;
                    Judgement::Deliveries {
                        extra: vec![0, d],
                        action: rule.action,
                    }
                }
                FaultAction::Jitter { max } => {
                    let extra = if max == 0 {
                        0
                    } else {
                        splitmix64(&mut self.streams[i]) % (max + 1)
                    };
                    self.stats.jittered += 1;
                    Judgement::Deliveries {
                        extra: vec![extra],
                        action: rule.action,
                    }
                }
            };
        }
        Judgement::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judge_seq(state: &mut FaultState, n: usize) -> Vec<bool> {
        // `true` = delivered.
        (0..n)
            .map(|_| {
                !matches!(
                    state.judge(10, NodeId(0), NodeId(1), MsgKind::Control),
                    Judgement::Lost { .. }
                )
            })
            .collect()
    }

    #[test]
    fn filters_match_links_and_kinds() {
        let f = LinkFilter::link(NodeId(0), NodeId(2)).of_kind(MsgKind::Data);
        assert!(f.matches(NodeId(0), NodeId(2), MsgKind::Data));
        assert!(!f.matches(NodeId(0), NodeId(2), MsgKind::Control));
        assert!(!f.matches(NodeId(1), NodeId(2), MsgKind::Data));
        assert!(LinkFilter::any().matches(NodeId(7), NodeId(3), MsgKind::Control));
    }

    #[test]
    fn first_matching_rule_wins_and_budget_caps() {
        let plan = FaultPlan::new(1)
            .rule(FaultRule::always(LinkFilter::any(), FaultAction::Drop).with_budget(2))
            .rule(FaultRule::always(LinkFilter::any(), FaultAction::Delay(5)));
        let mut state = FaultState::new(plan);
        // First two messages eaten by the drop rule; the third falls
        // through to the delay rule.
        assert_eq!(
            state.judge(0, NodeId(0), NodeId(1), MsgKind::Data),
            Judgement::Lost { partition: false }
        );
        assert_eq!(
            state.judge(0, NodeId(0), NodeId(1), MsgKind::Data),
            Judgement::Lost { partition: false }
        );
        assert_eq!(
            state.judge(0, NodeId(0), NodeId(1), MsgKind::Data),
            Judgement::Deliveries {
                extra: vec![5],
                action: FaultAction::Delay(5)
            }
        );
        assert_eq!(state.stats().dropped, 2);
        assert_eq!(state.stats().delayed, 1);
    }

    #[test]
    fn windows_disarm_rules_outside_their_ticks() {
        let plan = FaultPlan::new(1)
            .rule(FaultRule::always(LinkFilter::any(), FaultAction::Drop).during(10, 20));
        let mut state = FaultState::new(plan);
        assert_eq!(
            state.judge(9, NodeId(0), NodeId(1), MsgKind::Control),
            Judgement::Deliver
        );
        assert_eq!(
            state.judge(10, NodeId(0), NodeId(1), MsgKind::Control),
            Judgement::Lost { partition: false }
        );
        assert_eq!(
            state.judge(20, NodeId(0), NodeId(1), MsgKind::Control),
            Judgement::Deliver
        );
    }

    #[test]
    fn probabilistic_rules_are_deterministic_per_seed() {
        let plan = |seed| {
            FaultPlan::new(seed)
                .rule(FaultRule::always(LinkFilter::any(), FaultAction::Drop).with_probability(0.5))
        };
        let a = judge_seq(&mut FaultState::new(plan(7)), 64);
        let b = judge_seq(&mut FaultState::new(plan(7)), 64);
        assert_eq!(a, b, "same seed, same fault pattern");
        let c = judge_seq(&mut FaultState::new(plan(8)), 64);
        assert_ne!(a, c, "different seed, different pattern");
        let delivered = a.iter().filter(|&&d| d).count();
        assert!(
            (16..=48).contains(&delivered),
            "p=0.5 should drop roughly half, delivered {delivered}/64"
        );
    }

    #[test]
    fn partitions_cut_both_directions_only_within_window() {
        let plan = FaultPlan::new(0).partition(10, 20, vec![0, 1]);
        let mut state = FaultState::new(plan);
        // Crossing the cut, inside the window: both directions lost.
        assert_eq!(
            state.judge(15, NodeId(0), NodeId(2), MsgKind::Data),
            Judgement::Lost { partition: true }
        );
        assert_eq!(
            state.judge(15, NodeId(2), NodeId(1), MsgKind::Data),
            Judgement::Lost { partition: true }
        );
        // Same side: delivered.
        assert_eq!(
            state.judge(15, NodeId(0), NodeId(1), MsgKind::Data),
            Judgement::Deliver
        );
        assert_eq!(
            state.judge(15, NodeId(2), NodeId(3), MsgKind::Data),
            Judgement::Deliver
        );
        // Outside the window: delivered.
        assert_eq!(
            state.judge(25, NodeId(0), NodeId(2), MsgKind::Data),
            Judgement::Deliver
        );
        assert_eq!(state.stats().partition_dropped, 2);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let plan = FaultPlan::new(3).rule(FaultRule::always(
            LinkFilter::any(),
            FaultAction::Jitter { max: 4 },
        ));
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for _ in 0..32 {
            let ja = a.judge(0, NodeId(0), NodeId(1), MsgKind::Data);
            let jb = b.judge(0, NodeId(0), NodeId(1), MsgKind::Data);
            assert_eq!(ja, jb);
            match ja {
                Judgement::Deliveries { extra, .. } => {
                    assert_eq!(extra.len(), 1);
                    assert!(extra[0] <= 4);
                }
                other => panic!("jitter must deliver, got {other:?}"),
            }
        }
        assert_eq!(a.stats().jittered, 32);
    }

    #[test]
    fn duplicate_produces_two_copies() {
        let plan = FaultPlan::new(0).rule(FaultRule::always(
            LinkFilter::any(),
            FaultAction::Duplicate(7),
        ));
        let mut state = FaultState::new(plan);
        assert_eq!(
            state.judge(0, NodeId(0), NodeId(1), MsgKind::Data),
            Judgement::Deliveries {
                extra: vec![0, 7],
                action: FaultAction::Duplicate(7)
            }
        );
        assert_eq!(state.stats().duplicated, 1);
    }

    #[test]
    fn plan_builder_collects_rules_and_partitions() {
        assert!(FaultPlan::new(9).is_empty());
        let cut = FaultPlan::new(0).partition(5, 15, vec![2]);
        assert_eq!(cut.partitions().len(), 1);
        assert!(!cut.is_empty());
        let lossy = FaultPlan::new(0).rule(FaultRule::always(LinkFilter::any(), FaultAction::Drop));
        assert_eq!(lossy.rules().len(), 1);
        assert!(!lossy.is_empty());
    }

    #[test]
    fn action_display_is_compact() {
        assert_eq!(FaultAction::Drop.to_string(), "drop");
        assert_eq!(FaultAction::Delay(3).to_string(), "delay(+3)");
        assert_eq!(FaultAction::Duplicate(2).to_string(), "dup(+2)");
        assert_eq!(FaultAction::Jitter { max: 9 }.to_string(), "jitter(0..=9)");
    }
}
