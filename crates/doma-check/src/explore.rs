//! The exhaustive interleaving explorer: a depth-first search over
//! message-delivery choice points with state-fingerprint deduplication
//! and sleep-set partial-order reduction, auditing every reached state
//! with [`doma_fault::InvariantChecker`].
//!
//! # Search space
//!
//! A state is a fork of the whole cluster ([`ProtocolSim::fork`]) plus
//! the auditor carried alongside it. The transitions out of a state are
//! the queued engine events ([`ProtocolSim::pending_events`]); taking one
//! means [`ProtocolSim::dispatch_by_seq`] on a fresh fork. When the queue
//! drains, the current phase's quiescence barrier is audited and the next
//! phase of the scenario is injected.
//!
//! # Reductions
//!
//! *Deduplication.* Two states whose semantic fingerprints agree —
//! node states, liveness, the multiset of in-flight messages by content,
//! and the auditor's own state — have isomorphic futures (delivery
//! timestamps and engine sequence numbers are excluded on purpose: they
//! affect only latency metrics, never protocol decisions). Revisits are
//! pruned.
//!
//! *Sleep sets.* Two queued events targeting different nodes commute:
//! each one's effect is a function of its target's state alone, and the
//! network medium is point-to-point (checker scenarios never use the
//! shared-bus medium, whose busy-until cursor would couple unrelated
//! deliveries). After exploring `e` then `e'` from a state, the
//! `e'`-first order is entered with `e` in the *sleep set* and the
//! redundant `e`-second branches are skipped. Combined with caching, a
//! cached state is only pruned when it was previously explored with a
//! sleep set no larger than the current one (Godefroid's subset rule) —
//! otherwise the state is re-expanded with the intersection.

use crate::scenario::{Action, Scenario};
use doma_core::{DomaError, Result};
use doma_fault::{InvariantChecker, Regime, Violation};
use doma_protocol::{DomMsg, ProtocolSim};
use doma_sim::{NodeId, PendingEvent};
use doma_storage::Version;
use std::collections::HashMap;

/// Search budgets and toggles.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Maximum number of interior states to expand before giving up
    /// (the node budget; the report is then marked incomplete).
    pub max_states: u64,
    /// Maximum dispatches along any single path (the depth budget).
    pub max_depth: usize,
    /// Apply sleep-set partial-order reduction (on by default; turning
    /// it off is useful to measure how much it prunes).
    pub sleep_sets: bool,
    /// On violation, re-search breadth-first for a globally shortest
    /// counterexample trace.
    pub minimize: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            max_states: 200_000,
            max_depth: 400,
            sleep_sets: true,
            minimize: true,
        }
    }
}

/// One dispatched choice in a counterexample trace.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The engine sequence number dispatched (stable under replay).
    pub seq: u64,
    /// Human-readable label of the delivered event.
    pub label: String,
}

/// A violation together with the delivery schedule that reaches it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The invariant violation the schedule triggers.
    pub violation: Violation,
    /// The dispatched events, in order.
    pub steps: Vec<TraceStep>,
    /// Whether `steps` is a globally shortest trace (breadth-first
    /// re-search) rather than the first one the DFS found.
    pub minimized: bool,
    /// Rendered metric table from replaying `steps` on an instrumented
    /// fresh instance of the scenario: the cost and lifecycle activity
    /// of exactly the counterexample schedule. The search itself never
    /// carries observability (forks strip it), so this is recomputed
    /// deterministically from the trace after the fact.
    pub metrics: Option<String>,
}

impl Counterexample {
    /// The raw seq schedule, e.g. for [`crate::replay::replay`].
    pub fn trace(&self) -> Vec<u64> {
        self.steps.iter().map(|s| s.seq).collect()
    }

    /// A copy-pasteable reproduction line in the house replay style.
    pub fn replay_line(&self, scenario: &str, test: &str) -> String {
        format!(
            "replay: DOMA_CHECK_SCENARIO={scenario} DOMA_CHECK_TRACE={} cargo test -p doma-check {test} -- --nocapture",
            crate::replay::format_trace(&self.trace())
        )
    }
}

/// What an exhaustive (or budget-bounded) exploration found.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Scenario name.
    pub scenario: String,
    /// Interior states expanded.
    pub states_explored: u64,
    /// Individual event dispatches performed.
    pub transitions: u64,
    /// Revisited states pruned by fingerprint deduplication.
    pub states_deduped: u64,
    /// Queued events skipped because they were in a sleep set.
    pub sleep_pruned: u64,
    /// Deepest path reached, in dispatches.
    pub max_depth_seen: usize,
    /// True when the search finished without hitting a budget: every
    /// interleaving was covered (up to the soundness of the reductions).
    pub complete: bool,
    /// The violation found, if any.
    pub counterexample: Option<Counterexample>,
}

impl std::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} states explored, {} transitions, {} deduped, {} sleep-pruned, depth {} — {}{}",
            self.scenario,
            self.states_explored,
            self.transitions,
            self.states_deduped,
            self.sleep_pruned,
            self.max_depth_seen,
            match (&self.counterexample, self.complete) {
                (Some(_), _) => "VIOLATION",
                (None, true) => "exhaustive, no violation",
                (None, false) => "budget exhausted, no violation found",
            },
            match &self.counterexample {
                Some(c) => format!(
                    " [{} steps{}]",
                    c.steps.len(),
                    if c.minimized { ", minimal" } else { "" }
                ),
                None => String::new(),
            }
        )
    }
}

/// Whether the explorer can keep searching past a state.
pub(crate) enum Progress {
    /// The queue holds events: branch on them.
    Ready,
    /// All phases drained — a leaf of the search.
    Done,
}

pub(crate) enum Stop {
    Violation(Box<Counterexample>),
    Budget,
}

/// A point in the search: the cluster fork, the auditor riding along,
/// and the scenario cursor.
pub(crate) struct SearchState {
    pub(crate) sim: ProtocolSim,
    pub(crate) checker: InvariantChecker,
    /// Next phase to inject once the queue drains.
    pub(crate) phase: usize,
    /// Versions written by the current phase (committed-floor rule at
    /// the next barrier).
    writes_this_phase: Vec<Version>,
    /// Injected-but-undispatched client reads, seq → issuing node; used
    /// to capture each read's start floor at dispatch.
    read_nodes: HashMap<u64, usize>,
    /// Dispatches taken along this path.
    pub(crate) depth: usize,
    n: usize,
    t: usize,
}

impl SearchState {
    pub(crate) fn initial(scenario: &Scenario) -> Result<Self> {
        let sim = scenario.build_sim()?;
        let n = scenario.n;
        let t = sim.config().t();
        let checker = InvariantChecker::new(&sim, n);
        Ok(SearchState {
            sim,
            checker,
            phase: 0,
            writes_this_phase: Vec::new(),
            read_nodes: HashMap::new(),
            depth: 0,
            n,
            t,
        })
    }

    pub(crate) fn fork(&self) -> Self {
        SearchState {
            sim: self.sim.fork(),
            checker: self.checker.clone(),
            phase: self.phase,
            writes_this_phase: self.writes_this_phase.clone(),
            read_nodes: self.read_nodes.clone(),
            depth: self.depth,
            n: self.n,
            t: self.t,
        }
    }

    /// Degraded as soon as any live node serves in quorum mode — the
    /// regime rule the torture harness uses.
    fn regime(&self) -> Regime {
        let engine = self.sim.engine_ref();
        let degraded = (0..self.n).any(|i| {
            let id = NodeId(i);
            engine.is_alive(id) && engine.actor(id).in_quorum_mode()
        });
        if degraded {
            Regime::Degraded
        } else {
            Regime::Normal
        }
    }

    /// Semantic fingerprint of this search point. Folds the auditor in:
    /// two identical cluster states under different audit states can
    /// still diverge on a future check.
    pub(crate) fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.sim.fingerprint().hash(&mut h);
        self.checker.fingerprint().hash(&mut h);
        self.phase.hash(&mut h);
        self.writes_this_phase.hash(&mut h);
        h.finish()
    }

    /// Audits barriers and injects phases until the queue holds events
    /// (or the scenario is exhausted).
    pub(crate) fn advance(
        &mut self,
        scenario: &Scenario,
    ) -> std::result::Result<Progress, Violation> {
        loop {
            if self.sim.engine_ref().has_pending() {
                return Ok(Progress::Ready);
            }
            // Quiescence barrier for the phase that just drained. In the
            // normal regime a write commits here — and only here — when
            // it reached at least t valid holders (the committed-write
            // rule the torture harness uses); mid-phase the floor is
            // frozen, because §3.1 promises nothing for reads overlapping
            // a write. In the degraded regime quorum evidence raises the
            // floor inside check_sim itself.
            let regime = self.regime();
            let wrote = if regime == Regime::Normal {
                self.writes_this_phase
                    .iter()
                    .max()
                    .copied()
                    .filter(|v| self.sim.holders_of(*v).len() >= self.t)
            } else {
                None
            };
            let context = format!(
                "scenario {}, barrier before phase {}",
                scenario.name, self.phase
            );
            self.checker
                .check_sim(&self.sim, None, regime, wrote, &context)?;
            self.writes_this_phase.clear();
            if self.phase >= scenario.phases.len() {
                return Ok(Progress::Done);
            }
            let actions = scenario.phases[self.phase].clone();
            self.phase += 1;
            for action in actions {
                self.inject(action).map_err(|e| Violation::ProtocolError {
                    node: 0,
                    error: e,
                    context: format!("scenario {}: injection failed", scenario.name),
                })?;
            }
        }
    }

    fn inject(&mut self, action: Action) -> Result<()> {
        match action {
            Action::Read(p) => {
                let seq = self.sim.inject_request(doma_core::Request::read(p))?;
                self.read_nodes.insert(seq, p);
            }
            Action::Write(p) => {
                self.sim.inject_request(doma_core::Request::write(p))?;
                self.writes_this_phase.push(self.sim.latest_version());
            }
            Action::Crash(p) => {
                self.sim.engine_mut().schedule_crash(NodeId(p), 0);
            }
            Action::Recover(p) => {
                self.sim.engine_mut().schedule_recover(NodeId(p), 0);
            }
            Action::ModeChange(quorum) => {
                for i in 0..self.n {
                    self.sim
                        .engine_mut()
                        .inject(NodeId(i), 0, DomMsg::ModeChange { quorum });
                }
            }
            Action::ModeChangeAt(p, quorum) => {
                self.sim
                    .engine_mut()
                    .inject(NodeId(p), 0, DomMsg::ModeChange { quorum });
            }
        }
        Ok(())
    }

    /// Dispatches one queued event and audits the resulting state.
    pub(crate) fn step(
        &mut self,
        scenario: &Scenario,
        seq: u64,
    ) -> std::result::Result<(), Violation> {
        let read_node = self.read_nodes.remove(&seq);
        if !self.sim.dispatch_by_seq(seq) {
            // Either the seq is not queued (replaying a stale trace) or
            // the engine's event budget tripped; check_sim distinguishes.
            let context = format!("scenario {}: dispatch of seq {seq} refused", scenario.name);
            self.checker
                .check_sim(&self.sim, None, self.regime(), None, &context)?;
            return Err(Violation::ProtocolError {
                node: 0,
                error: DomaError::InvalidConfig(format!("no queued event with seq {seq}")),
                context,
            });
        }
        if let Some(node) = read_node {
            // The read just left its client: every version committed by
            // now must be visible to it, whatever the remaining delivery
            // order does.
            self.checker.note_read_started(node);
        }
        self.depth += 1;
        let context = format!(
            "scenario {}, phase {}, depth {}",
            scenario.name, self.phase, self.depth
        );
        self.checker
            .check_sim(&self.sim, None, self.regime(), None, &context)
    }
}

/// Two queued events commute iff they are handled by different nodes
/// (point-to-point medium; see the module docs).
fn independent(a_target: NodeId, b_target: NodeId) -> bool {
    a_target != b_target
}

/// `a ⊆ b` for sorted multisets.
fn multiset_subset(a: &[u64], b: &[u64]) -> bool {
    let mut ib = 0;
    for &x in a {
        loop {
            if ib >= b.len() {
                return false;
            }
            let y = b[ib];
            ib += 1;
            if y == x {
                break;
            }
            if y > x {
                return false;
            }
        }
    }
    true
}

struct Explorer<'a> {
    scenario: &'a Scenario,
    opts: &'a CheckOptions,
    /// fp → sleep-set signatures (sorted content hashes) the state was
    /// explored under. Prune only if a stored signature is a subset of
    /// the current one.
    visited: HashMap<u64, Vec<Vec<u64>>>,
    states_explored: u64,
    transitions: u64,
    states_deduped: u64,
    sleep_pruned: u64,
    max_depth_seen: usize,
    depth_truncated: bool,
}

impl Explorer<'_> {
    fn counterexample(&self, violation: Violation, trace: &[TraceStep]) -> Box<Counterexample> {
        Box::new(Counterexample {
            violation,
            steps: trace.to_vec(),
            minimized: false,
            metrics: None,
        })
    }

    fn dfs(
        &mut self,
        mut state: SearchState,
        sleep: Vec<u64>,
        trace: &mut Vec<TraceStep>,
    ) -> std::result::Result<(), Stop> {
        match state.advance(self.scenario) {
            Ok(Progress::Ready) => {}
            Ok(Progress::Done) => return Ok(()),
            Err(v) => return Err(Stop::Violation(self.counterexample(v, trace))),
        }
        if state.depth >= self.opts.max_depth {
            self.depth_truncated = true;
            return Ok(());
        }
        if self.states_explored >= self.opts.max_states {
            return Err(Stop::Budget);
        }
        self.states_explored += 1;
        self.max_depth_seen = self.max_depth_seen.max(state.depth);

        let pending = state.sim.pending_events();
        let by_seq: HashMap<u64, &PendingEvent> = pending.iter().map(|e| (e.seq(), e)).collect();
        let enabled: Vec<&PendingEvent> = pending
            .iter()
            .filter(|e| !sleep.contains(&e.seq()))
            .collect();
        self.sleep_pruned += (pending.len() - enabled.len()) as u64;
        if enabled.is_empty() {
            // Every move is asleep: each is covered by a sibling branch
            // that dispatched it earlier against the same local state.
            return Ok(());
        }

        let fp = state.fingerprint();
        let mut sig: Vec<u64> = sleep
            .iter()
            .filter_map(|s| by_seq.get(s).map(|e| e.content_hash()))
            .collect();
        sig.sort_unstable();
        if let Some(sigs) = self.visited.get(&fp) {
            if sigs.iter().any(|stored| multiset_subset(stored, &sig)) {
                self.states_deduped += 1;
                return Ok(());
            }
        }
        self.visited.entry(fp).or_default().push(sig);

        let mut explored: Vec<(u64, NodeId)> = Vec::new();
        for ev in &enabled {
            let mut child = state.fork();
            trace.push(TraceStep {
                seq: ev.seq(),
                label: ev.label().to_string(),
            });
            self.transitions += 1;
            if let Err(v) = child.step(self.scenario, ev.seq()) {
                return Err(Stop::Violation(self.counterexample(v, trace)));
            }
            let child_sleep: Vec<u64> = if self.opts.sleep_sets {
                sleep
                    .iter()
                    .copied()
                    .chain(explored.iter().map(|(s, _)| *s))
                    .filter(|s| {
                        by_seq
                            .get(s)
                            .is_some_and(|e| independent(e.target(), ev.target()))
                    })
                    .collect()
            } else {
                Vec::new()
            };
            self.dfs(child, child_sleep, trace)?;
            trace.pop();
            explored.push((ev.seq(), ev.target()));
        }
        Ok(())
    }
}

/// Exhaustively explores every delivery interleaving of `scenario`
/// within the given budgets, auditing each reached state.
pub fn check(scenario: &Scenario, opts: &CheckOptions) -> Result<CheckReport> {
    let initial = SearchState::initial(scenario)?;
    let mut explorer = Explorer {
        scenario,
        opts,
        visited: HashMap::new(),
        states_explored: 0,
        transitions: 0,
        states_deduped: 0,
        sleep_pruned: 0,
        max_depth_seen: 0,
        depth_truncated: false,
    };
    let mut trace = Vec::new();
    let outcome = explorer.dfs(initial, Vec::new(), &mut trace);
    let mut complete = !explorer.depth_truncated;
    let counterexample = match outcome {
        Ok(()) => None,
        Err(Stop::Budget) => {
            complete = false;
            None
        }
        Err(Stop::Violation(cex)) => {
            let mut cex = *cex;
            if opts.minimize {
                if let Some(short) = crate::minimize::shortest_counterexample(scenario, opts)? {
                    cex = short;
                }
            }
            // Replay the final trace on an instrumented fresh instance so
            // the report carries the metric activity of the violating
            // schedule alongside the steps.
            if let Ok((_, obs)) = crate::replay::replay_observed(scenario, &cex.trace()) {
                cex.metrics = Some(obs.metrics().snapshot().to_string());
            }
            Some(cex)
        }
    };
    Ok(CheckReport {
        scenario: scenario.name.clone(),
        states_explored: explorer.states_explored,
        transitions: explorer.transitions,
        states_deduped: explorer.states_deduped,
        sleep_pruned: explorer.sleep_pruned,
        max_depth_seen: explorer.max_depth_seen,
        complete,
        counterexample,
    })
}
