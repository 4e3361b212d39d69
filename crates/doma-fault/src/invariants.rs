//! The invariant checker: after every step of a fault schedule, asserts
//! the paper's safety properties on the live cluster state. Both drivers
//! — the sampled torture episodes and the exhaustive explorer — hand it
//! the cluster and nothing else: the rules that decide which invariants
//! apply live here.
//!
//! * **Regime.** The cluster is *degraded* as soon as a live node serves
//!   in quorum mode, and *normal* otherwise. Normal-mode SA/DA is not
//!   loss-tolerant by design, so t-availability is asserted only in the
//!   normal regime.
//! * **t-availability** (§3.1): in normal mode the valid-replica set of
//!   the object never silently drops below `t` — stable storage of
//!   crashed processors counts, because their replicas survive the crash
//!   and are replayed from the redo log on recovery.
//! * **One-copy semantics** (§2, through quorum mode): every *completed*
//!   read returns a version at least as new as the committed floor at the
//!   time the read was issued. In the normal regime the floor rises with
//!   a write the caller names, once at least `t` replicas validly hold it
//!   (the paper promises nothing more when `t` or more processors are
//!   down); in the degraded regime, with quorum evidence — the highest
//!   version validly held by a majority of stores. Blocked reads (server
//!   crashed, quorum unreachable) never complete and are therefore never
//!   audited: safety, not liveness, is checked.
//! * **Cost conservation**: `SimReport.cost` tallies are component-wise
//!   non-decreasing, and the pre-failure snapshot taken by
//!   [`FailoverDriver`](doma_protocol::failover::FailoverDriver) never
//!   exceeds the running totals (failure overhead is attributed
//!   separately, per that type's contract).
//!
//! Two low-level guards back these up: per-node store versions are
//! monotone (a delayed or duplicated message must never regress a
//! replica), and no node records a protocol error.

use doma_core::{CostVector, DomaError};
use doma_protocol::ProtocolSim;
use doma_sim::NodeId;
use doma_storage::Version;
use std::collections::VecDeque;
use std::fmt;

/// One detected invariant violation. `context` is the step description
/// the driver passed to [`InvariantChecker::check`].
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A cost tally decreased.
    CostRegression {
        /// Tallies at the previous check.
        before: CostVector,
        /// Tallies now.
        after: CostVector,
        /// Step description.
        context: String,
    },
    /// The pre-failure cost snapshot exceeds the running totals.
    AttributionInverted {
        /// The snapshot the driver passed as `normal_cost`.
        normal: CostVector,
        /// Tallies now.
        total: CostVector,
        /// Step description.
        context: String,
    },
    /// Normal mode, yet fewer than `t` valid replicas exist.
    AvailabilityBelowT {
        /// Valid holders observed (crashed nodes' stable stores count).
        holders: usize,
        /// The configured threshold.
        t: usize,
        /// Step description.
        context: String,
    },
    /// A completed read returned a version older than the committed floor.
    StaleRead {
        /// The reading node.
        node: usize,
        /// The version the read returned (`None` = no data assembled).
        version: Option<Version>,
        /// The committed floor the read should have observed.
        floor: Version,
        /// Step description.
        context: String,
    },
    /// A node's local replica went backwards in version.
    VersionRegression {
        /// The node.
        node: usize,
        /// Version at the previous check.
        before: Version,
        /// Version now.
        after: Version,
        /// Step description.
        context: String,
    },
    /// A node recorded a protocol error (e.g. a misrouted object).
    ProtocolError {
        /// The node.
        node: usize,
        /// The recorded error.
        error: DomaError,
        /// Step description.
        context: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::CostRegression {
                before,
                after,
                context,
            } => write!(
                f,
                "[{context}] cost tallies regressed: {before:?} -> {after:?}"
            ),
            Violation::AttributionInverted {
                normal,
                total,
                context,
            } => write!(
                f,
                "[{context}] normal-mode snapshot {normal:?} exceeds running total {total:?}"
            ),
            Violation::AvailabilityBelowT {
                holders,
                t,
                context,
            } => write!(
                f,
                "[{context}] t-availability violated: {holders} valid replica(s), need t={t}"
            ),
            Violation::StaleRead {
                node,
                version,
                floor,
                context,
            } => write!(
                f,
                "[{context}] one-copy violated: node {node} read {version:?}, \
                 committed floor is {floor:?}"
            ),
            Violation::VersionRegression {
                node,
                before,
                after,
                context,
            } => write!(
                f,
                "[{context}] node {node} replica regressed {before:?} -> {after:?}"
            ),
            Violation::ProtocolError {
                node,
                error,
                context,
            } => write!(
                f,
                "[{context}] node {node} recorded protocol error: {error}"
            ),
        }
    }
}

/// Stateful auditor over a [`ProtocolSim`]: call
/// [`InvariantChecker::check`] after every step (request executed, fault
/// injected, crash, heal, single delivery) and it compares the cluster
/// against what the previous steps committed. Single-object clusters
/// (object 0) only — the shape every torture and checker scenario uses.
///
/// `Clone` so a model checker can carry an independent copy of the
/// auditor down each branch of its state-space search (the checker state
/// — floor, start floors, last versions — is part of the explored state).
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    n: usize,
    t: usize,
    quorum: usize,
    last_cost: CostVector,
    /// Committed floor: every read completing from now on must return at
    /// least this version.
    floor: Version,
    /// Last observed replica version per node (valid or stale).
    node_versions: Vec<Option<Version>>,
    /// Floors captured when a read was *issued* (per node, FIFO). A model
    /// checker stepping individual deliveries registers each read via
    /// [`InvariantChecker::note_read_started`]; the audit then holds the
    /// read to the floor it observed at start rather than the current one,
    /// which is the strongest sound bound when reads overlap in-flight
    /// quorum writes (a read issued before a write quorum assembled may
    /// legally return the old version). Empty when driven at quiescence
    /// (the torture-harness path), where both floors coincide.
    read_start_floors: Vec<VecDeque<Version>>,
}

impl InvariantChecker {
    /// Captures the initial state of a freshly built cluster and starts
    /// recording completed reads on every node, for
    /// [`InvariantChecker::check`] to take and audit.
    pub fn new(sim: &mut ProtocolSim) -> Self {
        let n = sim.engine_ref().node_count();
        let t = sim.config().t();
        for i in 0..n {
            sim.engine_mut().actor_mut(NodeId(i)).record_reads();
        }
        let node_versions = (0..n)
            .map(|i| sim.engine_ref().actor(NodeId(i)).replica_version())
            .collect();
        InvariantChecker {
            n,
            t,
            quorum: n / 2 + 1,
            last_cost: sim.report().cost,
            floor: Version::INITIAL,
            node_versions,
            read_start_floors: vec![VecDeque::new(); n],
        }
    }

    /// Records that `node` just issued a read: the read, once it
    /// completes, must return at least the *current* committed floor.
    /// Mid-flight model checking only — callers driving the cluster to
    /// quiescence between requests never need this.
    pub fn note_read_started(&mut self, node: usize) {
        if node < self.n {
            self.read_start_floors[node].push_back(self.floor);
        }
    }

    /// The current committed floor (what the next completed read must at
    /// least return).
    pub fn committed_floor(&self) -> Version {
        self.floor
    }

    /// A hash of the auditor's own state (floor, the start floors of
    /// reads in flight, last seen versions and tallies). A model checker
    /// must fold this into its state fingerprints: two identical cluster
    /// states under *different* audit states can still diverge on a
    /// future check. Reads already audited are not part of it: a future
    /// audit depends only on the floor and the start floors.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.floor.hash(&mut h);
        self.node_versions.hash(&mut h);
        self.read_start_floors.hash(&mut h);
        self.last_cost.control.hash(&mut h);
        self.last_cost.data.hash(&mut h);
        self.last_cost.io.hash(&mut h);
        h.finish()
    }

    /// Audits the cluster after one step and returns the first violation
    /// found, if any. Takes every node's recorded reads and audits them,
    /// so a node holds at most one step's reads.
    ///
    /// `normal_cost` is the pre-failure snapshot when one exists (a
    /// `FailoverDriver`'s `normal_mode_cost`; drives the attribution
    /// invariant). `wrote` is the newest version a write produced during
    /// the step, if any: it raises the committed floor only in the normal
    /// regime, and only once at least `t` replicas validly hold it.
    pub fn check(
        &mut self,
        sim: &mut ProtocolSim,
        normal_cost: Option<CostVector>,
        wrote: Option<Version>,
        context: &str,
    ) -> Result<(), Violation> {
        // A tripped event budget means the cluster never quiesced: the
        // state below would be a lie, and the run is a protocol error.
        if sim.engine_ref().budget_exhausted() {
            return Err(Violation::ProtocolError {
                node: 0,
                error: DomaError::EventBudgetExceeded {
                    dispatched: sim.engine_ref().dispatched(),
                },
                context: context.into(),
            });
        }
        let cost = sim.report().cost;

        // Cost conservation: tallies only grow.
        if cost.control < self.last_cost.control
            || cost.data < self.last_cost.data
            || cost.io < self.last_cost.io
        {
            return Err(Violation::CostRegression {
                before: self.last_cost,
                after: cost,
                context: context.into(),
            });
        }
        self.last_cost = cost;

        // Failure-overhead attribution: the pre-failure snapshot is a
        // lower bound of the running totals.
        if let Some(normal) = normal_cost {
            if normal.control > cost.control || normal.data > cost.data || normal.io > cost.io {
                return Err(Violation::AttributionInverted {
                    normal,
                    total: cost,
                    context: context.into(),
                });
            }
        }

        // Per-node guards: no protocol errors, no version regression.
        for i in 0..self.n {
            let node = sim.engine_ref().actor(NodeId(i));
            if let Some(error) = node.protocol_errors().first() {
                return Err(Violation::ProtocolError {
                    node: i,
                    error: error.clone(),
                    context: context.into(),
                });
            }
            let version = node.replica_version();
            if let (Some(before), Some(after)) = (self.node_versions[i], version) {
                if after < before {
                    return Err(Violation::VersionRegression {
                        node: i,
                        before,
                        after,
                        context: context.into(),
                    });
                }
            }
            if version.is_some() {
                self.node_versions[i] = version;
            }
        }

        // t-availability (normal mode only): valid replicas — including
        // crashed nodes' stable stores — never drop below t.
        let degraded = degraded(sim);
        if !degraded {
            let holders = (0..self.n)
                .filter(|&i| sim.engine_ref().actor(NodeId(i)).holds_valid())
                .count();
            if holders < self.t {
                return Err(Violation::AvailabilityBelowT {
                    holders,
                    t: self.t,
                    context: context.into(),
                });
            }
        }

        // One-copy semantics: take and audit the reads completed since the
        // last check. Each read is held to the floor captured when it was
        // issued (model-checker path,
        // [`InvariantChecker::note_read_started`]) or, absent that, the
        // floor as it stood *before* this step.
        for i in 0..self.n {
            let node = sim.engine_mut().actor_mut(NodeId(i));
            for read in node.take_recorded_reads() {
                // Reads complete FIFO per node, matching issue order.
                let expected = self.read_start_floors[i].pop_front().unwrap_or(self.floor);
                let got = read.version.unwrap_or(Version::INITIAL);
                if got < expected {
                    return Err(Violation::StaleRead {
                        node: i,
                        version: read.version,
                        floor: expected,
                        context: context.into(),
                    });
                }
            }
        }

        // Raise the committed floor.
        if degraded {
            // Quorum evidence: the highest version validly held by a
            // majority of stores (crashed stores count — any read
            // majority still intersects the holder set, see module
            // docs). Thanks to the missing-writes push on mode entry
            // and the store monotonicity guard, this never shrinks.
            let mut versions: Vec<Version> = (0..self.n)
                .map(|i| sim.engine_ref().actor(NodeId(i)))
                .filter(|node| node.holds_valid())
                .filter_map(|node| node.replica_version())
                .collect();
            versions.sort_unstable_by(|a, b| b.cmp(a));
            if versions.len() >= self.quorum {
                self.floor = self.floor.max(versions[self.quorum - 1]);
            }
        } else if let Some(v) = wrote.filter(|&v| sim.holders_of(v).len() >= self.t) {
            // A normal-mode write commits once it reached t valid
            // replicas. With crashed execution-set members it can land on
            // fewer: the paper assumes fewer than t failures, and the
            // auditor must not assert more than the protocol promises.
            self.floor = self.floor.max(v);
        }
        Ok(())
    }
}

/// Degraded as soon as any live node serves in quorum mode; a crashed
/// node's stale mode flag does not count.
fn degraded(sim: &ProtocolSim) -> bool {
    let engine = sim.engine_ref();
    (0..engine.node_count())
        .any(|i| engine.is_alive(NodeId(i)) && engine.actor(NodeId(i)).in_quorum_mode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::{ProcSet, ProcessorId, Request};
    use doma_protocol::failover::FailoverDriver;
    use doma_protocol::DomMsg;
    use doma_sim::{FaultAction, FaultPlan, FaultRule, LinkFilter, MsgKind};

    fn da_sim(n: usize) -> ProtocolSim {
        ProtocolSim::new_da(n, ProcSet::from_iter([0usize]), ProcessorId::new(1)).unwrap()
    }

    fn da_driver(n: usize) -> FailoverDriver {
        FailoverDriver::new(da_sim(n), n)
    }

    fn audit(
        checker: &mut InvariantChecker,
        d: &mut FailoverDriver,
        wrote: Option<Version>,
        context: &str,
    ) -> Result<(), Violation> {
        let normal_cost = d.normal_mode_cost();
        checker.check(d.sim_mut(), normal_cost, wrote, context)
    }

    #[test]
    fn healthy_run_passes_every_check() {
        let mut d = da_driver(5);
        let mut checker = InvariantChecker::new(d.sim_mut());
        for (i, req) in [
            Request::read(3usize),
            Request::write(2usize),
            Request::read(4usize),
            Request::write(0usize),
            Request::read(2usize),
        ]
        .into_iter()
        .enumerate()
        {
            d.execute_request(req).unwrap();
            let wrote = (!req.is_read()).then(|| d.sim().latest_version());
            audit(&mut checker, &mut d, wrote, &format!("req {i}")).unwrap();
        }
        assert_eq!(checker.committed_floor(), Version(2));
    }

    #[test]
    fn floor_rises_with_quorum_evidence_in_degraded_mode() {
        let mut d = da_driver(5);
        let mut checker = InvariantChecker::new(d.sim_mut());
        d.crash(ProcessorId::new(0)).unwrap(); // core down -> quorum mode
        audit(&mut checker, &mut d, None, "crash").unwrap();
        d.execute_request(Request::write(2usize)).unwrap();
        audit(&mut checker, &mut d, None, "w2").unwrap();
        assert_eq!(
            checker.committed_floor(),
            d.sim().latest_version(),
            "quorum write must commit"
        );
        d.execute_request(Request::read(4usize)).unwrap();
        audit(&mut checker, &mut d, None, "r4").unwrap();
    }

    #[test]
    fn failover_and_heal_keep_invariants() {
        let mut d = da_driver(5);
        let mut checker = InvariantChecker::new(d.sim_mut());
        d.execute_request(Request::write(3usize)).unwrap();
        let v = d.sim().latest_version();
        audit(&mut checker, &mut d, Some(v), "w3").unwrap();
        d.crash(ProcessorId::new(0)).unwrap();
        audit(&mut checker, &mut d, None, "crash 0").unwrap();
        // The missing-writes push on mode entry keeps v quorum-visible.
        d.execute_request(Request::read(4usize)).unwrap();
        audit(&mut checker, &mut d, None, "r4").unwrap();
        d.heal().unwrap();
        audit(&mut checker, &mut d, None, "heal").unwrap();
        d.execute_request(Request::read(2usize)).unwrap();
        audit(&mut checker, &mut d, None, "r2").unwrap();
        assert!(checker.committed_floor() >= v);
    }

    #[test]
    fn a_write_below_t_holders_does_not_raise_the_floor() {
        // DA with F = {0}, p = 1 (t = 2): the floater's write lands on
        // {0, 1}. Eating its propagation to the core leaves one holder.
        for eaten in [false, true] {
            let mut sim = da_sim(5);
            let mut checker = InvariantChecker::new(&mut sim);
            if eaten {
                let link = LinkFilter::link(NodeId(1), NodeId(0)).of_kind(MsgKind::Data);
                let plan = FaultPlan::new(0).rule(FaultRule::always(link, FaultAction::Drop));
                sim.engine_mut().install_faults(plan);
            }
            sim.execute_request(Request::write(1usize)).unwrap();
            let v = sim.latest_version();
            assert_eq!(sim.holders_of(v).len(), if eaten { 1 } else { 2 });
            checker.check(&mut sim, None, Some(v), "w1").unwrap();
            let floor = if eaten { Version::INITIAL } else { v };
            assert_eq!(checker.committed_floor(), floor, "eaten: {eaten}");
        }
    }

    #[test]
    fn only_a_live_node_in_quorum_mode_degrades_the_regime() {
        let mut sim = da_sim(5);
        assert!(!degraded(&sim));
        let quorum = DomMsg::ModeChange { quorum: true };
        sim.engine_mut().inject(NodeId(2), 0, quorum);
        sim.settle().unwrap();
        assert!(degraded(&sim), "a live node serves in quorum mode");
        sim.engine_mut().schedule_crash(NodeId(2), 0);
        sim.settle().unwrap();
        assert!(sim.engine_ref().actor(NodeId(2)).in_quorum_mode());
        assert!(!degraded(&sim), "a crashed node's mode flag must not count");
    }

    #[test]
    fn stale_read_is_flagged() {
        // Manufacture a violation without touching the cluster: floor at
        // 5, then a read completing at version 1.
        let mut d = da_driver(4);
        let mut checker = InvariantChecker::new(d.sim_mut());
        checker.floor = Version(5);
        d.execute_request(Request::read(3usize)).unwrap();
        let err = audit(&mut checker, &mut d, None, "stale").unwrap_err();
        match &err {
            Violation::StaleRead { floor, .. } => assert_eq!(*floor, Version(5)),
            other => panic!("expected StaleRead, got {other}"),
        }
        assert!(err.to_string().contains("one-copy"), "{err}");
    }
}
