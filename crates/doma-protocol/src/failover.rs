//! Failure handling — the §2 sketch, made concrete.
//!
//! The paper proposes that DA "handles failures by resorting to quorum
//! consensus with static allocation when a processor of the set F fails",
//! transitioning via the missing-writes algorithm, with details omitted.
//! This module implements a faithful, testable version of that sketch:
//!
//! 1. a failure detector (played by the experiment driver) notices a core
//!    member crash and broadcasts `ModeChange { quorum: true }`;
//! 2. while in quorum mode, reads and writes go to majorities, so any read
//!    quorum intersects any write quorum and observes the latest version;
//! 3. when the member recovers, it first performs a `CatchUp` quorum read
//!    (resolving its missing writes) and the driver then broadcasts
//!    `ModeChange { quorum: false }`, resuming normal DA.
//!
//! The mode-switch and catch-up messages are *failure-handling overhead*
//! outside the paper's normal-mode cost analysis; [`FailoverDriver`]
//! reports them separately so the normal-mode tallies stay comparable.

use crate::{DomMsg, ProtocolSim};
use doma_core::{CostVector, ProcessorId, Request, Result};
use doma_sim::NodeId;
use doma_storage::Version;

/// Orchestrates crash/recovery around a [`ProtocolSim`], tracking which
/// tallies belong to normal operation vs failure handling.
pub struct FailoverDriver {
    sim: ProtocolSim,
    n: usize,
    crashed: Vec<bool>,
    /// Tallies recorded before the current failure episode started.
    normal_cost_before_failure: Option<CostVector>,
    /// A core-member crash was scheduled mid-schedule and the failure
    /// detector has not reacted yet (it reacts at the next quiescence).
    pending_detection: bool,
    /// Whether a quorum-mode broadcast is currently in force. Gating the
    /// `ModeChange { quorum: false }` broadcasts on this matters: the
    /// false-broadcast is *destructive* (it resets DA allocation to
    /// F ∪ {p}, invalidating the current floater), so sending one after
    /// an episode that never engaged quorum mode — e.g. a non-core crash
    /// — would itself break t-availability.
    quorum_engaged: bool,
    /// Test-only reverted fix: broadcast the destructive
    /// `ModeChange { quorum: false }` after every recovery, as the
    /// pre-hardening driver did, even when quorum mode never engaged.
    bug_destructive_mode_reset: bool,
}

impl FailoverDriver {
    /// Wraps a cluster.
    pub fn new(sim: ProtocolSim, n: usize) -> Self {
        FailoverDriver {
            sim,
            n,
            crashed: vec![false; n],
            normal_cost_before_failure: None,
            pending_detection: false,
            quorum_engaged: false,
            bug_destructive_mode_reset: false,
        }
    }

    /// Reverts the quorum-engaged gating of the destructive
    /// `ModeChange { quorum: false }` broadcast (regression tests only).
    #[doc(hidden)]
    pub fn set_destructive_mode_reset(&mut self, on: bool) {
        self.bug_destructive_mode_reset = on;
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &ProtocolSim {
        &self.sim
    }

    /// Mutable access to the wrapped simulator.
    pub fn sim_mut(&mut self) -> &mut ProtocolSim {
        &mut self.sim
    }

    /// Whether `p` is a member of the protocol's home allocation scheme —
    /// DA's `F ∪ {p}` or SA's `Q`. A crash of any such member endangers
    /// the next write: DA execution sets snap back to `F ∪ {p}` on
    /// core-or-floater writes and SA always writes all of `Q`, so a data
    /// message would target the crashed member and its copy would be
    /// silently lost. The failure detector therefore falls back to quorum
    /// mode for the whole scheme, not just the core.
    fn in_home_scheme(&self, p: ProcessorId) -> bool {
        match self.sim.config() {
            // An adaptive scheme moves with the workload, so any node can
            // be (or become) a scheme member: every crash endangers the
            // next write and triggers the quorum fallback.
            crate::ProtocolConfig::Adaptive { .. } => true,
            config @ (crate::ProtocolConfig::Sa { .. } | crate::ProtocolConfig::Da { .. }) => {
                config.initial_scheme().contains(p)
            }
        }
    }

    /// Crashes a processor. If it is a member of the home allocation
    /// scheme, the cluster is switched to quorum mode (the paper's
    /// fallback). Fails if a settle trips the event budget.
    pub fn crash(&mut self, p: ProcessorId) -> Result<()> {
        let was_scheme = self.in_home_scheme(p);
        if self.normal_cost_before_failure.is_none() {
            self.normal_cost_before_failure = Some(self.sim.report().cost);
        }
        self.crashed[p.index()] = true;
        let node = NodeId(p.index());
        self.sim.engine_mut().schedule_crash(node, 0);
        self.sim.settle()?;
        if was_scheme {
            self.broadcast_mode(true)?;
        }
        Ok(())
    }

    /// Schedules a crash of `p` after `delay` ticks *without* running the
    /// cluster to quiescence first — the crash lands in the middle of
    /// whatever the next [`FailoverDriver::execute_request`] sets in
    /// motion (a write's propagation, a read's round trip). The failure
    /// detector reacts at the next quiescence, exactly like a real
    /// timeout-based detector that only notices once traffic stalls.
    pub fn crash_in(&mut self, p: ProcessorId, delay: u64) {
        let was_scheme = self.in_home_scheme(p);
        if self.normal_cost_before_failure.is_none() {
            self.normal_cost_before_failure = Some(self.sim.report().cost);
        }
        self.crashed[p.index()] = true;
        self.sim
            .engine_mut()
            .schedule_crash(NodeId(p.index()), delay);
        self.pending_detection |= was_scheme;
    }

    /// Recovers a processor: replays its log, performs the missing-writes
    /// catch-up, and — once no home-scheme member remains down — returns
    /// the cluster to normal mode. Fails if a settle trips the event
    /// budget.
    pub fn recover(&mut self, p: ProcessorId) -> Result<()> {
        self.crashed[p.index()] = false;
        let node = NodeId(p.index());
        self.sim.engine_mut().schedule_recover(node, 0);
        self.sim.settle()?;
        if self.quorum_engaged {
            // Re-sync the recovered node's mode flag *before* its
            // catch-up (it may have crashed before the original
            // broadcast, and a catch-up in the wrong mode fetches from
            // the wrong place); the missing-writes push riding on the
            // broadcast also refreshes it.
            self.broadcast_mode(true)?;
        }
        // Missing-writes transition: quorum-read the latest version of
        // every object in the catalog (scheme-fetch in normal mode).
        let objects: Vec<doma_core::ObjectId> = self.sim.catalog().keys().copied().collect();
        for object in objects {
            self.sim
                .engine_mut()
                .inject(node, 1, DomMsg::CatchUp { object });
            self.sim.settle()?;
        }
        let any_scheme_down = match self.sim.config() {
            // Adaptive: every node is a potential scheme member (see
            // `in_home_scheme`), so normal mode resumes only with the
            // whole cluster live.
            crate::ProtocolConfig::Adaptive { .. } => self.crashed.iter().any(|&c| c),
            config @ (crate::ProtocolConfig::Sa { .. } | crate::ProtocolConfig::Da { .. }) => {
                config
                    .initial_scheme()
                    .iter()
                    .any(|m| self.crashed[m.index()])
            }
        };
        if !any_scheme_down && (self.quorum_engaged || self.bug_destructive_mode_reset) {
            // Normal mode resumes only once the whole home scheme is back
            // (the `ModeChange { quorum: false }` reset re-homes the
            // allocation to exactly that scheme, so all of it must be live
            // and refreshed).
            self.broadcast_mode(false)?;
        }
        Ok(())
    }

    fn broadcast_mode(&mut self, quorum: bool) -> Result<()> {
        self.quorum_engaged = quorum;
        if !quorum {
            // The `ModeChange { quorum: false }` transition snaps every
            // adaptive object's replica set back to its initial scheme;
            // the driver-side oracles must agree or their plans would
            // reference replicas that no longer exist.
            self.sim.reset_adaptive_oracles();
        }
        for i in 0..self.n {
            if !self.crashed[i] {
                self.sim
                    .engine_mut()
                    .inject(NodeId(i), 0, DomMsg::ModeChange { quorum });
            }
        }
        self.sim.settle().map(|_| ())
    }

    /// Broadcasts a mode change to every live node — the failure
    /// detector's interface, exposed so fault-injection harnesses can
    /// degrade the cluster *before* making the network lossy (quorum mode
    /// is the only mode whose reads and writes tolerate message loss) and
    /// restore it afterwards.
    pub fn set_quorum_mode(&mut self, quorum: bool) -> Result<()> {
        self.broadcast_mode(quorum)
    }

    /// Full repair after an arbitrary fault episode: recovers every
    /// crashed processor, runs a missing-writes [`DomMsg::CatchUp`] on
    /// every node for every object (partition/loss faults can leave *any*
    /// node behind, not just crashed ones), and returns the cluster to
    /// normal mode. Fails if a settle trips the event budget.
    pub fn heal(&mut self) -> Result<()> {
        for i in 0..self.n {
            if self.crashed[i] {
                self.recover(ProcessorId::new(i))?;
            }
        }
        let objects: Vec<doma_core::ObjectId> = self.sim.catalog().keys().copied().collect();
        for i in 0..self.n {
            for object in &objects {
                self.sim
                    .engine_mut()
                    .inject(NodeId(i), 1, DomMsg::CatchUp { object: *object });
                self.sim.settle()?;
            }
        }
        if self.quorum_engaged || self.bug_destructive_mode_reset {
            self.broadcast_mode(false)?;
        }
        Ok(())
    }

    /// Whether `p` is currently crashed (as far as the driver knows).
    pub fn is_crashed(&self, p: ProcessorId) -> bool {
        self.crashed[p.index()]
    }

    /// Executes a request in whatever mode the cluster is in. If a crash
    /// scheduled via [`FailoverDriver::crash_in`] landed during the
    /// request, the failure detector reacts once the cluster quiesces.
    pub fn execute_request(&mut self, request: Request) -> Result<()> {
        self.sim.execute_request(request)?;
        if self.pending_detection {
            self.pending_detection = false;
            self.broadcast_mode(true)?;
        }
        Ok(())
    }

    /// The normal-mode tallies recorded just before the first failure (so
    /// failure-handling overhead can be separated out in reports), if a
    /// failure has occurred.
    pub fn normal_mode_cost(&self) -> Option<CostVector> {
        self.normal_cost_before_failure
    }

    /// The number of live processors holding the given version validly.
    pub fn live_holders_of(&self, version: Version) -> usize {
        self.sim
            .holders_of(version)
            .iter()
            .filter(|p| !self.crashed[p.index()])
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::ProcSet;
    use doma_sim::NodeId;

    fn ps(v: &[usize]) -> ProcSet {
        v.iter().copied().collect()
    }

    fn da_cluster(n: usize) -> FailoverDriver {
        let sim = ProtocolSim::new_da(n, ps(&[0]), ProcessorId::new(1)).unwrap();
        FailoverDriver::new(sim, n)
    }

    #[test]
    fn core_crash_switches_to_quorum_mode() {
        let mut d = da_cluster(5);
        d.crash(ProcessorId::new(0)).unwrap();
        for i in 1..5 {
            assert!(
                d.sim().engine_ref_actor_in_quorum(i),
                "node {i} should be in quorum mode"
            );
        }
    }

    #[test]
    fn writes_survive_core_failure_and_reads_see_them() {
        let mut d = da_cluster(5);
        d.crash(ProcessorId::new(0)).unwrap();
        // A write in quorum mode reaches a majority of the 5 nodes.
        d.execute_request(Request::write(3usize)).unwrap();
        let v = d.sim().latest_version();
        assert!(
            d.live_holders_of(v) >= 3,
            "quorum write must reach a live majority"
        );
        // A quorum read from any node observes the latest version.
        d.execute_request(Request::read(4usize)).unwrap();
        let report = d.sim().report();
        assert_eq!(report.reads_completed, 1);
    }

    #[test]
    fn recovery_catches_up_missing_writes_and_resumes_normal_mode() {
        let mut d = da_cluster(5);
        d.crash(ProcessorId::new(0)).unwrap();
        // Two writes happen while the core member is down.
        d.execute_request(Request::write(2usize)).unwrap();
        d.execute_request(Request::write(3usize)).unwrap();
        let v = d.sim().latest_version();
        d.recover(ProcessorId::new(0)).unwrap();
        // The recovered core member holds the latest version again.
        assert!(
            d.sim().holders_of(v).contains(ProcessorId::new(0)),
            "missing-writes catch-up must bring the core member current"
        );
        // Cluster is back in normal mode everywhere.
        for i in 0..5 {
            assert!(!d.sim().engine_ref_actor_in_quorum(i));
        }
        // Normal DA service works again: a non-member saving-read.
        d.execute_request(Request::read(4usize)).unwrap();
        assert!(d.sim().holders_of(v).contains(ProcessorId::new(4)));
    }

    #[test]
    fn non_core_crash_does_not_trigger_quorum_mode() {
        let mut d = da_cluster(5);
        d.crash(ProcessorId::new(4)).unwrap();
        assert!(!d.sim().engine_ref_actor_in_quorum(2));
        // Normal operation continues for live nodes.
        d.execute_request(Request::read(3usize)).unwrap();
        assert_eq!(d.sim().report().reads_completed, 1);
    }

    #[test]
    fn availability_invariant_under_single_failure() {
        // t = 2: after any single crash and a subsequent write, at least
        // one *live* processor still serves the latest version in normal
        // mode, and a majority does in quorum mode.
        let mut d = da_cluster(5);
        d.execute_request(Request::write(2usize)).unwrap();
        d.crash(ProcessorId::new(0)).unwrap(); // core member down → quorum mode
        d.execute_request(Request::write(3usize)).unwrap();
        let v = d.sim().latest_version();
        assert!(d.live_holders_of(v) >= 2, "t=2 availability must survive");
    }

    impl ProtocolSim {
        /// Test-only peek: is node `i` in quorum mode?
        fn engine_ref_actor_in_quorum(&self, i: usize) -> bool {
            // SAFETY of design: Engine::actor is &self access.
            self.engine_ref().actor(NodeId(i)).in_quorum_mode()
        }
    }
}
