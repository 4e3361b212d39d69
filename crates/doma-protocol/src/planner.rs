//! Driver-side request planning, shared by the sim driver and the real
//! (socket) runtime.
//!
//! [`ProtocolSim`](crate::ProtocolSim) historically owned three pieces of
//! driver state: the per-object write-version counter, the adaptive
//! [`PlanOracle`]s, and the allocation scheme each oracle believes is
//! current. The real-runtime cluster driver in `doma-net` needs *exactly*
//! the same state advanced by *exactly* the same rules — same validation,
//! same version numbering, same payload bytes, same plan mapping — or the
//! twin comparison against the sim oracle is meaningless. So the whole
//! thing lives here as [`ClientPlanner`], and both drivers call
//! [`ClientPlanner::plan`] to turn a [`Request`] into the client
//! [`DomMsg`] they inject.

use crate::catalog::ObjectCatalog;
use crate::sim::PlanOracle;
use crate::{DomMsg, ReadPlan, WritePlan};
use doma_core::{
    scheme_after, AllocatedRequest, Decision, DomaError, ObjectId, ProcSet, Request, Result,
};
use doma_sim::NodeId;
use doma_storage::{Payload, Version};
use std::io::Write;

/// A client request turned into the wire message a driver injects.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedRequest {
    /// The issuing node (requests are always delivered to their issuer —
    /// the client "is at" the processor that wants the operation).
    pub to: NodeId,
    /// The client message to deliver: `ClientRead` or `ClientWrite`, with
    /// the adaptive plan attached when an oracle governs the object.
    pub msg: DomMsg,
    /// The oracle's raw decision, when one ran — the sim driver records
    /// it as a `protocol.plan` obs event; `None` for SA/DA objects.
    pub decision: Option<Decision>,
}

/// What the planner keeps about one object.
struct ObjectPlan {
    /// The next write version.
    next_version: Version,
    /// Adaptive objects only: the live decision oracle — deterministic,
    /// its state a pure function of the planned request sequence — and
    /// the allocation scheme it believes is current, folded per decision
    /// with [`scheme_after`]: the `Y` the write plans' invalidation sets
    /// are computed from.
    oracle: Option<(Box<dyn PlanOracle>, ProcSet)>,
}

impl Clone for ObjectPlan {
    /// Deep copy: the oracle via [`PlanOracle::clone_box`].
    fn clone(&self) -> Self {
        ObjectPlan {
            next_version: self.next_version,
            oracle: self
                .oracle
                .as_ref()
                .map(|(oracle, scheme)| (oracle.clone_box(), *scheme)),
        }
    }
}

/// The deterministic planning state of a protocol driver: per object, the
/// write-version counter and — for adaptive objects — the oracle with the
/// allocation scheme it tracks.
///
/// Two drivers constructed with the same catalog and oracles that feed the
/// same request sequence through [`ClientPlanner::plan`] produce the same
/// message sequence byte for byte — the foundation of the sim-vs-socket
/// twin check.
pub struct ClientPlanner {
    n: usize,
    /// One record per catalogued object (doubles as the catalog
    /// membership set for validation).
    objects: ObjectCatalog<ObjectPlan>,
}

impl ClientPlanner {
    /// A planner for a cluster of `n` nodes serving `objects`. Write
    /// versions start just above [`Version::INITIAL`] (the preloaded
    /// replica); no oracles — install them with
    /// [`ClientPlanner::install_oracle`].
    pub fn new(n: usize, objects: impl IntoIterator<Item = ObjectId>) -> Self {
        let fresh = |object| {
            let plan = ObjectPlan {
                next_version: Version::INITIAL.next(),
                oracle: None,
            };
            (object, plan)
        };
        ClientPlanner {
            n,
            objects: ObjectCatalog::from_map(objects.into_iter().map(fresh).collect()),
        }
    }

    /// Cluster size this planner validates issuers against.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Installs (and resets) the adaptive oracle governing `object`; its
    /// tracked scheme starts at the oracle's initial scheme. An object
    /// outside the catalog has no request to plan, so its oracle is
    /// dropped.
    pub fn install_oracle(&mut self, object: ObjectId, mut oracle: Box<dyn PlanOracle>) {
        if let Some(slot) = self.objects.slot(object) {
            oracle.reset();
            let scheme = oracle.initial_scheme();
            self.objects[slot].oracle = Some((oracle, scheme));
        }
    }

    /// Resets every oracle to its initial state (scheme included) — the
    /// failover driver's companion to `ModeChange { quorum: false }`.
    /// Write versions keep counting.
    pub fn reset_oracles(&mut self) {
        for (oracle, scheme) in self.objects.records_mut().filter_map(|o| o.oracle.as_mut()) {
            oracle.reset();
            *scheme = oracle.initial_scheme();
        }
    }

    /// The highest version of `object` written so far (INITIAL if none).
    ///
    /// # Panics
    /// If `object` is not in the catalog.
    pub fn latest_version(&self, object: ObjectId) -> Version {
        let slot = self.objects.slot(object);
        assert!(slot.is_some(), "{object} not in the cluster's catalog");
        Version(slot.map_or(0, |slot| self.objects[slot].next_version.0 - 1))
    }

    /// Validates `request` against the cluster and catalog, runs the
    /// object's oracle (if any), assigns the write version, and builds the
    /// client message. Errors leave the planner untouched: an invalid
    /// request advances neither oracle state nor version counters.
    pub fn plan(&mut self, object: ObjectId, request: Request) -> Result<PlannedRequest> {
        if request.issuer.index() >= self.n {
            return Err(DomaError::InvalidConfig(format!(
                "request {request} outside cluster of {}",
                self.n
            )));
        }
        let Some(slot) = self.objects.slot(object) else {
            return Err(DomaError::InvalidConfig(format!(
                "{object} not in the cluster's catalog"
            )));
        };
        let record = &mut self.objects[slot];
        let to = NodeId(request.issuer.index());
        let (read_plan, write_plan, decision) = match record.oracle.as_mut() {
            Some((oracle, scheme)) => {
                let (r, w, d) = decide(oracle.as_mut(), scheme, request);
                (r, w, Some(d))
            }
            None => (None, None, None),
        };
        let msg = if request.is_read() {
            DomMsg::ClientRead {
                object,
                plan: read_plan,
            }
        } else {
            let version = record.next_version;
            record.next_version = version.next();
            DomMsg::ClientWrite {
                object,
                version,
                payload: write_payload(object, version),
                plan: write_plan,
            }
        };
        Ok(PlannedRequest { to, msg, decision })
    }

    /// Deep copy (oracles included, via [`PlanOracle::clone_box`]) so a
    /// model checker's speculative branches advance independent state.
    pub fn fork(&self) -> Self {
        ClientPlanner {
            n: self.n,
            objects: self.objects.clone(),
        }
    }
}

/// Runs an adaptive object's oracle on `request`: advances the oracle and
/// its tracked `scheme`, and maps the decision to the read/write plan the
/// issuing node will execute. No validation — [`ClientPlanner::plan`] is
/// the checked entry point.
fn decide(
    oracle: &mut dyn PlanOracle,
    scheme: &mut ProcSet,
    request: Request,
) -> (Option<ReadPlan>, Option<WritePlan>, Decision) {
    let current = *scheme;
    let decision = oracle.decide(request);
    let i = request.issuer;
    let (read_plan, write_plan) = if request.is_read() {
        let server = if decision.exec.contains(i) {
            None
        } else {
            decision.exec.any_member()
        };
        let plan = ReadPlan {
            server,
            saving: decision.saving,
            fallback: current.without(i).any_member(),
        };
        (Some(plan), None)
    } else {
        let plan = WritePlan {
            exec: decision.exec,
            invalidate: current.difference(decision.exec).without(i),
            self_invalidate: current.contains(i) && !decision.exec.contains(i),
        };
        (None, Some(plan))
    };
    *scheme = scheme_after(current, &AllocatedRequest::new(request, decision));
    (read_plan, write_plan, decision)
}

/// The bytes a client writes as `version` of `object`:
/// `payload-<object>-<version>`, formatted on the stack so the payload's
/// own allocation is the only one a write plan makes.
fn write_payload(object: ObjectId, version: Version) -> Payload {
    // Nine bytes of text and two u64s in decimal come to at most 49.
    let mut buf = [0u8; 64];
    let mut rest = &mut buf[..];
    let fits = write!(rest, "payload-{}-{}", object.0, version.0).is_ok();
    debug_assert!(fits, "64 bytes hold any payload text");
    let unused = rest.len();
    Payload::from(&buf[..buf.len() - unused])
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::ProcessorId;

    const OBJ: ObjectId = ObjectId(0);

    fn planner() -> ClientPlanner {
        ClientPlanner::new(4, [OBJ])
    }

    #[test]
    fn writes_get_consecutive_versions_and_stable_payloads() {
        let mut p = planner();
        let w = Request::write(ProcessorId::new(1));
        let first = p.plan(OBJ, w).unwrap();
        let second = p.plan(OBJ, w).unwrap();
        match (&first.msg, &second.msg) {
            (
                DomMsg::ClientWrite {
                    version: v1,
                    payload: p1,
                    ..
                },
                DomMsg::ClientWrite {
                    version: v2,
                    payload: p2,
                    ..
                },
            ) => {
                assert_eq!(v1.next(), *v2);
                assert_eq!(&p1[..], b"payload-0-1");
                assert_eq!(&p2[..], b"payload-0-2");
            }
            other => panic!("expected two writes, got {other:?}"),
        }
        assert_eq!(p.latest_version(OBJ), Version(2));
    }

    #[test]
    fn the_widest_payload_fits_and_sparse_catalogs_keep_their_own_versions() {
        let last = ObjectId(u64::MAX);
        assert_eq!(
            &write_payload(last, Version(u64::MAX))[..],
            b"payload-18446744073709551615-18446744073709551615"
        );
        // Unsorted, repeated, non-contiguous ids: one counter each.
        let mut p = ClientPlanner::new(4, [last, ObjectId(7), ObjectId(7), ObjectId(3)]);
        let w = Request::write(ProcessorId::new(0));
        p.plan(ObjectId(7), w).unwrap();
        p.plan(ObjectId(7), w).unwrap();
        p.plan(last, w).unwrap();
        assert_eq!(p.latest_version(ObjectId(3)), Version::INITIAL);
        assert_eq!(p.latest_version(ObjectId(7)), Version(2));
        assert_eq!(p.latest_version(last), Version(1));
        assert!(p.plan(ObjectId(4), w).is_err());
    }

    #[test]
    fn invalid_requests_leave_state_untouched() {
        let mut p = planner();
        let err = p
            .plan(OBJ, Request::write(ProcessorId::new(9)))
            .unwrap_err();
        assert!(err.to_string().contains("outside cluster of 4"));
        let err = p
            .plan(ObjectId(7), Request::read(ProcessorId::new(0)))
            .unwrap_err();
        assert!(err.to_string().contains("not in the cluster's catalog"));
        // The failed write did not consume a version.
        assert_eq!(p.latest_version(OBJ), Version::INITIAL);
    }

    #[test]
    fn fork_and_reset_act_on_the_one_record_per_object() {
        use crate::{Entrant, Tunables};
        let n = 4;
        let p = ProcessorId::new;
        let adaptive = || {
            let mut planner = ClientPlanner::new(n, [OBJ, ObjectId(1)]);
            let oracle = Entrant::WriteInvalidate
                .config()
                .algorithm(n, Tunables::CANONICAL)
                .unwrap();
            planner.install_oracle(OBJ, oracle);
            planner
        };
        let tracked = |planner: &ClientPlanner| planner.objects[0].oracle.as_ref().map(|o| o.1);
        let mut original = adaptive();
        let initial = tracked(&original);
        assert!(initial.is_some() && original.objects[1].oracle.is_none());

        // A saving-read by an outsider grows the tracked scheme.
        original.plan(OBJ, Request::read(p(3))).unwrap();
        original.plan(OBJ, Request::write(p(1))).unwrap();
        original.plan(OBJ, Request::read(p(2))).unwrap();
        let before_fork = tracked(&original);
        assert_ne!(before_fork, initial);

        // The fork's oracle, tracked scheme and version counter all
        // advance without touching the original's.
        let mut fork = original.fork();
        let in_fork = fork.plan(OBJ, Request::write(p(3))).unwrap();
        assert_eq!(fork.latest_version(OBJ), Version(2));
        assert_ne!(tracked(&fork), before_fork);
        assert_eq!(original.latest_version(OBJ), Version(1));
        assert_eq!(tracked(&original), before_fork);
        // ... so the original still plans that request exactly as the
        // fork did.
        assert_eq!(original.plan(OBJ, Request::write(p(3))).unwrap(), in_fork);

        // Reset restarts oracle and scheme; versions keep counting.
        original.reset_oracles();
        assert_eq!(tracked(&original), initial);
        assert_eq!(original.latest_version(OBJ), Version(2));
        let replanned = original.plan(OBJ, Request::read(p(3))).unwrap();
        assert_eq!(
            replanned,
            adaptive().plan(OBJ, Request::read(p(3))).unwrap()
        );
        let DomMsg::ClientWrite { version, .. } =
            original.plan(OBJ, Request::write(p(0))).unwrap().msg
        else {
            panic!("a write plans a ClientWrite");
        };
        assert_eq!(version, Version(3));
    }

    #[test]
    fn sa_objects_plan_without_decisions() {
        let mut p = planner();
        let planned = p.plan(OBJ, Request::read(ProcessorId::new(2))).unwrap();
        assert_eq!(planned.to, NodeId(2));
        assert_eq!(planned.decision, None);
        assert_eq!(
            planned.msg,
            DomMsg::ClientRead {
                object: OBJ,
                plan: None
            }
        );
        assert!(p.objects.iter().all(|(_, plan)| plan.oracle.is_none()));
    }
}
