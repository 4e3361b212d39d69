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

use crate::node::ObjectCatalog;
use crate::sim::PlanOracle;
use crate::{DomMsg, ReadPlan, WritePlan};
use doma_core::{
    scheme_after, AllocatedRequest, Decision, DomaError, ObjectId, ProcSet, Request, Result,
};
use doma_sim::NodeId;
use doma_storage::{Payload, Version};
use std::collections::BTreeMap;
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

/// The deterministic planning state of a protocol driver: write-version
/// counters, adaptive oracles, and the oracle-tracked allocation schemes.
///
/// Two drivers constructed with the same catalog and oracles that feed the
/// same request sequence through [`ClientPlanner::plan`] produce the same
/// message sequence byte for byte — the foundation of the sim-vs-socket
/// twin check.
pub struct ClientPlanner {
    n: usize,
    /// Next write version per catalogued object (doubles as the catalog
    /// membership set for validation).
    next_version: ObjectCatalog<Version>,
    /// Live decision oracles for adaptive objects. Deterministic: oracle
    /// state is a pure function of the planned request sequence.
    oracles: BTreeMap<ObjectId, Box<dyn PlanOracle>>,
    /// The allocation scheme each oracle believes is current, folded per
    /// decision with [`scheme_after`] — the `Y` the write plans'
    /// invalidation sets are computed from.
    oracle_scheme: BTreeMap<ObjectId, ProcSet>,
}

impl ClientPlanner {
    /// A planner for a cluster of `n` nodes serving `objects`. Write
    /// versions start just above [`Version::INITIAL`] (the preloaded
    /// replica); no oracles — install them with
    /// [`ClientPlanner::install_oracle`].
    pub fn new(n: usize, objects: impl IntoIterator<Item = ObjectId>) -> Self {
        let first = objects
            .into_iter()
            .map(|object| (object, Version::INITIAL.next()))
            .collect();
        ClientPlanner {
            n,
            next_version: ObjectCatalog::from_map(first),
            oracles: BTreeMap::new(),
            oracle_scheme: BTreeMap::new(),
        }
    }

    /// Cluster size this planner validates issuers against.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Installs (and resets) the adaptive oracle governing `object`; its
    /// tracked scheme starts at the oracle's initial scheme.
    pub fn install_oracle(&mut self, object: ObjectId, mut oracle: Box<dyn PlanOracle>) {
        oracle.reset();
        self.oracle_scheme.insert(object, oracle.initial_scheme());
        self.oracles.insert(object, oracle);
    }

    /// Resets every oracle to its initial state (scheme included) — the
    /// failover driver's companion to `ModeChange { quorum: false }`.
    pub fn reset_oracles(&mut self) {
        for (object, oracle) in self.oracles.iter_mut() {
            oracle.reset();
            self.oracle_scheme.insert(*object, oracle.initial_scheme());
        }
    }

    /// The highest version of `object` written so far (INITIAL if none).
    ///
    /// # Panics
    /// If `object` is not in the catalog.
    pub fn latest_version(&self, object: ObjectId) -> Version {
        let slot = self.next_version.slot(object);
        assert!(slot.is_some(), "{object} not in the cluster's catalog");
        Version(slot.map_or(0, |slot| self.next_version.values[slot].0 - 1))
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
        let Some(slot) = self.next_version.slot(object) else {
            return Err(DomaError::InvalidConfig(format!(
                "{object} not in the cluster's catalog"
            )));
        };
        let to = NodeId(request.issuer.index());
        let planned = self.decide(object, request);
        let (read_plan, write_plan, decision) = match planned {
            Some((r, w, d)) => (r, w, Some(d)),
            None => (None, None, None),
        };
        let msg = if request.is_read() {
            DomMsg::ClientRead {
                object,
                plan: read_plan,
            }
        } else {
            let version = self.next_version.values[slot];
            self.next_version.values[slot] = version.next();
            DomMsg::ClientWrite {
                object,
                version,
                payload: write_payload(object, version),
                plan: write_plan,
            }
        };
        Ok(PlannedRequest { to, msg, decision })
    }

    /// Runs the object's adaptive oracle (if any) on `request`: advances
    /// the oracle and its tracked scheme, and maps the decision to the
    /// read/write plan the issuing node will execute. Returns `None` for
    /// SA/DA objects. No validation — [`ClientPlanner::plan`] is the
    /// checked entry point.
    #[allow(clippy::type_complexity)]
    fn decide(
        &mut self,
        object: ObjectId,
        request: Request,
    ) -> Option<(Option<ReadPlan>, Option<WritePlan>, Decision)> {
        if self.oracles.is_empty() {
            return None;
        }
        let oracle = self.oracles.get_mut(&object)?;
        let scheme = *self.oracle_scheme.get(&object)?;
        let decision = oracle.decide(request);
        let i = request.issuer;
        let pair = if request.is_read() {
            let server = if decision.exec.contains(i) {
                None
            } else {
                decision.exec.any_member()
            };
            (
                Some(ReadPlan {
                    server,
                    saving: decision.saving,
                    fallback: scheme.without(i).any_member(),
                }),
                None,
            )
        } else {
            (
                None,
                Some(WritePlan {
                    exec: decision.exec,
                    invalidate: scheme.difference(decision.exec).without(i),
                    self_invalidate: scheme.contains(i) && !decision.exec.contains(i),
                }),
            )
        };
        let step = AllocatedRequest::new(request, decision);
        self.oracle_scheme
            .insert(object, scheme_after(scheme, &step));
        Some((pair.0, pair.1, decision))
    }

    /// Deep copy (oracles included, via [`PlanOracle::clone_box`]) so a
    /// model checker's speculative branches advance independent state.
    pub fn fork(&self) -> Self {
        ClientPlanner {
            n: self.n,
            next_version: self.next_version.clone(),
            oracles: self
                .oracles
                .iter()
                .map(|(object, oracle)| (*object, oracle.clone_box()))
                .collect(),
            oracle_scheme: self.oracle_scheme.clone(),
        }
    }
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
        assert!(p.oracles.is_empty());
    }
}
