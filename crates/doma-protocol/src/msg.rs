//! The wire protocol.

use doma_core::{ObjectId, ProcSet, ProcessorId};
use doma_sim::NodeId;
use doma_storage::{Payload, Version};

/// A driver-computed read placement for an adaptive-algorithm object
/// (see [`crate::ProtocolConfig::Adaptive`]): the online algorithm runs
/// as an oracle inside the driver, and the node executes its decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadPlan {
    /// Remote server to fetch from (`None` = the issuer's own replica).
    pub server: Option<ProcessorId>,
    /// Whether the fetched copy is stored at the issuer (a saving-read,
    /// growing the allocation scheme).
    pub saving: bool,
    /// A scheme member to fall back to when a local read finds the
    /// replica unexpectedly invalid (possible only after fault episodes).
    pub fallback: Option<ProcessorId>,
}

/// A driver-computed write placement for an adaptive-algorithm object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WritePlan {
    /// The execution set `X`: every member stores the new version.
    pub exec: ProcSet,
    /// Scheme members outside `X` (and other than the issuer) whose
    /// replicas the issuer invalidates — the paper's `Y \ X \ {i}`.
    pub invalidate: ProcSet,
    /// The issuer was a scheme member but is not in `X`: it drops its own
    /// replica locally, without any message (the analytic model charges
    /// nothing for this).
    pub self_invalidate: bool,
}

/// Messages exchanged by [`crate::DomNode`]s (plus the locally injected
/// client requests, which are not network messages and are not tallied).
///
/// Every object-bearing message carries its [`ObjectId`]: the cluster
/// serves a whole catalog of objects, each under its own SA/DA
/// configuration (the paper analyzes one object; in its model objects are
/// cost-independent, and the integration tests verify the protocol's
/// tallies decompose accordingly).
///
/// Control messages (priced `cc`): [`DomMsg::ReadReq`],
/// [`DomMsg::Invalidate`], [`DomMsg::NoData`], [`DomMsg::ModeChange`].
/// Data messages (priced `cd`): [`DomMsg::ObjData`], [`DomMsg::WriteProp`]
/// — they carry the object payload, as a [`Payload`] shared with the
/// store it was read from (cloning a message bumps a reference count;
/// only the wire codec copies the bytes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DomMsg {
    /// Client request: read the object (injected locally by the driver).
    ClientRead {
        /// The object to read.
        object: ObjectId,
        /// Placement computed by the driver-side decision oracle
        /// (`None` for SA/DA objects, whose placement is node-local).
        plan: Option<ReadPlan>,
    },
    /// Client request: write a new version (injected locally by the
    /// driver, which owns the per-object version counter — the stand-in
    /// for the concurrency control that totally orders writes).
    ClientWrite {
        /// The object to write.
        object: ObjectId,
        /// The globally assigned version.
        version: Version,
        /// The new object payload.
        payload: Payload,
        /// Placement computed by the driver-side decision oracle
        /// (`None` for SA/DA objects).
        plan: Option<WritePlan>,
    },
    /// "Send me the latest object." `saving` tells the server the
    /// requester will store the reply (DA), so DA core members record the
    /// requester in their join-list.
    ReadReq {
        /// The object requested.
        object: ObjectId,
        /// Whether the reply will be saved at the requester.
        saving: bool,
        /// The requester's quorum-operation round, echoed back by replies
        /// (0 = a normal-mode forwarded read, outside any quorum op).
        /// Under fault injection a delayed or duplicated reply from an
        /// earlier quorum operation must never be counted toward a later
        /// one; the round tag is what makes them distinguishable on the
        /// wire.
        round: u64,
    },
    /// The object, in reply to [`DomMsg::ReadReq`] or a quorum read.
    ObjData {
        /// The object carried.
        object: ObjectId,
        /// The version carried.
        version: Version,
        /// The payload.
        payload: Payload,
        /// Whether the requester should output it to its local database.
        save: bool,
        /// The round of the [`DomMsg::ReadReq`] this answers (0 = not a
        /// quorum reply).
        round: u64,
    },
    /// Quorum-read reply from a node with no valid replica.
    NoData {
        /// The object that was requested.
        object: ObjectId,
        /// The round of the [`DomMsg::ReadReq`] this answers.
        round: u64,
    },
    /// A write propagated to a member of the execution set.
    WriteProp {
        /// The object written.
        object: ObjectId,
        /// The version being written.
        version: Version,
        /// The payload.
        payload: Payload,
        /// The writing processor (needed by DA core members to compute the
        /// execution set and exclude the writer from invalidation).
        writer: NodeId,
    },
    /// "Your replica is stale" — mark it invalid.
    Invalidate {
        /// The object invalidated.
        object: ObjectId,
        /// The version that superseded the local replica.
        version: Version,
    },
    /// Failure handling: switch between normal DA/SA mode and
    /// majority-quorum mode (sent by the failure detector, played by the
    /// driver). Applies to the whole node, not one object.
    ModeChange {
        /// `true` = quorum mode.
        quorum: bool,
    },
    /// Failure handling: instruct a recovered node to catch up via a
    /// quorum read of one object before resuming service (the
    /// missing-writes transition; the driver sends one per object).
    CatchUp {
        /// The object to catch up.
        object: ObjectId,
    },
}

impl DomMsg {
    /// Whether this message carries the object payload (and is therefore
    /// priced as a data message).
    pub fn is_data(&self) -> bool {
        matches!(self, DomMsg::ObjData { .. } | DomMsg::WriteProp { .. })
    }

    /// A short label for message traces.
    pub fn label(&self) -> String {
        match self {
            DomMsg::ClientRead { object, .. } => format!("ClientRead({object})"),
            DomMsg::ClientWrite {
                object, version, ..
            } => {
                format!("ClientWrite({object},{version})")
            }
            DomMsg::ReadReq { object, saving, .. } => {
                format!("ReadReq({object}{})", if *saving { ",saving" } else { "" })
            }
            DomMsg::ObjData {
                object, version, ..
            } => format!("ObjData({object},{version})"),
            DomMsg::NoData { object, .. } => format!("NoData({object})"),
            DomMsg::WriteProp {
                object, version, ..
            } => {
                format!("WriteProp({object},{version})")
            }
            DomMsg::Invalidate { object, version } => {
                format!("Invalidate({object},{version})")
            }
            DomMsg::ModeChange { quorum } => format!("ModeChange(quorum={quorum})"),
            DomMsg::CatchUp { object } => format!("CatchUp({object})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OBJ: ObjectId = ObjectId(0);

    #[test]
    fn data_classification() {
        assert!(DomMsg::ObjData {
            object: OBJ,
            version: Version(1),
            payload: Payload::from([]),
            save: false,
            round: 0
        }
        .is_data());
        assert!(DomMsg::WriteProp {
            object: OBJ,
            version: Version(1),
            payload: Payload::from([]),
            writer: NodeId(0)
        }
        .is_data());
        assert!(!DomMsg::ReadReq {
            object: OBJ,
            saving: true,
            round: 0
        }
        .is_data());
        assert!(!DomMsg::Invalidate {
            object: OBJ,
            version: Version(2)
        }
        .is_data());
        assert!(!DomMsg::NoData {
            object: OBJ,
            round: 0
        }
        .is_data());
        assert!(!DomMsg::ModeChange { quorum: true }.is_data());
        assert!(!DomMsg::CatchUp { object: OBJ }.is_data());
    }
}
