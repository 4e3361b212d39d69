//! The [`Transport`] trait: the narrow send/clock surface a [`DomNode`]
//! needs from whatever is carrying its messages.
//!
//! The protocol state machine in [`node`](crate::DomNode) never talks to
//! `doma-sim`'s `Engine` directly — every outbound message and every
//! clock read goes through this trait. That makes the deterministic
//! engine *one* implementation (the [`Context`] impl below, used by every
//! sim, fault, check, shard, and scenario path, byte-for-byte unchanged)
//! and leaves room for a second: `doma-net`'s socket-backed transport,
//! which carries the same [`DomMsg`]s over TCP or Unix domain sockets and
//! lets the real runtime be diffed against the sim oracle.
//!
//! Design constraints:
//!
//! * **Static dispatch.** Node methods are generic over `T: Transport +
//!   ?Sized`, not `&mut dyn Transport`, so the sim hot path monomorphizes
//!   to exactly the code it ran before the refactor (`sim_req_per_s` in
//!   `benchmark/` is the number that would show otherwise).
//! * **Buffered sends.** `send` queues; the engine drains the buffer
//!   after each dispatch, the socket transport after each
//!   [`DomNode::deliver`](crate::DomNode::deliver). The node accounts a
//!   message as it queues it and never reads the queue back, so the
//!   trait has no read side.
//! * **Logical time.** `now` is the transport's logical clock. The engine
//!   reports simulated time; the socket transport reports a per-node
//!   delivery tick. Protocol behavior must not depend on the absolute
//!   values (they only timestamp read-latency samples and obs events).
//! * **No timers.** Neither transport has them: no protocol code sets
//!   one, and the engine carries messages and crash/recover lifecycle
//!   events only. When the failover layer needs timers (ROADMAP item 4)
//!   they arrive as effects the node returns, the same on both
//!   transports.

use crate::msg::DomMsg;
use doma_sim::{Context, MsgKind, NodeId, SimTime};

/// The message-carrying surface a protocol node runs against.
///
/// Implementors buffer sends until the surrounding runtime flushes them:
/// the deterministic engine converts the buffer into scheduled delivery
/// events, the socket transport writes frames to peer connections. See the
/// [module docs](self) for the full contract.
pub trait Transport {
    /// Current logical time at this node (timestamps latency samples and
    /// obs events; never drives protocol decisions).
    fn now(&self) -> SimTime;

    /// Queue `msg` for delivery to `to`. `kind` classifies the message for
    /// network accounting (control vs data, per §1.2 of the paper).
    fn send(&mut self, to: NodeId, kind: MsgKind, msg: DomMsg);
}

impl Transport for Context<DomMsg> {
    fn now(&self) -> SimTime {
        Context::now(self)
    }

    fn send(&mut self, to: NodeId, kind: MsgKind, msg: DomMsg) {
        Context::send(self, to, kind, msg);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use doma_core::ObjectId;

    /// A minimal in-memory transport proving the trait is implementable
    /// outside the sim engine (the real implementation lives in doma-net).
    #[derive(Default)]
    pub(crate) struct Loopback {
        pub(crate) tick: SimTime,
        pub(crate) outbox: Vec<(NodeId, MsgKind, DomMsg)>,
    }

    impl Transport for Loopback {
        fn now(&self) -> SimTime {
            self.tick
        }
        fn send(&mut self, to: NodeId, kind: MsgKind, msg: DomMsg) {
            self.outbox.push((to, kind, msg));
        }
    }

    #[test]
    fn trait_is_object_and_impl_safe() {
        let mut t = Loopback {
            tick: SimTime(7),
            outbox: Vec::new(),
        };
        assert_eq!(Transport::now(&t), SimTime(7));
        t.send(
            NodeId(2),
            MsgKind::Control,
            DomMsg::CatchUp {
                object: ObjectId(1),
            },
        );
        assert_eq!(t.outbox.len(), 1);
        assert_eq!(t.outbox[0].0, NodeId(2));
    }
}
