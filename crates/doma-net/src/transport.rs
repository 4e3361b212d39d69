//! The socket-side [`Transport`] implementation.

use doma_protocol::{DomMsg, Transport};
use doma_sim::{MsgKind, NodeId, SimTime};

/// The [`Transport`] a protocol node runs against in the real runtime.
///
/// Sends are buffered exactly like the sim engine's [`doma_sim::Context`]
/// buffers them: the node's event loop calls
/// [`doma_protocol::DomNode::deliver`] and then [`NetTransport::drain`]s
/// the buffer onto the peer sockets. Time is a logical per-node delivery
/// tick — it timestamps latency samples, never drives protocol decisions
/// (see the trait docs).
#[derive(Debug, Default)]
pub struct NetTransport {
    tick: u64,
    outbox: Vec<(NodeId, MsgKind, DomMsg)>,
    control_sent: u64,
    data_sent: u64,
}

impl NetTransport {
    /// A fresh transport at tick 0 with an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the logical clock by one delivery tick. The event loop
    /// calls this once per inbound message, before delivering it.
    pub fn advance(&mut self) {
        self.tick += 1;
    }

    /// Takes the buffered sends, tallying them per pricing class. Call
    /// *after* [`doma_protocol::DomNode::deliver`] returns — the obs
    /// layer reads the buffer during delivery.
    pub fn drain(&mut self) -> Vec<(NodeId, MsgKind, DomMsg)> {
        for (_, kind, _) in &self.outbox {
            match kind {
                MsgKind::Control => self.control_sent += 1,
                MsgKind::Data => self.data_sent += 1,
            }
        }
        std::mem::take(&mut self.outbox)
    }

    /// Control messages drained so far (mirrors the sim engine's
    /// `NetStats::control_sent`).
    pub fn control_sent(&self) -> u64 {
        self.control_sent
    }

    /// Data messages drained so far.
    pub fn data_sent(&self) -> u64 {
        self.data_sent
    }
}

impl Transport for NetTransport {
    fn now(&self) -> SimTime {
        SimTime(self.tick)
    }

    fn send(&mut self, to: NodeId, kind: MsgKind, msg: DomMsg) {
        self.outbox.push((to, kind, msg));
    }

    fn pending_sends(&self) -> &[(NodeId, MsgKind, DomMsg)] {
        &self.outbox
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::ObjectId;

    #[test]
    fn drain_tallies_by_kind_and_clears() {
        let mut t = NetTransport::new();
        t.advance();
        assert_eq!(Transport::now(&t), SimTime(1));
        t.send(
            NodeId(1),
            MsgKind::Control,
            DomMsg::CatchUp {
                object: ObjectId(0),
            },
        );
        t.send(
            NodeId(2),
            MsgKind::Data,
            DomMsg::ObjData {
                object: ObjectId(0),
                version: doma_storage::Version(1),
                payload: [1].into(),
                save: false,
                round: 0,
            },
        );
        assert_eq!(t.pending_sends().len(), 2);
        let drained = t.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!((t.control_sent(), t.data_sent()), (1, 1));
        assert!(t.pending_sends().is_empty());
    }
}
