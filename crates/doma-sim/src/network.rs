//! Point-to-point network model with per-kind message accounting.

/// The two message classes of the cost model (§1.2): short control
/// messages (requests, invalidations) priced at `cc`, and data messages
/// (carrying the object) priced at `cd`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Request / invalidate — priced at `cc`.
    Control,
    /// Object transfer — priced at `cd`.
    Data,
}

/// As an event field a kind renders as its variant name.
impl From<MsgKind> for doma_obs::FieldValue {
    fn from(kind: MsgKind) -> Self {
        match kind {
            MsgKind::Control => "Control",
            MsgKind::Data => "Data",
        }
        .into()
    }
}

/// Exact message tallies, mirroring [`doma_core::CostVector`]'s
/// communication components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Control messages sent.
    pub control_sent: u64,
    /// Data messages sent.
    pub data_sent: u64,
    /// Messages dropped because the destination was crashed.
    pub dropped: u64,
}

impl NetStats {
    pub(crate) fn record_send(&mut self, kind: MsgKind) {
        match kind {
            MsgKind::Control => self.control_sent += 1,
            MsgKind::Data => self.data_sent += 1,
        }
    }
}

/// The transmission medium.
///
/// The paper's cost model assumes point-to-point links (§5.2 fourth
/// difference), but its introduction also motivates cost minimization by
/// Ethernet contention: "a higher communication cost implies a higher load
/// on the network, which implies a higher probability of contention on the
/// communication bus, and a higher response time". [`Medium::SharedBus`]
/// models that: one transmission at a time, FIFO, so concurrent messages
/// queue and response time grows with fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Medium {
    /// Independent links; every message is in flight immediately.
    PointToPoint,
    /// A single shared bus; transmissions serialize.
    SharedBus,
}

/// Static network parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetworkConfig {
    /// Transmission/delivery time of a control message, in ticks.
    pub control_latency: u64,
    /// Transmission/delivery time of a data message, in ticks (≥ control
    /// latency in any physical network — data frames are longer).
    pub data_latency: u64,
    /// The medium (point-to-point by default, matching the paper's model).
    pub medium: Medium,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            control_latency: 1,
            data_latency: 3,
            medium: Medium::PointToPoint,
        }
    }
}

impl NetworkConfig {
    /// A shared-bus network with the given transmission times.
    pub fn shared_bus(control_latency: u64, data_latency: u64) -> Self {
        NetworkConfig {
            control_latency,
            data_latency,
            medium: Medium::SharedBus,
        }
    }
}

/// The network: latency/medium model plus tallies. Homogeneous, reliable
/// except for crashed destinations — exactly the model of §3.2 (with the
/// optional bus medium of the introduction's Ethernet discussion).
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    pub(crate) stats: NetStats,
    /// SharedBus only: the tick until which the bus is occupied.
    bus_busy_until: u64,
    /// SharedBus only: cumulative ticks messages spent waiting for the bus.
    total_queue_wait: u64,
}

impl Network {
    /// Creates a network with the given config and zeroed tallies.
    pub fn new(config: NetworkConfig) -> Self {
        Network {
            config,
            stats: NetStats::default(),
            bus_busy_until: 0,
            total_queue_wait: 0,
        }
    }

    /// The transmission time for a message kind.
    pub fn tx_time(&self, kind: MsgKind) -> u64 {
        match kind {
            MsgKind::Control => self.config.control_latency,
            MsgKind::Data => self.config.data_latency,
        }
    }

    /// Computes the delivery tick of a message sent at `now`, updating the
    /// bus occupancy when the medium is shared.
    pub fn schedule_delivery(&mut self, now: u64, kind: MsgKind) -> u64 {
        let tx = self.tx_time(kind);
        match self.config.medium {
            Medium::PointToPoint => now + tx,
            Medium::SharedBus => {
                let start = now.max(self.bus_busy_until);
                self.total_queue_wait += start - now;
                self.bus_busy_until = start + tx;
                start + tx
            }
        }
    }

    /// Cumulative ticks spent queueing for the bus (0 for point-to-point).
    pub fn total_queue_wait(&self) -> u64 {
        self.total_queue_wait
    }

    /// The configured medium.
    pub fn medium(&self) -> Medium {
        self.config.medium
    }

    /// The message tallies so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_count_by_kind() {
        let mut net = Network::new(NetworkConfig::default());
        net.stats.record_send(MsgKind::Control);
        net.stats.record_send(MsgKind::Data);
        net.stats.record_send(MsgKind::Data);
        net.stats.dropped += 1;
        assert_eq!(
            net.stats(),
            NetStats {
                control_sent: 1,
                data_sent: 2,
                dropped: 1
            }
        );
        // A clone carries its own tallies.
        let mut fork = net.clone();
        fork.stats.dropped += 1;
        assert_eq!((net.stats().dropped, fork.stats().dropped), (1, 2));
    }

    #[test]
    fn latencies_follow_kind() {
        let mut net = Network::new(NetworkConfig {
            control_latency: 2,
            data_latency: 7,
            medium: Medium::PointToPoint,
        });
        assert_eq!(net.tx_time(MsgKind::Control), 2);
        assert_eq!(net.tx_time(MsgKind::Data), 7);
        // Point-to-point: concurrent sends do not interfere.
        assert_eq!(net.schedule_delivery(10, MsgKind::Data), 17);
        assert_eq!(net.schedule_delivery(10, MsgKind::Data), 17);
        assert_eq!(net.total_queue_wait(), 0);
    }

    #[test]
    fn shared_bus_serializes_transmissions() {
        let mut net = Network::new(NetworkConfig::shared_bus(1, 4));
        assert_eq!(net.medium(), Medium::SharedBus);
        // Three data messages sent at t=0 queue behind each other.
        assert_eq!(net.schedule_delivery(0, MsgKind::Data), 4);
        assert_eq!(net.schedule_delivery(0, MsgKind::Data), 8);
        assert_eq!(net.schedule_delivery(0, MsgKind::Data), 12);
        assert_eq!(net.total_queue_wait(), 4 + 8);
        // After the bus drains, a later message goes straight through.
        assert_eq!(net.schedule_delivery(20, MsgKind::Control), 21);
        assert_eq!(net.total_queue_wait(), 12);
    }
}
