//! The loopback cluster driver: N protocol nodes on threads, real
//! sockets between them, one driver that plans and injects requests.
//!
//! The driver executes a schedule *closed-loop*, exactly like
//! [`doma_protocol::ProtocolSim`]: it injects one client request, waits
//! for the cluster to go quiet, then injects the next. Quiescence is a
//! Mattern-style double barrier over monotone per-node counters of
//! node-to-node frames: the driver polls every node for `(sent,
//! received)`, and the cluster is quiet when two consecutive polls
//! return identical vectors whose send and receive totals agree — any
//! in-flight frame makes the totals disagree, and any activity between
//! polls changes the vector.
//!
//! Requests are planned by the same [`ClientPlanner`] the sim driver
//! uses, so the injected message sequence is byte-identical to the sim
//! twin's by construction; what the cluster actually *does* with those
//! messages is what `domactl cluster` cross-checks.

use crate::codec::{WireFrame, DRIVER_ID};
use crate::runtime::{self, Addr, Conn, FrameConn, Listener, NodeSetup, TransportKind};
use doma_core::{CostVector, DomaError, ObjectId, ProcSet, ProcessorId, Request, Result, Schedule};
use doma_protocol::{ClientPlanner, DomNode, PlanOracle, ProtocolConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Poll rounds the driver will issue before declaring the cluster hung.
const POLL_BUDGET: usize = 5_000;

/// Distinguishes concurrently running clusters' UDS directories within
/// one process (tests run many).
static CLUSTER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-node tallies collected by a [`WireFrame::Report`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeReport {
    /// Whether the node holds a valid replica.
    pub holds: bool,
    /// Store I/O operations performed.
    pub io: u64,
    /// Control messages this node sent (driver injections excluded).
    pub control_sent: u64,
    /// Data messages this node sent.
    pub data_sent: u64,
    /// Reads completed at this node.
    pub reads: u64,
    /// Total read latency in transport ticks.
    pub latency: u64,
    /// Protocol errors recorded at this node.
    pub errors: u64,
}

/// Aggregate cluster tallies, shaped for comparison against
/// [`doma_protocol::SimReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Exact resource totals: control/data frames written node-to-node
    /// and I/Os performed — the same three resources the sim tallies.
    pub cost: CostVector,
    /// Nodes holding a valid replica — the allocation scheme.
    pub final_holders: ProcSet,
    /// Reads completed across the cluster.
    pub reads_completed: u64,
    /// Protocol errors recorded across the cluster.
    pub errors: u64,
    /// The per-node breakdown.
    pub nodes: Vec<NodeReport>,
}

/// A running loopback cluster: node threads, sockets, and the driver's
/// planning state.
pub struct Cluster {
    n: usize,
    planner: ClientPlanner,
    conns: Vec<FrameConn>,
    handles: Vec<runtime::NodeHandle>,
    uds_dir: Option<PathBuf>,
}

impl Cluster {
    /// Boots a cluster of `n` nodes serving `configs`, over TCP loopback
    /// or UDS per `kind`. Adaptive objects get their driver-side
    /// `oracles` installed in the planner (same contract as
    /// [`doma_protocol::ProtocolSim::deploy`]). When `obs` is
    /// given, every node tallies into it — node threads share the bundle,
    /// and all protocol metrics are commutative counters, so totals are
    /// deterministic regardless of delivery interleaving.
    ///
    /// Fails with [`DomaError::Net`] when the platform refuses sockets
    /// (sandboxes without network namespaces) — callers treat that as
    /// "runtime unavailable", not as a protocol failure.
    pub fn new(
        n: usize,
        configs: BTreeMap<ObjectId, ProtocolConfig>,
        oracles: Vec<(ObjectId, Box<dyn PlanOracle>)>,
        kind: TransportKind,
        obs: Option<doma_obs::Obs>,
    ) -> Result<Cluster> {
        if n == 0 || n > doma_core::MAX_PROCESSORS {
            return Err(DomaError::InvalidConfig(format!("bad cluster size {n}")));
        }
        if configs.is_empty() {
            return Err(DomaError::InvalidConfig("empty object catalog".into()));
        }
        let uds_dir = match kind {
            TransportKind::Uds => {
                let dir = std::env::temp_dir().join(format!(
                    "doma-net-{}-{}",
                    std::process::id(),
                    CLUSTER_SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir)
                    .map_err(|e| DomaError::Net(format!("create uds dir: {e}")))?;
                Some(dir)
            }
            TransportKind::Tcp => None,
        };
        let fallback = std::env::temp_dir();
        let dir = uds_dir.as_deref().unwrap_or(&fallback);

        // Bind every listener before anything connects: the mesh and the
        // driver can then connect in any order.
        let mut listeners = Vec::with_capacity(n);
        let mut addrs: Vec<Addr> = Vec::with_capacity(n);
        for i in 0..n {
            let (l, addr) = Listener::bind(kind, i, dir)?;
            listeners.push(l);
            addrs.push(addr);
        }

        let mut handles = Vec::with_capacity(n);
        for (i, listener) in listeners.into_iter().enumerate() {
            let mut node = DomNode::with_catalog(ProcessorId::new(i), n, configs.clone(), 0);
            if let Some(bundle) = &obs {
                node.set_obs(bundle.clone());
            }
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(j, a)| (j, a.clone()))
                .collect();
            handles.push(runtime::spawn_node(NodeSetup {
                id: i,
                node,
                listener,
                peers,
                self_addr: addrs[i].clone(),
            }));
        }

        let mut conns = Vec::with_capacity(n);
        for addr in &addrs {
            let mut conn = Conn::connect_retry(addr)?;
            conn.write_frame(&WireFrame::Hello { node: DRIVER_ID })?;
            conns.push(FrameConn::new(conn));
        }

        let mut planner = ClientPlanner::new(n, configs.keys().copied());
        for (object, oracle) in oracles {
            planner.install_oracle(object, oracle);
        }

        Ok(Cluster {
            n,
            planner,
            conns,
            handles,
            uds_dir,
        })
    }

    /// Cluster size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Plans and injects one client request, then waits for quiescence —
    /// the closed-loop step, mirroring
    /// [`doma_protocol::ProtocolSim::execute_request_on`].
    pub fn execute_request(&mut self, object: ObjectId, request: Request) -> Result<()> {
        let planned = self.planner.plan(object, request)?;
        self.conns[planned.to.0]
            .writer()
            .write_frame(&WireFrame::Client { msg: planned.msg })?;
        self.quiesce()
    }

    /// Executes a whole schedule closed-loop against `object`, recording
    /// the allocation scheme (valid-replica holders) after every
    /// request — the trajectory the sim twin is diffed against.
    pub fn execute_schedule(
        &mut self,
        object: ObjectId,
        schedule: &Schedule,
    ) -> Result<Vec<ProcSet>> {
        let mut trajectory = Vec::new();
        for request in schedule.iter() {
            self.execute_request(object, request)?;
            trajectory.push(self.holders()?);
        }
        Ok(trajectory)
    }

    /// The double-poll quiescence barrier (see the module docs).
    fn quiesce(&mut self) -> Result<()> {
        let mut prev: Option<Vec<(u64, u64)>> = None;
        for polls in 0..POLL_BUDGET {
            let mut counts = Vec::with_capacity(self.n);
            for conn in &mut self.conns {
                conn.writer().write_frame(&WireFrame::Poll)?;
            }
            for conn in &mut self.conns {
                match conn.read_frame()? {
                    Some(WireFrame::PollReply { sent, received }) => {
                        counts.push((sent, received));
                    }
                    Some(other) => {
                        return Err(DomaError::Net(format!("expected PollReply, got {other:?}")))
                    }
                    None => return Err(DomaError::Net("node closed connection mid-poll".into())),
                }
            }
            let sent: u64 = counts.iter().map(|(s, _)| s).sum();
            let received: u64 = counts.iter().map(|(_, r)| r).sum();
            if sent == received && prev.as_ref() == Some(&counts) {
                return Ok(());
            }
            prev = Some(counts);
            if polls > 2 {
                // Frames are in kernel buffers, not CPU queues — yield
                // rather than hammering the sockets.
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        Err(DomaError::ClusterStalled { polls: POLL_BUDGET })
    }

    /// Collects per-node tallies with a `Report` round.
    pub fn node_reports(&mut self) -> Result<Vec<NodeReport>> {
        let mut reports = Vec::with_capacity(self.n);
        for conn in &mut self.conns {
            conn.writer().write_frame(&WireFrame::Report)?;
        }
        for conn in &mut self.conns {
            match conn.read_frame()? {
                Some(WireFrame::ReportReply {
                    holds,
                    io,
                    control_sent,
                    data_sent,
                    reads,
                    latency,
                    errors,
                }) => reports.push(NodeReport {
                    holds,
                    io,
                    control_sent,
                    data_sent,
                    reads,
                    latency,
                    errors,
                }),
                Some(other) => {
                    return Err(DomaError::Net(format!(
                        "expected ReportReply, got {other:?}"
                    )))
                }
                None => return Err(DomaError::Net("node closed connection mid-report".into())),
            }
        }
        Ok(reports)
    }

    /// The nodes currently holding a valid replica.
    pub fn holders(&mut self) -> Result<ProcSet> {
        let mut holders = ProcSet::EMPTY;
        for (i, r) in self.node_reports()?.iter().enumerate() {
            if r.holds {
                holders.insert(ProcessorId::new(i));
            }
        }
        Ok(holders)
    }

    /// Aggregate tallies, shaped like the sim twin's report.
    pub fn report(&mut self) -> Result<ClusterReport> {
        let nodes = self.node_reports()?;
        let mut holders = ProcSet::EMPTY;
        let (mut control, mut data, mut io, mut reads, mut errors) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for (i, r) in nodes.iter().enumerate() {
            if r.holds {
                holders.insert(ProcessorId::new(i));
            }
            control += r.control_sent;
            data += r.data_sent;
            io += r.io;
            reads += r.reads;
            errors += r.errors;
        }
        Ok(ClusterReport {
            cost: CostVector::new(control, data, io),
            final_holders: holders,
            reads_completed: reads,
            errors,
            nodes,
        })
    }

    /// Stops every node, joins their threads (surfacing any event-loop
    /// error), and removes the UDS directory.
    pub fn shutdown(mut self) -> Result<()> {
        let mut first_err = None;
        for conn in &mut self.conns {
            if let Err(e) = conn.writer().write_frame(&WireFrame::Shutdown) {
                first_err.get_or_insert(e);
            }
        }
        drop(self.conns);
        for handle in self.handles {
            if let Err(e) = handle.join() {
                first_err.get_or_insert(e);
            }
        }
        if let Some(dir) = self.uds_dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}
