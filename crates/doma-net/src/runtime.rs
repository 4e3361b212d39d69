//! Per-node runtime: socket plumbing, the connection handshake, and
//! frame handling on the thread that read the frame.
//!
//! Topology: every node binds a listener; the cluster driver (and each
//! peer) opens one outgoing connection per target and introduces itself
//! with a [`WireFrame::Hello`]. A node dials its peers before it starts
//! accepting, so it answers the driver only once its mesh is up. Every
//! inbound connection gets a reader thread that parses frames with the
//! incremental [`codec::Decoder`] and handles each one itself, under the
//! node's one lock: the [`DomNode`], its [`NetTransport`], its outgoing
//! connections, the driver writer and its count of handled `Peer` frames live
//! behind it. A handler therefore runs whole and one at a time — the same
//! per-node atomicity the sim engine guarantees — and each link keeps its
//! FIFO order. Replies to the driver travel back on the driver's own
//! connection (cloned writer half); node-to-node frames travel on the
//! sender's outgoing connections. A node counts the `Peer` frames it has
//! handled and answers the driver's quiescence [`WireFrame::Poll`] with
//! them and its send tallies (see [`crate::Cluster`]).
//!
//! A writer may block while it holds the lock only if a socket buffer is
//! full, and with one request in flight each link carries a few frames,
//! far below any socket buffer — so no cycle of lock holders can form.
//!
//! This module is the workspace's only sanctioned home for sockets, and
//! with `doma_sim::shard::run_shards` one of the two for spawning threads
//! — both banned everywhere else by `clippy.toml`.
#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the real runtime: one thread per node and per inbound connection, over real sockets"
)]

use crate::codec::{self, Decoder, WireFrame, DRIVER_ID};
use crate::NetTransport;
use doma_core::{DomaError, Result};
use doma_protocol::{DomMsg, DomNode};
use doma_sim::NodeId;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Which socket family a cluster runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// TCP over the loopback interface.
    Tcp,
    /// Unix domain sockets in a per-cluster temp directory.
    Uds,
}

impl TransportKind {
    /// Parses the `domactl` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tcp" => Some(TransportKind::Tcp),
            "uds" => Some(TransportKind::Uds),
            _ => None,
        }
    }
}

/// A connectable endpoint of one node.
#[derive(Debug, Clone)]
pub enum Addr {
    /// TCP loopback address with its bound port.
    Tcp(std::net::SocketAddr),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

pub(crate) fn net_err(what: &str, e: std::io::Error) -> DomaError {
    DomaError::Net(format!("{what}: {e}"))
}

/// One bidirectional stream, TCP or UDS.
pub(crate) enum Conn {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Conn {
    pub(crate) fn connect(addr: &Addr) -> std::io::Result<Conn> {
        match addr {
            Addr::Tcp(a) => TcpStream::connect(a).map(Conn::Tcp),
            Addr::Uds(p) => UnixStream::connect(p).map(Conn::Uds),
        }
    }

    /// Connects with retry: listeners are bound before anything connects,
    /// but a refused/flaky connect during startup is retried briefly
    /// rather than failing the whole cluster.
    pub(crate) fn connect_retry(addr: &Addr) -> Result<Conn> {
        let mut last = None;
        for _ in 0..500 {
            match Conn::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        Err(net_err(
            "connect",
            last.unwrap_or_else(|| std::io::Error::other("no attempt made")),
        ))
    }

    fn try_clone(&self) -> Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            Conn::Uds(s) => s.try_clone().map(Conn::Uds),
        }
        .map_err(|e| net_err("clone stream", e))
    }

    /// Shuts both directions of the socket, waking any thread blocked
    /// reading it (a clone shares the socket).
    fn shutdown(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Uds(s) => s.shutdown(Shutdown::Both),
        };
    }

    fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
        }
    }

    pub(crate) fn write_frame(&mut self, frame: &WireFrame) -> Result<()> {
        let bytes = codec::encode_frame(frame);
        match self {
            Conn::Tcp(s) => s.write_all(&bytes),
            Conn::Uds(s) => s.write_all(&bytes),
        }
        .map_err(|e| net_err("write frame", e))
    }
}

/// A connection plus its incremental decoder: blocking frame reads.
pub(crate) struct FrameConn {
    conn: Conn,
    dec: Decoder,
}

impl FrameConn {
    pub(crate) fn new(conn: Conn) -> Self {
        FrameConn {
            conn,
            dec: Decoder::new(),
        }
    }

    pub(crate) fn writer(&mut self) -> &mut Conn {
        &mut self.conn
    }

    /// Blocks until one complete frame arrives; `Ok(None)` on clean EOF.
    pub(crate) fn read_frame(&mut self) -> Result<Option<WireFrame>> {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(body) = self.dec.next_frame()? {
                return Ok(Some(codec::decode_frame(&body)?));
            }
            let n = self
                .conn
                .read_some(&mut buf)
                .map_err(|e| net_err("read frame", e))?;
            if n == 0 {
                if self.dec.buffered() > 0 {
                    return Err(DomaError::WireCorrupt {
                        context: "EOF inside a frame",
                    });
                }
                return Ok(None);
            }
            self.dec.feed(&buf[..n]);
        }
    }
}

/// One node's listening socket.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    /// Binds a fresh endpoint for node `index`: an ephemeral loopback
    /// port, or `node-<index>.sock` under `uds_dir`.
    pub(crate) fn bind(
        kind: TransportKind,
        index: usize,
        uds_dir: &std::path::Path,
    ) -> Result<(Listener, Addr)> {
        match kind {
            TransportKind::Tcp => {
                let l = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| net_err("bind tcp", e))?;
                let addr = l.local_addr().map_err(|e| net_err("local addr", e))?;
                Ok((Listener::Tcp(l), Addr::Tcp(addr)))
            }
            TransportKind::Uds => {
                let path = uds_dir.join(format!("node-{index}.sock"));
                let l = UnixListener::bind(&path).map_err(|e| net_err("bind uds", e))?;
                Ok((Listener::Uds(l), Addr::Uds(path)))
            }
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Uds(l) => l.accept().map(|(s, _)| Conn::Uds(s)),
        }
    }
}

/// Everything a node thread needs to run.
pub(crate) struct NodeSetup {
    pub id: usize,
    pub node: DomNode,
    pub listener: Listener,
    /// `(node index, address)` of every *other* node.
    pub peers: Vec<(usize, Addr)>,
    /// This node's own address — used to unblock the acceptor on exit.
    pub self_addr: Addr,
}

/// A handle on a spawned node thread.
pub(crate) struct NodeHandle {
    join: JoinHandle<Result<()>>,
}

impl NodeHandle {
    /// Joins the node thread — which has joined every reader thread it
    /// spawned — surfacing the first error any of them met.
    pub(crate) fn join(self) -> Result<()> {
        joined(self.join)
    }
}

fn joined(handle: JoinHandle<Result<()>>) -> Result<()> {
    handle
        .join()
        .unwrap_or_else(|_| Err(DomaError::Net("node thread panicked".into())))
}

/// What one node's reader threads share: the node behind its lock, and
/// what stops the node's acceptor.
struct Shared {
    state: Mutex<NodeState>,
    stop: AtomicBool,
    self_addr: Addr,
}

/// Everything a handler touches, behind the node's one lock.
struct NodeState {
    id: usize,
    node: DomNode,
    transport: NetTransport,
    /// Outgoing connection per peer index (`None` for this node).
    out: Vec<Option<Conn>>,
    /// The writer half of the driver's connection, once it said `Hello`.
    driver: Option<Conn>,
    /// `Peer` frames handled, for the driver's quiescence poll.
    received: u64,
}

impl Shared {
    fn lock(&self) -> Result<MutexGuard<'_, NodeState>> {
        self.state
            .lock()
            .map_err(|_| DomaError::Net("node state poisoned by a panicked handler".into()))
    }

    /// Stops the node: closes its outgoing connections (so its peers'
    /// readers see EOF), shuts the driver's connection (so a driver
    /// waiting on it sees EOF instead of blocking), and wakes the acceptor
    /// with a connection of its own. Idempotent.
    fn teardown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.out.clear();
        if let Some(driver) = state.driver.take() {
            driver.shutdown();
        }
        drop(state);
        let _ = Conn::connect(&self.self_addr);
    }
}

impl NodeState {
    /// Handles one frame; `false` once the node must stop.
    fn handle(&mut self, frame: WireFrame) -> Result<bool> {
        match frame {
            // Locally injected request: arrives "from" the node itself,
            // exactly like the sim engine's inject.
            WireFrame::Client { msg } => self.deliver(NodeId(self.id), msg)?,
            WireFrame::Peer { from, msg, .. } => {
                self.received += 1;
                self.deliver(NodeId(from as usize), msg)?;
            }
            WireFrame::Poll => {
                let reply = WireFrame::PollReply {
                    sent: self.transport.control_sent() + self.transport.data_sent(),
                    received: self.received,
                };
                self.write_driver(&reply)?;
            }
            WireFrame::Report => {
                let (reads, latency) = self.node.read_metrics();
                let reply = WireFrame::ReportReply {
                    holds: self.node.holds_valid(),
                    io: self.node.io_stats().total(),
                    control_sent: self.transport.control_sent(),
                    data_sent: self.transport.data_sent(),
                    reads,
                    latency,
                    errors: self.node.protocol_errors().len() as u64,
                };
                self.write_driver(&reply)?;
            }
            WireFrame::Shutdown => return Ok(false),
            // `Hello` only opens a connection, and replies are addressed
            // to the driver.
            WireFrame::Hello { .. }
            | WireFrame::PollReply { .. }
            | WireFrame::ReportReply { .. } => {
                return Err(DomaError::Net(format!(
                    "node {}: unexpected {frame:?}",
                    self.id
                )))
            }
        }
        Ok(true)
    }

    /// Runs one protocol handler and writes its sends.
    fn deliver(&mut self, from: NodeId, msg: DomMsg) -> Result<()> {
        self.transport.advance();
        self.node.deliver(&mut self.transport, from, msg);
        for (to, kind, msg) in self.transport.drain() {
            let frame = WireFrame::Peer {
                from: self.id as u64,
                kind,
                msg,
            };
            peer(&mut self.out, self.id, to.0)?.write_frame(&frame)?;
        }
        Ok(())
    }

    /// Writes on the driver connection (a node never needs to before the
    /// driver has connected — its frames are what the node answers).
    fn write_driver(&mut self, frame: &WireFrame) -> Result<()> {
        match &mut self.driver {
            Some(conn) => conn.write_frame(frame),
            None => Err(DomaError::Net(
                "reply with no driver connection registered".into(),
            )),
        }
    }
}

/// The outgoing connection from node `id` to node `to`.
fn peer(out: &mut [Option<Conn>], id: usize, to: usize) -> Result<&mut Conn> {
    out.get_mut(to)
        .and_then(Option::as_mut)
        .ok_or_else(|| DomaError::Net(format!("node {id} has no connection to node {to}")))
}

/// Spawns one protocol node. Its thread dials every peer, then accepts
/// connections until the node is torn down, giving each a reader thread,
/// and finally joins them all.
pub(crate) fn spawn_node(setup: NodeSetup) -> NodeHandle {
    let join = std::thread::spawn(move || node_main(setup));
    NodeHandle { join }
}

fn node_main(setup: NodeSetup) -> Result<()> {
    let NodeSetup {
        id,
        node,
        listener,
        peers,
        self_addr,
    } = setup;

    // Full mesh: one outgoing connection per peer, introduced by Hello.
    // Every node's listener is bound before any node thread starts, so
    // these connects land in the peers' accept backlogs (with retry
    // absorbing scheduler noise).
    let max_peer = peers.iter().map(|(i, _)| *i).max().unwrap_or(0);
    let mut out: Vec<Option<Conn>> = (0..=max_peer).map(|_| None).collect();
    for (peer, addr) in &peers {
        let mut conn = Conn::connect_retry(addr)?;
        conn.write_frame(&WireFrame::Hello { node: id as u64 })?;
        out[*peer] = Some(conn);
    }

    let shared = Arc::new(Shared {
        state: Mutex::new(NodeState {
            id,
            node,
            transport: NetTransport::new(),
            out,
            driver: None,
            received: 0,
        }),
        stop: AtomicBool::new(false),
        self_addr,
    });
    let mut readers = Vec::new();
    let mut first_err = None;
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                first_err = Some(net_err("accept", e));
                shared.teardown();
                break;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let shared = shared.clone();
        readers.push(std::thread::spawn(move || read_loop(conn, &shared)));
    }
    for reader in readers {
        if let Err(e) = joined(reader) {
            first_err.get_or_insert(e);
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// One inbound connection's reader: the `Hello` handshake, then every
/// frame handled under the node lock. The driver's connection ending —
/// by `Shutdown` or EOF — or any error tears the node down; a peer's
/// connection ending cleanly does not.
fn read_loop(conn: Conn, shared: &Shared) -> Result<()> {
    let mut fc = FrameConn::new(conn);
    let outcome = serve(&mut fc, shared);
    if !matches!(outcome, Ok(Link::Peer)) {
        shared.teardown();
    }
    outcome.map(drop)
}

/// Who is on the other end of an inbound connection.
enum Link {
    Driver,
    Peer,
}

/// Reads and handles frames until the connection ends or the driver
/// says `Shutdown`.
fn serve(fc: &mut FrameConn, shared: &Shared) -> Result<Link> {
    let link = match fc.read_frame()? {
        Some(WireFrame::Hello { node: DRIVER_ID }) => {
            shared.lock()?.driver = Some(fc.conn.try_clone()?);
            Link::Driver
        }
        Some(WireFrame::Hello { .. }) | None => Link::Peer,
        Some(other) => return Err(DomaError::Net(format!("expected Hello, got {other:?}"))),
    };
    while let Some(frame) = fc.read_frame()? {
        if !shared.lock()?.handle(frame)? {
            break;
        }
    }
    Ok(link)
}
