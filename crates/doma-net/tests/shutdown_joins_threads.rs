//! `Cluster::shutdown` joins every thread the cluster spawned: node
//! threads (each its node's acceptor) and per-connection readers. This
//! file holds a single test so that it runs in a process of its own,
//! where the only other threads are the test harness's and stay put
//! while the test counts.

use doma_core::{DomaError, ObjectId, ProcSet, ProcessorId, Request};
use doma_net::{Cluster, TransportKind};
use doma_protocol::{ProtocolConfig, ProtocolSim};
use std::collections::BTreeMap;

/// The threads of this process, as the kernel lists them; `None` where
/// `/proc` is not mounted.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(Iterator::count)
}

/// The process's thread count, re-read a few times while it is above
/// `floor`: the kernel unlists a thread a few microseconds after a join on
/// it has returned, so a joined thread may still be listed at the first
/// read. The grace is a few scheduler yields, well short of the time a
/// detached reader takes to see its socket close and exit.
fn settled_threads(floor: usize) -> usize {
    let mut count = threads().unwrap_or(floor);
    for _ in 0..3 {
        if count <= floor {
            break;
        }
        std::thread::yield_now();
        count = threads().unwrap_or(floor);
    }
    count
}

#[test]
fn shutdown_leaves_no_cluster_thread_behind() {
    let Some(before) = threads() else {
        eprintln!("skipping thread-count test: /proc/self/task unreadable");
        return;
    };
    let object: ObjectId = ProtocolSim::object();
    let config = ProtocolConfig::Da {
        f: ProcSet::EMPTY.with(ProcessorId::new(0)),
        p: ProcessorId::new(1),
    };
    for kind in [TransportKind::Uds, TransportKind::Tcp] {
        let mut cluster = match Cluster::new(
            4,
            BTreeMap::from([(object, config)]),
            Vec::new(),
            kind,
            None,
        ) {
            Ok(c) => c,
            Err(DomaError::Net(msg)) => {
                eprintln!("skipping thread-count test: sockets unavailable ({msg})");
                return;
            }
            Err(other) => panic!("cluster boot failed: {other}"),
        };
        assert!(
            threads().unwrap_or(0) > before,
            "{kind:?}: the cluster runs no thread"
        );
        for i in [2, 3, 0, 3, 1, 2] {
            let p = ProcessorId::new(i);
            cluster.execute_request(object, Request::read(p)).unwrap();
            cluster.execute_request(object, Request::write(p)).unwrap();
        }
        cluster.shutdown().unwrap();
        assert_eq!(
            settled_threads(before),
            before,
            "{kind:?}: threads outlived Cluster::shutdown"
        );
    }
}
