//! The sim's event budget is a per-settle livelock guard, not a lifetime
//! allowance: one `ProtocolSim` serves a write-heavy stream whose total
//! event count is well past the budget, because no single request comes
//! near it. (That a flooding actor still trips the guard is
//! `doma-sim`'s `event_budget_restarts_with_every_run` and
//! `runaway_protocol_trips_the_valve`.)
//!
//! The same run shows what else must not grow with a node's age: every
//! delivered write appends a redo-log record, and the store compacts the
//! log on a fixed record budget, so at the end each node's log holds no
//! more than the budget plus what its replicas need.

use doma::core::ProcSet;
use doma::protocol::ProtocolSim;
use doma::sim::NodeId;
use doma::storage::LOG_BUDGET;
use doma::workload::{ScheduleGen, UniformWorkload};

#[test]
fn one_sim_outlives_its_per_settle_budget() {
    const NODES: usize = 8;
    const REQUESTS: usize = 450_000;
    // Read share 0.2, as on the benchmark's `mix64w`.
    let schedule = UniformWorkload::new(NODES, 0.2)
        .unwrap()
        .generate(REQUESTS, 7);
    let mut sim = ProtocolSim::new_sa(NODES, ProcSet::from_iter([0usize, 1])).unwrap();
    let report = sim.execute(&schedule).unwrap();
    assert!(
        sim.engine_ref().dispatched() > 1_000_000,
        "the stream must outrun the 1 000 000-event budget to prove anything: {}",
        sim.engine_ref().dispatched()
    );
    assert!(!sim.engine_ref().budget_exhausted());
    assert_eq!(report.dropped_messages, 0);
    let writes = schedule.iter().filter(|r| !r.is_read()).count() as u64;
    assert!(report.cost.io >= writes, "every write reached a store");

    // One object: a holder's log may keep the budget and one record more.
    const OBJECTS: usize = 1;
    for node in (0..NODES).map(NodeId) {
        let log = sim.engine_ref().actor(node).redo_log();
        assert!(
            log.retained() <= LOG_BUDGET + OBJECTS,
            "{node}: {} records held of {} appended",
            log.retained(),
            log.len()
        );
    }
    let holder = sim.engine_ref().actor(NodeId(0)).redo_log();
    assert_eq!(
        holder.len() as u64,
        writes + 1,
        "the preload and every write"
    );
    assert!(holder.retained() < holder.len() / 100);
}
