//! Mobile location tracking — the §1.1/§2 scenario, run end-to-end.
//!
//! Run with: `cargo run --example mobile_tracking`
//!
//! A mobile user's *location object* is written by the cell the user is
//! currently attached to and read by callers looking the user up. We run
//! the workload three ways:
//!
//! 1. as a real DA protocol (base station = core, t = 2) on the
//!    discrete-event simulator, checking the tallies against the analytic
//!    cost engine;
//! 2. as SA vs DA under the **mobile** cost model (I/O is free; every
//!    wireless message is billed), showing DA's dominance (Figure 2);
//! 3. with a base-station failure, demonstrating the quorum fallback and
//!    missing-writes recovery of §2.

use doma::algorithms::{DynamicAllocation, StaticAllocation};
use doma::core::{run_online, CostModel, ProcSet, ProcessorId, Request};
use doma::protocol::failover::FailoverDriver;
use doma::protocol::Entrant;
use doma::workload::{MobileWorkload, ScheduleGen};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 3 cells, 4 caller processors, 30% handoff probability, 70% reads.
    let workload = MobileWorkload::new(3, 4, 0.3, 0.7)?;
    let n = workload.universe();
    let schedule = workload.generate(300, 42);
    println!(
        "mobile workload: {} processors (base station 0, cells 1-3, callers 4-7), {} requests ({} reads / {} writes)",
        n,
        schedule.len(),
        schedule.read_count(),
        schedule.write_count()
    );

    // --- 1. The real protocol, on the simulator ---------------------------
    let mut sim = Entrant::Da.sim(n)?;
    let report = sim.execute(&schedule)?;
    println!(
        "\nprotocol run: {} control msgs, {} data msgs, {} I/Os, mean read latency {:.1} ticks",
        report.cost.control, report.cost.data, report.cost.io, report.mean_read_latency
    );

    let mut da = DynamicAllocation::new(ProcSet::from_iter([0]), ProcessorId::new(1))?;
    let analytic = run_online(&mut da, &schedule)?;
    assert_eq!(
        report.cost, analytic.costed.total,
        "simulated tallies must equal the analytic cost model"
    );
    println!("analytic model agrees tally-for-tally ✓");

    // --- 2. SA vs DA under the mobile cost model --------------------------
    let model = CostModel::mobile(0.2, 1.0)?;
    let mut sa = StaticAllocation::new(ProcSet::from_iter([0, 1]))?;
    let sa_cost = run_online(&mut sa, &schedule)?.costed.total_cost(&model);
    let da_cost = analytic.costed.total_cost(&model);
    println!(
        "\nmobile cost model (cc=0.2, cd=1.0, I/O free): SA = {sa_cost:.1}, DA = {da_cost:.1}  (DA/SA = {:.2})",
        da_cost / sa_cost
    );
    assert!(
        da_cost < sa_cost,
        "Figure 2: DA dominates in mobile computing"
    );

    // --- 3. Base-station failure and recovery -----------------------------
    println!("\ninjecting base-station failure…");
    let sim = Entrant::Da.sim(n)?;
    let mut driver = FailoverDriver::new(sim, n);
    driver.execute_request(Request::write(2usize))?;
    driver.crash(ProcessorId::new(0))?; // the core fails → quorum mode
    driver.execute_request(Request::write(3usize))?; // still writable
    driver.execute_request(Request::read(5usize))?; // still readable
    let v = driver.sim().latest_version();
    println!(
        "  while down: version {v} reached {} live replicas via quorum writes",
        driver.live_holders_of(v)
    );
    driver.recover(ProcessorId::new(0))?; // missing-writes catch-up
    assert!(
        driver.sim().holders_of(v).contains(ProcessorId::new(0)),
        "recovered base station must hold the latest version"
    );
    println!("  base station recovered and caught up to {v} ✓");
    Ok(())
}
