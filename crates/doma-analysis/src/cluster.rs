//! The real-runtime twin harness behind `domactl cluster`: runs a
//! scenario's schedule through the socket cluster **and** the
//! deterministic simulator, then structurally diffs the two runs.
//!
//! Both twins share one seed of truth: [`doma_scenario::build_schedule`]
//! materializes the request schedule, the roster
//! ([`doma_protocol::Entrant`]) describes the deployment, and
//! [`doma_protocol::ClientPlanner`] plans every request identically on
//! both sides. A correct transport layer
//! therefore has nothing left to disagree about — the diff covers the
//! per-request allocation-scheme trajectory, the exact cost totals, and
//! the byte-stable protocol obs metrics.
//!
//! Event timestamps differ between twins by construction (the sim's
//! global virtual clock vs the cluster's per-node delivery ticks), so
//! the obs comparison covers the `protocol` *metrics* — all of which
//! are delivery-order-independent counters — and excludes the event log.

use doma_core::{CostVector, DomaError, ProcSet, Request, Schedule};
use doma_net::{Cluster, TransportKind};
use doma_obs::{MetricsSnapshot, Obs};
use doma_protocol::Tunables;
use doma_scenario::Scenario;
use std::collections::BTreeMap;

/// The outcome of one twin run: both trajectories, both tallies, and
/// every structural difference found (empty = the runtimes agree).
#[derive(Debug, Clone)]
pub struct TwinReport {
    /// The scenario that ran.
    pub scenario: String,
    /// Cluster size (after any `--nodes` override).
    pub n: usize,
    /// The socket transport the cluster used.
    pub transport: &'static str,
    /// Requests executed by each twin.
    pub requests: usize,
    /// The sim twin's per-request valid-holder trajectory.
    pub sim_trajectory: Vec<ProcSet>,
    /// The cluster's per-request valid-holder trajectory.
    pub net_trajectory: Vec<ProcSet>,
    /// The sim twin's exact cost totals.
    pub sim_cost: CostVector,
    /// The cluster's exact cost totals.
    pub net_cost: CostVector,
    /// The sim twin's protocol obs snapshot (byte-stable JSON).
    pub sim_obs_json: String,
    /// The cluster's protocol obs snapshot (byte-stable JSON).
    pub net_obs_json: String,
    /// Every divergence, in audit order.
    pub diffs: Vec<String>,
}

impl TwinReport {
    /// Whether the cluster reproduced the sim twin exactly.
    pub fn matches(&self) -> bool {
        self.diffs.is_empty()
    }

    /// A human-readable verdict block.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "cluster {} ({} nodes, {} transport, {} requests)\n",
            self.scenario, self.n, self.transport, self.requests
        ));
        out.push_str(&format!(
            "  sim twin: {} control, {} data, {} I/O\n",
            self.sim_cost.control, self.sim_cost.data, self.sim_cost.io
        ));
        out.push_str(&format!(
            "  cluster:  {} control, {} data, {} I/O\n",
            self.net_cost.control, self.net_cost.data, self.net_cost.io
        ));
        if self.matches() {
            out.push_str("  parity: MATCH — trajectory, cost totals and protocol obs identical\n");
        } else {
            for d in &self.diffs {
                out.push_str(&format!("  parity: DIVERGED — {d}\n"));
            }
        }
        out
    }
}

/// Wraps filtered metrics as a standalone obs snapshot document, so the
/// twin JSONs feed straight into `domactl obs diff`.
fn obs_doc(snapshot: &MetricsSnapshot) -> String {
    format!(
        "{{\"dropped_events\": 0, \"events\": [], \"metrics\": {}}}",
        snapshot.to_json()
    )
}

/// The protocol-component slice of an obs bundle's metrics.
fn protocol_metrics(obs: &Obs) -> MetricsSnapshot {
    let snap = obs.metrics().snapshot();
    MetricsSnapshot {
        metrics: snap
            .metrics
            .into_iter()
            .filter(|(k, _)| k.component == "protocol")
            .collect(),
    }
}

/// Runs `scenario` through the socket cluster and the deterministic sim
/// and diffs the two runs. `nodes` overrides the scenario's cluster size
/// (both twins are resized, so parity still holds).
///
/// Returns `Err(DomaError::Net)` when the platform refuses sockets —
/// callers report "runtime unavailable" and skip, rather than failing.
pub fn run_twin(
    scenario: &Scenario,
    kind: TransportKind,
    nodes: Option<usize>,
) -> Result<TwinReport, String> {
    let mut scenario = scenario.clone();
    if let Some(n) = nodes {
        scenario.n = n;
    }
    if !scenario.faults.is_empty() {
        return Err(format!(
            "scenario '{}' injects faults; the real runtime executes failure-free \
             workloads only — replay it with --transport sim",
            scenario.name
        ));
    }
    let schedule =
        doma_scenario::build_schedule(&scenario).map_err(|e| format!("{}: {e}", scenario.name))?;
    run_twin_schedule(&scenario, &schedule, kind)
}

fn run_twin_schedule(
    scenario: &Scenario,
    schedule: &Schedule,
    kind: TransportKind,
) -> Result<TwinReport, String> {
    let object = doma_protocol::ProtocolSim::object();
    let err = |e: DomaError| format!("{}: {e}", scenario.name);
    let config = scenario.entrant.config();
    let oracle = config
        .oracle(scenario.n, Tunables::CANONICAL)
        .map_err(err)?;

    // The deterministic twin, stepped per request to record the
    // trajectory the cluster must reproduce.
    let mut sim = scenario.entrant.sim(scenario.n).map_err(err)?;
    let sim_obs = sim.attach_obs(scenario.events);
    let mut sim_trajectory = Vec::with_capacity(schedule.len());
    for request in schedule.iter() {
        sim.execute_request_on(object, request).map_err(err)?;
        sim_trajectory.push(sim.valid_holders_of(object));
    }
    let sim_report = sim.report();
    let sim_metrics = protocol_metrics(&sim_obs);

    // The real-runtime twin: same config, same oracle, same planner —
    // only the transport differs. Socket refusal is DomaError::Net and
    // must stay distinguishable from a parity failure.
    let configs = BTreeMap::from([(object, config)]);
    let oracles = oracle.map(|o| (object, o)).into_iter().collect();
    let net_obs = Obs::new(scenario.events);
    let mut cluster = Cluster::new(scenario.n, configs, oracles, kind, Some(net_obs.clone()))
        .map_err(|e| match e {
            DomaError::Net(msg) => format!("sockets unavailable: {msg}"),
            other => format!("{}: {other}", scenario.name),
        })?;
    let run = (|| -> doma_core::Result<(Vec<ProcSet>, doma_net::ClusterReport)> {
        let trajectory = cluster.execute_schedule(object, schedule)?;
        let report = cluster.report()?;
        Ok((trajectory, report))
    })();
    let shutdown = cluster.shutdown();
    let (net_trajectory, net_report) = run.map_err(err)?;
    shutdown.map_err(err)?;
    let net_metrics = protocol_metrics(&net_obs);

    let mut diffs = Vec::new();
    if net_trajectory != sim_trajectory {
        let at = net_trajectory
            .iter()
            .zip(sim_trajectory.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| net_trajectory.len().min(sim_trajectory.len()));
        let req: Vec<Request> = schedule.iter().collect();
        diffs.push(format!(
            "allocation-scheme trajectory diverges at request {at} ({:?}): cluster {} vs sim {}",
            req.get(at).map(|r| r.to_string()).unwrap_or_default(),
            net_trajectory
                .get(at)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "<missing>".into()),
            sim_trajectory
                .get(at)
                .map(|s| s.to_string())
                .unwrap_or_else(|| "<missing>".into()),
        ));
    }
    if net_report.cost != sim_report.cost {
        diffs.push(format!(
            "cost totals: cluster {:?} vs sim {:?}",
            net_report.cost, sim_report.cost
        ));
    }
    if net_report.final_holders != sim_report.final_holders {
        diffs.push(format!(
            "final holders: cluster {} vs sim {}",
            net_report.final_holders, sim_report.final_holders
        ));
    }
    if net_report.reads_completed != sim_report.reads_completed {
        diffs.push(format!(
            "reads completed: cluster {} vs sim {}",
            net_report.reads_completed, sim_report.reads_completed
        ));
    }
    if net_report.errors > 0 {
        diffs.push(format!(
            "cluster recorded {} protocol error(s)",
            net_report.errors
        ));
    }
    let sim_obs_json = obs_doc(&sim_metrics);
    let net_obs_json = obs_doc(&net_metrics);
    if sim_obs_json != net_obs_json {
        let detail = crate::obsdiff::diff_texts(&sim_obs_json, &net_obs_json, None)
            .map(|d| crate::obsdiff::render(&d))
            .unwrap_or_else(|e| format!("(obs diff failed: {e})\n"));
        diffs.push(format!(
            "protocol obs metrics diverge:\n{}",
            detail.trim_end()
        ));
    }

    Ok(TwinReport {
        scenario: scenario.name.clone(),
        n: scenario.n,
        transport: match kind {
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        },
        requests: schedule.len(),
        sim_trajectory,
        net_trajectory,
        sim_cost: sim_report.cost,
        net_cost: net_report.cost,
        sim_obs_json,
        net_obs_json,
        diffs,
    })
}
