//! The six deployments of the request path — `sim`, `obs`, `trace`,
//! `shard2`, `uds`, `tcp` — each timed from outside and each checked
//! against the sim oracle. One driver thread, closed loop, one request in
//! flight, no injected delay.

use crate::spans::Spans;
use crate::sys;
use crate::workloads::Workload;
use doma_algorithms::multi::Placement;
use doma_core::{CostVector, DomaError, MultiRequest, MultiSchedule, Result};
use doma_net::{Cluster, ClusterReport, TransportKind};
use doma_obs::Obs;
use doma_protocol::{ProtocolSim, ShardedSim, SimReport};
use std::time::Instant;

/// Event-log capacity of the obs-attached deployments.
pub const OBS_EVENTS: usize = 4096;

/// How much of each deployment one run measures.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    pub requests: usize,
    pub sim_reps: usize,
    pub obs_reps: usize,
    pub trace_reps: usize,
    pub trace_requests: usize,
    pub shard_reps: usize,
    /// `uds`, `sim`, `obs` and `trace` take turns in this many rounds, each
    /// doing its share of the repetitions below: the box runs faster and
    /// slower in spells of seconds, and a deployment measured all at once
    /// can fall whole into a slow one.
    pub rounds: usize,
    /// Fresh `uds` clusters per round.
    pub uds_clusters: usize,
    pub segments: usize,
    pub segment_requests: usize,
    pub tcp_cap_s: f64,
    /// Requests of the traced pass that record spans.
    pub span_requests: usize,
    /// Times each set-up step is repeated for `setup_s`.
    pub setup_reps: usize,
}

impl Sizes {
    /// The full size, meant to take about `seconds` of measuring on the
    /// 2-core box it was sized on (at 30, the `run_seconds` of
    /// `BENCHMARK.json`, the counts below are the ones measured steady).
    /// Request counts stay; repetitions scale, so a fixed `--seconds`
    /// gives fixed sizes and two result sets can be compared.
    pub fn full(seconds: u64) -> Sizes {
        let scale = |reps: usize| ((reps as u64 * seconds + 15) / 30).max(3) as usize;
        Sizes {
            // Ceiling: ProtocolSim carries a lifetime budget of 1 000 000
            // dispatched events and mix64w needs about 2.8 per request.
            requests: 200_000,
            sim_reps: scale(30),
            obs_reps: scale(16),
            trace_reps: scale(24),
            trace_requests: 50_000,
            shard_reps: scale(30),
            rounds: 5,
            uds_clusters: scale(4),
            segments: 4,
            segment_requests: 1_000,
            tcp_cap_s: seconds as f64 / 7.5,
            span_requests: 20_000,
            setup_reps: 9,
        }
    }

    /// How many of `reps` repetitions fall into `round`.
    pub fn share(&self, reps: usize, round: usize) -> usize {
        reps / self.rounds + usize::from(round < reps % self.rounds)
    }

    /// One tenth of the size: every check on, nothing worth comparing.
    pub fn smoke() -> Sizes {
        Sizes {
            requests: 20_000,
            sim_reps: 3,
            obs_reps: 3,
            trace_reps: 3,
            trace_requests: 5_000,
            shard_reps: 3,
            rounds: 1,
            uds_clusters: 1,
            segments: 4,
            segment_requests: 100,
            tcp_cap_s: 1.0,
            span_requests: 2_000,
            setup_reps: 3,
        }
    }
}

/// Requests attempted, failures seen, and what failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one correctness check; a failed one counts as a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

/// Which variant of the sequential sim a deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMode {
    /// Observability detached.
    Plain,
    /// `attach_obs`.
    Obs,
    /// `attach_obs` + `enable_request_spans`.
    Spans,
}

/// Requests per timed chunk of a sim rep.
pub const CHUNK_REQUESTS: usize = 5_000;

/// The repetitions of one sim deployment.
pub struct SimRun {
    pub requests: usize,
    /// Wall seconds of each whole rep.
    pub rep_secs: Vec<f64>,
    /// Per chunk of the schedule, the fastest any rep ran it.
    chunk_best_secs: Vec<f64>,
    /// CPU time of the driver thread per rep (`schedstat`).
    pub rep_cpu_ns: Vec<u64>,
    pub report: SimReport,
    /// Engine events one rep dispatches.
    pub dispatched: u64,
    /// The last rep's bundle, when the mode attaches one.
    obs: Option<Obs>,
    pub wall_s: f64,
}

impl SimRun {
    /// Requests per second of the fastest rep that can be assembled from
    /// the reps run: each chunk of the schedule at the fastest any rep ran
    /// it. A rep is deterministic and single-threaded, so the box can only
    /// slow it down; a whole rep of 0.1 s rarely escapes preemption on a
    /// shared 2-core box, a chunk of 2 ms in one of the reps nearly always
    /// does.
    pub fn fastest_req_per_s(&self) -> f64 {
        self.requests as f64 / self.chunk_best_secs.iter().sum::<f64>()
    }

    /// The last rep's obs bundle.
    pub fn bundle(&self) -> &Obs {
        self.obs.as_ref().expect("this mode attaches a bundle")
    }

    /// Adds the reps a later round of the same deployment ran; they must
    /// give the same report (check 1).
    pub fn absorb(&mut self, later: SimRun, tally: &mut Tally) {
        tally.check(self.report == later.report, || {
            "a later round's report differs from the first round's".to_string()
        });
        for (best, secs) in self.chunk_best_secs.iter_mut().zip(later.chunk_best_secs) {
            *best = best.min(secs);
        }
        self.rep_secs.extend(later.rep_secs);
        self.rep_cpu_ns.extend(later.rep_cpu_ns);
        self.obs = later.obs;
        self.wall_s += later.wall_s;
    }
}

/// A fresh simulator for the workload, ready for its first request.
pub fn fresh_sim(w: &Workload, mode: SimMode) -> Result<(ProtocolSim, Option<Obs>)> {
    let mut sim = ProtocolSim::new_catalog(w.n, w.catalog.clone())?;
    let obs = (mode != SimMode::Plain).then(|| sim.attach_obs(OBS_EVENTS));
    if mode == SimMode::Spans {
        sim.enable_request_spans();
    }
    Ok((sim, obs))
}

/// Runs `reps` fresh simulators over `schedule`, fed in chunks of
/// [`CHUNK_REQUESTS`] and timing each chunk's `execute_multi` only
/// (building the simulator is set-up). Every rep must give the same report
/// (check 1).
pub fn run_sim(
    w: &Workload,
    schedule: &MultiSchedule,
    reps: usize,
    mode: SimMode,
    tally: &mut Tally,
) -> Result<SimRun> {
    let wall = Instant::now();
    let chunks: Vec<MultiSchedule> = schedule
        .requests()
        .chunks(CHUNK_REQUESTS)
        .map(|c| MultiSchedule::from_requests(c.to_vec()))
        .collect();
    let mut chunk_best_secs = vec![f64::INFINITY; chunks.len()];
    let mut rep_secs = Vec::with_capacity(reps);
    let mut rep_cpu_ns = Vec::with_capacity(reps);
    let mut latest: Option<(SimReport, u64, Option<Obs>)> = None;
    for rep in 0..reps {
        let (mut sim, obs) = fresh_sim(w, mode)?;
        tally.attempted += schedule.len() as u64;
        let cpu = sys::thread_cpu_ns();
        let mut chunk_secs = Vec::with_capacity(chunks.len());
        let mut outcome = Ok(sim.report());
        for chunk in &chunks {
            let start = Instant::now();
            outcome = sim.execute_multi(std::hint::black_box(chunk));
            chunk_secs.push(start.elapsed().as_secs_f64());
            if outcome.is_err() {
                break;
            }
        }
        let cpu = sys::thread_cpu_ns() - cpu;
        match outcome {
            Ok(report) => {
                rep_secs.push(chunk_secs.iter().sum());
                rep_cpu_ns.push(cpu);
                for (best, secs) in chunk_best_secs.iter_mut().zip(chunk_secs) {
                    *best = best.min(secs);
                }
                if let Some((previous, _, _)) = &latest {
                    tally.check(*previous == report, || {
                        format!("{mode:?} rep {rep}: report differs from the rep before")
                    });
                }
                latest = Some((report, sim.engine_ref().dispatched(), obs));
            }
            Err(e) => tally.fail(format!("{mode:?} rep {rep}: {e}")),
        }
    }
    let (report, dispatched, obs) =
        latest.ok_or_else(|| DomaError::InvalidConfig(format!("{mode:?}: every rep failed")))?;
    Ok(SimRun {
        requests: schedule.len(),
        rep_secs,
        chunk_best_secs,
        rep_cpu_ns,
        report,
        dispatched,
        obs,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

/// The sharded deployment: K = 2 shards on scoped threads.
pub struct ShardRun {
    pub requests: usize,
    pub rep_secs: Vec<f64>,
    pub wall_s: f64,
}

impl ShardRun {
    /// Requests per second of the fastest rep.
    pub fn fastest_req_per_s(&self) -> f64 {
        self.requests as f64 / crate::stats::fastest(&self.rep_secs)
    }
}

pub const SHARDS: usize = 2;

pub fn sharded(w: &Workload) -> Result<ShardedSim> {
    ShardedSim::new(w.n, w.catalog.clone(), SHARDS, Placement::RoundRobin)
}

/// Runs the sharded driver `reps` times; its merged report must equal the
/// sequential one (check 1).
pub fn run_shard2(
    w: &Workload,
    schedule: &MultiSchedule,
    reps: usize,
    expected: &SimReport,
    tally: &mut Tally,
) -> Result<ShardRun> {
    let wall = Instant::now();
    let driver = sharded(w)?;
    let mut rep_secs = Vec::with_capacity(reps);
    for rep in 0..reps {
        tally.attempted += schedule.len() as u64;
        let start = Instant::now();
        let outcome = driver.execute_multi(std::hint::black_box(schedule));
        let secs = start.elapsed().as_secs_f64();
        match outcome {
            Ok(run) => {
                rep_secs.push(secs);
                tally.check(run.report == *expected, || {
                    format!("shard2 rep {rep}: merged report differs from the sequential one")
                });
            }
            Err(e) => tally.fail(format!("shard2 rep {rep}: {e}")),
        }
    }
    if rep_secs.is_empty() {
        return Err(DomaError::InvalidConfig("shard2: every rep failed".into()));
    }
    Ok(ShardRun {
        requests: schedule.len(),
        rep_secs,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

/// What one socket deployment measured.
pub struct ClusterRun {
    /// Per segment, the wall time of every `execute_request` in µs
    /// (inject → quiescent).
    pub segment_lat_us: Vec<Vec<f64>>,
    /// Per segment, its wall seconds.
    pub segment_secs: Vec<f64>,
    pub boot_ms: Vec<f64>,
    pub shutdown_ms: Vec<f64>,
    /// Wall time of `node_reports()`: one frame out and back per node,
    /// which is also what one quiescence poll round costs.
    pub report_round_us: Vec<f64>,
    /// Node-to-node messages the clusters sent.
    pub msgs: u64,
    /// Process CPU time over the request loops.
    pub cpu_ns: u64,
    pub wall_s: f64,
}

impl ClusterRun {
    pub fn served(&self) -> usize {
        self.segment_lat_us.iter().map(Vec::len).sum()
    }

    pub fn all_lat_us(&self) -> Vec<f64> {
        self.segment_lat_us.concat()
    }

    /// Requests completed per second of request-loop time.
    pub fn req_per_s(&self) -> f64 {
        self.served() as f64 / self.segment_secs.iter().sum::<f64>()
    }

    /// Adds what a later round of the same deployment measured.
    pub fn absorb(&mut self, later: ClusterRun) {
        self.segment_lat_us.extend(later.segment_lat_us);
        self.segment_secs.extend(later.segment_secs);
        self.boot_ms.extend(later.boot_ms);
        self.shutdown_ms.extend(later.shutdown_ms);
        self.report_round_us.extend(later.report_round_us);
        self.msgs += later.msgs;
        self.cpu_ns += later.cpu_ns;
        self.wall_s += later.wall_s;
    }
}

/// Report rounds timed per cluster after its request loop.
const REPORT_ROUNDS: usize = 20;
/// A traced cluster records a `cluster.report_round` span this often.
const TRACED_ROUND_EVERY: usize = 100;

/// What the sim twin says a cluster that served `prefix` must report.
fn twin_report(w: &Workload, prefix: &[MultiRequest]) -> Result<SimReport> {
    let mut twin = ProtocolSim::new_catalog(w.n, w.catalog.clone())?;
    for MultiRequest { object, request } in prefix {
        twin.execute_request_on(*object, *request)?;
    }
    Ok(twin.report())
}

fn matches_twin(cluster: &ClusterReport, twin: &SimReport) -> bool {
    cluster.errors == 0
        && cluster.cost == twin.cost
        && cluster.final_holders == twin.final_holders
        && cluster.reads_completed == twin.reads_completed
}

/// Boots a cluster and waits until it can take its first request.
/// `Cluster::new` returns once the driver is connected, while the nodes are
/// still dialling each other; a node answers a report round only from its
/// event loop, which starts when its mesh is up. (Shutting a cluster down
/// before that fails with "connection refused" from the late diallers.)
pub fn boot_cluster(w: &Workload, kind: TransportKind) -> Result<(Cluster, f64)> {
    let start = Instant::now();
    let mut cluster = Cluster::new(w.n, w.catalog.clone(), Vec::new(), kind, None)?;
    cluster.node_reports()?;
    Ok((cluster, start.elapsed().as_secs_f64()))
}

/// Boots fresh clusters over `kind`; each serves the first `segments ×
/// segment_requests` requests of the schedule in segments. Over UDS that is
/// one round of `uds_clusters` clusters; over TCP one cluster that stops
/// early (between requests) once `tcp_cap_s` seconds of request time have
/// passed. Each cluster's report must equal the sim twin stepped over
/// exactly the served prefix (check 3). Sockets refused by the sandbox
/// surface as `DomaError::Net` — a hard failure, never a skip.
pub fn run_cluster(
    w: &Workload,
    schedule: &MultiSchedule,
    kind: TransportKind,
    sizes: &Sizes,
    mut spans: Option<&mut Spans>,
    tally: &mut Tally,
) -> Result<ClusterRun> {
    let (clusters, cap_s) = match kind {
        TransportKind::Uds => (sizes.uds_clusters, None),
        TransportKind::Tcp => (1, Some(sizes.tcp_cap_s)),
    };
    let wall = Instant::now();
    let per_cluster = (sizes.segments * sizes.segment_requests).min(schedule.len());
    let mut run = ClusterRun {
        segment_lat_us: Vec::new(),
        segment_secs: Vec::new(),
        boot_ms: Vec::new(),
        shutdown_ms: Vec::new(),
        report_round_us: Vec::new(),
        msgs: 0,
        cpu_ns: 0,
        wall_s: 0.0,
    };
    let mut twin: Option<(usize, SimReport)> = None;
    let mut request_secs = 0.0;
    for index in 0..clusters {
        let (mut cluster, boot_s) = boot_cluster(w, kind)?;
        run.boot_ms.push(boot_s * 1e3);

        let cpu = sys::process_cpu_ns();
        let mut served = 0usize;
        let mut errored = false;
        'segments: for segment in schedule.requests()[..per_cluster].chunks(sizes.segment_requests)
        {
            let mut lat_us = Vec::with_capacity(segment.len());
            let segment_start = Instant::now();
            for MultiRequest { object, request } in segment {
                if cap_s
                    .is_some_and(|cap| request_secs + segment_start.elapsed().as_secs_f64() >= cap)
                {
                    break;
                }
                // Only the first cluster's first requests record spans.
                let mut rec = spans
                    .as_deref_mut()
                    .filter(|_| index == 0 && served < sizes.span_requests);
                tally.attempted += 1;
                let span = rec
                    .as_deref_mut()
                    .map(|s| s.open("cluster.execute_request", None, served as u32));
                let start = Instant::now();
                let outcome = cluster.execute_request(*object, *request);
                lat_us.push(start.elapsed().as_secs_f64() * 1e6);
                if let (Some(s), Some(id)) = (rec.as_deref_mut(), span) {
                    s.close(id);
                }
                if let Err(e) = outcome {
                    // A cluster that lost a request cannot be compared to
                    // the twin any further: stop it here.
                    tally.fail(format!("{kind:?} cluster {index} request {served}: {e}"));
                    errored = true;
                    break 'segments;
                }
                served += 1;
                if let Some(s) = rec.filter(|_| served.is_multiple_of(TRACED_ROUND_EVERY)) {
                    let id = s.open("cluster.report_round", None, served as u32);
                    cluster.node_reports()?;
                    s.close(id);
                }
            }
            if lat_us.is_empty() {
                break;
            }
            let secs = segment_start.elapsed().as_secs_f64();
            request_secs += secs;
            run.segment_secs.push(secs);
            run.segment_lat_us.push(lat_us);
        }
        run.cpu_ns += sys::process_cpu_ns() - cpu;

        if !errored {
            for _ in 0..REPORT_ROUNDS {
                let start = Instant::now();
                cluster.node_reports()?;
                run.report_round_us
                    .push(start.elapsed().as_secs_f64() * 1e6);
            }
            let report = cluster.report()?;
            run.msgs += report.cost.control + report.cost.data;
            if twin.as_ref().map(|(len, _)| *len) != Some(served) {
                twin = Some((served, twin_report(w, &schedule.requests()[..served])?));
            }
            let expected = &twin.as_ref().expect("just set").1;
            tally.check(matches_twin(&report, expected), || {
                format!(
                    "{kind:?} cluster {index}: {report:?} differs from the sim twin {expected:?} \
                     over {served} requests"
                )
            });
        }
        let stop = Instant::now();
        cluster.shutdown()?;
        run.shutdown_ms.push(stop.elapsed().as_secs_f64() * 1e3);
    }
    if run.served() == 0 {
        return Err(DomaError::Net(format!("{kind:?}: no request was served")));
    }
    run.wall_s = wall.elapsed().as_secs_f64();
    Ok(run)
}

/// The paper's cost of a run per request under SC pricing
/// `cio = 1, cc = 0.25, cd = 1`.
pub fn cost_per_req(cost: &CostVector, requests: usize) -> f64 {
    let model = doma_core::CostModel::stationary(0.25, 1.0).expect("cc <= cd");
    cost.eval(&model) / requests as f64
}

/// A one-line digest of a report: equal digests mean equal outputs.
pub fn report_digest(report: &SimReport) -> String {
    format!(
        "control={} data={} io={} reads={} latency_ticks={} holders={:?} dropped={}",
        report.cost.control,
        report.cost.data,
        report.cost.io,
        report.reads_completed,
        report.read_latency_ticks,
        report
            .final_holders
            .iter()
            .map(|p| p.index())
            .collect::<Vec<_>>(),
        report.dropped_messages,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::ProcSet;

    #[test]
    fn digest_names_every_compared_field() {
        let report = SimReport {
            cost: CostVector::new(3, 2, 5),
            final_holders: ProcSet::from_iter([0usize, 4]),
            reads_completed: 7,
            read_latency_ticks: 21,
            mean_read_latency: 3.0,
            dropped_messages: 0,
        };
        assert_eq!(
            report_digest(&report),
            "control=3 data=2 io=5 reads=7 latency_ticks=21 holders=[0, 4] dropped=0"
        );
        let mut other = report.clone();
        other.cost.io += 1;
        assert_ne!(report_digest(&report), report_digest(&other));
        // 0.25·3 + 2 + 5 over 4 requests.
        assert_eq!(cost_per_req(&report.cost, 4), 7.75 / 4.0);
    }

    #[test]
    fn sizes_scale_with_seconds() {
        let s = Sizes::full(30);
        assert_eq!(
            (s.sim_reps, s.obs_reps, s.shard_reps, s.uds_clusters),
            (30, 16, 30, 4)
        );
        assert_eq!(s.tcp_cap_s, 4.0);
        let shares: Vec<usize> = (0..s.rounds).map(|r| s.share(s.obs_reps, r)).collect();
        assert_eq!(shares, [4, 3, 3, 3, 3]);
        assert!(Sizes::full(1).sim_reps >= 3);
    }
}
