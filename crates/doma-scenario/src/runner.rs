//! Executes a validated [`Scenario`] through the protocol simulator and
//! audits its expected-invariant block.
//!
//! The runner mirrors the tournament's measurement discipline: the
//! entrant runs as a real message-passing protocol (SA and DA natively,
//! adaptive allocators as driver-side plan oracles) with the obs bundle
//! and event tracer attached, and — for failure-free scenarios — the
//! summed `protocol/cost.*` registry counters must equal the simulator's
//! exact tallies. The byte-stable obs snapshot is hashed with FNV-1a 64
//! into the scenario's digest; builtin scenarios pin that digest
//! in-repo, turning every run into a conformance check.

use crate::model::{Scenario, WorkloadSpec};
use crate::{digest64, format_digest, ScenarioError};
use doma_algorithms::search::ratio;
use doma_algorithms::OfflineOptimal;
use doma_core::{CostVector, ProcSet, Schedule};
use doma_obs::json::escape;
use doma_protocol::{registry_cost, ProtocolSim};
use doma_sim::FaultPlan;
use doma_testkit::rng::splitmix64;
use doma_workload::{
    AppendOnlyWorkload, ChaoticWorkload, HotspotWorkload, MobileWorkload, ScheduleGen,
    UniformWorkload, ZipfWorkload,
};

/// The outcome of one scenario run: exact tallies, the audited
/// expected-invariant block, and the golden digest.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The scenario's name.
    pub scenario: String,
    /// The entrant that ran.
    pub entrant: &'static str,
    /// Requests executed.
    pub requests: usize,
    /// The simulator's exact resource tally.
    pub cost: CostVector,
    /// The tally priced under the scenario's cost model.
    pub algo_cost: f64,
    /// The exact offline optimum (computed when the scenario bounds the
    /// ratio).
    pub opt_cost: Option<f64>,
    /// `algo_cost / opt_cost`, when OPT was computed.
    pub ratio: Option<f64>,
    /// Reads completed by the protocol.
    pub reads_completed: u64,
    /// Messages lost to injected faults.
    pub dropped_messages: u64,
    /// The obs `protocol/scheme_churn` counter.
    pub scheme_churn: u64,
    /// Valid replica holders at quiescence.
    pub valid_holders: ProcSet,
    /// `0x` + 16 hex digits of the obs snapshot's FNV-1a 64 digest.
    pub digest: String,
    /// The byte-stable obs snapshot JSON the digest covers.
    pub snapshot_json: String,
    /// Every expected-invariant violation, in audit order (empty =
    /// scenario passed).
    pub violations: Vec<String>,
}

impl RunReport {
    /// Whether every expected invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// A human-readable summary block.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scenario {} ({} entrant, {} requests)\n",
            self.scenario, self.entrant, self.requests
        ));
        out.push_str(&format!(
            "  cost: {:.3} ({} control, {} data, {} I/O)\n",
            self.algo_cost, self.cost.control, self.cost.data, self.cost.io
        ));
        if let (Some(opt), Some(ratio)) = (self.opt_cost, self.ratio) {
            out.push_str(&format!("  vs OPT: {opt:.3} (ratio {ratio:.4})\n"));
        }
        out.push_str(&format!(
            "  reads completed: {}; dropped messages: {}; scheme churn: {}; holders: {}\n",
            self.reads_completed, self.dropped_messages, self.scheme_churn, self.valid_holders
        ));
        out.push_str(&format!("  digest: {}\n", self.digest));
        if self.violations.is_empty() {
            out.push_str("  expect: PASS\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("  expect: FAIL — {v}\n"));
            }
        }
        out
    }

    /// The byte-stable JSON export: scenario identity, digest, verdict
    /// and the full obs snapshot.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"scenario\": \"{}\", \"entrant\": \"{}\", \"requests\": {}, \"digest\": \"{}\", ",
            escape(&self.scenario),
            escape(self.entrant),
            self.requests,
            escape(&self.digest),
        ));
        out.push_str(&format!("\"passed\": {}, \"violations\": [", self.passed()));
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape(v)));
        }
        out.push_str(&format!("], \"obs\": {}}}", self.snapshot_json));
        out
    }
}

fn runtime(e: impl std::fmt::Display) -> ScenarioError {
    ScenarioError::msg(e.to_string())
}

/// The per-phase generator seed: derived from the scenario seed and the
/// phase index so phases draw independent streams while the whole
/// schedule stays a pure function of the scenario.
fn phase_seed(seed: u64, index: usize) -> u64 {
    let mut state = seed ^ ((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    splitmix64(&mut state)
}

/// Generates `len` requests of one workload on `n` processors from
/// `seed` — the one table mapping a [`WorkloadSpec`] to its
/// `doma-workload` generator. Trace workloads replay verbatim (`len` and
/// `seed` do not apply).
pub fn generate_phase(
    workload: &WorkloadSpec,
    n: usize,
    len: usize,
    seed: u64,
) -> Result<Schedule, ScenarioError> {
    let gen: Box<dyn ScheduleGen> = match workload {
        WorkloadSpec::Uniform { read_fraction } => {
            Box::new(UniformWorkload::new(n, *read_fraction).map_err(runtime)?)
        }
        WorkloadSpec::Zipf {
            theta,
            read_fraction,
        } => Box::new(ZipfWorkload::new(n, *theta, *read_fraction).map_err(runtime)?),
        WorkloadSpec::Hotspot {
            phase_len,
            hot_prob,
        } => Box::new(HotspotWorkload::new(n, *phase_len, *hot_prob).map_err(runtime)?),
        WorkloadSpec::Chaotic { redraw_every } => {
            Box::new(ChaoticWorkload::new(n, *redraw_every).map_err(runtime)?)
        }
        WorkloadSpec::Mobile {
            cells,
            callers,
            move_prob,
            read_fraction,
        } => Box::new(
            MobileWorkload::new(*cells, *callers, *move_prob, *read_fraction).map_err(runtime)?,
        ),
        WorkloadSpec::AppendOnly {
            generators,
            reads_per_write,
        } => Box::new(AppendOnlyWorkload::new(n, *generators, *reads_per_write).map_err(runtime)?),
        WorkloadSpec::Trace { text } => {
            return doma_workload::trace::read_trace(text.as_bytes()).map_err(runtime)
        }
    };
    Ok(gen.generate(len, seed))
}

/// Materializes the scenario's full request schedule: each phase's
/// generator produces its slice with a derived seed, trace phases replay
/// verbatim, and the slices concatenate in phase order.
pub fn build_schedule(scenario: &Scenario) -> Result<Schedule, ScenarioError> {
    let mut schedule = Schedule::new();
    for (i, phase) in scenario.phases.iter().enumerate() {
        let seed = phase_seed(scenario.seed, i);
        schedule.extend_from(&generate_phase(
            &phase.workload,
            scenario.n,
            phase.len,
            seed,
        )?);
    }
    Ok(schedule)
}

/// Runs the scenario end to end and audits its expected-invariant block.
/// Returns `Ok` even when expectations fail — inspect
/// [`RunReport::passed`]; `Err` means the scenario could not execute.
pub fn run(scenario: &Scenario) -> Result<RunReport, ScenarioError> {
    run_impl(scenario, false).map(|(report, _)| report)
}

/// Runs the scenario with per-request causal spans enabled
/// ([`ProtocolSim::enable_request_spans`]) and returns the obs bundle
/// alongside the report, so `domactl trace` can feed the event log to
/// [`doma_obs::trace::TraceModel`]. Span records change the obs
/// snapshot, so the golden-digest audit is skipped (every other audit —
/// obs parity included — still runs; spans are events, not metrics).
pub fn run_traced(scenario: &Scenario) -> Result<(RunReport, doma_obs::Obs), ScenarioError> {
    run_impl(scenario, true)
}

fn run_impl(
    scenario: &Scenario,
    traced: bool,
) -> Result<(RunReport, doma_obs::Obs), ScenarioError> {
    let schedule = build_schedule(scenario)?;
    let mut sim = scenario.entrant.sim(scenario.n).map_err(runtime)?;
    let obs = sim.attach_obs(scenario.events);
    sim.attach_tracer();
    if traced {
        sim.enable_request_spans();
    }
    if !scenario.is_failure_free() {
        let mut plan = FaultPlan::new(scenario.seed);
        for rule in &scenario.faults {
            plan = plan.rule(rule.clone());
        }
        for p in &scenario.partitions {
            plan = plan.partition(p.window.0, p.window.1, p.side.clone());
        }
        sim.engine_mut().install_faults(plan);
    }
    let report = sim.execute(&schedule).map_err(runtime)?;
    sim.obs_flush();

    let algo_cost = report.cost.eval(&scenario.model);
    let snapshot_json = obs.snapshot_json();
    let digest = format_digest(digest64(snapshot_json.as_bytes()));
    let snap = obs.metrics().snapshot();
    let scheme_churn = snap.sum_counters("protocol", "scheme_churn");
    let valid_holders = sim.valid_holders_of(ProtocolSim::object());

    let expect = &scenario.expect;
    let mut violations = Vec::new();
    if report.dropped_messages > expect.max_dropped_messages {
        violations.push(format!(
            "dropped_messages {} exceeds ceiling {}",
            report.dropped_messages, expect.max_dropped_messages
        ));
    }
    if let Some(want) = expect.reads_completed {
        if report.reads_completed != want {
            violations.push(format!(
                "reads_completed {} != pinned {want}",
                report.reads_completed
            ));
        }
    }
    if let Some(floor) = expect.min_valid_holders {
        if valid_holders.len() < floor {
            violations.push(format!(
                "valid holders {} below t-availability floor {floor}",
                valid_holders.len()
            ));
        }
    }
    if let Some(ceiling) = expect.max_scheme_churn {
        if scheme_churn > ceiling {
            violations.push(format!(
                "scheme_churn {scheme_churn} exceeds ceiling {ceiling}"
            ));
        }
    }
    if expect.obs_parity {
        let counted = registry_cost(&snap);
        if counted != report.cost {
            violations.push(format!(
                "obs parity violation: registry {counted:?} vs simulator {:?}",
                report.cost
            ));
        }
    }
    let (mut opt_cost, mut measured_ratio) = (None, None);
    if let Some(ceiling) = expect.max_ratio_vs_opt {
        let initial = scenario.entrant.config().initial_scheme();
        let opt = OfflineOptimal::new(scenario.n, scenario.entrant.t(), initial, scenario.model)
            .map_err(runtime)?
            .optimal_cost(&schedule)
            .map_err(runtime)?;
        let r = ratio(algo_cost, opt);
        opt_cost = Some(opt);
        measured_ratio = Some(r);
        if r > ceiling + 1e-9 {
            violations.push(format!("ratio vs OPT {r:.4} exceeds ceiling {ceiling}"));
        }
    }
    if let Some(golden) = &scenario.golden {
        // Span records change the snapshot; goldens pin the untraced run.
        if !traced && *golden != digest {
            violations.push(format!("digest {digest} != pinned golden {golden}"));
        }
    }

    let report = RunReport {
        scenario: scenario.name.clone(),
        entrant: scenario.entrant.as_str(),
        requests: schedule.len(),
        cost: report.cost,
        algo_cost,
        opt_cost,
        ratio: measured_ratio,
        reads_completed: report.reads_completed,
        dropped_messages: report.dropped_messages,
        scheme_churn,
        valid_holders,
        digest,
        snapshot_json,
        violations,
    };
    Ok((report, obs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Scenario;
    use crate::Entrant;

    fn demo(extra: &str) -> Scenario {
        Scenario::parse(&format!(
            "[scenario]\n\
             name = \"demo\"\n\
             description = \"runner demo\"\n\
             n = 6\n\
             seed = 7\n\
             entrant = \"da\"\n\
             [model]\n\
             environment = \"sc\"\n\
             cc = 0.25\n\
             cd = 1.0\n\
             [[phase]]\n\
             name = \"steady\"\n\
             workload = \"uniform\"\n\
             len = 20\n\
             read_fraction = 0.7\n\
             [[phase]]\n\
             name = \"skewed\"\n\
             workload = \"zipf\"\n\
             len = 10\n\
             theta = 1.0\n\
             read_fraction = 0.5\n\
             [expect]\n\
             max_dropped_messages = 0\n\
             min_valid_holders = 2\n\
             {extra}"
        ))
        .unwrap()
    }

    #[test]
    fn schedules_concatenate_phases_deterministically() {
        let s = demo("");
        let a = build_schedule(&s).unwrap();
        let b = build_schedule(&s).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        let mut reseeded = s.clone();
        reseeded.seed = 8;
        assert_ne!(build_schedule(&reseeded).unwrap(), a);
    }

    #[test]
    fn run_is_deterministic_and_audits_expectations() {
        let s = demo("");
        let a = run(&s).unwrap();
        let b = run(&s).unwrap();
        assert!(a.passed(), "unexpected violations: {:?}", a.violations);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.snapshot_json, b.snapshot_json);
        assert_eq!(a.render_json(), b.render_json());
        assert!(a.render_table().contains("expect: PASS"));
    }

    #[test]
    fn every_entrant_runs_the_same_scenario() {
        for entrant in Entrant::ALL {
            let mut s = demo("");
            s.entrant = entrant;
            // Write-invalidate maintains t = 1, not the default t = 2.
            s.expect.min_valid_holders = Some(entrant.t());
            let report = run(&s).unwrap();
            assert!(
                report.passed(),
                "{}: {:?}",
                entrant.as_str(),
                report.violations
            );
            assert_eq!(report.requests, 30);
        }
    }

    #[test]
    fn ratio_ceiling_is_audited_against_opt() {
        let s = demo("max_ratio_vs_opt = 50.0\n");
        let report = run(&s).unwrap();
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.opt_cost.is_some());
        let tight = demo("max_ratio_vs_opt = 1.0\n");
        let report = run(&tight).unwrap();
        // DA on a mixed workload is not optimal; the 1.0 ceiling must trip.
        assert!(!report.passed());
        assert!(report.violations[0].contains("ratio vs OPT"));
    }

    #[test]
    fn golden_mismatch_is_a_violation() {
        let mut s = demo("");
        s.golden = Some("0x0000000000000000".to_string());
        let report = run(&s).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("pinned golden")));
        // Re-pin with the measured digest: the run must now pass.
        s.golden = Some(report.digest.clone());
        assert!(run(&s).unwrap().passed());
    }

    #[test]
    fn faults_flow_into_the_engine_and_the_drop_ceiling() {
        let lossy = demo("")
            .to_toml()
            .replace(
                "[expect]",
                "[[fault]]\nkind = \"drop\"\nwindow = [0, 40]\nbudget = 2\n\n[expect]",
            )
            .replace("max_dropped_messages = 0", "max_dropped_messages = 2");
        let s = Scenario::parse(&lossy).unwrap();
        let report = run(&s).unwrap();
        assert!(report.dropped_messages > 0, "drop rule never fired");
        assert!(
            report
                .violations
                .iter()
                .all(|v| !v.contains("dropped_messages")),
            "{:?}",
            report.violations
        );
        let strict = Scenario::parse(
            &s.to_toml()
                .replace("max_dropped_messages = 2", "max_dropped_messages = 0"),
        )
        .unwrap();
        let report = run(&strict).unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("dropped_messages")));
    }
}
