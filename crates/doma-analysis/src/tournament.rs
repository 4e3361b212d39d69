//! The algorithm tournament: every first-class allocator run as a real
//! message-passing protocol over every workload generator, priced on a
//! `(cc, cd)` cost-model grid and measured against the exact offline
//! optimum.
//!
//! Each entrant executes once per workload through its roster deployment
//! ([`Entrant::sim`]: SA and DA natively, the adaptive allocators as
//! driver-side plan oracles) with the observability bundle attached. A run is rejected unless the summed
//! `protocol.cost.*` registry counters equal the simulator's exact tallies
//! — the tournament doubles as a differential test of the obs pipeline.
//! The measured tally is then priced under every grid model and divided by
//! [`OfflineOptimal`]'s exact cost, yielding the measured competitive
//! ratio per cell (the Figure 1/Figure 2 quantity). Where the paper proves
//! a bound (SA Theorem 1; DA Theorems 2–4) the cell also records it and
//! whether the measurement respects it.
//!
//! Everything is deterministic: fixed seeds, fixed iteration order, fixed
//! float formatting — [`render_json`] is byte-identical across runs.

use doma_algorithms::search::ratio;
use doma_algorithms::OfflineOptimal;
use doma_core::{CostModel, CostVector, DomaError, Result, Schedule};
use doma_protocol::{registry_cost, Entrant};
use doma_workload::{
    ChaoticWorkload, HotspotWorkload, MobileWorkload, ScheduleGen, UniformWorkload, ZipfWorkload,
};

/// Tournament dimensions: universe size, schedule length and the seed fed
/// to every workload generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TournamentSpec {
    /// Processors in the simulated cluster.
    pub n: usize,
    /// Requests per generated schedule.
    pub len: usize,
    /// Workload generator seed.
    pub seed: u64,
}

impl Default for TournamentSpec {
    fn default() -> Self {
        TournamentSpec {
            n: 6,
            len: 40,
            seed: 7,
        }
    }
}

/// One `(algorithm, workload, model)` cell of the tournament.
#[derive(Debug, Clone)]
pub struct TournamentCell {
    /// The entrant (its name is the obs `algo` metric label).
    pub algo: Entrant,
    /// Workload generator name.
    pub workload: String,
    /// `"sc"` (stationary) or `"mc"` (mobile).
    pub environment: &'static str,
    /// Control-message unit cost of the cell's model.
    pub cc: f64,
    /// Data-message unit cost of the cell's model.
    pub cd: f64,
    /// The simulator's exact resource tally for this (algo, workload) run.
    pub measured: CostVector,
    /// The measured tally priced under the cell's model.
    pub algo_cost: f64,
    /// The exact offline optimum for the same schedule, threshold and
    /// initial scheme.
    pub opt_cost: f64,
    /// [`ratio`]`(algo_cost, opt_cost)`.
    pub ratio: f64,
    /// The paper's competitiveness bound where one exists (SA in SC, DA in
    /// SC and MC), else `None`.
    pub bound: Option<f64>,
}

impl TournamentCell {
    /// Whether the measured ratio respects the paper bound (`None` when no
    /// bound applies).
    pub fn within_bound(&self) -> Option<bool> {
        self.bound.map(|b| self.ratio <= b + 1e-9)
    }
}

/// The workload roster (every single-object generator the repo ships).
fn workloads(n: usize) -> Result<Vec<Box<dyn ScheduleGen>>> {
    Ok(vec![
        Box::new(UniformWorkload::new(n, 0.7)?),
        Box::new(ZipfWorkload::new(n, 1.0, 0.7)?),
        Box::new(HotspotWorkload::new(n, 10, 0.8)?),
        Box::new(ChaoticWorkload::new(n, 8)?),
        Box::new(MobileWorkload::new(n / 2, n - n / 2 - 1, 0.3, 0.6)?),
    ])
}

/// The `(cc, cd)` grid crossed with both environments — the corners of
/// the Figure 1 (SC) and Figure 2 (MC) planes.
pub fn standard_grid() -> Vec<CostModel> {
    let mut models = Vec::new();
    for &cc in &[0.25, 1.0] {
        for &cd in &[1.0, 4.0] {
            models.push(CostModel::stationary(cc, cd).expect("valid grid model"));
            models.push(CostModel::mobile(cc, cd).expect("valid grid model"));
        }
    }
    models
}

fn env_label(model: &CostModel) -> &'static str {
    if model.cio() > 0.0 {
        "sc"
    } else {
        "mc"
    }
}

fn paper_bound(entrant: Entrant, model: &CostModel) -> Option<f64> {
    match entrant {
        Entrant::Sa => model.sa_bound(),
        Entrant::Da => model.da_bound(),
        _ => None,
    }
}

/// Executes one entrant over one schedule through the protocol simulator
/// with obs attached, returning the exact measured tally after the
/// registry-parity check.
fn measure_protocol(entrant: Entrant, n: usize, schedule: &Schedule) -> Result<CostVector> {
    let mut sim = entrant.sim(n)?;
    let obs = sim.attach_obs(64);
    let report = sim.execute(schedule)?;
    sim.obs_flush();
    if report.dropped_messages != 0 {
        return Err(DomaError::InvalidConfig(format!(
            "tournament run dropped {} messages ({entrant} failure-free)",
            report.dropped_messages
        )));
    }
    let counted = registry_cost(&obs.metrics().snapshot());
    if counted != report.cost {
        return Err(DomaError::InvalidConfig(format!(
            "obs parity violation for {entrant}: registry {counted:?} vs simulator {:?}",
            report.cost
        )));
    }
    Ok(report.cost)
}

/// Runs the full tournament: every entrant × every workload × every grid
/// model, in a fixed deterministic order (algorithm, then workload, then
/// model).
pub fn run_tournament(spec: &TournamentSpec) -> Result<Vec<TournamentCell>> {
    let grid = standard_grid();
    let mut cells = Vec::new();
    for entrant in Entrant::ALL {
        let initial = entrant.config().initial_scheme();
        for gen in &workloads(spec.n)? {
            let schedule = gen.generate(spec.len, spec.seed);
            let measured = measure_protocol(entrant, spec.n, &schedule)?;
            for model in &grid {
                let opt = OfflineOptimal::new(spec.n, entrant.t(), initial, *model)?;
                let opt_cost = opt.optimal_cost(&schedule)?;
                let algo_cost = measured.eval(model);
                cells.push(TournamentCell {
                    algo: entrant,
                    workload: gen.name().to_string(),
                    environment: env_label(model),
                    cc: model.cc(),
                    cd: model.cd(),
                    measured,
                    algo_cost,
                    opt_cost,
                    ratio: ratio(algo_cost, opt_cost),
                    bound: paper_bound(entrant, model),
                });
            }
        }
    }
    Ok(cells)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |b| format!("{b:.4}"))
}

fn json_opt_bool(v: Option<bool>) -> String {
    v.map_or_else(|| "null".to_string(), |b| b.to_string())
}

/// Renders the tournament as the repo's flat-JSON-array bench convention
/// (one record per line, fixed float formatting — byte-identical across
/// runs of the same spec).
pub fn render_json(spec: &TournamentSpec, cells: &[TournamentCell]) -> String {
    let mut out = String::from("[\n");
    for cell in cells {
        out.push_str(&format!(
            "  {{\"group\": \"tournament\", \"algo\": \"{}\", \"workload\": \"{}\", \
             \"model\": \"{}\", \"cc\": {:.2}, \"cd\": {:.2}, \
             \"control\": {}, \"data\": {}, \"io\": {}, \
             \"algo_cost\": {}, \"opt_cost\": {}, \"ratio\": {}, \
             \"bound\": {}, \"within_bound\": {}}},\n",
            cell.algo.as_str(),
            cell.workload,
            cell.environment,
            cell.cc,
            cell.cd,
            cell.measured.control,
            cell.measured.data,
            cell.measured.io,
            json_f64(cell.algo_cost),
            json_f64(cell.opt_cost),
            json_f64(cell.ratio),
            json_opt(cell.bound),
            json_opt_bool(cell.within_bound()),
        ));
    }
    let algos = cells
        .iter()
        .map(|c| c.algo.as_str())
        .collect::<std::collections::BTreeSet<_>>();
    let gens = cells
        .iter()
        .map(|c| c.workload.as_str())
        .collect::<std::collections::BTreeSet<_>>();
    let models = cells
        .iter()
        .map(|c| (c.environment, format!("{:.2}/{:.2}", c.cc, c.cd)))
        .collect::<std::collections::BTreeSet<_>>();
    out.push_str(&format!(
        "  {{\"attachment\": \"tournament/spec\", \"payload\": {{\"n\": {}, \"len\": {}, \
         \"seed\": {}, \"algorithms\": {}, \"workloads\": {}, \"models\": {}, \"cells\": {}}}}}\n]\n",
        spec.n,
        spec.len,
        spec.seed,
        algos.len(),
        gens.len(),
        models.len(),
        cells.len(),
    ));
    out
}

/// Renders a human-readable summary: one line per cell plus a per-entrant
/// worst-ratio standings table. Only entrants at the paper algorithms'
/// threshold are ranked against each other; an entrant of another `t`
/// (write-invalidate, t = 1) is listed on its own line, unranked.
pub fn render_table(cells: &[TournamentCell]) -> String {
    let mut out = String::new();
    out.push_str("algo              workload  model cc    cd     cost      opt     ratio  bound\n");
    for cell in cells {
        let bound = cell
            .bound
            .map_or_else(|| "-".to_string(), |b| format!("{b:.2}"));
        out.push_str(&format!(
            "{:<17} {:<9} {:<5} {:<5.2} {:<5.2} {:>8.2} {:>8.2} {:>9} {:>6}\n",
            cell.algo.as_str(),
            cell.workload,
            cell.environment,
            cell.cc,
            cell.cd,
            cell.algo_cost,
            cell.opt_cost,
            if cell.ratio.is_finite() {
                format!("{:.4}", cell.ratio)
            } else {
                "inf".to_string()
            },
            bound,
        ));
    }
    out.push_str("\nstandings (worst measured ratio, finite cells):\n");
    let mut worst: Vec<(Entrant, f64)> = Vec::new();
    for cell in cells {
        if !cell.ratio.is_finite() {
            continue;
        }
        match worst.iter_mut().find(|(a, _)| *a == cell.algo) {
            Some((_, w)) => *w = w.max(cell.ratio),
            None => worst.push((cell.algo, cell.ratio)),
        }
    }
    worst.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let t = Entrant::Da.t();
    let (ranked, apart): (Vec<_>, Vec<_>) = worst.iter().partition(|(algo, _)| algo.t() == t);
    for (rank, (algo, ratio)) in ranked.iter().enumerate() {
        out.push_str(&format!(
            "  {}. {:<17} {:.4}\n",
            rank + 1,
            algo.as_str(),
            ratio
        ));
    }
    for (algo, ratio) in apart {
        out.push_str(&format!(
            "  -  {:<17} {:.4}  (t = {}, not ranked against t = {t})\n",
            algo.as_str(),
            ratio,
            algo.t()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tournament_covers_the_full_grid() {
        let spec = TournamentSpec::default();
        let cells = run_tournament(&spec).unwrap();
        // Every roster entrant × 5 workloads × 8 models.
        assert_eq!(cells.len(), Entrant::ALL.len() * 5 * 8);
        let algos: std::collections::BTreeSet<_> = cells.iter().map(|c| c.algo.as_str()).collect();
        assert_eq!(algos, Entrant::ALL.iter().map(|e| e.as_str()).collect());
        for cell in &cells {
            assert!(
                cell.ratio >= 1.0 - 1e-9,
                "{} on {} ({} cc={} cd={}) beat OPT: ratio {}",
                cell.algo,
                cell.workload,
                cell.environment,
                cell.cc,
                cell.cd,
                cell.ratio
            );
        }
        // The committed artifact is the default run, byte for byte.
        assert!(
            render_json(&spec, &cells) == include_str!("../../../BENCH_tournament.json"),
            "BENCH_tournament.json is stale; regenerate it with \
             `domactl tournament --out BENCH_tournament.json`"
        );
    }

    #[test]
    fn sa_and_da_respect_paper_bounds_on_every_cell() {
        let cells = run_tournament(&TournamentSpec::default()).unwrap();
        for cell in cells.iter().filter(|c| c.bound.is_some()) {
            assert_eq!(
                cell.within_bound(),
                Some(true),
                "{} on {} ({} cc={} cd={}): ratio {} exceeds bound {:?}",
                cell.algo,
                cell.workload,
                cell.environment,
                cell.cc,
                cell.cd,
                cell.ratio,
                cell.bound
            );
        }
    }

    #[test]
    fn json_rendering_is_deterministic_and_structured() {
        let spec = TournamentSpec {
            n: 5,
            len: 20,
            seed: 3,
        };
        let a = render_json(&spec, &run_tournament(&spec).unwrap());
        let b = render_json(&spec, &run_tournament(&spec).unwrap());
        assert_eq!(a, b);
        assert!(a.starts_with("[\n"));
        assert!(a.ends_with("]\n"));
        assert!(a.contains("\"group\": \"tournament\""));
        assert!(a.contains("\"attachment\": \"tournament/spec\""));
        for entrant in Entrant::ALL {
            assert!(a.contains(&format!("\"algo\": \"{}\"", entrant.as_str())));
        }
        // No bare infinities may leak into the JSON.
        assert!(!a.contains("inf"));
    }

    #[test]
    fn table_lists_standings_for_every_entrant() {
        let spec = TournamentSpec {
            n: 5,
            len: 20,
            seed: 3,
        };
        let table = render_table(&run_tournament(&spec).unwrap());
        let standings = table.split_once("standings").unwrap().1;
        for entrant in Entrant::ALL {
            let name = entrant.as_str();
            let line = standings
                .lines()
                .find(|l| l.split_whitespace().nth(1) == Some(name))
                .unwrap_or_else(|| panic!("missing {name} in standings table"));
            // Ranked (`N.`) exactly when the entrant shares DA's threshold.
            let ranked = line.trim_start().starts_with(|c: char| c.is_ascii_digit());
            assert_eq!(ranked, entrant.t() == Entrant::Da.t(), "{line}");
        }
    }
}
