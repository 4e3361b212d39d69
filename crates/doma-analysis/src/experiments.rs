//! One driver per experiment (the E-ids of DESIGN.md §4). Each returns an
//! [`ExpReport`]: a rendered table plus machine-readable `metrics` the
//! integration tests assert on and the `repro` binary prints.

use crate::battery::standard_battery;
use crate::ratio::{standard_algorithms, summarize};
use crate::region::{empirical_region_map, RegionConfig, RegionMap};
use crate::report::{fmt_f64, Table};
use crate::sweep::{da_crossover, read_write_mix_sweep, SweepConfig};
use doma_algorithms::baselines::{DaNoSave, SlidingWindowConvergent, WriteInvalidateCache};
use doma_algorithms::search::{exhaustive_worst_case, SearchConfig};
use doma_algorithms::{adversary, DynamicAllocation, OfflineOptimal, StaticAllocation};
use doma_core::{
    run_online, CostModel, DomAlgorithm, Environment, OnlineDom, ProcSet, ProcessorId, Result,
};
use doma_protocol::{ProtocolConfig, ProtocolSim};
use doma_sim::NetworkConfig;
use doma_workload::{AppendOnlyWorkload, ChaoticWorkload, HotspotWorkload, ScheduleGen};
use std::collections::BTreeMap;

/// A rendered, machine-checkable experiment result.
#[derive(Debug, Clone)]
pub struct ExpReport {
    /// Experiment id ("E1", …).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// The main table (what the paper's figure/claim reduces to).
    pub table: Table,
    /// Free-form notes (witnesses, configs).
    pub notes: Vec<String>,
    /// Named scalar results for assertions.
    pub metrics: BTreeMap<String, f64>,
}

impl ExpReport {
    fn new(id: &'static str, title: impl Into<String>, table: Table) -> Self {
        ExpReport {
            id,
            title: title.into(),
            table,
            notes: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    /// Renders the report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "## {} — {}\n\n{}",
            self.id,
            self.title,
            self.table.to_markdown()
        );
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }
}

/// A one-object cluster with an explicit network model and node cache
/// (E15's shared bus, E16's memory tier).
fn single_object_sim(
    n: usize,
    config: ProtocolConfig,
    network: NetworkConfig,
    cache_capacity: usize,
) -> Result<ProtocolSim> {
    let catalog = BTreeMap::from([(ProtocolSim::object(), config)]);
    ProtocolSim::build_catalog(n, catalog, network, cache_capacity)
}

fn region_report(
    id: &'static str,
    env: Environment,
    config: &RegionConfig,
) -> Result<(ExpReport, RegionMap)> {
    let map = empirical_region_map(env, config)?;
    let mut table = Table::new(vec![
        "cc",
        "cd",
        "SA worst ratio",
        "DA worst ratio",
        "measured",
        "paper",
    ]);
    for p in &map.points {
        table.push_row(vec![
            format!("{:.2}", p.cc),
            format!("{:.2}", p.cd),
            fmt_f64(p.sa_worst),
            fmt_f64(p.da_worst),
            p.measured.to_string(),
            p.analytic.to_string(),
        ]);
    }
    let mut report = ExpReport::new(
        id,
        format!(
            "Figure {} — {env} region map (n={}, battery len {}, {} seeds)",
            if env == Environment::Stationary { 1 } else { 2 },
            config.n,
            config.schedule_len,
            config.seeds
        ),
        table,
    );
    report.notes.push(map.render(false));
    report.notes.push(map.render(true));
    report
        .metrics
        .insert("agreement".into(), map.agreement_with_paper());
    Ok((report, map))
}

/// E1: Figure 1 (stationary computing region map).
pub fn fig1(config: &RegionConfig) -> Result<ExpReport> {
    region_report("E1", Environment::Stationary, config).map(|(r, _)| r)
}

/// E2: Figure 2 (mobile computing region map).
pub fn fig2(config: &RegionConfig) -> Result<ExpReport> {
    region_report("E2", Environment::Mobile, config).map(|(r, _)| r)
}

/// E3: Theorem 1 + Proposition 1 — SA is tightly `(1+cc+cd)`-competitive
/// in SC: the measured worst ratio never exceeds the bound and the
/// remote-reader adversary approaches it as the schedule grows.
pub fn thm1_sa_tightness(lengths: &[usize]) -> Result<ExpReport> {
    let model = CostModel::stationary(0.5, 1.5).expect("valid");
    let bound = model.sa_bound().expect("SC");
    let (mut sa, _) = standard_algorithms();
    let opt = OfflineOptimal::new(5, 2, sa.initial_scheme(), model)?;
    let mut table = Table::new(vec![
        "schedule length",
        "SA/OPT ratio",
        "bound 1+cc+cd",
        "% of bound",
    ]);
    let mut last_ratio = 0.0;
    for &len in lengths {
        let schedule = adversary::remote_reader(ProcessorId::new(2), len);
        let point = crate::ratio::measure(&mut sa, &opt, &model, &schedule)?;
        table.push_row(vec![
            len.to_string(),
            fmt_f64(point.ratio),
            fmt_f64(bound),
            format!("{:.1}%", 100.0 * point.ratio / bound),
        ]);
        last_ratio = point.ratio;
    }
    // Upper-bound validation over the battery too.
    let battery = standard_battery(5, 60, 3);
    let battery_worst = summarize(&mut sa, &model, 5, &battery)?;
    let mut report = ExpReport::new(
        "E3",
        format!(
            "Theorem 1 / Proposition 1 — SA tight ({}) at cc=0.5, cd=1.5",
            fmt_f64(bound)
        ),
        table,
    );
    report.notes.push(format!(
        "battery worst ratio {} (witness: {}) — must be <= bound {}",
        fmt_f64(battery_worst.worst),
        battery_worst.worst_witness,
        fmt_f64(bound)
    ));
    report.metrics.insert("bound".into(), bound);
    report.metrics.insert("adversary_ratio".into(), last_ratio);
    report
        .metrics
        .insert("battery_worst".into(), battery_worst.worst);
    Ok(report)
}

/// E4/E5: Theorems 2 & 3 — DA's upper bounds in SC, validated over the
/// battery and exhaustive short-schedule search at several `(cc, cd)`
/// points (both `cd ≤ 1`, bound `2+2cc`, and `cd > 1`, bound `2+cc`).
pub fn thm23_da_upper_bounds() -> Result<ExpReport> {
    let points = [
        (0.1, 0.5),
        (0.3, 0.8),
        (0.5, 1.0),
        (0.2, 1.5), // cd > 1 → Theorem 3 regime
        (0.8, 2.0),
    ];
    let mut table = Table::new(vec![
        "cc",
        "cd",
        "bound",
        "battery worst",
        "exhaustive worst (len 5, n 3)",
        "within bound",
    ]);
    let mut max_frac: f64 = 0.0;
    for (cc, cd) in points {
        let model = CostModel::stationary(cc, cd).expect("valid");
        let bound = model.da_bound().expect("SC");
        let (_, mut da) = standard_algorithms();
        let battery = standard_battery(5, 48, 2);
        let battery_worst = summarize(&mut da, &model, 5, &battery)?.worst;
        let search = exhaustive_worst_case(
            &mut da,
            &SearchConfig {
                n: 3,
                t: 2,
                len: 5,
                model,
            },
        )?;
        let worst = battery_worst.max(search.ratio);
        max_frac = max_frac.max(worst / bound);
        table.push_row(vec![
            format!("{cc:.2}"),
            format!("{cd:.2}"),
            fmt_f64(bound),
            fmt_f64(battery_worst),
            fmt_f64(search.ratio),
            (worst <= bound + 1e-9).to_string(),
        ]);
    }
    let mut report = ExpReport::new(
        "E4/E5",
        "Theorems 2 & 3 — DA upper bounds (2+2cc; 2+cc when cd>1)",
        Table::new(vec![""]), // replaced below
    );
    report.table = table;
    report
        .metrics
        .insert("max_fraction_of_bound".into(), max_frac);
    Ok(report)
}

/// E6: Proposition 2 — DA is not better than 1.5-competitive: exhaustive
/// search with vanishing communication costs exhibits a witness schedule
/// with ratio approaching 1.5 from below (the bound concerns the limit).
pub fn prop2_da_lower_bound(wide: bool) -> Result<ExpReport> {
    use doma_algorithms::search::amplified_ratio;
    let model = CostModel::stationary(0.01, 0.01).expect("valid");
    let mut table = Table::new(vec!["exhibit", "DA/OPT ratio", "witness pattern"]);
    let mut best_finite = 0.0f64;
    let mut best_witness = doma_core::Schedule::new();
    // Exhaustive short-schedule searches (prefix ratios include the
    // additive constant β of the competitiveness definition).
    for len in [4usize, 5, 6] {
        let (_, mut da) = standard_algorithms();
        let r = exhaustive_worst_case(
            &mut da,
            &SearchConfig {
                n: 3,
                t: 2,
                len,
                model,
            },
        )?;
        if r.ratio > best_finite {
            best_finite = r.ratio;
            best_witness = r.witness.clone();
        }
        table.push_row(vec![
            format!("exhaustive len {len}"),
            fmt_f64(r.ratio),
            r.witness.to_string(),
        ]);
    }
    // The asymptotic exhibit: amplify the best witness by repetition so β
    // washes out; the converged value is the honest lower-bound evidence.
    let cfg = SearchConfig {
        n: 3,
        t: 2,
        len: best_witness.len(),
        model,
    };
    let mut amplified = 0.0;
    for repeats in [10usize, 50, 200] {
        let (_, mut da) = standard_algorithms();
        amplified = amplified_ratio(&mut da, &cfg, &best_witness, repeats)?;
        table.push_row(vec![
            format!("witness x{repeats}"),
            fmt_f64(amplified),
            format!("({} requests)", best_witness.len() * repeats),
        ]);
    }
    // Direct asymptotic optimization: exhaust all short *patterns* and
    // rank them by their ratio when repeated many times. The wide search
    // (n = 4, pattern length 6) finds the paper's 1.5: the cycle
    // `w3 r2 r1` costs DA ≈ 6 I/Os (outsider write + two re-joining
    // saving-reads) while OPT keeps {1,2} and pays 4.
    let mut best_pattern_ratio = 0.0;
    let mut searches: Vec<(usize, usize)> = vec![(3, 3), (3, 4), (3, 5)];
    if wide {
        searches.push((4, 5));
        searches.push((4, 6));
    }
    for (n, pattern_len) in searches {
        let (_, mut da) = standard_algorithms();
        let r = doma_algorithms::search::best_amplified_pattern(
            &mut da,
            &SearchConfig {
                n,
                t: 2,
                len: pattern_len,
                model,
            },
            pattern_len,
            60,
        )?;
        best_pattern_ratio = f64::max(best_pattern_ratio, r.ratio);
        table.push_row(vec![
            format!("best pattern n {n} len {pattern_len} x60"),
            fmt_f64(r.ratio),
            r.witness.to_string(),
        ]);
    }
    let mut report = ExpReport::new(
        "E6",
        "Proposition 2 — DA lower bound: worst-case search + asymptotic amplification (cc=cd=0.01)",
        table,
    );
    report.notes.push(format!(
        "best short-schedule ratio {} on '{best_witness}'; best *sustained* \
         (asymptotic) ratio {} — the wide (n=4, len-6) pattern search finds \
         ratio ≈ 1.50, i.e. the paper's Proposition 2 lower bound, realized \
         by repeating `w3 r2 r1`; no pattern ever exceeded DA's Theorem 2 \
         upper bound",
        fmt_f64(best_finite),
        fmt_f64(best_pattern_ratio.max(amplified))
    ));
    report.metrics.insert("best_ratio".into(), best_finite);
    report.metrics.insert("amplified_ratio".into(), amplified);
    report
        .metrics
        .insert("best_pattern_ratio".into(), best_pattern_ratio);
    Ok(report)
}

/// E7: Proposition 3 — SA is not competitive in MC: the remote-reader
/// ratio grows linearly with schedule length.
pub fn prop3_sa_mc_divergence(lengths: &[usize]) -> Result<ExpReport> {
    let model = CostModel::mobile(0.5, 1.5).expect("valid");
    let (mut sa, _) = standard_algorithms();
    let opt = OfflineOptimal::new(5, 2, sa.initial_scheme(), model)?;
    let mut table = Table::new(vec!["schedule length", "SA/OPT ratio"]);
    let mut ratios = Vec::new();
    for &len in lengths {
        let schedule = adversary::remote_reader(ProcessorId::new(2), len);
        let point = crate::ratio::measure(&mut sa, &opt, &model, &schedule)?;
        table.push_row(vec![len.to_string(), fmt_f64(point.ratio)]);
        ratios.push(point.ratio);
    }
    let mut report = ExpReport::new(
        "E7",
        "Proposition 3 — SA is not competitive in MC (ratio grows with length)",
        table,
    );
    if let (Some(first), Some(last)) = (ratios.first(), ratios.last()) {
        report.metrics.insert("growth".into(), last / first);
    }
    Ok(report)
}

/// E8: Theorem 4 — DA is `(2 + 3·cc/cd)`-competitive in MC (≤ 5).
pub fn thm4_da_mobile() -> Result<ExpReport> {
    let ratios = [0.05, 0.25, 0.5, 0.75, 1.0];
    let mut table = Table::new(vec![
        "cc/cd",
        "bound 2+3cc/cd",
        "battery worst",
        "within bound",
    ]);
    let mut max_frac: f64 = 0.0;
    for r in ratios {
        let cd = 1.0;
        let cc = r * cd;
        let model = CostModel::mobile(cc, cd).expect("valid");
        let bound = model.da_bound().expect("cd > 0");
        let (_, mut da) = standard_algorithms();
        let battery = standard_battery(5, 48, 2);
        let worst = summarize(&mut da, &model, 5, &battery)?.worst;
        max_frac = max_frac.max(worst / bound);
        table.push_row(vec![
            format!("{r:.2}"),
            fmt_f64(bound),
            fmt_f64(worst),
            (worst <= bound + 1e-9).to_string(),
        ]);
    }
    let mut report = ExpReport::new(
        "E8",
        "Theorem 4 — DA in MC, bound 2+3cc/cd (≤5)",
        Table::new(vec![""]),
    );
    report.table = table;
    report
        .metrics
        .insert("max_fraction_of_bound".into(), max_frac);
    Ok(report)
}

/// E9: the §1.3 trade-off measured on average-case workloads: mean cost
/// per request vs read fraction, with the DA-beats-SA crossover.
pub fn sweep_e9(model: CostModel) -> Result<ExpReport> {
    let config = SweepConfig::default_for(model);
    let points = read_write_mix_sweep(&config)?;
    let mut table = Table::new(vec!["read fraction", "SA", "DA", "Convergent"]);
    for p in &points {
        table.push_row(vec![
            format!("{:.2}", p.read_fraction),
            fmt_f64(p.sa),
            fmt_f64(p.da),
            fmt_f64(p.convergent),
        ]);
    }
    let crossover = da_crossover(&points);
    let mut report = ExpReport::new(
        "E9",
        format!(
            "Read/write-mix sweep ({} model, cc={}, cd={}): mean cost per request",
            model.environment(),
            model.cc(),
            model.cd()
        ),
        table,
    );
    if let Some(c) = crossover {
        report
            .notes
            .push(format!("DA overtakes SA at read fraction ≈ {c:.2}"));
        report.metrics.insert("crossover".into(), c);
    } else {
        report.notes.push("no crossover in the swept range".into());
    }
    Ok(report)
}

/// E10: the §1.3 worked example `r1 r1 r2 w2 r2 r2 r2` — exact costs of
/// static vs dynamic vs OPT.
pub fn example13() -> Result<ExpReport> {
    let model = CostModel::stationary(0.5, 1.0).expect("valid");
    let schedule = adversary::section_1_3_example();
    let q: ProcSet = [0usize, 1].into_iter().collect();
    let mut sa = StaticAllocation::new(q)?;
    let mut da = DynamicAllocation::new([1usize].into_iter().collect(), ProcessorId::new(0))?;
    let opt = OfflineOptimal::new(3, 2, q, model)?;
    let sa_cost = run_online(&mut sa, &schedule)?.costed.total_cost(&model);
    let da_cost = run_online(&mut da, &schedule)?.costed.total_cost(&model);
    let opt_cost = opt.optimal_cost(&schedule)?;
    let mut table = Table::new(vec!["algorithm", "total cost", "vs OPT"]);
    for (name, cost) in [("SA", sa_cost), ("DA", da_cost), ("OPT", opt_cost)] {
        table.push_row(vec![
            name.to_string(),
            fmt_f64(cost),
            fmt_f64(cost / opt_cost),
        ]);
    }
    let mut report = ExpReport::new(
        "E10",
        format!("§1.3 example '{schedule}' (SC, cc=0.5, cd=1.0, t=2)"),
        table,
    );
    report.metrics.insert("sa".into(), sa_cost);
    report.metrics.insert("da".into(), da_cost);
    report.metrics.insert("opt".into(), opt_cost);
    Ok(report)
}

/// E11: the §2 mobile deployment, run as a *real protocol* on the
/// discrete-event simulator; tallies must equal the analytic prediction.
pub fn mobile_e11(schedule_len: usize, seed: u64) -> Result<ExpReport> {
    let workload = doma_workload::MobileWorkload::new(3, 4, 0.3, 0.7)?;
    let n = workload.universe();
    let schedule = workload.generate(schedule_len, seed);

    let mut sim = ProtocolSim::mobile(n)?;
    let sim_report = sim.execute(&schedule)?;

    let mut da = DynamicAllocation::new([0usize].into_iter().collect(), ProcessorId::new(1))?;
    let analytic = run_online(&mut da, &schedule)?;

    let mut table = Table::new(vec!["tally", "simulated protocol", "analytic model"]);
    table.push_row(vec![
        "control messages".to_string(),
        sim_report.cost.control.to_string(),
        analytic.costed.total.control.to_string(),
    ]);
    table.push_row(vec![
        "data messages".to_string(),
        sim_report.cost.data.to_string(),
        analytic.costed.total.data.to_string(),
    ]);
    table.push_row(vec![
        "I/O operations".to_string(),
        sim_report.cost.io.to_string(),
        analytic.costed.total.io.to_string(),
    ]);
    table.push_row(vec![
        "final replica set".to_string(),
        sim_report.final_holders.to_string(),
        analytic.costed.final_scheme.to_string(),
    ]);
    let exact = sim_report.cost == analytic.costed.total
        && sim_report.final_holders == analytic.costed.final_scheme;
    let mut report = ExpReport::new(
        "E11",
        format!(
            "Mobile base-station deployment (t=2, F={{base}}, {n} processors, {} requests)",
            schedule.len()
        ),
        table,
    );
    report.notes.push(format!(
        "mean read latency {:.1} ticks over {} reads; exact match with analytic model: {exact}",
        sim_report.mean_read_latency, sim_report.reads_completed
    ));
    report
        .metrics
        .insert("exact_match".into(), if exact { 1.0 } else { 0.0 });
    Ok(report)
}

/// E12: the §6.2 append-only model — SA (t standing orders) vs DA (t-1
/// standing orders + temporary ones), in SC and MC.
pub fn append_e12(schedule_len: usize, seed: u64) -> Result<ExpReport> {
    let workload = AppendOnlyWorkload::new(6, 2, 3.0)?;
    let schedule = workload.generate(schedule_len, seed);
    let mut table = Table::new(vec!["model", "SA", "DA", "DA/SA"]);
    let mut metrics = BTreeMap::new();
    for (name, model) in [
        (
            "SC cc=0.2 cd=0.8",
            CostModel::stationary(0.2, 0.8).expect("valid"),
        ),
        (
            "MC cc=0.2 cd=0.8",
            CostModel::mobile(0.2, 0.8).expect("valid"),
        ),
    ] {
        let (mut sa, mut da) = standard_algorithms();
        let sa_cost = run_online(&mut sa, &schedule)?.costed.total_cost(&model);
        let da_cost = run_online(&mut da, &schedule)?.costed.total_cost(&model);
        table.push_row(vec![
            name.to_string(),
            fmt_f64(sa_cost),
            fmt_f64(da_cost),
            fmt_f64(da_cost / sa_cost),
        ]);
        metrics.insert(
            format!("da_over_sa_{}", model.environment()),
            da_cost / sa_cost,
        );
    }
    let mut report = ExpReport::new(
        "E12",
        format!(
            "§6.2 append-only stream (6 stations, 2 generators, {} requests)",
            schedule.len()
        ),
        table,
    );
    report.metrics = metrics;
    Ok(report)
}

/// E14: ablations — what each DA ingredient buys, on regular (hotspot) vs
/// chaotic workloads.
pub fn ablation_e14(schedule_len: usize, seed: u64) -> Result<ExpReport> {
    let model = CostModel::stationary(0.25, 1.0).expect("valid");
    let hotspot = HotspotWorkload::new(5, 40, 0.85)?.generate(schedule_len, seed);
    let chaotic = ChaoticWorkload::new(5, 10)?.generate(schedule_len, seed);
    let mut table = Table::new(vec!["algorithm", "t", "hotspot (regular)", "chaotic"]);
    let mut metrics = BTreeMap::new();

    let mut run_all = |name: &str, algo: &mut dyn OnlineDom| -> Result<()> {
        let hot = run_online(algo, &hotspot)?.costed.total_cost(&model);
        let cha = run_online(algo, &chaotic)?.costed.total_cost(&model);
        table.push_row(vec![
            name.to_string(),
            algo.t().to_string(),
            fmt_f64(hot),
            fmt_f64(cha),
        ]);
        metrics.insert(format!("{name}_hotspot"), hot);
        metrics.insert(format!("{name}_chaotic"), cha);
        Ok(())
    };

    let (mut sa, mut da) = standard_algorithms();
    run_all("SA", &mut sa)?;
    run_all("DA", &mut da)?;
    let init = sa.initial_scheme();
    let mut nosave = DaNoSave::new([0usize].into_iter().collect(), ProcessorId::new(1))?;
    run_all("DA-nosave", &mut nosave)?;
    let mut conv = SlidingWindowConvergent::new(5, 2, init, 40, 20)?;
    run_all("Convergent", &mut conv)?;
    let mut cache = WriteInvalidateCache::new(init)?;
    run_all("WriteInvalidate (t=1)", &mut cache)?;
    let mut quorum =
        doma_algorithms::QuorumConsensus::majority(5, ProcSet::from_iter([0usize, 1, 2]))?;
    run_all("QuorumConsensus", &mut quorum)?;

    let mut report = ExpReport::new(
        "E14",
        "Ablations: saving-reads, availability core, convergence (SC, cc=0.25, cd=1.0)",
        table,
    );
    report.metrics = metrics;
    Ok(report)
}

/// E19: the §5.1 file-allocation comparison — "works on the file-allocation
/// problem do not quantify the cost penalty if the read-write pattern is
/// not known. In contrast, in this paper we do so." We quantify both gaps:
///
/// * **value of knowledge** = SA with a default scheme vs the *best*
///   static scheme chosen with full knowledge of the schedule;
/// * **value of dynamism** = best static vs the dynamic offline optimum.
pub fn file_allocation_e19(schedule_len: usize, seed: u64) -> Result<ExpReport> {
    use doma_algorithms::BestStaticAllocation;
    use doma_workload::{UniformWorkload, ZipfWorkload};
    let model = CostModel::stationary(0.25, 1.0).expect("valid");
    let n = 5;
    let workloads: Vec<(&str, Box<dyn ScheduleGen>)> = vec![
        ("uniform-0.7", Box::new(UniformWorkload::new(n, 0.7)?)),
        ("zipf-0.8", Box::new(ZipfWorkload::new(n, 1.2, 0.8)?)),
        ("hotspot", Box::new(HotspotWorkload::new(n, 40, 0.85)?)),
        ("chaotic", Box::new(ChaoticWorkload::new(n, 10)?)),
    ];
    let mut table = Table::new(vec![
        "workload",
        "SA (default Q)",
        "best static",
        "OPT (dynamic)",
        "knowledge gap",
        "dynamism gap",
    ]);
    let mut metrics = BTreeMap::new();
    for (name, gen) in workloads {
        let schedule = gen.generate(schedule_len, seed);
        let (mut sa, _) = standard_algorithms();
        let sa_cost = run_online(&mut sa, &schedule)?.costed.total_cost(&model);
        let bs = BestStaticAllocation::new(n, 2, model)?;
        let (_, best_static) = bs.best_scheme(&schedule)?;
        let opt = OfflineOptimal::new(n, 2, sa.initial_scheme(), model)?;
        let opt_cost = opt.optimal_cost(&schedule)?;
        table.push_row(vec![
            name.to_string(),
            fmt_f64(sa_cost),
            fmt_f64(best_static),
            fmt_f64(opt_cost),
            fmt_f64(sa_cost / best_static),
            fmt_f64(best_static / opt_cost),
        ]);
        metrics.insert(format!("{name}_knowledge_gap"), sa_cost / best_static);
        metrics.insert(format!("{name}_dynamism_gap"), best_static / opt_cost);
    }
    let mut report = ExpReport::new(
        "E19",
        format!(
            "File-allocation baseline (§5.1): knowledge vs dynamism gaps ({schedule_len} requests, n={n}, t=2)"
        ),
        table,
    );
    report.notes.push(
        "knowledge gap = SA(default)/best-static; dynamism gap = best-static/OPT. \
         The paper's point: even the perfectly informed static scheme cannot \
         recover the dynamism gap."
            .into(),
    );
    report.metrics = metrics;
    Ok(report)
}

/// E21: the price of the §2 failure fallback — the same request stream
/// executed in normal DA mode vs with the core member down (quorum mode),
/// plus the one-off cost of the mode switch and missing-writes catch-up.
pub fn failover_e21(requests: usize, seed: u64) -> Result<ExpReport> {
    use doma_protocol::failover::FailoverDriver;
    use doma_workload::UniformWorkload;
    let n = 7;
    let model = CostModel::stationary(0.25, 1.0).expect("valid");
    let workload = UniformWorkload::new(n, 0.7)?;
    // Exclude the core (0) as an issuer so the same stream is servable in
    // both modes (processor 0's clients are down during the outage).
    let schedule: doma_core::Schedule = workload
        .generate(requests * 2, seed)
        .iter()
        .filter(|r| r.issuer.index() != 0)
        .take(requests)
        .collect();

    // Normal mode.
    let mut normal = ProtocolSim::new_da(n, ProcSet::from_iter([0usize]), ProcessorId::new(1))?;
    let normal_report = normal.execute(&schedule)?;

    // Failure mode: crash the core first, run the same stream in quorum
    // mode, then recover.
    let sim = ProtocolSim::new_da(n, ProcSet::from_iter([0usize]), ProcessorId::new(1))?;
    let mut driver = FailoverDriver::new(sim, n);
    driver.crash(ProcessorId::new(0));
    let after_switch = driver.sim().report().cost;
    for request in schedule.iter() {
        driver.execute_request(request)?;
    }
    let after_outage = driver.sim().report().cost;
    driver.recover(ProcessorId::new(0));
    let after_recovery = driver.sim().report().cost;

    let outage_cost = after_outage.saturating_sub(&after_switch);
    let recovery_cost = after_recovery.saturating_sub(&after_outage);

    let mut table = Table::new(vec!["phase", "control", "data", "I/O", "priced cost"]);
    for (name, v) in [
        ("normal DA (no failure)", normal_report.cost),
        ("quorum mode (core down)", outage_cost),
        ("recovery (catch-up + mode switch)", recovery_cost),
    ] {
        table.push_row(vec![
            name.to_string(),
            v.control.to_string(),
            v.data.to_string(),
            v.io.to_string(),
            fmt_f64(v.eval(&model)),
        ]);
    }
    let overhead = outage_cost.eval(&model) / normal_report.cost.eval(&model);
    let mut report = ExpReport::new(
        "E21",
        format!("Failure-mode overhead (§2): {requests} requests, n={n}, core member down"),
        table,
    );
    report.notes.push(format!(
        "quorum mode costs {overhead:.2}x normal DA for the same stream — \
         availability through majorities is expensive, which is why the paper \
         uses quorums only as the failure fallback"
    ));
    report.metrics.insert("overhead".into(), overhead);
    Ok(report)
}

/// E20: the load curve behind the introduction's Ethernet remark —
/// open-loop read traffic at increasing arrival rates, mean and p95
/// response time on a shared bus vs point-to-point links. The bus knee
/// appears when the arrival interval drops below the data-message
/// service time.
pub fn load_curve_e20(reads: usize) -> Result<ExpReport> {
    use crate::stats::percentile;
    use doma_core::{Request, Schedule};
    let n = 10;
    let q: ProcSet = [0usize, 1].into_iter().collect();
    let schedule: Schedule = (0..reads).map(|k| Request::read(2 + (k % 8))).collect();
    let mut table = Table::new(vec![
        "arrival interval (ticks)",
        "p2p mean",
        "bus mean",
        "bus p95",
        "bus queue wait",
    ]);
    let mut metrics = BTreeMap::new();
    for interval in [16u64, 8, 4, 2, 1] {
        let mut p2p = ProtocolSim::new_sa(n, q)?;
        let a = p2p.execute_open_loop(&schedule, interval)?;
        let mut bus = single_object_sim(
            n,
            ProtocolConfig::Sa { q },
            NetworkConfig::shared_bus(1, 3),
            0,
        )?;
        let b = bus.execute_open_loop(&schedule, interval)?;
        let lat: Vec<f64> = b.latencies.iter().map(|&v| v as f64).collect();
        let p95 = percentile(&lat, 95.0).unwrap_or(f64::NAN);
        table.push_row(vec![
            interval.to_string(),
            fmt_f64(a.mean_response),
            fmt_f64(b.mean_response),
            fmt_f64(p95),
            b.bus_queue_wait.to_string(),
        ]);
        metrics.insert(format!("bus_mean_{interval}"), b.mean_response);
        metrics.insert(format!("p2p_mean_{interval}"), a.mean_response);
    }
    let mut report = ExpReport::new(
        "E20",
        format!("Load curve (intro): {reads} open-loop reads, response time vs arrival rate"),
        table,
    );
    report.notes.push(
        "A read occupies the bus for cc+cd = 4 ticks; once arrivals outpace that \
         (interval < 4) the queue grows without bound over the run — the intro's \
         'higher load → contention → higher response time', measured."
            .into(),
    );
    report.metrics = metrics;
    Ok(report)
}

/// E15: the introduction's Ethernet argument, measured — response time of
/// concurrent read bursts on a shared bus vs point-to-point links, and
/// DA's contention collapse once readers hold local replicas.
pub fn contention_e15(burst_sizes: &[usize]) -> Result<ExpReport> {
    let n = 24;
    let q: ProcSet = [0usize, 1].into_iter().collect();
    let f: ProcSet = [0usize].into_iter().collect();
    let p = ProcessorId::new(1);
    let mut table = Table::new(vec![
        "burst size",
        "SA p2p mean resp",
        "SA bus mean resp",
        "DA bus 1st burst",
        "DA bus 2nd burst",
        "bus queue wait (SA)",
    ]);
    let mut metrics = BTreeMap::new();
    for &k in burst_sizes {
        if 2 + k > n {
            return Err(doma_core::DomaError::InvalidConfig(format!(
                "burst {k} too large for cluster of {n}"
            )));
        }
        let readers: Vec<ProcessorId> = (2..2 + k).map(ProcessorId::new).collect();

        let mut sa_p2p = ProtocolSim::new_sa(n, q)?;
        let a = sa_p2p.execute_read_burst(&readers)?;
        let mut sa_bus = single_object_sim(
            n,
            ProtocolConfig::Sa { q },
            NetworkConfig::shared_bus(1, 3),
            0,
        )?;
        let b = sa_bus.execute_read_burst(&readers)?;
        let mut da_bus = single_object_sim(
            n,
            ProtocolConfig::Da { f, p },
            NetworkConfig::shared_bus(1, 3),
            0,
        )?;
        let c1 = da_bus.execute_read_burst(&readers)?;
        let c2 = da_bus.execute_read_burst(&readers)?;

        table.push_row(vec![
            k.to_string(),
            fmt_f64(a.mean_response),
            fmt_f64(b.mean_response),
            fmt_f64(c1.mean_response),
            fmt_f64(c2.mean_response),
            b.bus_queue_wait.to_string(),
        ]);
        metrics.insert(format!("sa_bus_{k}"), b.mean_response);
        metrics.insert(format!("da_bus_second_{k}"), c2.mean_response);
    }
    let mut report = ExpReport::new(
        "E15",
        "Bus contention (intro §1.1): read-burst response time, shared bus vs point-to-point",
        table,
    );
    report.notes.push(
        "DA's saving-reads eliminate repeat-burst bus traffic entirely; SA pays \
         contention on every burst."
            .into(),
    );
    report.metrics = metrics;
    Ok(report)
}

/// E16: cache sensitivity — §5.2 argues replicated-database costs differ
/// from CDVM because a replica may live on secondary storage, so *every*
/// read pays an I/O. This ablation adds a CDVM-style memory tier to the
/// protocol nodes and measures how much of the I/O term it removes, and
/// whether the SA-vs-DA comparison survives (it does: caching removes
/// repeat-read I/O for both, but all message costs are untouched).
pub fn cache_e16(schedule_len: usize, seed: u64) -> Result<ExpReport> {
    let workload = HotspotWorkload::new(6, 30, 0.85)?;
    let schedule = workload.generate(schedule_len, seed);
    let model = CostModel::stationary(0.25, 1.0).expect("valid");
    let q: ProcSet = [0usize, 1].into_iter().collect();
    let f: ProcSet = [0usize].into_iter().collect();
    let p1 = ProcessorId::new(1);

    let mut table = Table::new(vec![
        "cluster",
        "cache",
        "I/Os",
        "cache hit ratio",
        "priced cost",
    ]);
    let mut metrics = BTreeMap::new();
    for (name, cached) in [("SA", false), ("SA", true), ("DA", false), ("DA", true)] {
        let cap = usize::from(cached);
        let config = if name == "SA" {
            ProtocolConfig::Sa { q }
        } else {
            ProtocolConfig::Da { f, p: p1 }
        };
        let mut sim = single_object_sim(6, config, NetworkConfig::default(), cap)?;
        let report = sim.execute(&schedule)?;
        let hits = sim.cache_stats();
        table.push_row(vec![
            name.to_string(),
            if cached { "1 object" } else { "none (paper)" }.to_string(),
            report.cost.io.to_string(),
            if cached {
                format!("{:.2}", hits.hit_ratio())
            } else {
                "-".to_string()
            },
            fmt_f64(report.cost.eval(&model)),
        ]);
        metrics.insert(
            format!("{name}_{}_io", if cached { "cached" } else { "plain" }),
            report.cost.io as f64,
        );
        metrics.insert(
            format!("{name}_{}_cost", if cached { "cached" } else { "plain" }),
            report.cost.eval(&model),
        );
    }
    let mut report = ExpReport::new(
        "E16",
        "Cache sensitivity (§5.2): CDVM-style memory tier vs the paper's all-I/O model",
        table,
    );
    report.metrics = metrics;
    Ok(report)
}

/// E18: multi-object core placement — the natural many-objects extension
/// (§6.1). Objects are cost-independent in the model, but DA core duty is
/// load: placing every object's core on the same processors creates an
/// I/O hotspot. We generate a Zipf-popular catalog of objects and compare
/// the placement policies on total cost and per-processor load.
pub fn placement_e18(objects: u64, requests: usize, seed: u64) -> Result<ExpReport> {
    use doma_algorithms::multi::{run_multi, MultiSchedule, Placement};
    use doma_core::{ObjectId, Request};
    use doma_testkit::rng::{Rng, TestRng};

    let n = 8;
    let model = CostModel::stationary(0.25, 1.0).expect("valid");
    // Zipf-popular objects, uniform issuers, 70% reads.
    let sampler = doma_workload::ZipfSampler::new(objects as usize, 1.0)?;
    let mut rng = TestRng::seed_from_u64(seed);
    let mut schedule = MultiSchedule::default();
    for _ in 0..requests {
        let object = ObjectId(sampler.sample(&mut rng) as u64);
        let issuer = rng.gen_range(0..n);
        let request = if rng.gen_bool(0.7) {
            Request::read(issuer)
        } else {
            Request::write(issuer)
        };
        schedule.push(object, request);
    }

    let mut table = Table::new(vec![
        "placement",
        "priced cost",
        "max proc I/O load",
        "imbalance (max/mean)",
    ]);
    let mut metrics = BTreeMap::new();
    for (name, placement) in [
        ("same-core", Placement::SameCore),
        ("round-robin", Placement::RoundRobin),
        ("load-aware", Placement::LoadAware),
    ] {
        let report = run_multi(n, 2, placement, &schedule)?;
        table.push_row(vec![
            name.to_string(),
            fmt_f64(report.total.eval(&model)),
            report.max_load().to_string(),
            format!("{:.2}", report.imbalance()),
        ]);
        metrics.insert(format!("{name}_max_load"), report.max_load() as f64);
        metrics.insert(format!("{name}_cost"), report.total.eval(&model));
        metrics.insert(format!("{name}_imbalance"), report.imbalance());
    }
    let mut report = ExpReport::new(
        "E18",
        format!(
            "Multi-object core placement ({objects} Zipf objects, {requests} requests, n={n}, t=2)"
        ),
        table,
    );
    report.notes.push(
        "Costs are nearly placement-invariant (only invalidation counts shift); \
         per-processor load is not — spreading cores removes the hotspot."
            .into(),
    );
    report.metrics = metrics;
    Ok(report)
}

/// E17: the paper notes its competitiveness factors are *independent of
/// `t`*. We measure the worst battery ratio of SA and DA for several `t`
/// and check it stays within the (t-independent) bounds and roughly flat.
pub fn t_independence_e17() -> Result<ExpReport> {
    let model = CostModel::stationary(0.3, 0.8).expect("valid");
    let n = 8;
    let mut table = Table::new(vec![
        "t",
        "SA worst ratio",
        "SA bound",
        "DA worst ratio",
        "DA bound",
    ]);
    let mut metrics = BTreeMap::new();
    for t in [2usize, 3, 4, 5] {
        let scheme: ProcSet = (0..t).collect();
        let battery = crate::battery::battery_with_outsiders(n, 40, 2, t);
        let mut sa = StaticAllocation::new(scheme)?;
        let sa_worst = summarize(&mut sa, &model, n, &battery)?.worst;
        let f: ProcSet = (0..t - 1).collect();
        let mut da = DynamicAllocation::new(f, ProcessorId::new(t - 1))?;
        let da_worst = summarize(&mut da, &model, n, &battery)?.worst;
        table.push_row(vec![
            t.to_string(),
            fmt_f64(sa_worst),
            fmt_f64(model.sa_bound().expect("SC")),
            fmt_f64(da_worst),
            fmt_f64(model.da_bound().expect("SC")),
        ]);
        metrics.insert(format!("sa_worst_t{t}"), sa_worst);
        metrics.insert(format!("da_worst_t{t}"), da_worst);
    }
    let mut report = ExpReport::new(
        "E17",
        "t-independence: measured worst ratios vs the t-free bounds (SC, cc=0.3, cd=0.8)",
        table,
    );
    report.metrics = metrics;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thm1_report_shows_tightness() {
        let r = thm1_sa_tightness(&[8, 32, 128]).unwrap();
        assert!(r.metrics["adversary_ratio"] <= r.metrics["bound"] + 1e-9);
        assert!(r.metrics["adversary_ratio"] > 0.95 * r.metrics["bound"]);
        assert!(r.metrics["battery_worst"] <= r.metrics["bound"] + 1e-9);
        assert_eq!(r.table.len(), 3);
        assert!(r.to_markdown().contains("E3"));
    }

    #[test]
    fn thm23_bounds_hold() {
        let r = thm23_da_upper_bounds().unwrap();
        assert!(r.metrics["max_fraction_of_bound"] <= 1.0 + 1e-9);
    }

    #[test]
    fn prop2_shows_nontrivial_lower_bound() {
        let r = prop2_da_lower_bound(false).unwrap();
        assert!(
            r.metrics["best_ratio"] >= 1.3,
            "exhaustive search should find ratio >= 1.3, got {}",
            r.metrics["best_ratio"]
        );
    }

    #[test]
    fn prop3_diverges() {
        let r = prop3_sa_mc_divergence(&[8, 64]).unwrap();
        assert!(r.metrics["growth"] > 4.0, "growth {}", r.metrics["growth"]);
    }

    #[test]
    fn thm4_bound_holds() {
        let r = thm4_da_mobile().unwrap();
        assert!(r.metrics["max_fraction_of_bound"] <= 1.0 + 1e-9);
    }

    #[test]
    fn example13_ordering() {
        let r = example13().unwrap();
        assert!(r.metrics["opt"] <= r.metrics["da"] + 1e-9);
        assert!(r.metrics["da"] < r.metrics["sa"]);
    }

    #[test]
    fn mobile_e11_exactly_matches() {
        let r = mobile_e11(60, 3).unwrap();
        assert_eq!(r.metrics["exact_match"], 1.0);
    }

    #[test]
    fn append_e12_da_wins_in_mobile() {
        let r = append_e12(150, 5).unwrap();
        assert!(r.metrics["da_over_sa_MC"] < 1.0, "{:?}", r.metrics);
    }

    #[test]
    fn file_allocation_e19_gaps_are_sensible() {
        let r = file_allocation_e19(300, 11).unwrap();
        for (k, v) in &r.metrics {
            assert!(*v >= 1.0 - 1e-9, "{k} below 1: {v}");
        }
        // On a hotspot workload the dynamism gap is substantial: no fixed
        // scheme can chase a rotating hotspot.
        assert!(r.metrics["hotspot_dynamism_gap"] > 1.05);
    }

    #[test]
    fn failover_e21_quorum_is_dearer() {
        let r = failover_e21(60, 5).unwrap();
        assert!(
            r.metrics["overhead"] > 1.5,
            "quorum mode should cost well above normal DA, got {}",
            r.metrics["overhead"]
        );
    }

    #[test]
    fn load_curve_e20_shows_the_knee() {
        let r = load_curve_e20(60).unwrap();
        // Below saturation the bus matches p2p; past it, it blows up.
        assert_eq!(r.metrics["bus_mean_16"], r.metrics["p2p_mean_16"]);
        assert!(r.metrics["bus_mean_1"] > 4.0 * r.metrics["bus_mean_16"]);
    }

    #[test]
    fn contention_e15_shapes() {
        let r = contention_e15(&[1, 4, 8]).unwrap();
        // Bus response grows with burst size; repeat bursts under DA are free.
        assert!(r.metrics["sa_bus_8"] > r.metrics["sa_bus_1"]);
        assert_eq!(r.metrics["da_bus_second_8"], 0.0);
    }

    #[test]
    fn cache_e16_reduces_io_preserves_ranking() {
        let r = cache_e16(300, 3).unwrap();
        // Caching strictly reduces I/O for both algorithms…
        assert!(r.metrics["SA_cached_io"] < r.metrics["SA_plain_io"]);
        assert!(r.metrics["DA_cached_io"] < r.metrics["DA_plain_io"]);
        // …and DA still beats SA on the hotspot workload either way.
        assert!(r.metrics["DA_plain_cost"] < r.metrics["SA_plain_cost"]);
        assert!(r.metrics["DA_cached_cost"] < r.metrics["SA_cached_cost"]);
    }

    #[test]
    fn placement_e18_spreading_beats_same_core() {
        let r = placement_e18(20, 600, 3).unwrap();
        assert!(r.metrics["round-robin_max_load"] < r.metrics["same-core_max_load"]);
        assert!(r.metrics["load-aware_max_load"] < r.metrics["same-core_max_load"]);
        // Cost stays within a few percent across placements.
        let base = r.metrics["same-core_cost"];
        for k in ["round-robin_cost", "load-aware_cost"] {
            assert!((r.metrics[k] - base).abs() / base < 0.1, "{k} drifted");
        }
    }

    #[test]
    fn t_independence_e17_bounds_hold_for_all_t() {
        let r = t_independence_e17().unwrap();
        let model = CostModel::stationary(0.3, 0.8).unwrap();
        for t in [2usize, 3, 4, 5] {
            assert!(r.metrics[&format!("sa_worst_t{t}")] <= model.sa_bound().unwrap() + 1e-9);
            assert!(r.metrics[&format!("da_worst_t{t}")] <= model.da_bound().unwrap() + 1e-9);
        }
    }

    #[test]
    fn ablation_e14_sanity() {
        let r = ablation_e14(300, 7).unwrap();
        // Saving-reads must pay off on the hotspot workload.
        assert!(r.metrics["DA_hotspot"] < r.metrics["DA-nosave_hotspot"]);
        // The unconstrained cache (t=1) is at least as cheap as DA — that
        // difference is the price of availability.
        assert!(r.metrics["WriteInvalidate (t=1)_hotspot"] <= r.metrics["DA_hotspot"] + 1e-9);
    }
}
