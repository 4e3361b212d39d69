//! Smoke-runs every experiment driver at fast settings and asserts the
//! paper-shaped outcomes (who wins, bounds hold, tightness reached), and
//! pins the whole fast-mode reproduction byte for byte against
//! `tests/golden/repro_fast.md`. EXPERIMENTS.md's claims are backed by
//! these assertions.

use doma::analysis::experiments;
use doma::core::CostModel;

/// `repro all --fast`, rendered, must equal the committed golden document:
/// a change that moves any E-row fails here, not only in the full-mode
/// wall. After a deliberate change, regenerate with
/// `cargo run --release -p doma-analysis --bin domactl -- repro all --fast > tests/golden/repro_fast.md`.
#[test]
fn fast_reproduction_matches_the_golden_document() {
    let doc = experiments::render(&experiments::run("all", true).unwrap(), true);
    let golden = include_str!("golden/repro_fast.md");
    if doc != golden {
        let (line, want, got) = golden
            .lines()
            .zip(doc.lines())
            .enumerate()
            .find(|(_, (want, got))| want != got)
            .map_or(
                (golden.lines().count().min(doc.lines().count()), "", ""),
                |(i, (w, g))| (i, w, g),
            );
        panic!(
            "repro all --fast drifted from tests/golden/repro_fast.md at line {}:\n  golden: {want}\n  now:    {got}",
            line + 1
        );
    }
}

/// The cells after the label of the first row under `doc`'s `## <id> `
/// heading whose label starts with `label`.
fn row<'a>(doc: &'a str, id: &str, label: &str) -> Vec<&'a str> {
    let section = doc.split(&format!("## {id} ")).nth(1).expect(id);
    let row = format!("| {label}");
    let line = section.lines().find(|l| l.starts_with(&row)).expect(&row);
    let cells = line.split('|').map(str::trim).filter(|c| !c.is_empty());
    cells.skip(1).collect()
}

/// EXPERIMENTS.md quotes `repro_full_output.md`, which `scripts/verify.sh`
/// holds to `repro all`: the E1 map verbatim, the E11 tallies and final
/// replica set, and the E12 DA/SA ratios to two places.
#[test]
fn e1_map_in_experiments_md_matches_the_full_reproduction() {
    let doc = include_str!("../EXPERIMENTS.md");
    let full = include_str!("../repro_full_output.md");
    let e1 = doc.split("### E1 ").nth(1);
    let map = e1
        .and_then(|e1| e1.split("```\n").nth(1))
        .expect("a fenced map under E1");
    assert!(map.starts_with("> Measured region map (SC)"), "{map}");
    assert!(
        full.contains(map),
        "EXPERIMENTS.md's E1 map drifted from repro_full_output.md:\n{map}"
    );
    // E11's protocol and analytic columns agree, and the prose quotes them.
    let e11 = |label| match row(full, "E11", label)[..] {
        [protocol, analytic] if protocol == analytic => protocol,
        ref cells => panic!("E11 {label}: {cells:?}"),
    };
    let (control, data, io) = (e11("control"), e11("data"), e11("I/O"));
    let ratio = |model| row(full, "E12", model)[2].parse::<f64>().unwrap();
    let quotes = [
        format!("exchanged {control} control + {data} data messages and performed {io} I/Os"),
        format!("final replica set {}.", e11("final replica set")),
        format!("SC: DA/SA = {:.2}", ratio("SC")),
        format!("MC: DA/SA = {:.2}", ratio("MC")),
    ];
    let prose = doc.split_whitespace().collect::<Vec<_>>().join(" ");
    for quote in quotes {
        assert!(
            prose.contains(&quote),
            "EXPERIMENTS.md does not say '{quote}'"
        );
    }
}

#[test]
fn roster_runs_one_experiment_by_name_and_rejects_unknown_names() {
    let picked = experiments::run("thm4", true).unwrap();
    assert_eq!(picked.len(), 1);
    assert_eq!(picked[0].id, "E8");
    let err = experiments::run("thm2", true).unwrap_err().to_string();
    assert!(err.contains("unknown experiment 'thm2'"), "{err}");
    assert!(err.contains("thm23") && err.contains("placement"), "{err}");
}

#[test]
fn e1_figure1_agrees_with_paper() {
    let r = experiments::fig1(&experiments::region_config(true)).unwrap();
    assert!(
        r.metrics["agreement"] >= 0.9,
        "Figure 1 agreement too low: {}",
        r.metrics["agreement"]
    );
    assert!(r.to_markdown().contains("Figure 1"));
}

#[test]
fn e2_figure2_agrees_with_paper() {
    let r = experiments::fig2(&experiments::region_config(true)).unwrap();
    assert!(
        r.metrics["agreement"] >= 0.99,
        "Figure 2: DA must never lose in MC, agreement {}",
        r.metrics["agreement"]
    );
}

#[test]
fn e3_sa_bound_is_tight() {
    let r = experiments::thm1_sa_tightness(&[8, 64, 256]).unwrap();
    assert!(r.metrics["adversary_ratio"] <= r.metrics["bound"] + 1e-9);
    assert!(r.metrics["adversary_ratio"] >= 0.97 * r.metrics["bound"]);
    assert!(r.metrics["battery_worst"] <= r.metrics["bound"] + 1e-9);
    assert_eq!(r.table.len(), 3);
    assert!(r.to_markdown().contains("E3"));
}

#[test]
fn e4_e5_da_bounds_hold() {
    let r = experiments::thm23_da_upper_bounds().unwrap();
    assert!(r.metrics["max_fraction_of_bound"] <= 1.0 + 1e-9);
}

#[test]
fn e6_da_lower_bound_nontrivial() {
    let r = experiments::prop2_da_lower_bound(false).unwrap();
    assert!(
        r.metrics["best_ratio"] >= 1.3,
        "exhaustive search should find ratio >= 1.3, got {}",
        r.metrics["best_ratio"]
    );
}

#[test]
fn e7_sa_mc_divergence_is_linear() {
    let r = experiments::prop3_sa_mc_divergence(&[16, 64, 256]).unwrap();
    // 16 → 256 is 16x the length; ratio growth should be ~16x.
    assert!(r.metrics["growth"] > 8.0, "growth {}", r.metrics["growth"]);
}

#[test]
fn e8_da_mc_bound_holds() {
    let r = experiments::thm4_da_mobile().unwrap();
    assert!(r.metrics["max_fraction_of_bound"] <= 1.0 + 1e-9);
}

#[test]
fn e9_sweep_crosses_to_da_as_reads_grow() {
    let model = CostModel::stationary(0.25, 1.0).unwrap();
    let r = experiments::sweep_e9(model).unwrap();
    assert_eq!(r.table.len(), 19, "one row per read fraction 0.05 … 0.95");
    for (k, v) in &r.metrics {
        assert!(*v > 0.0, "{k} = {v}");
    }
    // With reads spread over 5 processors and Q = {0,1}, most reads are
    // remote for SA; DA's saving-reads amortize them: DA is cheaper at
    // every fraction from the crossover through 0.95, SA at least as
    // cheap at the fraction just below it.
    let crossover = r.metrics["crossover"];
    for i in 1..20 {
        let f = i as f64 * 0.05;
        let (sa, da) = (
            r.metrics[&format!("sa_{f:.2}")],
            r.metrics[&format!("da_{f:.2}")],
        );
        if f >= crossover - 1e-9 {
            assert!(da < sa, "DA {da} not below SA {sa} at {f:.2}");
        } else if f >= crossover - 0.05 - 1e-9 {
            assert!(sa <= da, "SA {sa} above DA {da} just below the crossover");
        }
    }
    assert_eq!(
        experiments::sweep_e9(model).unwrap().to_markdown(),
        r.to_markdown()
    );
}

#[test]
fn e10_example_ordering() {
    let r = experiments::example13().unwrap();
    assert!(r.metrics["opt"] <= r.metrics["da"]);
    assert!(r.metrics["da"] < r.metrics["sa"]);
}

#[test]
fn e11_protocol_matches_model_exactly() {
    let r = experiments::mobile_e11(80, 11).unwrap();
    assert_eq!(r.metrics["exact_match"], 1.0);
}

#[test]
fn e12_append_only_da_dominates_in_mc() {
    let r = experiments::append_e12(200, 9).unwrap();
    assert!(r.metrics["da_over_sa_MC"] < 1.0, "{:?}", r.metrics);
}

#[test]
fn e14_ablations_have_the_expected_signs() {
    let r = experiments::ablation_e14(400, 13).unwrap();
    // Saving-reads must pay off on the hotspot workload.
    assert!(r.metrics["DA_hotspot"] < r.metrics["DA-nosave_hotspot"]);
    assert!(r.metrics["DA_hotspot"] < r.metrics["SA_hotspot"]);
    // The unconstrained cache (t=1) is at least as cheap as DA — that
    // difference is the price of availability.
    assert!(r.metrics["WriteInvalidate (t=1)_hotspot"] <= r.metrics["DA_hotspot"] + 1e-9);
}

#[test]
fn e15_contention_shapes() {
    let r = experiments::contention_e15(&[1, 4, 8]).unwrap();
    // Bus response grows with burst size; repeat bursts under DA are free.
    assert!(r.metrics["sa_bus_8"] > r.metrics["sa_bus_1"]);
    assert_eq!(r.metrics["da_bus_second_8"], 0.0);
}

#[test]
fn e16_cache_reduces_io_preserves_ranking() {
    let r = experiments::cache_e16(300, 3).unwrap();
    // Caching strictly reduces I/O for both algorithms…
    assert!(r.metrics["SA_cached_io"] < r.metrics["SA_plain_io"]);
    assert!(r.metrics["DA_cached_io"] < r.metrics["DA_plain_io"]);
    // …and DA still beats SA on the hotspot workload either way.
    assert!(r.metrics["DA_plain_cost"] < r.metrics["SA_plain_cost"]);
    assert!(r.metrics["DA_cached_cost"] < r.metrics["SA_cached_cost"]);
}

#[test]
fn e17_t_independence_bounds_hold_for_all_t() {
    let r = experiments::t_independence_e17().unwrap();
    let model = CostModel::stationary(0.3, 0.8).unwrap();
    for t in [2usize, 3, 4, 5] {
        assert!(r.metrics[&format!("sa_worst_t{t}")] <= model.sa_bound().unwrap() + 1e-9);
        assert!(r.metrics[&format!("da_worst_t{t}")] <= model.da_bound().unwrap() + 1e-9);
    }
}

#[test]
fn e18_placement_spreading_beats_same_core() {
    let requests = 600;
    let r = experiments::placement_e18(20, requests, 3).unwrap();
    let m = |key: String| r.metrics[&key];
    for name in ["same-core", "round-robin", "load-aware"] {
        // Every DA request does one I/O more than it sends data: a write
        // ships t-1 copies and stores t, a local read does one I/O, a
        // saving-read one transfer and two I/Os. Where the cores sit
        // decides which reads save, so both tallies shift, but I/O minus
        // data is the request count under every placement…
        let (io, data) = (m(format!("{name}_io")), m(format!("{name}_data")));
        assert_eq!(io - data, requests as f64, "{name}");
        // …and the per-node loads account for every I/O.
        assert_eq!(m(format!("{name}_node_io")), io, "{name}");
    }
    // Spreading lowers the hotspot, and load-aware lowers it most.
    let max = |name: &str| m(format!("{name}_max_load"));
    assert!(max("round-robin") < max("same-core"));
    assert!(max("load-aware") < max("round-robin"));
    // Cost stays within a few percent across placements.
    let base = r.metrics["same-core_cost"];
    for k in ["round-robin_cost", "load-aware_cost"] {
        assert!((r.metrics[k] - base).abs() / base < 0.1, "{k} drifted");
    }
}

#[test]
fn run_placement_rejects_cores_that_do_not_fit() {
    use doma::algorithms::multi::Placement;
    use doma::{MultiSchedule, ObjectId, Request};
    let mut schedule = MultiSchedule::default();
    schedule.push(ObjectId(1), Request::write(2usize));
    for placement in [
        Placement::SameCore,
        Placement::RoundRobin,
        Placement::LoadAware,
    ] {
        for t in [1, 9] {
            assert!(experiments::run_placement(8, t, placement, &schedule).is_err());
        }
        let run = experiments::run_placement(8, 8, placement, &schedule).unwrap();
        assert_eq!(
            run.load,
            vec![1; 8],
            "{placement:?}: a write stores t copies"
        );
    }
}

#[test]
fn e19_file_allocation_gaps_are_sensible() {
    let r = experiments::file_allocation_e19(300, 11).unwrap();
    for (k, v) in &r.metrics {
        assert!(*v >= 1.0 - 1e-9, "{k} below 1: {v}");
    }
    // On a hotspot workload the dynamism gap is substantial: no fixed
    // scheme can chase a rotating hotspot.
    assert!(r.metrics["hotspot_dynamism_gap"] > 1.05);
}

#[test]
fn e20_load_curve_shows_the_knee() {
    let r = experiments::load_curve_e20(60).unwrap();
    // Below saturation the bus matches p2p; past it, it blows up.
    assert_eq!(r.metrics["bus_mean_16"], r.metrics["p2p_mean_16"]);
    assert!(r.metrics["bus_mean_1"] > 4.0 * r.metrics["bus_mean_16"]);
}

#[test]
fn e21_failover_quorum_is_dearer() {
    let r = experiments::failover_e21(60, 5).unwrap();
    assert!(
        r.metrics["overhead"] > 1.5,
        "quorum mode should cost well above normal DA, got {}",
        r.metrics["overhead"]
    );
}
