//! `repro` — regenerates every figure and bound of the paper.
//!
//! ```text
//! repro [all|fig1|fig2|thm1|thm23|thm4|prop2|prop3|sweep|example13|mobile|append|ablation|…]
//!       [--fast]
//! ```
//!
//! `--fast` shrinks grids and batteries for a quick smoke run (used by CI
//! and the integration tests); the default settings match EXPERIMENTS.md.

use doma_analysis::experiments;
use doma_analysis::region::RegionConfig;
use doma_core::CostModel;
use std::process::ExitCode;

fn region_config(fast: bool) -> RegionConfig {
    if fast {
        RegionConfig {
            n: 5,
            step: 0.5,
            max: 2.0,
            schedule_len: 24,
            seeds: 1,
        }
    } else {
        RegionConfig {
            n: 5,
            step: 0.25,
            max: 2.0,
            schedule_len: 48,
            seeds: 3,
        }
    }
}

fn run(which: &str, fast: bool) -> doma_core::Result<Vec<experiments::ExpReport>> {
    let lengths: &[usize] = if fast {
        &[8, 32, 128]
    } else {
        &[8, 32, 128, 512, 2048]
    };
    let sweep_model = CostModel::stationary(0.25, 1.0).expect("valid model");
    let mut reports = Vec::new();
    let all = which == "all";
    if all || which == "fig1" {
        reports.push(experiments::fig1(&region_config(fast))?);
    }
    if all || which == "fig2" {
        reports.push(experiments::fig2(&region_config(fast))?);
    }
    if all || which == "thm1" {
        reports.push(experiments::thm1_sa_tightness(lengths)?);
    }
    if all || which == "thm23" {
        reports.push(experiments::thm23_da_upper_bounds()?);
    }
    if all || which == "thm4" {
        reports.push(experiments::thm4_da_mobile()?);
    }
    if all || which == "prop2" {
        reports.push(experiments::prop2_da_lower_bound(!fast)?);
    }
    if all || which == "prop3" {
        reports.push(experiments::prop3_sa_mc_divergence(lengths)?);
    }
    if all || which == "sweep" {
        reports.push(experiments::sweep_e9(sweep_model)?);
    }
    if all || which == "example13" {
        reports.push(experiments::example13()?);
    }
    if all || which == "mobile" {
        reports.push(experiments::mobile_e11(if fast { 60 } else { 400 }, 3)?);
    }
    if all || which == "append" {
        reports.push(experiments::append_e12(if fast { 150 } else { 1000 }, 5)?);
    }
    if all || which == "ablation" {
        reports.push(experiments::ablation_e14(if fast { 300 } else { 2000 }, 7)?);
    }
    if all || which == "failover" {
        reports.push(experiments::failover_e21(if fast { 60 } else { 300 }, 5)?);
    }
    if all || which == "loadcurve" {
        reports.push(experiments::load_curve_e20(if fast { 60 } else { 200 })?);
    }
    if all || which == "contention" {
        reports.push(experiments::contention_e15(if fast {
            &[1, 4, 8]
        } else {
            &[1, 2, 4, 8, 16]
        })?);
    }
    if all || which == "cache" {
        reports.push(experiments::cache_e16(if fast { 300 } else { 1500 }, 3)?);
    }
    if all || which == "tindep" {
        reports.push(experiments::t_independence_e17()?);
    }
    if all || which == "fileallocation" {
        reports.push(experiments::file_allocation_e19(
            if fast { 200 } else { 1000 },
            11,
        )?);
    }
    if all || which == "placement" {
        reports.push(experiments::placement_e18(
            40,
            if fast { 600 } else { 4000 },
            3,
        )?);
    }
    Ok(reports)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let known = [
        "all",
        "fig1",
        "fig2",
        "thm1",
        "thm23",
        "thm4",
        "prop2",
        "prop3",
        "sweep",
        "example13",
        "mobile",
        "append",
        "ablation",
        "contention",
        "cache",
        "tindep",
        "placement",
        "fileallocation",
        "loadcurve",
        "failover",
    ];
    if !known.contains(&which) {
        eprintln!(
            "unknown experiment '{which}'; choose one of: {}",
            known.join(", ")
        );
        return ExitCode::FAILURE;
    }
    match run(which, fast) {
        Ok(reports) => {
            if reports.is_empty() {
                eprintln!("nothing to run");
                return ExitCode::FAILURE;
            }
            println!(
                "# Reproduction of Huang & Wolfson, ICDE 1994 ({} mode)\n",
                if fast { "fast" } else { "full" }
            );
            for report in reports {
                println!("{}\n", report.to_markdown());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("experiment failed: {e}");
            ExitCode::FAILURE
        }
    }
}
