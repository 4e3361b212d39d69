//! CLI for the bounded model checker: runs built-in scenarios (or one by
//! name) through exhaustive interleaving exploration and reports states
//! explored, pruned and any counterexample found.
//!
//! ```text
//! doma-check [--scenario NAME] [--max-states N] [--max-depth N] [--list]
//! ```
//!
//! Exit codes: 0 clean, 1 violation found, 2 usage or budget exhaustion.

use doma_fault::{builtin, check, CheckOptions};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: doma-check [--scenario NAME] [--max-states N] [--max-depth N] [--list]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut opts = CheckOptions::default();
    let mut selected: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => match args.next() {
                Some(name) => selected = Some(name),
                None => return usage(),
            },
            "--max-states" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.max_states = v,
                None => return usage(),
            },
            "--max-depth" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.max_depth = v,
                None => return usage(),
            },
            "--list" => {
                for s in builtin() {
                    println!(
                        "{} ({} phases, {} requests)",
                        s.name,
                        s.phases.len(),
                        s.request_count()
                    );
                }
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let scenarios: Vec<_> = match &selected {
        Some(name) => {
            let found: Vec<_> = builtin().into_iter().filter(|s| &s.name == name).collect();
            if found.is_empty() {
                eprintln!("unknown scenario {name:?}; try --list");
                return ExitCode::from(2);
            }
            found
        }
        None => builtin(),
    };

    let mut worst: u8 = 0;
    for scenario in &scenarios {
        match check(scenario, &opts) {
            Ok(report) => {
                println!("{report}");
                if let Some(cex) = &report.counterexample {
                    println!("  violation: {}", cex.violation);
                    for (i, step) in cex.steps.iter().enumerate() {
                        println!("  step {:>2}: {}", i + 1, step.label);
                    }
                    if let Some(metrics) = &cex.metrics {
                        println!("  metrics over the violating schedule:");
                        for line in metrics.lines() {
                            println!("    {line}");
                        }
                    }
                    println!("  {}", cex.replay_line(scenario, "replay_trace_from_env"));
                    worst = worst.max(1);
                } else if !report.complete {
                    worst = worst.max(2);
                }
            }
            Err(e) => {
                eprintln!("{}: configuration error: {e}", scenario.name);
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::from(worst)
}
