//! `repro` — regenerates every figure and bound of the paper.
//!
//! ```text
//! repro [all|fig1|fig2|thm1|thm23|thm4|prop2|prop3|sweep|example13|mobile|append|ablation|…]
//!       [--fast]
//! ```
//!
//! `--fast` shrinks grids and batteries for a quick smoke run (used by CI
//! and the integration tests); the default settings match EXPERIMENTS.md.
//! The roster of names lives in `doma_analysis::experiments`.

use doma_analysis::experiments;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = args.iter().any(|a| a == "--fast");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    match experiments::run(which, fast) {
        Ok(reports) => {
            print!("{}", experiments::render(&reports, fast));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::FAILURE
        }
    }
}
