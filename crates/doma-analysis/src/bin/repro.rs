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

const USAGE: &str = "usage: repro [<experiment>|all] [--fast]";

/// The experiment name (default `all`) and whether `--fast` was given.
/// At most one name and one `--fast`; anything else is a usage error.
fn parse_args(args: &[String]) -> Result<(&str, bool), String> {
    let mut which = None;
    let mut fast = false;
    for arg in args {
        match arg.as_str() {
            "--fast" if !fast => fast = true,
            name if !name.starts_with('-') && which.is_none() => which = Some(name),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    Ok((which.unwrap_or("all"), fast))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (which, fast) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, bool), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).map(|(which, fast)| (which.to_string(), fast))
    }

    #[test]
    fn accepts_one_name_and_fast() {
        assert_eq!(parse(&[]), Ok(("all".into(), false)));
        assert_eq!(parse(&["--fast"]), Ok(("all".into(), true)));
        assert_eq!(parse(&["fig1"]), Ok(("fig1".into(), false)));
        assert_eq!(parse(&["--fast", "fig1"]), Ok(("fig1".into(), true)));
    }

    #[test]
    fn rejects_everything_else() {
        for bad in [
            &["--fsat"][..],
            &["fig1", "fig2"],
            &["fig1", "--fast", "--fast"],
            &["-f"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("usage: repro"), "{bad:?}: {err}");
        }
    }
}
