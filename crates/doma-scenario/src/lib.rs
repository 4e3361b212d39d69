//! # doma-scenario
//!
//! A declarative scenario format for the repo's evaluation surface: a
//! zero-dependency TOML-subset config describing the catalog shape, a
//! per-phase request mix (every `doma-workload` generator plus verbatim
//! trace replay), a declarative fault plan, the tournament entrant under
//! test, and a block of **expected invariants** checked when the run
//! ends (cost vs OPT, t-availability, scheme-churn ceilings, obs-metric
//! parity).
//!
//! The crate ships three layers:
//!
//! * [`toml`] — the line-numbered TOML-subset parser (hermetic-build
//!   policy: no external TOML crate),
//! * [`model`] — the typed [`Scenario`] with full validation and the
//!   deterministic [`Scenario::to_toml`] serializer,
//! * [`runner`] — executes a scenario through the protocol simulator
//!   with the obs registry attached and audits the expected-invariant
//!   block; [`runner::RunReport::digest`] is the FNV-1a 64 digest of the
//!   byte-stable obs snapshot, pinned per builtin scenario as the
//!   golden-trace conformance wall.
//!
//! Builtin scenarios live under `scenarios/*.toml` and are addressed by
//! name (see [`builtin`]); `domactl scenario <name|path>` runs them from
//! the command line and `cargo test` replays every one against its
//! pinned digest.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builtin;
pub mod model;
pub mod runner;
pub mod toml;

pub use doma_protocol::Entrant;
pub use model::{Expect, Phase, Scenario, WorkloadSpec};
pub use runner::{build_schedule, run, run_traced, RunReport};

use std::fmt;

/// A scenario loading, validation or execution error, carrying the
/// offending 1-indexed source line when one is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-indexed source line of the offending construct, if known.
    pub line: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl ScenarioError {
    /// An error anchored to a source line.
    pub fn at(line: usize, message: impl Into<String>) -> Self {
        ScenarioError {
            line: Some(line),
            message: message.into(),
        }
    }

    /// An error with no source position (runtime failures).
    pub fn msg(message: impl Into<String>) -> Self {
        ScenarioError {
            line: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(line) => write!(f, "line {line}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// FNV-1a 64-bit digest — the golden-trace fingerprint function. Applied
/// to the byte-stable obs snapshot JSON; rendered as `0x` + 16 hex
/// digits everywhere a digest is pinned.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders a digest the way scenario files pin it.
pub fn format_digest(digest: u64) -> String {
    format!("0x{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest64(b"doma"), digest64(b"doma"));
        assert_ne!(digest64(b"doma"), digest64(b"Doma"));
        assert_eq!(format_digest(0xabc), "0x0000000000000abc");
    }

    #[test]
    fn errors_render_with_and_without_lines() {
        assert_eq!(ScenarioError::at(3, "bad").to_string(), "line 3: bad");
        assert_eq!(ScenarioError::msg("bad").to_string(), "bad");
    }
}
