//! `doma-lint`: the workspace's semantic lint wall.
//!
//! A zero-dependency static analysis engine built on a hand-written
//! Rust lexer ([`lex`]) and a nested token-tree parser ([`tree`]).
//! Every rule operates on token trees with exact `file:line:col` spans
//! — comments and string literals are invisible, the catalog rules see
//! `#[cfg(test)]`-gated items stripped at the tree level, and sibling
//! sequences at each nesting depth let rules tell patterns from
//! expressions and method calls from definitions, distinctions the old
//! character-masking scanner could not make.
//!
//! # Rule catalog
//!
//! The per-file source bans — no hash iteration, environment branching or
//! wall clock, threads and sockets only in audited modules, no panics,
//! prints or wildcard message arms in protocol code — are clippy's
//! (`clippy.toml` plus crate-level pragmas; each sanctioned exception is
//! an `#[expect]` at its site, DESIGN §12). This crate keeps what clippy
//! cannot express.
//!
//! Per-file rules:
//!
//! * **determinism** — in the deterministic crates (`doma-sim`,
//!   `doma-protocol`, `doma-obs`, `doma-scenario`) non-test code calls no
//!   `.partial_cmp(…)` (NaN-partial float ordering), part of what keeps
//!   every golden obs digest and sharded merge bit-identical. Clippy
//!   cannot ban it precisely: `PartialOrd::partial_cmp` fires on every
//!   `#[derive(PartialOrd)]`, and `f64::partial_cmp` matches nothing.
//! * **lint-headers** — every crate's `lib.rs` carries
//!   `#![warn(missing_docs)]` and `#![warn(rust_2018_idioms)]`.
//!
//! Cross-file rules (facts that only exist across the file set):
//!
//! * **lock-order** — the static lock-acquisition graph over
//!   `Mutex`/`RwLock` guards in `doma-obs` (the metric registry and the
//!   event log, each behind a `fn lock(&self)` helper): re-entrant
//!   acquisition in one scope and any cycle in the acquire-while-holding
//!   graph are rejected — the static shape of a deadlock.
//! * **message-flow** — every `DomMsg` variant must be both constructed
//!   and dispatched somewhere in `doma-protocol`; dead or unsendable
//!   protocol messages are lint errors.
//! * **obs-catalog** — every metric registered with literal
//!   `(component, name)` arguments must appear in the DESIGN §8
//!   catalog, and literal label keys must be sorted; name drift breaks
//!   obs JSON diffing silently.
//! * **span-catalog** — every span opened with a literal name
//!   (`.span_enter(…)` call sites and `span!` macro invocations) must
//!   appear in the DESIGN §13 span catalog; the trace exporter and the
//!   critical-path report key on span names.
//!
//! Site rules (where one kind of call may live; unit-test modules
//! included):
//!
//! * **roster-once** — outside `doma-algorithms`, the contenders'
//!   constructors and the `"write-invalidate"` label appear only in
//!   `doma-protocol`'s roster module.
//! * **typed-events** — outside `doma-obs`, no direct `.record(…)` or
//!   `.span_enter(…)`: events go through `event!`/`span!`.
//! * **counter-handles** — outside `doma-obs`, the metrics registry is
//!   looked up by name (`.metrics();`, `.metrics().add(…)`,
//!   `.metrics().counter(…)`) only in `doma-protocol/src/obs.rs` and
//!   `doma-sim/src/engine.rs`, where handles are resolved.
//! * **one-settle** — outside `doma-sim`, root `tests/` and `examples/`
//!   included, `run_until_idle(…)` is called only in `ProtocolSim::settle`.
//!
//! The engine ([`engine`]) loads every crate's `src/` and the root
//! `tests/` and `examples/` (or accepts a synthetic in-memory workspace —
//! the mutation self-tests use that) and runs the catalog. The wall
//! itself is a test: `tests/tree_wall.rs` lints this checkout and fails
//! listing every finding as `file:line:col: [rule] message`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod lex;
pub mod rules;
pub mod tree;

pub use engine::{load_workspace, run, LintReport, Workspace};

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// 1-indexed column (in characters) of the finding's anchor token.
    pub col: usize,
    /// Short rule identifier (`determinism`, `lock-order`, …).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}
