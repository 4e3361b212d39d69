//! `doma-lint`: the workspace's semantic lint wall.
//!
//! A zero-dependency static analysis engine built on a hand-written
//! Rust lexer ([`lex`]) and a nested token-tree parser ([`tree`]).
//! Every rule operates on token trees with exact `file:line:col` spans
//! — comments and string literals are invisible, `#[cfg(test)]`-gated
//! items are stripped at the tree level, and sibling sequences at each
//! nesting depth let rules tell patterns from expressions and method
//! calls from definitions, distinctions the old character-masking
//! scanner could not make.
//!
//! # Rule catalog
//!
//! Per-file rules:
//!
//! * **no-panic** — no `.unwrap()`, `.expect(…)` or `panic!` in
//!   non-test code of `doma-algorithms`, `doma-protocol` and
//!   `doma-sim`. The simulation engine and the protocol actors are
//!   driven by the fault injector and the model checker through
//!   adversarial schedules; every failure mode must surface as a
//!   `DomaError` value the invariant checker can audit, never as a
//!   process abort.
//! * **exhaustive-dispatch** — no `_ =>` arms at the top level of a
//!   `match msg` message dispatch in `doma-protocol`. Adding a message
//!   variant must break the build until every actor decides how to
//!   handle it; a wildcard arm silently swallows new protocol messages.
//! * **no-adhoc-print** — no `println!`/`eprintln!` (or their
//!   non-newline forms) in non-test, non-bin code of the instrumented
//!   crates. Observable output flows through `doma-obs` — the event log
//!   and metric registry are deterministic and capturable; a stray
//!   print is neither. The single sanctioned terminal escape is
//!   `doma_obs::console::debug_line`.
//! * **thread-containment** — `std::thread` only in the three audited
//!   fan-out modules (`doma-sim::shard`, the sweep runner, the torture
//!   harness); `available_parallelism` is allowed anywhere.
//! * **determinism** — in the deterministic crates (`doma-sim`,
//!   `doma-protocol`, `doma-obs`, `doma-scenario`) non-test code must
//!   be a pure function of the seed: no `HashMap`/`HashSet` (random
//!   iteration order), no `env::var` (environment branching), no
//!   `.partial_cmp(…)` (NaN-partial float ordering). This is the
//!   invariant behind every golden obs digest and bit-identical sharded
//!   merge. Its wall-clock half — no `Instant`/`SystemTime` — covers
//!   the non-test code of *every* crate except `doma-net`: the one
//!   stopwatch lives in `benchmark/`.
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
//! * **stale-allowlist** — every `lint-allow.list` entry must still
//!   match a real finding (see [`allow`]).
//!
//! The engine ([`engine`]) loads a workspace (or accepts a synthetic
//! in-memory one — the mutation self-tests use that), runs the catalog,
//! applies the allowlist, and renders a table or byte-stable JSON. Two
//! runs over the same tree are byte-identical; verify.sh gates on it.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allow;
pub mod engine;
pub mod lex;
pub mod rules;
pub mod tree;

pub use engine::{load_workspace, render_json, render_table, run, LintReport, Workspace};
pub use rules::{
    check_determinism, check_dispatch_exhaustive, check_lint_headers, check_lock_order,
    check_message_flow, check_no_adhoc_prints, check_no_panics, check_obs_catalog,
    check_span_catalog, check_thread_containment, design_metric_catalog, design_span_catalog,
};

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// 1-indexed column (in characters) of the finding's anchor token.
    pub col: usize,
    /// Short rule identifier (`no-panic`, `determinism`, `lock-order`,
    /// …).
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
