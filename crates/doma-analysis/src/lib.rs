//! # doma-analysis
//!
//! The experiment harness that regenerates every figure and claim of the
//! paper's evaluation:
//!
//! * [`battery`] — the schedule battery the bounds and region maps are
//!   measured over (adversarial constructions + seeded random workloads),
//!   and its worst ratio against the exact offline optimum, measured
//!   through `doma_algorithms::search` like every ratio in the tree.
//! * [`region`] — the `(cd, cc)` plane partitions of **Figure 1**
//!   (stationary computing) and **Figure 2** (mobile computing), both the
//!   paper's analytic boundaries and our measured winners, with an ASCII
//!   renderer that mirrors the figures.
//! * [`tournament`] — every first-class allocator (SA, DA, the promoted
//!   baselines and the contenders) run as a real protocol over every
//!   workload generator, priced on a `(cc, cd)` grid and measured against
//!   the exact offline optimum, with a byte-stable JSON export
//!   (`BENCH_tournament.json`).
//! * [`experiments`] — one driver per experiment id (E1–E21 in DESIGN.md)
//!   and the one roster `domactl repro` runs them from, returning
//!   structured reports it prints and the integration tests assert on.
//! * [`report`] — markdown table rendering.
//! * [`stats`] — percentiles, for E20's latency report.
//! * [`jsonv`] — a minimal JSON value parser for reading back the
//!   harness's own byte-stable artifacts (obs snapshots).
//! * [`obsdiff`] — structural diff of two obs snapshots
//!   (`domactl obs diff`).
//! * [`cluster`] — the real-runtime twin harness: a scenario replayed
//!   over the socket cluster (`doma-net`) and diffed against the
//!   deterministic simulator (`domactl cluster`).
//!
//! One binary ships with the crate: `domactl`, a CLI for costing,
//! simulating, generating and inspecting schedules, and for regenerating
//! every paper artifact (`domactl repro`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod battery;
pub mod cluster;
pub mod experiments;
pub mod jsonv;
pub mod obsdiff;
pub mod region;
pub mod report;
pub mod stats;
pub mod tournament;
