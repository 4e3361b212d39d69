//! # doma-analysis
//!
//! The experiment harness that regenerates every figure and claim of the
//! paper's evaluation:
//!
//! * [`ratio`] — empirical competitive-ratio measurement of an online
//!   algorithm against the exact offline optimum, over schedule batteries
//!   (adversarial constructions + seeded random workloads).
//! * [`region`] — the `(cd, cc)` plane partitions of **Figure 1**
//!   (stationary computing) and **Figure 2** (mobile computing), both the
//!   paper's analytic boundaries and our measured winners, with an ASCII
//!   renderer that mirrors the figures.
//! * [`sweep`] — average-case cost sweeps (read/write mix, E9) run in
//!   parallel with `std::thread::scope`.
//! * [`tournament`] — every first-class allocator (SA, DA, the promoted
//!   baselines and the contenders) run as a real protocol over every
//!   workload generator, priced on a `(cc, cd)` grid and measured against
//!   the exact offline optimum, with a byte-stable JSON export
//!   (`BENCH_tournament.json`).
//! * [`experiments`] — one driver per experiment id (E1–E21 in DESIGN.md),
//!   returning structured reports the `repro` binary prints and the
//!   integration tests assert on.
//! * [`report`] — markdown/CSV table rendering.
//! * [`stats`] — summary statistics (means, deviations, percentiles,
//!   confidence intervals) for the latency and sweep reports.
//! * [`jsonv`] — a minimal JSON value parser for reading back the
//!   harness's own byte-stable artifacts (obs snapshots).
//! * [`obsdiff`] — structural diff of two obs snapshots
//!   (`domactl obs diff`).
//! * [`cluster`] — the real-runtime twin harness: a scenario replayed
//!   over the socket cluster (`doma-net`) and diffed against the
//!   deterministic simulator (`domactl cluster`).
//!
//! Two binaries ship with the crate: `repro` (regenerates every paper
//! artifact) and `domactl` (a CLI for costing, simulating, generating and
//! inspecting schedules).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod battery;
pub mod cluster;
pub mod experiments;
pub mod jsonv;
pub mod obsdiff;
pub mod ratio;
pub mod region;
pub mod report;
pub mod stats;
pub mod sweep;
pub mod tournament;
