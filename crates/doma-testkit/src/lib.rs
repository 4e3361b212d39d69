//! # doma-testkit
//!
//! Hermetic correctness tooling for the workspace: everything the tests
//! and workloads need from `rand` and `proptest`, reimplemented in-tree
//! with **zero registry dependencies**, so
//! `cargo build --offline && cargo test --offline` works from a clean
//! checkout with an empty cargo registry cache.
//!
//! * [`rng`] — deterministic PRNG (SplitMix64 + xoshiro256++) with the
//!   distribution helpers the repository uses: uniform ranges, Bernoulli,
//!   Zipf, shuffle, choose. Same seed ⇒ same stream, on every platform.
//! * [`property`] — a shrinking property-test harness: the [`property!`]
//!   macro, `Gen` combinators with integer/vector shrinking, and seed
//!   replay printed on failure (`DOMA_PROP_SEED` / `DOMA_PROP_CASE`).
//! * [`replay`] — shared seed plumbing: `DOMA_*_SEED` parsing and the
//!   replay-line conventions used by both the property harness and the
//!   fault-injection torture driver (`DOMA_FAULT_SEED`).
//!
//! Determinism is the design center: the paper's adversarial lower-bound
//! constructions (and the regressions they guard) are only useful if a
//! failing input can be replayed bit-for-bit.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod property;
pub mod replay;
pub mod rng;

pub use rng::{Rng, TestRng};
