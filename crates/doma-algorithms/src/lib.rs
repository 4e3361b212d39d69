//! # doma-algorithms
//!
//! The distributed object management algorithms of Huang & Wolfson
//! (ICDE 1994) and the machinery used to compare them:
//!
//! * [`StaticAllocation`] (**SA**, §4.2.1) — read-one-write-all over a
//!   fixed scheme `Q`; `(1 + cc + cd)`-competitive in SC (Theorem 1,
//!   tight by Proposition 1), not competitive in MC (Proposition 3).
//! * [`DynamicAllocation`] (**DA**, §4.2.2) — fixed core `F` of `t-1`
//!   processors plus a floating member; saving-reads and write-invalidation;
//!   `(2 + 2cc)`-competitive in SC (Theorem 2), `(2 + cc)` when `cd > 1`
//!   (Theorem 3), `(2 + 3cc/cd)`-competitive in MC (Theorem 4), and not
//!   better than 1.5-competitive (Proposition 2).
//! * [`OfflineOptimal`] (**OPT**, §4.1) — the exact minimum-cost legal,
//!   t-available allocation schedule, computed by a dynamic program over
//!   allocation schemes with O(2ⁿ·n) per-request transitions.
//! * [`BruteForceOptimal`] and [`NaiveDpOptimal`] — independent, slower
//!   implementations of OPT used to cross-validate the fast DP.
//! * [`adversary`] — the explicit worst-case schedules behind
//!   Propositions 1–3.
//! * [`search`] — the one competitive-ratio measurement (`ratio`,
//!   `measure`, the first-max-wins `WorstCase`) and the worst-case
//!   searches built on it: exhaustive, random, greedy and repeated-pattern
//!   (empirical lower bounds on competitiveness).
//! * [`baselines`] — first-class tournament baselines: a convergent
//!   frequency-based allocator (à la Wolfson–Jajodia) and CDVM-style
//!   caching variants, promoted from ablation-only code so the fault
//!   matrix and model checker cover them too.
//! * [`contenders`] — tournament contenders adapted from the online
//!   allocation literature: cost-oblivious reallocation (Bender et al.,
//!   arXiv:1404.2019) and multiple-mobile-resource allocation (Feldkord
//!   et al., arXiv:1907.09834).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Every allocator runs inside the protocol sim as a plan oracle: a
// failure is a `DomaError` the invariant checker can audit, never an abort.
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod adversary;
pub mod baselines;
pub mod bounds;
mod brute;
pub mod contenders;
mod da;
pub mod multi;
mod opt;
pub mod partition;
mod quorum;
mod sa;
pub mod search;
mod static_opt;

pub use baselines::{SlidingWindowConvergent, WriteInvalidateCache};
pub use brute::{BruteForceOptimal, NaiveDpOptimal};
pub use contenders::{CostOblivious, MobileMirror};
pub use da::DynamicAllocation;
pub use opt::OfflineOptimal;
pub use quorum::QuorumConsensus;
pub use sa::StaticAllocation;
pub use static_opt::BestStaticAllocation;
