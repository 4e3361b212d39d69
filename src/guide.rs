//! # Guide: the model in 10 minutes
//!
//! This is a guided tour of the concepts, in the order the paper (Huang &
//! Wolfson, ICDE 1994) introduces them, with runnable snippets.
//!
//! ## 1. Schedules
//!
//! A **schedule** is a finite, totally ordered sequence of read/write
//! requests against one object, each issued by a processor. The textual
//! notation is the paper's: `r3` is a read by processor 3, `w0` a write by
//! processor 0.
//!
//! ```
//! use doma::Schedule;
//! let schedule: Schedule = "w2 r4 w3 r1 r2".parse().unwrap(); // the paper's ψ₀
//! assert_eq!(schedule.write_count(), 2);
//! ```
//!
//! ## 2. Allocation schemes, execution sets, saving-reads
//!
//! At any moment, the **allocation scheme** is the set of processors whose
//! local databases hold the latest version. Serving a request maps it to
//! an **execution set**: the processors that perform it. A read whose
//! result is also stored at the reader is a **saving-read** — the reader
//! joins the scheme. A write's execution set *becomes* the scheme
//! (everything else is invalidated).
//!
//! Two constraints make an allocation schedule admissible: **legality**
//! (every read's execution set intersects the current scheme) and
//! **t-availability** (the scheme never has fewer than `t` members).
//!
//! ## 3. The cost model
//!
//! Three unit costs: `cio` per local-database input/output, `cc` per
//! control message (requests, invalidations), `cd` per data message (the
//! object in transit), with `cc ≤ cd` always. **Stationary computing**
//! normalizes `cio = 1`; **mobile computing** sets `cio = 0` (only
//! wireless messages are billed). This library tallies the three resources
//! as exact integers and prices them at the end:
//!
//! ```
//! use doma::{CostModel, CostVector};
//! let v = CostVector::new(2, 1, 3); // 2 control msgs, 1 data msg, 3 I/Os
//! let sc = CostModel::stationary(0.5, 1.0).unwrap();
//! assert_eq!(v.eval(&sc), 2.0 * 0.5 + 1.0 + 3.0);
//! let mc = CostModel::mobile(0.5, 1.0).unwrap();
//! assert_eq!(v.eval(&mc), 2.0 * 0.5 + 1.0); // I/O is free
//! ```
//!
//! ## 4. The algorithms
//!
//! **SA** (static allocation) fixes a scheme `Q` of size `t` and does
//! read-one-write-all. **DA** (dynamic allocation) fixes a core `F` of
//! `t-1` processors plus a floating member; non-member reads become
//! saving-reads, writes shrink the scheme back to `F` plus the writer (or
//! the original floater), invalidating the rest via per-core join-lists.
//!
//! ```
//! use doma::algorithms::{DynamicAllocation, StaticAllocation};
//! use doma::core::run_online;
//! use doma::{ProcSet, ProcessorId, Schedule};
//!
//! let schedule: Schedule = "r2 r2 r2".parse().unwrap();
//! let mut sa = StaticAllocation::new(ProcSet::from_iter([0, 1])).unwrap();
//! let mut da = DynamicAllocation::new(ProcSet::from_iter([0]), ProcessorId::new(1)).unwrap();
//! let sa_run = run_online(&mut sa, &schedule).unwrap();
//! let da_run = run_online(&mut da, &schedule).unwrap();
//! // DA turned the first read into a saving-read; the rest were local.
//! assert!(da_run.costed.total.io > sa_run.costed.total.io); // one extra store…
//! assert!(da_run.costed.total.data < sa_run.costed.total.data); // …saves transfers
//! ```
//!
//! ## 5. Competitive analysis
//!
//! An online algorithm is **α-competitive** if its cost is at most
//! `α · OPT + β` on *every* schedule, where OPT is the optimal offline
//! algorithm. [`doma::algorithms::OfflineOptimal`] computes OPT exactly
//! (a dynamic program over allocation schemes), so competitive ratios are
//! *measured*, not estimated:
//!
//! ```
//! use doma::algorithms::OfflineOptimal;
//! use doma::{CostModel, ProcSet, Schedule};
//!
//! let model = CostModel::stationary(0.5, 1.5).unwrap();
//! let opt = OfflineOptimal::new(4, 2, ProcSet::from_iter([0, 1]), model).unwrap();
//! let schedule: Schedule = "r2 r2 r2 r2".parse().unwrap();
//! // OPT saves the first remote read, then reads locally.
//! assert_eq!(opt.optimal_cost(&schedule).unwrap(), (0.5 + 2.0 + 1.5) + 3.0);
//! ```
//!
//! The paper's results, all reproduced in EXPERIMENTS.md: SA is tightly
//! `(1+cc+cd)`-competitive in SC but *not competitive at all* in MC; DA is
//! `(2+2cc)`-competitive (`(2+cc)` when `cd > 1`), `(2+3cc/cd) ≤ 5` in MC,
//! and no better than 1.5-competitive — the adversary behind that last
//! bound, omitted in the paper, is
//! [`doma::algorithms::adversary::da_prop2_cycle`], which this library's
//! exhaustive asymptotic pattern search rediscovered.
//!
//! ## 6. From model to system
//!
//! Everything above is analytic. [`doma::protocol::ProtocolSim`] runs SA
//! and DA as real message-passing protocols on a deterministic
//! discrete-event simulator over versioned, redo-logged local stores — and
//! its message/I/O tallies equal the analytic model's *exactly*, which the
//! integration tests assert on randomized workloads. From there you get
//! the things a model can't show: read latencies, shared-bus contention,
//! crash + quorum-fallback + missing-writes recovery, multi-object
//! catalogs with core placement, and optional memory caching.
//!
//! Continue with the runnable examples (`cargo run --example quickstart`)
//! and the experiment harness (`cargo run --release -p doma-analysis --bin
//! domactl -- repro`).
