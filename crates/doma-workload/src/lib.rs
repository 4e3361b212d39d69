//! # doma-workload
//!
//! Deterministic schedule generators for the experiments:
//!
//! * [`UniformWorkload`] — i.i.d. requests, uniform over processors, with a
//!   configurable read fraction (the E9 read/write-mix sweep).
//! * [`ZipfWorkload`] — request issuers drawn from a Zipf distribution
//!   (skewed access, the common case in distributed databases).
//! * [`HotspotWorkload`] — a read hotspot that relocates every phase;
//!   *regular* access patterns in the sense of §5.1.
//! * [`ChaoticWorkload`] — issuer and operation re-drawn from freshly
//!   re-randomized weights every few requests; the *chaotic* patterns for
//!   which the paper argues competitive algorithms are the right choice.
//! * [`MobileWorkload`] — the §1.1/§2 mobile scenario: a user's location
//!   object is written as the user moves between cells and read by callers.
//! * [`AppendOnlyWorkload`] — the §6.2 append-only model: a stream of
//!   immutable versions (satellite images) generated at earth stations and
//!   read at arbitrary stations.
//!
//! All generators implement [`ScheduleGen`] and are fully deterministic
//! given a seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod append_only;
mod chaotic;
mod hotspot;
mod mobile;
mod multi_mobile;
mod multi_uniform;
pub mod trace;
mod uniform;
mod zipf;

pub use append_only::AppendOnlyWorkload;
pub use chaotic::ChaoticWorkload;
pub use hotspot::HotspotWorkload;
pub use mobile::MobileWorkload;
pub use multi_mobile::MultiMobileWorkload;
pub use multi_uniform::MultiUniformWorkload;
pub use uniform::UniformWorkload;
pub use zipf::{ZipfSampler, ZipfWorkload};

use doma_core::{MultiSchedule, Schedule};

/// A deterministic schedule generator: same seed, same schedule.
pub trait ScheduleGen {
    /// A short name for reports ("uniform", "zipf", …).
    fn name(&self) -> &str;

    /// Generates a schedule of `len` requests using `seed`.
    fn generate(&self, len: usize, seed: u64) -> Schedule;
}

/// A deterministic multi-object schedule generator: same seed, same
/// interleaved schedule. The multi-object analogue of [`ScheduleGen`];
/// these feed the shard partitioner and the sharded executor.
pub trait MultiScheduleGen {
    /// A short name for reports ("multi-uniform", "multi-mobile", …).
    fn name(&self) -> &str;

    /// Generates an interleaved schedule of `len` requests using `seed`.
    fn generate_multi(&self, len: usize, seed: u64) -> MultiSchedule;
}

impl MultiScheduleGen for MultiMobileWorkload {
    fn name(&self) -> &str {
        "multi-mobile"
    }

    fn generate_multi(&self, len: usize, seed: u64) -> MultiSchedule {
        MultiMobileWorkload::generate_multi(self, len, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generator must be deterministic and produce the requested
    /// length over the requested universe.
    #[test]
    fn all_generators_are_deterministic() {
        let gens: Vec<Box<dyn ScheduleGen>> = vec![
            Box::new(UniformWorkload::new(5, 0.8).unwrap()),
            Box::new(ZipfWorkload::new(5, 1.1, 0.8).unwrap()),
            Box::new(HotspotWorkload::new(5, 10, 0.9).unwrap()),
            Box::new(ChaoticWorkload::new(5, 4).unwrap()),
            Box::new(MobileWorkload::new(4, 3, 0.3, 0.5).unwrap()),
            Box::new(AppendOnlyWorkload::new(5, 2, 3.0).unwrap()),
        ];
        for g in &gens {
            let a = g.generate(40, 7);
            let b = g.generate(40, 7);
            let c = g.generate(40, 8);
            assert_eq!(a, b, "{} must be deterministic", g.name());
            assert_ne!(a, c, "{} must vary with the seed", g.name());
            assert_eq!(a.len(), 40);
        }
    }
}
