//! Uniform multi-object workload: the sharding experiment's traffic.
//!
//! A contiguous catalog of `objects` ids (`0..objects`) receives i.i.d.
//! requests: object uniform, issuer uniform over `n` processors,
//! operation a read with probability `read_fraction`. Contiguous ids
//! matter: they hit the dense slot-table fast path in `doma-protocol`'s
//! nodes, and uniform traffic gives every shard placement policy real
//! work to balance.

use crate::MultiScheduleGen;
use doma_core::{DomaError, MultiSchedule, ObjectId, ProcessorId, Request, Result};
use doma_testkit::rng::{Rng, TestRng};

/// I.i.d. multi-object traffic over a contiguous catalog.
#[derive(Debug, Clone)]
pub struct MultiUniformWorkload {
    objects: u64,
    n: usize,
    read_fraction: f64,
}

impl MultiUniformWorkload {
    /// Creates the generator. `objects ≥ 1`, `n ≥ 1`,
    /// `read_fraction ∈ [0, 1]`.
    pub fn new(objects: u64, n: usize, read_fraction: f64) -> Result<Self> {
        if objects == 0 {
            return Err(DomaError::InvalidConfig("need at least one object".into()));
        }
        if n == 0 || n > doma_core::MAX_PROCESSORS {
            return Err(DomaError::InvalidConfig(format!("bad universe size {n}")));
        }
        if !(0.0..=1.0).contains(&read_fraction) {
            return Err(DomaError::InvalidConfig(format!(
                "read_fraction {read_fraction} outside [0, 1]"
            )));
        }
        Ok(MultiUniformWorkload {
            objects,
            n,
            read_fraction,
        })
    }

    /// Number of objects in the catalog (`ObjectId(0)..ObjectId(objects)`).
    pub fn objects(&self) -> u64 {
        self.objects
    }

    /// Number of processors requests are drawn from.
    pub fn universe(&self) -> usize {
        self.n
    }
}

impl MultiScheduleGen for MultiUniformWorkload {
    fn name(&self) -> &str {
        "multi-uniform"
    }

    fn generate_multi(&self, len: usize, seed: u64) -> MultiSchedule {
        let mut rng = TestRng::seed_from_u64(seed);
        let mut out = MultiSchedule::default();
        for _ in 0..len {
            let object = ObjectId(rng.gen_range(0..self.objects as usize) as u64);
            let issuer = ProcessorId::new(rng.gen_range(0..self.n));
            let request = if rng.gen_bool(self.read_fraction) {
                Request::read(issuer)
            } else {
                Request::write(issuer)
            };
            out.push(object, request);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(MultiUniformWorkload::new(0, 4, 0.5).is_err());
        assert!(MultiUniformWorkload::new(4, 0, 0.5).is_err());
        assert!(MultiUniformWorkload::new(4, 4, 1.5).is_err());
        assert!(MultiUniformWorkload::new(4, 4, 0.5).is_ok());
    }

    #[test]
    fn deterministic_contiguous_and_sized() {
        let g = MultiUniformWorkload::new(16, 8, 0.8).unwrap();
        let a = g.generate_multi(500, 11);
        assert_eq!(a, g.generate_multi(500, 11));
        assert_ne!(a, g.generate_multi(500, 12));
        assert_eq!(a.len(), 500);
        for r in a.requests() {
            assert!(r.object.0 < 16);
            assert!(r.request.issuer.index() < 8);
        }
        // Every object is touched: contiguous catalogs stay contiguous.
        assert_eq!(a.per_object().len(), 16);
    }
}
