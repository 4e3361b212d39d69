//! Mobile-computing workload — the §1.1/§2 location-tracking scenario.

use crate::ScheduleGen;
use doma_core::{DomaError, ProcessorId, Request, Result, Schedule};
use doma_testkit::rng::{Rng, TestRng};

/// A mobile user's *location object*:
///
/// * processor `0` is the **base station** (the natural `F` of DA's `t=2`
///   configuration, §2);
/// * processors `1..=cells` are cell processors; the user is attached to
///   one of them and moves to a uniformly random other cell with
///   probability `move_prob` before each request;
/// * processors `cells+1..cells+callers` are caller processors.
///
/// A read (probability `read_fraction`) is a caller looking the user up;
/// a write is a location update issued by the user's current cell.
#[derive(Debug, Clone)]
pub struct MobileWorkload {
    cells: usize,
    callers: usize,
    move_prob: f64,
    read_fraction: f64,
}

impl MobileWorkload {
    /// Creates the generator. `cells ≥ 1`, `callers ≥ 1`, probabilities in
    /// `[0, 1]`, total universe within [`doma_core::MAX_PROCESSORS`].
    pub fn new(cells: usize, callers: usize, move_prob: f64, read_fraction: f64) -> Result<Self> {
        if cells == 0 || callers == 0 {
            return Err(DomaError::InvalidConfig(
                "need at least one cell and one caller".to_string(),
            ));
        }
        if 1 + cells + callers > doma_core::MAX_PROCESSORS {
            return Err(DomaError::InvalidConfig("universe too large".to_string()));
        }
        for (name, v) in [("move_prob", move_prob), ("read_fraction", read_fraction)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(DomaError::InvalidConfig(format!(
                    "{name} {v} outside [0, 1]"
                )));
            }
        }
        Ok(MobileWorkload {
            cells,
            callers,
            move_prob,
            read_fraction,
        })
    }

    /// Total number of processors: base station + cells + callers.
    pub fn universe(&self) -> usize {
        1 + self.cells + self.callers
    }
}

impl ScheduleGen for MobileWorkload {
    fn name(&self) -> &str {
        "mobile"
    }

    fn generate(&self, len: usize, seed: u64) -> Schedule {
        let mut rng = TestRng::seed_from_u64(seed);
        let mut current_cell = 1 + rng.gen_range(0..self.cells);
        let mut s = Schedule::new();
        for _ in 0..len {
            if self.cells > 1 && rng.gen_bool(self.move_prob) {
                // Hand off to a different cell.
                let mut next = 1 + rng.gen_range(0..self.cells);
                while next == current_cell {
                    next = 1 + rng.gen_range(0..self.cells);
                }
                current_cell = next;
            }
            if rng.gen_bool(self.read_fraction) {
                let caller = 1 + self.cells + rng.gen_range(0..self.callers);
                s.push(Request::read(ProcessorId::new(caller)));
            } else {
                s.push(Request::write(ProcessorId::new(current_cell)));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(MobileWorkload::new(0, 3, 0.2, 0.5).is_err());
        assert!(MobileWorkload::new(3, 0, 0.2, 0.5).is_err());
        assert!(MobileWorkload::new(3, 3, 1.2, 0.5).is_err());
        assert!(MobileWorkload::new(40, 40, 0.2, 0.5).is_err());
        assert!(MobileWorkload::new(3, 3, 0.2, 0.5).is_ok());
    }

    #[test]
    fn roles_are_separated() {
        let g = MobileWorkload::new(3, 2, 0.3, 0.6).unwrap();
        assert_eq!(g.universe(), 6);
        let s = g.generate(500, 4);
        for r in s.iter() {
            let i = r.issuer.index();
            if r.is_write() {
                assert!((1..=3).contains(&i), "writes come from cells, got P{i}");
            } else {
                assert!((4..=5).contains(&i), "reads come from callers, got P{i}");
            }
        }
    }

    #[test]
    fn user_moves_between_cells() {
        let g = MobileWorkload::new(4, 1, 0.5, 0.0).unwrap(); // writes only
        let s = g.generate(200, 6);
        let mut writers: Vec<usize> = s.iter().map(|r| r.issuer.index()).collect();
        writers.sort_unstable();
        writers.dedup();
        assert!(
            writers.len() >= 3,
            "user should visit several cells: {writers:?}"
        );
    }

    #[test]
    fn zero_move_prob_pins_the_user() {
        let g = MobileWorkload::new(4, 1, 0.0, 0.0).unwrap();
        let s = g.generate(50, 6);
        let first = s.requests()[0].issuer;
        assert!(s.iter().all(|r| r.issuer == first));
    }
}
