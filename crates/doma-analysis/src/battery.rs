//! Schedule batteries: the fixed mix of adversarial and random schedules
//! the region maps and bound checks are measured over.

use doma_algorithms::search::{measure, WorstCase};
use doma_algorithms::{adversary, OfflineOptimal};
use doma_core::{CostModel, DomaError, OnlineDom, ProcessorId, Result, Schedule};
use doma_workload::{ScheduleGen, UniformWorkload, ZipfWorkload};

/// A named schedule (for witness reporting).
#[derive(Debug, Clone)]
pub struct NamedSchedule {
    /// Where the schedule came from ("remote-reader", "uniform-0.5/seed3"…).
    pub name: String,
    /// The schedule itself.
    pub schedule: Schedule,
}

/// The standard battery over `n` processors (`n ≥ 4`): the paper's
/// adversarial patterns plus seeded uniform/Zipf workloads at several
/// read fractions.
///
/// Conventions (shared with the experiments): SA's scheme is `{0, 1}`,
/// DA's core is `{0}` with floater `1`, so processors `2..n` are the
/// "outsiders" the adversaries exercise.
pub fn standard_battery(n: usize, len: usize, seeds: u64) -> Vec<NamedSchedule> {
    battery_with_outsiders(n, len, seeds, 2)
}

/// Like [`standard_battery`], but with the adversarial "outsider"
/// processors starting at `first_outsider` — used by the t-independence
/// experiment, where the scheme is `{0..t}` and outsiders must start at
/// `t`.
pub fn battery_with_outsiders(
    n: usize,
    len: usize,
    seeds: u64,
    first_outsider: usize,
) -> Vec<NamedSchedule> {
    assert!(n >= 4, "battery needs at least 4 processors");
    assert!(
        first_outsider + 1 < n,
        "need two outsiders within the universe"
    );
    let outsider = ProcessorId::new(first_outsider);
    let outsider2 = ProcessorId::new(first_outsider + 1);
    let insider = ProcessorId::new(0);
    let mut battery = vec![
        NamedSchedule {
            name: "remote-reader".into(),
            schedule: adversary::remote_reader(outsider, len),
        },
        NamedSchedule {
            name: "read-write-ping-pong".into(),
            schedule: adversary::read_write_ping_pong(outsider, insider, len / 2),
        },
        NamedSchedule {
            name: "rotating-reader".into(),
            schedule: adversary::rotating_reader(&[outsider, outsider2], insider, len / 3),
        },
        NamedSchedule {
            name: "bursty-reader".into(),
            schedule: adversary::bursty_reader(outsider, insider, 4, len / 5),
        },
        NamedSchedule {
            name: "write-heavy-outsider".into(),
            schedule: adversary::bursty_reader(outsider, outsider2, 1, len / 2),
        },
    ];
    for seed in 0..seeds {
        for read_fraction in [0.25, 0.5, 0.9] {
            let g = UniformWorkload::new(n, read_fraction).expect("valid");
            battery.push(NamedSchedule {
                name: format!("uniform-{read_fraction}/seed{seed}"),
                schedule: g.generate(len, seed),
            });
        }
        let g = ZipfWorkload::new(n, 1.0, 0.8).expect("valid");
        battery.push(NamedSchedule {
            name: format!("zipf-0.8/seed{seed}"),
            schedule: g.generate(len, seed),
        });
    }
    battery
}

/// The worst ratio `algo` reaches against OPT over `battery`, with the name
/// of the first schedule that reaches it.
pub fn worst_ratio<'a, A: OnlineDom + ?Sized>(
    algo: &mut A,
    model: &CostModel,
    n: usize,
    battery: &'a [NamedSchedule],
) -> Result<(f64, &'a str)> {
    let opt = OfflineOptimal::new(n, algo.t(), algo.initial_scheme(), *model)?;
    let mut worst = WorstCase::default();
    for named in battery {
        worst.offer(measure(algo, &opt, model, &named.schedule)?, || {
            named.name.as_str()
        });
    }
    worst
        .into_worst()
        .map(|(m, name)| (m.ratio, name))
        .ok_or_else(|| DomaError::InvalidConfig("empty battery".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_protocol::{Entrant, Tunables};

    #[test]
    fn battery_composition() {
        let b = standard_battery(5, 30, 2);
        assert_eq!(b.len(), 5 + 2 * 4);
        assert!(b.iter().all(|s| !s.schedule.is_empty()));
        assert!(b.iter().all(|s| s.schedule.min_processors() <= 5));
        // Names are unique.
        let mut names: Vec<&str> = b.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), b.len());
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn battery_needs_four_processors() {
        let _ = standard_battery(3, 30, 1);
    }

    fn canonical(entrant: Entrant) -> Box<dyn OnlineDom> {
        entrant.config().algorithm(5, Tunables::CANONICAL).unwrap()
    }

    #[test]
    fn sa_worst_ratio_respects_theorem_1() {
        let model = CostModel::stationary(0.3, 0.8).unwrap();
        let battery = standard_battery(5, 40, 2);
        let (worst, witness) =
            worst_ratio(&mut *canonical(Entrant::Sa), &model, 5, &battery).unwrap();
        assert!(worst <= model.sa_bound().unwrap() + 1e-9, "worst={worst}");
        assert!(worst >= 1.0);
        assert!(battery.iter().any(|s| s.name == witness), "{witness}");
    }

    #[test]
    fn da_worst_ratio_respects_theorem_2() {
        let model = CostModel::stationary(0.3, 0.8).unwrap();
        let battery = standard_battery(5, 40, 2);
        let (worst, _) = worst_ratio(&mut *canonical(Entrant::Da), &model, 5, &battery).unwrap();
        assert!(worst <= model.da_bound().unwrap() + 1e-9, "worst={worst}");
    }

    #[test]
    fn mobile_sa_shows_huge_ratios() {
        // In MC a read-only battery entry served locally by OPT is free;
        // SA still pays per remote read.
        let model = CostModel::mobile(0.3, 0.8).unwrap();
        let battery = standard_battery(5, 40, 1);
        let (worst, _) = worst_ratio(&mut *canonical(Entrant::Sa), &model, 5, &battery).unwrap();
        assert!(
            worst > 10.0,
            "SA in MC should blow up on the remote-reader battery entry, got {worst}"
        );
    }
}
