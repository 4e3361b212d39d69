//! Empirical competitive-ratio measurement against the exact offline
//! optimum.

use crate::battery::NamedSchedule;
use doma_algorithms::OfflineOptimal;
use doma_core::{run_online, CostModel, OnlineDom, Result, Schedule};

/// One algorithm-vs-OPT measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RatioPoint {
    /// The online algorithm's cost.
    pub algo_cost: f64,
    /// The offline optimum's cost.
    pub opt_cost: f64,
    /// `algo_cost / opt_cost` (`f64::INFINITY` when OPT is free but the
    /// algorithm paid — possible in the mobile model; `1.0` when both are
    /// free).
    pub ratio: f64,
}

/// Measures one schedule.
pub fn measure<A: OnlineDom + ?Sized>(
    algo: &mut A,
    opt: &OfflineOptimal,
    model: &CostModel,
    schedule: &Schedule,
) -> Result<RatioPoint> {
    let algo_cost = run_online(algo, schedule)?.costed.total_cost(model);
    let opt_cost = opt.optimal_cost(schedule)?;
    let ratio = if opt_cost > 0.0 {
        algo_cost / opt_cost
    } else if algo_cost > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    Ok(RatioPoint {
        algo_cost,
        opt_cost,
        ratio,
    })
}

/// Worst and mean ratio over a battery.
#[derive(Debug, Clone)]
pub struct RatioSummary {
    /// The largest ratio observed.
    pub worst: f64,
    /// The name of the battery schedule achieving it.
    pub worst_witness: String,
    /// The arithmetic mean ratio (infinite points excluded; `mean_finite`
    /// is `NaN` only if every point was infinite).
    pub mean_finite: f64,
    /// How many schedules were measured.
    pub measured: usize,
    /// How many had an infinite ratio.
    pub infinite: usize,
}

/// Runs an algorithm over a whole battery and summarizes.
pub fn summarize<A: OnlineDom + ?Sized>(
    algo: &mut A,
    model: &CostModel,
    n: usize,
    battery: &[NamedSchedule],
) -> Result<RatioSummary> {
    let opt = OfflineOptimal::new(n, algo.t(), algo.initial_scheme(), *model)?;
    let mut worst = f64::NEG_INFINITY;
    let mut worst_witness = String::new();
    let mut finite_sum = 0.0;
    let mut finite_count = 0usize;
    let mut infinite = 0usize;
    for named in battery {
        let point = measure(algo, &opt, model, &named.schedule)?;
        if point.ratio > worst {
            worst = point.ratio;
            worst_witness = named.name.clone();
        }
        if point.ratio.is_finite() {
            finite_sum += point.ratio;
            finite_count += 1;
        } else {
            infinite += 1;
        }
    }
    Ok(RatioSummary {
        worst,
        worst_witness,
        mean_finite: finite_sum / finite_count.max(1) as f64,
        measured: battery.len(),
        infinite,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::battery::standard_battery;
    use doma_protocol::{Entrant, Tunables};

    #[test]
    fn sa_summary_respects_theorem_1() {
        let model = CostModel::stationary(0.3, 0.8).unwrap();
        let battery = standard_battery(5, 40, 2);
        let mut sa = Entrant::Sa
            .config()
            .algorithm(5, Tunables::CANONICAL)
            .unwrap();
        let s = summarize(&mut *sa, &model, 5, &battery).unwrap();
        assert!(
            s.worst <= model.sa_bound().unwrap() + 1e-9,
            "worst={}",
            s.worst
        );
        assert!(s.worst >= 1.0);
        assert!(s.mean_finite >= 1.0 && s.mean_finite <= s.worst);
        assert_eq!(s.infinite, 0);
        assert_eq!(s.measured, battery.len());
        assert!(!s.worst_witness.is_empty());
    }

    #[test]
    fn da_summary_respects_theorem_2() {
        let model = CostModel::stationary(0.3, 0.8).unwrap();
        let battery = standard_battery(5, 40, 2);
        let mut da = Entrant::Da
            .config()
            .algorithm(5, Tunables::CANONICAL)
            .unwrap();
        let s = summarize(&mut *da, &model, 5, &battery).unwrap();
        assert!(
            s.worst <= model.da_bound().unwrap() + 1e-9,
            "worst={}",
            s.worst
        );
    }

    #[test]
    fn mobile_sa_shows_infinite_or_huge_ratios() {
        // In MC a read-only battery entry served locally by OPT is free;
        // SA still pays per remote read.
        let model = CostModel::mobile(0.3, 0.8).unwrap();
        let battery = standard_battery(5, 40, 1);
        let mut sa = Entrant::Sa
            .config()
            .algorithm(5, Tunables::CANONICAL)
            .unwrap();
        let s = summarize(&mut *sa, &model, 5, &battery).unwrap();
        assert!(
            s.worst > 10.0,
            "SA in MC should blow up on the remote-reader battery entry, got {}",
            s.worst
        );
    }

    #[test]
    fn ratio_of_identical_costs_is_one() {
        // A schedule of local reads by a member is optimal for SA itself.
        let model = CostModel::stationary(0.3, 0.8).unwrap();
        let mut sa = Entrant::Sa
            .config()
            .algorithm(4, Tunables::CANONICAL)
            .unwrap();
        let opt = OfflineOptimal::new(4, 2, sa.initial_scheme(), model).unwrap();
        let schedule: Schedule = "r0 r1 r0".parse().unwrap();
        let p = measure(&mut *sa, &opt, &model, &schedule).unwrap();
        assert!((p.ratio - 1.0).abs() < 1e-9);
    }
}
