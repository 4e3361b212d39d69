//! Average-case parameter sweeps (experiment E9), parallelized with
//! `std::thread::scope`.

use doma_algorithms::baselines::SlidingWindowConvergent;
use doma_core::{run_online, CostModel, OnlineDom, Result};
use doma_protocol::{Entrant, Tunables};
use doma_workload::{ScheduleGen, UniformWorkload};

/// Mean cost-per-request of SA, DA and the convergent baseline at one
/// read-fraction point, averaged over several seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The read fraction of the workload.
    pub read_fraction: f64,
    /// SA mean cost per request.
    pub sa: f64,
    /// DA mean cost per request.
    pub da: f64,
    /// Convergent-baseline mean cost per request.
    pub convergent: f64,
}

/// Configuration of the read/write-mix sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// System size.
    pub n: usize,
    /// Schedule length per sample.
    pub len: usize,
    /// Seeds averaged per point.
    pub seeds: u64,
    /// The cost model.
    pub model: CostModel,
    /// Read fractions to sweep.
    pub read_fractions: Vec<f64>,
}

impl SweepConfig {
    /// The default E9 sweep: 5 processors, 200-request schedules,
    /// 8 seeds, read fractions 0.05 .. 0.95.
    pub fn default_for(model: CostModel) -> Self {
        SweepConfig {
            n: 5,
            len: 200,
            seeds: 8,
            model,
            read_fractions: (1..20).map(|i| i as f64 * 0.05).collect(),
        }
    }
}

fn mean_cost_per_request<A: OnlineDom + ?Sized>(
    algo: &mut A,
    model: &CostModel,
    gen: &UniformWorkload,
    len: usize,
    seeds: u64,
) -> Result<f64> {
    let mut total = 0.0;
    for seed in 0..seeds {
        let schedule = gen.generate(len, seed);
        total += run_online(algo, &schedule)?.costed.total_cost(model);
    }
    Ok(total / (seeds as f64 * len as f64))
}

fn sweep_point(config: &SweepConfig, read_fraction: f64) -> Result<SweepPoint> {
    let gen = UniformWorkload::new(config.n, read_fraction)?;
    let mut sa = Entrant::Sa
        .config()
        .algorithm(config.n, Tunables::CANONICAL)?;
    let mut da = Entrant::Da
        .config()
        .algorithm(config.n, Tunables::CANONICAL)?;
    let init = sa.initial_scheme();
    let mut conv = SlidingWindowConvergent::new(config.n, 2, init, 40, 20)?;
    Ok(SweepPoint {
        read_fraction,
        sa: mean_cost_per_request(&mut *sa, &config.model, &gen, config.len, config.seeds)?,
        da: mean_cost_per_request(&mut *da, &config.model, &gen, config.len, config.seeds)?,
        convergent: mean_cost_per_request(
            &mut conv,
            &config.model,
            &gen,
            config.len,
            config.seeds,
        )?,
    })
}

/// Runs the sweep, one thread per point (`std::thread::scope` — the
/// points are independent, and the scope joins and propagates panics).
#[expect(
    clippy::disallowed_methods,
    reason = "independent points, each result written to its own slot"
)]
pub fn read_write_mix_sweep(config: &SweepConfig) -> Result<Vec<SweepPoint>> {
    let mut results: Vec<Option<Result<SweepPoint>>> =
        (0..config.read_fractions.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, &rf) in results.iter_mut().zip(&config.read_fractions) {
            scope.spawn(move || {
                *slot = Some(sweep_point(config, rf));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect()
}

/// The read fraction above which DA's mean cost drops below SA's, if the
/// sweep crosses (linear scan; the curves are monotone enough in practice).
pub fn da_crossover(points: &[SweepPoint]) -> Option<f64> {
    points.iter().find(|p| p.da < p.sa).map(|p| p.read_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SweepConfig {
        SweepConfig {
            n: 5,
            len: 120,
            seeds: 3,
            model: CostModel::stationary(0.25, 1.0).unwrap(),
            read_fractions: vec![0.1, 0.5, 0.9],
        }
    }

    #[test]
    fn sweep_produces_one_point_per_fraction() {
        let points = read_write_mix_sweep(&quick_config()).unwrap();
        assert_eq!(points.len(), 3);
        assert!((points[0].read_fraction - 0.1).abs() < 1e-12);
        for p in &points {
            assert!(p.sa > 0.0 && p.da > 0.0 && p.convergent > 0.0);
        }
    }

    #[test]
    fn da_wins_read_heavy_uniform_workloads() {
        // With reads spread over 5 processors and Q = {0,1}, most reads
        // are remote for SA; DA's saving-reads amortize them.
        let points = read_write_mix_sweep(&quick_config()).unwrap();
        let read_heavy = points.last().unwrap();
        assert!(
            read_heavy.da < read_heavy.sa,
            "DA ({}) should beat SA ({}) at 90% reads",
            read_heavy.da,
            read_heavy.sa
        );
    }

    #[test]
    fn crossover_detection() {
        let pts = vec![
            SweepPoint {
                read_fraction: 0.1,
                sa: 1.0,
                da: 2.0,
                convergent: 1.5,
            },
            SweepPoint {
                read_fraction: 0.5,
                sa: 1.0,
                da: 0.9,
                convergent: 1.5,
            },
        ];
        assert_eq!(da_crossover(&pts), Some(0.5));
        assert_eq!(da_crossover(&pts[..1]), None);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = read_write_mix_sweep(&quick_config()).unwrap();
        let b = read_write_mix_sweep(&quick_config()).unwrap();
        assert_eq!(a, b);
    }
}
