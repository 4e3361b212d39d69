//! The `(cd, cc)` plane partitions of Figures 1 and 2.
//!
//! The paper's analytic boundaries (stationary computing):
//!
//! * `cc > cd` — **Cannot be true**: a data message carries the control
//!   fields plus the object, so it cannot be cheaper.
//! * `cd > 1` — **DA superior**: SA's tight factor `1 + cc + cd` exceeds
//!   DA's `2 + cc` bound (Theorem 3 vs Proposition 1).
//! * `cc + cd < 0.5` — **SA superior**: SA's factor `1 + cc + cd < 1.5`
//!   beats DA's 1.5 lower bound (Theorem 1 vs Proposition 2).
//! * otherwise — **Unknown** (the gap between DA's bounds).
//!
//! In mobile computing (Figure 2) DA is superior on the entire feasible
//! half-plane, because SA is not competitive at all (Proposition 3).
//!
//! [`empirical_region_map`] re-derives the winner at each grid point by
//! *measurement*: worst-case ratio of SA and of DA over the standard
//! battery against the exact offline optimum.

use crate::battery::{standard_battery, worst_ratio, NamedSchedule};
use doma_core::{CostModel, Environment, Result};
use doma_protocol::{Entrant, Tunables};
use std::fmt;

/// A cell of the region map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// `cc > cd` — excluded by the message-cost argument.
    CannotBeTrue,
    /// DA provably (or measurably) beats SA.
    DaSuperior,
    /// SA provably (or measurably) beats DA.
    SaSuperior,
    /// The paper's open gap.
    Unknown,
}

impl Region {
    /// The single-character glyph used in the ASCII map.
    pub fn glyph(self) -> char {
        match self {
            Region::CannotBeTrue => 'x',
            Region::DaSuperior => 'D',
            Region::SaSuperior => 'S',
            Region::Unknown => '?',
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::CannotBeTrue => "cannot-be-true",
            Region::DaSuperior => "DA-superior",
            Region::SaSuperior => "SA-superior",
            Region::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

/// The paper's analytic classification of a `(cc, cd)` point.
pub fn analytic_region(env: Environment, cc: f64, cd: f64) -> Region {
    if cc > cd {
        return Region::CannotBeTrue;
    }
    match env {
        Environment::Stationary => {
            if cd > 1.0 {
                Region::DaSuperior
            } else if cc + cd < 0.5 {
                Region::SaSuperior
            } else {
                Region::Unknown
            }
        }
        Environment::Mobile => Region::DaSuperior,
    }
}

/// One measured grid point.
#[derive(Debug, Clone)]
pub struct RegionPoint {
    /// Control-message cost.
    pub cc: f64,
    /// Data-message cost.
    pub cd: f64,
    /// SA's worst measured ratio over the battery.
    pub sa_worst: f64,
    /// DA's worst measured ratio over the battery.
    pub da_worst: f64,
    /// The measured winner (lower worst-case ratio).
    pub measured: Region,
    /// The paper's analytic classification.
    pub analytic: Region,
}

/// A measured region map over a `(cd, cc)` grid.
#[derive(Debug, Clone)]
pub struct RegionMap {
    /// Which cost model family the map is for.
    pub env: Environment,
    /// Distinct `cd` values, ascending (columns).
    pub cd_values: Vec<f64>,
    /// Distinct `cc` values, ascending (rows).
    pub cc_values: Vec<f64>,
    /// Row-major `cc × cd` grid of measured points.
    pub points: Vec<RegionPoint>,
}

/// Configuration of the measured map.
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// System size (≥ 4; the standard battery's conventions).
    pub n: usize,
    /// Grid step on both axes.
    pub step: f64,
    /// Axis maximum (the paper's figures show `(0, 2]`).
    pub max: f64,
    /// Battery schedule length.
    pub schedule_len: usize,
    /// Battery random-seed count.
    pub seeds: u64,
}

/// Measures the winner at each feasible grid point (the `cc > cd` half is
/// marked [`Region::CannotBeTrue`] without measurement — those models are
/// unconstructible by [`CostModel`]'s invariant).
pub fn empirical_region_map(env: Environment, config: &RegionConfig) -> Result<RegionMap> {
    let battery = standard_battery(config.n, config.schedule_len, config.seeds);
    let steps = (config.max / config.step).round() as usize;
    let values: Vec<f64> = (1..=steps).map(|i| i as f64 * config.step).collect();
    let mut points = Vec::with_capacity(values.len() * values.len());
    for &cc in &values {
        for &cd in &values {
            points.push(measure_point(env, cc, cd, config.n, &battery)?);
        }
    }
    Ok(RegionMap {
        env,
        cd_values: values.clone(),
        cc_values: values,
        points,
    })
}

fn measure_point(
    env: Environment,
    cc: f64,
    cd: f64,
    n: usize,
    battery: &[NamedSchedule],
) -> Result<RegionPoint> {
    let analytic = analytic_region(env, cc, cd);
    if analytic == Region::CannotBeTrue {
        return Ok(RegionPoint {
            cc,
            cd,
            sa_worst: f64::NAN,
            da_worst: f64::NAN,
            measured: Region::CannotBeTrue,
            analytic,
        });
    }
    let model = match env {
        Environment::Stationary => CostModel::stationary(cc, cd),
        Environment::Mobile => CostModel::mobile(cc, cd),
    }
    .expect("cc <= cd on the feasible half");
    let mut sa = Entrant::Sa.config().algorithm(n, Tunables::CANONICAL)?;
    let mut da = Entrant::Da.config().algorithm(n, Tunables::CANONICAL)?;
    let (sa_worst, _) = worst_ratio(&mut *sa, &model, n, battery)?;
    let (da_worst, _) = worst_ratio(&mut *da, &model, n, battery)?;
    // Winner by worst-case ratio, with a 2% dead-band reported as Unknown.
    let measured = if !sa_worst.is_finite() && !da_worst.is_finite() {
        Region::Unknown
    } else if sa_worst > 1.02 * da_worst {
        Region::DaSuperior
    } else if da_worst > 1.02 * sa_worst {
        Region::SaSuperior
    } else {
        Region::Unknown
    };
    Ok(RegionPoint {
        cc,
        cd,
        sa_worst,
        da_worst,
        measured,
        analytic,
    })
}

impl RegionMap {
    /// The point at `(cc_index, cd_index)`.
    pub fn point(&self, cc_index: usize, cd_index: usize) -> &RegionPoint {
        &self.points[cc_index * self.cd_values.len() + cd_index]
    }

    /// Renders the map like the paper's figures: `cc` on the vertical
    /// axis (top = high), `cd` on the horizontal (each grid value printed
    /// exactly, so `0.25` is not rounded to `0.2`), one glyph per cell
    /// (`D` = DA superior, `S` = SA superior, `?` = unknown, `x` = cannot
    /// be true). `analytic = true` renders the paper's boundaries instead
    /// of the measured winners.
    pub fn render(&self, analytic: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{} region map ({}): cc vertical, cd horizontal\n",
            if analytic { "Analytic" } else { "Measured" },
            self.env
        ));
        for (i, &cc) in self.cc_values.iter().enumerate().rev() {
            out.push_str(&format!("cc={cc:4.2} |"));
            for j in 0..self.cd_values.len() {
                let p = self.point(i, j);
                let r = if analytic { p.analytic } else { p.measured };
                out.push(' ');
                out.push(r.glyph());
            }
            out.push('\n');
        }
        out.push_str("        +");
        for _ in &self.cd_values {
            out.push_str("--");
        }
        out.push('\n');
        out.push_str("          ");
        out.push_str(
            &self
                .cd_values
                .iter()
                .map(|v| format!("{v:?}"))
                .collect::<Vec<_>>()
                .join(" "),
        );
        out.push('\n');
        out
    }

    /// Fraction of feasible (not cannot-be-true) points where the measured
    /// winner is consistent with the paper: in an analytic `D` or `S`
    /// region the measurement must not name the *other* algorithm
    /// (measured `Unknown` counts as consistent — a finite battery can
    /// fail to separate them); in the analytic `Unknown` region everything
    /// is consistent.
    pub fn agreement_with_paper(&self) -> f64 {
        let mut feasible = 0usize;
        let mut consistent = 0usize;
        for p in &self.points {
            if p.analytic == Region::CannotBeTrue {
                continue;
            }
            feasible += 1;
            let ok = match p.analytic {
                Region::DaSuperior => p.measured != Region::SaSuperior,
                Region::SaSuperior => p.measured != Region::DaSuperior,
                _ => true,
            };
            if ok {
                consistent += 1;
            }
        }
        consistent as f64 / feasible.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_boundaries_match_figure_1() {
        let sc = Environment::Stationary;
        assert_eq!(analytic_region(sc, 1.5, 1.0), Region::CannotBeTrue);
        assert_eq!(analytic_region(sc, 0.5, 1.5), Region::DaSuperior);
        assert_eq!(analytic_region(sc, 0.1, 0.2), Region::SaSuperior);
        assert_eq!(analytic_region(sc, 0.3, 0.9), Region::Unknown);
        // Boundary cases: cd exactly 1 and cc + cd exactly 0.5 are Unknown.
        assert_eq!(analytic_region(sc, 0.25, 1.0), Region::Unknown);
        assert_eq!(analytic_region(sc, 0.25, 0.25), Region::Unknown);
    }

    #[test]
    fn analytic_boundaries_match_figure_2() {
        let mc = Environment::Mobile;
        assert_eq!(analytic_region(mc, 1.5, 1.0), Region::CannotBeTrue);
        assert_eq!(analytic_region(mc, 0.1, 0.2), Region::DaSuperior);
        assert_eq!(analytic_region(mc, 1.0, 2.0), Region::DaSuperior);
    }

    #[test]
    fn small_measured_map_is_consistent_with_paper() {
        let config = RegionConfig {
            n: 5,
            step: 0.5,
            max: 2.0,
            schedule_len: 24,
            seeds: 1,
        };
        let map = empirical_region_map(Environment::Stationary, &config).unwrap();
        assert_eq!(map.points.len(), 16);
        assert!(
            map.agreement_with_paper() >= 0.9,
            "agreement {} too low",
            map.agreement_with_paper()
        );
        let art = map.render(false);
        assert!(art.contains("cc=2.00"));
        let art_analytic = map.render(true);
        assert!(art_analytic.contains('x'), "{art_analytic}");
    }

    #[test]
    fn mobile_map_names_da_everywhere_feasible() {
        let config = RegionConfig {
            n: 5,
            step: 1.0,
            max: 2.0,
            schedule_len: 24,
            seeds: 1,
        };
        let map = empirical_region_map(Environment::Mobile, &config).unwrap();
        for p in &map.points {
            if p.analytic != Region::CannotBeTrue {
                assert_ne!(
                    p.measured,
                    Region::SaSuperior,
                    "SA cannot win in MC at cc={}, cd={}",
                    p.cc,
                    p.cd
                );
            }
        }
    }

    #[test]
    fn glyphs_and_display() {
        assert_eq!(Region::DaSuperior.glyph(), 'D');
        assert_eq!(Region::SaSuperior.to_string(), "SA-superior");
    }
}
