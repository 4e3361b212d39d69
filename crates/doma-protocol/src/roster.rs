//! The roster: the seven entrants every harness compares, declared once.
//!
//! The paper's results are comparisons under one deployment (`|Q| = t`,
//! core `F` plus floater `p`), so a tournament cell, a golden scenario
//! digest, a torture seed and a model-checker state count only mean the
//! same thing if every harness stands up *the same* clusters. This module
//! is the one place that knows the entrants' labels, their thresholds,
//! the canonical placement, and which `doma-algorithms` constructor (with
//! which tunables) realizes each of them. Adding, retuning or relabelling
//! an entrant is an edit to this file.

use crate::sim::PlanOracle;
use crate::{ProtocolConfig, ProtocolSim};
use doma_algorithms::{
    ClusteredAllocation, CostOblivious, DynamicAllocation, MobileMirror, SlidingWindowConvergent,
    StaticAllocation, WriteInvalidateCache,
};
use doma_core::{DomaError, ProcSet, ProcessorId, Result};

/// One of the seven allocators the repo compares: the paper's SA and DA,
/// the two promoted ablation baselines, and the three contenders.
/// [`Entrant::as_str`] is the spelling used everywhere a name is written
/// down — scenario files, CLI flags, tournament rows and the obs `algo`
/// metric label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entrant {
    /// Static allocation (read-one-write-all over a fixed scheme).
    Sa,
    /// Dynamic allocation (core + floater).
    Da,
    /// Sliding-window convergent allocation (Wolfson–Jajodia style).
    Convergent,
    /// CDVM-style write-invalidate caching (t = 1).
    WriteInvalidate,
    /// Cost-oblivious reallocation (Bender et al.).
    CostOblivious,
    /// Mobile-resource mirroring (Feldkord et al.).
    MobileMirror,
    /// Clustering-based fragment allocation.
    Clustered,
}

/// The constructor arguments of the adaptive allocators that are not
/// fixed by the deployment (`n`, `t`, initial scheme).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tunables {
    /// [`Entrant::Convergent`]'s sliding-window length, in requests.
    pub window: usize,
    /// [`Entrant::Convergent`]'s re-evaluation period, in requests.
    pub period: usize,
    /// [`Entrant::CostOblivious`]'s reallocation threshold.
    pub threshold: u32,
}

impl Tunables {
    /// The values every harness but the fault torture (which samples
    /// them) runs with.
    pub const CANONICAL: Tunables = Tunables {
        window: 8,
        period: 4,
        threshold: 2,
    };
}

impl Entrant {
    /// Every entrant, in tournament order.
    pub const ALL: [Entrant; 7] = [
        Entrant::Sa,
        Entrant::Da,
        Entrant::Convergent,
        Entrant::WriteInvalidate,
        Entrant::CostOblivious,
        Entrant::MobileMirror,
        Entrant::Clustered,
    ];

    /// The entrant's name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Entrant::Sa => "sa",
            Entrant::Da => "da",
            Entrant::Convergent => "convergent",
            Entrant::WriteInvalidate => "write-invalidate",
            Entrant::CostOblivious => "cost-oblivious",
            Entrant::MobileMirror => "mobile-mirror",
            Entrant::Clustered => "clustered",
        }
    }

    /// Parses a name; the error lists the names that would have parsed.
    pub fn from_name(name: &str) -> std::result::Result<Self, String> {
        Entrant::ALL
            .into_iter()
            .find(|e| e.as_str() == name)
            .ok_or_else(|| {
                format!(
                    "unknown entrant '{name}' (expected one of: {})",
                    Entrant::ALL.map(|e| e.as_str()).join(", ")
                )
            })
    }

    /// The availability threshold the entrant maintains.
    pub fn t(&self) -> usize {
        match self {
            Entrant::WriteInvalidate => 1,
            _ => 2,
        }
    }

    /// What every node runs in the canonical deployment: `Q = {0, 1}` for
    /// SA, `F = {0}` with floater `p = 1` for DA, and the initial scheme
    /// `{0, 1}` for the adaptive entrants.
    pub fn config(&self) -> ProtocolConfig {
        match self {
            Entrant::Sa => ProtocolConfig::Sa {
                q: ProcSet::from_iter([0usize, 1]),
            },
            Entrant::Da => ProtocolConfig::Da {
                f: ProcSet::from_iter([0usize]),
                p: ProcessorId::new(1),
            },
            adaptive => ProtocolConfig::Adaptive {
                t: adaptive.t(),
                initial: ProcSet::from_iter([0usize, 1]),
                algo: *adaptive,
            },
        }
    }

    /// The canonical deployment on `n` simulated nodes.
    pub fn sim(&self, n: usize) -> Result<ProtocolSim> {
        ProtocolSim::deploy(n, self.config(), Tunables::CANONICAL)
    }
}

impl std::fmt::Display for Entrant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ProtocolConfig {
    /// The entrant this configuration deploys.
    pub fn entrant(&self) -> Entrant {
        match self {
            ProtocolConfig::Sa { .. } => Entrant::Sa,
            ProtocolConfig::Da { .. } => Entrant::Da,
            ProtocolConfig::Adaptive { algo, .. } => *algo,
        }
    }

    /// The online algorithm this configuration stands for on an `n`-node
    /// cluster — the analytic twin the cost engine runs (`run_online`)
    /// and, for [`ProtocolConfig::Adaptive`], the driver-side plan
    /// oracle. The only place outside `doma-algorithms` that names the
    /// allocators' constructors.
    pub fn algorithm(&self, n: usize, tunables: Tunables) -> Result<Box<dyn PlanOracle>> {
        Ok(match *self {
            ProtocolConfig::Sa { q } => Box::new(StaticAllocation::new(q)?),
            ProtocolConfig::Da { f, p } => Box::new(DynamicAllocation::new(f, p)?),
            ProtocolConfig::Adaptive { t, initial, algo } => match algo {
                Entrant::Convergent => Box::new(SlidingWindowConvergent::new(
                    n,
                    t,
                    initial,
                    tunables.window,
                    tunables.period,
                )?),
                Entrant::WriteInvalidate => Box::new(WriteInvalidateCache::new(initial)?),
                Entrant::CostOblivious => {
                    Box::new(CostOblivious::new(n, t, initial, tunables.threshold)?)
                }
                Entrant::MobileMirror => Box::new(MobileMirror::new(n, t, initial)?),
                Entrant::Clustered => Box::new(ClusteredAllocation::new(n, t, initial)?),
                Entrant::Sa | Entrant::Da => {
                    return Err(DomaError::InvalidConfig(format!(
                        "{algo} runs its native protocol, not oracle plans"
                    )))
                }
            },
        })
    }

    /// The driver-side plan oracle a cluster running this configuration
    /// needs: [`ProtocolConfig::algorithm`] for adaptive entrants, none
    /// for SA and DA (their nodes decide for themselves).
    pub fn oracle(&self, n: usize, tunables: Tunables) -> Result<Option<Box<dyn PlanOracle>>> {
        match self {
            ProtocolConfig::Adaptive { .. } => self.algorithm(n, tunables).map(Some),
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doma_core::{run_online, Schedule};

    /// The roster's contract, entrant by entrant: the name parses back,
    /// the deployed cluster keeps the declared threshold, every cost
    /// counter is labelled with the declared name, and the protocol's
    /// exact tallies equal the analytic engine's run of the roster's own
    /// algorithm instance.
    #[test]
    fn every_entrant_deploys_as_declared() {
        let n = 5;
        let schedule: Schedule = "r2 r2 w3 r2 r1 w0 r3 w2 r0 r4 w4 r1".parse().unwrap();
        for entrant in Entrant::ALL {
            let name = entrant.as_str();
            assert_eq!(Entrant::from_name(name), Ok(entrant));

            let mut sim = entrant.sim(n).unwrap();
            assert_eq!(sim.config(), &entrant.config(), "{name}");
            assert_eq!(sim.config().entrant(), entrant, "{name}");
            assert_eq!(sim.config().t(), entrant.t(), "{name}");

            let obs = sim.attach_obs(64);
            let report = sim.execute(&schedule).unwrap();
            sim.obs_flush();
            let snap = obs.metrics().snapshot();
            let mut cost_counters = 0;
            for key in snap.metrics.keys() {
                if key.component == "protocol" && key.name.starts_with("cost.") {
                    assert_eq!(key.label("algo"), Some(name), "{key:?}");
                    cost_counters += 1;
                }
            }
            assert!(cost_counters > 0, "{name} tallied no cost");

            let mut algo = entrant.config().algorithm(n, Tunables::CANONICAL).unwrap();
            assert_eq!(algo.t(), entrant.t(), "{name}");
            assert_eq!(
                algo.initial_scheme(),
                sim.config().initial_scheme(),
                "{name}"
            );
            let analytic = run_online(&mut *algo, &schedule).unwrap();
            assert_eq!(report.cost, analytic.costed.total, "{name}");
            assert_eq!(report.final_holders, analytic.costed.final_scheme, "{name}");
        }
        let err = Entrant::from_name("opt").unwrap_err();
        for entrant in Entrant::ALL {
            assert!(err.contains(entrant.as_str()), "{err}");
        }
    }
}
