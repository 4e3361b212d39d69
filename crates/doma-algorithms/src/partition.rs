//! Placement over a pool: the one member-selection kernel, and the shard
//! picker built on it.
//!
//! Two problems share the shape "the k-th distinct object picks `take`
//! members from a pool of `pool` slots, optionally steered by a running
//! load tally", so the three [`Placement`] policies are implemented once,
//! in [`select_members`]:
//!
//! * E18's first-touch walk (`doma_analysis::experiments::run_placement`)
//!   places each object's DA core (`take = t`) on processors, steered by
//!   the requests routed to each core processor so far;
//! * [`ShardPartitioner`] places each object on one of K worker shards
//!   (`take = 1`) for the sharded protocol executor, steered by the
//!   requests routed to each shard so far.
//!
//! Both steer `LoadAware` by the same signal, so the repo has one
//! definition of it.

use crate::multi::Placement;
use doma_core::{DomaError, Result};

/// Selects `take` members out of `pool` slots for the `created`-th
/// distinct object under a placement policy. `load` is the caller's
/// running load attribution per slot (only consulted by
/// [`Placement::LoadAware`]; missing entries count as zero).
///
/// Its `RoundRobin` stride is `take - 1` (an
/// object's core size) so consecutive cores tile the pool, degrading to
/// stride 1 when `take == 1` (the shard-assignment case).
pub fn select_members(
    placement: Placement,
    created: usize,
    pool: usize,
    take: usize,
    load: &[u64],
) -> Vec<usize> {
    match placement {
        Placement::SameCore => (0..take).collect(),
        Placement::RoundRobin => {
            let stride = take.saturating_sub(1).max(1);
            let start = (created * stride) % pool;
            (0..take).map(|i| (start + i) % pool).collect()
        }
        Placement::LoadAware => {
            let mut order: Vec<usize> = (0..pool).collect();
            order.sort_by_key(|&i| (load.get(i).copied().unwrap_or(0), i));
            order.truncate(take);
            order
        }
    }
}

/// Picks a shard out of `k` for each newly touched object, through
/// [`select_members`] with `take = 1`: `SameCore` sends every object to
/// shard 0 (the degenerate serial partition), `RoundRobin` tiles objects
/// over shards in the order they are first touched, `LoadAware` sends
/// each new object to the shard with the least load attributed so far.
///
/// The partitioner does not remember which object went where: the caller
/// asks once per object, on its first touch, and keeps the answer.
#[derive(Debug, Clone)]
pub struct ShardPartitioner {
    placement: Placement,
    shards: usize,
    load: Vec<u64>,
    created: usize,
}

impl ShardPartitioner {
    /// A partitioner over `shards` shards (at least one).
    pub fn new(shards: usize, placement: Placement) -> Result<Self> {
        if shards == 0 {
            return Err(DomaError::InvalidConfig("need at least one shard".into()));
        }
        Ok(ShardPartitioner {
            placement,
            shards,
            load: vec![0; shards],
            created: 0,
        })
    }

    /// The shard of the next newly touched object.
    pub fn assign(&mut self) -> usize {
        let members = select_members(self.placement, self.created, self.shards, 1, &self.load);
        self.created += 1;
        members.first().copied().unwrap_or(0)
    }

    /// Attributes `weight` units of load to `shard` (drives `LoadAware`).
    pub fn attribute(&mut self, shard: usize, weight: u64) {
        if let Some(slot) = self.load.get_mut(shard) {
            *slot += weight;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_matches_the_analytic_placement_rules() {
        // Core selection (pool = n, take = t) reproduces the documented
        // per-policy rules.
        assert_eq!(select_members(Placement::SameCore, 7, 8, 3, &[]), [0, 1, 2]);
        // RoundRobin: start = created * (t-1) mod n.
        assert_eq!(
            select_members(Placement::RoundRobin, 3, 8, 3, &[]),
            [6, 7, 0]
        );
        // LoadAware: least-loaded first, ties by index.
        let load = [5, 0, 3, 0];
        assert_eq!(select_members(Placement::LoadAware, 0, 4, 2, &load), [1, 3]);
    }

    #[test]
    fn kernel_degenerates_to_round_robin_shards_at_take_one() {
        for created in 0..6 {
            assert_eq!(
                select_members(Placement::RoundRobin, created, 4, 1, &[]),
                [created % 4]
            );
        }
    }

    #[test]
    fn zero_shards_rejected() {
        assert!(ShardPartitioner::new(0, Placement::SameCore).is_err());
    }
}
