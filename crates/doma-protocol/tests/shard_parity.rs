//! Shard-parity gate (wired into `scripts/verify.sh`): the object-sharded
//! executor must reproduce sequential [`ProtocolSim::execute_multi`]
//! *exactly* — same total [`doma_core::CostVector`], same per-object final
//! holders, same `reads_completed` (and bit-identical mean latency, since
//! [`doma_protocol::SimReport`] is compared wholesale), and byte-identical
//! obs `protocol.cost.*` registry sums — for every shard count
//! K ∈ {1, 2, 4, 8} under every [`Placement`] policy.
//!
//! A fixed-workload matrix test carries the CI gate; a property test
//! behind it randomizes the cluster shape, the catalog (including
//! non-contiguous object ids, exercising the binary-search slot path) and
//! the schedule, so the gate does not overfit to one workload's traffic
//! pattern. A third property holds the split alone — `partition` and
//! `project` — to a `BTreeMap` reference over contiguous, offset and
//! sparse catalogs. Failures print a `DOMA_PROP_SEED=…` replay line.

use doma_algorithms::multi::Placement;
use doma_algorithms::partition::select_members;
use doma_core::{DomaError, MultiRequest, MultiSchedule, ObjectId, ProcessorId, Request};
use doma_protocol::{registry_cost, ProtocolConfig, ProtocolSim, ShardedSim};
use doma_testkit::property::{self as prop, Gen};
use doma_testkit::TestRng;
use doma_workload::{MultiScheduleGen, MultiUniformWorkload};
use std::collections::BTreeMap;

const PLACEMENTS: [Placement; 3] = [
    Placement::SameCore,
    Placement::RoundRobin,
    Placement::LoadAware,
];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The CI-gated matrix: one realistic workload, every (K, placement) cell.
#[test]
fn sharded_execution_matches_sequential_for_all_k_and_placements() {
    let n = 8;
    let objects = 32;
    let configs: BTreeMap<ObjectId, ProtocolConfig> = (0..objects)
        .map(|o| {
            let base = (o as usize) % (n - 1);
            let config = if o % 2 == 0 {
                ProtocolConfig::Sa {
                    q: [base, base + 1].into_iter().collect(),
                }
            } else {
                ProtocolConfig::Da {
                    f: [base].into_iter().collect(),
                    p: ProcessorId::new(base + 1),
                }
            };
            (ObjectId(o), config)
        })
        .collect();
    let schedule = MultiUniformWorkload::new(objects, n, 0.75)
        .unwrap()
        .generate_multi(2_000, 7);

    let mut sequential = ProtocolSim::new_catalog(n, configs.clone()).unwrap();
    let seq_obs = sequential.attach_obs(1 << 16);
    let expected = sequential.execute_multi(&schedule).unwrap();
    let expected_metrics = seq_obs.metrics().snapshot().to_json();
    let expected_cost_sums = registry_cost(&seq_obs.metrics().snapshot());

    for placement in PLACEMENTS {
        for shards in SHARD_COUNTS {
            let run = ShardedSim::new(n, configs.clone(), shards, placement)
                .unwrap()
                .with_obs(1 << 16)
                .execute_multi(&schedule)
                .unwrap();
            let cell = format!("K={shards}, {placement:?}");
            assert_eq!(run.report, expected, "SimReport diverged at {cell}");
            assert_eq!(
                run.report.reads_completed, expected.reads_completed,
                "reads_completed diverged at {cell}"
            );
            for object in configs.keys() {
                assert_eq!(
                    run.holders.get(object),
                    Some(&sequential.valid_holders_of(*object)),
                    "holders of {object} diverged at {cell}"
                );
            }
            let obs = run.obs.expect("obs requested");
            let merged = obs.metrics().snapshot();
            assert_eq!(
                registry_cost(&merged),
                expected_cost_sums,
                "cost.* sums diverged at {cell}"
            );
            assert_eq!(
                merged.to_json(),
                expected_metrics,
                "metrics registry diverged at {cell}"
            );
        }
    }
}

/// One sampled case: a cluster; a catalog laid out contiguously from 0,
/// contiguously from a non-zero base, or sparsely (the binary-search
/// slot path); an interleaved schedule over it; and an id it lacks.
#[derive(Debug, Clone)]
struct Case {
    n: usize,
    configs: BTreeMap<ObjectId, ProtocolConfig>,
    schedule: MultiSchedule,
    stray: ObjectId,
}

struct CaseGen;

impl Gen for CaseGen {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let n = prop::range(3usize..9).generate(rng);
        let objects = prop::range(1usize..10).generate(rng) as u64;
        let (first, stride) = match prop::range(0u8..3).generate(rng) {
            0 => (0, 1),
            1 => (prop::range(1u64..100).generate(rng), 1),
            _ => (
                prop::range(0u64..100).generate(rng),
                prop::range(2u64..5).generate(rng),
            ),
        };
        let configs: BTreeMap<ObjectId, ProtocolConfig> = (0..objects)
            .map(|o| {
                let base = prop::range(0usize..n - 1).generate(rng);
                let config = if prop::bools().generate(rng) {
                    ProtocolConfig::Sa {
                        q: [base, base + 1].into_iter().collect(),
                    }
                } else {
                    ProtocolConfig::Da {
                        f: [base].into_iter().collect(),
                        p: ProcessorId::new(base + 1),
                    }
                };
                (ObjectId(first + o * stride), config)
            })
            .collect();
        let ids: Vec<ObjectId> = configs.keys().copied().collect();
        let stray = loop {
            let id = ObjectId(prop::range(0..first + objects * stride + 2).generate(rng));
            if !configs.contains_key(&id) {
                break id;
            }
        };
        let len = prop::range(0usize..80).generate(rng);
        let mut schedule = MultiSchedule::default();
        for _ in 0..len {
            let object = ids[prop::range(0usize..ids.len()).generate(rng)];
            let issuer = prop::range(0usize..n).generate(rng);
            let request = if prop::bools().generate(rng) {
                Request::read(issuer)
            } else {
                Request::write(issuer)
            };
            schedule.push(object, request);
        }
        Case {
            n,
            configs,
            schedule,
            stray,
        }
    }

    fn shrink(&self, v: &Case) -> Vec<Case> {
        // Shrink the schedule only; the catalog shape is cheap to keep.
        let requests = v.schedule.requests();
        let mut out = Vec::new();
        if !requests.is_empty() {
            for shorter in [
                requests[..requests.len() / 2].to_vec(),
                requests[1..].to_vec(),
            ] {
                out.push(Case {
                    schedule: MultiSchedule::from_requests(shorter),
                    ..v.clone()
                });
            }
        }
        out
    }
}

doma_testkit::property! {
    #[cases(32)]
    /// Random catalogs and schedules: every (K, placement) cell of the
    /// matrix reproduces the sequential run exactly.
    fn random_catalogs_shard_to_the_same_result(case in CaseGen) {
        let mut sequential = ProtocolSim::new_catalog(case.n, case.configs.clone()).unwrap();
        let expected = sequential.execute_multi(&case.schedule).unwrap();
        for placement in PLACEMENTS {
            for shards in SHARD_COUNTS {
                let run = ShardedSim::new(case.n, case.configs.clone(), shards, placement)
                    .unwrap()
                    .execute_multi(&case.schedule)
                    .unwrap();
                assert_eq!(run.report, expected, "K={shards}, {placement:?}");
                for object in case.configs.keys() {
                    assert_eq!(
                        run.holders.get(object),
                        Some(&sequential.valid_holders_of(*object)),
                        "holders of {object} at K={shards}, {placement:?}"
                    );
                }
            }
        }
    }
}

/// The split's reference: the `BTreeMap`-keyed first-touch loop
/// `ShardedSim::partition` ran before it resolved objects through catalog
/// slots, with the partitioner's map and load tally written out (its
/// creation count is the map's length).
fn reference_partition(
    configs: &BTreeMap<ObjectId, ProtocolConfig>,
    schedule: &MultiSchedule,
    shards: usize,
    placement: Placement,
) -> Result<BTreeMap<ObjectId, usize>, DomaError> {
    let mut assignment = BTreeMap::new();
    let mut load = vec![0u64; shards];
    let assign = |assignment: &mut BTreeMap<ObjectId, usize>, load: &[u64], object| {
        let created = assignment.len();
        *assignment
            .entry(object)
            .or_insert_with(|| select_members(placement, created, shards, 1, load)[0])
    };
    for &MultiRequest { object, .. } in schedule.requests() {
        if !configs.contains_key(&object) {
            return Err(DomaError::InvalidConfig(format!(
                "{object} not in the cluster's catalog"
            )));
        }
        let shard = assign(&mut assignment, &load, object);
        load[shard] += 1;
    }
    for &object in configs.keys() {
        assign(&mut assignment, &load, object);
    }
    Ok(assignment)
}

doma_testkit::property! {
    #[cases(64)]
    /// The slot-table split against its reference, for K ∈ {1, 2, 3, 8}
    /// and every placement: `partition` returns the reference's
    /// assignment; `project` hands every request to its object's shard,
    /// once, in its object's order, with the matching catalog slice; and
    /// an uncatalogued object fails the split with the same message
    /// whether it comes first, midway or last.
    fn the_split_matches_the_btreemap_reference(case in CaseGen) {
        let requests = case.schedule.requests();
        for placement in PLACEMENTS {
            for shards in [1, 2, 3, 8] {
                let cell = format!("K={shards}, {placement:?}");
                let sharded =
                    ShardedSim::new(case.n, case.configs.clone(), shards, placement).unwrap();
                let assignment = sharded.partition(&case.schedule).unwrap();
                let reference = reference_partition(&case.configs, &case.schedule, shards, placement);
                assert_eq!(Ok(&assignment), reference.as_ref(), "assignment at {cell}");

                let inputs = sharded.project(&case.schedule, &assignment);
                assert_eq!(inputs.len(), shards, "shard count at {cell}");
                let mut per_object = BTreeMap::new();
                for (shard, (catalog, sub)) in inputs.iter().enumerate() {
                    let mut slice = case.configs.clone();
                    slice.retain(|object, _| assignment[object] == shard);
                    assert_eq!(catalog, &slice, "catalog of shard {shard} at {cell}");
                    for request in sub.requests() {
                        assert_eq!(assignment[&request.object], shard, "{request:?} at {cell}");
                    }
                    per_object.extend(sub.per_object());
                }
                let total: usize = inputs.iter().map(|(_, sub)| sub.len()).sum();
                assert_eq!(total, requests.len(), "request count at {cell}");
                assert_eq!(per_object, case.schedule.per_object(), "per-object order at {cell}");

                let stray = MultiRequest { object: case.stray, request: Request::read(0usize) };
                let message = format!("{} not in the cluster's catalog", case.stray);
                let expected = Err(DomaError::InvalidConfig(message));
                for at in [0, requests.len() / 2, requests.len()] {
                    let mut with_stray = requests.to_vec();
                    with_stray.insert(at, stray);
                    let with_stray = MultiSchedule::from_requests(with_stray);
                    let reference = reference_partition(&case.configs, &with_stray, shards, placement);
                    assert_eq!(reference, expected, "reference, stray at {at}");
                    assert_eq!(sharded.partition(&with_stray), expected, "stray at {at}, {cell}");
                }
            }
        }
    }
}
