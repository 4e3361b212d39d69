//! The three pinned workloads: a catalog, a cluster size and a seeded
//! schedule generator each. The program under test receives only the
//! generated schedule.

use doma_core::{MultiSchedule, ObjectId, ProcSet, ProcessorId};
use doma_protocol::ProtocolConfig;
use doma_workload::{AppendOnlyWorkload, MultiScheduleGen, MultiUniformWorkload, ScheduleGen};
use std::collections::BTreeMap;

/// The object catalog a cluster serves.
pub type Catalog = BTreeMap<ObjectId, ProtocolConfig>;

/// One workload of the benchmark.
pub struct Workload {
    /// The name `--workload` takes.
    pub name: &'static str,
    /// Cluster size.
    pub n: usize,
    /// The object catalog.
    pub catalog: Catalog,
    generate: fn(usize, u64) -> MultiSchedule,
}

/// Every workload name, in the order `--smoke` runs them.
pub const NAMES: [&str; 3] = ["mix64", "mix64w", "append62"];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        let (name, n, catalog, generate): (_, _, _, fn(usize, u64) -> MultiSchedule) = match name {
            "mix64" => (NAMES[0], 8, mix_catalog(), |len, seed| mix(0.8, len, seed)),
            "mix64w" => (NAMES[1], 8, mix_catalog(), |len, seed| mix(0.2, len, seed)),
            "append62" => (NAMES[2], 6, append_catalog(), append),
            _ => return None,
        };
        Some(Workload {
            name,
            n,
            catalog,
            generate,
        })
    }

    /// The schedule for `seed`: the same seed gives the same requests.
    pub fn generate(&self, len: usize, seed: u64) -> MultiSchedule {
        (self.generate)(len, seed)
    }
}

const MIX_NODES: usize = 8;
const MIX_OBJECTS: u64 = 64;

/// The `shard_prof` catalog: 64 objects alternating SA `q = {b, b+1}` and
/// DA `f = {b}, p = b+1` with `b = o mod 7`, on 8 nodes.
fn mix_catalog() -> Catalog {
    (0..MIX_OBJECTS)
        .map(|o| {
            let base = (o as usize) % (MIX_NODES - 1);
            let config = if o % 2 == 0 {
                ProtocolConfig::Sa {
                    q: ProcSet::from_iter([base, base + 1]),
                }
            } else {
                ProtocolConfig::Da {
                    f: ProcSet::from_iter([base]),
                    p: ProcessorId::new(base + 1),
                }
            };
            (ObjectId(o), config)
        })
        .collect()
}

fn mix(read_fraction: f64, len: usize, seed: u64) -> MultiSchedule {
    MultiUniformWorkload::new(MIX_OBJECTS, MIX_NODES, read_fraction)
        .expect("pinned parameters are valid")
        .generate_multi(len, seed)
}

/// The §6.2 stream: one object under DA with core `{0}` and floater 1.
fn append_catalog() -> Catalog {
    let config = ProtocolConfig::Da {
        f: ProcSet::from_iter([0usize]),
        p: ProcessorId::new(1),
    };
    BTreeMap::from([(ObjectId(0), config)])
}

fn append(len: usize, seed: u64) -> MultiSchedule {
    let single = AppendOnlyWorkload::new(6, 2, 3.0)
        .expect("pinned parameters are valid")
        .generate(len, seed);
    let mut lifted = MultiSchedule::default();
    for request in single.iter() {
        lifted.push(ObjectId(0), request);
    }
    lifted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_is_seeded() {
        for name in NAMES {
            let w = Workload::by_name(name).expect("known workload");
            assert_eq!(w.name, name);
            let a = w.generate(500, 7);
            assert_eq!(a.len(), 500);
            assert_eq!(a, w.generate(500, 7), "{name}: same seed, same inputs");
            assert_ne!(a, w.generate(500, 8), "{name}: another seed differs");
            for r in a.requests() {
                assert!(w.catalog.contains_key(&r.object));
                assert!(r.request.issuer.index() < w.n);
            }
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
