//! Property test (satellite of the scenario-engine PR): for randomly
//! generated *valid* scenarios, `Scenario::parse(s.to_toml()) == s`, and
//! serialization is idempotent (`to_toml` of the reparse is byte-equal).
//!
//! Floats are drawn from a sixteenths grid so Rust's shortest-roundtrip
//! `Display` output re-parses to the identical bit pattern; whole-valued
//! floats print as integers and rely on the parser's int→float coercion,
//! which is exactly the corner this test exists to pin down.
//!
//! Failures print a `DOMA_PROP_SEED=…` replay line via the testkit
//! harness.

use doma_core::CostModel;
use doma_scenario::{Entrant, Expect, Phase, Scenario, WorkloadSpec};
use doma_sim::{FaultAction, FaultRule, LinkFilter, MsgKind, NodeId, Partition};
use doma_testkit::property::{self as prop, Gen};
use doma_testkit::TestRng;

/// A float on the sixteenths grid in `(0, 1]` (never 0 so it can serve
/// as `cc`/`cd`/`probability` too).
fn frac(rng: &mut TestRng) -> f64 {
    prop::range(1u64..17).generate(rng) as f64 / 16.0
}

fn workload(rng: &mut TestRng, n: usize) -> WorkloadSpec {
    match prop::range(0usize..7).generate(rng) {
        0 => WorkloadSpec::Uniform {
            read_fraction: frac(rng),
        },
        1 => WorkloadSpec::Zipf {
            theta: frac(rng) * 2.0,
            read_fraction: frac(rng),
        },
        2 => WorkloadSpec::Hotspot {
            phase_len: prop::range(1usize..12).generate(rng),
            hot_prob: frac(rng),
        },
        3 => WorkloadSpec::Chaotic {
            redraw_every: prop::range(1usize..10).generate(rng),
        },
        4 => WorkloadSpec::Mobile {
            cells: prop::range(1usize..3).generate(rng),
            callers: prop::range(1usize..3).generate(rng),
            move_prob: frac(rng),
            read_fraction: frac(rng),
        },
        5 => WorkloadSpec::AppendOnly {
            generators: prop::range(1usize..n + 1).generate(rng),
            reads_per_write: frac(rng) * 4.0,
        },
        _ => {
            let len = prop::range(1usize..10).generate(rng);
            let tokens: Vec<String> = (0..len)
                .map(|_| {
                    let p = prop::range(0usize..n).generate(rng);
                    if prop::bools().generate(rng) {
                        format!("r{p}")
                    } else {
                        format!("w{p}")
                    }
                })
                .collect();
            WorkloadSpec::Trace {
                text: tokens.join(" "),
            }
        }
    }
}

/// Draws one `[[fault]]`: a message-fault rule or a single-node
/// partition, pushed onto the matching list.
fn fault(rng: &mut TestRng, n: usize, rules: &mut Vec<FaultRule>, partitions: &mut Vec<Partition>) {
    let kind = prop::range(0usize..5).generate(rng);
    let window = |rng: &mut TestRng| {
        let start = prop::range(0u64..20).generate(rng);
        let span = prop::range(1u64..40).generate(rng);
        (start, start + span)
    };
    if kind == 4 {
        partitions.push(Partition {
            window: window(rng),
            side: vec![prop::range(0usize..n).generate(rng)],
        });
        return;
    }
    let window = if prop::bools().generate(rng) {
        window(rng)
    } else {
        (0, u64::MAX)
    };
    let node = |rng: &mut TestRng| {
        prop::bools()
            .generate(rng)
            .then(|| NodeId(prop::range(0usize..n).generate(rng)))
    };
    // Fields are drawn in the order written (a struct literal evaluates
    // top to bottom).
    rules.push(FaultRule {
        window,
        filter: LinkFilter {
            from: node(rng),
            to: node(rng),
            kind: match prop::range(0usize..3).generate(rng) {
                0 => None,
                1 => Some(MsgKind::Control),
                _ => Some(MsgKind::Data),
            },
        },
        probability: frac(rng),
        budget: prop::bools()
            .generate(rng)
            .then(|| prop::range(1u64..16).generate(rng)),
        action: match kind {
            0 => FaultAction::Drop,
            1 => FaultAction::Delay(prop::range(1u64..8).generate(rng)),
            2 => FaultAction::Duplicate(prop::range(1u64..8).generate(rng)),
            _ => FaultAction::Jitter {
                max: prop::range(1u64..8).generate(rng),
            },
        },
    });
}

struct ScenarioGen;

impl Gen for ScenarioGen {
    type Value = Scenario;

    fn generate(&self, rng: &mut TestRng) -> Scenario {
        // Mobile phases need `1 + cells + callers <= n`; the generator
        // caps cells/callers at 2 each, so n >= 6 keeps everything legal.
        let n = prop::range(6usize..13).generate(rng);
        let entrant = Entrant::ALL[prop::range(0usize..Entrant::ALL.len()).generate(rng)];
        let phases = (0..prop::range(1usize..4).generate(rng))
            .map(|i| {
                let w = workload(rng, n);
                let len = if matches!(w, WorkloadSpec::Trace { .. }) {
                    0
                } else {
                    prop::range(1usize..24).generate(rng)
                };
                Phase {
                    name: format!("phase-{i}"),
                    len,
                    workload: w,
                }
            })
            .collect();
        let (mut faults, mut partitions) = (Vec::new(), Vec::new());
        for _ in 0..prop::range(0usize..3).generate(rng) {
            fault(rng, n, &mut faults, &mut partitions);
        }
        // A data message cannot cost less than a control message: draw
        // both unit costs, then order them so `cc <= cd`.
        let (a, b) = (frac(rng) * 4.0, frac(rng) * 4.0);
        let (cc, cd) = (a.min(b), a.max(b));
        let model = if prop::bools().generate(rng) {
            CostModel::stationary(cc, cd)
        } else {
            CostModel::mobile(cc, cd)
        }
        .expect("cc <= cd");
        Scenario {
            name: format!("prop-{}", prop::range(0u64..1_000_000).generate(rng)),
            description: "randomly generated by scenario_proptest \"quoted\"".into(),
            n,
            seed: prop::range(0u64..u64::MAX).generate(rng),
            entrant,
            events: prop::range(16usize..1024).generate(rng),
            model,
            phases,
            faults,
            partitions,
            expect: Expect {
                max_ratio_vs_opt: prop::bools().generate(rng).then(|| 1.0 + frac(rng) * 8.0),
                min_valid_holders: prop::bools()
                    .generate(rng)
                    .then(|| prop::range(1usize..3).generate(rng)),
                max_scheme_churn: prop::bools()
                    .generate(rng)
                    .then(|| prop::range(0u64..64).generate(rng)),
                max_dropped_messages: prop::range(0u64..16).generate(rng),
                reads_completed: prop::bools()
                    .generate(rng)
                    .then(|| prop::range(0u64..32).generate(rng)),
                obs_parity: prop::bools().generate(rng),
            },
            golden: prop::bools()
                .generate(rng)
                .then(|| format!("0x{:016x}", prop::range(0u64..u64::MAX).generate(rng))),
        }
    }

    fn shrink(&self, v: &Scenario) -> Vec<Scenario> {
        let mut out = Vec::new();
        if !v.is_failure_free() {
            let mut s = v.clone();
            s.faults.clear();
            s.partitions.clear();
            out.push(s);
        }
        if v.phases.len() > 1 {
            let mut s = v.clone();
            s.phases.truncate(1);
            out.push(s);
        }
        out
    }
}

doma_testkit::property! {
    #[cases(96)]
    /// parse ∘ to_toml is the identity on valid scenarios, and the
    /// serialized form is a fixed point.
    fn parse_round_trips_generated_scenarios(scenario in ScenarioGen) {
        let text = scenario.to_toml();
        let reparsed = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("serializer emitted invalid TOML: {e}\n---\n{text}"));
        assert_eq!(scenario, reparsed, "typed round-trip drift\n---\n{text}");
        assert_eq!(text, reparsed.to_toml(), "serializer not idempotent");
    }
}
