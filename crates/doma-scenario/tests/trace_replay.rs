//! Trace → scenario replay equivalence (satellite of the scenario-engine
//! PR): a schedule produced by a generator phase, exported through
//! `doma_workload::trace::write_trace`, and replayed as a `trace` phase
//! must drive the simulator to the *identical* run — same request
//! stream, same cost tallies, same obs snapshot bytes, same digest.
//!
//! This pins the contract that trace files are a faithful interchange
//! format between the workload generators and the scenario engine.

use doma_core::CostModel;
use doma_scenario::{runner, Entrant, Expect, Phase, Scenario, WorkloadSpec};
use doma_workload::trace::{read_trace, write_trace};

fn base_scenario(workload: WorkloadSpec, len: usize) -> Scenario {
    Scenario {
        name: "trace-equivalence".into(),
        description: "generator phase vs its exported trace".into(),
        n: 6,
        seed: 0xD0_0D,
        entrant: Entrant::Da,
        events: 512,
        model: CostModel::stationary(1.0, 2.0).unwrap(),
        phases: vec![Phase {
            name: "only".into(),
            len,
            workload,
        }],
        faults: Vec::new(),
        partitions: Vec::new(),
        expect: Expect::default(),
        golden: None,
    }
}

#[test]
fn generator_phase_and_its_exported_trace_run_identically() {
    let generated = base_scenario(
        WorkloadSpec::Zipf {
            theta: 1.1,
            read_fraction: 0.7,
        },
        30,
    );
    let schedule = runner::build_schedule(&generated).unwrap();
    assert_eq!(schedule.len(), 30);

    // Export the generated schedule in the paper's trace notation, with
    // comments and line wrapping to exercise the reader's tolerance.
    let mut buf = Vec::new();
    write_trace(&mut buf, &schedule, Some("exported by trace_replay"), 7).unwrap();
    let text = String::from_utf8(buf).unwrap();

    let replayed = base_scenario(WorkloadSpec::Trace { text: text.clone() }, 0);
    assert_eq!(runner::build_schedule(&replayed).unwrap(), schedule);
    assert_eq!(read_trace(text.as_bytes()).unwrap(), schedule);

    let a = runner::run(&generated).unwrap();
    let b = runner::run(&replayed).unwrap();
    assert!(a.passed(), "{:?}", a.violations);
    assert!(b.passed(), "{:?}", b.violations);
    assert_eq!(a.requests, b.requests);
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.reads_completed, b.reads_completed);
    assert_eq!(a.scheme_churn, b.scheme_churn);
    assert_eq!(a.valid_holders, b.valid_holders);
    assert_eq!(a.snapshot_json, b.snapshot_json, "obs snapshots diverged");
    assert_eq!(a.digest, b.digest);
}

#[test]
fn trace_scenarios_round_trip_through_the_file_format() {
    let scenario = base_scenario(
        WorkloadSpec::Trace {
            text: "r1 w2 r3 r3 w0 r5 r4".into(),
        },
        0,
    );
    assert_eq!(scenario.total_len(), 7);
    let reparsed = Scenario::parse(&scenario.to_toml()).unwrap();
    assert_eq!(scenario, reparsed);
    let report = runner::run(&reparsed).unwrap();
    assert_eq!(report.requests, 7);
    assert!(report.passed(), "{:?}", report.violations);
}
