//! The builtin scenario library: named, replayable workload
//! configurations embedded in the crate (`scenarios/*.toml`), each
//! pinning a golden obs digest. `domactl scenario <name>` runs them by
//! name; the conformance-wall tests replay every one and compare the
//! measured digest against the pin.

use crate::model::Scenario;
use crate::ScenarioError;

/// `(name, TOML text)` for every builtin, in a fixed alphabetical order.
pub const BUILTINS: &[(&str, &str)] = &[
    (
        "append-only-6-2",
        include_str!("../scenarios/append-only-6-2.toml"),
    ),
    (
        "append-phase-change",
        include_str!("../scenarios/append-phase-change.toml"),
    ),
    (
        "chaotic-phase-change",
        include_str!("../scenarios/chaotic-phase-change.toml"),
    ),
    (
        "diurnal-drift",
        include_str!("../scenarios/diurnal-drift.toml"),
    ),
    ("flash-crowd", include_str!("../scenarios/flash-crowd.toml")),
    (
        "hot-set-rotation",
        include_str!("../scenarios/hot-set-rotation.toml"),
    ),
    (
        "hotspot-phase-change",
        include_str!("../scenarios/hotspot-phase-change.toml"),
    ),
    (
        "jittery-uplink",
        include_str!("../scenarios/jittery-uplink.toml"),
    ),
    (
        "mobile-handoff",
        include_str!("../scenarios/mobile-handoff.toml"),
    ),
    (
        "mobile-phase-change",
        include_str!("../scenarios/mobile-phase-change.toml"),
    ),
    (
        "standing-order",
        include_str!("../scenarios/standing-order.toml"),
    ),
    (
        "trace-replay",
        include_str!("../scenarios/trace-replay.toml"),
    ),
    (
        "uniform-phase-change",
        include_str!("../scenarios/uniform-phase-change.toml"),
    ),
    (
        "zipf-phase-change",
        include_str!("../scenarios/zipf-phase-change.toml"),
    ),
];

/// Every builtin scenario name, in listing order.
pub fn names() -> Vec<&'static str> {
    BUILTINS.iter().map(|(name, _)| *name).collect()
}

/// The raw TOML text of a builtin, if the name is known.
pub fn source(name: &str) -> Option<&'static str> {
    BUILTINS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, src)| *src)
}

/// Parses and validates a builtin scenario by name.
pub fn load(name: &str) -> Result<Scenario, ScenarioError> {
    let src = source(name).ok_or_else(|| {
        ScenarioError::msg(format!(
            "unknown builtin scenario '{name}' (known: {})",
            names().join(", ")
        ))
    })?;
    Scenario::parse(src)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_ships_at_least_twelve_scenarios() {
        assert!(BUILTINS.len() >= 12, "only {} builtins", BUILTINS.len());
    }

    #[test]
    fn every_builtin_parses_and_matches_its_filename() {
        for (name, _) in BUILTINS {
            let scenario = load(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&scenario.name, name, "file name and scenario name differ");
            assert!(
                scenario.golden.is_some(),
                "{name}: builtin scenarios must pin a golden digest"
            );
            assert!(
                !scenario.description.is_empty(),
                "{name}: empty description"
            );
        }
    }

    #[test]
    fn every_scenario_file_on_disk_is_listed() {
        // A `.toml` dropped into `scenarios/` without a `BUILTINS` entry
        // would be parsed, pinned and replayed by nothing.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
            .map(|path| {
                path.file_stem()
                    .expect("file stem")
                    .to_string_lossy()
                    .into_owned()
            })
            .collect();
        on_disk.sort_unstable();
        assert_eq!(on_disk, names(), "scenarios/*.toml and BUILTINS differ");
    }

    #[test]
    fn builtin_names_are_sorted_and_unique() {
        let names = names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted, "BUILTINS must stay sorted and unique");
    }

    #[test]
    fn unknown_names_are_rejected_with_the_roster() {
        let e = load("no-such-scenario").unwrap_err();
        assert!(e.to_string().contains("unknown builtin"));
        assert!(e.to_string().contains("append-only-6-2"));
    }

    #[test]
    fn every_tournament_workload_has_a_phase_change_variant() {
        let covered: Vec<&str> = names()
            .into_iter()
            .filter(|name| name.ends_with("-phase-change"))
            .flat_map(|name| load(name).unwrap().phases)
            .map(|phase| phase.workload.name())
            .collect();
        for workload in [
            "uniform",
            "zipf",
            "hotspot",
            "chaotic",
            "mobile",
            "append-only",
        ] {
            assert!(
                covered.contains(&workload),
                "no phase-change builtin runs a {workload} phase"
            );
        }
    }
}
