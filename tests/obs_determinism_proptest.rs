//! Property test: the observability subsystem is deterministic end to
//! end — re-running a torture episode under the same seed produces a
//! byte-identical metrics/event JSON snapshot, across every algorithm ×
//! fault-class cell. This is the contract that makes obs output safe to
//! diff in CI and to attach to replay lines.

use doma::fault::{episode_obs_json, FaultClass};
use doma::protocol::Entrant;
use doma_testkit::property as prop;

doma_testkit::property! {
    #[cases(12)]
    /// Same seed ⇒ byte-identical snapshot; the cell is derived from the
    /// seed so shrinking keeps the failing cell stable.
    fn episode_obs_json_is_byte_identical(seed in prop::range(0u64..1_000_000)) {
        let algo = if seed % 2 == 0 { Entrant::Sa } else { Entrant::Da };
        let class = match seed % 3 {
            0 => FaultClass::Crash,
            1 => FaultClass::Partition,
            _ => FaultClass::Drop,
        };
        let first = episode_obs_json(seed, algo, class);
        let second = episode_obs_json(seed, algo, class);
        assert_eq!(
            first, second,
            "obs JSON diverged across two runs of seed {seed:#x}"
        );
        assert!(first.contains("\"metrics\""), "snapshot missing metrics key");
        assert!(first.contains("\"events\""), "snapshot missing events key");
        assert!(
            first.contains("\"dropped_events\""),
            "snapshot missing dropped_events key"
        );
    }
}
