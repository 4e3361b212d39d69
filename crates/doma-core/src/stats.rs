//! Schedule statistics: the access-pattern summaries the allocation
//! algorithms implicitly compete over (per-processor read/write activity,
//! locality, and write-burst structure).

use crate::{ProcSet, Schedule};

/// Per-processor activity in a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcessorActivity {
    /// Reads issued by the processor.
    pub reads: usize,
    /// Writes issued by the processor.
    pub writes: usize,
}

impl ProcessorActivity {
    /// Total requests issued.
    pub fn total(&self) -> usize {
        self.reads + self.writes
    }
}

/// Aggregate statistics of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleStats {
    /// Activity per processor index (length = `min_processors`).
    pub per_processor: Vec<ProcessorActivity>,
    /// Overall read fraction (`NaN` for an empty schedule).
    pub read_fraction: f64,
    /// Lengths of the maximal write-free read runs (the windows in which
    /// a saving-read can amortize — the quantity DA's competitiveness
    /// hinges on).
    pub read_run_lengths: Vec<usize>,
    /// Number of *distinct* readers between consecutive writes, averaged —
    /// the invalidation fan-out a write will pay under DA.
    pub mean_readers_per_interval: f64,
}

impl ScheduleStats {
    /// The processors that issue at least one request.
    pub fn active_processors(&self) -> ProcSet {
        self.per_processor
            .iter()
            .enumerate()
            .filter(|(_, a)| a.total() > 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Mean read-run length (0 if there are no reads).
    pub fn mean_read_run(&self) -> f64 {
        if self.read_run_lengths.is_empty() {
            0.0
        } else {
            self.read_run_lengths.iter().sum::<usize>() as f64 / self.read_run_lengths.len() as f64
        }
    }
}

/// Computes [`ScheduleStats`] in a single pass.
pub fn schedule_stats(schedule: &Schedule) -> ScheduleStats {
    let n = schedule.min_processors();
    let mut per_processor = vec![ProcessorActivity::default(); n];
    let mut read_run_lengths = Vec::new();
    let mut current_run = 0usize;
    let mut interval_readers = ProcSet::EMPTY;
    let mut readers_per_interval = Vec::new();
    for r in schedule.iter() {
        let a = &mut per_processor[r.issuer.index()];
        if r.is_read() {
            a.reads += 1;
            current_run += 1;
            interval_readers.insert(r.issuer);
        } else {
            a.writes += 1;
            if current_run > 0 {
                read_run_lengths.push(current_run);
                current_run = 0;
            }
            readers_per_interval.push(interval_readers.len());
            interval_readers = ProcSet::EMPTY;
        }
    }
    if current_run > 0 {
        read_run_lengths.push(current_run);
    }
    if !interval_readers.is_empty() {
        readers_per_interval.push(interval_readers.len());
    }
    let reads: usize = per_processor.iter().map(|a| a.reads).sum();
    let total = schedule.len();
    ScheduleStats {
        per_processor,
        read_fraction: if total == 0 {
            f64::NAN
        } else {
            reads as f64 / total as f64
        },
        read_run_lengths,
        mean_readers_per_interval: if readers_per_interval.is_empty() {
            0.0
        } else {
            readers_per_interval.iter().sum::<usize>() as f64 / readers_per_interval.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(s: &str) -> ScheduleStats {
        schedule_stats(&s.parse().expect("valid schedule"))
    }

    #[test]
    fn per_processor_counts() {
        let s = stats_of("r1 r1 r2 w2 r2 r2 r2");
        assert_eq!(
            s.per_processor[1],
            ProcessorActivity {
                reads: 2,
                writes: 0
            }
        );
        assert_eq!(
            s.per_processor[2],
            ProcessorActivity {
                reads: 4,
                writes: 1
            }
        );
        assert_eq!(s.per_processor[0].total(), 0);
        assert!((s.read_fraction - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn read_runs_split_at_writes() {
        let s = stats_of("r1 r1 w0 r2 w0 w0 r3 r3 r3");
        assert_eq!(s.read_run_lengths, vec![2, 1, 3]);
        assert!((s.mean_read_run() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn readers_per_interval_counts_distinct() {
        // Interval 1: readers {1, 2}; interval 2: none; trailing: {3}.
        let s = stats_of("r1 r2 r1 w0 w0 r3");
        assert_eq!(s.mean_readers_per_interval, (2 + 1) as f64 / 3.0);
    }

    #[test]
    fn active_processors_are_the_issuers() {
        let s = stats_of("r3 r3 r3 w1 r2");
        assert_eq!(s.active_processors(), ProcSet::from_iter([1usize, 2, 3]));
    }

    #[test]
    fn empty_schedule() {
        let s = stats_of("");
        assert!(s.read_fraction.is_nan());
        assert!(s.read_run_lengths.is_empty());
        assert_eq!(s.mean_read_run(), 0.0);
        assert_eq!(s.mean_readers_per_interval, 0.0);
        assert!(s.active_processors().is_empty());
    }

    #[test]
    fn pure_write_schedule() {
        let s = stats_of("w0 w1 w0");
        assert_eq!(s.read_fraction, 0.0);
        assert!(s.read_run_lengths.is_empty());
        assert_eq!(s.mean_readers_per_interval, 0.0);
    }
}
