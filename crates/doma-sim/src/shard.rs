//! Shard worker plumbing: scoped-thread fan-out for object-sharded runs.
//!
//! Each simulator [`Engine`](crate::Engine) stays single-threaded — that
//! is what makes runs deterministic — but *independent* engines can run
//! side by side. The sharded executor in `doma-protocol` partitions a
//! multi-object catalog into K shards, builds one engine per shard, and
//! hands the per-shard inputs to [`run_shards`], which runs each worker
//! on its own scoped thread and returns the outputs in shard order.
//!
//! Determinism is preserved by construction:
//!
//! * each worker owns its inputs and shares nothing mutable — the only
//!   cross-thread traffic is moving the input in and the output out;
//! * outputs come back positionally (slot `i` belongs to shard `i`), so
//!   the merge sees the same order regardless of thread scheduling;
//! * a single input runs serially on the calling thread, and must
//!   produce identical results.

/// Runs `worker(shard_index, input)` over every input and returns the
/// outputs in input order.
///
/// With more than one input each worker runs on its own scoped thread;
/// otherwise the workers run serially on the calling thread. Both paths
/// return positionally identical results — the parallel path writes
/// each output into its own pre-allocated slot, so thread completion
/// order cannot reorder them.
pub fn run_shards<T, R, F>(inputs: Vec<T>, worker: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    if inputs.len() <= 1 {
        return inputs
            .into_iter()
            .enumerate()
            .map(|(i, input)| worker(i, input))
            .collect();
    }
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(inputs.len(), || None);
    std::thread::scope(|scope| {
        for (i, (input, slot)) in inputs.into_iter().zip(slots.iter_mut()).enumerate() {
            let worker = &worker;
            scope.spawn(move || {
                *slot = Some(worker(i, input));
            });
        }
    });
    // Every spawned thread filled its slot (scope joins them all); a
    // panicking worker propagates out of `scope` before we get here.
    slots.into_iter().flatten().collect()
}

/// Compile-time helper: `assert_send::<MyActor>()` fails to compile if
/// the type cannot move into a shard worker.
pub const fn assert_send<T: Send>() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_come_back_in_input_order() {
        let inputs: Vec<u64> = (0..8).collect();
        let out = run_shards(inputs, |i, v| {
            // Stagger completion so scheduling would reorder naive collection.
            std::thread::sleep(std::time::Duration::from_millis(8 - v));
            (i, v * 10)
        });
        assert_eq!(
            out,
            (0..8).map(|v| (v as usize, v * 10)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_input_runs_serially() {
        let out = run_shards(vec![41u64], |i, v| v + 1 + i as u64);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn empty_inputs_yield_empty_outputs() {
        let out: Vec<u32> = run_shards(Vec::<u32>::new(), |_, v| v);
        assert!(out.is_empty());
    }
}
