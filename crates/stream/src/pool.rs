//! A scoped worker pool for data-defined shards.
//!
//! Callers split their work into *data-defined* shards (fixed-size
//! chunks of a sorted budget list, one user-hash shard of a log
//! intake, one δ-curve …) and run them here. Shard composition never
//! depends on the worker count, and each shard is processed
//! sequentially by exactly one worker, so per-shard state (a solve
//! session, shard counts) lives entirely inside a shard and the
//! results — returned in shard order — are byte-identical for every
//! `jobs` value. `jobs` only controls how many shards are in flight at
//! once.
//!
//! This module started life as `dpsan_eval::pool` (which still
//! re-exports it); it moved here so the ingestion engine can drain
//! shards through the same scaffolding without the evaluation harness
//! depending on ingestion or vice versa.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `work` over every shard on up to `jobs` worker threads and
/// return the results in shard order.
///
/// `jobs == 1` (or a single shard) runs inline on the caller's thread.
/// Panics in `work` propagate to the caller.
pub fn run_sharded<T, R, F>(shards: Vec<T>, jobs: usize, work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = shards.len();
    if n == 0 {
        return Vec::new();
    }
    if jobs <= 1 || n == 1 {
        return shards.into_iter().map(work).collect();
    }

    let queue: Vec<Mutex<Option<T>>> = shards.into_iter().map(|s| Mutex::new(Some(s))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.min(n);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let shard = queue[i]
                        .lock()
                        .expect("shard queue poisoned")
                        .take()
                        .expect("each shard index is claimed once");
                    let r = work(shard);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                })
            })
            .collect();
        for h in handles {
            if let Err(e) = h.join() {
                std::panic::resume_unwind(e);
            }
        }
    });

    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot lock free").expect("every shard produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_shard_order() {
        for jobs in [1, 2, 4, 9] {
            let shards: Vec<usize> = (0..17).collect();
            let out = run_sharded(shards, jobs, |i| i * 10);
            assert_eq!(out, (0..17).map(|i| i * 10).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(run_sharded(Vec::<u8>::new(), 4, |x| x).is_empty());
        assert_eq!(run_sharded(vec![7], 4, |x| x + 1), vec![8]);
    }

    #[test]
    fn results_independent_of_jobs() {
        // each shard simulates stateful per-shard work: a running sum
        let shards: Vec<Vec<u64>> = (0..8).map(|s| (0..5).map(|i| s * 5 + i).collect()).collect();
        let run = |jobs| {
            run_sharded(shards.clone(), jobs, |shard| {
                shard.iter().fold(0u64, |acc, &v| acc * 31 + v)
            })
        };
        let reference = run(1);
        for jobs in [2, 3, 8] {
            assert_eq!(run(jobs), reference);
        }
    }
}
