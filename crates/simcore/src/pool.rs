//! A minimal bounded worker pool for embarrassingly-parallel job sets,
//! plus the fixed contiguous partition the control plane's scheduler
//! ownership is built on.
//!
//! * [`run_indexed`] — parallelism *across* independent jobs (whole
//!   simulations, sweep points, fixed chunks of a fleet's demand traces
//!   in `workload::FleetSpec::generate`). Workers claim indices
//!   atomically and results come back in index order.
//! * [`for_each_mut`] — parallelism over a slice of independent items,
//!   each mutated in place. Inside a run, this is the control plane's
//!   one fan-out: each scheduler replica plans its round on its own
//!   state, and the caller folds the results serially afterwards. The
//!   tick's fleet passes stay serial.
//! * [`shard_ranges`] — a pure `(len, shards)` split of `0..len` into
//!   contiguous near-equal ranges.
//!
//! On single-core machines (or for a single job) everything degrades to a
//! plain sequential loop with no thread or synchronization overhead, so
//! results are identical either way — per-job determinism is the caller's
//! responsibility and the pool never reorders outputs.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Runs `num_jobs` jobs, `run(i)` for each index, on a bounded pool of
/// worker threads; returns the results in index order.
///
/// The worker count is `min(available_parallelism, num_jobs)`. With one
/// worker the jobs run sequentially on the calling thread and no thread
/// starts. The call opens one thread scope and joins it once, so it pays
/// for jobs of milliseconds or more (a run, a sweep point, 4096 VMs'
/// traces), not for per-tick work. A job may itself call `run_indexed`
/// (a `run_all` experiment generating its fleet); the nested pool is
/// bounded the same way.
///
/// # Panics
///
/// Panics if any job panics (the panic is propagated once all workers
/// have stopped).
pub fn run_indexed<T, F>(num_jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(num_jobs);
    if workers <= 1 {
        return (0..num_jobs).map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..num_jobs).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= num_jobs {
                    break;
                }
                let result = run(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
}

/// Calls `f` once on every item, in place, on a bounded set of threads.
///
/// The worker count is `min(available_parallelism, items.len())`, and the
/// items are split into that many contiguous [`shard_ranges`] chunks. The
/// calling thread runs the first chunk itself and one scoped thread
/// starts per further chunk. With one worker (one item, or one core) this
/// is a plain loop on the calling thread and no thread starts. Each call
/// opens and joins one thread scope, so it pays only for items that take
/// a millisecond or more each.
///
/// # Panics
///
/// Panics with the first panic `f` raised, in chunk order, once every
/// chunk has stopped.
pub fn for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    // The length test comes first: reading the core count costs file
    // reads (cgroup quotas), more than a small world's whole round.
    let workers = match items.len() {
        0 | 1 => 1,
        len => thread::available_parallelism().map_or(1, |n| n.get().min(len)),
    };
    if workers <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let f = &f;
    let ranges = shard_ranges(items.len(), workers);
    let (first, mut rest) = items.split_at_mut(ranges[0].len());
    thread::scope(|scope| {
        let workers: Vec<_> = ranges[1..]
            .iter()
            .map(|range| {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
                rest = tail;
                scope.spawn(move || chunk.iter_mut().for_each(f))
            })
            .collect();
        first.iter_mut().for_each(f);
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Splits `0..len` into at most `shards` fixed, contiguous, near-equal,
/// non-empty ranges covering the whole span in order.
///
/// The partition is a pure function of `(len, shards)`: the first
/// `len % shards` ranges carry one extra element.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for k in 0..shards {
        let size = base + usize::from(k < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        let out = run_indexed(17, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = run_indexed(0, |_| unreachable!("no jobs to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn single_job_runs_inline() {
        assert_eq!(run_indexed(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn jobs_each_run_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counters: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        run_indexed(64, |i| counters[i].fetch_add(1, Ordering::Relaxed));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn for_each_mut_visits_every_item_once_in_place() {
        for len in [0usize, 1, 2, 7, 64] {
            let mut items: Vec<(usize, u32)> = (0..len).map(|i| (i, 0)).collect();
            for_each_mut(&mut items, |item| item.1 += 1);
            for (i, item) in items.iter().enumerate() {
                assert_eq!(*item, (i, 1), "len={len} item {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn for_each_mut_propagates_a_worker_panic() {
        let mut items: Vec<usize> = (0..7).collect();
        for_each_mut(&mut items, |&mut i| {
            if i == 5 {
                panic!("item {i} failed");
            }
        });
    }

    #[test]
    fn shard_ranges_partition_contiguously() {
        for len in [1usize, 2, 5, 16, 17, 100, 4096] {
            for shards in [1usize, 2, 3, 7, 8, 64, 10_000] {
                let ranges = shard_ranges(len, shards);
                assert_eq!(ranges.len(), shards.min(len), "len={len} shards={shards}");
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at len={len} shards={shards}");
                    assert!(r.end > r.start, "empty shard at len={len} shards={shards}");
                    next = r.end;
                }
                assert_eq!(next, len, "partition must cover 0..len");
                // Near-equal: sizes differ by at most one element.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced shards: {sizes:?}");
            }
        }
    }

    #[test]
    fn shard_ranges_of_nothing_is_empty() {
        assert!(shard_ranges(0, 4).is_empty());
    }
}
