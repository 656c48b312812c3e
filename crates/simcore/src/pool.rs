//! A minimal bounded worker pool for embarrassingly-parallel job sets,
//! plus the fixed contiguous partition the control plane's scheduler
//! ownership is built on.
//!
//! * [`run_indexed`] — parallelism *across* independent jobs (whole
//!   simulations, sweep points, fixed chunks of a fleet's demand traces
//!   in `workload::FleetSpec::generate`). Workers claim indices
//!   atomically and results come back in index order. A single run is
//!   always single-threaded; cores pay by running runs side by side, or
//!   by generating a scenario's traces in one fan-out before its run
//!   starts.
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
