//! A minimal bounded worker pool for embarrassingly-parallel job sets,
//! plus the fixed-shard primitives the deterministic sharded tick engine
//! is built on.
//!
//! Two layers live here:
//!
//! * [`run_indexed`] — coarse-grained parallelism *across* independent
//!   jobs (whole simulations, sweep points). Workers claim indices
//!   atomically and results come back in index order.
//! * [`shard_ranges`] / [`map_shards`] / [`for_each_shard`] / [`fill`] —
//!   fine-grained parallelism *inside* a run. The caller partitions its
//!   state into fixed, contiguous shards (one disjoint slice chunk per
//!   shard) and the pool runs one closure per shard on scoped threads,
//!   returning per-shard results **in shard order**. Shard boundaries depend only on
//!   `(len, threads)`, never on timing, and the shard helpers honor the
//!   requested thread count exactly (they do not consult
//!   `available_parallelism`), so a `--threads 8` run exercises the same
//!   code path on a 1-core CI box as on a 64-core workstation. Reductions
//!   over shard results stay on the calling thread, which is how callers
//!   keep bit-identical fold order regardless of the thread count.
//!
//! On single-core machines (or for a single job/shard) everything degrades
//! to a plain sequential loop with no thread or synchronization overhead,
//! so results are identical either way — per-job determinism is the
//! caller's responsibility and the pool never reorders outputs.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Runs `num_jobs` jobs, `run(i)` for each index, on a bounded pool of
/// worker threads; returns the results in index order.
///
/// The worker count is `min(available_parallelism, num_jobs)`. With one
/// worker the jobs run sequentially on the calling thread.
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
/// `len % shards` ranges carry one extra element. Deterministic shard
/// boundaries are what let the sharded tick engine produce bit-identical
/// results at any thread count — per-element work is independent and the
/// caller folds shard outputs in fixed shard order.
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

/// Splits `slice` into the disjoint mutable sub-slices described by
/// `ranges`, which must be contiguous, ascending, and cover
/// `0..slice.len()` exactly (as produced by [`shard_ranges`]). The
/// sub-slices are independently mutable, which is what lets shard workers
/// write into disjoint chunks of one buffer without synchronization.
///
/// # Panics
///
/// Panics if a range is longer than what remains of the slice.
pub fn split_mut<'a, T>(slice: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut rest = slice;
    let mut out = Vec::with_capacity(ranges.len());
    for r in ranges {
        let taken = std::mem::take(&mut rest);
        let (head, tail) = taken.split_at_mut(r.len());
        out.push(head);
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "ranges must cover the whole slice");
    out
}

/// Runs `f(shard_index, item)` once per item on scoped worker threads and
/// returns the results **in item order**.
///
/// Items are typically per-shard work units (disjoint slice chunks built
/// with [`shard_ranges`]). One item runs on the calling thread; the rest
/// get one scoped thread each, so callers should pass at most `threads`
/// items. With `threads <= 1` (or fewer than two items) everything runs
/// sequentially on the calling thread — the requested thread count is
/// honored exactly and `available_parallelism` is never consulted.
///
/// # Panics
///
/// Panics if any item's closure panics (propagated after all workers
/// stop).
pub fn map_shards<I, R, F>(threads: usize, items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(usize, I) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(k, item)| f(k, item))
            .collect();
    }
    let f = &f;
    thread::scope(|scope| {
        let mut iter = items.into_iter().enumerate();
        let (k0, first) = iter.next().expect("len > 1 checked above");
        let handles: Vec<_> = iter
            .map(|(k, item)| scope.spawn(move || f(k, item)))
            .collect();
        let mut results = Vec::with_capacity(handles.len() + 1);
        results.push(f(k0, first));
        for handle in handles {
            match handle.join() {
                Ok(r) => results.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        results
    })
}

/// Overwrites `out[i]` with `f(i)` for every index, the slice split into
/// [`shard_ranges`]`(out.len(), threads)` and each shard filled by one
/// worker (see [`map_shards`]; one shard runs inline). Every element is
/// computed by the same expression whatever the thread count, so the
/// result is bit-identical at any count.
pub fn fill<T, F>(threads: usize, out: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let ranges = shard_ranges(out.len(), threads);
    let shards: Vec<_> = split_mut(out, &ranges)
        .into_iter()
        .zip(ranges.iter().map(|r| r.start))
        .collect();
    for_each_shard(threads, shards, |_, (chunk, base)| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            *slot = f(base + k);
        }
    });
}

/// Side-effect-only variant of [`map_shards`]: runs `f(shard_index, item)`
/// once per item on scoped worker threads, discarding results. Same
/// thread-count semantics and panic propagation as [`map_shards`].
pub fn for_each_shard<I, F>(threads: usize, items: Vec<I>, f: F)
where
    I: Send,
    F: Fn(usize, I) + Sync,
{
    let _ = map_shards(threads, items, f);
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

    #[test]
    fn split_mut_yields_disjoint_writable_chunks() {
        let mut data = vec![0u32; 13];
        let ranges = shard_ranges(data.len(), 4);
        let chunks = split_mut(&mut data, &ranges);
        assert_eq!(chunks.len(), 4);
        for (k, chunk) in chunks.into_iter().enumerate() {
            for slot in chunk.iter_mut() {
                *slot = k as u32 + 1;
            }
        }
        // Every element was written exactly once, shard-major.
        let expect: Vec<u32> = ranges
            .iter()
            .enumerate()
            .flat_map(|(k, r)| std::iter::repeat_n(k as u32 + 1, r.len()))
            .collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn map_shards_returns_item_order_at_any_thread_count() {
        let items: Vec<usize> = (0..7).collect();
        for threads in [1usize, 2, 4, 8, 32] {
            let out = map_shards(threads, items.clone(), |k, item| {
                assert_eq!(k, item, "shard index must match item order");
                item * 10
            });
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60], "threads={threads}");
        }
    }

    #[test]
    fn for_each_shard_visits_every_item_once() {
        use std::sync::atomic::AtomicU32;
        let hits: Vec<AtomicU32> = (0..9).map(|_| AtomicU32::new(0)).collect();
        for_each_shard(4, (0..9).collect::<Vec<usize>>(), |_, i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn fill_writes_every_index_at_any_thread_count() {
        for threads in [1usize, 2, 3, 8] {
            let mut out = vec![0usize; 11];
            fill(threads, &mut out, |i| i * 3);
            assert_eq!(out, (0..11).map(|i| i * 3).collect::<Vec<_>>());
        }
        fill(4, &mut [] as &mut [u8], |_| unreachable!("no elements"));
    }

    #[test]
    #[should_panic(expected = "shard worker panicked")]
    fn map_shards_propagates_worker_panics() {
        map_shards(4, vec![0usize, 1, 2, 3], |_, item| {
            assert!(item != 2, "shard worker panicked");
        });
    }
}
