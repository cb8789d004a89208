//! **pm-runtime** — deterministic multi-core execution for the pipeline.
//!
//! The sandboxed build has no crates.io access, so instead of rayon this
//! crate provides the small slice of a data-parallel runtime the pipeline
//! actually needs, on `std::thread::scope` alone:
//!
//! - [`par_map`] / [`par_map_range`] / [`par_map_in_place`]: chunked
//!   fork–join maps over a slice (or index range), each worker writing into
//!   **pre-sized output slots**.
//! - [`WorkerPool`]: a fixed pool of long-lived workers over a **bounded**
//!   job queue, for online services that must shed load instead of queueing
//!   without bound (see [`pool`]).
//! - [`ShardPool`]: one dedicated worker per shard with per-shard FIFO
//!   ordering and exclusivity, for user-keyed sharded state (see [`shard`]).
//! - [`supervise`]: time-free supervision primitives — capped exponential
//!   [`Backoff`] with deterministic jitter and a consecutive-failure
//!   [`CircuitBreaker`] — for background loops that must retry without
//!   storming and stop retrying without dying.
//!
//! # Determinism contract
//!
//! Every function here is *bit-deterministic in the thread count*: the value
//! written to output slot `i` depends only on input `i` and the caller's
//! closure, never on scheduling, chunk boundaries, or how many workers ran.
//! Reductions never happen tree-wise across workers: callers fold the
//! returned slots left-to-right after the join, so float accumulation
//! order (and therefore every rounded bit) is identical for `threads = 1`
//! and `threads = N`. Serial execution is simply the degenerate
//! single-chunk case of the same code path.
//!
//! # Thread-count resolution
//!
//! `threads == 0` means "use [`std::thread::available_parallelism`]";
//! any other value is taken literally. [`default_threads`] additionally
//! honours the `PM_THREADS` environment variable (the knob `scripts/ci.sh`
//! uses to run the test suite both serially and at 4 threads), falling back
//! to `1` so a bare library call stays single-threaded unless asked.

use std::cell::Cell;
use std::num::NonZeroUsize;

pub mod pool;
pub mod shard;
pub mod supervise;

pub use pool::{SubmitError, WorkerPool};
pub use shard::ShardPool;
pub use supervise::{Backoff, CircuitBreaker, CircuitState};

/// Environment variable read by [`default_threads`].
pub const THREADS_ENV: &str = "PM_THREADS";

/// Environment variable read by [`default_shards`]: how many user-keyed
/// ingest shards services should run when no explicit knob is given
/// (`scripts/ci.sh` sweeps the test suite at `PM_SHARDS=1` and `8`).
pub const SHARDS_ENV: &str = "PM_SHARDS";

thread_local! {
    static WORKER_SLOT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker slot (0-based chunk index) of the `par_map*` region the
/// calling thread is executing, or `None` outside any parallel region —
/// including the serial inline path and the thread that invoked the map.
///
/// Observability layers use this to tag measurements with the worker that
/// produced them without threading an id through every closure.
pub fn current_worker() -> Option<usize> {
    WORKER_SLOT.with(Cell::get)
}

/// Runs `f` with [`current_worker`] reporting `slot`.
fn in_worker<R>(slot: usize, f: impl FnOnce() -> R) -> R {
    WORKER_SLOT.with(|w| w.set(Some(slot)));
    let out = f();
    WORKER_SLOT.with(|w| w.set(None));
    out
}

/// Resolves a requested thread count: `0` becomes the machine's available
/// parallelism (at least 1), anything else is returned unchanged.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

/// The thread count requested through the `PM_THREADS` environment variable,
/// if set and parseable (`0` is accepted and means "auto").
pub fn threads_from_env() -> Option<usize> {
    std::env::var(THREADS_ENV).ok()?.trim().parse().ok()
}

/// Default thread count for [`crate`] consumers that expose no explicit
/// knob: `PM_THREADS` when set, otherwise `1` (serial).
pub fn default_threads() -> usize {
    threads_from_env().unwrap_or(1)
}

/// The shard count requested through the `PM_SHARDS` environment variable,
/// if set and parseable to a positive integer.
pub fn shards_from_env() -> Option<usize> {
    std::env::var(SHARDS_ENV)
        .ok()?
        .trim()
        .parse()
        .ok()
        .filter(|&s| s >= 1)
}

/// Default shard count for services that expose no explicit knob:
/// `PM_SHARDS` when set, otherwise `1` (a single shard — the sharded path
/// degenerates to the classic single-engine behaviour byte for byte).
pub fn default_shards() -> usize {
    shards_from_env().unwrap_or(1)
}

/// Splits `n` items over `threads` workers in contiguous chunks. Returns the
/// chunk length (>= 1 for n > 0).
fn chunk_len(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.max(1)).max(1)
}

/// Parallel map over a slice: `out[i] = f(&items[i])`.
///
/// Workers own disjoint contiguous chunks of the pre-sized output, so the
/// result is identical — bit for bit — for every thread count. With
/// `threads <= 1` (after [`resolve_threads`]) or fewer than two items per
/// worker the map runs inline without spawning.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = resolve_threads(threads).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = chunk_len(items.len(), threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let f = &f;
    std::thread::scope(|scope| {
        for (w, (in_chunk, out_chunk)) in items.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate()
        {
            scope.spawn(move || {
                in_worker(w, || {
                    for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                        *slot = Some(f(item));
                    }
                })
            });
        }
    });
    // Every slot was filled by exactly one worker; a panic in any worker has
    // already propagated out of the scope above.
    out.into_iter()
        .map(|slot| slot.expect("slot filled"))
        .collect()
}

/// Parallel map over a slice with **work stealing**: `out[i] = f(&items[i])`.
///
/// [`par_map`] hands each worker one contiguous chunk, which is optimal for
/// uniform per-item cost but serializes on the slowest chunk when costs are
/// skewed (one giant coarse pattern among many small ones). Here workers
/// instead claim the next unclaimed index from a shared atomic counter, so a
/// worker stuck on an expensive item never blocks the cheap ones behind it.
///
/// The determinism contract is unchanged: output slot `i` is written exactly
/// once, by whichever worker claimed index `i`, with the value `f(&items[i])`
/// — scheduling moves *which thread* computes an item, never *what* is
/// computed, so the result is bit-identical for every thread count.
pub fn par_map_stealing<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let threads = resolve_threads(threads).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let n = items.len();
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);

    /// Shared base pointer into the output slots. Each index is claimed by
    /// exactly one worker via `fetch_add`, so writes through it are disjoint.
    struct Slots<R>(*mut Option<R>);
    unsafe impl<R: Send> Sync for Slots<R> {}

    let slots = Slots(out.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let (f, next, slots) = (&f, &next, &slots);
    std::thread::scope(|scope| {
        for w in 0..threads {
            scope.spawn(move || {
                in_worker(w, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(&items[i]);
                    // SAFETY: `i < n` and the atomic counter hands each index
                    // to exactly one worker, so this slot is written once and
                    // never aliased; the scope join publishes the write.
                    unsafe { *slots.0.add(i) = Some(r) };
                });
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("slot filled"))
        .collect()
}

/// Parallel map over an index range: `out[i] = f(i)` for `i in 0..n`.
///
/// The index-driven twin of [`par_map`], for producers that index shared
/// state (e.g. a spatial index) rather than walk a slice.
pub fn par_map_range<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = resolve_threads(threads).min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = chunk_len(n, threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let f = &f;
    std::thread::scope(|scope| {
        for (c, out_chunk) in out.chunks_mut(chunk).enumerate() {
            let base = c * chunk;
            scope.spawn(move || {
                in_worker(c, || {
                    for (off, slot) in out_chunk.iter_mut().enumerate() {
                        *slot = Some(f(base + off));
                    }
                })
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("slot filled"))
        .collect()
}

/// Parallel in-place update: `f(&mut items[i])` for every item, returning
/// the per-item results in index order.
///
/// Used where the pipeline mutates records it already owns (semantic
/// recognition tagging trajectories) while reporting a per-item observation
/// (e.g. a dropped-fix count) that the caller folds deterministically.
pub fn par_map_in_place<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let threads = resolve_threads(threads).min(items.len());
    if threads <= 1 {
        return items.iter_mut().map(f).collect();
    }
    let chunk = chunk_len(items.len(), threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let f = &f;
    std::thread::scope(|scope| {
        for (w, (in_chunk, out_chunk)) in items
            .chunks_mut(chunk)
            .zip(out.chunks_mut(chunk))
            .enumerate()
        {
            scope.spawn(move || {
                in_worker(w, || {
                    for (item, slot) in in_chunk.iter_mut().zip(out_chunk.iter_mut()) {
                        *slot = Some(f(item));
                    }
                })
            });
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_is_machine_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 1000, 2000] {
            let parallel = par_map(&items, threads, |x| x * x + 1);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_stealing_matches_serial_map() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 7).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let parallel = par_map_stealing(&items, threads, |x| x * 3 + 7);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_stealing(&empty, 4, |x| *x).is_empty());
        assert_eq!(par_map_stealing(&[9u32], 16, |x| *x), vec![9]);
    }

    #[test]
    fn par_map_stealing_handles_skewed_work() {
        // One item 1000x more expensive than the rest: stealing must still
        // fill every slot with the right value (and, unlike chunked par_map,
        // lets the other workers drain the cheap tail meanwhile).
        let items: Vec<u64> = (0..64).collect();
        let out = par_map_stealing(&items, 4, |&x| {
            let spins = if x == 0 { 100_000 } else { 100 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn par_map_stealing_worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map_stealing(&items, 4, |&x| {
                assert!(x != 63, "boom");
                x
            })
        });
        assert!(result.is_err(), "panic in a worker must propagate");
    }

    #[test]
    fn par_map_range_matches_serial() {
        let serial: Vec<usize> = (0..777usize).map(|i| i.wrapping_mul(31)).collect();
        for threads in [1, 2, 5, 16] {
            assert_eq!(
                par_map_range(777, threads, |i| i.wrapping_mul(31)),
                serial,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn par_map_in_place_mutates_and_reports() {
        let mut a: Vec<i64> = (0..501).collect();
        let mut b = a.clone();
        let ra = par_map_in_place(&mut a, 1, |x| {
            *x *= 2;
            *x
        });
        let rb = par_map_in_place(&mut b, 4, |x| {
            *x *= 2;
            *x
        });
        assert_eq!(a, b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |x| *x).is_empty());
        assert_eq!(par_map(&[42u32], 4, |x| *x), vec![42]);
        assert_eq!(par_map_range(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u8, 2, 3];
        assert_eq!(par_map(&items, 64, |x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn worker_ids_cover_all_slots_and_reset() {
        assert_eq!(current_worker(), None);
        let items: Vec<usize> = (0..64).collect();
        let ids = par_map(&items, 4, |_| current_worker());
        let distinct: std::collections::BTreeSet<usize> = ids.iter().flatten().copied().collect();
        assert_eq!(distinct, (0..4).collect());
        // Serial/inline path runs on the calling thread: no worker slot.
        assert_eq!(par_map(&items, 1, |_| current_worker()), vec![None; 64]);
        assert_eq!(current_worker(), None);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, 4, |&x| {
                assert!(x != 63, "boom");
                x
            })
        });
        assert!(result.is_err(), "panic in a worker must propagate");
    }
}
