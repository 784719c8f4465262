//! # kbt-flume
//!
//! A small FlumeJava-like parallel dataflow engine.
//!
//! The paper runs all inference in FlumeJava [6] on Map-Reduce (Section
//! 3.2, Section 5.3.4). This crate reproduces the programming model
//! in-process: sharded parallel map ([`par_map_slice`]), shard-parallel
//! rounds with reusable scratch ([`ShardedExecutor`]), and a phase
//! stopwatch used by the Table 7 timing experiment.
//!
//! Everything is deterministic: shards are contiguous and results are
//! concatenated in input order, so a parallel run produces bit-identical
//! results to a serial run (the integration tests assert this).
//!
//! ## Thread configuration
//!
//! Worker-thread count resolves in two layers:
//!
//! 1. a **scoped override** installed by [`with_threads`] — what
//!    `TrustPipeline::threads` and `ModelConfig::threads` use, safe under
//!    concurrent runs because it is thread-local to the orchestrating
//!    thread;
//! 2. the hardware parallelism.

#![warn(missing_docs)]

pub mod sharded;
pub mod stopwatch;

pub use sharded::ShardedExecutor;
pub use stopwatch::{PhaseTimer, Stopwatch};

use std::cell::Cell;
use std::num::NonZeroUsize;

thread_local! {
    /// Scoped per-run override (0 = none). Thread-local, so concurrent
    /// pipeline runs on different threads cannot race each other.
    static THREAD_SCOPED: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads used by all `par_*` operations, resolved as
/// scoped override → hardware parallelism.
pub fn num_threads() -> usize {
    let scoped = THREAD_SCOPED.with(Cell::get);
    if scoped == usize::MAX {
        // with_threads(Some(0), ..): hardware default, shadowing any
        // outer override.
        return hardware_threads();
    }
    if scoped > 0 {
        return scoped;
    }
    hardware_threads()
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Run `f` with the worker-thread count scoped to `n` on this thread.
///
/// `None` leaves the ambient configuration untouched; `Some(0)` forces the
/// hardware default. The previous override is restored on exit (also on
/// panic), so nested scopes behave like a stack.
pub fn with_threads<R>(n: Option<usize>, f: impl FnOnce() -> R) -> R {
    match n {
        None => f(),
        Some(n) => {
            struct Restore(usize);
            impl Drop for Restore {
                fn drop(&mut self) {
                    THREAD_SCOPED.with(|c| c.set(self.0));
                }
            }
            let prev = THREAD_SCOPED.with(|c| {
                let prev = c.get();
                // usize::MAX marks "hardware default" explicitly, letting
                // Some(0) shadow an outer override.
                c.set(if n == 0 { usize::MAX } else { n });
                prev
            });
            let _restore = Restore(prev);
            f()
        }
    }
}

/// Parallel map over a slice, preserving input order.
///
/// The slice is split into one contiguous shard per worker; each worker maps
/// its shard and the shard outputs are concatenated in order, so the result
/// equals `items.iter().map(f).collect()` exactly.
pub fn par_map_slice<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = effective_threads(items.len());
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut shards: Vec<Vec<U>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|shard| scope.spawn(move || shard.iter().map(f).collect::<Vec<U>>()))
            .collect();
        for h in handles {
            shards.push(h.join().expect("kbt-flume worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for s in shards {
        out.extend(s);
    }
    out
}

/// Parallel indexed map: like [`par_map_slice`] but `f` also receives the
/// global index of each element.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = effective_threads(items.len());
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut shards: Vec<Vec<U>> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, shard)| {
                let base = ci * chunk;
                scope.spawn(move || {
                    shard
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(base + i, t))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        for h in handles {
            shards.push(h.join().expect("kbt-flume worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for s in shards {
        out.extend(s);
    }
    out
}

/// Parallel in-place update over mutable contiguous chunks.
///
/// `f` receives the starting global index of the chunk and the chunk itself.
pub fn par_chunks_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let threads = effective_threads(items.len());
    if threads <= 1 || items.len() < 2 {
        f(0, items);
        return;
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        for (ci, shard) in items.chunks_mut(chunk).enumerate() {
            scope.spawn(move || f(ci * chunk, shard));
        }
    });
}

/// Worker count for `len` items: never more workers than items.
fn effective_threads(len: usize) -> usize {
    num_threads().min(len.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_map() {
        let xs: Vec<u64> = (0..10_000).collect();
        let serial: Vec<u64> = xs.iter().map(|x| x * x).collect();
        assert_eq!(par_map_slice(&xs, |x| x * x), serial);
    }

    #[test]
    fn par_map_indexed_sees_global_indices() {
        let xs = vec![10u64; 5_000];
        let out = par_map_indexed(&xs, |i, x| i as u64 + x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 + 10);
        }
    }

    #[test]
    fn par_chunks_mut_updates_every_element() {
        let mut xs: Vec<usize> = vec![0; 7_777];
        par_chunks_mut(&mut xs, |base, shard| {
            for (i, v) in shard.iter_mut().enumerate() {
                *v = base + i;
            }
        });
        for (i, v) in xs.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_slice(&empty, |x| x + 1).is_empty());
        assert_eq!(par_map_slice(&[41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn scoped_override_wins_and_restores() {
        with_threads(Some(1), || {
            assert_eq!(num_threads(), 1);
            // Nested scope shadows, then restores.
            with_threads(Some(3), || assert_eq!(num_threads(), 3));
            assert_eq!(num_threads(), 1);
            // Some(0) explicitly requests the hardware default, shadowing
            // the outer Some(1) — and the sentinel never leaks out.
            with_threads(Some(0), || {
                let n = num_threads();
                assert!(n >= 1 && n != usize::MAX, "sentinel leaked: {n}");
            });
        });
        assert!(num_threads() >= 1);
        // None leaves ambient config untouched.
        with_threads(None, || assert!(num_threads() >= 1));
    }

    #[test]
    fn scoped_override_is_thread_local() {
        with_threads(Some(1), || {
            let other = std::thread::spawn(num_threads).join().unwrap();
            assert!(other >= 1, "other thread must not see this scope");
            assert_eq!(num_threads(), 1);
        });
    }

    #[test]
    fn parallel_results_match_under_scoped_override() {
        let xs: Vec<u32> = (0..1_000).collect();
        let serial = with_threads(Some(1), || par_map_slice(&xs, |x| x * 3));
        let wide = with_threads(Some(8), || par_map_slice(&xs, |x| x * 3));
        assert_eq!(serial, wide);
    }
}
