//! # kbt-flume
//!
//! The workspace's parallel runtime.
//!
//! The paper runs every inference stage as rounds on one dataflow
//! substrate — FlumeJava [6] on Map-Reduce (Section 3.2, Section 5.3.4).
//! This crate is the in-process stand-in, and like that substrate it is
//! the *only* place parallelism is decided:
//!
//! * **one worker-count policy** — [`num_threads`]: the innermost
//!   [`with_threads`] scope (what `TrustPipeline::threads` and
//!   `ModelConfig::threads` install; thread-local to the orchestrating
//!   thread, so concurrent runs cannot race), else the hardware
//!   parallelism;
//! * **one scoped-worker primitive** — [`run_tasks`]: indexed tasks pulled
//!   in order by at most [`num_threads`] workers, a scratch slot per
//!   worker. It holds the only
//!   `std::thread::scope` in the workspace's library code (`kbt-lint`'s
//!   `layering` rule enforces that), so what a dispatch costs is paid, and
//!   priced, in one function body;
//! * **one ordered section** — each task is handed its [`Turn`], and
//!   [`Turn::in_order`] runs a closure after the section of every
//!   lower-indexed task and before that of any higher one while the rest
//!   of the task bodies overlap: a fold that must add up in task order
//!   (the extractor M-step's sums) rides a parallel scan and keeps the
//!   serial loop's bits at any worker count. **Abort rule:** a task that
//!   finishes without entering hands its turn on; once a task fails or
//!   panics no further section runs and every waiter returns, so the
//!   call reports the error (or propagates the panic) and never hangs;
//! * three few-line adapters over it for the common shapes —
//!   [`par_ranges`], [`par_map_slice`], [`par_ranges_mut`] — and the
//!   [`Stopwatch`] used for round and stage timing.
//!
//! Everything is deterministic: tasks and ranges are fixed by the input
//! size, results come back in task order, so a parallel run is
//! bit-identical to a serial one whenever the per-task work is pure (the
//! integration tests assert this for every engine stage).

#![warn(missing_docs)]

pub mod stopwatch;

pub use stopwatch::Stopwatch;

use std::cell::Cell;
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

thread_local! {
    /// The innermost [`with_threads`] scope on this thread, if any.
    /// Thread-local, so concurrent pipeline runs on different threads
    /// cannot race each other.
    static THREAD_SCOPED: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads every parallel operation may use, resolved as
/// scoped override → hardware parallelism.
pub fn num_threads() -> usize {
    match THREAD_SCOPED.with(Cell::get) {
        Some(n) if n > 0 => n,
        // No scope, or `Some(0)` shadowing an outer one: the hardware.
        _ => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    }
}

/// Run `f` with the worker-thread count scoped to `n` on this thread.
///
/// `None` leaves the ambient configuration untouched; `Some(0)` forces the
/// hardware default. The previous override is restored on exit (also on
/// panic), so nested scopes behave like a stack.
pub fn with_threads<R>(n: Option<usize>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_SCOPED.with(|c| c.set(self.0));
        }
    }
    let _restore = n.map(|n| Restore(THREAD_SCOPED.with(|c| c.replace(Some(n)))));
    f()
}

/// The ordered section's state: whose turn it is, which tasks have
/// handed theirs on, and whether the run has failed.
struct Gate {
    /// `(next, passed)`: the lowest task index that has not handed its
    /// turn on, and the flag of every task that has.
    turns: Mutex<(usize, Vec<bool>)>,
    moved: Condvar,
    failed: AtomicBool,
}

impl Gate {
    /// Task `index` is done with the ordered section: advance the turn
    /// past every task that has handed on, and wake the waiters if it
    /// moved.
    fn pass(&self, index: usize) {
        // A panic never happens under this lock, but a poisoned guard
        // would still hold valid indices: carry on.
        let mut turns = self.turns.lock().unwrap_or_else(|p| p.into_inner());
        let (next, passed) = &mut *turns;
        let before = *next;
        passed[index] = true;
        while passed.get(*next) == Some(&true) {
            *next += 1;
        }
        let moved = *next != before;
        drop(turns);
        if moved {
            self.moved.notify_all();
        }
    }

    /// The run is over for everyone: no further section runs.
    fn abort(&self) {
        // ordering: Relaxed — workers read the flag as an advisory early
        // stop; a waiter reads it under `turns`, and the
        // lock taken right below orders this store before its next check.
        self.failed.store(true, Ordering::Relaxed);
        drop(self.turns.lock());
        self.moved.notify_all();
    }

    fn failed(&self) -> bool {
        // ordering: Relaxed — see `abort`; no data is published through it.
        self.failed.load(Ordering::Relaxed)
    }
}

/// A task's place in the ordered section of its [`run_tasks`] call.
pub struct Turn<'a> {
    gate: &'a Gate,
    index: usize,
}

impl Turn<'_> {
    /// Run `f` once every lower-indexed task has left its ordered section
    /// (or finished without entering it), then hand the turn on; the rest
    /// of the task runs unordered. Sections therefore execute one at a
    /// time in task order, each seeing the writes of the ones before it.
    /// If the run has failed, `f` does not run and the call returns at
    /// once — [`run_tasks`] is about to report that failure.
    pub fn in_order(self, f: impl FnOnce()) {
        let mut turns = self.gate.turns.lock().unwrap_or_else(|p| p.into_inner());
        while turns.0 != self.index && !self.gate.failed() {
            turns = self
                .gate
                .moved
                .wait(turns)
                .unwrap_or_else(|p| p.into_inner());
        }
        drop(turns);
        if !self.gate.failed() {
            f();
            self.gate.pass(self.index);
        }
    }
}

/// Aborts the run when dropped: armed around each task body, defused
/// once the task has returned `Ok`, so an error and a panic both release
/// the tasks waiting behind it.
struct AbortOnDrop<'a>(&'a Gate);

impl Drop for AbortOnDrop<'_> {
    fn drop(&mut self) {
        self.0.abort();
    }
}

/// The scoped-worker primitive under every data-parallel loop: run
/// `work(scratch, i, turn)` for `i in 0..tasks` and return the results
/// **in task order**.
///
/// Workers *pull* task indices in ascending order from a shared cursor.
/// There are at most [`num_threads`] of them, never more than tasks or
/// than `scratch` slots; each owns one slot for the whole call, so a
/// caller that keeps `scratch` across rounds keeps its buffers'
/// capacity (pass one slot to make a fold serial, `&mut vec![(); n]` when
/// no scratch is needed). When one worker suffices, everything runs inline
/// on the calling thread.
///
/// `turn` is the task's place in the call's one ordered section
/// ([`Turn::in_order`]); a task with nothing to commit in order ignores it.
///
/// On error the failure with the **lowest task index** (among the tasks
/// that ran before the early stop) is returned, the remaining tasks are
/// abandoned and no further ordered section runs. Which worker ran which
/// task never shows in the output, so a caller that merges the `Vec<T>`
/// sequentially is bit-for-bit reproducible at any worker count.
///
/// # Panics
///
/// If `tasks > 0` and `scratch` is empty, or if `work` panics.
pub fn run_tasks<S, T, E, F>(tasks: usize, scratch: &mut [S], work: F) -> Result<Vec<T>, E>
where
    S: Send,
    T: Send,
    E: Send,
    F: Fn(&mut S, usize, Turn<'_>) -> Result<T, E> + Sync,
{
    if tasks == 0 {
        return Ok(Vec::new());
    }
    assert!(!scratch.is_empty(), "run_tasks needs a scratch slot");
    let workers = num_threads().min(tasks).min(scratch.len());
    let gate = &Gate {
        turns: Mutex::new((0, vec![false; tasks])),
        moved: Condvar::new(),
        failed: AtomicBool::new(false),
    };
    let run = |s: &mut S, index: usize| {
        let armed = AbortOnDrop(gate);
        let done = work(s, index, Turn { gate, index });
        if done.is_ok() {
            std::mem::forget(armed);
            gate.pass(index);
        }
        done
    };
    if workers == 1 {
        let s = &mut scratch[0];
        return (0..tasks).map(|i| run(s, i)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let error: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<T>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    const POISON: &str = "a kbt-flume worker panicked";
    std::thread::scope(|scope| {
        let (cursor, error, slots, run) = (&cursor, &error, &slots, &run);
        for s in scratch.iter_mut().take(workers) {
            scope.spawn(move || loop {
                if gate.failed() {
                    break;
                }
                // ordering: Relaxed — the RMW itself is atomic, so every
                // worker still draws a unique index; results are handed
                // over via the per-slot mutexes.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                match run(s, i) {
                    Ok(t) => *slots[i].lock().expect(POISON) = Some(t),
                    Err(e) => {
                        let mut first = error.lock().expect(POISON);
                        if first.as_ref().is_none_or(|(at, _)| i < *at) {
                            *first = Some((i, e));
                        }
                        break;
                    }
                }
            });
        }
    });
    if let Some((_, e)) = error.into_inner().expect(POISON) {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|slot| {
            let done = slot.into_inner().expect(POISON);
            done.expect("every task completed without error")
        })
        .collect())
}

/// [`run_tasks`] for scratch-free, infallible tasks.
fn run_each<T: Send>(tasks: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let done = run_tasks(tasks, &mut vec![(); tasks], |_, i, _| {
        Ok::<T, Infallible>(work(i))
    });
    match done {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// The contiguous split of `len` keys into one range per worker, as
/// `(range length, range count)`: never more ranges than keys.
fn plan(len: usize) -> (usize, usize) {
    let chunk = len.div_ceil(num_threads().min(len).max(1)).max(1);
    (chunk, len.div_ceil(chunk))
}

/// Run `f` over `0..len` split into one contiguous key range per worker;
/// the per-range results come back in range order. No keys, no calls.
pub fn par_ranges<R: Send>(len: usize, f: impl Fn(Range<usize>) -> R + Sync) -> Vec<R> {
    let (chunk, ranges) = plan(len);
    run_each(ranges, |i| f(i * chunk..((i + 1) * chunk).min(len)))
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
    let shards = par_ranges(items.len(), |r| items[r].iter().map(&f).collect::<Vec<U>>());
    shards.into_iter().flatten().collect()
}

/// Parallel in-place update over one contiguous mutable range per worker.
///
/// `f` receives the starting global index of the range and the range
/// itself.
pub fn par_ranges_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let (chunk, _) = plan(items.len());
    // Task `i` is the only one to lock part `i`: the mutex just hands the
    // exclusive borrow across the thread boundary.
    let parts: Vec<Mutex<&mut [T]>> = items.chunks_mut(chunk).map(Mutex::new).collect();
    run_each(parts.len(), |i| {
        f(i * chunk, &mut parts[i].lock().expect("part locked once"))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 8, 33];

    /// The adapters split by worker count and still equal the serial
    /// loop: ranges tile the keys in order, maps and in-place updates see
    /// every element once under its global index.
    #[test]
    fn adapters_match_serial_at_any_worker_count() {
        let xs: Vec<u64> = (0..10_000).collect();
        let squares: Vec<u64> = xs.iter().map(|x| x * x).collect();
        for threads in WORKER_COUNTS {
            with_threads(Some(threads), || {
                assert_eq!(par_map_slice(&xs, |x| x * x), squares, "x{threads}");
                let mut out = vec![0u64; xs.len()];
                par_ranges_mut(&mut out, |base, part| {
                    for (k, v) in (base..).zip(part) {
                        *v = (k * k) as u64;
                    }
                });
                assert_eq!(out, squares, "x{threads}");
                for len in [0usize, 1, 3, 5, 10, 1_003] {
                    let ranges = par_ranges(len, |r| r);
                    assert!(ranges.len() <= threads.min(len), "x{threads} len={len}");
                    let mut next = 0;
                    for r in &ranges {
                        assert_eq!(r.start, next);
                        assert!(r.end > r.start);
                        next = r.end;
                    }
                    assert_eq!(next, len, "x{threads} len={len}");
                }
            });
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_slice(&empty, |x| x + 1).is_empty());
        assert_eq!(par_map_slice(&[41u32], |x| x + 1), vec![42]);
        assert!(par_ranges(0, |r| r).is_empty());
        assert_eq!(par_ranges(1, |r| r), vec![0..1]);
        par_ranges_mut(&mut [0u8; 0], |_, _| panic!("no keys, no calls"));
        let mut one = [41u32];
        par_ranges_mut(&mut one, |base, part| part[0] += 1 + base as u32);
        assert_eq!(one, [42]);
        // No tasks: nothing runs, not even with no slots.
        let got: Result<Vec<u8>, ()> = run_tasks(0, &mut [(); 0], |_, _, _| Ok(0));
        assert!(got.unwrap().is_empty());
    }

    #[test]
    fn scoped_override_wins_and_restores() {
        with_threads(Some(1), || {
            assert_eq!(num_threads(), 1);
            // Nested scope shadows, then restores.
            with_threads(Some(3), || assert_eq!(num_threads(), 3));
            assert_eq!(num_threads(), 1);
            // Some(0) explicitly requests the hardware default, shadowing
            // the outer Some(1).
            let hardware = std::thread::spawn(num_threads).join().unwrap();
            with_threads(Some(0), || assert_eq!(num_threads(), hardware));
            assert_eq!(num_threads(), 1);
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

    /// The thread contract: under `with_threads(Some(1))` nothing leaves
    /// the calling thread, whatever the task count and scratch width.
    #[test]
    fn one_thread_runs_every_task_on_the_calling_thread() {
        let me = std::thread::current().id();
        let ids: Result<Vec<_>, ()> = with_threads(Some(1), || {
            run_tasks(64, &mut [(); 8], |_, _, _| Ok(std::thread::current().id()))
        });
        assert!(ids.unwrap().iter().all(|&id| id == me));
        let mut xs = vec![0u8; 1_000];
        with_threads(Some(1), || {
            par_ranges_mut(&mut xs, |_, _| assert_eq!(std::thread::current().id(), me));
            par_map_slice(&xs, |_| assert_eq!(std::thread::current().id(), me));
        });
    }

    #[test]
    fn workers_are_bounded_by_the_policy_and_the_scratch_slots() {
        for (threads, slots, want) in [(3usize, 8usize, 3usize), (8, 2, 2), (33, 1, 1)] {
            let mut ran = vec![0usize; slots];
            let got: Result<Vec<usize>, ()> = with_threads(Some(threads), || {
                run_tasks(100, &mut ran, |n, i, _| {
                    *n += 1;
                    Ok(i)
                })
            });
            assert_eq!(got.unwrap(), (0..100).collect::<Vec<_>>());
            assert_eq!(ran.iter().sum::<usize>(), 100);
            assert!(ran[want..].iter().all(|&n| n == 0), "x{threads}: {ran:?}");
        }
    }

    #[test]
    fn run_tasks_returns_task_order_at_any_worker_count() {
        let expect: Vec<u64> = (0..97u64).map(|i| i * i + 7).collect();
        for threads in WORKER_COUNTS {
            let got: Result<Vec<u64>, ()> = with_threads(Some(threads), || {
                run_tasks(97, &mut vec![(); threads], |_, i, _| {
                    Ok(i as u64 * i as u64 + 7)
                })
            });
            assert_eq!(got.unwrap(), expect, "threads={threads}");
        }
    }

    #[test]
    fn scratch_keeps_its_capacity_across_rounds() {
        let mut scratch: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut round = |scale: u64| {
            let sums: Result<Vec<u64>, ()> = with_threads(Some(3), || {
                run_tasks(30, &mut scratch, |tmp, i, _| {
                    tmp.clear();
                    tmp.extend((0..100).map(|k| k * scale + i as u64));
                    Ok(tmp.iter().sum())
                })
            });
            assert_eq!(sums.unwrap()[1], 4_950 * scale + 100);
            scratch
                .iter()
                .map(|s| (s.as_ptr(), s.capacity()))
                .collect::<Vec<_>>()
        };
        let first = round(1);
        // Same sizes again: every arena that was grown is reused as is.
        let second = round(2);
        for (a, b) in first.iter().zip(&second) {
            assert!(a.1 == 0 || a == b, "steady state must not reallocate");
        }
        assert!(second.iter().any(|&(_, cap)| cap >= 100));
    }

    #[test]
    fn run_tasks_surfaces_the_lowest_index_error_and_stops() {
        for threads in [1usize, 4] {
            let ran = AtomicUsize::new(0);
            let got: Result<Vec<u64>, String> = with_threads(Some(threads), || {
                run_tasks(1_000, &mut vec![(); threads], |_, i, _| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if i == 5 {
                        Err(format!("task {i} failed"))
                    } else {
                        Ok(i as u64)
                    }
                })
            });
            assert_eq!(got.unwrap_err(), "task 5 failed", "threads={threads}");
            assert!(
                ran.load(Ordering::SeqCst) < 1_000,
                "failure must stop the run early (threads={threads})"
            );
        }
    }
}
