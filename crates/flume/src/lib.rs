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
//! * **one order-free sum** — [`ExactSum`]: exact, so a float reduction
//!   folded per worker and merged in any order (the M-steps' sums, the
//!   log-likelihood) has the same bits at any worker count or partition;
//! * three few-line adapters over [`run_tasks`] for the common shapes —
//!   [`par_ranges`], [`par_map_slice`], [`par_ranges_mut`] — and the
//!   [`Stopwatch`] used for round and stage timing.
//!
//! Everything is deterministic: tasks and ranges are fixed by the input
//! size, results come back in task order and float sums are exact, so a
//! parallel run is bit-identical to a serial one whenever the per-task
//! work is pure (the integration tests assert this for every stage).

#![warn(missing_docs)]

use std::cell::Cell;
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

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

/// [`ExactSum`]'s 32-bit digits, from 2⁻¹⁰⁷⁴ past 2¹⁰²⁴ with room for 2⁶⁰
/// addends; an add puts less than 2⁵² into a chunk and 2¹¹⁶ into the
/// window, so both carry every `CARRY_EVERY` adds. The window holds the
/// exponent fields from `WINDOW_EXP`, `[2⁻⁶², 4)`, in units of 2⁻¹¹⁴.
const CHUNKS: usize = 67;
const CARRY_EVERY: u32 = 1 << 10;
const DIGIT_MASK: i64 = (1 << 32) - 1;
const WINDOW_EXP: usize = 961;
const WINDOW_CHUNK: usize = 30;

/// An exact sum of finite `f64` values, kept as a fixed-point integer:
/// [`add`](Self::add) and [`merge`](Self::merge) are exactly associative
/// and commutative and [`finish`](Self::finish) rounds once, so a sum's
/// bits depend on its addends only — never on a worker count, partition or
/// order. Addends in `[2⁻⁶², 4)` (probabilities, confidences, their logs)
/// go into a 128-bit window; the rest, and the window every 1024 adds,
/// into R. M. Neal's "small superaccumulator" (signed 64-bit chunks of
/// 32-bit digits), allocated on first use.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    window: i128,
    /// `Σ chunks[i] · 2^(32·i − 1074)`: empty, or `CHUNKS` long.
    chunks: Vec<i64>,
    /// Adds since the last carry.
    pending: u32,
}

impl ExactSum {
    /// Add `x` exactly.
    #[inline]
    pub fn add(&mut self, x: f64) {
        self.extend([x]);
    }

    /// Add everything `other` holds, exactly.
    pub fn merge(&mut self, other: &Self) {
        if self.pending + other.pending >= CARRY_EVERY {
            self.carry();
        }
        self.window += other.window;
        if !other.chunks.is_empty() {
            let chunks = allocated(&mut self.chunks).iter_mut();
            chunks.zip(&other.chunks).for_each(|(a, b)| *a += b);
        }
        // The carried digits (< 2³² each) count as one more add.
        self.pending += other.pending + 1;
        if self.pending >= CARRY_EVERY {
            self.carry();
        }
    }

    /// The sum, correctly rounded: nearest, ties to even, `±inf` past the
    /// largest finite `f64`, and `+0.0` for an exact zero.
    pub fn finish(&self) -> f64 {
        // Integer casts round to nearest, ties to even; scaling a normal
        // (or exactly representable) result by a power of two is exact.
        if self.chunks.is_empty() {
            return self.window as f64 * unit(WINDOW_CHUNK);
        }
        let mut n = [0; CHUNKS];
        n.copy_from_slice(&self.chunks);
        spread(self.window, &mut n);
        carry(&mut n);
        let sign = if n[CHUNKS - 1] < 0 { -1.0 } else { 1.0 };
        if sign < 0.0 {
            n.iter_mut().for_each(|d| *d = -*d);
            carry(&mut n);
        }
        let Some(top) = n.iter().rposition(|&d| d != 0) else {
            return 0.0;
        };
        // The top three digits hold 65 bits or more: the significand, the
        // round bit and room for a sticky bit standing for the rest.
        let base = top.saturating_sub(2);
        let digits = (base..=top).fold(0, |w, i| w | (n[i] as u128) << (32 * (i - base)));
        let sticky = n[..base].iter().any(|&d| d != 0);
        sign * (digits | u128::from(sticky)) as f64 * unit(base)
    }

    fn carry(&mut self) {
        carry_window(&mut self.chunks, std::mem::take(&mut self.window));
        self.pending = 0;
    }
}

/// Adds every value exactly, keeping the window and the counter in
/// registers for the loop.
impl Extend<f64> for ExactSum {
    #[inline]
    fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        let (mut window, mut pending) = (self.window, self.pending);
        for x in xs {
            debug_assert!(x.is_finite(), "ExactSum adds finite values only");
            let bits = x.to_bits();
            let r = ((bits >> 52) as usize & 0x7ff).wrapping_sub(WINDOW_EXP);
            if r < 64 {
                let neg = (bits as i64) >> 63;
                let mant = ((bits & ((1 << 52) - 1)) | (1 << 52)) as i64;
                window += i128::from((mant ^ neg) - neg) << (r & 63);
            } else {
                add_outside(&mut self.chunks, bits);
            }
            pending += 1;
            if pending == CARRY_EVERY {
                carry_window(&mut self.chunks, std::mem::take(&mut window));
                pending = 0;
            }
        }
        (self.window, self.pending) = (window, pending);
    }
}

/// The chunks, allocated on first use.
fn allocated(chunks: &mut Vec<i64>) -> &mut [i64; CHUNKS] {
    if chunks.is_empty() {
        *chunks = vec![0; CHUNKS];
    }
    chunks.as_mut_slice().try_into().expect("CHUNKS long")
}

/// Add the finite `f64` with these bits to the chunks: its significand
/// lands on two of them.
#[inline(never)]
fn add_outside(chunks: &mut Vec<i64>, bits: u64) {
    if bits << 1 == 0 {
        return; // ±0
    }
    let exp = (bits >> 52) as usize & 0x7ff;
    // `x = ±mant · 2^(shift − 1074)`, subnormals included.
    let mant = (bits & ((1 << 52) - 1)) | (u64::from(exp != 0) << 52);
    let shift = exp.max(1) - 1;
    let (k, low) = (shift / 32, shift % 32);
    let neg = (bits as i64) >> 63;
    let chunks = allocated(chunks);
    chunks[k] += ((((mant << low) as i64) & DIGIT_MASK) ^ neg) - neg;
    chunks[k + 1] += (((mant >> (32 - low)) as i64) ^ neg) - neg;
}

#[cold]
#[inline(never)]
fn carry_window(chunks: &mut Vec<i64>, window: i128) {
    let chunks = allocated(chunks);
    spread(window, chunks);
    carry(chunks);
}

/// Add `window` to the chunks as three digits and a signed top.
fn spread(window: i128, chunks: &mut [i64; CHUNKS]) {
    for i in 0..3 {
        chunks[WINDOW_CHUNK + i] += (window >> (32 * i)) as i64 & DIGIT_MASK;
    }
    chunks[WINDOW_CHUNK + 3] += (window >> 96) as i64;
}

/// Bring every chunk but the last into `0..2³²`, moving the rest up: the
/// value is unchanged, and the last chunk carries its sign.
fn carry(chunks: &mut [i64; CHUNKS]) {
    let mut c = 0;
    for d in &mut chunks[..CHUNKS - 1] {
        let v = *d + c;
        *d = v & DIGIT_MASK;
        c = v >> 32;
    }
    chunks[CHUNKS - 1] += c;
}

/// The weight of chunk `k`'s lowest digit, 2^(32·k − 1074).
fn unit(k: usize) -> f64 {
    match 32 * k as i32 - 1074 {
        e if e >= -1022 => f64::from_bits(((e + 1023) as u64) << 52),
        e => f64::from_bits(1 << (e + 1074)),
    }
}

/// A lap stopwatch for per-round wall-clock timing.
///
/// [`Stopwatch::lap`] returns the time since the previous lap (or since
/// construction for the first lap) — the unit the models use to time each
/// EM round for the convergence trace of `FusionReport`.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    /// Start a stopwatch now.
    pub fn start() -> Self {
        Self {
            last: Instant::now(),
        }
    }

    /// Time since the previous lap (or since start), and reset the lap.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        now - std::mem::replace(&mut self.last, now)
    }
}

/// The scoped-worker primitive under every data-parallel loop: run
/// `work(scratch, i)` for `i in 0..tasks` and return the results **in
/// task order**.
///
/// Workers *pull* task indices in ascending order from a shared cursor.
/// There are at most [`num_threads`] of them, never more than tasks or
/// than `scratch` slots; each owns one slot for the whole call, so a
/// caller that keeps `scratch` across rounds keeps its buffers' capacity,
/// and a fold into the slots (say, [`ExactSum`]s merged afterwards) needs
/// no lock; `&mut vec![(); n]` when no scratch is needed. When one worker
/// suffices, everything runs inline on the calling thread.
///
/// On error the failure with the **lowest task index** (among the tasks
/// that ran before the early stop) is returned and the remaining tasks
/// are abandoned. Which worker ran which task never shows in the output,
/// so a caller that merges the `Vec<T>` sequentially is bit-for-bit
/// reproducible at any worker count.
///
/// # Panics
///
/// If `tasks > 0` and `scratch` is empty, or if `work` panics.
pub fn run_tasks<S, T, E, F>(tasks: usize, scratch: &mut [S], work: F) -> Result<Vec<T>, E>
where
    S: Send,
    T: Send,
    E: Send,
    F: Fn(&mut S, usize) -> Result<T, E> + Sync,
{
    if tasks == 0 {
        return Ok(Vec::new());
    }
    assert!(!scratch.is_empty(), "run_tasks needs a scratch slot");
    let workers = num_threads().min(tasks).min(scratch.len());
    if workers == 1 {
        let s = &mut scratch[0];
        return (0..tasks).map(|i| work(s, i)).collect();
    }

    let (cursor, stop) = (&AtomicUsize::new(0), &AtomicBool::new(false));
    let work = &work;
    let mut done: Vec<(usize, Result<T, E>)> = std::thread::scope(|scope| {
        let workers: Vec<ScopedJoinHandle<'_, _>> = (scratch.iter_mut().take(workers))
            .map(|s| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    // ordering: Relaxed — the flag is an advisory early
                    // stop, and the RMW alone makes every drawn index
                    // unique; the results travel through the join.
                    while !stop.load(Ordering::Relaxed) {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        let result = work(s, i);
                        if result.is_err() {
                            // ordering: Relaxed — see above.
                            stop.store(true, Ordering::Relaxed);
                        }
                        done.push((i, result));
                    }
                    done
                })
            })
            .collect();
        let join = |w: ScopedJoinHandle<'_, _>| w.join().unwrap_or_else(|p| resume_unwind(p));
        workers.into_iter().flat_map(join).collect()
    });
    // Every task below a failed one ran to the end, so the first error in
    // task order is the lowest-index failure.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// [`run_tasks`] for scratch-free, infallible tasks.
fn run_each<T: Send>(tasks: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let done = run_tasks(tasks, &mut vec![(); tasks], |_, i| Ok(work(i)));
    done.unwrap_or_else(|never: Infallible| match never {})
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
        let got: Result<Vec<u8>, ()> = run_tasks(0, &mut [(); 0], |_, _| Ok(0));
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
            run_tasks(64, &mut [(); 8], |_, _| Ok(std::thread::current().id()))
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
                run_tasks(100, &mut ran, |n, i| {
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
                run_tasks(97, &mut vec![(); threads], |_, i| {
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
                run_tasks(30, &mut scratch, |tmp, i| {
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
                run_tasks(1_000, &mut vec![(); threads], |_, i| {
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
