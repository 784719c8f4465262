//! The ordered section of `run_tasks`: commits run in task order
//! whatever order the tasks finish in, and a task that fails or panics
//! before its turn releases every waiter. Each case runs under a
//! watchdog, so a regression fails the suite instead of stalling it.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use kbt_flume::{run_tasks, with_threads};

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];
const TASKS: usize = 24;

/// Run `f` on its own thread and fail if it has not returned in time.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(limit) {
        Ok(Ok(done)) => done,
        Ok(Err(panic)) => resume_unwind(panic),
        Err(_) => panic!("the ordered section hung: no result after {limit:?}"),
    }
}

#[test]
fn commits_run_in_task_order_whatever_order_tasks_finish_in() {
    for threads in WORKER_COUNTS {
        let (log, results) = within(Duration::from_secs(30), move || {
            let log = Mutex::new(Vec::new());
            let results: Result<Vec<usize>, ()> = with_threads(Some(threads), || {
                run_tasks(TASKS, &mut vec![(); threads], |_, i, turn| {
                    // Later tasks finish first.
                    std::thread::sleep(Duration::from_micros(150 * (TASKS - i) as u64));
                    // Every third task has nothing to commit: its turn moves
                    // on when it returns.
                    if i % 3 != 1 {
                        turn.in_order(|| log.lock().unwrap().push(i));
                    }
                    Ok(i)
                })
            });
            (log.into_inner().unwrap(), results)
        });
        let want: Vec<usize> = (0..TASKS).filter(|i| i % 3 != 1).collect();
        assert_eq!(log, want, "x{threads}");
        assert_eq!(results.unwrap(), (0..TASKS).collect::<Vec<_>>());
    }
}

/// Task 1 ends badly (`how`) once every other worker is parked in front
/// of its turn; returns the sections that ran and the call's outcome.
fn run_with_a_bad_task(
    threads: usize,
    how: fn() -> Result<usize, String>,
) -> (Vec<usize>, Result<Vec<usize>, String>) {
    let log = Mutex::new(Vec::new());
    let parked = AtomicUsize::new(0);
    let results = with_threads(Some(threads), || {
        run_tasks(TASKS, &mut vec![(); threads], |_, i, turn| {
            if i == 1 {
                // Every other worker ends up waiting on a task above 1.
                let deadline = Instant::now() + Duration::from_secs(5);
                while parked.load(Ordering::SeqCst) + 1 < threads && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                return how();
            }
            if i > 1 {
                parked.fetch_add(1, Ordering::SeqCst);
            }
            turn.in_order(|| log.lock().unwrap().push(i));
            Ok(i)
        })
    });
    (log.into_inner().unwrap(), results)
}

#[test]
fn an_error_before_its_turn_releases_every_waiter() {
    for threads in WORKER_COUNTS {
        let (log, results) = within(Duration::from_secs(30), move || {
            run_with_a_bad_task(threads, || Err("task 1 failed".to_string()))
        });
        assert_eq!(results.unwrap_err(), "task 1 failed", "x{threads}");
        assert_eq!(log, [0], "x{threads}: no section runs past a failed task");
    }
}

#[test]
fn a_panic_before_its_turn_releases_every_waiter() {
    for threads in WORKER_COUNTS {
        let outcome = within(Duration::from_secs(30), move || {
            catch_unwind(|| run_with_a_bad_task(threads, || panic!("task 1 panicked")))
        });
        assert!(outcome.is_err(), "x{threads}: the panic must propagate");
    }
}
