//! Lap timing for the EM rounds and stages.

use std::time::{Duration, Instant};

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
        let d = now - self.last;
        self.last = now;
        d
    }
}
