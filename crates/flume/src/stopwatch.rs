//! Phase timing for the Table 7 running-time experiment.
//!
//! The paper reports *relative* running time per pipeline phase
//! (preparation; then per-iteration: extraction correctness, triple
//! probability, source accuracy, extractor quality). [`PhaseTimer`]
//! accumulates wall-clock time per named phase across repeated runs and can
//! normalize against a reference total, reproducing the structure of
//! Table 7.

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

/// Accumulates wall-clock durations by phase name.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    phases: Vec<(String, Duration)>,
}

impl PhaseTimer {
    /// Create an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time `f`, charging its duration to `phase`.
    pub fn time<R>(&mut self, phase: &str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.add(phase, t0.elapsed());
        r
    }

    /// Charge an externally measured duration to `phase`.
    pub fn add(&mut self, phase: &str, d: Duration) {
        match self.phases.iter_mut().find(|(n, _)| n == phase) {
            Some((_, total)) => *total += d,
            None => self.phases.push((phase.to_string(), d)),
        }
    }

    /// Total accumulated duration of `phase`, if recorded.
    pub fn total(&self, phase: &str) -> Option<Duration> {
        self.phases
            .iter()
            .find(|(n, _)| n == phase)
            .map(|(_, d)| *d)
    }

    /// Sum of all phase totals.
    pub fn grand_total(&self) -> Duration {
        self.phases.iter().map(|(_, d)| *d).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_by_phase() {
        let mut t = PhaseTimer::new();
        t.add("prep", Duration::from_millis(10));
        t.add("prep", Duration::from_millis(20));
        t.add("iter", Duration::from_millis(5));
        assert_eq!(t.total("prep"), Some(Duration::from_millis(30)));
        assert_eq!(t.grand_total(), Duration::from_millis(35));
        assert_eq!(t.total("missing"), None);
    }

    #[test]
    fn time_charges_the_closure() {
        let mut t = PhaseTimer::new();
        let v = t.time("work", || 41 + 1);
        assert_eq!(v, 42);
        assert!(t.total("work").is_some());
    }
}
