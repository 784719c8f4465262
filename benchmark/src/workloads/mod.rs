//! The five workloads and what they share: sizes, the engine
//! configuration, cube building, checksums and set-up timing.

pub mod fit;
pub mod ingest;
pub mod mixed;
pub mod query;

use std::path::PathBuf;
use std::time::Instant;

use kbt_core::ModelConfig;
use kbt_datamodel::{CubeBuilder, Observation, ObservationCube};
use kbt_pipeline::Model;

use crate::gen::CorpusSpec;
use crate::report::Outcome;
use crate::span::Tracer;

/// Engine worker threads, pinned: this host has 2 cores, and a result
/// that depends on threads names their number.
pub const ENGINE_THREADS: usize = 2;

/// Complete set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Claims per ingest batch and triples per retraction.
pub const BATCH_CLAIMS: u32 = 500;
pub const RETRACT_TRIPLES: usize = 100;

/// Bound on `core.kbt_mae`, fixed when the benchmark was defined (seed
/// 42 measures 0.062 at full size): mean |KBT − planted accuracy| over
/// sources with at least [`MAE_MIN_CLAIMS`] claims.
pub const KBT_MAE_BOUND: f64 = 0.10;
pub const MAE_MIN_CLAIMS: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FitResident,
    FitStreamed,
    QueryNet,
    IngestDurable,
    MixedNet,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FitResident,
        Workload::FitStreamed,
        Workload::QueryNet,
        Workload::IngestDurable,
        Workload::MixedNet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FitResident => "fit_resident",
            Workload::FitStreamed => "fit_streamed",
            Workload::QueryNet => "query_net",
            Workload::IngestDurable => "ingest_durable",
            Workload::MixedNet => "mixed_net",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Shrunken corpora for the test suite.
    pub tiny: bool,
    /// This run's private scratch directory (exists, empty, removed by
    /// the caller afterwards).
    pub workdir: PathBuf,
}

impl RunConfig {
    fn spec(&self, triples: usize, sources: u32) -> CorpusSpec {
        let shrink = if self.tiny { 50 } else { 1 };
        CorpusSpec {
            triples: triples / shrink,
            sources: (sources / shrink as u32).max(100),
            extractors: 16,
        }
    }

    /// Both fit workloads: the same corpus, so their ratio means something.
    pub fn fit_spec(&self) -> CorpusSpec {
        self.spec(1_000_000, 10_000)
    }

    /// `query_net`: a static snapshot over 200k triples.
    pub fn query_spec(&self) -> CorpusSpec {
        self.spec(200_000, 10_000)
    }

    /// `ingest_durable` and `mixed_net`: the base the deltas land on.
    pub fn ingest_spec(&self) -> CorpusSpec {
        self.spec(100_000, 5_000)
    }
}

/// The engine every workload runs: the paper's multi-layer model at its
/// defaults, worker threads pinned.
pub fn model() -> Model {
    Model::MultiLayer(ModelConfig {
        threads: Some(ENGINE_THREADS),
        ..ModelConfig::default()
    })
}

/// Observations → cube, the way every caller of the system does it.
pub fn build_cube(observations: &[Observation]) -> ObservationCube {
    let mut b = CubeBuilder::with_capacity(observations.len());
    for o in observations {
        b.push(*o);
    }
    b.build()
}

/// FNV-1a over the bit patterns of `values`: equal only for bit-for-bit
/// equal results.
pub fn checksum(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Times a workload's set-up: the first one before the window, the
/// repeats after it. `setup_s` is the median of [`SETUP_REPS`] complete
/// set-ups; the process's peak RSS is read when the window closes
/// ([`record_peak_rss`]), so it covers one set-up and the window — not
/// what five set-ups leave behind in the allocator.
pub struct SetupClock {
    first: f64,
}

impl SetupClock {
    /// Run and time the set-up the workload will use.
    pub fn first<T>(setup: impl FnOnce() -> T) -> (T, Self) {
        let t = Instant::now();
        let state = setup();
        let first = t.elapsed().as_secs_f64();
        (state, Self { first })
    }

    /// The workload is over and its state torn down: repeat the set-up
    /// (`rep` = 1, 2, …; each torn down again, untimed) and record the
    /// median.
    pub fn finish<T>(
        self,
        out: &mut Outcome,
        mut setup: impl FnMut(usize) -> T,
        mut teardown: impl FnMut(T),
    ) {
        let mut walls = vec![self.first];
        for rep in 1..SETUP_REPS {
            let t = Instant::now();
            let state = setup(rep);
            walls.push(t.elapsed().as_secs_f64());
            teardown(state);
        }
        out.set("setup_s", crate::stats::median(&mut walls), walls.len());
    }
}

/// Record the process's peak RSS. Called the moment the untraced window
/// closes: what comes after — sorting a million latency samples, layer
/// probes, repeated set-ups — is the benchmark's memory, not the
/// system's.
pub fn record_peak_rss(out: &mut Outcome) {
    let mb = crate::sys::peak_rss_mb();
    out.set("bench.peak_rss_mb", mb, 1);
    out.detail("peak_rss_mb", mb, "MB", 1);
}

/// Run one workload to completion.
pub fn run(workload: Workload, cfg: &RunConfig) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(cfg.trace, Instant::now());
    match workload {
        Workload::FitResident => fit::run(cfg, false, &mut out, &mut tracer),
        Workload::FitStreamed => fit::run(cfg, true, &mut out, &mut tracer),
        Workload::QueryNet => query::run(cfg, &mut out, &mut tracer),
        Workload::IngestDurable => ingest::run(cfg, &mut out, &mut tracer),
        Workload::MixedNet => mixed::run(cfg, &mut out, &mut tracer),
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("bench.error_rate", error_rate, out.attempted as usize);
    (out, tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_sees_single_bit_changes() {
        let a: [f64; 3] = [0.1, 0.2, 0.3];
        let mut b = a;
        b[1] = f64::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(checksum(&a), checksum(&b));
        assert_eq!(checksum(&a), checksum(&[0.1, 0.2, 0.3]));
        assert_ne!(checksum(&[0.0]), checksum(&[-0.0]));
    }

    #[test]
    fn setup_is_repeated_and_torn_down() {
        let (state, clock) = SetupClock::first(|| 0usize);
        assert_eq!(state, 0);
        let mut out = Outcome::default();
        let (mut reps, mut torn) = (Vec::new(), 0);
        clock.finish(&mut out, |rep| reps.push(rep), |()| torn += 1);
        assert_eq!(reps, (1..SETUP_REPS).collect::<Vec<_>>());
        assert_eq!(torn, SETUP_REPS - 1);
        assert_eq!(out.values["setup_s"].samples, SETUP_REPS);
        record_peak_rss(&mut out);
        assert!(out.values["bench.peak_rss_mb"].value > 0.0);
    }
}
