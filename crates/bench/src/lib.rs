//! # kbt-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 5). Each experiment is a binary under `src/bin/`
//! (e.g. `fig3`, `table5`) printing the same rows/series the paper
//! reports. Beside them sit `em_scale` (the one scale drill) and
//! `bench_compare` (the exact-field gate over `BENCH_*.json`); timings
//! live in `benchmark/` at the repository root, not here.

#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod table;

pub use report::BenchReport;
