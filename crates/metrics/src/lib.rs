//! # kbt-metrics
//!
//! Evaluation metrics for KBT experiments (Section 5.1.1):
//!
//! * [`square_loss`] family — SqV (triple truthfulness), SqC (extraction
//!   correctness), SqA (source accuracy),
//! * [`wdev()`] — weighted deviation with the paper's non-uniform buckets,
//! * [`PrCurve`] / [`auc_pr`] — precision–recall curve and its area,
//! * [`calibration_curve`] — Figure 8 calibration plots,
//! * [`count_histogram`] / [`probability_histogram`] — Figures 5–7,
//! * [`pearson`] / [`spearman`] — the Figure 10 orthogonality check,
//! * [`coverage`] — the Cov metric.
//!
//! Every metric has a `_partial` variant that evaluates against a partial
//! gold standard (`Option<bool>` labels), since the LCWA gold standard of
//! Section 5.3.1 labels only a fraction of triples.

#![warn(missing_docs)]

pub mod calibration;
pub mod correlation;
pub mod hist;
pub mod pr;
pub mod square;
pub mod wdev;

pub use calibration::{calibration_curve, calibration_curve_partial, CalibrationPoint};
pub use correlation::{pearson, spearman};
pub use hist::{count_histogram, probability_histogram, Histogram};
pub use pr::{auc_pr, auc_pr_partial, PrCurve};
pub use square::{square_loss, square_loss_binary, square_loss_partial};
pub use wdev::{bucketize, paper_bucket_edges, wdev, wdev_partial, Bucket};

/// The Cov metric: the fraction of `flags` that are set.
pub fn coverage(flags: &[bool]) -> f64 {
    if flags.is_empty() {
        return 0.0;
    }
    flags.iter().filter(|&&c| c).count() as f64 / flags.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_set_flags() {
        assert_eq!(coverage(&[]), 0.0);
        assert_eq!(coverage(&[true, true, false, false]), 0.5);
        assert_eq!(coverage(&[true]), 1.0);
    }
}
