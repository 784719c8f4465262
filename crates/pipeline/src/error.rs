//! Typed pipeline errors.
//!
//! The pipeline once turned every misuse into a panic — acceptable for a
//! batch CLI, fatal for an always-on serving process where one
//! misconfigured `SplitMergeConfig` would abort the whole trust server.
//! Its entry points ([`TrustPipeline::try_run`](crate::TrustPipeline::try_run),
//! [`TrustPipeline::into_session`](crate::TrustPipeline::into_session))
//! return this error instead; there are no panicking wrappers.
//!
//! Most variants are misuse. [`PipelineError::SessionInit`] and
//! [`PipelineError::SessionPostHocCopy`] are deliberate refusals: a
//! session owns its warm starts and runs no post-hoc stage, so either
//! combination would be silently wrong, not merely unbuilt.

use kbt_granularity::SplitMergeConfig;

/// Everything that can go wrong assembling or validating a
/// [`TrustPipeline`](crate::TrustPipeline) before inference starts.
///
/// Inference itself fails only on chunk-store I/O
/// ([`PipelineError::StreamedIo`]): EM is bounded by `max_iterations` and
/// every estimator clamps its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PipelineError {
    /// Neither `.observations(..)` nor `.cube(..)` was provided.
    EmptyInput,
    /// `.granularity(..)` was combined with `.cube(..)`, whose sources
    /// are already fixed.
    GranularityOnCube,
    /// `.reserve_ids(..)` was combined with `.granularity(..)`;
    /// regrouping reassigns source ids, so the reservation would be
    /// silently wrong.
    ReserveWithGranularity,
    /// `.reserve_ids(..)` was combined with `.cube(..)`, whose id spaces
    /// are already fixed.
    ReserveOnCube,
    /// The `SplitMergeConfig` is unsatisfiable (`min_size` exceeds
    /// `max_size`): SPLITANDMERGE would split every merge product back
    /// below the minimum forever. Previously this aborted the process via
    /// an `assert!` inside `split_and_merge`.
    InvalidSplitMerge {
        /// The configured minimum working-source size `m`.
        min_size: usize,
        /// The configured maximum working-source size `M`.
        max_size: usize,
    },
    /// `.granularity(..)` cannot feed a
    /// [`FusionSession`](crate::FusionSession): SPLITANDMERGE reassigns
    /// working-source ids per corpus, so a delta that changes the
    /// split/merge outcome would silently misalign the session's
    /// warm-start priors and independence factors with the new id space.
    GranularitySession,
    /// A non-default `.init(..)` cannot seed a
    /// [`FusionSession`](crate::FusionSession), which manages its own
    /// initialization (cold `Default` first, `Resume` warm starts after).
    SessionInit,
    /// `.copy_detection(..)` with a single-layer model cannot feed a
    /// [`FusionSession`](crate::FusionSession): the single-layer engine
    /// has no per-source vote to discount, so batch pipelines attach the
    /// evidence as a post-hoc diagnostic — a stage the session does not
    /// run. Dropping the configuration silently would serve copy-blind
    /// answers that look copy-checked.
    SessionPostHocCopy,
    /// `.residency(CubeResidency::Streamed { .. })` cannot feed a
    /// [`FusionSession`](crate::FusionSession): the session refits after
    /// every delta, and writing the evolving cube's frames to disk on
    /// each refit would silently turn the serving hot path into bulk I/O.
    StreamedSession,
    /// Writing, opening, or streaming the chunk store failed. Carries the
    /// rendered `std::io::Error` (the error itself is not `Clone + Eq`).
    StreamedIo {
        /// Display rendering of the underlying I/O error.
        message: String,
    },
}

impl PipelineError {
    pub(crate) fn check_split_merge(cfg: &SplitMergeConfig) -> Result<(), Self> {
        // The exact precondition `split_and_merge` asserts.
        if cfg.min_size > cfg.max_size.max(1) {
            return Err(Self::InvalidSplitMerge {
                min_size: cfg.min_size,
                max_size: cfg.max_size,
            });
        }
        Ok(())
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyInput => write!(
                f,
                "TrustPipeline: provide .observations(..) or .cube(..) before .try_run()"
            ),
            Self::GranularityOnCube => write!(
                f,
                "TrustPipeline: .granularity(..) needs raw .observations(..); \
                 a pre-built cube has already fixed its sources"
            ),
            Self::ReserveWithGranularity => write!(
                f,
                "TrustPipeline: .reserve_ids(..) cannot be combined with \
                 .granularity(..) — regrouping reassigns source ids, so the \
                 reservation would be silently wrong"
            ),
            Self::ReserveOnCube => write!(
                f,
                "TrustPipeline: .reserve_ids(..) needs raw .observations(..); \
                 a pre-built cube has already fixed its id spaces"
            ),
            Self::InvalidSplitMerge { min_size, max_size } => write!(
                f,
                "TrustPipeline: invalid SplitMergeConfig — min_size {min_size} exceeds \
                 max_size {max_size}; SPLITANDMERGE needs min_size <= max_size"
            ),
            Self::GranularitySession => write!(
                f,
                "TrustPipeline: .granularity(..) cannot feed a FusionSession — \
                 SPLITANDMERGE reassigns working-source ids per corpus, so \
                 warm-start priors and independence factors from a previous \
                 epoch would silently misalign once a delta changes the \
                 split/merge outcome; run granularity selection batch-style \
                 (.try_run()), or regroup upstream and feed the regrouped \
                 observations to the session"
            ),
            Self::SessionInit => write!(
                f,
                "TrustPipeline: .init(..) other than QualityInit::Default cannot \
                 seed a FusionSession — the session manages its own warm starts \
                 (cold Default first run, Resume afterwards)"
            ),
            Self::SessionPostHocCopy => write!(
                f,
                "TrustPipeline: .copy_detection(..) with a single-layer model \
                 cannot feed a FusionSession — the single layer only supports \
                 post-hoc copy evidence, a batch diagnostic the session does \
                 not run; use the multi-layer model, or run copy detection \
                 per batch via .try_run()"
            ),
            Self::StreamedSession => write!(
                f,
                "TrustPipeline: .residency(CubeResidency::Streamed) cannot \
                 feed a FusionSession — each warm refit would write the \
                 cube's frames to disk on the serving hot path; sessions run \
                 resident"
            ),
            Self::StreamedIo { message } => write!(
                f,
                "TrustPipeline: streamed fit failed on chunk-store I/O: {message}"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_merge_validation_mirrors_the_algorithm_precondition() {
        assert!(PipelineError::check_split_merge(&SplitMergeConfig::default()).is_ok());
        // min_size <= max(max_size, 1): the degenerate max_size = 0 case
        // is tolerated for min_size <= 1, exactly as split_and_merge is.
        assert!(PipelineError::check_split_merge(&SplitMergeConfig {
            min_size: 1,
            max_size: 0,
        })
        .is_ok());
        let err = PipelineError::check_split_merge(&SplitMergeConfig {
            min_size: 5,
            max_size: 2,
        })
        .unwrap_err();
        assert_eq!(
            err,
            PipelineError::InvalidSplitMerge {
                min_size: 5,
                max_size: 2
            }
        );
        assert!(err.to_string().contains("min_size 5"));
    }

    #[test]
    fn messages_keep_the_legacy_panic_wording() {
        // Callers (and the panicking wrappers' tests) match on these
        // substrings; keep them stable.
        assert!(PipelineError::EmptyInput
            .to_string()
            .contains("provide .observations"));
        assert!(PipelineError::GranularityOnCube
            .to_string()
            .contains("needs raw .observations"));
        assert!(PipelineError::ReserveWithGranularity
            .to_string()
            .contains("cannot be combined"));
    }
}
