//! The unified fusion interface: [`FusionModel`] and [`FusionReport`].
//!
//! The two inference engines of this crate historically exposed
//! incompatible result shapes — [`MultiLayerResult::kbt`] versus
//! `SingleLayerResult::source_accuracy[w]` — which forced every caller to
//! special-case the model it ran. [`FusionModel::fit`] runs either engine
//! and returns a [`FusionReport`] with one uniform surface: per-source
//! trust ([`FusionReport::kbt`]), value posteriors, per-group truth and
//! coverage, extractor quality where the model estimates it, and a
//! per-iteration [`ConvergenceTrace`] (parameter delta, pseudo
//! log-likelihood, wall time per EM round).
//!
//! The model-specific result structs remain available through
//! [`FusionReport::detail`] for callers that need engine internals.

use std::time::Duration;

use kbt_datamodel::{ObservationCube, SourceId};

use crate::config::{CubeResidency, ModelConfig};
use crate::copydetect::CopyEvidence;
use crate::multi_layer::{MultiLayerModel, MultiLayerResult};
use crate::params::QualityInit;
use crate::posterior::ItemPosteriors;
use crate::single_layer::{SingleLayerModel, SingleLayerResult};

/// One EM round of the convergence trace.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationTrace {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Largest absolute parameter change in this round (the Algorithm 1
    /// line 7 statistic; compared against `convergence_eps`).
    pub delta: f64,
    /// Pseudo log-likelihood after the round: the summed log-probability
    /// the model assigns to its own MAP labeling of the latent variables
    /// (extraction correctness and triple truth). A diagnostic confidence
    /// energy in `(-inf, 0]` that approaches 0 as posteriors sharpen — not
    /// the marginal data likelihood.
    pub log_likelihood: f64,
    /// Wall-clock time of the round, measured with
    /// [`kbt_flume::Stopwatch`].
    pub wall: Duration,
}

/// Cumulative wall-clock time per EM stage across all rounds — the
/// per-stage breakdown the `em_scale` bench reports. The single-layer
/// baseline runs the same loop with the extraction layer off, so its
/// vote, correctness, extractor and α stages stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageWall {
    /// The `ChunkedCube::from_cube` gather plus its chunk skeleton (once
    /// per fit from a cube — `run_streamed` reads a pre-chunked store);
    /// for the single layer, the pair-cube reshape as well.
    pub chunking: Duration,
    /// Vote-table rebuilds (Eqs. 12–14).
    pub votes: Duration,
    /// Correctness E-step (Eqs. 15, 26, 31).
    pub correctness: Duration,
    /// Value E-step (Eqs. 23–25).
    pub values: Duration,
    /// Source-accuracy M-step (Eq. 28).
    pub source_update: Duration,
    /// Extractor-quality M-step (Eqs. 32–33 + Eq. 7).
    pub extractor_update: Duration,
    /// α re-estimation (Eq. 26).
    pub alpha: Duration,
    /// Pseudo log-likelihood fold.
    pub log_likelihood: Duration,
}

/// Per-iteration diagnostics of one inference run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceTrace {
    /// One entry per EM round actually performed, in order.
    pub rounds: Vec<IterationTrace>,
    /// Whether the run stopped because deltas fell below the threshold
    /// (as opposed to exhausting `max_iterations`).
    pub converged: bool,
    /// Cumulative per-stage wall-clock breakdown.
    pub stage_wall: StageWall,
}

impl ConvergenceTrace {
    /// Delta of the final round, if any round ran.
    pub fn final_delta(&self) -> Option<f64> {
        self.rounds.last().map(|r| r.delta)
    }

    /// Total wall-clock time across all rounds.
    pub fn total_wall(&self) -> Duration {
        self.rounds.iter().map(|r| r.wall).sum()
    }
}

/// Which engine produced a [`FusionReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's multi-layer model (Section 3).
    MultiLayer,
    /// The single-layer ACCU/POPACCU baseline (Section 2.2).
    SingleLayer,
}

/// Engine-specific result, preserved in full inside a [`FusionReport`].
#[derive(Debug, Clone)]
pub enum FusionDetail {
    /// Output of [`MultiLayerModel`].
    MultiLayer(MultiLayerResult),
    /// Output of [`SingleLayerModel`].
    SingleLayer(SingleLayerResult),
}

/// The unified result of a fusion run, independent of the engine.
///
/// ```
/// use kbt_core::{FusionModel, ModelConfig, MultiLayerModel, QualityInit};
/// use kbt_datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId};
///
/// let mut b = CubeBuilder::new();
/// for w in 0..3u32 {
///     b.push(Observation::certain(
///         ExtractorId::new(0), SourceId::new(w), ItemId::new(0), ValueId::new(0)));
/// }
/// let cube = b.build();
/// let report = MultiLayerModel::new(ModelConfig::default()).fit(&cube, &QualityInit::Default);
/// assert!(report.kbt(SourceId::new(0)) > 0.5);
/// assert_eq!(report.trace.rounds.len(), report.iterations());
/// assert!(report.trace.rounds.iter().all(|r| r.log_likelihood <= 0.0));
/// ```
///
/// The large result arrays live once, inside [`FusionReport::detail`];
/// the uniform accessors below borrow through it, so building a report
/// copies nothing.
#[derive(Debug, Clone)]
pub struct FusionReport {
    /// Which engine ran.
    pub model: ModelKind,
    /// Per-iteration diagnostics.
    pub trace: ConvergenceTrace,
    /// Copy-detection evidence, when a pipeline ran it (sorted by score).
    pub copy_evidence: Option<Vec<CopyEvidence>>,
    /// The engine-specific result, in full.
    pub detail: FusionDetail,
    /// Per-source activity for the single layer, derived from pair
    /// activity at construction (the multi-layer result carries its own).
    single_layer_active: Vec<bool>,
}

impl FusionReport {
    /// The trust score of source `w` (its estimated accuracy `A_w`).
    pub fn kbt(&self, w: SourceId) -> f64 {
        self.source_trust()[w.index()]
    }

    /// Per-source trust — the KBT score under the multi-layer model, the
    /// claim-weighted pair-accuracy mean under the single layer.
    pub fn source_trust(&self) -> &[f64] {
        match &self.detail {
            FusionDetail::MultiLayer(r) => &r.params.source_accuracy,
            FusionDetail::SingleLayer(r) => &r.source_accuracy,
        }
    }

    /// Whether each source had enough data to move off the default.
    pub fn active_source(&self) -> &[bool] {
        match &self.detail {
            FusionDetail::MultiLayer(r) => &r.active_source,
            FusionDetail::SingleLayer(_) => &self.single_layer_active,
        }
    }

    /// Posterior `p(V_d | X)` per item.
    pub fn posteriors(&self) -> &ItemPosteriors {
        match &self.detail {
            FusionDetail::MultiLayer(r) => &r.posteriors,
            FusionDetail::SingleLayer(r) => &r.posteriors,
        }
    }

    /// `p(V_d = v(g) | X)` per cube group.
    pub fn truth_of_group(&self) -> &[f64] {
        match &self.detail {
            FusionDetail::MultiLayer(r) => &r.truth_of_group,
            FusionDetail::SingleLayer(r) => &r.truth_of_group,
        }
    }

    /// Coverage flag per cube group.
    pub fn covered_group(&self) -> &[bool] {
        match &self.detail {
            FusionDetail::MultiLayer(r) => &r.covered_group,
            FusionDetail::SingleLayer(r) => &r.covered_group,
        }
    }

    /// `p(C_wdv = 1 | X)` per group — extraction correctness. `None` for
    /// the single-layer model, which has no extraction layer.
    pub fn correctness(&self) -> Option<&[f64]> {
        match &self.detail {
            FusionDetail::MultiLayer(r) => Some(&r.correctness),
            FusionDetail::SingleLayer(_) => None,
        }
    }

    /// Extractor precision `P_e`. `None` for the single-layer model.
    pub fn extractor_precision(&self) -> Option<&[f64]> {
        match &self.detail {
            FusionDetail::MultiLayer(r) => Some(&r.params.precision),
            FusionDetail::SingleLayer(_) => None,
        }
    }

    /// Extractor recall `R_e`. `None` for the single-layer model.
    pub fn extractor_recall(&self) -> Option<&[f64]> {
        match &self.detail {
            FusionDetail::MultiLayer(r) => Some(&r.params.recall),
            FusionDetail::SingleLayer(_) => None,
        }
    }

    /// EM iterations actually performed.
    pub fn iterations(&self) -> usize {
        match &self.detail {
            FusionDetail::MultiLayer(r) => r.iterations,
            FusionDetail::SingleLayer(r) => r.iterations,
        }
    }

    /// Whether parameters converged before the iteration cap.
    pub fn converged(&self) -> bool {
        match &self.detail {
            FusionDetail::MultiLayer(r) => r.converged,
            FusionDetail::SingleLayer(r) => r.converged,
        }
    }

    /// Fraction of covered triple groups (the Cov metric of §5.1.1).
    pub fn coverage(&self) -> f64 {
        match &self.detail {
            FusionDetail::MultiLayer(r) => r.coverage(),
            FusionDetail::SingleLayer(r) => r.coverage(),
        }
    }

    /// Per-source copy-independence factors `I(w)` the final fit ran
    /// with — `None` for copy-blind runs and for the single-layer model.
    /// This is the factor a serving snapshot exports next to the trust
    /// scores: `trust × independence` is the discounted voting weight.
    pub fn source_independence(&self) -> Option<&[f64]> {
        match &self.detail {
            FusionDetail::MultiLayer(r) => r.source_independence.as_deref(),
            FusionDetail::SingleLayer(_) => None,
        }
    }

    /// The multi-layer internals, if that engine ran.
    pub fn as_multi_layer(&self) -> Option<&MultiLayerResult> {
        match &self.detail {
            FusionDetail::MultiLayer(r) => Some(r),
            FusionDetail::SingleLayer(_) => None,
        }
    }

    /// The single-layer internals, if that engine ran.
    pub fn as_single_layer(&self) -> Option<&SingleLayerResult> {
        match &self.detail {
            FusionDetail::SingleLayer(r) => Some(r),
            FusionDetail::MultiLayer(_) => None,
        }
    }

    /// Build a report from a multi-layer run (the result is moved into
    /// [`FusionReport::detail`]; copy-aware runs surface their evidence
    /// directly in [`FusionReport::copy_evidence`]).
    pub fn from_multi_layer(mut result: MultiLayerResult, trace: ConvergenceTrace) -> Self {
        Self {
            model: ModelKind::MultiLayer,
            trace,
            copy_evidence: result.copy_evidence.take(),
            detail: FusionDetail::MultiLayer(result),
            single_layer_active: Vec::new(),
        }
    }

    /// Build a report from a single-layer run. Per-source activity is
    /// derived from pair activity: a source is active if any of its
    /// (source, extractor) pairs is.
    pub fn from_single_layer(
        num_sources: usize,
        result: SingleLayerResult,
        trace: ConvergenceTrace,
    ) -> Self {
        let mut active_source = vec![false; num_sources];
        for (pid, (w, _)) in result.pairs.iter().enumerate() {
            if result.active_pair[pid] {
                active_source[w.index()] = true;
            }
        }
        Self {
            model: ModelKind::SingleLayer,
            trace,
            copy_evidence: None,
            detail: FusionDetail::SingleLayer(result),
            single_layer_active: active_source,
        }
    }
}

/// A fusion engine: fit the cube, return the unified report.
///
/// Implemented by [`MultiLayerModel`] and [`SingleLayerModel`]; the
/// report wraps the engines' `run_traced` results unchanged (the
/// `pipeline_equivalence` integration tests assert this).
pub trait FusionModel {
    /// Run inference on `cube` starting from `init`.
    fn fit(&self, cube: &ObservationCube, init: &QualityInit) -> FusionReport;
}

/// `cfg` kept resident: both models' `fit` ignore its residency, so they
/// cannot fail.
fn resident(cfg: &ModelConfig) -> ModelConfig {
    ModelConfig {
        residency: CubeResidency::Resident,
        ..cfg.clone()
    }
}

impl FusionModel for MultiLayerModel {
    fn fit(&self, cube: &ObservationCube, init: &QualityInit) -> FusionReport {
        let fit = Self::new(resident(self.config())).run_traced(cube, init);
        let (result, trace) = fit.expect("a resident fit cannot fail");
        FusionReport::from_multi_layer(result, trace)
    }
}

impl FusionModel for SingleLayerModel {
    fn fit(&self, cube: &ObservationCube, init: &QualityInit) -> FusionReport {
        let fit = Self::new(resident(self.config())).run_traced(cube, init);
        let (result, trace) = fit.expect("a resident fit cannot fail");
        FusionReport::from_single_layer(cube.num_sources(), result, trace)
    }
}

/// Pseudo log-likelihood term for one posterior probability `p`: the log
/// of the probability mass on the MAP side, `ln max(p, 1-p)`, clamped away
/// from zero.
pub(crate) fn map_confidence_ll(p: f64) -> f64 {
    p.max(1.0 - p).max(f64::MIN_POSITIVE).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelConfig;
    use kbt_datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, ValueId};

    fn consensus_cube() -> ObservationCube {
        let mut b = CubeBuilder::new();
        for w in 0..4u32 {
            for d in 0..12u32 {
                for e in 0..2u32 {
                    b.push(Observation::certain(
                        ExtractorId::new(e),
                        SourceId::new(w),
                        ItemId::new(d),
                        ValueId::new(d),
                    ));
                }
            }
        }
        b.build()
    }

    #[test]
    fn fit_matches_run_for_multilayer() {
        let cube = consensus_cube();
        let model = MultiLayerModel::new(ModelConfig::default());
        let (legacy, _) = model.run_traced(&cube, &QualityInit::Default).unwrap();
        let report = model.fit(&cube, &QualityInit::Default);
        assert_eq!(report.model, ModelKind::MultiLayer);
        assert_eq!(report.source_trust(), legacy.params.source_accuracy);
        assert_eq!(report.correctness(), Some(&legacy.correctness[..]));
        assert_eq!(report.truth_of_group(), legacy.truth_of_group);
        assert_eq!(report.iterations(), legacy.iterations);
        assert_eq!(report.converged(), legacy.converged);
        assert_eq!(report.trace.rounds.len(), report.iterations());
        assert_eq!(report.trace.converged, report.converged());
        assert!(report.as_multi_layer().is_some());
        assert!(report.as_single_layer().is_none());
    }

    #[test]
    fn fit_matches_run_for_singlelayer() {
        let cube = consensus_cube();
        let model = SingleLayerModel::new(ModelConfig::single_layer_default());
        let (legacy, _) = model.run_traced(&cube, &QualityInit::Default).unwrap();
        let report = model.fit(&cube, &QualityInit::Default);
        assert_eq!(report.model, ModelKind::SingleLayer);
        assert_eq!(report.source_trust(), legacy.source_accuracy);
        assert!(report.correctness().is_none());
        assert!(report.extractor_precision().is_none());
        assert_eq!(report.truth_of_group(), legacy.truth_of_group);
        // Every source with an active pair is active.
        assert!(report.active_source().iter().all(|&a| a));
    }

    #[test]
    fn trace_records_time_delta_and_likelihood() {
        let cube = consensus_cube();
        let report = MultiLayerModel::new(ModelConfig::default()).fit(&cube, &QualityInit::Default);
        assert!(!report.trace.rounds.is_empty());
        for (i, r) in report.trace.rounds.iter().enumerate() {
            assert_eq!(r.iteration, i + 1);
            assert!(r.delta.is_finite() && r.delta >= 0.0);
            assert!(r.log_likelihood.is_finite() && r.log_likelihood <= 0.0);
        }
        assert_eq!(
            report.trace.final_delta(),
            report.trace.rounds.last().map(|r| r.delta)
        );
        let total = report.trace.total_wall();
        assert!(total >= report.trace.rounds[0].wall);
    }

    #[test]
    fn coverage_and_kbt_accessors_are_uniform() {
        let cube = consensus_cube();
        let multi = MultiLayerModel::new(ModelConfig::default()).fit(&cube, &QualityInit::Default);
        let single = SingleLayerModel::new(ModelConfig::single_layer_default())
            .fit(&cube, &QualityInit::Default);
        for report in [&multi, &single] {
            assert_eq!(report.coverage(), 1.0);
            for w in 0..cube.num_sources() {
                let t = report.kbt(SourceId::new(w as u32));
                assert!((0.0..=1.0).contains(&t));
            }
        }
    }
}
