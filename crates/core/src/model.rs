//! The unified fusion interface: [`FusionModel`] and [`FusionReport`].
//!
//! Both engines of this crate run the one EM loop and write one result:
//! [`FusionModel::fit`] runs either and returns a [`FusionReport`] —
//! per-source trust ([`FusionReport::kbt`]), value posteriors, per-group
//! truth and coverage, extractor quality where the model estimates it,
//! and a per-iteration [`ConvergenceTrace`] (parameter delta, pseudo
//! log-likelihood, wall time per EM round). What only one model produces
//! sits in one `Option` per model: [`FusionReport::extraction`] and
//! [`FusionReport::pair_sources`].

use std::time::Duration;

use kbt_datamodel::{ExtractorId, ObservationCube, SourceId};

use crate::config::{CubeResidency, ModelConfig};
use crate::copydetect::CopyEvidence;
use crate::multi_layer::{EmState, MultiLayerModel};
use crate::params::{Params, QualityInit};
use crate::posterior::ItemPosteriors;
use crate::single_layer::SingleLayerModel;
use crate::value::ValueLayerOutput;

/// One EM round of the convergence trace.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationTrace {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Largest absolute parameter change in this round (the Algorithm 1
    /// line 7 statistic; compared against `convergence_eps`).
    pub delta: f64,
    /// Pseudo log-likelihood after the round: `Σ ln max(c, 1 − c) + ln
    /// max(p, 1 − p)` over the rows, the log-probability of the model's own
    /// MAP labeling of correctness and truth, folded per item as one `ln Π`
    /// per block of ≤ 256 rows. A diagnostic in `(-inf, 0]` that approaches 0
    /// as posteriors sharpen — not the marginal data likelihood.
    pub log_likelihood: f64,
    /// Wall-clock time of the round, measured with
    /// [`kbt_flume::Stopwatch`].
    pub wall: Duration,
}

/// Cumulative wall-clock time per EM stage across all rounds — the
/// per-stage breakdown the `em_scale` bench reports. A fit scans the
/// frames its cube was built with, so it has no layout stage. The
/// single-layer baseline runs the same loop with the extraction layer
/// off, so its scan does no correctness work and its vote stage is the
/// value votes alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageWall {
    /// Vote-table rebuilds (Eqs. 12–14, and Eq. 19's per-source votes).
    pub votes: Duration,
    /// The round's one scan: α (Eq. 26), correctness (Eqs. 15, 31), the
    /// value E-step (Eqs. 23–25) and every row folded into the M-step and
    /// log-likelihood sums.
    pub scan: Duration,
    /// The M-steps' finish: the workers' sums merged, source accuracy
    /// (Eq. 28), extractor quality (Eqs. 32–33 + Eq. 7) and the
    /// log-likelihood.
    pub mstep: Duration,
}

/// Per-iteration diagnostics of one inference run: the one record of how
/// many rounds it took and whether it converged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConvergenceTrace {
    /// One entry per EM round actually performed, in order (summed across
    /// the copy-aware refits when [`ModelConfig::copy_detection`] is set).
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

    /// This trace continued by a `later` fit's (a copy-aware refit): its
    /// rounds follow on in number and its convergence is the run's. The
    /// stage breakdown stays this trace's.
    pub(crate) fn then(mut self, later: Self) -> Self {
        let offset = self.rounds.len();
        self.rounds.extend(later.rounds.into_iter().map(|mut r| {
            r.iteration += offset;
            r
        }));
        self.converged = later.converged;
        self
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

/// The extraction layer's per-group estimates: the multi-layer model's
/// alone.
#[derive(Debug, Clone)]
pub struct ExtractionLayer {
    /// `p(C_wdv = 1 | X)` per triple group — extraction correctness.
    pub correctness: Vec<f64>,
    /// `p(V_d = v(g) | X, C_g = 1)` per group — truthfulness conditioned
    /// on the source actually providing the triple (the Eq. 28 quantity;
    /// see `ValueLayerOutput::truth_given_provided`).
    pub truth_given_provided: Vec<f64>,
}

/// The single layer's (webpage, extractor) pair-sources.
#[derive(Debug, Clone)]
pub struct PairSources {
    /// The pair-sources, ascending (pair id order).
    pub pairs: Vec<(SourceId, ExtractorId)>,
    /// `A_s` per pair-source.
    pub pair_accuracy: Vec<f64>,
    /// Pairs with enough claims to move off the default accuracy.
    pub active_pair: Vec<bool>,
}

/// The one result of a fit, whichever engine ran: the latent estimates
/// `Z` and the parameters θ of Algorithm 1.
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
#[derive(Debug, Clone)]
pub struct FusionReport {
    /// Final parameters: `A_w` (the KBT scores), `P_e`, `R_e`, `Q_e`. The
    /// single layer has no extractor parameters: its extractor columns are
    /// empty, and `A_w` is the claim-weighted mean of page `w`'s active
    /// pair accuracies.
    pub params: Params,
    /// Posterior `p(V_d | X)` per item.
    pub posteriors: ItemPosteriors,
    /// `p(V_d = v(g) | X)` per cube group — triple truthfulness. Bit for
    /// bit `posteriors.prob(item(g), value(g))`, for every fit: both
    /// models, any residency, zero rounds included.
    pub truth_of_group: Vec<f64>,
    /// Coverage flag per group: supported by at least one active source
    /// (for the single layer, claimed by an active pair).
    pub covered_group: Vec<bool>,
    /// Whether each source had enough data for its accuracy to move off
    /// the default (for the single layer, whether any of its pairs did).
    pub active_source: Vec<bool>,
    /// Per-source independence factors `I(w)` the final E-step ran with
    /// (the CopyDiscount stage). `None` iff the fit was copy-blind: set by
    /// the copy-aware loop, and also when a (non-neutral) prior
    /// independence from a warm restart was applied without
    /// [`ModelConfig::copy_detection`] — the factors a fit actually used
    /// are always reported. A serving snapshot exports them next to the
    /// trust scores: `trust × independence` is the discounted voting weight.
    pub source_independence: Option<Vec<f64>>,
    /// Copy-detection evidence (sorted by score): the copy-aware loop's,
    /// scored with its post-refit accuracies, or a pipeline's post-hoc
    /// detection.
    pub copy_evidence: Option<Vec<CopyEvidence>>,
    /// Per-iteration diagnostics.
    pub trace: ConvergenceTrace,
    /// The extraction layer — `Some` iff the multi-layer model ran.
    pub extraction: Option<ExtractionLayer>,
    /// The pair-sources — `Some` iff the single layer ran.
    pub pair_sources: Option<PairSources>,
}

impl FusionReport {
    /// The report of a multi-layer fit that stopped at state `s`. It records
    /// the discount the fit ran with even when no copy detection is
    /// configured (e.g. a session carrying prior evidence into a model
    /// without it): a discounted fit is never indistinguishable from a
    /// copy-blind one.
    pub(crate) fn multi_layer(
        s: EmState,
        values: ValueLayerOutput,
        trace: ConvergenceTrace,
    ) -> Self {
        Self {
            params: s.params,
            posteriors: values.posteriors,
            truth_of_group: values.truth_of_group,
            covered_group: values.covered_group,
            active_source: s.active,
            source_independence: s.discount.map(|d| d.as_slice().to_vec()),
            copy_evidence: None,
            trace,
            extraction: Some(ExtractionLayer {
                correctness: s.correctness,
                truth_given_provided: values.truth_given_provided,
            }),
            pair_sources: None,
        }
    }

    /// The trust score of source `w` (its estimated accuracy `A_w`).
    pub fn kbt(&self, w: SourceId) -> f64 {
        self.params.source_accuracy[w.index()]
    }

    /// Per-source trust — the KBT score under the multi-layer model, the
    /// claim-weighted pair-accuracy mean under the single layer.
    pub fn source_trust(&self) -> &[f64] {
        &self.params.source_accuracy
    }

    /// Which engine ran: the one whose `Option` is set.
    pub fn model(&self) -> ModelKind {
        if self.extraction.is_some() {
            ModelKind::MultiLayer
        } else {
            ModelKind::SingleLayer
        }
    }

    /// The `truth_of_group` field, borrowed.
    pub fn truth_of_group(&self) -> &[f64] {
        &self.truth_of_group
    }

    /// [`ExtractionLayer::correctness`]; `None` for the single layer.
    pub fn correctness(&self) -> Option<&[f64]> {
        self.extraction.as_ref().map(|x| &x.correctness[..])
    }

    /// Extractor precision `P_e`; `None` for the single layer.
    pub fn extractor_precision(&self) -> Option<&[f64]> {
        self.extraction.as_ref().map(|_| &self.params.precision[..])
    }

    /// Extractor recall `R_e`; `None` for the single layer.
    pub fn extractor_recall(&self) -> Option<&[f64]> {
        self.extraction.as_ref().map(|_| &self.params.recall[..])
    }

    /// EM iterations actually performed ([`ConvergenceTrace::rounds`]).
    pub fn iterations(&self) -> usize {
        self.trace.rounds.len()
    }

    /// Whether parameters converged before the iteration cap.
    pub fn converged(&self) -> bool {
        self.trace.converged
    }

    /// Fraction of covered triple groups (the Cov metric of §5.1.1).
    pub fn coverage(&self) -> f64 {
        let covered = self.covered_group.iter().filter(|&&c| c).count();
        covered as f64 / self.covered_group.len().max(1) as f64
    }
}

/// A fusion engine: fit the cube, return the unified report.
///
/// Implemented by [`MultiLayerModel`] and [`SingleLayerModel`]: `fit` is
/// their `run_traced` held resident (the `pipeline_equivalence`
/// integration tests assert this).
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
        fit.expect("a resident fit cannot fail")
    }
}

impl FusionModel for SingleLayerModel {
    fn fit(&self, cube: &ObservationCube, init: &QualityInit) -> FusionReport {
        let fit = Self::new(resident(self.config())).run_traced(cube, init);
        fit.expect("a resident fit cannot fail")
    }
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
        let legacy = model.run_traced(&cube, &QualityInit::Default).unwrap();
        let report = model.fit(&cube, &QualityInit::Default);
        assert_eq!(report.model(), ModelKind::MultiLayer);
        assert_eq!(report.source_trust(), legacy.params.source_accuracy);
        assert_eq!(report.correctness(), legacy.correctness());
        assert_eq!(report.truth_of_group, legacy.truth_of_group);
        assert_eq!(report.iterations(), legacy.iterations());
        assert_eq!(report.converged(), legacy.converged());
        assert!(report.extraction.is_some());
        assert!(report.pair_sources.is_none());
    }

    #[test]
    fn fit_matches_run_for_singlelayer() {
        let cube = consensus_cube();
        let model = SingleLayerModel::new(ModelConfig::single_layer_default());
        let legacy = model.run_traced(&cube, &QualityInit::Default).unwrap();
        let report = model.fit(&cube, &QualityInit::Default);
        assert_eq!(report.model(), ModelKind::SingleLayer);
        assert_eq!(report.source_trust(), legacy.params.source_accuracy);
        assert!(report.correctness().is_none());
        assert!(report.extractor_precision().is_none());
        assert!(report.params.precision.is_empty());
        assert!(report.pair_sources.is_some());
        assert_eq!(report.truth_of_group, legacy.truth_of_group);
        // Every source with an active pair is active.
        assert!(report.active_source.iter().all(|&a| a));
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
