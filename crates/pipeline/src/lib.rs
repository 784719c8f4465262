//! # kbt-pipeline
//!
//! [`TrustPipeline`]: the fluent, single entry point for the whole KBT
//! flow of Dong et al. (VLDB 2015) — observations (or a pre-built cube),
//! optional split-and-merge granularity selection (§4), one of the three
//! fusion models (§2.2/§3) on the one EM engine, optional copy detection
//! (§5.4.2), and per-run thread configuration — terminating in a unified
//! [`FusionReport`].
//!
//! ```
//! use kbt_pipeline::{Model, TrustPipeline};
//! use kbt_datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
//!
//! // Three sources claim a value for one item; one dissents.
//! let mut obs = Vec::new();
//! for w in 0..2u32 {
//!     obs.push(Observation::certain(
//!         ExtractorId::new(0), SourceId::new(w), ItemId::new(0), ValueId::new(0)));
//! }
//! obs.push(Observation::certain(
//!     ExtractorId::new(0), SourceId::new(2), ItemId::new(0), ValueId::new(1)));
//!
//! let report = TrustPipeline::new()
//!     .observations(obs)
//!     .model(Model::multi_layer())
//!     .threads(1)
//!     .try_run()?;
//! assert!(report.kbt(SourceId::new(0)) > report.kbt(SourceId::new(2)));
//! assert!(report.trace.rounds.iter().all(|r| r.delta.is_finite()));
//! # Ok::<(), kbt_pipeline::PipelineError>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod session;

pub use error::PipelineError;
pub use session::{Delta, FusionSession, WarmState};

use kbt_core::{
    detect_copies_from_accuracy, CopyDetectConfig, EmState, FusionReport, ModelConfig,
    MultiLayerModel, QualityInit, SingleLayerModel, ValueModel,
};
// Re-exported so callers configuring out-of-core runs need no direct
// kbt-core import for the residency knob.
pub use kbt_core::CubeResidency;
use kbt_datamodel::{CubeBuilder, Observation, ObservationCube};
use kbt_granularity::hierarchy::SourceKey;
use kbt_granularity::regroup_cube;
// Re-exported so pipeline/serve callers need no direct kbt-granularity
// dependency for the builder-facing granularity types.
pub use kbt_granularity::{HierKey, SplitMergeConfig, WorkingSource};

/// Which fusion engine the pipeline runs, with its configuration.
///
/// The `Accu`/`PopAccu` variants force the matching
/// [`ValueModel`] onto the configuration, so
/// `Model::PopAccu(ModelConfig::default())` does what it says even though
/// `ModelConfig::default()` carries `ValueModel::Accu`.
#[derive(Debug, Clone)]
pub enum Model {
    /// The paper's multi-layer model (§3) — the KBT estimator.
    MultiLayer(ModelConfig),
    /// Single-layer baseline under ACCU value semantics (§2.2).
    Accu(ModelConfig),
    /// Single-layer baseline under POPACCU value semantics.
    PopAccu(ModelConfig),
}

impl Model {
    /// Multi-layer model with the paper's default configuration.
    pub fn multi_layer() -> Self {
        Self::MultiLayer(ModelConfig::default())
    }

    /// Single-layer ACCU with the paper's single-layer defaults (`n=100`).
    pub fn accu() -> Self {
        Self::Accu(ModelConfig::single_layer_default())
    }

    /// Single-layer POPACCU with the paper's single-layer defaults.
    pub fn pop_accu() -> Self {
        Self::PopAccu(ModelConfig::single_layer_default())
    }

    /// The configuration carried by this variant.
    pub fn config(&self) -> &ModelConfig {
        match self {
            Self::MultiLayer(c) | Self::Accu(c) | Self::PopAccu(c) => c,
        }
    }

    /// Apply the builder's run-time settings, so they hold in whatever
    /// order the builder calls came.
    fn configure(&mut self, threads: Option<usize>, residency: Option<CubeResidency>) {
        let (Self::MultiLayer(cfg) | Self::Accu(cfg) | Self::PopAccu(cfg)) = self;
        cfg.threads = threads.or(cfg.threads);
        if let Some(residency) = residency {
            cfg.residency = residency;
        }
    }
}

impl Default for Model {
    fn default() -> Self {
        Self::multi_layer()
    }
}

/// What a [`Model::fit`] starts from beyond its [`QualityInit`].
enum Start<'a> {
    /// A batch run: the cube lives where [`ModelConfig::residency`] says.
    Batch,
    /// A [`FusionSession`] refit: resident, and warm when the session has
    /// a last fit to resume.
    Session(Option<&'a WarmState>),
}

impl Model {
    /// Fit `cube` with this model — the crate's one `Model` → engine
    /// dispatch. `Accu` / `PopAccu` run the single layer with their value
    /// model forced onto the configuration. A warm session refit runs the
    /// multi-layer model from the start its [`WarmState`] builds; the
    /// single layer resumes through `init` alone. A batch fit streams
    /// when [`ModelConfig::residency`] says so; the engine decides how.
    fn fit(
        &self,
        cube: &ObservationCube,
        init: &QualityInit,
        start: Start<'_>,
    ) -> Result<FusionReport, PipelineError> {
        let mut cfg = self.config().clone();
        let warm = match start {
            Start::Batch => None,
            Start::Session(warm) => {
                cfg.residency = CubeResidency::Resident;
                warm
            }
        };
        let io_err = |e: std::io::Error| PipelineError::StreamedIo {
            message: e.to_string(),
        };
        let value_model = match self {
            Self::MultiLayer(_) => {
                let start = warm.map(|warm| warm.start(cube, &cfg));
                let start = start.unwrap_or_else(|| EmState::start(cube, &cfg, init));
                let fit = MultiLayerModel::new(cfg).run_from(cube, start);
                return fit.map_err(io_err);
            }
            Self::Accu(_) => ValueModel::Accu,
            Self::PopAccu(_) => ValueModel::PopAccu,
        };
        let model = SingleLayerModel::new(ModelConfig { value_model, ..cfg });
        model.run_traced(cube, init).map_err(io_err)
    }
}

/// Input data of a pipeline.
#[derive(Default)]
enum Input {
    #[default]
    Empty,
    Observations(Vec<Observation>),
    Cube(ObservationCube),
}

impl Input {
    /// The cube this input fits as is (no regrouping), its id spaces
    /// grown to `reserve` (`.reserve_ids(..)`).
    fn into_cube(
        self,
        reserve: Option<(u32, u32, u32, u32)>,
    ) -> Result<ObservationCube, PipelineError> {
        match (self, reserve) {
            (Self::Empty, _) => Err(PipelineError::EmptyInput),
            (Self::Cube(_), Some(_)) => Err(PipelineError::ReserveOnCube),
            (Self::Cube(cube), None) => Ok(cube),
            (Self::Observations(obs), reserve) => {
                let mut b = CubeBuilder::from(obs);
                if let Some((w, e, d, v)) = reserve {
                    b.reserve_ids(w, e, d, v);
                }
                Ok(b.build())
            }
        }
    }
}

type KeyFn = Box<dyn Fn(usize, &Observation) -> HierKey>;

/// Everything [`TrustPipeline::try_run_detailed`] returns beyond the report.
#[derive(Debug, Clone)]
pub struct PipelineRun {
    /// The unified fusion result (same as [`TrustPipeline::try_run`]).
    pub report: FusionReport,
    /// The cube inference actually ran on (regrouped when granularity
    /// selection was enabled).
    pub cube: ObservationCube,
    /// The working sources chosen by SPLITANDMERGE, when enabled. Index =
    /// the regrouped cube's `SourceId`; `rows` hold triple ids.
    pub working_sources: Option<Vec<WorkingSource>>,
    /// Working-source id of each input observation row, when granularity
    /// selection was enabled.
    pub row_source: Option<Vec<u32>>,
}

/// Fluent builder running the full KBT flow. See the crate docs for a
/// complete example.
///
/// Stages compose in paper order; every stage except the input is
/// optional:
///
/// 1. input — [`observations`](Self::observations) or [`cube`](Self::cube)
/// 2. granularity — [`granularity`](Self::granularity) (+
///    [`source_keys`](Self::source_keys) for a real hierarchy)
/// 3. engine — [`model`](Self::model), [`init`](Self::init),
///    [`threads`](Self::threads)
/// 4. diagnostics — [`copy_detection`](Self::copy_detection)
/// 5. [`try_run`](Self::try_run) → [`FusionReport`]
#[derive(Default)]
pub struct TrustPipeline {
    input: Input,
    reserve: Option<(u32, u32, u32, u32)>,
    model: Model,
    init: QualityInit,
    granularity: Option<SplitMergeConfig>,
    keys: Option<KeyFn>,
    copy: Option<CopyDetectConfig>,
    threads: Option<usize>,
    residency: Option<CubeResidency>,
}

impl TrustPipeline {
    /// An empty pipeline: multi-layer model, default init, no granularity
    /// regrouping, ambient threading.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed raw observations. Enables [`granularity`](Self::granularity).
    pub fn observations(mut self, obs: Vec<Observation>) -> Self {
        self.input = Input::Observations(obs);
        self
    }

    /// Reserve dense id spaces `(sources, extractors, items, values)`
    /// beyond those mentioned by the observations — for corpora where
    /// trailing ids cast no votes. Needs [`observations`](Self::observations)
    /// input, before or after this call; a [`cube`](Self::cube) has fixed
    /// its id spaces ([`PipelineError::ReserveOnCube`]), and
    /// [`granularity`](Self::granularity) reassigns source ids
    /// ([`PipelineError::ReserveWithGranularity`]).
    pub fn reserve_ids(mut self, sources: u32, extractors: u32, items: u32, values: u32) -> Self {
        self.reserve = Some((sources, extractors, items, values));
        self
    }

    /// Feed a pre-built cube (granularity regrouping unavailable: the cube
    /// has already fixed its sources).
    pub fn cube(mut self, cube: ObservationCube) -> Self {
        self.input = Input::Cube(cube);
        self
    }

    /// Regroup sources with SPLITANDMERGE (Algorithm 2) before inference.
    ///
    /// Requires [`observations`](Self::observations) input. Unless
    /// [`source_keys`](Self::source_keys) provides the source hierarchy,
    /// each original source is treated as its own top-level website key —
    /// oversized sources still split, but nothing can merge upward.
    pub fn granularity(mut self, cfg: SplitMergeConfig) -> Self {
        self.granularity = Some(cfg);
        self
    }

    /// Provide each observation's finest-granularity source key for
    /// [`granularity`](Self::granularity) (e.g.
    /// `⟨website, predicate, webpage⟩` from a corpus).
    pub fn source_keys(mut self, key: impl Fn(usize, &Observation) -> HierKey + 'static) -> Self {
        self.keys = Some(Box::new(key));
        self
    }

    /// Choose the fusion engine (default: [`Model::multi_layer`]).
    pub fn model(mut self, model: Model) -> Self {
        self.model = model;
        self
    }

    /// Initialize parameters (default: [`QualityInit::Default`]; use
    /// [`QualityInit::FromGold`] for the paper's `+` variants).
    pub fn init(mut self, init: QualityInit) -> Self {
        self.init = init;
        self
    }

    /// Score source pairs for copy evidence (§5.4.2); results land in
    /// [`FusionReport::copy_evidence`], sorted by score.
    ///
    /// With `cfg.discount == false` (the default) this is a post-hoc
    /// diagnostic: fusion runs copy-blind and the evidence is attached
    /// afterwards. With `cfg.discount == true` and the multi-layer model,
    /// the evidence is fed *back into fusion*: the engine runs its
    /// CopyDiscount loop (detect → independence factors → refit from the
    /// run's initialization with the dependent sources' votes
    /// down-weighted), so the reported trust scores and posteriors are
    /// themselves copy-aware. The single-layer
    /// baseline has no per-source vote to discount and always uses the
    /// post-hoc path.
    pub fn copy_detection(mut self, cfg: CopyDetectConfig) -> Self {
        self.copy = Some(cfg);
        self
    }

    /// Choose where the fit reads the cube's frames from (default: the
    /// model's [`ModelConfig::residency`], [`CubeResidency::Resident`]
    /// unless set there), before or after [`model`](Self::model).
    ///
    /// With [`CubeResidency::Streamed`] the model writes the cube's frames
    /// (the single layer's, its pair cube's) to a `KBTCHNK4` store at the
    /// given path and fits from it within the memory bound
    /// [`CubeResidency`] states. Trust scores, posteriors, copy evidence
    /// and trace are **bit-for-bit identical** to a resident run,
    /// copy-aware fusion included; only peak RSS and I/O volume change.
    pub fn residency(mut self, residency: CubeResidency) -> Self {
        self.residency = Some(residency);
        self
    }

    /// Pin the worker-thread count for this run (`0` = hardware default):
    /// building the cube, the engine and post-hoc detection.
    ///
    /// Scoped to this run and race-free (`kbt_flume::with_threads`); a
    /// run that never calls this uses the model's
    /// [`ModelConfig::threads`], else the hardware parallelism.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Run the pipeline and return the unified report. Validates the
    /// pipeline (including the [`SplitMergeConfig`], which once
    /// `assert!`-aborted deep inside SPLITANDMERGE) and returns a typed
    /// [`PipelineError`] instead of panicking.
    pub fn try_run(self) -> Result<FusionReport, PipelineError> {
        Ok(self.try_run_detailed()?.report)
    }

    /// [`try_run`](Self::try_run), also returning the inference cube and
    /// the granularity decisions — what the granularity-tuning workloads
    /// need.
    pub fn try_run_detailed(self) -> Result<PipelineRun, PipelineError> {
        // The whole run — building the cube, the engine and post-hoc
        // detection — under the engine's thread budget.
        let threads = self.threads.or(self.model.config().threads);
        kbt_flume::with_threads(threads, || self.run_configured())
    }

    fn run_configured(self) -> Result<PipelineRun, PipelineError> {
        let Self {
            input,
            reserve,
            mut model,
            init,
            granularity,
            keys,
            copy,
            threads,
            residency,
        } = self;

        // --- Stage 1+2: materialize the inference cube. ---
        let (cube, working_sources, row_source) = match (input, granularity) {
            (input, None) => (input.into_cube(reserve)?, None, None),
            (Input::Empty, Some(_)) => return Err(PipelineError::EmptyInput),
            (Input::Cube(_), Some(_)) => return Err(PipelineError::GranularityOnCube),
            (Input::Observations(obs), Some(sm)) => {
                if reserve.is_some() {
                    return Err(PipelineError::ReserveWithGranularity);
                }
                PipelineError::check_split_merge(&sm)?;
                let (cube, sources, row_source) = match keys {
                    Some(key) => regroup_cube(&obs, |i| key(i, &obs[i]), &sm),
                    // Without a hierarchy every source is its own
                    // top-level site: splits apply, merges cannot.
                    None => regroup_cube(&obs, |i| SourceKey::site(obs[i].source.0), &sm),
                };
                (cube, Some(sources), Some(row_source))
            }
        };

        // --- Stage 3: engine. ---
        model.configure(threads, residency);
        // Copy-aware fusion: hand the detector to the engine so the
        // CopyDiscount loop runs inside fusion instead of after it.
        if let (Some(c), Model::MultiLayer(cfg)) = (copy.filter(|c| c.discount), &mut model) {
            cfg.copy_detection = Some(c);
        }
        let mut report = model.fit(&cube, &init, Start::Batch)?;

        // --- Stage 4: diagnostics. ---
        // Post-hoc detection, unless the engine already produced evidence
        // through its copy-aware loop.
        if let Some(copy_cfg) = copy {
            if report.copy_evidence.is_none() {
                report.copy_evidence = Some(detect_copies_from_accuracy(
                    &cube,
                    report.source_trust(),
                    &copy_cfg,
                ));
            }
        }

        Ok(PipelineRun {
            report,
            cube,
            working_sources,
            row_source,
        })
    }

    /// Convert the configured pipeline into a long-lived
    /// [`FusionSession`] — the cold-run → delta → warm-refit lifecycle a
    /// trust-serving layer (`kbt-serve`) drives.
    ///
    /// The session inherits the pipeline's input, engine, thread budget,
    /// and copy-detection configuration (multi-layer sessions run the
    /// engine-side detector, so warm restarts re-use the independence
    /// priors). Four settings do **not** carry over and are rejected with
    /// a typed error instead of silently misbehaving:
    ///
    /// * [`granularity`](Self::granularity) —
    ///   [`PipelineError::GranularitySession`]. SPLITANDMERGE assigns
    ///   working-source ids from the *current* corpus; a delta that
    ///   changes a split or merge outcome renumbers them, and the
    ///   session's warm-start priors and independence factors (indexed by
    ///   source id) would silently score the wrong sources.
    /// * a non-default [`init`](Self::init) —
    ///   [`PipelineError::SessionInit`]; the session owns initialization.
    /// * [`copy_detection`](Self::copy_detection) combined with a
    ///   single-layer model — [`PipelineError::SessionPostHocCopy`]; the
    ///   single layer only supports the post-hoc diagnostic stage, which
    ///   the session does not run.
    /// * [`residency`](Self::residency) of
    ///   [`CubeResidency::Streamed`] — [`PipelineError::StreamedSession`];
    ///   each warm refit would write the evolving cube's frames to disk on
    ///   the serving hot path.
    pub fn into_session(self) -> Result<FusionSession, PipelineError> {
        let Self {
            input,
            reserve,
            mut model,
            init,
            granularity,
            keys: _,
            copy,
            threads,
            residency,
        } = self;
        if granularity.is_some() {
            return Err(PipelineError::GranularitySession);
        }
        if !matches!(init, QualityInit::Default) {
            return Err(PipelineError::SessionInit);
        }
        model.configure(threads, residency);
        if matches!(model.config().residency, CubeResidency::Streamed { .. }) {
            return Err(PipelineError::StreamedSession);
        }
        // Engine-side copy detection: the multi-layer session attaches
        // evidence (and, with `discount`, runs copy-aware refits whose
        // independence factors the next warm restart re-uses). The
        // single-layer baseline has no per-source vote to discount and
        // only supports the post-hoc diagnostic, which sessions do not
        // run — reject rather than silently serving copy-blind answers.
        if let Some(c) = &copy {
            match &mut model {
                Model::MultiLayer(cfg) => cfg.copy_detection = Some(*c),
                Model::Accu(_) | Model::PopAccu(_) => {
                    return Err(PipelineError::SessionPostHocCopy)
                }
            }
        }
        let cube = kbt_flume::with_threads(model.config().threads, || input.into_cube(reserve))?;
        Ok(FusionSession::new(cube, model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_datamodel::{ExtractorId, ItemId, SourceId, ValueId};

    fn obs(e: u32, w: u32, d: u32, v: u32) -> Observation {
        Observation::certain(
            ExtractorId::new(e),
            SourceId::new(w),
            ItemId::new(d),
            ValueId::new(v),
        )
    }

    fn consensus() -> Vec<Observation> {
        let mut out = Vec::new();
        for w in 0..4u32 {
            for d in 0..10u32 {
                out.push(obs(0, w, d, d));
                out.push(obs(1, w, d, d));
            }
        }
        out
    }

    #[test]
    fn observations_to_report() {
        let report = TrustPipeline::new()
            .observations(consensus())
            .try_run()
            .expect("pipeline runs");
        assert_eq!(report.source_trust().len(), 4);
        assert!(report.kbt(SourceId::new(0)) > 0.9);
        assert_eq!(report.coverage(), 1.0);
        assert!(report.copy_evidence.is_none());
    }

    #[test]
    fn cube_input_and_observation_input_agree() {
        let obs = consensus();
        let via_cube = TrustPipeline::new()
            .cube(CubeBuilder::from(obs.clone()).build())
            .try_run()
            .expect("pipeline runs");
        let via_obs = TrustPipeline::new()
            .observations(obs)
            .try_run()
            .expect("pipeline runs");
        assert_eq!(via_cube.source_trust(), via_obs.source_trust());
        assert_eq!(via_cube.truth_of_group(), via_obs.truth_of_group());
    }

    #[test]
    fn single_layer_variants_force_value_model() {
        let accu = TrustPipeline::new()
            .observations(consensus())
            .model(Model::Accu(ModelConfig::single_layer_default()))
            .try_run()
            .expect("pipeline runs");
        // PopAccu handed a config that *claims* Accu still runs PopAccu.
        let pop = TrustPipeline::new()
            .observations(consensus())
            .model(Model::PopAccu(ModelConfig::single_layer_default()))
            .try_run()
            .expect("pipeline runs");
        assert!(accu.correctness().is_none());
        assert!(pop.correctness().is_none());
        assert_eq!(accu.source_trust().len(), 4);
        assert_eq!(pop.source_trust().len(), 4);
    }

    #[test]
    fn granularity_merges_thin_pages() {
        // 12 one-triple pages of one site; m=5 merges them all.
        let obs: Vec<Observation> = (0..12u32).map(|i| obs(0, i, i, 0)).collect();
        let run = TrustPipeline::new()
            .observations(obs)
            .source_keys(|_, o| SourceKey::page(0, 0, o.source.0))
            .granularity(SplitMergeConfig {
                min_size: 5,
                max_size: 100,
            })
            .try_run_detailed()
            .expect("pipeline runs");
        let sources = run.working_sources.expect("granularity ran");
        assert_eq!(sources.len(), 1);
        assert_eq!(run.cube.num_sources(), 1);
        assert!(run.row_source.unwrap().iter().all(|&s| s == 0));
        assert_eq!(run.report.source_trust().len(), 1);
    }

    /// Source 3 copies source 2's (unique, hence "false-looking")
    /// values; 0, 1, and 4 agree on the majority value, so their
    /// agreements are not pair-exclusive and carry no copy signal.
    fn copier() -> Vec<Observation> {
        let mut data = Vec::new();
        for d in 0..12u32 {
            for w in [0u32, 1, 4] {
                data.push(obs(0, w, d, 0));
            }
            data.push(obs(0, 2, d, 1 + d));
            data.push(obs(0, 3, d, 1 + d));
        }
        data
    }

    #[test]
    fn copy_detection_attaches_sorted_evidence() {
        let report = TrustPipeline::new()
            .observations(copier())
            .copy_detection(CopyDetectConfig::default())
            .try_run()
            .expect("pipeline runs");
        let ev = report.copy_evidence.expect("copy detection ran");
        assert!(!ev.is_empty());
        for w in ev.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let top = &ev[0];
        assert_eq!((top.a, top.b), (SourceId::new(2), SourceId::new(3)));
    }

    #[test]
    fn threads_override_is_result_invariant() {
        let serial = TrustPipeline::new()
            .observations(consensus())
            .threads(1)
            .try_run()
            .expect("pipeline runs");
        let wide = TrustPipeline::new()
            .observations(consensus())
            .threads(8)
            .try_run()
            .expect("pipeline runs");
        assert_eq!(serial.source_trust(), wide.source_trust());
        assert_eq!(serial.correctness(), wide.correctness());
        assert_eq!(serial.truth_of_group(), wide.truth_of_group());
    }

    #[test]
    fn try_run_returns_typed_errors_instead_of_panicking() {
        assert_eq!(
            TrustPipeline::new().try_run().unwrap_err(),
            PipelineError::EmptyInput
        );
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 0, 0));
        assert_eq!(
            TrustPipeline::new()
                .cube(b.build())
                .granularity(SplitMergeConfig::default())
                .try_run()
                .unwrap_err(),
            PipelineError::GranularityOnCube
        );
        assert_eq!(
            TrustPipeline::new()
                .observations(consensus())
                .granularity(SplitMergeConfig::default())
                .reserve_ids(9, 0, 0, 0)
                .try_run()
                .unwrap_err(),
            PipelineError::ReserveWithGranularity
        );
        // A valid pipeline succeeds through the fallible path too, with
        // the same numbers as the panicking one.
        let a = TrustPipeline::new()
            .observations(consensus())
            .try_run()
            .expect("pipeline runs");
        let b = TrustPipeline::new()
            .observations(consensus())
            .try_run()
            .unwrap();
        assert_eq!(a.source_trust(), b.source_trust());
    }

    /// Regression: an unsatisfiable SplitMergeConfig used to abort the
    /// process via `assert!(cfg.min_size <= cfg.max_size.max(1))` deep
    /// inside `split_and_merge`; it is now a typed error.
    #[test]
    fn invalid_split_merge_config_is_a_typed_error() {
        let err = TrustPipeline::new()
            .observations(consensus())
            .granularity(SplitMergeConfig {
                min_size: 50,
                max_size: 3,
            })
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::InvalidSplitMerge {
                min_size: 50,
                max_size: 3
            }
        );
    }

    /// Regression: granularity + session warm state is rejected instead
    /// of silently misaligning priors after a delta changes the
    /// split/merge outcome.
    #[test]
    fn granularity_cannot_feed_a_session() {
        let err = TrustPipeline::new()
            .observations(consensus())
            .granularity(SplitMergeConfig::default())
            .into_session()
            .unwrap_err();
        assert_eq!(err, PipelineError::GranularitySession);
        assert!(err.to_string().contains("misalign"));
        // Non-default init is likewise rejected …
        assert_eq!(
            TrustPipeline::new()
                .observations(consensus())
                .init(QualityInit::FromGold {
                    source_accuracy: vec![Some(0.9)],
                    extractor_precision: vec![],
                    extractor_recall: vec![],
                })
                .into_session()
                .unwrap_err(),
            PipelineError::SessionInit
        );
        // … and so is single-layer copy detection, which would otherwise
        // silently drop the post-hoc diagnostic the batch path attaches.
        assert_eq!(
            TrustPipeline::new()
                .observations(consensus())
                .model(Model::Accu(ModelConfig::single_layer_default()))
                .copy_detection(CopyDetectConfig::default())
                .into_session()
                .unwrap_err(),
            PipelineError::SessionPostHocCopy
        );
        // Multi-layer copy detection does carry over.
        let mut copy_session = TrustPipeline::new()
            .observations(consensus())
            .copy_detection(CopyDetectConfig::default())
            .threads(1)
            .into_session()
            .unwrap();
        assert!(copy_session.run().copy_evidence.is_some());
        // … while the plain pipeline converts and matches a direct run.
        let mut session = TrustPipeline::new()
            .observations(consensus())
            .threads(1)
            .into_session()
            .unwrap();
        let via_session = session.run();
        let direct = TrustPipeline::new()
            .observations(consensus())
            .threads(1)
            .try_run()
            .expect("pipeline runs");
        assert_eq!(via_session.source_trust(), direct.source_trust());
        assert_eq!(via_session.truth_of_group(), direct.truth_of_group());
    }

    fn streamed_store_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kbt-pipeline-{tag}-{}.chunks", std::process::id()))
    }

    /// Every model streams bit for bit at caps 1 and 4 with copy
    /// detection on — copy-aware or post-hoc on the multi-layer model,
    /// post-hoc on the single layer — through the builder switches or, for
    /// the copy-aware multi-layer model, a `ModelConfig` set directly.
    #[test]
    fn streamed_residency_matches_resident_bitwise() {
        let path = streamed_store_path("match");
        let post_hoc = CopyDetectConfig::default();
        let aware = CopyDetectConfig {
            discount: true,
            ..post_hoc
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let pipeline = |model| {
            TrustPipeline::new()
                .observations(copier())
                .model(model)
                .threads(2)
        };
        let streamed = |p: TrustPipeline| {
            let report = p.try_run().expect("pipeline runs");
            std::fs::remove_file(&path).expect("the fit streamed from its store");
            report
        };
        let cases = [
            (Model::multi_layer(), aware),
            (Model::multi_layer(), post_hoc),
            (Model::accu(), post_hoc),
            (Model::pop_accu(), post_hoc),
        ];
        for (model, copy) in cases {
            let resident = pipeline(model.clone())
                .copy_detection(copy)
                .try_run()
                .expect("pipeline runs");
            assert!(resident.copy_evidence.is_some());
            for max_resident_chunks in [1, 4] {
                let residency = CubeResidency::Streamed {
                    path: path.clone(),
                    max_resident_chunks,
                };
                let switch = pipeline(model.clone()).copy_detection(copy);
                let mut fits = vec![streamed(switch.residency(residency.clone()))];
                if let (Model::MultiLayer(cfg), true) = (&model, copy.discount) {
                    let independence = resident.source_independence.as_deref().expect("copy-aware");
                    assert!(independence.iter().any(|&i| i < 1.0), "copier discounted");
                    let cfg = ModelConfig {
                        copy_detection: Some(copy),
                        residency,
                        ..cfg.clone()
                    };
                    fits.push(streamed(pipeline(Model::MultiLayer(cfg))));
                }
                for got in fits {
                    assert_eq!(bits(resident.source_trust()), bits(got.source_trust()));
                    assert_eq!(resident.correctness(), got.correctness());
                    assert_eq!(bits(resident.truth_of_group()), bits(got.truth_of_group()));
                    assert_eq!(resident.posteriors, got.posteriors);
                    assert_eq!(resident.source_independence, got.source_independence);
                    assert_eq!(resident.copy_evidence, got.copy_evidence);
                    assert_eq!(resident.trace.rounds.len(), got.trace.rounds.len());
                }
            }
        }
    }

    /// A store path in a directory that does not exist.
    fn unwritable() -> CubeResidency {
        CubeResidency::Streamed {
            path: std::env::temp_dir().join("kbt-no-such-dir/store.chunks"),
            max_resident_chunks: 1,
        }
    }

    #[test]
    fn streamed_residency_rejects_unsupported_combinations() {
        let streamed = CubeResidency::Streamed {
            path: streamed_store_path("reject"),
            max_resident_chunks: 2,
        };
        assert_eq!(
            TrustPipeline::new()
                .observations(consensus())
                .residency(streamed)
                .into_session()
                .unwrap_err(),
            PipelineError::StreamedSession
        );
        // An unwritable store path is a typed I/O error, not a panic.
        let err = TrustPipeline::new()
            .observations(consensus())
            .residency(unwritable())
            .try_run()
            .unwrap_err();
        assert!(
            matches!(err, PipelineError::StreamedIo { .. }),
            "got {err:?}"
        );
    }

    /// Builder calls hold in any order: a residency set before
    /// `.model(..)` and a reservation made before `.observations(..)` are
    /// kept, and a reservation on a pre-built cube is refused, not
    /// dropped.
    #[test]
    fn builder_calls_commute() {
        for model in [Model::multi_layer(), Model::accu()] {
            let before_model = || {
                TrustPipeline::new()
                    .observations(consensus())
                    .residency(unwritable())
                    .model(model.clone())
            };
            let err = before_model().try_run().unwrap_err();
            assert!(matches!(err, PipelineError::StreamedIo { .. }), "{err:?}");
            let err = before_model().into_session().unwrap_err();
            assert_eq!(err, PipelineError::StreamedSession);
        }
        let sources = |p: TrustPipeline| p.try_run().unwrap().source_trust().len();
        let reserved = TrustPipeline::new().reserve_ids(9, 0, 0, 0);
        assert_eq!(sources(reserved.observations(consensus())), 9);
        let reserved = TrustPipeline::new().observations(consensus());
        assert_eq!(sources(reserved.reserve_ids(9, 0, 0, 0)), 9);
        let cube = TrustPipeline::new()
            .observations(consensus())
            .try_run_detailed()
            .expect("pipeline runs");
        let on_cube = TrustPipeline::new().cube(cube.cube).reserve_ids(9, 0, 0, 0);
        assert_eq!(on_cube.try_run().unwrap_err(), PipelineError::ReserveOnCube);
    }
}
