//! Incremental fusion sessions: keep the cube and the last fit's
//! [`WarmState`] alive between runs, merge observation deltas in, and
//! warm-start EM instead of cold-restarting it.
//!
//! The paper's production pipeline re-runs at web scale as extraction
//! batches land; a batch is a small delta against a cube that has already
//! converged. [`FusionSession`] models exactly that workload on top of
//! two primitives added for it: `ObservationCube::apply_delta` (merge new
//! observations into the sorted group layout without a full re-sort) and
//! `QualityInit::Resume` (start EM from the previous run's parameters).
//! A warm re-run is not promised fewer EM rounds: on `kbt_synth::scale`'s
//! 200k-triple corpus a default-config warm refit after a 1,000-claim
//! delta runs all 5 rounds and stops at Δ 1–5·10⁻³, as a cold fit does
//! (`benchmark/`'s `pipeline.warm_rounds` reports the count).

use kbt_core::{EmState, FusionReport, ItemPosteriors, ModelConfig, Params, QualityInit};
use kbt_datamodel::{CubeBuilder, ItemId, Observation, ObservationCube, SourceId, ValueId};

use crate::{Model, Start};

/// One accepted batch on its way from a client to the cube: the shape
/// the socket, the delta log, the server's queue and crash replay all
/// carry, so what a batch *is* is decided here and nowhere else.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// New observations to merge in ([`FusionSession::update`]).
    Add(Vec<Observation>),
    /// `(source, item, value)` triples to remove
    /// ([`FusionSession::retract`]).
    Remove(Vec<(SourceId, ItemId, ValueId)>),
}

impl Delta {
    /// Number of observations or keys in the batch.
    pub fn len(&self) -> usize {
        match self {
            Self::Add(obs) => obs.len(),
            Self::Remove(keys) => keys.len(),
        }
    }

    /// `true` for a batch that carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue `self` behind `runs`, in submission order: a batch of the
    /// same kind as the last queued run extends it, anything else starts
    /// a new run. Each run becomes one [`FusionSession::apply`], so this
    /// rule fixes [`FusionSession::deltas_applied`] — and with it the
    /// snapshot fingerprint — for a given submission sequence. The live
    /// server and crash replay both queue through it; that is what makes
    /// a replayed epoch bit-identical to the one that was served.
    pub fn coalesce_into(self, runs: &mut Vec<Delta>) {
        match (runs.last_mut(), self) {
            (Some(Self::Add(run)), Self::Add(obs)) => run.extend(obs),
            (Some(Self::Remove(run)), Self::Remove(keys)) => run.extend(keys),
            (_, delta) => runs.push(delta),
        }
    }
}

/// What a fit leaves behind for the next warm refit: the session's whole
/// history, as one value.
///
/// Every field is a column of the epoch's published snapshot (`kbt-serve`
/// exports exactly these), so a checkpoint rebuilds the warm state it was
/// written under and a restored session refits bit-identically to the one
/// that never stopped ([`FusionSession::restore`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmState {
    /// The converged parameters [`QualityInit::Resume`] starts from. The
    /// single layer has no extractor parameters: its three extractor
    /// columns are empty and `source_accuracy` is what its `Resume` seeds
    /// pair accuracies from.
    pub params: Params,
    /// The fit's `p(V_d | X)`, which the next warm run's truth column is
    /// read off: a fit's `truth_of_group[g]` *is* `prob(item(g), value(g))`,
    /// bit for bit, so it needs no column here and no remapping when the
    /// cube's groups change under it.
    pub posteriors: ItemPosteriors,
    /// The independence factors `I(w)` the fit ran with — prior copy
    /// evidence, so even the first EM fit of the next warm run discounts
    /// known copiers (sources a later delta adds default to fully
    /// independent). `None` after a copy-blind fit.
    pub independence: Option<Vec<f64>>,
}

impl WarmState {
    fn of(report: &FusionReport) -> Self {
        Self {
            params: report.params.clone(),
            posteriors: report.posteriors.clone(),
            independence: report.source_independence.clone(),
        }
    }

    /// The warm restart this state resumes on `cube`: its parameters and
    /// independence factors, and its belief in each group as the truth
    /// column — `p(V_d = v(g) | X)`, uniform over the `(n_false_values +
    /// 1)`-value domain for an item it never saw (a delta added it since).
    pub(crate) fn start(&self, cube: &ObservationCube, cfg: &ModelConfig) -> EmState {
        let (known, uniform) = (
            self.posteriors.num_items(),
            1.0 / (cfg.n_false_values as f64 + 1.0),
        );
        let truth = (cube.groups().iter())
            .map(|g| match g.item.index() < known {
                true => self.posteriors.prob(g.item, g.value),
                false => uniform,
            })
            .collect();
        let start = EmState::resume(cube, cfg, self.params.clone(), truth);
        start.discounted(self.independence.as_deref().unwrap_or_default())
    }
}

/// A long-lived fusion state: the observation cube plus the
/// [`WarmState`] of the last run.
///
/// Lifecycle: **cold run → deltas → warm re-run**, repeated forever.
///
/// ```
/// use kbt_pipeline::{FusionSession, Model};
/// use kbt_datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
///
/// let obs = |w: u32, d: u32, v: u32| Observation::certain(
///     ExtractorId::new(0), SourceId::new(w), ItemId::new(d), ValueId::new(v));
/// let base: Vec<Observation> =
///     (0..3).flat_map(|w| (0..8).map(move |d| obs(w, d, 0))).collect();
///
/// let mut session = FusionSession::from_observations(base, Model::multi_layer());
/// let cold = session.run();                       // cold: QualityInit::Default
/// let delta: Vec<Observation> = (0..8).map(|d| obs(3, d, 0)).collect();
/// let warm = session.update(&delta).run();        // warm: a resumed EmState
/// assert!(warm.iterations() <= cold.iterations());
/// assert_eq!(session.cube().num_sources(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FusionSession {
    cube: ObservationCube,
    model: Model,
    /// What the next [`Self::run`] resumes from; `None` until a fit has
    /// run (or a [`Self::restore`] supplied one).
    warm: Option<WarmState>,
    deltas_applied: usize,
}

impl FusionSession {
    /// Start a session over a pre-built cube.
    pub fn new(cube: ObservationCube, model: Model) -> Self {
        Self {
            cube,
            model,
            warm: None,
            deltas_applied: 0,
        }
    }

    /// Start a session from raw observations, building the cube under
    /// the model's [`ModelConfig::threads`](kbt_core::ModelConfig).
    pub fn from_observations(obs: Vec<Observation>, model: Model) -> Self {
        let threads = model.config().threads;
        let cube = kbt_flume::with_threads(threads, || CubeBuilder::from(obs).build());
        Self::new(cube, model)
    }

    /// Rebuild a session at a published epoch — the entry point crash
    /// recovery (`kbt-store`) uses after decoding a checkpoint: the
    /// epoch's cube, the delta counter its provenance recorded, and the
    /// [`WarmState`] its snapshot kept. The restored session's next
    /// [`Self::run`] is bit-identical to the one the session that fitted
    /// the epoch would have produced.
    pub fn restore(
        cube: ObservationCube,
        model: Model,
        deltas_applied: usize,
        warm: WarmState,
    ) -> Self {
        Self {
            cube,
            model,
            warm: Some(warm),
            deltas_applied,
        }
    }

    /// The current cube (base plus every applied delta).
    pub fn cube(&self) -> &ObservationCube {
        &self.cube
    }

    /// The model this session fits with.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// What the next [`Self::run`] will warm-start from — `None` until
    /// the first run.
    pub fn warm(&self) -> Option<&WarmState> {
        self.warm.as_ref()
    }

    /// Number of deltas applied so far ([`Self::update`] batches and
    /// [`Self::retract`] batches both count).
    pub fn deltas_applied(&self) -> usize {
        self.deltas_applied
    }

    /// Merge a batch of new observations into the cube **incrementally**
    /// (delta-sort + merge-walk; the existing layout is never re-sorted),
    /// under the model's thread count. Returns `&mut self` so a delta
    /// round reads
    /// `session.update(&delta).run()`.
    pub fn update(&mut self, delta: &[Observation]) -> &mut Self {
        let threads = self.model.config().threads;
        self.cube = kbt_flume::with_threads(threads, || self.cube.apply_delta(delta));
        self.deltas_applied += 1;
        self
    }

    /// Apply a **negative delta**: remove every `(source, item, value)`
    /// triple in `retractions` from the cube (all of its extractions),
    /// e.g. because a source took a page down or an extraction pattern
    /// was fixed. Unknown triples are ignored. Runs under the model's
    /// thread count.
    ///
    /// The warm state survives untouched: it is keyed by ids, and
    /// [`ObservationCube::retract`] never shrinks the dense id spaces. A
    /// retraction that removes a value's last extraction leaves the
    /// E-step to degrade gracefully (the cube removes groups
    /// canonically), so `session.retract(&[triple]).run()` is total — the
    /// regression tests below pin this down.
    pub fn retract(&mut self, retractions: &[(SourceId, ItemId, ValueId)]) -> &mut Self {
        let threads = self.model.config().threads;
        self.cube = kbt_flume::with_threads(threads, || self.cube.retract(retractions));
        self.deltas_applied += 1;
        self
    }

    /// Apply one [`Delta`] run: [`Self::update`] or [`Self::retract`].
    pub fn apply(&mut self, delta: &Delta) -> &mut Self {
        match delta {
            Delta::Add(obs) => self.update(obs),
            Delta::Remove(keys) => self.retract(keys),
        }
    }

    /// Run fusion on the current cube: cold ([`QualityInit::Default`])
    /// while the session has no [`WarmState`], warm-started from it
    /// afterwards. The fit's own warm state is captured for the next
    /// round.
    pub fn run(&mut self) -> FusionReport {
        self.fit(true)
    }

    /// Run fusion from a cold start regardless of session history (the
    /// baseline the warm path is benchmarked against). Still captures the
    /// warm state for subsequent warm runs.
    pub fn run_cold(&mut self) -> FusionReport {
        self.fit(false)
    }

    fn fit(&mut self, resume: bool) -> FusionReport {
        let warm = self.warm.as_ref().filter(|_| resume);
        let init = warm.map_or(QualityInit::Default, |w| {
            QualityInit::Resume(w.params.clone())
        });
        let report = self
            .model
            .fit(&self.cube, &init, Start::Session(warm))
            .expect("a resident fit cannot fail");
        self.warm = Some(WarmState::of(&report));
        report
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

    fn base_corpus() -> Vec<Observation> {
        let mut out = Vec::new();
        for w in 0..5u32 {
            for d in 0..20u32 {
                for e in 0..2u32 {
                    // Source 4 dissents on every item.
                    let v = if w == 4 { 1 } else { 0 };
                    out.push(obs(e, w, d, v));
                }
            }
        }
        out
    }

    /// A deterministic mixed-accuracy corpus: EM needs several rounds to
    /// settle (no instant clamp saturation), which is what makes warm vs
    /// cold convergence comparable.
    fn noisy_corpus(items: std::ops::Range<u32>) -> Vec<Observation> {
        let mut out = Vec::new();
        for w in 0..10u32 {
            for d in items.clone() {
                // Source w errs on a (w-dependent) slice of the items.
                let errs = (w * 37 + d * 13) % 10 < w;
                let v = if errs { 3 + (w + d) % 4 } else { d % 3 };
                for e in 0..3u32 {
                    // Extractor 2 hallucinates on a sparse pattern.
                    let ev = if e == 2 && (w + d) % 7 == 0 { 7 } else { v };
                    if (w + d + e) % 5 != 0 {
                        out.push(obs(e, w, d, ev));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn session_lifecycle_cold_delta_warm() {
        let cfg = kbt_core::ModelConfig {
            max_iterations: 40,
            convergence_eps: 1e-4,
            ..kbt_core::ModelConfig::default()
        };
        let base = noisy_corpus(0..60);
        let delta = noisy_corpus(60..63); // ~5% new items
        let mut s = FusionSession::from_observations(base.clone(), Model::MultiLayer(cfg.clone()));
        assert!(s.warm().is_none());
        let cold = s.run();
        assert!(s.warm().is_some());
        assert!(cold.converged());

        let warm = s.update(&delta).run();
        assert_eq!(s.deltas_applied(), 1);
        assert_eq!(s.cube().num_items(), 63);
        assert!(warm.converged());

        // The meaningful baseline: a cold rerun on the merged cube.
        let all: Vec<Observation> = base.into_iter().chain(delta).collect();
        let cold_merged = FusionSession::from_observations(all, Model::MultiLayer(cfg)).run();
        assert!(
            warm.iterations() < cold_merged.iterations(),
            "warm {} must beat cold-merged {}",
            warm.iterations(),
            cold_merged.iterations()
        );
    }

    #[test]
    fn updated_session_matches_batch_rebuild_from_same_init() {
        let base = base_corpus();
        let delta: Vec<Observation> = (0..3u32).map(|d| obs(1, 5, d, 0)).collect();

        let mut session = FusionSession::from_observations(base.clone(), Model::multi_layer());
        session.update(&delta);
        let incremental = session.run_cold();

        let all: Vec<Observation> = base.into_iter().chain(delta).collect();
        let batch = FusionSession::from_observations(all, Model::multi_layer()).run_cold();
        assert_eq!(incremental.source_trust(), batch.source_trust());
        assert_eq!(incremental.truth_of_group(), batch.truth_of_group());
        assert_eq!(incremental.correctness(), batch.correctness());
    }

    /// Regression: two `update`s between runs used to panic when the
    /// second delta referenced an item introduced by the first — the
    /// warm start's truth column must bound known items by the warm posteriors'
    /// coverage, not by the *cube's* item count.
    #[test]
    fn consecutive_updates_before_rerun_are_safe() {
        let mut s = FusionSession::from_observations(base_corpus(), Model::multi_layer());
        s.run();
        // First delta introduces item 20 (one source).
        s.update(&[obs(0, 0, 20, 0)]);
        // Second delta adds a different group for the same new item —
        // the last run's posteriors have never seen item 20.
        s.update(&[obs(0, 1, 20, 0)]);
        let report = s.run();
        assert_eq!(s.deltas_applied(), 2);
        assert_eq!(s.cube().num_items(), 21);
        assert!(report.iterations() >= 1);
    }

    /// Regression for the E-step panic at `value.rs`
    /// (`"group value is an observed value of its item"`): a retraction
    /// that removes a value's only supporting triple between runs must
    /// not panic the warm refit, and the refit must match a cold batch
    /// run over the surviving observations.
    #[test]
    fn retraction_that_removes_a_value_is_safe_and_exact() {
        let base = base_corpus();
        let mut s = FusionSession::from_observations(base.clone(), Model::multi_layer());
        s.run();
        // Source 4 is the only provider of value 1 on every item: retract
        // its triple on item 0, making value 1 unobserved there.
        let gone = (SourceId::new(4), ItemId::new(0), ValueId::new(1));
        s.retract(&[gone]);
        assert_eq!(s.deltas_applied(), 1);
        let warm = s.run(); // must not panic
        assert!(warm.iterations() >= 1);

        // Exactness: cold refit on the retracted cube equals a batch
        // rebuild from the surviving observations.
        let incremental = s.run_cold();
        let survivors: Vec<Observation> = base
            .into_iter()
            .filter(|o| (o.source, o.item, o.value) != gone)
            .collect();
        let mut batch = FusionSession::from_observations(survivors, Model::multi_layer());
        // The rebuild must keep source 4's id alive even where the
        // retraction removed its only claim on an item.
        let b = batch.run_cold();
        assert_eq!(incremental.source_trust(), b.source_trust());
        assert_eq!(incremental.truth_of_group(), b.truth_of_group());
        assert_eq!(incremental.correctness(), b.correctness());
    }

    /// Retracting before any run (no warm state yet) and retracting
    /// everything a source ever said are both total.
    #[test]
    fn retraction_edge_cases() {
        let mut s = FusionSession::from_observations(base_corpus(), Model::multi_layer());
        s.retract(&[(SourceId::new(0), ItemId::new(0), ValueId::new(0))]);
        let first = s.run();
        assert!(first.iterations() >= 1);
        // Retract every triple of source 4 (it keeps its id and default
        // accuracy; its groups disappear).
        let all_of_4: Vec<(SourceId, ItemId, ValueId)> = (s.cube().groups().iter())
            .filter(|g| g.source == SourceId::new(4))
            .map(|g| (g.source, g.item, g.value))
            .collect();
        assert!(!all_of_4.is_empty());
        s.retract(&all_of_4);
        assert_eq!(s.cube().source_size(SourceId::new(4)), 0);
        assert_eq!(s.cube().num_sources(), 5, "id spaces never shrink");
        let after = s.run();
        assert_eq!(after.source_trust().len(), 5);
    }

    /// Same-kind neighbours coalesce, order across kinds is kept, and
    /// each run counts as one applied delta.
    #[test]
    fn deltas_coalesce_into_runs_and_apply_in_order() {
        let key = (SourceId::new(0), ItemId::new(0), ValueId::new(0));
        let mut runs = Vec::new();
        for delta in [
            Delta::Add(vec![obs(0, 5, 0, 0)]),
            Delta::Add(vec![obs(0, 5, 1, 0)]),
            Delta::Remove(vec![key]),
            Delta::Add(vec![obs(1, 0, 0, 0)]),
        ] {
            delta.coalesce_into(&mut runs);
        }
        assert_eq!(
            runs,
            [
                Delta::Add(vec![obs(0, 5, 0, 0), obs(0, 5, 1, 0)]),
                Delta::Remove(vec![key]),
                Delta::Add(vec![obs(1, 0, 0, 0)]),
            ]
        );
        assert_eq!(runs.iter().map(Delta::len).sum::<usize>(), 4);

        let mut s = FusionSession::from_observations(base_corpus(), Model::multi_layer());
        for run in &runs {
            s.apply(run);
        }
        assert_eq!(s.deltas_applied(), 3);
        assert_eq!(s.cube().num_sources(), 6);
        // The retraction dropped both extractions; the later add put one back.
        let g = (s.cube().groups().iter().position(|g| g.source == key.0)).expect("a group");
        let grp = s.cube().groups()[g];
        assert_eq!((grp.item, grp.value), (key.1, key.2));
        assert_eq!(s.cube().cells_of(g).len(), 1);
    }

    #[test]
    fn run_cold_matches_fresh_session() {
        let mut s = FusionSession::from_observations(base_corpus(), Model::multi_layer());
        let first = s.run();
        let again_cold = s.run_cold();
        assert_eq!(first.source_trust(), again_cold.source_trust());
    }

    #[test]
    fn single_layer_session_warm_starts_from_source_accuracy() {
        let mut s = FusionSession::from_observations(base_corpus(), Model::accu());
        let cold = s.run();
        let delta: Vec<Observation> = (0..4u32).map(|w| obs(0, w, 20, 0)).collect();
        let warm = s.update(&delta).run();
        assert!(warm.iterations() <= cold.iterations());
        assert_eq!(warm.model(), kbt_core::ModelKind::SingleLayer);
    }
}
