//! [`TrustServer`]: the single-writer driver that owns the
//! session/snapshot lifecycle.
//!
//! ```text
//!  deltas ──▶ ingest/retract queue ──▶ FusionSession ──▶ TrustSnapshot
//!                                        (warm refit)        │ publish
//!                                                            ▼
//!  readers ◀── SnapshotReader (epoch-cached) ◀── SnapshotStore (epoch-swapped Arc)
//! ```
//!
//! The server batches incoming observation deltas and retractions, folds
//! them into its [`FusionSession`] (`apply_delta` merge-walk, no full
//! re-sort), refits EM — warm by default, resuming from the previous
//! epoch's `WarmState` (converged parameters, posteriors,
//! copy-independence priors) — and publishes a fresh immutable
//! [`TrustSnapshot`] under the next epoch.
//! Readers keep serving the previous epoch untouched for the whole
//! refit; the swap is one `Arc` store.

use std::sync::Arc;

use kbt_datamodel::{ItemId, Observation, SourceId, ValueId};
use kbt_pipeline::{Delta, FusionSession, PipelineError, TrustPipeline};

use crate::snapshot::{RefitMode, SnapshotProvenance, TrustSnapshot};
use crate::store::{SnapshotReader, SnapshotStore};

/// A cloneable, `Send + Sync` read-side handle to a server's snapshot
/// store. Create one [`SnapshotReader`] per reader thread.
#[derive(Debug, Clone)]
pub struct TrustHandle(Arc<SnapshotStore>);

impl TrustHandle {
    /// A fresh epoch-cached reader (the hot-path query interface).
    pub fn reader(&self) -> SnapshotReader {
        self.0.reader()
    }

    /// The currently published snapshot (locks briefly; prefer
    /// [`Self::reader`] on hot paths).
    pub fn snapshot(&self) -> Arc<TrustSnapshot> {
        self.0.load()
    }

    /// The currently published epoch.
    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.0
    }
}

/// What a persistence layer failed with (I/O, a full disk, a corrupt
/// log), boxed so `kbt-serve` stays independent of any particular
/// store. [`DurabilityHook`] implementations return this; the server
/// wraps it into a [`HookError`] that records *which* hook call failed.
pub type HookFailure = Box<dyn std::error::Error + Send + Sync>;

/// Which [`DurabilityHook`] call a [`HookError`] came from, or the
/// server's own refusal ([`HookStage::Admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookStage {
    /// The server refused an additive batch naming the reserved id
    /// `u32::MAX` before logging it: nothing was logged or queued.
    Admit,
    /// [`DurabilityHook::log`] rejected an additive batch — the batch
    /// was **not** queued; the in-memory state never ran ahead of the
    /// log.
    LogIngest,
    /// [`DurabilityHook::log`] rejected a retraction batch — likewise
    /// not queued.
    LogRetract,
    /// [`DurabilityHook::commit`] failed after a publish — the snapshot
    /// **is** serving in memory but is not durable.
    Commit,
    /// [`DurabilityHook::checkpoint`] failed — nothing in memory
    /// changed, and whatever was committed before still is.
    Checkpoint,
}

impl std::fmt::Display for HookStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Admit => write!(f, "admit"),
            Self::LogIngest => write!(f, "log_ingest"),
            Self::LogRetract => write!(f, "log_retract"),
            Self::Commit => write!(f, "commit"),
            Self::Checkpoint => write!(f, "checkpoint"),
        }
    }
}

/// A durability-hook failure, typed by the stage that failed, or the
/// server's refusal of a batch before the hook saw it ([`HookStage::Admit`]).
///
/// This is what every write-side server method surfaces instead of
/// panicking: a full disk or a dying WAL device degrades to an error
/// the caller (a network front end, a batch driver) can report to its
/// clients while readers keep serving the last published epoch.
#[derive(Debug)]
pub struct HookError {
    stage: HookStage,
    source: HookFailure,
}

impl HookError {
    fn new(stage: HookStage, source: HookFailure) -> Self {
        Self { stage, source }
    }

    /// Which hook call failed (the persistence layer's own failure is
    /// the error's [`source`](std::error::Error::source)).
    pub fn stage(&self) -> HookStage {
        self.stage
    }
}

impl std::fmt::Display for HookError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "durability hook failed at {}: {}",
            self.stage, self.source
        )
    }
}

impl std::error::Error for HookError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(self.source.as_ref() as &(dyn std::error::Error + 'static))
    }
}

/// Why [`TrustServer::checkpoint_now`] wrote no checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Accepted batches are queued. A checkpoint rotates the log, and
    /// their records would stay behind in a file no replay chain reaches:
    /// refit first, then checkpoint.
    PendingBatches,
    /// The hook's [`DurabilityHook::checkpoint`] failed.
    Hook(HookError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PendingBatches => write!(f, "batches are queued: refit, then checkpoint"),
            Self::Hook(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The write-ahead contract between a [`TrustServer`] and the
/// persistence layer it owns (`kbt-store` in production; tests plug in
/// fakes). It is the only seam between the two: the store never reaches
/// around it into the server, and the server knows nothing of files.
///
/// The server calls [`log`](Self::log) **before** queueing a batch — a
/// batch the hook rejects is never queued, so the in-memory state can
/// never run ahead of the log — and [`commit`](Self::commit) **after**
/// each publish, handing over the freshly published snapshot and the
/// session that produced it (the store decides there whether to
/// checkpoint). A `commit` error is surfaced as a [`HookError`] by the
/// refit methods; the snapshot is already published in memory at that
/// point, but is not durable.
pub trait DurabilityHook: Send {
    /// Persist an accepted batch before it is queued.
    fn log(&mut self, delta: &Delta) -> Result<(), HookFailure>;
    /// Make everything logged before `snapshot`'s refit durable (fsync
    /// the log, checkpoint from `session` when the store's policy says
    /// so).
    fn commit(
        &mut self,
        snapshot: &TrustSnapshot,
        session: &FusionSession,
    ) -> Result<(), HookFailure>;
    /// Checkpoint `snapshot` and `session` now, whatever the policy
    /// ([`TrustServer::checkpoint_now`]; the server has checked that no
    /// logged batch is still queued). A store without checkpoints keeps
    /// the default and does nothing.
    fn checkpoint(
        &mut self,
        _snapshot: &TrustSnapshot,
        _session: &FusionSession,
    ) -> Result<(), HookFailure> {
        Ok(())
    }
}

/// The single-writer trust server: owns a [`FusionSession`] and a
/// [`SnapshotStore`], and is the only code path that refits or
/// publishes.
///
/// Construction runs the initial fit and publishes **epoch 0**; each
/// successful [`refit`](Self::refit) publishes the next epoch. A
/// deployment runs it on one writer thread (`kbt_net`'s
/// `trust_writer_loop`) and keeps only [`TrustHandle`]s on the serving
/// side.
pub struct TrustServer {
    session: FusionSession,
    store: Arc<SnapshotStore>,
    /// Queued delta runs in **submission order** — a retract-then-ingest
    /// of the same triple must re-add it, and an ingest-then-retract must
    /// remove it, exactly as if each batch had been refitted on its own.
    /// Filled only through [`Delta::coalesce_into`].
    pending: Vec<Delta>,
    mode: RefitMode,
    epoch: u64,
    /// Write-ahead persistence, when attached ([`Self::set_hook`]).
    hook: Option<Box<dyn DurabilityHook>>,
}

impl std::fmt::Debug for TrustServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustServer")
            .field("session", &self.session)
            .field("store", &self.store)
            .field("pending", &self.pending)
            .field("mode", &self.mode)
            .field("epoch", &self.epoch)
            .field("hook", &self.hook.as_ref().map(|_| "attached"))
            .finish()
    }
}

impl TrustServer {
    /// Run the initial fit of `session` (cold unless the session already
    /// carries a warm state and `mode` is warm) and publish it as epoch 0.
    pub fn new(mut session: FusionSession, mode: RefitMode) -> Self {
        let snapshot = apply_and_fit(&mut session, &mut Vec::new(), mode, 0);
        Self::resume(session, snapshot, mode)
    }

    /// Resume a server from recovered state **without refitting**: the
    /// store immediately serves `snapshot` under its own epoch, and the
    /// next publish continues from there. `session` must be the session
    /// state the snapshot was fitted on (cube contents, delta count and
    /// warm state aligned) — `kbt-store` reconstructs both from a
    /// checkpoint + log replay and hands them here.
    pub fn resume(session: FusionSession, snapshot: TrustSnapshot, mode: RefitMode) -> Self {
        let epoch = snapshot.epoch();
        Self {
            session,
            store: Arc::new(SnapshotStore::new(snapshot.served_in(mode))),
            pending: Vec::new(),
            mode,
            epoch,
            hook: None,
        }
    }

    /// Build a server from a configured [`TrustPipeline`] (the
    /// observation/cube input, engine, thread budget, and copy-detection
    /// configuration carry over).
    ///
    /// # Errors
    ///
    /// Everything [`TrustPipeline::into_session`] rejects — notably
    /// [`PipelineError::GranularitySession`]: SPLITANDMERGE working-source
    /// ids are corpus-dependent, so feeding a regrouped corpus into the
    /// session's warm state would misalign priors across epochs.
    pub fn from_pipeline(pipeline: TrustPipeline, mode: RefitMode) -> Result<Self, PipelineError> {
        Ok(Self::new(pipeline.into_session()?, mode))
    }

    /// A read-side handle (cloneable, `Send + Sync`).
    pub fn handle(&self) -> TrustHandle {
        TrustHandle(Arc::clone(&self.store))
    }

    /// The epoch currently published.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying session (read-only).
    pub fn session(&self) -> &FusionSession {
        &self.session
    }

    /// Attach the write-ahead persistence hook, which the server owns
    /// from here on. Batches queued from now on are logged through it
    /// before they are accepted, and every publish is followed by a
    /// [`DurabilityHook::commit`].
    pub fn set_hook(&mut self, hook: Box<dyn DurabilityHook>) -> &mut Self {
        self.hook = Some(hook);
        self
    }

    /// Log `delta` through the hook, then queue it for the next refit.
    /// Batches are applied in submission order at refit time; an empty
    /// batch is neither logged nor queued (it must not trigger a
    /// publish). [`ingest`](Self::ingest) and [`retract`](Self::retract)
    /// are this, by kind.
    ///
    /// # Errors
    ///
    /// [`HookStage::Admit`] when an additive batch names the reserved id
    /// `u32::MAX` (a refit would panic on it): neither logged nor queued.
    /// [`HookStage::LogIngest`] / [`HookStage::LogRetract`] when an
    /// attached [`DurabilityHook`] rejects the batch. The batch was
    /// **not** queued: the in-memory state never runs ahead of the log.
    pub fn submit(&mut self, delta: Delta) -> Result<(), HookError> {
        if delta.is_empty() {
            return Ok(());
        }
        let ids = |o: &Observation| [o.extractor.0, o.source.0, o.item.0, o.value.0];
        if matches!(&delta, Delta::Add(obs) if obs.iter().any(|o| ids(o).contains(&u32::MAX))) {
            let why = "an observation names id u32::MAX, which every id axis reserves";
            return Err(HookError::new(HookStage::Admit, why.into()));
        }
        if let Some(hook) = &mut self.hook {
            let stage = match delta {
                Delta::Add(_) => HookStage::LogIngest,
                Delta::Remove(_) => HookStage::LogRetract,
            };
            hook.log(&delta).map_err(|e| HookError::new(stage, e))?;
        }
        delta.coalesce_into(&mut self.pending);
        Ok(())
    }

    /// [`submit`](Self::submit) an additive observation batch.
    pub fn ingest(
        &mut self,
        delta: impl IntoIterator<Item = Observation>,
    ) -> Result<(), HookError> {
        self.submit(Delta::Add(delta.into_iter().collect()))
    }

    /// [`submit`](Self::submit) a retraction batch (remove
    /// `(source, item, value)` triples): retracting a triple and then
    /// re-ingesting it leaves the new observation in place.
    pub fn retract(
        &mut self,
        retractions: impl IntoIterator<Item = (SourceId, ItemId, ValueId)>,
    ) -> Result<(), HookError> {
        self.submit(Delta::Remove(retractions.into_iter().collect()))
    }

    /// Number of queued (not yet refitted) observations and retractions.
    pub fn pending(&self) -> (usize, usize) {
        self.pending
            .iter()
            .fold((0, 0), |(obs, keys), run| match run {
                Delta::Add(_) => (obs + run.len(), keys),
                Delta::Remove(_) => (obs, keys + run.len()),
            })
    }

    /// Fold the queued deltas into the session, refit, and publish the
    /// next epoch. Returns `Ok(None)` (and publishes nothing) when the
    /// queue is empty — back-to-back refits on a quiet server would
    /// otherwise churn epochs without changing an answer.
    ///
    /// # Errors
    ///
    /// [`HookStage::Commit`] when an attached [`DurabilityHook`] fails
    /// its post-publish commit. On `Err` the snapshot **was** published
    /// to in-memory readers but is not durable; the caller decides
    /// whether to retry the commit or stop the server.
    pub fn refit(&mut self) -> Result<Option<Arc<TrustSnapshot>>, HookError> {
        if self.pending.is_empty() {
            return Ok(None);
        }
        self.epoch += 1;
        let snap = apply_and_fit(&mut self.session, &mut self.pending, self.mode, self.epoch);
        let installed = self.store.publish(snap);
        if let Some(hook) = &mut self.hook {
            hook.commit(&installed, &self.session)
                .map_err(|e| HookError::new(HookStage::Commit, e))?;
        }
        Ok(Some(installed))
    }

    /// Have the hook checkpoint the published epoch now, whatever its
    /// own policy, and return that epoch. Without a hook there is
    /// nothing to write and this only reports the epoch.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::PendingBatches`] while accepted batches are
    /// queued; [`HookStage::Checkpoint`] when the hook fails.
    pub fn checkpoint_now(&mut self) -> Result<u64, CheckpointError> {
        if !self.pending.is_empty() {
            return Err(CheckpointError::PendingBatches);
        }
        if let Some(hook) = &mut self.hook {
            hook.checkpoint(&self.store.load(), &self.session)
                .map_err(|e| CheckpointError::Hook(HookError::new(HookStage::Checkpoint, e)))?;
        }
        Ok(self.epoch)
    }
}

/// One step of the epoch sequence: fold `runs` into `session` in order
/// (draining them), fit it in `mode`, and export the fit as the snapshot
/// of `epoch`. The only place a queued run reaches a session and the
/// only place a fit becomes a [`TrustSnapshot`] — [`TrustServer::new`]
/// (no runs), [`TrustServer::refit`] and crash replay (`kbt-store`, once
/// per replayed commit) all take it, which is what makes a replayed
/// epoch bit-identical to the one that was served. The recorded
/// [`SnapshotProvenance::refit_mode`] is what actually happened: a
/// warm-mode fit with nothing to resume (the server's initial fit) is
/// recorded as cold.
pub fn apply_and_fit(
    session: &mut FusionSession,
    runs: &mut Vec<Delta>,
    mode: RefitMode,
    epoch: u64,
) -> TrustSnapshot {
    for run in runs.drain(..) {
        session.apply(&run);
    }
    let resumes = matches!(mode, RefitMode::Warm) && session.warm().is_some();
    let report = match mode {
        RefitMode::Warm => session.run(),
        RefitMode::Cold => session.run_cold(),
    };
    let triples = session
        .cube()
        .groups()
        .iter()
        .map(|g| (g.source, g.item, g.value))
        .collect();
    TrustSnapshot::from_report(
        &report,
        triples,
        epoch,
        SnapshotProvenance {
            refit_mode: if resumes {
                RefitMode::Warm
            } else {
                RefitMode::Cold
            },
            deltas_applied: session.deltas_applied(),
            iterations: report.iterations(),
            converged: report.converged(),
            coverage: report.coverage(),
        },
    )
    .served_in(mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_core::ModelConfig;
    use kbt_datamodel::ExtractorId;
    use kbt_pipeline::Model;

    fn obs(e: u32, w: u32, d: u32, v: u32) -> Observation {
        Observation::certain(
            ExtractorId::new(e),
            SourceId::new(w),
            ItemId::new(d),
            ValueId::new(v),
        )
    }

    fn corpus(items: std::ops::Range<u32>) -> Vec<Observation> {
        let mut out = Vec::new();
        for w in 0..6u32 {
            for d in items.clone() {
                let errs = (w * 37 + d * 13) % 10 < w;
                let v = if errs { 3 + (w + d) % 3 } else { d % 3 };
                for e in 0..2u32 {
                    if (w + d + e) % 4 != 0 {
                        out.push(obs(e, w, d, v));
                    }
                }
            }
        }
        out
    }

    fn model() -> Model {
        Model::MultiLayer(ModelConfig {
            threads: Some(1),
            ..ModelConfig::default()
        })
    }

    /// A server over `corpus(items)`, initial fit published.
    fn server(items: std::ops::Range<u32>, mode: RefitMode) -> TrustServer {
        TrustServer::from_pipeline(
            TrustPipeline::new()
                .observations(corpus(items))
                .model(model()),
            mode,
        )
        .unwrap()
    }

    fn first_triple(server: &TrustServer) -> (SourceId, ItemId, ValueId) {
        let g = &server.session().cube().groups()[0];
        (g.source, g.item, g.value)
    }

    /// The serving guarantee: in cold refit mode, the snapshot published
    /// after each delta batch is bit-identical to a cold `TrustPipeline`
    /// run over the same prefix of observations.
    #[test]
    fn cold_refits_match_cold_pipeline_runs_bit_for_bit() {
        let base = corpus(0..10);
        let deltas: Vec<Vec<Observation>> = vec![
            corpus(10..12),
            corpus(12..13),
            vec![obs(0, 6, 0, 0), obs(1, 6, 1, 1)],
        ];
        let mut server = server(0..10, RefitMode::Cold);
        let mut prefix = base;
        let handle = server.handle();
        for (i, delta) in deltas.iter().enumerate() {
            server.ingest(delta.clone()).unwrap();
            server.refit().unwrap().expect("non-empty delta publishes");
            prefix.extend(delta.iter().copied());
            let cold = TrustPipeline::new()
                .observations(prefix.clone())
                .model(model())
                .try_run()
                .expect("pipeline runs");
            let snap = handle.snapshot();
            assert_eq!(snap.epoch(), i as u64 + 1);
            assert_eq!(snap.source_trust(), cold.source_trust(), "delta {i}");
            let keys = snap.triple_keys().iter();
            let served = keys.map(|&(w, d, v)| snap.triple_posterior(w, d, v).map(f64::to_bits));
            let truth = cold.truth_of_group().iter().map(|t| Some(t.to_bits()));
            assert!(served.eq(truth), "delta {i}");
            assert!(snap.verify_integrity());
        }
    }

    #[test]
    fn warm_refits_advance_epochs_and_record_provenance() {
        let mut server = server(0..10, RefitMode::Warm);
        let handle = server.handle();
        let init = handle.snapshot();
        assert_eq!(init.epoch(), 0);
        // The first fit has nothing to resume: recorded as cold.
        assert_eq!(init.provenance().refit_mode, RefitMode::Cold);
        assert!(init.provenance().iterations >= 1);

        // Quiet server: refit is a no-op, no epoch churn.
        assert!(server.refit().unwrap().is_none());
        assert_eq!(handle.epoch(), 0);

        server.ingest(corpus(10..11)).unwrap();
        let snap = server.refit().unwrap().expect("delta publishes");
        assert_eq!(snap.epoch(), 1);
        assert_eq!(snap.provenance().refit_mode, RefitMode::Warm);
        assert_eq!(snap.provenance().deltas_applied, 1);
        assert_eq!(handle.epoch(), 1);

        // Retraction-only deltas publish too.
        let key = first_triple(&server);
        server.retract([key]).unwrap();
        let snap = server.refit().unwrap().expect("retraction publishes");
        assert_eq!(snap.epoch(), 2);
        assert!(snap.triple_posterior(key.0, key.1, key.2).is_none());
    }

    /// What the checkpoint relies on: every published snapshot hands back
    /// exactly the warm state its session resumes the next refit from,
    /// stamped with the mode the server runs.
    #[test]
    fn a_published_snapshot_hands_back_the_sessions_warm_state() {
        for mode in [RefitMode::Warm, RefitMode::Cold] {
            let mut server = server(0..10, mode);
            let key = first_triple(&server);
            server.ingest(corpus(10..11)).unwrap();
            server.retract([key]).unwrap();
            for epoch in 0..2 {
                let snap = server.handle().snapshot();
                assert_eq!(snap.epoch(), epoch);
                assert_eq!(Some(&snap.warm_state()), server.session().warm());
                assert_eq!(snap.serving_mode(), mode);
                server.refit().unwrap();
            }
        }
    }

    /// Queued deltas apply in submission order: retract-then-ingest of
    /// the same triple re-adds it; ingest-then-retract removes it.
    #[test]
    fn pending_deltas_apply_in_submission_order() {
        let key = {
            let g = obs(0, 0, 0, 0);
            (g.source, g.item, g.value)
        };
        let mut server = server(0..8, RefitMode::Warm);

        // retract → ingest: the re-ingested observation survives.
        server.retract([key]).unwrap();
        server.ingest([obs(3, 0, 0, 0)]).unwrap(); // same (source, item, value), new extractor
        assert_eq!(server.pending(), (1, 1));
        let snap = server.refit().unwrap().unwrap();
        assert!(
            snap.triple_posterior(key.0, key.1, key.2).is_some(),
            "an ingest submitted after a retraction must survive the batch"
        );

        // ingest → retract: the triple ends up gone.
        server.ingest([obs(0, 0, 0, 0)]).unwrap();
        server.retract([key]).unwrap();
        let snap = server.refit().unwrap().unwrap();
        assert!(snap.triple_posterior(key.0, key.1, key.2).is_none());

        // Empty batches neither queue nor publish.
        server.ingest(std::iter::empty()).unwrap();
        server.retract(std::iter::empty()).unwrap();
        assert_eq!(server.pending(), (0, 0));
        assert!(server.refit().unwrap().is_none());
    }

    #[test]
    fn granularity_cannot_reach_a_server() {
        let err = TrustServer::from_pipeline(
            TrustPipeline::new()
                .observations(corpus(0..6))
                .granularity(kbt_pipeline::SplitMergeConfig::default()),
            RefitMode::Warm,
        )
        .unwrap_err();
        assert_eq!(err, PipelineError::GranularitySession);
    }

    /// A hook that records calls and can be armed to fail, for the
    /// write-ahead ordering and error-surfacing contracts.
    struct ProbeHook {
        log: Arc<std::sync::Mutex<Vec<String>>>,
        fail_commit: bool,
        fail_log: bool,
    }

    impl DurabilityHook for ProbeHook {
        fn log(&mut self, delta: &Delta) -> Result<(), HookFailure> {
            if self.fail_log {
                return Err("log device gone".into());
            }
            let kind = match delta {
                Delta::Add(_) => "ingest",
                Delta::Remove(_) => "retract",
            };
            self.log
                .lock()
                .unwrap()
                .push(format!("{kind}:{}", delta.len()));
            Ok(())
        }
        fn commit(
            &mut self,
            snapshot: &TrustSnapshot,
            session: &FusionSession,
        ) -> Result<(), HookFailure> {
            if self.fail_commit {
                return Err("commit fsync failed".into());
            }
            assert_eq!(
                snapshot.provenance().deltas_applied,
                session.deltas_applied(),
                "commit sees the snapshot and the session it was fitted on"
            );
            self.log
                .lock()
                .unwrap()
                .push(format!("commit:{}", snapshot.epoch()));
            Ok(())
        }
        fn checkpoint(
            &mut self,
            snapshot: &TrustSnapshot,
            _session: &FusionSession,
        ) -> Result<(), HookFailure> {
            if self.fail_commit {
                return Err("checkpoint rename failed".into());
            }
            self.log
                .lock()
                .unwrap()
                .push(format!("checkpoint:{}", snapshot.epoch()));
            Ok(())
        }
    }

    /// Batches are logged before they are queued, and every publish is
    /// followed by a commit carrying the published epoch.
    #[test]
    fn hook_sees_log_before_queue_and_commit_after_publish() {
        let mut server = server(0..8, RefitMode::Cold);
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        server.set_hook(Box::new(ProbeHook {
            log: Arc::clone(&log),
            fail_commit: false,
            fail_log: false,
        }));
        let delta = corpus(8..9);
        let n = delta.len();
        server.ingest(delta).unwrap();
        let key = first_triple(&server);
        server.retract([key]).unwrap();
        server.refit().unwrap().expect("delta publishes");
        assert_eq!(
            log.lock().unwrap().as_slice(),
            [format!("ingest:{n}"), "retract:1".into(), "commit:1".into()]
        );

        // A forced checkpoint reaches the hook only once the queue is
        // drained: rotating the log under a queued batch would orphan it.
        server.ingest(corpus(9..10)).unwrap();
        assert!(matches!(
            server.checkpoint_now(),
            Err(CheckpointError::PendingBatches)
        ));
        assert_eq!(log.lock().unwrap().len(), 4, "refused before the hook");
        server.refit().unwrap().expect("delta publishes");
        assert_eq!(server.checkpoint_now().unwrap(), 2);
        assert_eq!(
            log.lock().unwrap()[4..],
            ["commit:2".to_string(), "checkpoint:2".into()]
        );
    }

    /// A rejected log entry keeps the batch out of the queue (the memory
    /// state never runs ahead of the log).
    #[test]
    fn rejected_log_batches_are_not_queued() {
        let mut server = server(0..8, RefitMode::Cold);
        server.set_hook(Box::new(ProbeHook {
            log: Arc::default(),
            fail_commit: false,
            fail_log: true,
        }));
        let err = server.ingest(corpus(8..9)).unwrap_err();
        assert_eq!(err.stage(), HookStage::LogIngest);
        let err = server
            .retract([(SourceId::new(0), ItemId::new(0), ValueId::new(0))])
            .unwrap_err();
        assert_eq!(err.stage(), HookStage::LogRetract);
        assert_eq!(server.pending(), (0, 0));
        assert!(server.refit().unwrap().is_none(), "nothing queued");
    }

    /// A failed commit is a typed error after the publish: the epoch is
    /// readable, the caller is told it is not durable.
    #[test]
    fn commit_failures_surface_after_the_publish() {
        let mut server = server(0..8, RefitMode::Cold);
        server.set_hook(Box::new(ProbeHook {
            log: Arc::default(),
            fail_commit: true,
            fail_log: false,
        }));
        server.ingest(corpus(8..9)).unwrap();
        let err = server.refit().unwrap_err();
        assert_eq!(err.stage(), HookStage::Commit);
        assert!(err.to_string().contains("commit fsync failed"));
        assert_eq!((server.epoch(), server.handle().epoch()), (1, 1));
        match server.checkpoint_now() {
            Err(CheckpointError::Hook(e)) => assert_eq!(e.stage(), HookStage::Checkpoint),
            other => panic!("expected a staged checkpoint failure, got {other:?}"),
        }
    }

    /// A hook whose log accepts the first `ok_appends` additive batches
    /// and rejects the Nth — the "disk filled up mid-run" regression.
    struct NthAppendFails {
        ok_appends: usize,
        seen: usize,
    }

    impl DurabilityHook for NthAppendFails {
        fn log(&mut self, delta: &Delta) -> Result<(), HookFailure> {
            if matches!(delta, Delta::Add(_)) {
                self.seen += 1;
                if self.seen > self.ok_appends {
                    return Err(format!("append {} hit a full disk", self.seen).into());
                }
            }
            Ok(())
        }
        fn commit(
            &mut self,
            _snapshot: &TrustSnapshot,
            _session: &FusionSession,
        ) -> Result<(), HookFailure> {
            Ok(())
        }
    }

    /// Regression for the `.expect("durability hook rejected…")` panic:
    /// a hook that fails on the Nth append surfaces a typed error, the
    /// earlier batches still published, and readers keep serving.
    #[test]
    fn nth_append_failure_degrades_to_typed_error() {
        let mut server = server(0..8, RefitMode::Warm);
        server.set_hook(Box::new(NthAppendFails {
            ok_appends: 2,
            seen: 0,
        }));
        let handle = server.handle();

        // Appends 1 and 2 are durable and publish normally.
        server.ingest(corpus(8..9)).unwrap();
        server.refit().unwrap().expect("batch 1 publishes");
        server.ingest(corpus(9..10)).unwrap();
        server.refit().unwrap().expect("batch 2 publishes");
        assert_eq!(handle.epoch(), 2);

        // Append 3 hits the full disk: typed error, nothing queued.
        let err = server.ingest(corpus(10..11)).unwrap_err();
        assert_eq!(err.stage(), HookStage::LogIngest);
        assert!(err.to_string().contains("append 3 hit a full disk"));
        assert!(std::error::Error::source(&err).is_some());
        assert_eq!(server.pending(), (0, 0));

        // Readers were never disturbed: still on the last good epoch.
        assert_eq!(handle.epoch(), 2);
        assert!(handle.snapshot().verify_integrity());
        // And the server survives: retractions (whose log path still
        // works) keep flowing.
        let key = first_triple(&server);
        server.retract([key]).unwrap();
        server.refit().unwrap().expect("retraction publishes");
        assert_eq!(handle.epoch(), 3);
    }
}
