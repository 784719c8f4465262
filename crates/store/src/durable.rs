//! [`DurableTrustServer`]: a [`TrustServer`] whose state survives a
//! crash.
//!
//! The wrapper owns the server and a shared [`StoreInner`] (the active
//! log writer plus the checkpoint policy), wired together through the
//! serve layer's [`DurabilityHook`]: batches are logged before they are
//! queued, publishes append a commit marker and fsync, and every
//! [`StoreConfig::checkpoint_every`] applied batches the store
//! checkpoints, rotates the log, and prunes history down to
//! [`StoreConfig::keep_checkpoints`] checkpoints.
//!
//! See the crate docs for the file formats and the recovery protocol;
//! [`DurableTrustServer::recover`] is the pure recovery function (used
//! directly by the crash proptests and `benchmark/`), and
//! [`DurableTrustServer::open`] is recovery plus resumption: it
//! re-checkpoints the recovered state, starts a fresh log, re-queues the
//! uncommitted tail, and hands back a serving wrapper.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use kbt_datamodel::wire::WireError;
use kbt_datamodel::{ItemId, Observation, ObservationCube, SourceId, ValueId};
use kbt_pipeline::{FusionSession, Model};
use kbt_serve::{
    DurabilityHook, HookError, HookFailure, RefitMode, SnapshotPartsError, SnapshotProvenance,
    TrustHandle, TrustServer, TrustSnapshot,
};

use crate::codec::{decode_checkpoint, encode_checkpoint};
use crate::wal::{read_wal, WalRecord, WalWriter};

// ---- configuration ----

/// When the delta log is fsynced. Checkpoint files are always fsynced
/// before their atomic rename, independent of this policy — the policy
/// only governs the per-commit log sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync the log at every commit marker: a completed
    /// [`DurableTrustServer::refit`] survives an OS crash or power loss.
    /// The default.
    OnCommit,
    /// Never fsync the log; appends reach the OS page cache only. An
    /// application crash loses nothing (the kernel still has the
    /// writes), but an OS crash can lose everything after the last
    /// checkpoint. For bulk loads and benchmarks.
    Disabled,
}

/// Tuning knobs of a durable store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Checkpoint after this many applied delta batches (additive and
    /// retraction batches both count, matching
    /// `SnapshotProvenance::deltas_applied`). Lower values bound
    /// recovery replay at the price of more checkpoint writes; `1`
    /// checkpoints at every publish. Must be at least 1.
    pub checkpoint_every: usize,
    /// When the delta log is fsynced (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// How many checkpoints — and the log files that chain from them —
    /// survive pruning. The newest checkpoint is the recovery fast
    /// path; older ones are fallbacks if it is lost or corrupted. Must
    /// be at least 1; the default keeps 2.
    pub keep_checkpoints: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 8,
            fsync: FsyncPolicy::OnCommit,
            keep_checkpoints: 2,
        }
    }
}

impl StoreConfig {
    fn validate(&self) -> Result<(), StoreError> {
        if self.checkpoint_every == 0 {
            return Err(StoreError::InvalidConfig("checkpoint_every must be >= 1"));
        }
        if self.keep_checkpoints == 0 {
            return Err(StoreError::InvalidConfig("keep_checkpoints must be >= 1"));
        }
        Ok(())
    }
}

/// FNV-1a digest of a model configuration's canonical debug rendering —
/// stored in every checkpoint and log header, and checked on open:
/// resuming EM under different hyper-parameters would silently change
/// every posterior, so a mismatch is a hard error, not a warning.
pub fn config_digest(model: &Model) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in format!("{model:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

// ---- errors ----

/// Everything the persistence layer can fail with.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A file failed its integrity checks (CRC, magic, version,
    /// structure, or fingerprint reproduction).
    Corrupt(String),
    /// The on-disk state was written under a different model
    /// configuration than the one supplied.
    ConfigMismatch {
        /// Digest found in the file.
        stored: u64,
        /// Digest of the configuration supplied to `open`/`recover`.
        expected: u64,
    },
    /// A decoded snapshot payload was internally inconsistent.
    Parts(SnapshotPartsError),
    /// No checkpoint decoded cleanly — there is nothing to recover.
    NoCheckpoint,
    /// `create` was pointed at a directory that already holds a store.
    AlreadyExists,
    /// `checkpoint_now` was called with accepted-but-unrefitted batches
    /// queued; refit first, then checkpoint.
    PendingBatches,
    /// The [`StoreConfig`] is out of range.
    InvalidConfig(&'static str),
    /// The durability hook failed while re-queueing recovered pending
    /// batches.
    Hook(HookError),
}

impl StoreError {
    pub(crate) fn corrupt(msg: impl Into<String>) -> Self {
        Self::Corrupt(msg.into())
    }
}

/// Bytes that fail the wire codec's checks are a corrupt file.
impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        Self::Corrupt(e.to_string())
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store I/O error: {e}"),
            Self::Corrupt(what) => write!(f, "corrupt store file: {what}"),
            Self::ConfigMismatch { stored, expected } => write!(
                f,
                "model config mismatch: file digest {stored:#018x}, expected {expected:#018x}"
            ),
            Self::Parts(e) => write!(f, "inconsistent snapshot payload: {e}"),
            Self::NoCheckpoint => write!(f, "no valid checkpoint found"),
            Self::AlreadyExists => write!(f, "directory already holds a store"),
            Self::PendingBatches => {
                write!(f, "pending batches queued: refit before checkpoint_now")
            }
            Self::InvalidConfig(what) => write!(f, "invalid store config: {what}"),
            Self::Hook(e) => write!(f, "durability hook failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Parts(e) => Some(e),
            Self::Hook(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

// ---- file layout ----

const CHECKPOINT_PREFIX: &str = "checkpoint-";
const WAL_PREFIX: &str = "wal-";
const WAL_SUFFIX: &str = ".log";

fn checkpoint_name(epoch: u64) -> String {
    format!("{CHECKPOINT_PREFIX}{epoch:020}")
}

fn wal_name(epoch: u64) -> String {
    format!("{WAL_PREFIX}{epoch:020}{WAL_SUFFIX}")
}

/// `(epoch, path)` of every file matching `prefix`/`suffix`, ascending
/// by epoch. Files with unparsable names (including `.tmp` leftovers of
/// an interrupted checkpoint) are ignored.
fn list_epoch_files(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(prefix) else {
            continue;
        };
        let Some(digits) = rest.strip_suffix(suffix) else {
            continue;
        };
        if let Ok(epoch) = digits.parse::<u64>() {
            out.push((epoch, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(e, _)| e);
    Ok(out)
}

/// Write `bytes` to `dir/name` atomically: tmp file, fsync, rename. The
/// rename itself is durable once the caller has run [`sync_dir`].
fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp, dir.join(name))
}

/// Best-effort fsync of `dir` itself, which makes the entries of files
/// renamed into or created in it durable (their contents are synced
/// through their own handles).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Write `checkpoint-<epoch>` for `(snapshot, cube)` and start the fresh
/// `wal-<epoch>.log` chained on it. The log is created only after the
/// checkpoint's bytes are synced and renamed into place, and one
/// directory sync then covers both new entries. Before it returns no
/// commit has been written to the new log, so a crash may keep either
/// file without the other and lose nothing: a checkpoint with no log
/// replays zero records, and an empty log whose checkpoint is missing
/// chains from the older checkpoint's log, which already holds every
/// commit. After it, commits fsynced into the new log cannot vanish with
/// the log's directory entry.
fn write_checkpoint(
    dir: &Path,
    digest: u64,
    snapshot: &TrustSnapshot,
    cube: &ObservationCube,
) -> Result<WalWriter, StoreError> {
    let epoch = snapshot.epoch();
    let bytes = encode_checkpoint(snapshot, cube, digest);
    write_atomic(dir, &checkpoint_name(epoch), &bytes)?;
    let wal = WalWriter::create(&dir.join(wal_name(epoch)), digest, epoch)?;
    sync_dir(dir);
    Ok(wal)
}

// ---- the shared store state ----

/// The mutable persistence state shared between the serving wrapper and
/// the hook installed in the inner [`TrustServer`].
struct StoreInner {
    dir: PathBuf,
    config: StoreConfig,
    digest: u64,
    wal: WalWriter,
    /// `deltas_applied` at the last checkpoint — the baseline the
    /// checkpoint-every-N policy measures against.
    deltas_at_checkpoint: usize,
}

impl StoreInner {
    /// Write a checkpoint of `(snapshot, cube)`, start a fresh log based
    /// on it, and install both as the active state; then prune.
    fn install(
        dir: &Path,
        config: StoreConfig,
        digest: u64,
        snapshot: &TrustSnapshot,
        cube: &ObservationCube,
    ) -> Result<Self, StoreError> {
        config.validate()?;
        fs::create_dir_all(dir)?;
        let inner = Self {
            dir: dir.to_path_buf(),
            config,
            digest,
            wal: write_checkpoint(dir, digest, snapshot, cube)?,
            deltas_at_checkpoint: snapshot.provenance().deltas_applied,
        };
        inner.prune()?;
        Ok(inner)
    }

    /// Checkpoint + rotate + prune. The caller guarantees `snapshot` and
    /// `cube` describe the same committed state and that no uncommitted
    /// batch sits in the active log's tail (rotation would orphan it).
    fn checkpoint(
        &mut self,
        snapshot: &TrustSnapshot,
        cube: &ObservationCube,
    ) -> Result<(), StoreError> {
        self.wal = write_checkpoint(&self.dir, self.digest, snapshot, cube)?;
        self.deltas_at_checkpoint = snapshot.provenance().deltas_applied;
        self.prune()
    }

    /// Delete checkpoints beyond the newest `keep_checkpoints`, and
    /// every log file older than the oldest kept checkpoint (logs at or
    /// newer than it are part of some kept checkpoint's replay chain).
    fn prune(&self) -> Result<(), StoreError> {
        let checkpoints = list_epoch_files(&self.dir, CHECKPOINT_PREFIX, "")?;
        let keep = self.config.keep_checkpoints;
        if checkpoints.len() <= keep {
            return Ok(());
        }
        let cut = checkpoints.len() - keep;
        let oldest_kept = checkpoints[cut].0;
        for (_, path) in &checkpoints[..cut] {
            fs::remove_file(path)?;
        }
        for (epoch, path) in list_epoch_files(&self.dir, WAL_PREFIX, WAL_SUFFIX)? {
            if epoch < oldest_kept {
                fs::remove_file(&path)?;
            }
        }
        Ok(())
    }
}

/// The [`DurabilityHook`] implementation: forwards the server's
/// write-ahead traffic into the shared [`StoreInner`].
struct StoreHook {
    inner: Arc<Mutex<StoreInner>>,
}

impl StoreHook {
    fn lock(&self) -> Result<std::sync::MutexGuard<'_, StoreInner>, HookFailure> {
        self.inner
            .lock()
            .map_err(|_| HookFailure::from("store state poisoned by an earlier panic"))
    }
}

impl DurabilityHook for StoreHook {
    fn log_ingest(&mut self, delta: &[Observation]) -> Result<(), HookFailure> {
        self.lock()?
            .wal
            .append_add(delta)
            .map_err(HookFailure::from)
    }

    fn log_retract(
        &mut self,
        retractions: &[(SourceId, ItemId, ValueId)],
    ) -> Result<(), HookFailure> {
        self.lock()?
            .wal
            .append_remove(retractions)
            .map_err(HookFailure::from)
    }

    fn commit(
        &mut self,
        snapshot: &TrustSnapshot,
        session: &FusionSession,
    ) -> Result<(), HookFailure> {
        let mut inner = self.lock()?;
        inner.wal.append_commit(snapshot.epoch())?;
        if inner.config.fsync == FsyncPolicy::OnCommit {
            inner.wal.sync()?;
        }
        // The checkpoint-every-N policy, measured in applied batches.
        // The server's pending queue is empty at commit time (it was
        // just drained into the session), so rotating here cannot orphan
        // an uncommitted log record.
        let applied = snapshot.provenance().deltas_applied;
        if applied.saturating_sub(inner.deltas_at_checkpoint) >= inner.config.checkpoint_every {
            inner
                .checkpoint(snapshot, session.cube())
                .map_err(|e| Box::new(e) as HookFailure)?;
        }
        Ok(())
    }
}

// ---- recovery ----

/// One re-queued (accepted but never refitted) batch recovered from the
/// uncommitted tail of the delta log.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaBatch {
    /// An additive observation batch.
    Add(Vec<Observation>),
    /// A retraction batch.
    Remove(Vec<(SourceId, ItemId, ValueId)>),
}

/// What [`DurableTrustServer::recover`] reconstructed from disk.
#[derive(Debug)]
pub struct RecoveredState {
    /// The snapshot at the last durable epoch — decoded directly from
    /// the checkpoint when the crash landed on one, rebuilt by one cold
    /// refit otherwise (bit-identical either way under
    /// [`RefitMode::Cold`] serving).
    pub snapshot: TrustSnapshot,
    /// The session at that epoch: checkpointed cube plus every replayed
    /// committed batch, delta counter restored.
    pub session: FusionSession,
    /// The uncommitted log tail, in submission order — batches the
    /// pre-crash server accepted but never refitted. [`DurableTrustServer::open`]
    /// re-queues (and re-logs) them.
    pub pending: Vec<DeltaBatch>,
    /// Epoch of the checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// Commit markers replayed beyond the checkpoint (0 = the fast
    /// path: pure decode, no EM).
    pub replayed_commits: u64,
}

fn recover_state(dir: &Path, model: Model) -> Result<RecoveredState, StoreError> {
    let digest = config_digest(&model);

    // Newest checkpoint that decodes cleanly; older ones are fallbacks.
    let mut checkpoints = list_epoch_files(dir, CHECKPOINT_PREFIX, "")?;
    checkpoints.reverse();
    if checkpoints.is_empty() {
        return Err(StoreError::NoCheckpoint);
    }
    let mut base = None;
    let mut last_err = StoreError::NoCheckpoint;
    for (epoch, path) in &checkpoints {
        let bytes = fs::read(path)?;
        match decode_checkpoint(&bytes, digest) {
            Ok(contents) => {
                if contents.snapshot.epoch() != *epoch {
                    last_err = StoreError::corrupt("checkpoint epoch disagrees with its file name");
                    continue;
                }
                base = Some(contents);
                break;
            }
            // A config mismatch will repeat on every older file: it is
            // a caller error, not corruption to skip past.
            Err(e @ StoreError::ConfigMismatch { .. }) => return Err(e),
            Err(e) => last_err = e,
        }
    }
    let Some(base) = base else {
        return Err(last_err);
    };
    let checkpoint_epoch = base.snapshot.epoch();
    let mut session =
        FusionSession::restore(base.cube, model, base.snapshot.provenance().deltas_applied);

    // Replay the log chain: wal files from the checkpoint on, each file
    // based on the epoch the previous one committed up to. A broken
    // link (missing file, bad header, torn middle) ends the chain —
    // recovery lands on the last epoch that is provably durable.
    let mut pending: Vec<DeltaBatch> = Vec::new();
    let mut cur_epoch = checkpoint_epoch;
    let mut replayed_commits = 0u64;
    let wals: Vec<(u64, PathBuf)> = list_epoch_files(dir, WAL_PREFIX, WAL_SUFFIX)?
        .into_iter()
        .filter(|&(e, _)| e >= checkpoint_epoch)
        .collect();
    let mut expected_base = checkpoint_epoch;
    'chain: for (name_epoch, path) in &wals {
        if *name_epoch != expected_base {
            break; // a gap in the chain: later files are unreachable
        }
        let outcome = match read_wal(path, digest) {
            Ok(o) => o,
            Err(_) => break, // untrusted header: stop at the last good link
        };
        if outcome.base_epoch != *name_epoch {
            break;
        }
        for record in outcome.records {
            match record {
                WalRecord::Add(obs) => match pending.last_mut() {
                    // Coalesce exactly like the live server's pending
                    // queue, so replay applies the same delta runs and
                    // the provenance delta counter matches bit for bit.
                    Some(DeltaBatch::Add(run)) => run.extend(obs),
                    _ => pending.push(DeltaBatch::Add(obs)),
                },
                WalRecord::Remove(keys) => match pending.last_mut() {
                    Some(DeltaBatch::Remove(run)) => run.extend(keys),
                    _ => pending.push(DeltaBatch::Remove(keys)),
                },
                WalRecord::Commit(epoch) => {
                    if epoch <= cur_epoch {
                        // Already inside the checkpoint: drop the run.
                        pending.clear();
                        continue;
                    }
                    for batch in pending.drain(..) {
                        match batch {
                            DeltaBatch::Add(obs) => {
                                session.update(&obs);
                            }
                            DeltaBatch::Remove(keys) => {
                                session.retract(&keys);
                            }
                        }
                    }
                    cur_epoch = epoch;
                    replayed_commits += 1;
                }
            }
        }
        if !outcome.clean {
            break 'chain; // torn tail: nothing after it is trustworthy
        }
        expected_base = cur_epoch;
        if expected_base == *name_epoch {
            // No commit landed in this file; a later file cannot
            // legitimately chain from it.
            break;
        }
    }

    // Rebuild the snapshot at the recovered epoch. With no replayed
    // commit this is the decoded checkpoint itself — no EM at all.
    let snapshot = if replayed_commits == 0 {
        base.snapshot
    } else {
        let report = session.run_cold();
        let triples = session
            .cube()
            .groups()
            .iter()
            .map(|g| (g.source, g.item, g.value))
            .collect();
        TrustSnapshot::from_report(
            &report,
            triples,
            cur_epoch,
            SnapshotProvenance {
                refit_mode: RefitMode::Cold,
                deltas_applied: session.deltas_applied(),
                iterations: report.iterations(),
                converged: report.converged(),
                coverage: report.coverage(),
            },
        )
    };

    Ok(RecoveredState {
        snapshot,
        session,
        pending,
        checkpoint_epoch,
        replayed_commits,
    })
}

// ---- the serving wrapper ----

/// A [`TrustServer`] wrapped in crash-safe persistence: every accepted
/// batch is write-ahead logged, every publish is committed, checkpoints
/// land every [`StoreConfig::checkpoint_every`] applied batches, and
/// [`open`](Self::open) restores the whole thing to the last durable
/// epoch — bit-identically under [`RefitMode::Cold`] serving.
pub struct DurableTrustServer {
    server: TrustServer,
    inner: Arc<Mutex<StoreInner>>,
}

impl fmt::Debug for DurableTrustServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableTrustServer")
            .field("server", &self.server)
            .finish_non_exhaustive()
    }
}

impl DurableTrustServer {
    /// Create a fresh store in `dir` (made if absent): run the initial
    /// fit of `session`, publish epoch 0, checkpoint it, and start the
    /// delta log.
    ///
    /// # Errors
    ///
    /// [`StoreError::AlreadyExists`] if `dir` already holds a
    /// checkpoint — use [`open`](Self::open) to resume an existing
    /// store; I/O and config validation errors otherwise.
    pub fn create(
        dir: &Path,
        session: FusionSession,
        mode: RefitMode,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        config.validate()?;
        fs::create_dir_all(dir)?;
        if !list_epoch_files(dir, CHECKPOINT_PREFIX, "")?.is_empty() {
            return Err(StoreError::AlreadyExists);
        }
        let digest = config_digest(session.model());
        let server = TrustServer::new(session, mode);
        Self::wrap(dir, server, digest, config)
    }

    /// Recover the store in `dir` and resume serving from the last
    /// durable epoch: the recovered state is re-checkpointed (collapsing
    /// any corruption the recovery routed around), a fresh log is
    /// started, and the uncommitted tail is re-queued — and re-logged —
    /// as pending batches awaiting the next refit.
    ///
    /// `model` must carry the same configuration the store was created
    /// with ([`StoreError::ConfigMismatch`] otherwise).
    pub fn open(
        dir: &Path,
        model: Model,
        mode: RefitMode,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        config.validate()?;
        let digest = config_digest(&model);
        let recovered = recover_state(dir, model)?;
        let pending = recovered.pending;
        let server = TrustServer::resume(recovered.session, recovered.snapshot, mode);
        let mut durable = Self::wrap(dir, server, digest, config)?;
        for batch in pending {
            let queued = match batch {
                DeltaBatch::Add(obs) => durable.server.ingest(obs),
                DeltaBatch::Remove(keys) => durable.server.retract(keys),
            };
            queued.map_err(StoreError::Hook)?;
        }
        Ok(durable)
    }

    /// Pure recovery, no resumption and no writes: decode the newest
    /// valid checkpoint, replay the committed log suffix, collect the
    /// uncommitted tail. What the crash proptests check and
    /// `benchmark/`'s `ingest_durable` times (`aux_p50_ms`).
    pub fn recover(dir: &Path, model: Model) -> Result<RecoveredState, StoreError> {
        recover_state(dir, model)
    }

    fn wrap(
        dir: &Path,
        mut server: TrustServer,
        digest: u64,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let snapshot = server.handle().snapshot();
        let inner = Arc::new(Mutex::new(StoreInner::install(
            dir,
            config,
            digest,
            &snapshot,
            server.session().cube(),
        )?));
        server.set_hook(Box::new(StoreHook {
            inner: Arc::clone(&inner),
        }));
        Ok(Self { server, inner })
    }

    /// The read-side handle (cloneable, `Send + Sync`).
    pub fn handle(&self) -> TrustHandle {
        self.server.handle()
    }

    /// The epoch currently published.
    pub fn epoch(&self) -> u64 {
        self.server.epoch()
    }

    /// Queued (accepted, logged, not yet refitted) observation and
    /// retraction counts.
    pub fn pending(&self) -> (usize, usize) {
        self.server.pending()
    }

    /// The wrapped server (read-only).
    pub fn server(&self) -> &TrustServer {
        &self.server
    }

    /// Log and queue an additive batch. On `Err` the batch was neither
    /// logged nor queued.
    pub fn ingest(
        &mut self,
        delta: impl IntoIterator<Item = Observation>,
    ) -> Result<(), HookError> {
        self.server.ingest(delta)
    }

    /// Log and queue a retraction batch. On `Err` the batch was neither
    /// logged nor queued.
    pub fn retract(
        &mut self,
        retractions: impl IntoIterator<Item = (SourceId, ItemId, ValueId)>,
    ) -> Result<(), HookError> {
        self.server.retract(retractions)
    }

    /// Refit over the queued batches, publish, and commit ([`None`]
    /// when the queue is empty). The commit marker — and, when the
    /// policy fires, the checkpoint — are durable before this returns.
    pub fn refit(&mut self) -> Result<Option<Arc<TrustSnapshot>>, HookError> {
        self.server.refit()
    }

    /// [`Self::refit`] even with an empty queue: always publishes and
    /// commits a new epoch.
    pub fn force_refit(&mut self) -> Result<Arc<TrustSnapshot>, HookError> {
        self.server.force_refit()
    }

    /// Checkpoint the current published epoch immediately, regardless of
    /// the every-N policy, then rotate and prune. Returns the
    /// checkpointed epoch.
    ///
    /// # Errors
    ///
    /// [`StoreError::PendingBatches`] when accepted batches are queued:
    /// rotating the log would strand their records in a file the new
    /// checkpoint's chain never replays. Refit first.
    pub fn checkpoint_now(&mut self) -> Result<u64, StoreError> {
        if self.server.pending() != (0, 0) {
            return Err(StoreError::PendingBatches);
        }
        let snapshot = self.server.handle().snapshot();
        let mut inner = self
            .inner
            .lock()
            .map_err(|_| StoreError::corrupt("store state poisoned by an earlier panic"))?;
        inner.checkpoint(&snapshot, self.server.session().cube())?;
        Ok(snapshot.epoch())
    }

    /// Detach persistence and hand back the plain in-memory server (the
    /// on-disk state stays as last committed).
    pub fn into_server(mut self) -> TrustServer {
        let _ = self.server.take_hook();
        self.server
    }
}
