//! [`DurableTrustServer`]: a [`TrustServer`] whose state survives a
//! crash.
//!
//! The store *is* the server's [`DurabilityHook`]: `StoreInner` (the
//! active log writer plus the checkpoint policy) is boxed into the
//! [`TrustServer`] it persists and is reached through the hook's three
//! calls and nothing else. Batches are logged before they are queued,
//! publishes append a commit marker and fsync, and every
//! [`StoreConfig::checkpoint_every`] applied batches the store
//! checkpoints, rotates the log, and prunes history down to
//! [`StoreConfig::keep_checkpoints`] checkpoints.
//!
//! See the crate docs for the file formats and the recovery protocol;
//! [`DurableTrustServer::recover`] is the pure recovery function (used
//! directly by the crash proptests and `benchmark/`), and
//! [`DurableTrustServer::open`] is recovery plus resumption: it
//! re-checkpoints the recovered state, starts a fresh log, re-queues the
//! uncommitted tail, and hands back a serving server.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};

use kbt_datamodel::wire::WireError;
use kbt_datamodel::ObservationCube;
use kbt_pipeline::{Delta, FusionSession, Model};
use kbt_serve::{
    apply_and_fit, CheckpointError, DurabilityHook, HookError, HookFailure, RefitMode,
    SnapshotPartsError, TrustServer, TrustSnapshot,
};

use crate::codec::{decode_checkpoint, encode_checkpoint};
use crate::wal::{read_wal, WalRecord, WalWriter};

// ---- configuration ----

/// Tuning knobs of a durable store. The log is always fsynced at a
/// commit, and a checkpoint before its atomic rename; neither is a
/// knob.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Checkpoint after this many applied delta batches (additive and
    /// retraction batches both count, matching
    /// `SnapshotProvenance::deltas_applied`). Lower values bound
    /// recovery replay at the price of more checkpoint writes; `1`
    /// checkpoints at every publish. Must be at least 1.
    pub checkpoint_every: usize,
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
    /// The store's own hook call failed: re-logging a recovered pending
    /// batch in `open`, or the checkpoint of `checkpoint_now`.
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

/// Fsync `dir` itself, which makes the entries of files renamed into or
/// created in it durable (their contents are synced through their own
/// handles).
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
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
    sync_dir(dir)?;
    Ok(wal)
}

// ---- the store, as the server's hook ----

/// The persistence state of one serving [`TrustServer`]: its only
/// [`DurabilityHook`], owned by the server it persists.
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
    /// Write a checkpoint of `(snapshot, cube)` into `dir` (which
    /// exists; `config` is validated), start a fresh log based on it,
    /// and install both as the active state; then prune.
    fn install(
        dir: &Path,
        config: StoreConfig,
        digest: u64,
        snapshot: &TrustSnapshot,
        cube: &ObservationCube,
    ) -> Result<Self, StoreError> {
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
    fn rotate(
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

impl DurabilityHook for StoreInner {
    fn log(&mut self, delta: &Delta) -> Result<(), HookFailure> {
        match delta {
            Delta::Add(obs) => self.wal.append_add(obs)?,
            Delta::Remove(keys) => self.wal.append_remove(keys)?,
        }
        Ok(())
    }

    fn commit(
        &mut self,
        snapshot: &TrustSnapshot,
        session: &FusionSession,
    ) -> Result<(), HookFailure> {
        self.wal.append_commit(snapshot.epoch())?;
        self.wal.sync()?;
        // The checkpoint-every-N policy, measured in applied batches.
        // The server's pending queue is empty at commit time (it was
        // just drained into the session), so rotating here cannot orphan
        // an uncommitted log record.
        let applied = snapshot.provenance().deltas_applied;
        if applied.saturating_sub(self.deltas_at_checkpoint) >= self.config.checkpoint_every {
            self.rotate(snapshot, session.cube())?;
        }
        Ok(())
    }

    fn checkpoint(
        &mut self,
        snapshot: &TrustSnapshot,
        session: &FusionSession,
    ) -> Result<(), HookFailure> {
        Ok(self.rotate(snapshot, session.cube())?)
    }
}

// ---- recovery ----

/// What [`DurableTrustServer::recover`] reconstructed from disk.
#[derive(Debug)]
pub struct RecoveredState {
    /// The snapshot at the last durable epoch — decoded directly from
    /// the checkpoint when the crash landed on one, refitted by the
    /// replay of the last commit marker otherwise; bit-identical to the
    /// one that was served either way.
    pub snapshot: TrustSnapshot,
    /// The session at that epoch: checkpointed cube plus every replayed
    /// committed batch, delta counter and warm state as the live session
    /// held them.
    pub session: FusionSession,
    /// The uncommitted log tail, in submission order — the delta runs
    /// the pre-crash server accepted but never refitted.
    /// [`DurableTrustServer::open`] re-queues (and re-logs) them.
    pub pending: Vec<Delta>,
    /// Epoch of the checkpoint recovery started from.
    pub checkpoint_epoch: u64,
    /// Commit markers replayed beyond the checkpoint — one refit each
    /// (0 = the fast path: pure decode, no EM).
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
    let mut snapshot = base.snapshot;
    let mut session = FusionSession::restore(
        base.cube,
        model,
        snapshot.provenance().deltas_applied,
        snapshot.warm_state(),
    );
    // The server that wrote the checkpoint stamped its refit mode on it;
    // every commit it logged past the checkpoint was fitted in that mode.
    let mode = snapshot.serving_mode();

    // Replay the log chain: wal files from the checkpoint on, each file
    // based on the epoch the previous one committed up to. A broken
    // link (missing file, bad header, torn middle) ends the chain —
    // recovery lands on the last epoch that is provably durable.
    let mut pending: Vec<Delta> = Vec::new();
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
                // Queued by the live server's own rule, so replay applies
                // the same delta runs and the provenance delta counter
                // matches bit for bit.
                WalRecord::Batch(delta) => delta.coalesce_into(&mut pending),
                WalRecord::Commit(epoch) => {
                    if epoch <= cur_epoch {
                        // Already inside the checkpoint: drop the run.
                        pending.clear();
                        continue;
                    }
                    // The live server's own refit step: the session
                    // leaves it holding the warm state the next commit's
                    // refit resumed from, so every replayed epoch — not
                    // just the last — is the one that was served.
                    snapshot = apply_and_fit(&mut session, &mut pending, mode, epoch);
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

    Ok(RecoveredState {
        snapshot,
        session,
        pending,
        checkpoint_epoch,
        replayed_commits,
    })
}

// ---- the durable server ----

/// A [`TrustServer`] with crash-safe persistence attached: every
/// accepted batch is write-ahead logged, every publish is committed,
/// checkpoints land every [`StoreConfig::checkpoint_every`] applied
/// batches, and [`open`](Self::open) restores the whole thing to the
/// last durable epoch, bit for bit, and goes on publishing the epochs a
/// server that never stopped would have.
///
/// It *is* the server (`Deref`): `ingest` / `retract` / `refit` /
/// `handle` / `epoch` / `pending` are [`TrustServer`]'s own, logging and
/// committing through the store it owns as its hook. On `Err` from
/// `ingest` / `retract` the batch was neither logged nor queued; when
/// `refit` returns, the commit marker — and, when the policy fires, the
/// checkpoint — are durable.
#[derive(Debug)]
pub struct DurableTrustServer(TrustServer);

impl Deref for DurableTrustServer {
    type Target = TrustServer;

    fn deref(&self) -> &TrustServer {
        &self.0
    }
}

impl DerefMut for DurableTrustServer {
    fn deref_mut(&mut self) -> &mut TrustServer {
        &mut self.0
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
        Self::attach(dir, TrustServer::new(session, mode), digest, config)
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
        let server = TrustServer::resume(recovered.session, recovered.snapshot, mode);
        let mut durable = Self::attach(dir, server, digest, config)?;
        for run in recovered.pending {
            durable.submit(run).map_err(StoreError::Hook)?;
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

    /// Checkpoint `server`'s published epoch into `dir` and hand the
    /// store to the server as its hook.
    fn attach(
        dir: &Path,
        mut server: TrustServer,
        digest: u64,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        let snapshot = server.handle().snapshot();
        let cube = server.session().cube();
        let inner = StoreInner::install(dir, config, digest, &snapshot, cube)?;
        server.set_hook(Box::new(inner));
        Ok(Self(server))
    }

    /// Checkpoint the current published epoch immediately, regardless of
    /// the every-N policy, then rotate and prune. Returns the
    /// checkpointed epoch. ([`TrustServer::checkpoint_now`] with the
    /// store's error type.)
    ///
    /// # Errors
    ///
    /// [`StoreError::PendingBatches`] when accepted batches are queued:
    /// rotating the log would strand their records in a file the new
    /// checkpoint's chain never replays. Refit first.
    pub fn checkpoint_now(&mut self) -> Result<u64, StoreError> {
        self.0.checkpoint_now().map_err(|e| match e {
            CheckpointError::PendingBatches => StoreError::PendingBatches,
            CheckpointError::Hook(e) => StoreError::Hook(e),
        })
    }

    /// The server itself, store still attached: it keeps logging,
    /// committing and checkpointing wherever it runs next — behind
    /// `kbt_net::NetServer::spawn`, say, whose `shutdown()` hands it
    /// back to be checkpointed with [`TrustServer::checkpoint_now`].
    pub fn into_server(self) -> TrustServer {
        self.0
    }
}
