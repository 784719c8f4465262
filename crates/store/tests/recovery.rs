//! Crash-recovery properties of the durable store.
//!
//! Each proptest case drives a random ingest/retract/refit workload
//! against a [`DurableTrustServer`] in a sampled [`RefitMode`], records
//! the fingerprint of every published epoch, simulates a crash
//! (optionally mangling the files the way a real crash or bad disk
//! would: torn log tail at a random byte offset, a flipped byte inside a
//! record, a deleted checkpoint), and asserts that recovery lands on a
//! previously published epoch whose snapshot fingerprint matches **bit
//! for bit** — and that the reopened server goes on publishing exactly
//! what a twin that never crashed publishes.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use kbt_core::ModelConfig;
use kbt_datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt_pipeline::{Delta, FusionSession, Model};
use kbt_serve::{HookStage, RefitMode, TrustServer};
use kbt_store::{
    decode_checkpoint, encode_checkpoint, DurableTrustServer, StoreConfig, StoreError,
};
use proptest::prelude::*;

// ---- deterministic helpers ----

/// SplitMix64 — one sampled seed drives the whole case's decisions.
#[derive(Clone)]
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

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
    for w in 0..6u32 {
        for d in 0..12u32 {
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

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "kbt-store-recovery-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

// ---- workload driver ----

fn mode_of(warm: bool) -> RefitMode {
    if warm {
        RefitMode::Warm
    } else {
        RefitMode::Cold
    }
}

fn create(dir: &Path, mode: RefitMode, checkpoint_every: usize) -> DurableTrustServer {
    let config = StoreConfig {
        checkpoint_every,
        keep_checkpoints: 2,
    };
    let session = FusionSession::from_observations(base_corpus(), model());
    DurableTrustServer::create(dir, session, mode, config).expect("create store")
}

/// A server with no store that serves the same base in `mode`.
fn twin(mode: RefitMode) -> TrustServer {
    TrustServer::new(
        FusionSession::from_observations(base_corpus(), model()),
        mode,
    )
}

/// One random operation — ingest (twice as likely), retract or refit —
/// against `server`; `Some((epoch, fingerprint))` when it published.
fn step(server: &mut TrustServer, rng: &mut Mix) -> Option<(u64, u64)> {
    match rng.below(4) {
        0 | 1 => {
            let batch: Vec<Observation> = (0..1 + rng.below(4))
                .map(|_| {
                    obs(
                        rng.below(2) as u32,
                        rng.below(6) as u32,
                        rng.below(12) as u32,
                        rng.below(6) as u32,
                    )
                })
                .collect();
            server.ingest(batch).expect("logged ingest");
            None
        }
        2 => {
            let key = (
                SourceId::new(rng.below(6) as u32),
                ItemId::new(rng.below(12) as u32),
                ValueId::new(rng.below(6) as u32),
            );
            server.retract([key]).expect("logged retract");
            None
        }
        _ => server
            .refit()
            .expect("committed refit")
            .map(|snap| (snap.epoch(), snap.fingerprint())),
    }
}

fn published(server: &TrustServer) -> (u64, u64) {
    let snap = server.handle().snapshot();
    (snap.epoch(), snap.fingerprint())
}

/// Run `ops` random operations from `seed` and "crash" (drop the server
/// mid-flight: no shutdown, no final checkpoint). Returns the
/// `(epoch, fingerprint)` of every published snapshot, in order.
fn drive(
    dir: &Path,
    seed: u64,
    ops: usize,
    checkpoint_every: usize,
    mode: RefitMode,
) -> Vec<(u64, u64)> {
    let mut rng = Mix(seed);
    let mut server = create(dir, mode, checkpoint_every);
    let mut history = vec![published(&server)];
    for _ in 0..ops {
        history.extend(step(&mut server, &mut rng));
    }
    history
}

/// A server that never crashed and stands where `recover` landed: the
/// same `seed` replayed until `epoch` is published, then the recovered
/// uncommitted tail submitted.
fn twin_at(seed: u64, mode: RefitMode, epoch: u64, pending: &[Delta]) -> TrustServer {
    let mut rng = Mix(seed);
    let mut twin = twin(mode);
    while twin.epoch() < epoch {
        step(&mut twin, &mut rng);
    }
    for run in pending {
        twin.submit(run.clone()).expect("no hook to fail");
    }
    twin
}

/// Reopen the store in `dir` and run it beside `twin`: the same random
/// operations and one final batch, every publish compared bit for bit.
fn reopened_keeps_step_with(
    dir: &Path,
    mode: RefitMode,
    mut twin: TrustServer,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut reopened = DurableTrustServer::open(dir, model(), mode, StoreConfig::default())
        .expect("open after crash");
    prop_assert_eq!(published(&reopened), published(&twin));
    prop_assert_eq!(reopened.pending(), twin.pending());
    let mut rng = Mix(seed ^ 0xAF7E_2C2A);
    for _ in 0..6 {
        let ours = step(&mut reopened, &mut rng.clone());
        prop_assert_eq!(ours, step(&mut twin, &mut rng));
    }
    for server in [&mut *reopened, &mut twin] {
        server.ingest([obs(1, 2, 3, 4)]).expect("logged ingest");
        server.refit().expect("committed refit");
    }
    prop_assert_eq!(published(&reopened), published(&twin));
    Ok(())
}

fn files_with_prefix(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .expect("store dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix))
        })
        .collect();
    out.sort();
    out
}

/// Mangle the store the way a crash or bad disk would. Never destroys
/// the last remaining checkpoint, so recovery must always succeed.
fn mangle(dir: &Path, rng: &mut Mix) {
    let wals = files_with_prefix(dir, "wal-");
    let checkpoints = files_with_prefix(dir, "checkpoint-");
    match rng.below(3) {
        0 => {
            // Torn tail: truncate some log at a random byte offset.
            if let Some(path) = wals.get(rng.below(wals.len().max(1) as u64) as usize) {
                let len = fs::metadata(path).expect("wal metadata").len();
                if len > 0 {
                    let cut = rng.below(len);
                    let bytes = fs::read(path).expect("read wal");
                    fs::write(path, &bytes[..cut as usize]).expect("truncate wal");
                }
            }
        }
        1 => {
            // Flipped byte inside some log record (or its header).
            if let Some(path) = wals.get(rng.below(wals.len().max(1) as u64) as usize) {
                let mut bytes = fs::read(path).expect("read wal");
                if !bytes.is_empty() {
                    let at = rng.below(bytes.len() as u64) as usize;
                    bytes[at] ^= 0x40;
                    fs::write(path, &bytes).expect("rewrite wal");
                }
            }
        }
        _ => {
            // Missing checkpoint: delete the newest one, forcing the
            // fallback to an older checkpoint plus a longer replay.
            if checkpoints.len() >= 2 {
                fs::remove_file(checkpoints.last().expect("newest checkpoint"))
                    .expect("delete checkpoint");
            } else if let Some(path) = wals.last() {
                let len = fs::metadata(path).expect("wal metadata").len();
                if len > 1 {
                    let cut = 1 + rng.below(len - 1);
                    let bytes = fs::read(path).expect("read wal");
                    fs::write(path, &bytes[..cut as usize]).expect("truncate wal");
                }
            }
        }
    }
}

// ---- the crash properties ----

proptest! {
    /// A clean crash (no file damage) recovers the exact last published
    /// epoch, bit for bit, with the uncommitted tail intact as pending —
    /// and the reopened server's later epochs are the uncrashed twin's.
    #[test]
    fn clean_crash_recovers_the_exact_last_epoch(
        seed in any::<u64>(),
        ops in 4usize..10,
        checkpoint_every in 1usize..4,
        warm in any::<bool>(),
    ) {
        let mode = mode_of(warm);
        let dir = fresh_dir("clean");
        let history = drive(&dir, seed, ops, checkpoint_every, mode);
        let recovered = DurableTrustServer::recover(&dir, model())
            .expect("clean recovery cannot fail");
        let &(last_epoch, last_fp) = history.last().expect("epoch 0 exists");
        prop_assert_eq!(recovered.snapshot.epoch(), last_epoch);
        prop_assert_eq!(recovered.snapshot.fingerprint(), last_fp);
        // Nothing was lost, so the twin is simply the whole workload.
        let mut rng = Mix(seed);
        let mut twin = twin(mode);
        for _ in 0..ops {
            step(&mut twin, &mut rng);
        }
        reopened_keeps_step_with(&dir, mode, twin, seed)?;
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash plus file damage (torn tail at a random offset, a flipped
    /// byte, a deleted checkpoint) still recovers: the landing epoch is
    /// one that was really published, its fingerprint matches what was
    /// served at that epoch bit for bit, and from there the reopened
    /// server keeps step with a twin that accepted what survived.
    #[test]
    fn damaged_crash_recovers_a_durable_epoch(
        seed in any::<u64>(),
        ops in 4usize..10,
        checkpoint_every in 1usize..4,
        warm in any::<bool>(),
    ) {
        let mode = mode_of(warm);
        let dir = fresh_dir("damaged");
        let history = drive(&dir, seed, ops, checkpoint_every, mode);
        let mut rng = Mix(seed ^ 0xD15EA5E);
        mangle(&dir, &mut rng);
        let recovered = DurableTrustServer::recover(&dir, model())
            .expect("a checkpoint survived: recovery must succeed");
        let epoch = recovered.snapshot.epoch();
        let &(last_epoch, _) = history.last().expect("epoch 0 exists");
        prop_assert!(epoch <= last_epoch, "recovered future epoch {epoch}");
        let published = history.iter().find(|&&(e, _)| e == epoch);
        match published {
            Some(&(_, fp)) => prop_assert!(
                recovered.snapshot.fingerprint() == fp,
                "epoch {epoch} recovered with a different fingerprint"
            ),
            None => prop_assert!(false, "epoch {epoch} was never published"),
        }
        let twin = twin_at(seed, mode, epoch, &recovered.pending);
        reopened_keeps_step_with(&dir, mode, twin, seed)?;
        let _ = fs::remove_dir_all(&dir);
    }

    /// `decode(encode(snapshot, cube)) == (snapshot, cube)` — bitwise,
    /// for snapshots fitted on randomized corpora.
    #[test]
    fn checkpoint_codec_round_trips_bitwise(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let mut corpus = base_corpus();
        // Randomize: drop a slice and add random claims so every case
        // exercises a different cube shape.
        let keep = corpus.len() / 2 + rng.below(corpus.len() as u64 / 2) as usize;
        corpus.truncate(keep);
        for _ in 0..rng.below(20) {
            corpus.push(obs(
                rng.below(2) as u32,
                rng.below(6) as u32,
                rng.below(12) as u32,
                rng.below(6) as u32,
            ));
        }
        let server = TrustServer::new(
            FusionSession::from_observations(corpus, model()),
            RefitMode::Cold,
        );
        let snap = server.handle().snapshot();
        let bytes = encode_checkpoint(&snap, server.session().cube(), 42);
        let decoded = decode_checkpoint(&bytes, 42).expect("round trip");
        prop_assert_eq!(&decoded.snapshot, snap.as_ref());
        prop_assert_eq!(decoded.snapshot.fingerprint(), snap.fingerprint());
        let reencoded = encode_checkpoint(&decoded.snapshot, &decoded.cube, 42);
        prop_assert_eq!(reencoded, bytes);
    }
}

// ---- deterministic recovery behaviors ----

#[test]
fn open_resumes_and_continues_serving() {
    let dir = fresh_dir("resume");
    let history = drive(&dir, 7, 8, 2, RefitMode::Cold);
    let &(last_epoch, last_fp) = history.last().unwrap();

    let mut reopened =
        DurableTrustServer::open(&dir, model(), RefitMode::Cold, StoreConfig::default())
            .expect("open after crash");
    assert_eq!(reopened.epoch(), last_epoch);
    assert_eq!(reopened.handle().snapshot().fingerprint(), last_fp);

    // The store keeps working: new batches commit new epochs.
    reopened.ingest([obs(0, 1, 2, 3)]).unwrap();
    let snap = reopened.refit().unwrap().expect("pending batch published");
    assert_eq!(snap.epoch(), last_epoch + 1);
    let _ = fs::remove_dir_all(&dir);
}

/// An ingest naming the reserved id `u32::MAX`, on any axis, is refused
/// before the log sees it: nothing is queued, and a store that crashes
/// right after reopens with nothing pending and goes on refitting (a
/// logged batch would be queued again on every reopen, and every refit
/// would panic on it).
#[test]
fn an_ingest_naming_the_reserved_id_is_refused_before_it_is_logged() {
    let dir = fresh_dir("reserved");
    {
        let mut server = create(&dir, RefitMode::Warm, 8);
        let m = u32::MAX;
        for bad in [
            obs(m, 0, 0, 0),
            obs(0, m, 0, 0),
            obs(0, 0, m, 0),
            obs(0, 0, 0, m),
        ] {
            let err = (server.ingest([obs(0, 1, 2, 3), bad]))
                .expect_err("an ingest naming u32::MAX is refused");
            assert_eq!(err.stage(), HookStage::Admit, "{bad:?}");
        }
        assert_eq!(server.pending(), (0, 0));
        // crash
    }
    let mut reopened =
        DurableTrustServer::open(&dir, model(), RefitMode::Warm, StoreConfig::default())
            .expect("reopen after the refusal");
    assert_eq!(reopened.pending(), (0, 0), "nothing was logged");
    reopened.ingest([obs(0, 1, 2, 3)]).unwrap();
    let snap = reopened.refit().unwrap().expect("the batch publishes");
    assert_eq!(snap.epoch(), 1);
    let _ = fs::remove_dir_all(&dir);
}

/// Crash past the checkpoint with an uncommitted tail, reopen, refit —
/// in either mode the tail's epoch, and the one after it, equal what a
/// server that never crashed publishes from the same submissions.
#[test]
fn reopened_server_matches_an_uncrashed_twin() {
    for mode in [RefitMode::Warm, RefitMode::Cold] {
        let dir = fresh_dir("twin");
        let mut twin = twin(mode);
        {
            let mut server = create(&dir, mode, 8);
            for server in [&mut *server, &mut twin] {
                // Two commits the log alone holds, then the tail.
                for d in 0..2 {
                    server.ingest([obs(0, 5, d, 1), obs(1, 4, d, 2)]).unwrap();
                    server.refit().unwrap().expect("batch publishes");
                }
                server.ingest([obs(0, 3, 4, 5), obs(1, 2, 9, 1)]).unwrap();
                server
                    .retract([(SourceId::new(1), ItemId::new(3), ValueId::new(0))])
                    .unwrap();
            }
            // crash before refit
        }
        let mut reopened =
            DurableTrustServer::open(&dir, model(), mode, StoreConfig::default()).unwrap();
        assert_eq!(published(&reopened), published(&twin), "{mode:?}");
        assert_eq!(reopened.pending(), (2, 1));
        for next in 3..5 {
            let recovered_snap = reopened.refit().unwrap().expect("batch publishes");
            let twin_snap = twin.refit().unwrap().expect("batch publishes");
            assert_eq!(recovered_snap.epoch(), next);
            assert_eq!(recovered_snap.as_ref(), twin_snap.as_ref(), "{mode:?}");
            for server in [&mut *reopened, &mut twin] {
                server.ingest([obs(1, 0, 6, 2)]).unwrap();
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The structural fact behind "recovery is cheaper than refitting from
/// raw observations": a crash that lands on a checkpoint is pure decode,
/// and a crash past one replays exactly the commits logged since — one
/// refit each, in the mode the server ran.
#[test]
fn recovery_decodes_a_checkpoint_and_replays_only_the_commits_past_it() {
    // `commits` single-observation refits, then the crash.
    let crash_after = |mode: RefitMode, checkpoint_every: usize, commits: u32| {
        let dir = fresh_dir("replay-count");
        let mut server = create(&dir, mode, checkpoint_every);
        for i in 0..commits {
            server.ingest([obs(i % 2, i % 6, i % 12, 4)]).unwrap();
            server.refit().unwrap().expect("pending batch publishes");
        }
        let served = server.handle().snapshot();
        drop(server);
        let recovered = DurableTrustServer::recover(&dir, model()).expect("recover");
        (dir, served, recovered)
    };

    // Commit 2 checkpointed: nothing to replay, the snapshot is decoded
    // and no EM runs.
    let (dir, served, recovered) = crash_after(RefitMode::Warm, 2, 2);
    assert_eq!(recovered.checkpoint_epoch, 2);
    assert_eq!(recovered.replayed_commits, 0);
    assert_eq!(served.provenance().refit_mode, RefitMode::Warm);
    assert_eq!(&recovered.snapshot, served.as_ref());
    assert_eq!(recovered.snapshot.fingerprint(), served.fingerprint());

    // A tail torn off the log the checkpoint started destroys no commit
    // (the log is empty; the tear is in its header): same epoch again.
    let newest = files_with_prefix(&dir, "wal-").pop().expect("active log");
    let bytes = fs::read(&newest).unwrap();
    fs::write(&newest, &bytes[..bytes.len() - 7]).unwrap();
    let torn = DurableTrustServer::recover(&dir, model()).expect("recover from torn tail");
    assert_eq!(torn.replayed_commits, 0);
    assert_eq!(&torn.snapshot, served.as_ref());
    let _ = fs::remove_dir_all(&dir);

    for mode in [RefitMode::Warm, RefitMode::Cold] {
        for (checkpoint_every, commits, checkpoint_epoch, replayed) in
            [(4, 3, 0, 3), (2, 5, 4, 1), (4, 6, 4, 2)]
        {
            let (dir, served, recovered) = crash_after(mode, checkpoint_every, commits);
            assert_eq!(recovered.checkpoint_epoch, checkpoint_epoch);
            assert_eq!(recovered.replayed_commits, replayed);
            // Provenance, warm columns and serving mode included.
            assert_eq!(&recovered.snapshot, served.as_ref(), "{mode:?}");
            assert_eq!(recovered.snapshot.fingerprint(), served.fingerprint());
            assert_eq!(recovered.session.warm(), Some(&served.warm_state()));
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn checkpoint_now_refuses_pending_batches() {
    let dir = fresh_dir("ckpt-now");
    let session = FusionSession::from_observations(base_corpus(), model());
    let mut server =
        DurableTrustServer::create(&dir, session, RefitMode::Cold, StoreConfig::default()).unwrap();
    server.ingest([obs(0, 1, 2, 3)]).unwrap();
    assert!(matches!(
        server.checkpoint_now(),
        Err(StoreError::PendingBatches)
    ));
    server.refit().unwrap();
    let epoch = server
        .checkpoint_now()
        .expect("drained: checkpoint allowed");
    assert_eq!(epoch, server.epoch());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn create_refuses_an_existing_store() {
    let dir = fresh_dir("exists");
    let session = FusionSession::from_observations(base_corpus(), model());
    let server =
        DurableTrustServer::create(&dir, session, RefitMode::Cold, StoreConfig::default()).unwrap();
    drop(server);
    let again = DurableTrustServer::create(
        &dir,
        FusionSession::from_observations(base_corpus(), model()),
        RefitMode::Cold,
        StoreConfig::default(),
    );
    assert!(matches!(again, Err(StoreError::AlreadyExists)));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn open_with_a_different_model_config_is_rejected() {
    let dir = fresh_dir("config");
    let session = FusionSession::from_observations(base_corpus(), model());
    drop(
        DurableTrustServer::create(&dir, session, RefitMode::Cold, StoreConfig::default()).unwrap(),
    );
    let err = DurableTrustServer::open(
        &dir,
        Model::accu(), // not the config the store was written under
        RefitMode::Cold,
        StoreConfig::default(),
    )
    .expect_err("mismatched config must not resume");
    assert!(matches!(err, StoreError::ConfigMismatch { .. }), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_destroyed_only_checkpoint_is_a_hard_error() {
    let dir = fresh_dir("destroyed");
    let session = FusionSession::from_observations(base_corpus(), model());
    drop(
        DurableTrustServer::create(&dir, session, RefitMode::Cold, StoreConfig::default()).unwrap(),
    );
    let checkpoints = files_with_prefix(&dir, "checkpoint-");
    assert_eq!(checkpoints.len(), 1);
    let mut bytes = fs::read(&checkpoints[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&checkpoints[0], &bytes).unwrap();
    let err = DurableTrustServer::recover(&dir, model()).expect_err("nothing valid to recover");
    assert!(
        matches!(err, StoreError::Corrupt(_) | StoreError::NoCheckpoint),
        "{err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pruning_bounds_store_files() {
    let dir = fresh_dir("prune");
    let session = FusionSession::from_observations(base_corpus(), model());
    let mut server = DurableTrustServer::create(
        &dir,
        session,
        RefitMode::Cold,
        StoreConfig {
            checkpoint_every: 1, // checkpoint at every publish
            keep_checkpoints: 2,
        },
    )
    .unwrap();
    for i in 0..6u32 {
        server.ingest([obs(i % 2, i % 6, i % 12, i % 6)]).unwrap();
        server.refit().unwrap();
    }
    assert_eq!(files_with_prefix(&dir, "checkpoint-").len(), 2);
    // Every surviving log chains from a kept checkpoint.
    let oldest_kept = files_with_prefix(&dir, "checkpoint-")
        .first()
        .and_then(|p| p.file_name().and_then(|n| n.to_str()).map(String::from))
        .unwrap();
    let oldest_epoch: u64 = oldest_kept
        .trim_start_matches("checkpoint-")
        .parse()
        .unwrap();
    for wal in files_with_prefix(&dir, "wal-") {
        let name = wal.file_name().unwrap().to_str().unwrap().to_string();
        let epoch: u64 = name
            .trim_start_matches("wal-")
            .trim_end_matches(".log")
            .parse()
            .unwrap();
        assert!(epoch >= oldest_epoch, "{name} outlived pruning");
    }
    let _ = fs::remove_dir_all(&dir);
}
