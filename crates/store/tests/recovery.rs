//! Crash-recovery properties of the durable store.
//!
//! Each proptest case drives a random ingest/retract/refit workload
//! against a [`DurableTrustServer`], records the fingerprint of every
//! published epoch, simulates a crash (optionally mangling the files the
//! way a real crash or bad disk would: torn log tail at a random byte
//! offset, a flipped byte inside a record, a deleted checkpoint), and
//! asserts that recovery lands on a previously published epoch whose
//! snapshot fingerprint matches **bit for bit**.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use kbt_core::ModelConfig;
use kbt_datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt_pipeline::{Delta, FusionSession, Model};
use kbt_serve::{RefitMode, TrustServer};
use kbt_store::{
    decode_checkpoint, encode_checkpoint, DurableTrustServer, StoreConfig, StoreError,
};
use proptest::prelude::*;

// ---- deterministic helpers ----

/// SplitMix64 — one sampled seed drives the whole case's decisions.
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

/// The ground truth a crashed workload leaves behind.
struct Crashed {
    /// `(epoch, fingerprint)` of every published snapshot, in order.
    history: Vec<(u64, u64)>,
    /// Queued-but-unrefitted counts at the moment of the crash.
    pending: (usize, usize),
}

/// Run `ops` random operations and "crash" (drop the server mid-flight).
fn drive(dir: &Path, seed: u64, ops: usize, checkpoint_every: usize) -> Crashed {
    let mut rng = Mix(seed);
    let config = StoreConfig {
        checkpoint_every,
        keep_checkpoints: 2,
    };
    let session = FusionSession::from_observations(base_corpus(), model());
    let mut server =
        DurableTrustServer::create(dir, session, RefitMode::Cold, config).expect("create store");
    let mut history = vec![(0u64, server.handle().snapshot().fingerprint())];
    for _ in 0..ops {
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
            }
            2 => {
                let key = (
                    SourceId::new(rng.below(6) as u32),
                    ItemId::new(rng.below(12) as u32),
                    ValueId::new(rng.below(6) as u32),
                );
                server.retract([key]).expect("logged retract");
            }
            _ => {
                if let Some(snap) = server.refit().expect("committed refit") {
                    history.push((snap.epoch(), snap.fingerprint()));
                }
            }
        }
    }
    let pending = server.pending();
    drop(server); // the crash: no shutdown, no final checkpoint
    Crashed { history, pending }
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
    /// epoch, bit for bit, with the uncommitted tail intact as pending.
    #[test]
    fn clean_crash_recovers_the_exact_last_epoch(
        seed in any::<u64>(),
        ops in 4usize..10,
        checkpoint_every in 1usize..4,
    ) {
        let dir = fresh_dir("clean");
        let crashed = drive(&dir, seed, ops, checkpoint_every);
        let recovered = DurableTrustServer::recover(&dir, model())
            .expect("clean recovery cannot fail");
        let &(last_epoch, last_fp) = crashed.history.last().expect("epoch 0 exists");
        prop_assert_eq!(recovered.snapshot.epoch(), last_epoch);
        prop_assert_eq!(recovered.snapshot.fingerprint(), last_fp);
        let (obs_n, ret_n) = recovered.pending.iter().fold((0, 0), |(a, r), b| match b {
            Delta::Add(v) => (a + v.len(), r),
            Delta::Remove(v) => (a, r + v.len()),
        });
        prop_assert_eq!((obs_n, ret_n), crashed.pending);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash plus file damage (torn tail at a random offset, a flipped
    /// byte, a deleted checkpoint) still recovers: the landing epoch is
    /// one that was really published, and its fingerprint matches what
    /// was served at that epoch bit for bit.
    #[test]
    fn damaged_crash_recovers_a_durable_epoch(
        seed in any::<u64>(),
        ops in 4usize..10,
        checkpoint_every in 1usize..4,
    ) {
        let dir = fresh_dir("damaged");
        let crashed = drive(&dir, seed, ops, checkpoint_every);
        let mut rng = Mix(seed ^ 0xD15EA5E);
        mangle(&dir, &mut rng);
        let recovered = DurableTrustServer::recover(&dir, model())
            .expect("a checkpoint survived: recovery must succeed");
        let epoch = recovered.snapshot.epoch();
        let &(last_epoch, _) = crashed.history.last().expect("epoch 0 exists");
        prop_assert!(epoch <= last_epoch, "recovered future epoch {epoch}");
        let published = crashed.history.iter().find(|&&(e, _)| e == epoch);
        match published {
            Some(&(_, fp)) => prop_assert!(
                recovered.snapshot.fingerprint() == fp,
                "epoch {epoch} recovered with a different fingerprint"
            ),
            None => prop_assert!(false, "epoch {epoch} was never published"),
        }
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
    let crashed = drive(&dir, 7, 8, 2);
    let &(last_epoch, last_fp) = crashed.history.last().unwrap();

    let mut reopened =
        DurableTrustServer::open(&dir, model(), RefitMode::Cold, StoreConfig::default())
            .expect("open after crash");
    assert_eq!(reopened.epoch(), last_epoch);
    assert_eq!(reopened.handle().snapshot().fingerprint(), last_fp);
    assert_eq!(reopened.pending(), crashed.pending);

    // The store keeps working: new batches commit new epochs.
    reopened.ingest([obs(0, 1, 2, 3)]).unwrap();
    let snap = reopened.refit().unwrap().expect("pending batch published");
    assert_eq!(snap.epoch(), last_epoch + 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reopened_server_matches_an_uncrashed_twin() {
    // Crash with an uncommitted tail, reopen, refit — the published
    // snapshot must equal what a server that never crashed produces
    // from the same submissions.
    let dir = fresh_dir("twin");
    {
        let session = FusionSession::from_observations(base_corpus(), model());
        let mut server =
            DurableTrustServer::create(&dir, session, RefitMode::Cold, StoreConfig::default())
                .unwrap();
        server.ingest([obs(0, 3, 4, 5), obs(1, 2, 9, 1)]).unwrap();
        server
            .retract([(SourceId::new(1), ItemId::new(3), ValueId::new(0))])
            .unwrap();
        // crash before refit
    }
    let mut reopened =
        DurableTrustServer::open(&dir, model(), RefitMode::Cold, StoreConfig::default()).unwrap();
    assert_eq!(reopened.pending(), (2, 1));
    let recovered_snap = reopened.refit().unwrap().expect("tail publishes");

    let twin_session = FusionSession::from_observations(base_corpus(), model());
    let mut twin = TrustServer::new(twin_session, RefitMode::Cold);
    twin.ingest([obs(0, 3, 4, 5), obs(1, 2, 9, 1)]).unwrap();
    twin.retract([(SourceId::new(1), ItemId::new(3), ValueId::new(0))])
        .unwrap();
    let twin_snap = twin.refit().unwrap().expect("tail publishes");

    assert_eq!(recovered_snap.epoch(), twin_snap.epoch());
    assert_eq!(recovered_snap.fingerprint(), twin_snap.fingerprint());
    assert_eq!(recovered_snap.as_ref(), twin_snap.as_ref());
    let _ = fs::remove_dir_all(&dir);
}

/// The structural fact behind "recovery is cheaper than a cold refit":
/// a crash that lands on a checkpoint is pure decode, and a crash past
/// one replays exactly the commits logged since, then refits once.
#[test]
fn recovery_decodes_a_checkpoint_and_replays_only_the_commits_past_it() {
    // `commits` single-observation refits, then the crash.
    let crash_after = |mode: RefitMode, checkpoint_every: usize, commits: u32| {
        let dir = fresh_dir("replay-count");
        let config = StoreConfig {
            checkpoint_every,
            keep_checkpoints: 2,
        };
        let session = FusionSession::from_observations(base_corpus(), model());
        let mut server = DurableTrustServer::create(&dir, session, mode, config).unwrap();
        for i in 0..commits {
            server.ingest([obs(i % 2, i % 6, i % 12, 4)]).unwrap();
            server.refit().unwrap().expect("pending batch publishes");
        }
        let served = server.handle().snapshot();
        drop(server);
        let recovered = DurableTrustServer::recover(&dir, model()).expect("recover");
        (dir, served, recovered)
    };

    // Commit 2 checkpointed: nothing to replay. A *warm* server's
    // snapshot comes back whole, provenance included — replay can only
    // produce a cold refit, so this one was decoded and no EM ran.
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

    for (checkpoint_every, commits, checkpoint_epoch, replayed) in
        [(4, 3, 0, 3), (2, 5, 4, 1), (4, 6, 4, 2)]
    {
        let (dir, served, recovered) = crash_after(RefitMode::Cold, checkpoint_every, commits);
        assert_eq!(recovered.checkpoint_epoch, checkpoint_epoch);
        assert_eq!(recovered.replayed_commits, replayed);
        assert_eq!(recovered.snapshot.epoch(), u64::from(commits));
        assert_eq!(recovered.snapshot.fingerprint(), served.fingerprint());
        let _ = fs::remove_dir_all(&dir);
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
