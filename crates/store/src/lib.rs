//! # kbt-store
//!
//! Crash-safe persistence for the trust-serving layer: durable
//! [`TrustSnapshot`](kbt_serve::TrustSnapshot) checkpoints plus a
//! write-ahead log of ingested deltas and retractions, so a restarted
//! server recovers to a **bit-identical epoch** instead of cold-refitting
//! the whole knowledge-based-trust model from raw observations.
//!
//! ## The on-disk layout
//!
//! A store is one directory holding two kinds of files:
//!
//! * `checkpoint-<epoch>` — the full durable state at one published
//!   epoch: the observation cube (every cell, so the EM engine can be
//!   restarted on it) and the published snapshot payload (with the warm
//!   state the next refit resumes from and the server's refit mode),
//!   framed with a magic, a format version, a model-config digest, the
//!   snapshot's own payload fingerprint, and a trailing CRC-32. Written
//!   atomically (tmp + fsync + rename + directory fsync).
//! * `wal-<epoch>.log` — the append-only delta log whose **base** is
//!   `checkpoint-<epoch>`: length-prefixed frames with a per-record
//!   CRC-32, one frame per ingested batch, retraction batch, or commit
//!   marker. A torn tail (a crash mid-append) is detected and truncated
//!   on open.
//!
//! ## The protocol
//!
//! The store is a [`TrustServer`](kbt_serve::TrustServer)'s
//! [`DurabilityHook`](kbt_serve::DurabilityHook) — boxed into the server
//! it persists, reached through the hook's three calls and no other way.
//! [`DurableTrustServer`] is that server under a name that can
//! [`create`](DurableTrustServer::create), [`open`](DurableTrustServer::open)
//! and [`recover`](DurableTrustServer::recover) one;
//! [`into_server`](DurableTrustServer::into_server) hands the same
//! server, store attached, to whatever runs it next (`kbt-net`'s
//! `NetServer::spawn`). One [`Delta`](kbt_pipeline::Delta) is what the
//! server queues, what a log record holds and what replay applies:
//!
//! 1. `log`: every batch is **logged before it is queued** — the
//!    in-memory server can never run ahead of the log;
//! 2. `commit`: every publish appends a commit marker carrying the new
//!    epoch and fsyncs the log — when `refit` returns, the epoch is
//!    logged, applied and committed;
//! 3. every [`StoreConfig::checkpoint_every`] applied batches, `commit`
//!    also checkpoints the fresh snapshot + cube, rotates to a new log
//!    whose base is that checkpoint, and prunes files older than
//!    [`StoreConfig::keep_checkpoints`] checkpoints; `checkpoint`
//!    (`checkpoint_now`) does the same on demand, and is refused while
//!    logged batches are still queued.
//!
//! ## Recovery
//!
//! [`DurableTrustServer::recover`] loads the newest checkpoint that
//! decodes cleanly (older ones are fallbacks if the newest is corrupt)
//! and restores the session as the checkpointing server held it: the
//! cube, the delta counter, and the
//! [`WarmState`](kbt_pipeline::WarmState) the checkpointed snapshot
//! kept. Then it replays the log chain with the very functions the live
//! server runs: batches are queued through `Delta::coalesce_into` (where
//! consecutive same-kind batches become one delta run), and every commit
//! marker runs the server's own refit step,
//! [`apply_and_fit`](kbt_serve::apply_and_fit) — apply the queued runs,
//! fit, export — in the [`RefitMode`](kbt_serve::RefitMode) the
//! checkpoint records its server ran. Each replayed epoch therefore
//! starts from the state the live server refitted it from, and the
//! recovered snapshot's fingerprint equals the pre-crash epoch's bit for
//! bit, warm or cold; the uncommitted tail is re-queued as pending. A
//! replay costs one refit per commit logged since the checkpoint, at
//! most [`StoreConfig::checkpoint_every`] − 1 of them; if the crash
//! landed exactly on a checkpoint, recovery is a pure decode: no EM at
//! all.

#![warn(missing_docs)]

pub mod codec;
pub mod durable;
pub mod wal;

pub use codec::{decode_checkpoint, encode_checkpoint, CheckpointContents};
pub use durable::{config_digest, DurableTrustServer, RecoveredState, StoreConfig, StoreError};
pub use wal::{WalReadOutcome, WalRecord, WalWriter};
