//! # kbt-serve
//!
//! The concurrent trust-serving layer: KBT's end product — per-source
//! trustworthiness and per-triple correctness posteriors — kept resident
//! and queryable while the model keeps learning.
//!
//! The batch pipeline (`kbt-pipeline`) computes a [`kbt_core::FusionReport`]
//! and exits; a serving deployment instead needs **reads that never
//! block, never tear, and never go backwards** while observation deltas
//! stream in and EM refits run. This crate provides that as three
//! pieces:
//!
//! * [`TrustSnapshot`] — an immutable, query-optimized export of one
//!   fusion epoch: trust scores, value posteriors, the served triple
//!   keys, copy-independence factors, and provenance — what the paper's
//!   three queries read (a source's KBT, an item's value posterior, a
//!   triple's truth, which is its item's posterior), and nothing else.
//!   Queries: [`trust`](TrustSnapshot::trust),
//!   [`posterior`](TrustSnapshot::posterior),
//!   [`triple_posterior`](TrustSnapshot::triple_posterior),
//!   [`top_k_sources`](TrustSnapshot::top_k_sources), and batched forms.
//! * [`SnapshotStore`] / [`SnapshotReader`] — epoch-swapped publication:
//!   the writer installs a new `Arc<TrustSnapshot>` and then releases the
//!   epoch counter; readers revalidate an epoch-cached `Arc` with one
//!   atomic load per query, so the steady-state read path takes no lock
//!   and touches no shared refcount.
//! * [`TrustServer`] — the single writer. It owns a
//!   [`kbt_pipeline::FusionSession`], batches ingested deltas and
//!   retractions, refits warm (`apply_delta` + the previous epoch's
//!   [`kbt_pipeline::WarmState`]) or cold ([`RefitMode`]), and publishes
//!   the next epoch; the read side holds
//!   only cloneable [`TrustHandle`]s. Persistence plugs in through one
//!   seam, the [`DurabilityHook`] the server owns: `log` before a batch
//!   is queued, `commit` after a publish, `checkpoint` on demand.
//!
//! ```
//! use kbt_pipeline::{Model, TrustPipeline};
//! use kbt_serve::{RefitMode, TrustServer};
//! use kbt_datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
//!
//! let obs = |w: u32, d: u32, v: u32| Observation::certain(
//!     ExtractorId::new(0), SourceId::new(w), ItemId::new(d), ValueId::new(v));
//! let base: Vec<Observation> =
//!     (0..3).flat_map(|w| (0..8).map(move |d| obs(w, d, 0))).collect();
//!
//! let mut server = TrustServer::from_pipeline(
//!     TrustPipeline::new().observations(base).threads(1),
//!     RefitMode::Warm,
//! ).unwrap();                                   // initial fit, epoch 0
//! let handle = server.handle();                 // read side (Send + Sync)
//! let mut reader = handle.reader();
//!
//! server.ingest((0..8).map(|d| obs(3, d, 0))).unwrap(); // a delta lands…
//! server.refit().unwrap();                      // …warm refit, epoch 1
//! let snap = reader.current();                  // one atomic load
//! assert_eq!(snap.epoch(), 1);
//! assert!(snap.trust(SourceId::new(3)).unwrap() > 0.5);
//! ```
//!
//! ## Epoch semantics
//!
//! Epoch 0 is the initial fit; every publish increments the epoch by one
//! and the store rejects non-monotone publishes. A reader observes a
//! **prefix-consistent history**: epochs only move forward, and every
//! snapshot is internally consistent (it was built single-threaded by
//! the writer and is immutable after). Reads during a refit simply keep
//! serving the previous epoch.
//!
//! ## When warm refits restart from init
//!
//! A warm refit resumes EM from the previous epoch's warm state, which
//! every published [`TrustSnapshot`] can hand back
//! ([`TrustSnapshot::warm_state`]) — so the mode is a performance
//! choice, not a reproducibility one. Two cases deliberately restart
//! from initialization instead: [`RefitMode::Cold`] (audits against the
//! batch pipeline — a cold refit over a delta prefix is bit-identical to
//! a cold `TrustPipeline` run over that prefix), and the copy-aware discount
//! loop inside a fit, which refits from init with dependent sources
//! down-weighted because a copier-corrupted basin cannot be left by warm
//! continuation (see `MultiLayerModel`). The independence factors a fit
//! ends with carry into the next warm refit as priors.

#![warn(missing_docs)]

pub mod server;
pub mod snapshot;
pub mod store;

pub use server::{
    apply_and_fit, CheckpointError, DurabilityHook, HookError, HookFailure, HookStage, TrustHandle,
    TrustServer,
};
pub use snapshot::{
    RefitMode, SnapshotParts, SnapshotPartsError, SnapshotProvenance, TrustSnapshot,
};
pub use store::{SnapshotReader, SnapshotStore};
