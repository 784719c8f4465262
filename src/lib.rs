//! # kbt — Knowledge-Based Trust
//!
//! A full Rust reproduction of *Knowledge-Based Trust: Estimating the
//! Trustworthiness of Web Sources* (Dong, Gabrilovich, Murphy, Dang, Horn,
//! Lugaresi, Sun, Zhang — Google; VLDB 2015, arXiv:1502.03519).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`datamodel`] — ids, observations, the sparse observation cube,
//! * [`core`] — the single-layer (ACCU/POPACCU) baseline and the
//!   multi-layer KBT model with EM inference,
//! * [`granularity`] — the split-and-merge granularity selection,
//! * [`extract`] — the Knowledge-Vault-style extraction simulator,
//! * [`synth`] — synthetic corpora (the paper's §5.2.1 generator and the
//!   KV-scale web corpus),
//! * [`graph`] — web graph + PageRank (the exogenous comparator),
//! * [`flume`] — the FlumeJava-like parallel dataflow engine,
//! * [`metrics`] — SqV/SqC/SqA, WDev, AUC-PR, calibration, coverage,
//! * [`pipeline`] — [`TrustPipeline`], the fluent entry point tying the
//!   stages together,
//! * [`serve`] — the concurrent trust-serving layer: immutable
//!   [`TrustSnapshot`]s published through an epoch-swapped store while a
//!   [`TrustServer`] ingests deltas and refits in the background,
//! * [`store`] — crash-safe persistence for the serving layer: durable
//!   snapshot checkpoints plus a write-ahead delta log, attached to a
//!   [`TrustServer`] as its durability hook and recovered to a
//!   bit-identical epoch by [`DurableTrustServer`],
//! * [`net`] — the network front end: trust queries and streaming
//!   ingestion over the `KBTNET01` length-prefixed wire protocol, served
//!   by a thread-per-connection [`NetServer`] — durably, when the server
//!   it is given carries a store (`examples/durable_service.rs`).
//!
//! ## The one entry point
//!
//! Most workloads need nothing but [`TrustPipeline`]:
//!
//! ```
//! use kbt::{Model, TrustPipeline};
//! use kbt::datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
//!
//! let obs: Vec<Observation> = (0..3u32)
//!     .map(|w| Observation::certain(
//!         ExtractorId::new(0), SourceId::new(w), ItemId::new(0), ValueId::new(w / 2)))
//!     .collect();
//! let report = TrustPipeline::new()
//!     .observations(obs)
//!     .model(Model::multi_layer())
//!     .try_run()?;
//! println!("KBT of W0 = {:.3}", report.kbt(SourceId::new(0)));
//! # Ok::<(), kbt::PipelineError>(())
//! ```
//!
//! See `examples/quickstart.rs` for a five-minute tour and the README for
//! the migration table from the pre-0.2 per-model API.

pub use kbt_core as core;
pub use kbt_datamodel as datamodel;
pub use kbt_extract as extract;
pub use kbt_flume as flume;
pub use kbt_granularity as granularity;
pub use kbt_graph as graph;
pub use kbt_metrics as metrics;
pub use kbt_net as net;
pub use kbt_pipeline as pipeline;
pub use kbt_serve as serve;
pub use kbt_store as store;
pub use kbt_synth as synth;

pub use kbt_core::{
    ConvergenceTrace, FusionModel, FusionReport, IterationTrace, ModelConfig, ModelKind,
    MultiLayerModel, QualityInit, SingleLayerModel,
};
pub use kbt_datamodel::{
    ChunkedCube, ChunkingConfig, CubeBuilder, ExtractorId, FileChunkStore, ItemId, ObservationCube,
    SourceId, ValueId,
};
pub use kbt_net::{NetClient, NetServer, NetShutdown};
pub use kbt_pipeline::{
    Delta, FusionSession, Model, PipelineError, PipelineRun, TrustPipeline, WarmState,
};
pub use kbt_serve::{RefitMode, SnapshotReader, SnapshotStore, TrustServer, TrustSnapshot};
pub use kbt_store::{DurableTrustServer, StoreConfig};
