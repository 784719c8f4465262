//! # kbt-core
//!
//! The probabilistic heart of *Knowledge-Based Trust: Estimating the
//! Trustworthiness of Web Sources* (Dong et al., VLDB 2015).
//!
//! Knowledge-Based Trust (KBT) defines the trustworthiness of a web source
//! as the probability that a fact it provides is correct. Facts are
//! extracted from pages by imperfect extractors, so the observation matrix
//! `X = {X_ewdv}` conflates two error sources: wrong facts on the page and
//! wrong extractions. This crate implements both the paper's contribution
//! and its baseline:
//!
//! * [`MultiLayerModel`] — the paper's multi-layer model (Section 3).
//!   Latent variables: `C_wdv` (does source `w` really provide triple
//!   `(d,v)`?) and `V_d` (the true value of item `d`). Parameters: source
//!   accuracies `A_w` (the KBT scores) and extractor precision/recall
//!   `P_e, R_e`. Inference is the EM-like Algorithm 1 with vote counting
//!   in log-odds space, the improved uncertainty-weighted estimator
//!   (Section 3.3.3), per-triple prior re-estimation (Section 3.3.4), and
//!   confidence-weighted extractions (Section 3.5).
//! * [`SingleLayerModel`] — the knowledge-fusion baseline of \[11\]
//!   (Section 2.2): every (webpage, extractor) pair is a source under the
//!   ACCU model of \[8\], optionally POPACCU — the same EM engine over a
//!   pair cube, with the extraction layer off.
//!
//! ## Quickstart
//!
//! Both models implement [`FusionModel`], and every fit — `fit`, each
//! model's `run_traced`, `run_streamed`, the [`reference`](mod@reference)
//! oracle — returns the one result type, [`FusionReport`]: shared columns
//! as plain fields, one `Option` per model for what only that model
//! estimates ([`FusionReport::extraction`], [`FusionReport::pair_sources`]),
//! and the rounds and convergence once, in [`FusionReport::trace`]:
//!
//! ```
//! use kbt_core::{FusionModel, ModelConfig, MultiLayerModel, QualityInit};
//! use kbt_datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId};
//!
//! let mut builder = CubeBuilder::new();
//! // Two sources agree, a third dissents; one extractor observes all.
//! for w in 0..2u32 {
//!     builder.push(Observation::certain(
//!         ExtractorId::new(0), SourceId::new(w), ItemId::new(0), ValueId::new(0)));
//! }
//! builder.push(Observation::certain(
//!     ExtractorId::new(0), SourceId::new(2), ItemId::new(0), ValueId::new(1)));
//! let cube = builder.build();
//!
//! let model = MultiLayerModel::new(ModelConfig::default());
//! let report = model.fit(&cube, &QualityInit::Default);
//! assert!(report.kbt(SourceId::new(0)) > report.kbt(SourceId::new(2)));
//! // Per-round diagnostics come along for free:
//! assert_eq!(report.trace.rounds.len(), report.iterations());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod copydetect;
pub mod correctness;
pub mod extensions;
pub mod math;
pub mod model;
pub mod mstep;
pub mod multi_layer;
pub mod params;
pub mod posterior;
pub mod reference;
pub mod single_layer;
pub mod value;
pub mod votes;

pub use config::{CorrectnessWeighting, CubeResidency, ModelConfig, ValueModel};
pub use copydetect::{detect_copies_from_accuracy, CopyDetectConfig, CopyDiscount, CopyEvidence};
pub use extensions::{idf_weights, weighted_kbt};
pub use model::{
    ConvergenceTrace, ExtractionLayer, FusionModel, FusionReport, IterationTrace, ModelKind,
    PairSources, StageWall,
};
pub use multi_layer::{EmState, MultiLayerModel};
pub use params::{q_from_precision_recall, Params, QualityInit};
pub use posterior::ItemPosteriors;
pub use single_layer::SingleLayerModel;
pub use value::ValueLayerOutput;
pub use votes::VoteCounter;
