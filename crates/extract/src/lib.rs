//! # kbt-extract
//!
//! A Knowledge-Vault-style extraction pipeline simulator.
//!
//! The paper's corpus comes from 16 information-extraction systems with
//! 40M extraction patterns run over 2B+ webpages \[10\]. That pipeline is
//! proprietary; this crate reproduces its *error structure*, which is all
//! the inference layer can see:
//!
//! * an extractor visits a source with probability δ,
//! * when visiting, it extracts each provided triple with probability `R`
//!   (recall),
//! * each extracted triple's subject, predicate, and object slots are
//!   independently correct with probability `P` — so triple-level
//!   precision is `P³`, exactly the synthetic model of Section 5.2.1,
//! * it may also hallucinate triples the source never provided
//!   (false positives, the `Q_e` of Eq. 6),
//! * it reports a confidence per extraction, which may be calibrated or
//!   garbage (Section 5.3.3 found some extractors "bad at predicting
//!   confidence").
//!
//! Extractions are attributed either to the extractor as a whole or to a
//! per-(extractor, pattern) provenance id — the finest extractor
//! granularity of Section 4.

#![warn(missing_docs)]

pub mod profile;
pub mod simulate;

pub use profile::{ConfidenceModel, ExtractorProfile};
pub use simulate::{simulate, ExtractorAxis, Provided, SimOutput, World};
