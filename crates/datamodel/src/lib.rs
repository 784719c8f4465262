//! # kbt-datamodel
//!
//! Core data model for the Knowledge-Based Trust (KBT) system of Dong et
//! al., *Knowledge-Based Trust: Estimating the Trustworthiness of Web
//! Sources*, VLDB 2015.
//!
//! This crate defines the vocabulary of the paper's Table 1:
//!
//! * a **web source** `w ∈ W` ([`SourceId`]) — a webpage, a website, or any
//!   intermediate granularity (see the `kbt-granularity` crate),
//! * an **extractor** `e ∈ E` ([`ExtractorId`]) — an information-extraction
//!   system, or an 〈extractor, pattern, predicate, website〉 provenance
//!   vector at the finest granularity,
//! * a **data item** `d` ([`ItemId`]) — a (subject, predicate) pair,
//! * a **value** `v` ([`ValueId`]) — the object of a triple,
//! * the **observation matrix** `X = {X_ewdv}` ([`ObservationCube`]) — the
//!   sparse "data cube" of Figure 1(b), one cell per (extractor, source,
//!   item, value) with an extraction confidence.
//!
//! The cube is stored columnar and sorted, grouped by `(w, d, v)`, so the
//! inference layers iterate cache-friendly without hashing in hot loops.

#![warn(missing_docs)]

pub mod chunked;
pub mod coclaim;
pub mod cube;
pub mod ids;
pub mod intern;
pub mod triple;
pub mod wire;

pub use chunked::{
    ChunkBuf, ChunkSource, ChunkStoreMeta, ChunkedCube, ChunkingConfig, CubeChunk, FileChunkStore,
    StreamedChunks,
};
pub use coclaim::{pair_counts, CandidatePair, CoClaimIndex, PairCounts};
pub use cube::{Cell, CubeBuilder, ObservationCube, TripleGroup};
pub use ids::{ExtractorId, ItemId, SourceId, ValueId};
pub use intern::{Interner, SymbolTable};
pub use triple::{DataItem, Observation, Triple};
pub use wire::{WireError, WireReader};
