//! # kbt-kb
//!
//! A Freebase-like knowledge-base substrate (the paper's source of gold
//! labels and quality initialization — Section 5.3.1).
//!
//! The real system uses Freebase \[2\] both to seed true facts and to label
//! extracted triples. This crate provides:
//!
//! * [`KnowledgeBase`] — typed entities, predicates with expected object
//!   types and numeric ranges, and (single-truth) facts,
//! * [`KnowledgeBase::lcwa_label`] — the Local-Closed-World-Assumption
//!   labeler: a triple `(s, p, o)` is `true` if the KB contains it, `false`
//!   if the KB knows a *different* object for `(s, p)`, and unknown
//!   otherwise,
//! * [`typecheck()`] — the type-check labeler: triples with `s = o`, a
//!   type-incompatible object, or an out-of-range numeric object are false
//!   *and* extraction mistakes.

#![warn(missing_docs)]

pub mod base;
pub mod bridge;
pub mod typecheck;

pub use base::{
    EntityId, EntityType, KnowledgeBase, LcwaLabel, ObjectValue, PredicateId, PredicateSchema,
    ValueKind,
};
pub use bridge::TypedWorld;
pub use typecheck::{typecheck, TypeViolation};
