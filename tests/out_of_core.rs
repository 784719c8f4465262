//! Tier-1 guard for the out-of-core contract — streamed ≡ resident, bit
//! for bit, at threads {1, 2, 4} × `max_resident_chunks` {1, 4, 0}. The
//! suite lives with the engine (`kbt-core` runs it too); this wrapper
//! makes the root `cargo test -q` run it.

#[path = "../crates/core/tests/out_of_core.rs"]
mod suite;
