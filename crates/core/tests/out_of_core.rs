//! The out-of-core contract: a fit streamed from a [`FileChunkStore`]
//! is **bit-for-bit identical** to the resident columnar fit at any
//! thread count and any cache size ≥ 1 (and unbounded), including after
//! the cube evolves through `apply_delta`/`retract`; and I/O corruption
//! mid-fit surfaces as typed errors, never panics.
//!
//! Also compiled into the facade's `tests/out_of_core.rs`, so the tier-1
//! `cargo test -q` at the repository root runs it.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kbt_core::{ExecMode, ModelConfig, MultiLayerModel, MultiLayerResult, QualityInit};
use kbt_datamodel::{
    ChunkedCube, ChunkingConfig, CubeBuilder, ExtractorId, FileChunkStore, ItemId, Observation,
    ObservationCube, SourceId, ValueId,
};
use proptest::prelude::*;

fn fresh_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "kbt-out-of-core-{tag}-{}-{n}.chunks",
        std::process::id()
    ))
}

/// Deterministic observation soup: dense-ish ids so groups share items
/// and sources, several extractors, mixed confidences.
fn observations(seed: u64, len: usize) -> Vec<Observation> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| Observation {
            extractor: ExtractorId::new((next() % 7) as u32),
            source: SourceId::new((next() % 12) as u32),
            item: ItemId::new((next() % 20) as u32),
            value: ValueId::new((next() % 4) as u32),
            confidence: (next() >> 11) as f64 / (1u64 << 53) as f64,
        })
        .collect()
}

fn assert_bitwise_eq(streamed: &MultiLayerResult, resident: &MultiLayerResult, what: &str) {
    assert_eq!(streamed.params, resident.params, "{what}: params");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&streamed.correctness),
        bits(&resident.correctness),
        "{what}: correctness"
    );
    assert_eq!(
        bits(&streamed.truth_of_group),
        bits(&resident.truth_of_group),
        "{what}: truth"
    );
    assert_eq!(
        bits(&streamed.truth_given_provided),
        bits(&resident.truth_given_provided),
        "{what}: cond truth"
    );
    assert_eq!(
        streamed.covered_group, resident.covered_group,
        "{what}: coverage"
    );
    assert_eq!(
        streamed.active_source, resident.active_source,
        "{what}: active"
    );
    assert_eq!(streamed.iterations, resident.iterations, "{what}: iters");
    assert_eq!(streamed.converged, resident.converged, "{what}: converged");
    assert_eq!(
        streamed.posteriors, resident.posteriors,
        "{what}: posteriors"
    );
}

/// Fit `cube` resident and streamed (across cache sizes and thread
/// counts) and assert bitwise equality.
fn check_cube(cube: &ObservationCube, target_cells: usize, tag: &str) {
    let cfg = ModelConfig {
        exec_mode: ExecMode::Sharded,
        chunk_target_cells: target_cells,
        ..ModelConfig::default()
    };
    let model = MultiLayerModel::new(cfg.clone());
    let (resident, resident_trace) = model.run_traced(cube, &QualityInit::Default);

    let cc = ChunkedCube::from_cube(cube, &ChunkingConfig { target_cells });
    let path = fresh_path(tag);
    FileChunkStore::write(&cc, &path).expect("write chunk store");
    let store = Arc::new(FileChunkStore::open(&path).expect("open chunk store"));

    for max_resident in [1usize, 4, 0] {
        for threads in [Some(1), Some(2), Some(4)] {
            let model = MultiLayerModel::new(ModelConfig {
                threads,
                ..cfg.clone()
            });
            let (streamed, trace, stats) = model
                .run_streamed(&store, max_resident, &QualityInit::Default)
                .expect("streamed fit");
            assert_bitwise_eq(
                &streamed,
                &resident,
                &format!("{tag} cache={max_resident} threads={threads:?}"),
            );
            assert_eq!(trace.rounds.len(), resident_trace.rounds.len());
            for (a, b) in trace.rounds.iter().zip(&resident_trace.rounds) {
                assert_eq!(a.delta.to_bits(), b.delta.to_bits(), "{tag}: delta");
                assert_eq!(
                    a.log_likelihood.to_bits(),
                    b.log_likelihood.to_bits(),
                    "{tag}: ll"
                );
            }
            // The caches actually served the fit.
            let io = stats.item_cache.hits
                + stats.item_cache.misses
                + stats.group_cache.hits
                + stats.group_cache.misses;
            assert!(io > 0, "{tag}: no cache traffic recorded");
            if max_resident == 0 {
                assert_eq!(stats.item_cache.evictions, 0, "{tag}: unbounded evicted");
            }
        }
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn streamed_fit_is_bitwise_identical_to_resident() {
    let mut b = CubeBuilder::new();
    for o in observations(1, 600) {
        b.push(o);
    }
    let cube = b.build();
    for target_cells in [7, 64, 1 << 20] {
        check_cube(&cube, target_cells, "base");
    }
}

#[test]
fn streamed_fit_tracks_delta_and_retract() {
    let mut b = CubeBuilder::new();
    for o in observations(2, 400) {
        b.push(o);
    }
    let cube = b.build();
    // Grow by a delta batch, then retract a handful of triples: the
    // streamed fit must match the resident fit of each evolved cube.
    let delta = observations(3, 120);
    let grown = cube.apply_delta(&delta);
    check_cube(&grown, 48, "delta");

    let retractions: Vec<(SourceId, ItemId, ValueId)> = grown
        .groups()
        .iter()
        .step_by(9)
        .map(|g| (g.source, g.item, g.value))
        .collect();
    let shrunk = grown.retract(&retractions);
    check_cube(&shrunk, 48, "retract");
}

#[test]
fn corruption_mid_file_is_a_typed_error_not_a_panic() {
    let mut b = CubeBuilder::new();
    for o in observations(4, 500) {
        b.push(o);
    }
    let cube = b.build();
    let cc = ChunkedCube::from_cube(&cube, &ChunkingConfig { target_cells: 32 });
    let path = fresh_path("corrupt");
    FileChunkStore::write(&cc, &path).expect("write chunk store");
    let clean = fs::read(&path).expect("read back");
    let model = MultiLayerModel::new(ModelConfig {
        exec_mode: ExecMode::Sharded,
        chunk_target_cells: 32,
        ..ModelConfig::default()
    });

    // Flip one byte at several interior offsets. `open` validates only
    // the index and meta frames, so payload corruption must surface from
    // *inside* the fit as a typed error.
    for frac in [3usize, 5, 2] {
        let mut bytes = clean.clone();
        let off = bytes.len() * (frac - 1) / frac;
        bytes[off] ^= 0x40;
        fs::write(&path, &bytes).expect("write corrupted");
        match FileChunkStore::open(&path) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "open err"),
            Ok(store) => {
                let err = model
                    .run_streamed(&Arc::new(store), 1, &QualityInit::Default)
                    .expect_err("corrupted payload must fail the fit");
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "fit err");
            }
        }
    }

    // Torn frame: truncate mid-file. The tail index is gone, so open
    // itself must fail with a typed error.
    let mut torn = clean.clone();
    torn.truncate(clean.len() / 2);
    fs::write(&path, &torn).expect("write torn");
    let err = FileChunkStore::open(&path).expect_err("torn file must not open");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    let _ = fs::remove_file(&path);
}

proptest! {
    /// Randomized cubes and chunk geometries: streamed ≡ resident,
    /// bitwise, for caches of 1, 2, and unbounded. (Case count follows
    /// the harness default / `PROPTEST_CASES`.)
    #[test]
    fn prop_streamed_matches_resident(
        seed in 0u64..1_000_000,
        len in 50usize..250,
        target_cells in 1usize..200,
    ) {
        let mut b = CubeBuilder::new();
        for o in observations(seed, len) {
            b.push(o);
        }
        let cube = b.build();
        check_cube(&cube, target_cells, "prop");
    }
}
