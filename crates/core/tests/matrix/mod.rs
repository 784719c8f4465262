//! The engine equivalence matrix — the one comparison every
//! engine-level bitwise test runs:
//!
//! engine resident at threads {1, 2, 8}
//!   ≡ engine streamed at threads {1, 2, 4} × `max_resident_chunks` {1, 4, 0}
//!   ≡ [`reference::fit`], bit for bit — and the same row for the single
//!   layer against [`reference::fit_single_layer`].
//!
//! The suites that include this module feed it the other axes: value
//! model × weighting × absence policy, thresholds, α schedules, warm
//! priors, copy discounts, cube histories and chunk sizes.

// Shared by several test crates; each uses the helpers it needs.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kbt_core::{
    reference, ConvergenceTrace, CopyDiscount, CubeResidency, ModelConfig, MultiLayerModel,
    MultiLayerResult, QualityInit, SingleLayerModel,
};
use kbt_datamodel::{ChunkedCube, FileChunkStore, ObservationCube};

/// A store path no other test (or process) is using.
pub fn fresh_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "kbt-matrix-{tag}-{}-{n}.chunks",
        std::process::id()
    ))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_fits_bitwise_eq(
    (got, got_trace): &(MultiLayerResult, ConvergenceTrace),
    (want, want_trace): &(MultiLayerResult, ConvergenceTrace),
    what: &str,
) {
    assert_eq!(got.params, want.params, "{what}: params");
    assert_eq!(
        bits(&got.correctness),
        bits(&want.correctness),
        "{what}: correctness"
    );
    assert_eq!(
        bits(&got.truth_of_group),
        bits(&want.truth_of_group),
        "{what}: truth"
    );
    assert_eq!(
        bits(&got.truth_given_provided),
        bits(&want.truth_given_provided),
        "{what}: cond truth"
    );
    assert_eq!(got.covered_group, want.covered_group, "{what}: coverage");
    assert_eq!(got.active_source, want.active_source, "{what}: active");
    assert_eq!(got.posteriors, want.posteriors, "{what}: posteriors");
    assert_eq!(got.iterations, want.iterations, "{what}: iterations");
    assert_eq!(got.converged, want.converged, "{what}: converged");
    assert_eq!(got_trace.converged, want_trace.converged, "{what}: trace");
    assert_eq!(
        got_trace.rounds.len(),
        want_trace.rounds.len(),
        "{what}: rounds"
    );
    for (a, b) in got_trace.rounds.iter().zip(&want_trace.rounds) {
        assert_eq!(a.iteration, b.iteration, "{what}: round number");
        assert_eq!(a.delta.to_bits(), b.delta.to_bits(), "{what}: delta");
        assert_eq!(
            a.log_likelihood.to_bits(),
            b.log_likelihood.to_bits(),
            "{what}: log-likelihood"
        );
    }
}

/// One cell of the matrix: fit `cube` under `cfg` / `init` with the
/// oracle, with the resident engine and (cold, copy-blind fits only — a
/// streamed fit takes no priors) with the streamed engine from a store
/// chunked at `cfg.chunk_target_cells`, and assert every fit equals the
/// oracle's bit for bit. `independence` is a full-length per-source
/// factor vector: the engine takes it as its prior independence, the
/// oracle as the equivalent [`CopyDiscount`].
pub fn assert_engine_matches_reference(
    cube: &ObservationCube,
    cfg: &ModelConfig,
    init: &QualityInit,
    prior_truth: Option<&[f64]>,
    independence: Option<&[f64]>,
    tag: &str,
) {
    let discount = independence.map(|s| CopyDiscount::from_scales(s.to_vec()));
    let want = reference::fit(cube, cfg, init, prior_truth, discount.as_ref());
    let ng = cube.num_groups();
    for v in [&want.0.correctness, &want.0.truth_of_group] {
        assert_eq!(v.len(), ng, "{tag}: per-group vectors are dense");
    }
    assert_eq!(want.0.covered_group.len(), ng, "{tag}: dense coverage");

    let at = |threads| {
        MultiLayerModel::new(ModelConfig {
            threads: Some(threads),
            ..cfg.clone()
        })
    };
    for threads in [1usize, 2, 8] {
        let got = at(threads).run_traced_with_priors(cube, init, prior_truth, independence);
        assert_fits_bitwise_eq(&got, &want, &format!("{tag} resident x{threads}"));
    }
    if prior_truth.is_some() || independence.is_some() {
        return;
    }

    let path = fresh_path("engine");
    FileChunkStore::write(&ChunkedCube::from_cube(cube, &cfg.chunking()), &path)
        .expect("write chunk store");
    let store = Arc::new(FileChunkStore::open(&path).expect("open chunk store"));
    for max_resident in [1usize, 4, 0] {
        for threads in [1usize, 2, 4] {
            let read_before = store.frames_read();
            let got = at(threads)
                .run_streamed(&store, max_resident, init)
                .expect("streamed fit");
            let what = format!("{tag} streamed cap={max_resident} x{threads}");
            assert_fits_bitwise_eq(&got, &want, &what);
            // The store actually served the fit.
            if cfg.max_iterations > 0 && ng > 0 {
                assert!(store.frames_read() > read_before, "{what}: no frames read");
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

/// The single-layer row of the matrix: the pair cube through the one
/// engine, resident at threads {1, 2, 8} and streamed at threads
/// {1, 2, 4} × `max_resident_chunks` {1, 4, 0}, ≡
/// [`reference::fit_single_layer`], bit for bit.
pub fn assert_single_layer_matches_reference(
    cube: &ObservationCube,
    cfg: &ModelConfig,
    init: &QualityInit,
    tag: &str,
) {
    let (want, want_trace) = reference::fit_single_layer(cube, cfg, init);
    assert_eq!(
        want.truth_of_group.len(),
        cube.num_groups(),
        "{tag}: dense truth"
    );
    let path = fresh_path("single");
    let mut cells = vec![(CubeResidency::Resident, [1usize, 2, 8])];
    for max_resident_chunks in [1usize, 4, 0] {
        let streamed = CubeResidency::Streamed {
            path: path.clone(),
            max_resident_chunks,
        };
        cells.push((streamed, [1, 2, 4]));
    }
    for (residency, threads) in cells {
        for threads in threads {
            let (got, trace) = SingleLayerModel::new(ModelConfig {
                threads: Some(threads),
                residency: residency.clone(),
                ..cfg.clone()
            })
            .run_traced(cube, init)
            .expect("single-layer fit");
            let what = format!("{tag} single-layer {residency:?} x{threads}");
            assert_eq!(got.pairs, want.pairs, "{what}: pairs");
            assert_eq!(
                bits(&got.pair_accuracy),
                bits(&want.pair_accuracy),
                "{what}: pair accuracy"
            );
            assert_eq!(
                bits(&got.source_accuracy),
                bits(&want.source_accuracy),
                "{what}: source accuracy"
            );
            assert_eq!(
                bits(&got.truth_of_group),
                bits(&want.truth_of_group),
                "{what}: truth"
            );
            assert_eq!(got.covered_group, want.covered_group, "{what}: coverage");
            assert_eq!(got.active_pair, want.active_pair, "{what}: active");
            assert_eq!(got.posteriors, want.posteriors, "{what}: posteriors");
            assert_eq!(got.iterations, want.iterations, "{what}: iterations");
            assert_eq!(got.converged, want.converged, "{what}: converged");
            assert_eq!(trace.converged, want_trace.converged, "{what}: trace");
            assert_eq!(
                trace.rounds.len(),
                want_trace.rounds.len(),
                "{what}: rounds"
            );
            for (a, b) in trace.rounds.iter().zip(&want_trace.rounds) {
                assert_eq!(a.delta.to_bits(), b.delta.to_bits(), "{what}: delta");
                assert_eq!(
                    a.log_likelihood.to_bits(),
                    b.log_likelihood.to_bits(),
                    "{what}: log-likelihood"
                );
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}
