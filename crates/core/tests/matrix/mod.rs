//! The engine equivalence matrix — the one comparison every
//! engine-level bitwise test runs:
//!
//! engine resident at threads {1, 2, 8}
//!   ≡ engine streamed at threads {1, 2, 4} × `max_resident_chunks` {1, 4, 0}
//!   ≡ [`reference::fit`], bit for bit, from an init or from a built
//!   [`EmState`] (a warm restart, a copy discount) — and the same row for
//!   the single layer against [`reference::fit_single_layer`]. Every fit
//!   goes through `ModelConfig::residency`, so a streamed cell writes its
//!   own store; a multi-layer cell fitted from an init also refits from
//!   that store through the cube-less `run_streamed`. Every fit's truth
//!   column is its posterior table read at each group, bit for bit; the
//!   multi-layer row also checks the blocked log-likelihood against the
//!   per-row sum.
//!
//! The suites that include this module feed it the other axes: value
//! model × weighting × absence policy, thresholds, α schedules, warm
//! starts, copy discounts, cube histories and chunk sizes.

// Shared by several test crates; each uses the helpers it needs.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kbt_core::{
    reference, ConvergenceTrace, CubeResidency, EmState, FusionReport, ModelConfig,
    MultiLayerModel, QualityInit, SingleLayerModel,
};
use kbt_datamodel::{FileChunkStore, ObservationCube};
use kbt_flume::ExactSum;

/// A store path no other test (or process) is using.
pub fn fresh_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "kbt-matrix-{tag}-{}-{n}.chunks",
        std::process::id()
    ))
}

/// The matrix's (residency, threads) cells: resident at threads
/// {1, 2, 8}, streamed through a store at `path` at threads {1, 2, 4} ×
/// `max_resident_chunks` {1, 4, 0}.
fn cells(path: &Path) -> Vec<(CubeResidency, usize)> {
    let mut cells: Vec<_> = [1, 2, 8].map(|t| (CubeResidency::Resident, t)).into();
    for max_resident_chunks in [1usize, 4, 0] {
        for threads in [1, 2, 4] {
            let path = path.to_path_buf();
            let streamed = CubeResidency::Streamed {
                path,
                max_resident_chunks,
            };
            cells.push((streamed, threads));
        }
    }
    cells
}

/// `cfg` at one cell of the matrix.
fn at(cfg: &ModelConfig, (residency, threads): &(CubeResidency, usize)) -> ModelConfig {
    ModelConfig {
        threads: Some(*threads),
        residency: residency.clone(),
        ..cfg.clone()
    }
}

/// After a fit at `cell`: a streamed fit must have written its store
/// (removed here, so the next cell writes its own).
fn assert_store_written((residency, _): &(CubeResidency, usize), what: &str) {
    if let CubeResidency::Streamed { path, .. } = residency {
        std::fs::remove_file(path).unwrap_or_else(|e| panic!("{what}: no store written: {e}"));
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_traces_bitwise_eq(got: &ConvergenceTrace, want: &ConvergenceTrace, what: &str) {
    assert_eq!(got.converged, want.converged, "{what}: converged");
    assert_eq!(got.rounds.len(), want.rounds.len(), "{what}: rounds");
    for (a, b) in got.rounds.iter().zip(&want.rounds) {
        assert_eq!(a.iteration, b.iteration, "{what}: round number");
        assert_eq!(a.delta.to_bits(), b.delta.to_bits(), "{what}: delta");
        assert_eq!(
            a.log_likelihood.to_bits(),
            b.log_likelihood.to_bits(),
            "{what}: log-likelihood"
        );
    }
}

/// The last round's log-likelihood — folded per item as one `ln` per block
/// of at most 256 rows — is the per-row sum `Σ ln max(c, 1 − c) + ln max(p,
/// 1 − p)` of the report's correctness and truth, to 10⁻¹² relative.
fn assert_ll_is_the_per_row_sum(report: &FusionReport, what: &str) {
    let Some(last) = report.trace.rounds.last() else {
        return;
    };
    let rows = report.correctness().expect("extraction layer").iter();
    let mut per_row = ExactSum::default();
    per_row.extend(
        (rows.zip(&report.truth_of_group))
            .map(|(&c, &p)| c.max(1.0 - c).ln() + p.max(1.0 - p).ln()),
    );
    let (got, want) = (last.log_likelihood, per_row.finish());
    assert!(
        (got - want).abs() <= 1e-12 * want.abs(),
        "{what}: log-likelihood {got} against the per-row sum {want}"
    );
}

/// The columns both models write, bit for bit, and `got`'s truth column is
/// its posterior table read at every group of `cube`.
fn assert_reports_bitwise_eq(
    cube: &ObservationCube,
    got: &FusionReport,
    want: &FusionReport,
    what: &str,
) {
    for (g, grp) in cube.groups().iter().enumerate() {
        assert_eq!(
            got.truth_of_group[g].to_bits(),
            got.posteriors.prob(grp.item, grp.value).to_bits(),
            "{what}: truth of group {g} is not its item's posterior"
        );
    }
    assert_eq!(got.model(), want.model(), "{what}: model");
    assert_eq!(got.params, want.params, "{what}: params");
    assert_eq!(
        bits(got.source_trust()),
        bits(want.source_trust()),
        "{what}: trust"
    );
    assert_eq!(
        bits(&got.truth_of_group),
        bits(&want.truth_of_group),
        "{what}: truth"
    );
    assert_eq!(got.covered_group, want.covered_group, "{what}: coverage");
    assert_eq!(got.active_source, want.active_source, "{what}: active");
    assert_eq!(got.posteriors, want.posteriors, "{what}: posteriors");
    assert_traces_bitwise_eq(&got.trace, &want.trace, what);
}

fn assert_fits_bitwise_eq(
    cube: &ObservationCube,
    got: &FusionReport,
    want: &FusionReport,
    what: &str,
) {
    assert_reports_bitwise_eq(cube, got, want, what);
    let (got, want) = (got.extraction.as_ref(), want.extraction.as_ref());
    let (got, want) = (got.expect("extraction layer"), want.expect("oracle's"));
    assert_eq!(
        bits(&got.correctness),
        bits(&want.correctness),
        "{what}: correctness"
    );
    assert_eq!(
        bits(&got.truth_given_provided),
        bits(&want.truth_given_provided),
        "{what}: cond truth"
    );
}

/// One row of the matrix: fit `cube` under `cfg` from `init` with the
/// oracle and with the engine's `run_traced` at every (residency,
/// threads) cell, over the cube's own frames, and assert every
/// fit equals the oracle's bit for bit. A streamed cell also refits from
/// the store its fit wrote through the cube-less `run_streamed`, reading
/// each item frame once a round.
pub fn assert_engine_matches_reference(
    cube: &ObservationCube,
    cfg: &ModelConfig,
    init: &QualityInit,
    tag: &str,
) {
    assert_fits_match(cube, cfg, &EmState::start(cube, cfg, init), Some(init), tag);
}

/// [`assert_engine_matches_reference`] from a built start — a warm
/// restart, a discount — through the engine's `run_from`.
pub fn assert_engine_matches_reference_from(
    cube: &ObservationCube,
    cfg: &ModelConfig,
    start: &EmState,
    tag: &str,
) {
    assert_fits_match(cube, cfg, start, None, tag);
}

fn assert_fits_match(
    cube: &ObservationCube,
    cfg: &ModelConfig,
    start: &EmState,
    init: Option<&QualityInit>,
    tag: &str,
) {
    let want = reference::fit(cube, cfg, start.clone());
    let ng = cube.num_groups();
    for v in [want.correctness().unwrap(), &want.truth_of_group[..]] {
        assert_eq!(v.len(), ng, "{tag}: per-group vectors are dense");
    }
    assert_eq!(want.covered_group.len(), ng, "{tag}: dense coverage");
    assert_ll_is_the_per_row_sum(&want, tag);

    for cell in cells(&fresh_path("engine")) {
        let model = MultiLayerModel::new(at(cfg, &cell));
        let got = match init {
            Some(init) => model.run_traced(cube, init),
            None => model.run_from(cube, start.clone()),
        };
        let what = format!("{tag} {:?} x{}", cell.0, cell.1);
        assert_fits_bitwise_eq(cube, &got.expect("engine fit"), &want, &what);
        if let (
            Some(init),
            CubeResidency::Streamed {
                path,
                max_resident_chunks: cap,
            },
        ) = (init, &cell.0)
        {
            let store = Arc::new(FileChunkStore::open(path).expect("open the fit's store"));
            let got = model
                .run_streamed(&store, *cap, init)
                .expect("run_streamed");
            assert_fits_bitwise_eq(cube, &got, &want, &format!("{what} run_streamed"));
            let frames = store.num_chunks() as u64;
            let rounds = got.iterations() as u64;
            assert_eq!(store.frames_read(), rounds * frames, "{what}: frames read");
        }
        assert_store_written(&cell, &what);
    }
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
    let want = reference::fit_single_layer(cube, cfg, init);
    assert_eq!(
        want.truth_of_group.len(),
        cube.num_groups(),
        "{tag}: dense truth"
    );
    let want_pairs = want.pair_sources.as_ref().expect("oracle's pairs");
    for cell in cells(&fresh_path("single")) {
        let got = SingleLayerModel::new(at(cfg, &cell))
            .run_traced(cube, init)
            .expect("single-layer fit");
        let what = format!("{tag} single-layer {:?} x{}", cell.0, cell.1);
        assert_store_written(&cell, &what);
        assert_reports_bitwise_eq(cube, &got, &want, &what);
        let pairs = got.pair_sources.as_ref().expect("pair sources");
        assert_eq!(pairs.pairs, want_pairs.pairs, "{what}: pairs");
        assert_eq!(
            bits(&pairs.pair_accuracy),
            bits(&want_pairs.pair_accuracy),
            "{what}: pair accuracy"
        );
        assert_eq!(pairs.active_pair, want_pairs.active_pair, "{what}: active");
    }
}
