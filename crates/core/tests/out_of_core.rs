//! The out-of-core contract: a fit streamed from a [`FileChunkStore`]
//! is **bit-for-bit identical** to the resident fit — and both to the
//! scalar oracle — at any thread count and any `max_resident_chunks`, across the
//! model's configuration axes and after the cube evolves through
//! `apply_delta`/`retract`; and I/O corruption mid-fit surfaces as typed
//! errors, never panics.
//!
//! `kbt-core` is a default member of the workspace, so the tier-1
//! `cargo test -q` at the repository root runs it.

use std::fs;
use std::sync::Arc;

use kbt_core::config::AbsencePolicy;
use kbt_core::{
    CorrectnessWeighting, CubeResidency, EmState, ModelConfig, MultiLayerModel, QualityInit,
    ValueModel,
};
use kbt_datamodel::wire::{WireError, WireReader};
use kbt_datamodel::{
    ChunkingConfig, CubeBuilder, ExtractorId, FileChunkStore, ItemId, Observation, ObservationCube,
    SourceId, ValueId,
};
use proptest::prelude::*;

#[path = "matrix/mod.rs"]
mod matrix;
use matrix::{assert_engine_matches_reference, assert_engine_matches_reference_from, fresh_path};

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

fn build(observations: Vec<Observation>) -> ObservationCube {
    let mut b = CubeBuilder::new();
    for o in observations {
        b.push(o);
    }
    b.build()
}

/// `cube` with its frames re-cut at `target_cells` cells a chunk.
fn recut(cube: &ObservationCube, target_cells: usize) -> ObservationCube {
    cube.recut(&ChunkingConfig { target_cells })
}

/// The matrix cell for a cold default-config fit of `cube`, re-cut at
/// `target_cells`.
fn check_cube(cube: &ObservationCube, target_cells: usize, tag: &str) {
    let cube = recut(cube, target_cells);
    let cfg = ModelConfig::default();
    assert_engine_matches_reference(&cube, &cfg, &QualityInit::Default, tag);
}

#[test]
fn streamed_fit_is_bitwise_identical_to_resident() {
    let cube = build(observations(1, 600));
    for target_cells in [7, 64, 1 << 20] {
        check_cube(&cube, target_cells, "base");
    }
    // The configuration axes, on tiny chunks so every fit crosses many
    // chunk and frame boundaries.
    let cube = recut(&cube, 24);
    let base = ModelConfig::default();
    let mut cases = Vec::new();
    for value_model in [ValueModel::Accu, ValueModel::PopAccu] {
        for correctness_weighting in [CorrectnessWeighting::Weighted, CorrectnessWeighting::Map] {
            for absence_policy in [
                AbsencePolicy::AllExtractors,
                AbsencePolicy::SourceCandidates,
            ] {
                cases.push(ModelConfig {
                    value_model,
                    correctness_weighting,
                    absence_policy,
                    ..base.clone()
                });
            }
        }
    }
    cases.push(ModelConfig {
        confidence_threshold: Some(0.5),
        ..base.clone()
    });
    cases.push(ModelConfig {
        alpha_update_from: None,
        min_source_support: 40,
        estimate_gamma: false,
        ..base.clone()
    });
    // Zero iterations: every per-group vector still `num_groups` long.
    cases.push(ModelConfig {
        max_iterations: 0,
        ..base.clone()
    });
    for (i, cfg) in cases.iter().enumerate() {
        let tag = format!("config {i}");
        assert_engine_matches_reference(&cube, cfg, &QualityInit::Default, &tag);
    }

    // Warm starts, resident and streamed: resumed parameters alone (what
    // `FusionModel::fit` with a `Resume` init runs), with the last fit's
    // truth column (a session's warm restart), and a non-neutral copy
    // discount, cold and warm.
    let cold = MultiLayerModel::new(base.clone()).run_traced(&cube, &QualityInit::Default);
    let cold = cold.expect("resident fit");
    let resume = QualityInit::Resume(cold.params.clone());
    let warm = EmState::resume(&cube, &base, cold.params, cold.truth_of_group);
    let scales: Vec<f64> = (0..cube.num_sources())
        .map(|w| 1.0 - 0.2 * (w % 3) as f64)
        .collect();
    let discounted = EmState::start(&cube, &base, &QualityInit::Default).discounted(&scales);
    assert_engine_matches_reference(&cube, &base, &resume, "resumed, no truth");
    assert_engine_matches_reference_from(&cube, &base, &warm, "resumed");
    assert_engine_matches_reference_from(&cube, &base, &discounted, "discount");
    let warm = warm.discounted(&scales);
    assert_engine_matches_reference_from(&cube, &base, &warm, "warm discount");
}

/// The cube's groups are item-major, so a fit's rows *are* its groups:
/// nothing is permuted between the scan and the report. On a cube whose
/// items are claimed by sources spread over the whole id range, grown by
/// a delta and then retracted (emptied sources and items) and re-cut,
/// group `g` is local row `g − chunk.rows.start` of its chunk's frame, of
/// the frame's item, its value the row's slot; a warm fit (resumed parameters, a per-group prior
/// truth, a copy discount) equals the oracle bit for bit in every matrix
/// cell, and streamed at 8 threads under caps 0, 1 and 4 too; and every
/// per-group vector of the report is its group's: each group's truth is
/// its own `(item, value)` posterior, and it is covered iff that value is.
#[test]
fn the_rows_are_the_groups() {
    let mut b = CubeBuilder::new();
    for d in 0..24u32 {
        for k in 0..9u32 {
            let w = (d * 7 + k * 11) % 40;
            for e in 0..(1 + (d + k) % 3) {
                b.push(Observation {
                    extractor: ExtractorId::new(e),
                    source: SourceId::new(w),
                    item: ItemId::new(d),
                    value: ValueId::new((w + d) % 3),
                    confidence: 0.3 + 0.2 * e as f64,
                });
            }
        }
    }
    let grown = b.build().apply_delta(&observations(9, 150));
    let gone: Vec<_> = (grown.groups().iter())
        .filter(|g| g.source.0 == 13 || g.item.0 == 5 || (g.source.0 + g.item.0) % 11 == 0)
        .map(|g| (g.source, g.item, g.value))
        .collect();
    let cube = recut(&grown.retract(&gone), 16);
    let cc = cube.chunked();
    let (mut next_row, mut cells) = (0, 0);
    for (chunk, frame) in cc.meta.item_chunks.iter().zip(&cc.frames) {
        assert_eq!(chunk.rows.start as usize, next_row);
        for li in 0..frame.num_items() {
            for r in frame.rows(li) {
                let g = chunk.rows.start as usize + r;
                let grp = &cube.groups()[g];
                assert_eq!(frame.ig_source[r], grp.source.0, "row {g}");
                assert_eq!(frame.items.start + li as u32, grp.item.0, "row {g}");
                let value = frame.values(li)[frame.ig_slot[r] as usize];
                assert_eq!(value, grp.value.0, "row {g}");
            }
        }
        next_row += frame.num_rows();
        cells += chunk.cells as usize;
    }
    assert!(cc.frames.len() > 4, "{} frames", cc.frames.len());
    assert_eq!(next_row, cube.num_groups());
    assert_eq!(cells, cube.num_cells());

    let cfg = ModelConfig::default();
    let cold = MultiLayerModel::new(cfg.clone())
        .run_traced(&cube, &QualityInit::Default)
        .expect("resident fit");
    let hint: Vec<f64> = (0..cube.num_groups())
        .map(|g| cold.truth_of_group[g] * 0.9)
        .collect();
    let scales: Vec<f64> = (0..cube.num_sources())
        .map(|w| 1.0 - 0.15 * (w % 4) as f64)
        .collect();
    let start = EmState::resume(&cube, &cfg, cold.params, hint).discounted(&scales);
    assert_engine_matches_reference_from(&cube, &cfg, &start, "rows");

    let fit =
        |cfg: ModelConfig| (MultiLayerModel::new(cfg).run_from(&cube, start.clone())).expect("fit");
    let warm = fit(cfg.clone());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for cap in [0, 1, 4] {
        let path = fresh_path("rows");
        let streamed = fit(ModelConfig {
            threads: Some(8),
            residency: CubeResidency::Streamed {
                path: path.clone(),
                max_resident_chunks: cap,
            },
            ..cfg.clone()
        });
        let _ = fs::remove_file(&path);
        assert_eq!(streamed.params, warm.params, "x8 cap={cap}");
        assert_eq!(bits(&streamed.truth_of_group), bits(&warm.truth_of_group));
        assert_eq!(streamed.covered_group, warm.covered_group, "x8 cap={cap}");
        let correctness = |r: &kbt_core::FusionReport| bits(r.correctness().expect("multi-layer"));
        assert_eq!(correctness(&streamed), correctness(&warm), "x8 cap={cap}");
    }
    for (g, grp) in cube.groups().iter().enumerate() {
        let posterior = warm.posteriors.observed(grp.item);
        let voted = posterior.iter().any(|&(v, _)| v == grp.value);
        let truth = warm.posteriors.prob(grp.item, grp.value);
        assert_eq!(
            warm.truth_of_group[g].to_bits(),
            truth.to_bits(),
            "group {g}"
        );
        assert_eq!(warm.covered_group[g], voted, "group {g}");
    }
    let extraction = warm.extraction.as_ref().expect("the extraction layer");
    for v in [&extraction.correctness, &extraction.truth_given_provided] {
        assert_eq!(v.len(), cube.num_groups());
    }
}

/// A discount is per-source independence factors padded with ones: an
/// empty or all-ones slice is no discount at all (the fit reports none and
/// runs copy-blind), and a short one leaves the sources beyond it fully
/// independent.
#[test]
fn a_start_is_discounted_by_padded_independence_factors() {
    let cube = build(observations(7, 200));
    let cfg = ModelConfig::default();
    let start = || EmState::start(&cube, &cfg, &QualityInit::Default);
    let fit = |start| MultiLayerModel::new(cfg.clone()).run_from(&cube, start);
    let blind = fit(start()).expect("fit");
    for neutral in [&[][..], &[1.0; 3][..]] {
        let got = fit(start().discounted(neutral)).expect("fit");
        assert_eq!(got.source_independence, None);
        assert_eq!(got.params, blind.params);
    }
    let mut full = vec![1.0; cube.num_sources()];
    full[0] = 0.5;
    let short = fit(start().discounted(&[0.5])).expect("fit");
    assert_eq!(short.source_independence.as_deref(), Some(&full[..]));
    assert_eq!(
        short.params,
        fit(start().discounted(&full)).expect("fit").params
    );
    assert_ne!(short.params, blind.params);
}

/// A store of an earlier format — `KBTCHNK3` (a group id per row) or
/// `KBTCHNK4` (a meta frame with `max_chunk_rows`) — is refused at open
/// with a typed error, never read as the current one.
#[test]
fn a_kbtchnk3_store_is_refused_at_open() {
    let cube = recut(&build(observations(5, 300)), 32);
    let path = fresh_path("v3");
    FileChunkStore::write(cube.chunked(), &path).expect("write chunk store");
    let mut bytes = fs::read(&path).expect("read back");
    assert_eq!(&bytes[..8], b"KBTCHNK5");
    for old in [b"KBTCHNK3", b"KBTCHNK4"] {
        bytes[..8].copy_from_slice(old);
        fs::write(&path, &bytes).expect("write the old magic");
        let err = FileChunkStore::open(&path).expect_err("an old store must not open");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn streamed_fit_tracks_delta_and_retract() {
    let cube = build(observations(2, 400));
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
    let cube = recut(&build(observations(4, 500)), 32);
    let path = fresh_path("corrupt");
    FileChunkStore::write(cube.chunked(), &path).expect("write chunk store");
    let clean = fs::read(&path).expect("read back");
    let model = MultiLayerModel::new(ModelConfig::default());

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

/// Payload `(offset, len)` of every item frame of the chunk file
/// `bytes`, read off its index frame.
fn frame_payloads(bytes: &[u8]) -> Vec<(usize, usize)> {
    let tail = bytes.len() - 8;
    let index_pos = u64::from_le_bytes(bytes[tail..].try_into().unwrap()) as usize;
    let mut r = WireReader::new(&bytes[index_pos + 4..tail - 4]);
    r.seq::<_, WireError>(12, |r| Ok((r.u64()? as usize, r.u32()? as usize)))
        .expect("index frame")
}

/// Fit `path` streamed on a watched thread: whatever is wrong with the
/// file, the fit must come back — with a typed error — and not hang.
fn streamed_fit_error(path: &std::path::Path, threads: usize, cache: usize) -> std::io::Error {
    let (tx, rx) = std::sync::mpsc::channel();
    let path = path.to_path_buf();
    std::thread::spawn(move || {
        let model = MultiLayerModel::new(ModelConfig {
            threads: Some(threads),
            ..ModelConfig::default()
        });
        let store = Arc::new(FileChunkStore::open(&path).expect("meta and index are intact"));
        let _ = tx.send(model.run_streamed(&store, cache, &QualityInit::Default));
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("the fit hung (or panicked) on a bad frame")
        .expect_err("a bad frame must fail the fit")
}

/// A bad item frame surfaces as the fit's typed error while the other
/// scan workers carry on with their own frames: the fit neither hangs
/// nor panics. Each item frame in turn gets one flipped byte (a CRC
/// failure), and some get a CRC-valid `KBTCHNK5` payload that does not
/// fit the skeleton: an item range not the skeleton's, a row naming a
/// source the cube does not have, row cell offsets that are not a CSR,
/// and a cell naming an extractor the cube does not have.
#[test]
fn a_bad_frame_mid_fit_is_a_typed_error_at_any_threads_and_cache() {
    let cube = recut(&build(observations(6, 500)), 48);
    let cc = cube.chunked();
    let path = fresh_path("bad-frame");
    FileChunkStore::write(cc, &path).expect("write chunk store");
    let clean = fs::read(&path).expect("read back");
    let item_frames = frame_payloads(&clean);
    assert!(item_frames.len() >= 8, "{} item frames", item_frames.len());
    let check = |bytes: &[u8], what: &str| {
        fs::write(&path, bytes).expect("write bad store");
        for threads in [2usize, 3] {
            for cache in [1usize, 4, 0] {
                let err = streamed_fit_error(&path, threads, cache);
                let tag = format!("{what} x{threads} cache={cache}: {err}");
                assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}");
            }
        }
    };
    for (k, &(off, len)) in item_frames.iter().enumerate() {
        let mut bytes = clean.clone();
        bytes[off + len / 2] ^= 0x10;
        check(&bytes, &format!("item frame {k} corrupt"));
    }
    // Word 1 of an item frame is its item range's end. Its columns follow
    // the two range words, each a count and then its entries: two
    // `items + 1` offset columns, the values, `ig_source`, `ig_slot`, the
    // `rows + 1` cell offsets and the cells' extractors.
    let reseal = |(off, len): (usize, usize), word: usize, value: u32| {
        let mut bytes = clean.clone();
        bytes[off + 4 * word..off + 4 * word + 4].copy_from_slice(&value.to_le_bytes());
        let crc = kbt_datamodel::wire::crc32(&bytes[off..off + len]);
        bytes[off + len..off + len + 4].copy_from_slice(&crc.to_le_bytes());
        bytes
    };
    let chunk = &cc.meta.item_chunks[1];
    check(
        &reseal(item_frames[1], 1, chunk.items.end + 1),
        "item range not the skeleton's",
    );
    let values = cc.frames[1].item_values.len();
    let (items, rows) = (chunk.items.len(), chunk.rows.len());
    let ig_source = 2 + 2 * (1 + items + 1) + 1 + values + 1;
    let cell_offsets = ig_source + 2 * (1 + rows);
    let cell_extractor = cell_offsets + 1 + rows + 1;
    let ns = cube.num_sources() as u32;
    check(
        &reseal(item_frames[1], ig_source, ns),
        "ig_source out of range",
    );
    check(
        &reseal(item_frames[1], cell_offsets + 2, u32::MAX),
        "row cell offsets not a CSR",
    );
    check(
        &reseal(item_frames[1], cell_extractor, cube.num_extractors() as u32),
        "extractor id out of range",
    );
    let _ = fs::remove_file(&path);
}

/// One scan per round, as a count: every round reads each item frame
/// exactly once, at any thread count and cap.
#[test]
fn a_round_scans_the_store_once() {
    let cube = recut(&build(observations(7, 2_000)), 64);
    let path = fresh_path("scans");
    FileChunkStore::write(cube.chunked(), &path).expect("write chunk store");
    let store = Arc::new(FileChunkStore::open(&path).expect("open chunk store"));
    let chunks = store.num_chunks() as u64;
    assert!(chunks > 8, "the cap must be smaller than the store");
    for threads in [1usize, 2, 3] {
        for cap in [1usize, 4, 0] {
            let model = MultiLayerModel::new(ModelConfig {
                threads: Some(threads),
                ..ModelConfig::default()
            });
            let before = store.frames_read();
            let report = model
                .run_streamed(&store, cap, &QualityInit::Default)
                .expect("streamed fit");
            let rounds = report.iterations() as u64;
            assert!(rounds > 1);
            let read = store.frames_read() - before;
            assert_eq!(read, rounds * chunks, "x{threads} cap={cap}");
        }
    }
    let _ = fs::remove_file(&path);
}

/// A streamed `run_traced` fits from the store it writes, not from the
/// cube it was handed: at one thread the calling thread is the only scan
/// worker, and the bytes it reads cover every frame's payload once a
/// round.
#[cfg(target_os = "linux")]
#[test]
fn a_streamed_run_traced_reads_its_store() {
    let thread_rchar = || -> u64 {
        let io = fs::read_to_string("/proc/thread-self/io").expect("per-thread I/O counters");
        let rchar = io.lines().find_map(|l| l.strip_prefix("rchar: "));
        rchar.and_then(|n| n.parse().ok()).expect("an rchar line")
    };
    let cube = recut(&build(observations(7, 2_000)), 64);
    let path = fresh_path("traced");
    let model = MultiLayerModel::new(ModelConfig {
        threads: Some(1),
        residency: CubeResidency::Streamed {
            path: path.clone(),
            max_resident_chunks: 1,
        },
        ..ModelConfig::default()
    });
    let before = thread_rchar();
    let report = model
        .run_traced(&cube, &QualityInit::Default)
        .expect("streamed fit");
    let read = thread_rchar() - before;
    let items = frame_payloads(&fs::read(&path).expect("the fit's store"));
    let round: u64 = items.iter().map(|&(_, len)| len as u64).sum();
    let rounds = report.iterations() as u64;
    assert!(rounds > 1 && items.len() > 8);
    assert!(
        read >= rounds * round,
        "{read} bytes read, {rounds} rounds of {round}"
    );
    let _ = fs::remove_file(&path);
}

proptest! {
    /// Randomized cubes and chunk geometries: streamed ≡ resident ≡
    /// oracle, bitwise, for caps of 1, 4, and unbounded. (Case count
    /// follows the harness default / `PROPTEST_CASES`.)
    #[test]
    fn prop_streamed_matches_resident(
        seed in 0u64..1_000_000,
        len in 50usize..250,
        target_cells in 1usize..200,
    ) {
        check_cube(&build(observations(seed, len)), target_cells, "prop");
    }
}
