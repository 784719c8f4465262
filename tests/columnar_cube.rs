//! Property tests for the columnar chunked cube (the engine's layout): on
//! arbitrary observation sets — including ones evolved through
//! [`ObservationCube::apply_delta`] and [`ObservationCube::retract`] — the
//! chunk-view engine, resident and streamed, must produce **bit-for-bit**
//! the scalar reference's results at every thread count and on cubes
//! re-cut at degenerate and huge chunk sizes, and every re-cut's frames
//! must stay faithful to the cube.

use kbt::core::ModelConfig;
use kbt::datamodel::{
    ChunkedCube, ChunkingConfig, CubeBuilder, ExtractorId, ItemId, Observation, ObservationCube,
    SourceId, ValueId,
};
use kbt::QualityInit;
use proptest::prelude::*;

#[path = "../crates/core/tests/matrix/mod.rs"]
mod matrix;

/// Arbitrary small observation sets (same family as `properties.rs`).
fn observations(max_len: usize) -> impl Strategy<Value = Vec<Observation>> {
    prop::collection::vec(
        (0u32..6, 0u32..8, 0u32..10, 0u32..5, 0.0f64..=1.0).prop_map(|(e, w, d, v, c)| {
            Observation {
                extractor: ExtractorId::new(e),
                source: SourceId::new(w),
                item: ItemId::new(d),
                value: ValueId::new(v),
                confidence: c,
            }
        }),
        1..max_len,
    )
}

fn build(obs: &[Observation]) -> ObservationCube {
    let mut b = CubeBuilder::new();
    for o in obs {
        b.push(*o);
    }
    b.build()
}

/// The equivalence matrix on `cube` re-cut at degenerate, small and huge
/// chunk sizes.
fn assert_matrix_at_chunk_sizes(cube: &ObservationCube, ctx: &str) {
    for target_cells in [1usize, 16, 1 << 20] {
        matrix::assert_engine_matches_reference(
            &cube.recut(&ChunkingConfig { target_cells }),
            &ModelConfig::default(),
            &QualityInit::Default,
            &format!("{ctx} chunk={target_cells}"),
        );
    }
}

/// A re-cut's frames must be a faithful image of the cube.
fn assert_columns_faithful(cube: &ObservationCube, target_cells: usize) {
    let cc = ChunkedCube::from_cube(cube, &ChunkingConfig { target_cells });
    assert_eq!(cc.meta.num_groups as usize, cube.num_groups());
    assert_eq!(cc.meta.num_cells as usize, cube.num_cells());
    assert_eq!(cc.frames.len(), cc.meta.item_chunks.len());
    // Group `g` is local row `g − chunk.rows.start` of its frame:
    // item-major rows span `groups_of_item`, with slots resolving into the
    // item's sorted distinct-value list and each row's cells the group's,
    // in the cube's order.
    let (mut next_item, mut next_row, mut cells) = (0u32, 0u32, 0usize);
    for (chunk, frame) in cc.meta.item_chunks.iter().zip(&cc.frames) {
        // Chunks tile items and rows without gaps or overlap.
        assert_eq!(chunk.items.start, next_item);
        assert_eq!(chunk.rows.start, next_row);
        assert_eq!(frame.items, chunk.items);
        let first_row = chunk.rows.start as usize;
        for li in 0..frame.num_items() {
            let d = chunk.items.start as usize + li;
            let rows = cube.groups_of_item(ItemId::new(d as u32));
            let at = frame.rows(li);
            assert_eq!(at.start + first_row..at.end + first_row, rows);
            for r in at {
                let grp = &cube.groups()[r + first_row];
                assert_eq!(frame.ig_source[r], grp.source.0);
                assert_eq!(frame.values(li)[frame.ig_slot[r] as usize], grp.value.0);
                let cells = cube.cells_of(r + first_row);
                let at = frame.cells(r);
                assert_eq!(at.len(), cells.len());
                for (k, c) in at.zip(cells) {
                    assert_eq!(frame.cell_extractor[k], c.extractor.0);
                    assert_eq!(frame.cell_confidence[k].to_bits(), c.confidence.to_bits());
                }
            }
        }
        next_item = chunk.items.end;
        next_row = chunk.rows.end;
        cells += chunk.cells as usize;
    }
    assert_eq!(next_item as usize, cube.num_items());
    assert_eq!(next_row as usize, cube.num_groups());
    assert_eq!(cells, cube.num_cells());
}

/// Every source on every item, one to three cells per group — the chunk
/// store tests' grid, at any size.
fn grid_cube(sources: u32, items: u32) -> ObservationCube {
    let mut b = CubeBuilder::new();
    for w in 0..sources {
        for d in 0..items {
            for e in 0..(1 + (w + d) % 3) {
                b.push(Observation {
                    extractor: ExtractorId::new(e),
                    source: SourceId::new(w),
                    item: ItemId::new(d),
                    value: ValueId::new((w + d) % 4),
                    confidence: 0.3 + 0.1 * f64::from(e),
                });
            }
        }
    }
    b.build()
}

/// The chunk partition's rule: a chunk closes at the first item boundary
/// at or past `min(target_cells, max(4 Ki, ⌈cells / 16⌉))` cells. A cube
/// of at least 16 × 4 Ki cells gets 16 chunks at the default target, each
/// but the last at least its sixteenth (so never 17: 16 such chunks hold
/// every cell); one of under 4 Ki cells stays one chunk; and a target of
/// at most 4 Ki cells cuts greedily at the target itself, as the rule
/// always did.
#[test]
fn chunks_are_capped_at_a_sixteenth_of_the_cube() {
    let (big, small) = (grid_cube(40, 1_000), grid_cube(40, 50));
    assert!(big.num_cells() >= 16 * 4096, "{} cells", big.num_cells());
    assert!(small.num_cells() < 4096, "{} cells", small.num_cells());
    let chunks = |cube: &ObservationCube, target_cells| {
        assert_columns_faithful(cube, target_cells);
        ChunkedCube::from_cube(cube, &ChunkingConfig { target_cells })
            .meta
            .item_chunks
    };
    let default = ChunkingConfig::default().target_cells;
    let cut = chunks(&big, default);
    let share = big.num_cells().div_ceil(16) as u32;
    assert_eq!(cut.len(), 16);
    assert!(cut[..15].iter().all(|c| c.cells >= share), "{cut:?}");
    assert_eq!(chunks(&small, default).len(), 1);
    for target_cells in [1usize, 8, 1_000, 4096] {
        for cube in [&big, &small] {
            let (mut want, mut start, mut cells) = (Vec::new(), 0, 0);
            for d in 0..cube.num_items() as u32 {
                let groups = cube.groups_of_item(ItemId::new(d));
                cells += (groups.map(|g| cube.cells_of(g).len())).sum::<usize>();
                if cells >= target_cells || d as usize + 1 == cube.num_items() {
                    want.push(start..d + 1);
                    (start, cells) = (d + 1, 0);
                }
            }
            let got: Vec<_> = chunks(cube, target_cells)
                .into_iter()
                .map(|c| c.items)
                .collect();
            assert_eq!(got, want, "t={target_cells}");
        }
    }
}

/// The log-likelihood folds an item's rows in blocks of at most 256: a
/// cube of the proptests' family plus one item of 600 rows (three blocks,
/// over 150 sources and 4 values) still fits bitwise as the reference
/// does, both models, at every thread count and residency, and the
/// multi-layer model at every chunk size.
#[test]
fn columnar_engine_bitwise_equal_with_a_600_row_item() {
    let mut obs: Vec<Observation> = (0..60u32)
        .map(|i| Observation {
            extractor: ExtractorId::new(i % 6),
            source: SourceId::new(i * 7 % 8),
            item: ItemId::new(i * 3 % 10),
            value: ValueId::new(i * 5 % 7 % 5),
            confidence: f64::from(i % 11) / 10.0,
        })
        .collect();
    for w in 0..150u32 {
        for v in 0..4u32 {
            obs.push(Observation {
                extractor: ExtractorId::new((w + v) % 6),
                source: SourceId::new(w),
                item: ItemId::new(10),
                value: ValueId::new(v),
                confidence: f64::from((w * 4 + v) % 13) / 12.0,
            });
        }
    }
    let cube = build(&obs);
    assert_eq!(cube.groups_of_item(ItemId::new(10)).len(), 600);
    assert_matrix_at_chunk_sizes(&cube, "600-row item");
    let cfg = ModelConfig::default();
    let tag = "600-row item";
    matrix::assert_single_layer_matches_reference(&cube, &cfg, &QualityInit::Default, tag);
}

proptest! {
    /// A freshly built cube: the engine agrees with the reference
    /// bitwise at every thread count, residency and extreme chunk sizes,
    /// and the columns are faithful gathers.
    #[test]
    fn columnar_engine_bitwise_equal_on_built_cubes(obs in observations(80)) {
        let cube = build(&obs);
        assert_columns_faithful(&cube, 7);
        assert_matrix_at_chunk_sizes(&cube, "built");
    }

    /// The equivalence survives `apply_delta`: the merged cube's frames
    /// and their re-cuts still fit bitwise as the reference does.
    #[test]
    fn columnar_engine_bitwise_equal_after_delta(
        base in observations(60),
        delta in observations(30),
    ) {
        let cube = build(&base).apply_delta(&delta);
        assert_columns_faithful(&cube, 4);
        assert_matrix_at_chunk_sizes(&cube, "delta");
    }

    /// The equivalence survives `retract`, which can leave cell-less
    /// groups (claim-but-never-vote rows) behind — the chunk kernels
    /// must treat them exactly like the reference does.
    #[test]
    fn columnar_engine_bitwise_equal_after_retract(
        base in observations(60),
        picks in prop::collection::vec((0usize..1000, any::<bool>()), 1..6),
    ) {
        let cube = build(&base);
        // Retract a mix of existing triples (picked by index) and
        // never-present ones (no-ops the engine must shrug off).
        let retractions: Vec<(SourceId, ItemId, ValueId)> = picks
            .iter()
            .map(|&(i, real)| {
                if real && cube.num_groups() > 0 {
                    let g = &cube.groups()[i % cube.num_groups()];
                    (g.source, g.item, g.value)
                } else {
                    (SourceId::new(7), ItemId::new(99), ValueId::new(42))
                }
            })
            .collect();
        let shrunk = cube.retract(&retractions);
        assert_columns_faithful(&shrunk, 3);
        assert_matrix_at_chunk_sizes(&shrunk, "retract");
    }
}
