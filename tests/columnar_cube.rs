//! Property tests for the columnar chunked cube (the engine's layout): on
//! arbitrary observation sets — including ones evolved through
//! [`ObservationCube::apply_delta`] and [`ObservationCube::retract`] — the
//! chunk-view engine, resident and streamed, must produce **bit-for-bit**
//! the scalar reference's results at every thread count and at degenerate
//! and huge chunk sizes, and the gathered columns must stay faithful to
//! the row cube.

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

/// The equivalence matrix on `cube` at degenerate, small and huge chunk
/// sizes.
fn assert_matrix_at_chunk_sizes(cube: &ObservationCube, ctx: &str) {
    for chunk_target_cells in [1usize, 16, 1 << 20] {
        let cfg = ModelConfig {
            chunk_target_cells,
            ..ModelConfig::default()
        };
        matrix::assert_engine_matches_reference(
            cube,
            &cfg,
            &QualityInit::Default,
            &format!("{ctx} chunk={chunk_target_cells}"),
        );
    }
}

/// The gathered frames must be a faithful image of the row cube.
fn assert_columns_faithful(cube: &ObservationCube, target_cells: usize) {
    let cc = ChunkedCube::from_cube(cube, &ChunkingConfig { target_cells });
    assert_eq!(cc.meta.num_groups as usize, cube.num_groups());
    assert_eq!(cc.meta.num_cells as usize, cube.num_cells());
    assert_eq!(cc.frames.len(), cc.meta.item_chunks.len());
    // Group `g` is local row `g − chunk.rows.start` of its frame:
    // item-major rows span `groups_of_item`, with slots resolving into the
    // item's sorted distinct-value list and each row's cells the group's,
    // in the cube's order.
    let (mut next_item, mut next_row, mut first_cell) = (0u32, 0u32, 0usize);
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
                let cells = cube.cells_of(grp);
                let at = frame.cells(r);
                assert_eq!(at.start + first_cell, grp.cell_range().start);
                assert_eq!(at.len(), cells.len());
                for (k, c) in at.zip(cells) {
                    assert_eq!(frame.cell_extractor[k], c.extractor.0);
                    assert_eq!(frame.cell_confidence[k].to_bits(), c.confidence.to_bits());
                }
            }
        }
        next_item = chunk.items.end;
        next_row = chunk.rows.end;
        first_cell += chunk.cells as usize;
    }
    assert_eq!(next_item as usize, cube.num_items());
    assert_eq!(next_row as usize, cube.num_groups());
    assert_eq!(first_cell, cube.num_cells());
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

    /// The equivalence survives `apply_delta`: the chunked cube is
    /// rebuilt from the merged cube and the fits still agree bitwise.
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
