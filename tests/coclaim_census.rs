//! The pair-counting kernel (`kbt::datamodel::pair_counts`, and the
//! overlap-only census `CoClaimIndex::{pair_overlaps, candidate_pairs}`
//! that runs on it) against the scalar oracle in `common`: same pairs,
//! same counts, same order, at 1, 2, 4 and 8 threads — on random corpora
//! with sources claiming several values per item and source ids that
//! claim nothing, on cubes grown by `apply_delta` and shrunk by
//! `retract`, on one very wide item, and on the empty cube.

mod common;

use kbt::core::{detect_copies_from_accuracy, CopyDetectConfig};
use kbt::datamodel::{
    pair_counts, CoClaimIndex, CubeBuilder, ExtractorId, ItemId, Observation, ObservationCube,
    PairCounts, SourceId, ValueId,
};
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const MIN_OVERLAPS: [usize; 3] = [0, 1, 5];

/// Claims over a source id space three times wider than the ids drawn
/// from it (every source id is a multiple of 3, so two of three sources
/// have no groups), few items and few values: sources routinely hold
/// several claims on one item and several sources share a value.
fn claims(max: usize) -> impl Strategy<Value = Vec<Observation>> {
    prop::collection::vec(
        (0u32..3, 0u32..14, 0u32..12, 0u32..4).prop_map(|(e, w, d, v)| {
            Observation::certain(
                ExtractorId::new(e),
                SourceId::new(3 * w),
                ItemId::new(d),
                ValueId::new(v),
            )
        }),
        0..max,
    )
}

fn cube_of(obs: &[Observation]) -> ObservationCube {
    let mut b = CubeBuilder::new();
    for o in obs {
        b.push(*o);
    }
    b.build()
}

/// Kernel ≡ oracle at every thread count and threshold; the census is the
/// kernel's `(a, b, overlap)` columns; the detector scores exactly the
/// kernel's rows.
fn assert_kernel_matches_oracle(cube: &ObservationCube, ctx: &str) {
    let index = CoClaimIndex::build(cube);
    for min_overlap in MIN_OVERLAPS {
        let oracle = common::expand_claim_pairs(cube, min_overlap);
        let rows: Vec<(SourceId, SourceId, u64)> =
            oracle.iter().map(|p| (p.a, p.b, p.overlap)).collect();
        for threads in THREADS {
            let (counts, candidates) = kbt::flume::with_threads(Some(threads), || {
                (
                    pair_counts(cube, min_overlap),
                    index.candidate_pairs(min_overlap),
                )
            });
            let tag = format!("{ctx}: min_overlap {min_overlap}, {threads} threads");
            assert_eq!(oracle, counts, "{tag}");
            let census: Vec<(SourceId, SourceId, u64)> =
                candidates.iter().map(|c| (c.a, c.b, c.overlap)).collect();
            assert_eq!(census, rows, "{tag}: census");
        }

        let cfg = CopyDetectConfig {
            min_overlap,
            ..CopyDetectConfig::default()
        };
        let accuracy = vec![0.7; cube.num_sources()];
        let evidence = kbt::flume::with_threads(Some(2), || {
            detect_copies_from_accuracy(cube, &accuracy, &cfg)
        });
        assert_eq!(
            oracle,
            common::evidence_counts(&evidence),
            "{ctx}: detector rows, min_overlap {min_overlap}"
        );
    }
    let overlaps: Vec<((SourceId, SourceId), u64)> = common::expand_claim_pairs(cube, 0)
        .iter()
        .map(|p| ((p.a, p.b), p.overlap))
        .collect();
    assert_eq!(index.pair_overlaps(), overlaps, "{ctx}: pair_overlaps");
}

proptest! {
    #[test]
    fn kernel_equals_oracle_on_random_corpora(obs in claims(300)) {
        assert_kernel_matches_oracle(&cube_of(&obs), "built cube");
    }

    #[test]
    fn kernel_equals_oracle_after_delta_and_retract(
        base in claims(200),
        delta in claims(120),
        drop_every in 2usize..5,
    ) {
        let cube = cube_of(&base).apply_delta(&delta);
        assert_kernel_matches_oracle(&cube, "after apply_delta");
        let retractions: Vec<(SourceId, ItemId, ValueId)> = cube
            .groups()
            .iter()
            .step_by(drop_every)
            .map(|g| (g.source, g.item, g.value))
            .collect();
        assert_kernel_matches_oracle(&cube.retract(&retractions), "after retract");
    }
}

/// One item claimed by 2,000 sources (every tenth claims a second value):
/// ~2.4M claim pairs from a single row, none of them repeated on another
/// item — the fan-in the old per-item `find` made quadratic twice over.
#[test]
fn a_single_2000_source_item() {
    let mut b = CubeBuilder::new();
    for w in 0..2_000u32 {
        let claim = |v| {
            Observation::certain(
                ExtractorId::new(0),
                SourceId::new(w),
                ItemId::new(0),
                ValueId::new(v),
            )
        };
        b.push(claim(w % 7));
        if w % 10 == 0 {
            b.push(claim(7 + w % 3));
        }
    }
    let cube = b.build();
    let oracle = common::expand_claim_pairs(&cube, 0);
    assert_eq!(oracle.len(), 2_000 * 1_999 / 2);
    for threads in THREADS {
        let counts = kbt::flume::with_threads(Some(threads), || pair_counts(&cube, 1));
        assert_eq!(oracle, counts, "{threads} threads");
    }
    let twice: Vec<PairCounts> = oracle.iter().filter(|p| p.overlap >= 2).copied().collect();
    assert!(!twice.is_empty() && twice.len() < oracle.len());
    let at_two = kbt::flume::with_threads(Some(2), || pair_counts(&cube, 2));
    assert_eq!(twice, at_two);
    assert_eq!(
        CoClaimIndex::build(&cube).candidate_pairs(2).len(),
        twice.len()
    );
}

#[test]
fn the_empty_cube_has_no_pairs() {
    let cube = CubeBuilder::new().build();
    assert_kernel_matches_oracle(&cube, "empty cube");
    assert!(kbt::flume::with_threads(Some(8), || pair_counts(&cube, 0)).is_empty());
    // Sources and items reserved, nothing claimed.
    let mut b = CubeBuilder::new();
    b.reserve_ids(50, 1, 10, 3);
    let cube = b.build();
    assert_kernel_matches_oracle(&cube, "reserved ids only");
}
