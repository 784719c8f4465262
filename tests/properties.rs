//! Property-based tests over the core invariants, spanning crates.

use std::collections::{BTreeMap, BTreeSet};

use kbt::core::ModelConfig;
use kbt::datamodel::{
    CubeBuilder, ExtractorId, ItemId, Observation, ObservationCube, SourceId, ValueId,
};
use kbt::metrics::{auc_pr, paper_bucket_edges, wdev, PrCurve};
use kbt::serve::SnapshotProvenance;
use kbt::{Model, RefitMode, TrustPipeline, TrustSnapshot};
use proptest::prelude::*;

/// Arbitrary small observation sets.
fn observations() -> impl Strategy<Value = Vec<Observation>> {
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
        1..120,
    )
}

/// The cube's indexes against a brute-force recount over its groups:
/// groups strictly ascend by `(item, source, value)`; each source's size
/// is its number of groups; its extractor set is the extractors of its
/// cells; each item's values are its groups'.
fn assert_indexes_recount(cube: &ObservationCube) {
    let groups = cube.groups();
    let key = |g: usize| (groups[g].item, groups[g].source, groups[g].value);
    assert!(
        (1..groups.len()).all(|g| key(g - 1) < key(g)),
        "not item-major"
    );
    for w in (0..cube.num_sources() as u32).map(SourceId::new) {
        let own: Vec<u32> = (0..groups.len() as u32)
            .filter(|&g| groups[g as usize].source == w)
            .collect();
        assert_eq!(cube.source_size(w), own.len(), "{w:?}");
        let extractors: BTreeSet<ExtractorId> = (own.iter())
            .flat_map(|&g| cube.cells_of(g as usize))
            .map(|c| c.extractor)
            .collect();
        assert!(cube.extractors_on_source(w).eq(extractors), "{w:?}");
    }
    for d in (0..cube.num_items() as u32).map(ItemId::new) {
        let values: BTreeSet<ValueId> = (groups.iter())
            .filter(|g| g.item == d)
            .map(|g| g.value)
            .collect();
        assert!(cube.observed_values(d).eq(values), "{d:?}");
        let range = cube.groups_of_item(d);
        assert!(groups[range].iter().all(|g| g.item == d), "{d:?}");
    }
}

/// The cells against a recount of the observations the cube was made
/// from: one cell per distinct `(e, w, d, v)`, in cube order and by
/// extractor within a group, each at the largest confidence observed for
/// its key (compared as bits).
fn assert_cells_recount(cube: &ObservationCube, input: &[Observation]) {
    let mut want = BTreeMap::new();
    for o in input {
        let key = (o.item.0, o.source.0, o.value.0, o.extractor.0);
        let c = want.entry(key).or_insert(o.confidence);
        *c = c.max(o.confidence);
    }
    let want: Vec<_> = want.into_iter().map(|(k, c)| (k, c.to_bits())).collect();
    let got: Vec<_> = (cube.iter_with_cells())
        .flat_map(|(_, g, cells)| {
            let key = move |e: ExtractorId| (g.item.0, g.source.0, g.value.0, e.0);
            cells.map(move |c| (key(c.extractor), c.confidence.to_bits()))
        })
        .collect();
    assert_eq!(got, want);
}

/// A snapshot of a one-round fit over `cube` answers every group's
/// `(source, item, value)` with that group's posterior, and misses a
/// value no group claims and a source with no groups.
fn assert_snapshot_finds_every_triple(cube: &ObservationCube) {
    let cfg = ModelConfig {
        max_iterations: 1,
        ..ModelConfig::default()
    };
    let report = TrustPipeline::new()
        .cube(cube.clone())
        .model(Model::MultiLayer(cfg))
        .try_run()
        .expect("pipeline runs");
    let triples: Vec<_> = (cube.groups().iter())
        .map(|g| (g.source, g.item, g.value))
        .collect();
    let provenance = SnapshotProvenance {
        refit_mode: RefitMode::Cold,
        deltas_applied: 0,
        iterations: report.iterations(),
        converged: report.converged(),
        coverage: report.coverage(),
    };
    let snap = TrustSnapshot::from_report(&report, triples, 0, provenance);
    let absent_source = SourceId::new(cube.num_sources() as u32);
    for (g, grp) in cube.groups().iter().enumerate() {
        let got = snap.triple_posterior(grp.source, grp.item, grp.value);
        assert_eq!(
            got.map(f64::to_bits),
            Some(report.truth_of_group()[g].to_bits())
        );
        assert_eq!(
            snap.triple_posterior(grp.source, grp.item, ValueId::new(7)),
            None
        );
        assert_eq!(
            snap.triple_posterior(absent_source, grp.item, grp.value),
            None
        );
    }
}

proptest! {
    /// The item-major group order is a relabeling that every index, every
    /// cell and the serving lookup agree with: random cubes with duplicate
    /// observations, then grown by a delta (new and existing keys), then
    /// with every seventh group (from an offset) retracted.
    #[test]
    fn item_major_indexes_match_a_recount(
        obs in observations(),
        delta in observations(),
        offset in 0usize..7,
    ) {
        let mut b = CubeBuilder::new();
        let base_in: Vec<Observation> = (obs.iter().chain(&obs[..obs.len() / 3]))
            .map(|o| Observation { confidence: o.confidence / 2.0, ..*o })
            .collect();
        for o in &base_in {
            b.push(*o);
        }
        let base = b.build();
        let grown = base.apply_delta(&delta);
        let gone: Vec<_> = (grown.groups().iter().enumerate())
            .filter(|(g, _)| g % 7 == offset)
            .map(|(_, g)| (g.source, g.item, g.value))
            .collect();
        let grown_in = [&base_in[..], &delta[..]].concat();
        let kept: Vec<Observation> = (grown_in.iter())
            .filter(|o| !gone.contains(&(o.source, o.item, o.value)))
            .copied()
            .collect();
        let shrunk = grown.retract(&gone);
        for (cube, input) in [(&base, &base_in), (&grown, &grown_in), (&shrunk, &kept)] {
            assert_indexes_recount(cube);
            assert_cells_recount(cube, input);
            assert_snapshot_finds_every_triple(cube);
        }
    }

    /// The full model never produces anything outside [0, 1] and the
    /// per-item posterior always normalizes over the domain.
    #[test]
    fn model_outputs_are_probabilities(obs in observations()) {
        let mut b = CubeBuilder::new();
        for o in &obs {
            b.push(*o);
        }
        let cube = b.build();
        let cfg = ModelConfig::default();
        let r = TrustPipeline::new()
            .cube(cube.clone())
            .model(Model::MultiLayer(cfg.clone()))
            .try_run().expect("pipeline runs");
        for &c in r.correctness().unwrap() {
            prop_assert!((0.0..=1.0).contains(&c));
        }
        for &t in r.truth_of_group() {
            prop_assert!((0.0..=1.0).contains(&t));
        }
        for &a in r.source_trust() {
            prop_assert!((0.0..=1.0).contains(&a));
        }
        let params = &r.params;
        for e in 0..cube.num_extractors() {
            prop_assert!((0.0..=1.0).contains(&params.precision[e]));
            prop_assert!((0.0..=1.0).contains(&params.recall[e]));
            prop_assert!(params.q[e] < params.recall[e] + 1e-9,
                "Q must stay below R (vote monotonicity)");
        }
        // Posterior normalization per item with any observed value.
        for d in 0..cube.num_items() {
            let d = ItemId::new(d as u32);
            let obs_mass = r.posteriors.observed_mass(d);
            let unobs = r.posteriors
                .prob(d, ValueId::new(u32::MAX - 1)); // surely unobserved
            let k = (cfg.n_false_values + 1)
                .saturating_sub(r.posteriors.observed(d).len());
            let total = obs_mass + unobs * k as f64;
            prop_assert!((total - 1.0).abs() < 1e-6, "item {d:?} total {total}");
        }
    }

    /// Cube construction conserves observations: every pushed cell is
    /// reachable and group/cell counts are consistent.
    #[test]
    fn cube_conserves_data(obs in observations()) {
        let mut b = CubeBuilder::new();
        for o in &obs {
            b.push(*o);
        }
        let cube = b.build();
        let mut distinct = std::collections::BTreeSet::new();
        for o in &obs {
            distinct.insert((o.extractor.0, o.source.0, o.item.0, o.value.0));
        }
        prop_assert_eq!(cube.num_cells(), distinct.len());
        let cells_via_groups: usize = (0..cube.num_groups())
            .map(|g| cube.cells_of(g).len())
            .sum();
        prop_assert_eq!(cells_via_groups, cube.num_cells());
        // Every group counted once by the item index and the source sizes.
        let via_items: usize = (0..cube.num_items())
            .map(|d| cube.groups_of_item(ItemId::new(d as u32)).count())
            .sum();
        prop_assert_eq!(via_items, cube.num_groups());
        let via_sources: usize = (0..cube.num_sources())
            .map(|w| cube.source_size(SourceId::new(w as u32)))
            .sum();
        prop_assert_eq!(via_sources, cube.num_groups());
    }

    /// PR curves: recall is non-decreasing, precision within [0,1], AUC
    /// within [0,1], and a perfect ranking scores 1.
    #[test]
    fn pr_curve_invariants(labels in prop::collection::vec(any::<bool>(), 1..200),
                           seed in 0u64..1000) {
        prop_assume!(labels.iter().any(|&l| l));
        // Scores correlated with labels by seed-driven noise.
        let mut state = seed.max(1);
        let mut scores = Vec::with_capacity(labels.len());
        for &l in &labels {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64;
            scores.push(if l { 0.5 + noise / 2.0 } else { noise / 2.0 });
        }
        let curve = PrCurve::from_labels(&scores, &labels).unwrap();
        let mut prev_r = 0.0;
        for &(r, p) in &curve.points {
            prop_assert!(r >= prev_r - 1e-12);
            prop_assert!((0.0..=1.0).contains(&p));
            prev_r = r;
        }
        let auc = curve.auc();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&auc));
        // These scores perfectly separate classes → AUC = 1.
        prop_assert!((auc - 1.0).abs() < 1e-9, "auc = {auc}");
        let _ = auc_pr(&scores, &labels);
    }

    /// WDev is zero for perfectly calibrated point masses and bounded by 1.
    #[test]
    fn wdev_bounds(preds in prop::collection::vec(0.0f64..=1.0, 1..300)) {
        // Labels drawn deterministically from predictions (calibrated in
        // expectation is hard; we check bounds only).
        let labels: Vec<bool> = preds.iter().map(|&p| p > 0.5).collect();
        if let Some(w) = wdev(&preds, &labels) {
            prop_assert!((0.0..=1.0).contains(&w));
        }
        // Bucket edges are strictly increasing and span [0, 1].
        let e = paper_bucket_edges();
        for win in e.windows(2) {
            prop_assert!(win[0] < win[1]);
        }
    }
}
