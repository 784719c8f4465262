//! Property-based tests over the core invariants, spanning crates.

use kbt::core::ModelConfig;
use kbt::datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt::metrics::{auc_pr, paper_bucket_edges, wdev, PrCurve};
use kbt::{Model, TrustPipeline};
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

proptest! {
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
        let cells_via_groups: usize = cube
            .groups()
            .iter()
            .map(|g| cube.cells_of(g).len())
            .sum();
        prop_assert_eq!(cells_via_groups, cube.num_cells());
        // Every group reachable through both indices.
        let via_items: usize = (0..cube.num_items())
            .map(|d| cube.groups_of_item(ItemId::new(d as u32)).count())
            .sum();
        prop_assert_eq!(via_items, cube.num_groups());
        let via_sources: usize = (0..cube.num_sources())
            .map(|w| cube.source_groups(SourceId::new(w as u32)).len())
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
