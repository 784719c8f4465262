//! Property tests for incremental fusion: applying a delta through
//! `FusionSession.update` must be equivalent to rebuilding the cube from
//! all observations and running batch EM from the same initialization,
//! and a session rebuilt from a published snapshot must refit exactly
//! like the session that published it.

use kbt::core::{CopyDetectConfig, ModelConfig};
use kbt::datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt::serve::SnapshotProvenance;
use kbt::{FusionModel, FusionReport, FusionSession, Model, QualityInit, RefitMode, TrustSnapshot};
use proptest::prelude::*;

fn observations(max_len: usize) -> impl Strategy<Value = Vec<Observation>> {
    prop::collection::vec(
        (0u32..5, 0u32..8, 0u32..10, 0u32..5, 0.0f64..=1.0).prop_map(|(e, w, d, v, c)| {
            Observation {
                extractor: ExtractorId::new(e),
                source: SourceId::new(w),
                item: ItemId::new(d),
                value: ValueId::new(v),
                confidence: c,
            }
        }),
        0..max_len,
    )
}

fn build_cube(obs: &[Observation]) -> kbt::ObservationCube {
    let mut b = CubeBuilder::with_capacity(obs.len());
    for o in obs {
        b.push(*o);
    }
    b.build()
}

/// The delta-merged cube is structurally identical to a full rebuild.
fn assert_delta_equals_rebuild(
    base: &[Observation],
    delta: &[Observation],
) -> Result<(), TestCaseError> {
    let incremental = build_cube(base).apply_delta(delta);
    let all: Vec<Observation> = base.iter().chain(delta).copied().collect();
    let full = build_cube(&all);
    prop_assert_eq!(incremental.groups(), full.groups());
    // The meta frame (sizes, partition, per-source columns) and every
    // item frame (values, slots, cells).
    prop_assert_eq!(incremental.chunked(), full.chunked());
    Ok(())
}

/// The same on a base large enough (≥ 2¹⁶ unsorted rows) that both full
/// builds take `CubeBuilder`'s partitioned, parallel path.
#[test]
fn apply_delta_equals_a_parallel_full_rebuild() {
    let row = |i: u32| {
        let k = i.wrapping_mul(2_654_435_761) >> 7;
        Observation {
            extractor: ExtractorId::new(k % 5),
            source: SourceId::new((k >> 3) % 300),
            item: ItemId::new((k >> 9) % 4_000),
            value: ValueId::new((k >> 5) % 6),
            confidence: f64::from(k % 11) / 10.0,
        }
    };
    let base: Vec<Observation> = (0..90_000).map(row).collect();
    let delta: Vec<Observation> = (90_000..92_000).map(row).collect();
    assert_delta_equals_rebuild(&base, &delta).unwrap();
}

proptest! {
    #[test]
    fn apply_delta_equals_full_rebuild(base in observations(80), delta in observations(40)) {
        prop_assume!(!base.is_empty());
        assert_delta_equals_rebuild(&base, &delta)?;
    }

    /// `FusionSession.update(delta)` followed by EM is equivalent (within
    /// 1e-9) to rebuilding from all observations and running batch EM
    /// from the same init.
    #[test]
    fn updated_session_em_matches_batch_em(base in observations(80), delta in observations(40)) {
        prop_assume!(!base.is_empty());
        let cfg = ModelConfig::default();

        let mut session = FusionSession::from_observations(base.clone(), Model::MultiLayer(cfg.clone()));
        session.update(&delta);
        let incremental = session.run_cold();

        let all: Vec<Observation> = base.iter().chain(&delta).copied().collect();
        let mut batch_session = FusionSession::from_observations(all, Model::MultiLayer(cfg));
        let batch = batch_session.run_cold();

        prop_assert_eq!(incremental.iterations(), batch.iterations());
        for (a, b) in incremental.source_trust().iter().zip(batch.source_trust()) {
            prop_assert!((a - b).abs() < 1e-9, "trust {} vs {}", a, b);
        }
        for (a, b) in incremental.truth_of_group().iter().zip(batch.truth_of_group()) {
            prop_assert!((a - b).abs() < 1e-9, "truth {} vs {}", a, b);
        }
        let (ci, cb) = (incremental.correctness().unwrap(), batch.correctness().unwrap());
        for (a, b) in ci.iter().zip(cb) {
            prop_assert!((a - b).abs() < 1e-9, "correctness {} vs {}", a, b);
        }

        // And the warm re-run from the batch's converged parameters is
        // equivalent on both cubes too (same init ⇒ same trajectory).
        let resumed = QualityInit::Resume(batch.params.clone());
        let warm_inc = kbt::MultiLayerModel::new(ModelConfig::default())
            .fit(session.cube(), &resumed);
        let warm_batch = kbt::MultiLayerModel::new(ModelConfig::default())
            .fit(batch_session.cube(), &resumed);
        for (a, b) in warm_inc.source_trust().iter().zip(warm_batch.source_trust()) {
            prop_assert!((a - b).abs() < 1e-9, "warm trust {} vs {}", a, b);
        }
    }
}

/// The snapshot a server would publish for `report`, fitted on
/// `session`'s cube.
fn snapshot_of(session: &FusionSession, report: &FusionReport) -> TrustSnapshot {
    let triples = session
        .cube()
        .groups()
        .iter()
        .map(|g| (g.source, g.item, g.value))
        .collect();
    TrustSnapshot::from_report(
        report,
        triples,
        0,
        SnapshotProvenance {
            refit_mode: RefitMode::Warm,
            deltas_applied: session.deltas_applied(),
            iterations: report.iterations(),
            converged: report.converged(),
            coverage: report.coverage(),
        },
    )
}

proptest! {
    /// One warm state: a session restored from `(cube, the published
    /// snapshot's warm state)` and the live session the snapshot was
    /// exported from produce bit-identical next refits — across windows
    /// that add, retract, and add-then-retract the same triple, with and
    /// without copy evidence to carry. It rests on the engine invariant
    /// that a fit's per-group truth *is* its item posterior of the
    /// group's value, which is asserted on every report along the way.
    #[test]
    fn restored_session_refits_like_the_live_one(
        base in observations(80),
        windows in prop::collection::vec((observations(12), 0usize..3, 0usize..1000), 1..4),
        copy_aware in any::<bool>(),
    ) {
        prop_assume!(!base.is_empty());
        let model = Model::MultiLayer(ModelConfig {
            threads: Some(1),
            copy_detection: copy_aware.then(|| CopyDetectConfig {
                discount: true,
                ..CopyDetectConfig::default()
            }),
            ..ModelConfig::default()
        });
        let mut live = FusionSession::from_observations(base, model.clone());
        let mut report = live.run();
        for (delta, kind, pick) in windows {
            for (g, grp) in live.cube().groups().iter().enumerate() {
                let belief = report.posteriors.prob(grp.item, grp.value);
                prop_assert_eq!(report.truth_of_group()[g].to_bits(), belief.to_bits());
            }
            let mut restored = FusionSession::restore(
                live.cube().clone(),
                model.clone(),
                live.deltas_applied(),
                snapshot_of(&live, &report).warm_state(),
            );
            prop_assert_eq!(restored.warm(), live.warm());

            let groups = live.cube().groups();
            let known = groups.get(pick % groups.len().max(1));
            let retraction: Vec<_> = match kind {
                // Add only.
                0 => Vec::new(),
                // Retract a triple the cube already holds.
                1 => known.map(|g| (g.source, g.item, g.value)).into_iter().collect(),
                // Add, then retract a triple the same window added.
                _ => delta.first().map(|o| (o.source, o.item, o.value)).into_iter().collect(),
            };
            for session in [&mut live, &mut restored] {
                if kind != 1 {
                    session.update(&delta);
                }
                if !retraction.is_empty() {
                    session.retract(&retraction);
                }
            }
            report = live.run();
            let again = restored.run();
            prop_assert_eq!(again.iterations(), report.iterations());
            prop_assert_eq!(again.source_trust(), report.source_trust());
            prop_assert_eq!(again.truth_of_group(), report.truth_of_group());
            prop_assert_eq!(again.correctness(), report.correctness());
            prop_assert_eq!(again.posteriors, report.posteriors);
            prop_assert_eq!(again.source_independence, report.source_independence);
            prop_assert_eq!(restored.warm(), live.warm());
        }
    }
}

#[test]
fn session_without_deltas_is_plain_batch() {
    let obs: Vec<Observation> = (0..4u32)
        .flat_map(|w| {
            (0..6u32).map(move |d| {
                Observation::certain(
                    ExtractorId::new(0),
                    SourceId::new(w),
                    ItemId::new(d),
                    ValueId::new(d % 2),
                )
            })
        })
        .collect();
    let via_session = FusionSession::from_observations(obs.clone(), Model::multi_layer()).run();
    let via_pipeline = kbt::TrustPipeline::new()
        .observations(obs)
        .try_run()
        .expect("pipeline runs");
    assert_eq!(via_session.source_trust(), via_pipeline.source_trust());
    assert_eq!(via_session.truth_of_group(), via_pipeline.truth_of_group());
}
