//! API-equivalence tests: `TrustPipeline` must be bit-for-bit identical
//! to calling the model directly (`FusionModel::fit`, down to the
//! model-specific `extraction` / `pair_sources` columns), on fixed-seed
//! corpora. Plus convergence-trace sanity.

use kbt::core::{FusionModel, ModelConfig, QualityInit, ValueModel};
use kbt::datamodel::SourceId;
use kbt::synth::paper::{generate, SyntheticConfig};
use kbt::synth::web::{generate as gen_web, WebCorpusConfig};
use kbt::{Model, MultiLayerModel, SingleLayerModel, TrustPipeline};

#[test]
fn pipeline_multilayer_is_bit_identical_to_legacy_run() {
    let data = generate(&SyntheticConfig {
        seed: 20_26,
        ..SyntheticConfig::default()
    });
    let direct =
        MultiLayerModel::new(ModelConfig::default()).fit(&data.cube, &QualityInit::Default);
    let report = TrustPipeline::new()
        .cube(data.cube.clone())
        .model(Model::multi_layer())
        .try_run()
        .expect("pipeline runs");

    assert_eq!(report.source_trust(), direct.params.source_accuracy);
    assert_eq!(report.correctness(), direct.correctness());
    assert_eq!(report.truth_of_group(), direct.truth_of_group);
    assert_eq!(report.covered_group, direct.covered_group);
    assert_eq!(report.active_source, direct.active_source);
    assert_eq!(
        report.extractor_precision(),
        Some(&direct.params.precision[..])
    );
    assert_eq!(report.extractor_recall(), Some(&direct.params.recall[..]));
    assert_eq!(report.iterations(), direct.iterations());
    assert_eq!(report.converged(), direct.converged());
    for d in 0..data.cube.num_items() {
        let d = kbt::ItemId::new(d as u32);
        assert_eq!(
            report.posteriors.observed_mass(d),
            direct.posteriors.observed_mass(d)
        );
    }
    // The extraction layer's own columns match too.
    let (got, want) = (report.extraction.unwrap(), direct.extraction.unwrap());
    assert_eq!(got.truth_given_provided, want.truth_given_provided);
}

#[test]
fn pipeline_accu_is_bit_identical_to_legacy_single_layer() {
    let data = generate(&SyntheticConfig {
        seed: 20_27,
        ..SyntheticConfig::default()
    });
    let direct = SingleLayerModel::new(ModelConfig::single_layer_default())
        .fit(&data.cube, &QualityInit::Default);
    let report = TrustPipeline::new()
        .cube(data.cube.clone())
        .model(Model::accu())
        .try_run()
        .expect("pipeline runs");

    assert_eq!(report.source_trust(), direct.source_trust());
    assert_eq!(report.truth_of_group(), direct.truth_of_group);
    assert_eq!(report.covered_group, direct.covered_group);
    assert_eq!(report.active_source, direct.active_source);
    assert_eq!(report.iterations(), direct.iterations());
    let (got, want) = (report.pair_sources.unwrap(), direct.pair_sources.unwrap());
    assert_eq!(got.pair_accuracy, want.pair_accuracy);
    assert_eq!(got.pairs, want.pairs);
}

#[test]
fn pipeline_popaccu_is_bit_identical_to_legacy_popaccu() {
    let data = generate(&SyntheticConfig {
        seed: 20_28,
        ..SyntheticConfig::default()
    });
    let cfg = ModelConfig {
        value_model: ValueModel::PopAccu,
        ..ModelConfig::single_layer_default()
    };
    let direct = SingleLayerModel::new(cfg).fit(&data.cube, &QualityInit::Default);
    // Model::pop_accu() forces the value model; handing it an Accu-flavored
    // config must still reproduce the PopAccu run.
    let report = TrustPipeline::new()
        .cube(data.cube.clone())
        .model(Model::PopAccu(ModelConfig::single_layer_default()))
        .try_run()
        .expect("pipeline runs");
    assert_eq!(report.source_trust(), direct.source_trust());
    assert_eq!(report.truth_of_group(), direct.truth_of_group);
}

#[test]
fn pipeline_gold_init_is_bit_identical_on_web_corpus() {
    // The `+` variant on the KV-scale corpus: gold-seeded initialization
    // through both paths.
    let corpus = gen_web(&WebCorpusConfig::tiny(64));
    let init = kbt_bench_gold_init(&corpus);
    let direct = MultiLayerModel::new(ModelConfig::default()).fit(&corpus.cube, &init);
    let report = TrustPipeline::new()
        .cube(corpus.cube.clone())
        .init(init)
        .try_run()
        .expect("pipeline runs");
    assert_eq!(report.source_trust(), direct.source_trust());
    assert_eq!(report.correctness(), direct.correctness());
}

/// A miniature of `kbt_bench::harness::gold_init` (the bench crate is not
/// a dependency of the facade's tests): smoothed per-source accuracy from
/// gold labels.
fn kbt_bench_gold_init(corpus: &kbt::synth::WebCorpus) -> QualityInit {
    let cube = &corpus.cube;
    let labels = corpus.gold_labels();
    let mut src_true = vec![0usize; cube.num_sources()];
    let mut src_tot = vec![0usize; cube.num_sources()];
    for (g, grp) in cube.groups().iter().enumerate() {
        if let Some(l) = labels[g] {
            src_tot[grp.source.index()] += 1;
            if l {
                src_true[grp.source.index()] += 1;
            }
        }
    }
    QualityInit::FromGold {
        source_accuracy: src_true
            .iter()
            .zip(&src_tot)
            .map(|(t, n)| (*n > 0).then(|| (*t as f64 + 1.0) / (*n as f64 + 2.0)))
            .collect(),
        extractor_precision: vec![],
        extractor_recall: vec![],
    }
}

#[test]
fn trace_deltas_shrink_monotonically_on_consensus_data() {
    // On a clean consensus corpus EM contracts straight toward the fixed
    // point: each round's parameter delta is no larger than the last.
    use kbt::datamodel::{ExtractorId, ItemId, Observation, ValueId};
    let mut observations = Vec::new();
    for w in 0..6u32 {
        for d in 0..20u32 {
            for e in 0..3u32 {
                observations.push(Observation::certain(
                    ExtractorId::new(e),
                    SourceId::new(w),
                    ItemId::new(d),
                    ValueId::new(d),
                ));
            }
        }
    }
    let report = TrustPipeline::new()
        .observations(observations)
        .model(Model::MultiLayer(ModelConfig {
            max_iterations: 12,
            ..ModelConfig::default()
        }))
        .try_run()
        .expect("pipeline runs");
    let deltas: Vec<f64> = report.trace.rounds.iter().map(|r| r.delta).collect();
    assert!(!deltas.is_empty());
    for w in deltas.windows(2) {
        assert!(
            w[1] <= w[0] + 1e-12,
            "delta increased between rounds: {deltas:?}"
        );
    }
    // And the pseudo log-likelihood never degrades as posteriors sharpen.
    let lls: Vec<f64> = report
        .trace
        .rounds
        .iter()
        .map(|r| r.log_likelihood)
        .collect();
    for w in lls.windows(2) {
        assert!(
            w[1] >= w[0] - 1e-9,
            "pseudo log-likelihood degraded: {lls:?}"
        );
    }
    // Wall-clock was actually measured: an EM round over 360 cells takes
    // well over a nanosecond, so an all-zero trace means Stopwatch::lap
    // regressed.
    assert!(
        report.trace.total_wall() > std::time::Duration::ZERO,
        "no wall time recorded across {} rounds",
        report.trace.rounds.len()
    );
}

#[test]
fn trace_matches_run_traced_output() {
    let data = generate(&SyntheticConfig {
        seed: 9_000,
        ..SyntheticConfig::default()
    });
    let fit =
        MultiLayerModel::new(ModelConfig::default()).run_traced(&data.cube, &QualityInit::Default);
    let legacy = fit.expect("resident fit");
    let trace = &legacy.trace;
    let report = TrustPipeline::new()
        .cube(data.cube.clone())
        .try_run()
        .expect("pipeline runs");
    assert_eq!(report.trace.rounds.len(), trace.rounds.len());
    assert_eq!(report.trace.converged, trace.converged);
    for (a, b) in report.trace.rounds.iter().zip(&trace.rounds) {
        // Wall time differs run-to-run; the numeric diagnostics must not.
        assert_eq!(a.iteration, b.iteration);
        assert_eq!(a.delta, b.delta);
        assert_eq!(a.log_likelihood, b.log_likelihood);
    }
    assert_eq!(report.iterations(), legacy.iterations());
}
