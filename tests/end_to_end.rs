//! End-to-end integration tests spanning the whole workspace: synthetic
//! generation → inference → evaluation, exercised through the public
//! facade crate's `TrustPipeline`.

use kbt::core::{ModelConfig, QualityInit};
use kbt::datamodel::SourceId;
use kbt::metrics::square_loss_binary;
use kbt::synth::paper::{generate, SyntheticConfig};
use kbt::{Model, TrustPipeline};

/// The headline claim (Figure 3): on the paper's synthetic data the
/// multi-layer model recovers source accuracies far better than the
/// single-layer baseline once extraction noise is present — on three
/// seeds at two corpus sizes. Its own error is bounded too, and shrinks
/// with more data for every seed: a change that moves the fit by
/// rounding alone cannot break either, one that changes the model can.
#[test]
fn multilayer_recovers_source_accuracy_better_than_singlelayer() {
    /// Mean absolute KBT error the multi-layer fit must stay below.
    const MAE_BOUND: f64 = 0.15;
    let mut multi_sqa = 0.0;
    let mut single_sqa = 0.0;
    for seed in [500, 501, 502] {
        let mut maes = Vec::new();
        for triples_per_source in [100, 400] {
            let data = generate(&SyntheticConfig {
                seed,
                triples_per_source,
                ..SyntheticConfig::default()
            });
            let m = TrustPipeline::new()
                .cube(data.cube.clone())
                .model(Model::multi_layer())
                .try_run()
                .expect("pipeline runs");
            let s = TrustPipeline::new()
                .cube(data.cube.clone())
                .model(Model::accu())
                .try_run()
                .expect("pipeline runs");
            let mut multi_ae = 0.0;
            for w in 0..data.cube.num_sources() {
                let truth = data.truth.source_accuracy[w];
                let multi = m.kbt(SourceId::new(w as u32)) - truth;
                multi_ae += multi.abs();
                multi_sqa += multi.powi(2);
                single_sqa += (s.kbt(SourceId::new(w as u32)) - truth).powi(2);
            }
            let mae = multi_ae / data.cube.num_sources() as f64;
            assert!(
                mae < MAE_BOUND,
                "seed {seed}, {triples_per_source} triples per source: multi MAE {mae:.4}"
            );
            maes.push(mae);
        }
        assert!(
            maes[1] < maes[0],
            "seed {seed}: MAE must fall with 4x the data, got {maes:?}"
        );
    }
    assert!(
        multi_sqa < single_sqa,
        "multi SqA {multi_sqa:.4} must beat single SqA {single_sqa:.4}"
    );
}

/// Planted extractor precision must be recovered within a loose tolerance:
/// P = 0.8³ ≈ 0.51 per the synthetic model.
#[test]
fn extractor_precision_is_recovered() {
    let data = generate(&SyntheticConfig {
        triples_per_source: 200,
        seed: 901,
        ..SyntheticConfig::default()
    });
    let r = TrustPipeline::new()
        .cube(data.cube)
        .try_run()
        .expect("pipeline runs");
    let precision = r.extractor_precision().unwrap();
    for (e, p) in precision.iter().enumerate().take(5) {
        assert!((p - 0.512).abs() < 0.2, "P[{e}] = {p} far from P³ = 0.512");
    }
}

/// Extraction-correctness estimates must separate truly provided triples
/// from extraction artifacts.
#[test]
fn correctness_separates_provided_from_hallucinated() {
    let data = generate(&SyntheticConfig {
        seed: 77,
        ..SyntheticConfig::default()
    });
    let r = TrustPipeline::new()
        .cube(data.cube)
        .try_run()
        .expect("pipeline runs");
    let correctness = r.correctness().unwrap();
    let (mut sp, mut np, mut su, mut nu) = (0.0, 0usize, 0.0, 0usize);
    for (g, &c) in correctness.iter().enumerate() {
        if data.truth.group_provided[g] {
            sp += c;
            np += 1;
        } else {
            su += c;
            nu += 1;
        }
    }
    let mean_provided = sp / np as f64;
    let mean_hallucinated = su / nu as f64;
    assert!(
        mean_provided > mean_hallucinated + 0.2,
        "no separation: provided {mean_provided:.3} vs hallucinated {mean_hallucinated:.3}"
    );
}

/// Same seed → bit-identical results; different seed → different corpus.
#[test]
fn pipeline_is_deterministic() {
    let cfg = SyntheticConfig {
        seed: 31337,
        ..SyntheticConfig::default()
    };
    let a = generate(&cfg);
    let b = generate(&cfg);
    let ra = TrustPipeline::new()
        .cube(a.cube.clone())
        .try_run()
        .expect("pipeline runs");
    let rb = TrustPipeline::new()
        .cube(b.cube)
        .try_run()
        .expect("pipeline runs");
    assert_eq!(ra.source_trust(), rb.source_trust());
    assert_eq!(ra.correctness(), rb.correctness());
    let c = generate(&SyntheticConfig {
        seed: 31338,
        ..SyntheticConfig::default()
    });
    assert_ne!(a.cube.num_cells(), 0);
    assert!(
        c.cube.num_cells() != a.cube.num_cells() || {
            let rc = TrustPipeline::new()
                .cube(c.cube)
                .try_run()
                .expect("pipeline runs");
            rc.source_trust() != ra.source_trust()
        }
    );
}

/// Parallel execution must not change results: 1 worker ≡ N workers.
/// Thread counts are per-run (`.threads(..)`), so this test cannot race
/// with other tests.
#[test]
fn parallel_equals_serial() {
    let data = generate(&SyntheticConfig {
        seed: 4242,
        ..SyntheticConfig::default()
    });
    let serial = TrustPipeline::new()
        .cube(data.cube.clone())
        .threads(1)
        .try_run()
        .expect("pipeline runs");
    let parallel = TrustPipeline::new()
        .cube(data.cube.clone())
        .threads(0) // hardware default
        .try_run()
        .expect("pipeline runs");
    assert_eq!(serial.source_trust(), parallel.source_trust());
    assert_eq!(serial.extractor_precision(), parallel.extractor_precision());
    assert_eq!(serial.correctness(), parallel.correctness());
    assert_eq!(serial.truth_of_group(), parallel.truth_of_group());
}

/// The per-model `ModelConfig::threads` knob is honored by the engines
/// directly (without going through the pipeline builder).
#[test]
fn model_config_threads_is_equivalent_to_builder_threads() {
    use kbt::FusionModel;
    let data = generate(&SyntheticConfig {
        seed: 555,
        ..SyntheticConfig::default()
    });
    let via_cfg = kbt::MultiLayerModel::new(ModelConfig {
        threads: Some(1),
        ..ModelConfig::default()
    })
    .fit(&data.cube, &QualityInit::Default);
    let via_builder = TrustPipeline::new()
        .cube(data.cube.clone())
        .threads(1)
        .try_run()
        .expect("pipeline runs");
    assert_eq!(via_cfg.source_trust(), via_builder.source_trust());
    assert_eq!(via_cfg.truth_of_group(), via_builder.truth_of_group());
}

/// SqV on the default synthetic setup should be in the ballpark the paper
/// reports for five extractors (Figure 3: ≈ 0.03–0.1).
#[test]
fn sqv_is_paper_magnitude() {
    let data = generate(&SyntheticConfig {
        seed: 11,
        ..SyntheticConfig::default()
    });
    let r = TrustPipeline::new()
        .cube(data.cube.clone())
        .try_run()
        .expect("pipeline runs");
    let eval = data.value_eval_set();
    let pred: Vec<f64> = eval
        .iter()
        .map(|(d, v, _)| r.posteriors.prob(*d, *v))
        .collect();
    let truth: Vec<bool> = eval.iter().map(|(_, _, t)| *t).collect();
    let sqv = square_loss_binary(&pred, &truth).unwrap();
    assert!(sqv < 0.15, "SqV = {sqv} too high");
}
