//! Failure-injection and adversarial-input tests: the library must stay
//! finite, normalized, and sensible on degenerate inputs — all driven
//! through the unified `TrustPipeline` surface.

use kbt::core::{FusionReport, ModelConfig};
use kbt::datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt::{Model, TrustPipeline};

fn obs(e: u32, w: u32, d: u32, v: u32, c: f64) -> Observation {
    Observation {
        extractor: ExtractorId::new(e),
        source: SourceId::new(w),
        item: ItemId::new(d),
        value: ValueId::new(v),
        confidence: c,
    }
}

fn multilayer(observations: Vec<Observation>, cfg: ModelConfig) -> FusionReport {
    TrustPipeline::new()
        .observations(observations)
        .model(Model::MultiLayer(cfg))
        .try_run()
        .expect("pipeline runs")
}

#[test]
fn out_of_range_confidences_are_clamped_not_propagated() {
    let r = multilayer(
        vec![obs(0, 0, 0, 0, 7.5), obs(0, 0, 1, 0, -3.0)],
        ModelConfig::default(),
    );
    for &c in r.correctness().unwrap() {
        assert!(c.is_finite() && (0.0..=1.0).contains(&c));
    }
}

#[test]
fn single_observation_corpus_is_handled() {
    let r = multilayer(vec![obs(0, 0, 0, 0, 1.0)], ModelConfig::default());
    assert!(r.kbt(SourceId::new(0)).is_finite());
    assert!(r
        .posteriors
        .prob(ItemId::new(0), ValueId::new(0))
        .is_finite());
    let s = TrustPipeline::new()
        .observations(vec![obs(0, 0, 0, 0, 1.0)])
        .model(Model::accu())
        .try_run()
        .expect("pipeline runs");
    assert!(s.kbt(SourceId::new(0)).is_finite());
}

#[test]
fn domain_smaller_than_observed_values_does_not_break_normalization() {
    // n = 2 false values (domain size 3) but 6 distinct values observed:
    // the posterior must still normalize over the observed values.
    let observations = (0..6u32).map(|v| obs(0, v, 0, v, 1.0)).collect();
    let r = multilayer(
        observations,
        ModelConfig {
            n_false_values: 2,
            ..ModelConfig::default()
        },
    );
    let total = r.posteriors.observed_mass(ItemId::new(0));
    assert!(
        (total - 1.0).abs() < 1e-6,
        "observed values exceed domain; total = {total}"
    );
}

#[test]
fn adversarial_unanimous_lie_is_believed_but_finite() {
    // Every source lies identically: the model cannot know better (no
    // external truth), but nothing should blow up and the agreed value
    // must win.
    let mut observations = Vec::new();
    for w in 0..6u32 {
        for e in 0..3u32 {
            observations.push(obs(e, w, 0, 9, 1.0));
        }
    }
    let r = multilayer(observations, ModelConfig::default());
    assert!(r.posteriors.prob(ItemId::new(0), ValueId::new(9)) > 0.9);
    for w in 0..6 {
        assert!(r.kbt(SourceId::new(w)) > 0.5);
    }
}

#[test]
fn extreme_iteration_counts_stay_stable() {
    let mut observations = Vec::new();
    for w in 0..4u32 {
        for d in 0..10u32 {
            observations.push(obs(0, w, d, d % 3, 1.0));
            observations.push(obs(1, w, d, d % 3, 0.6));
        }
    }
    let r = multilayer(
        observations,
        ModelConfig {
            max_iterations: 200,
            convergence_eps: 0.0, // never converge early
            ..ModelConfig::default()
        },
    );
    assert_eq!(r.iterations(), 200);
    assert_eq!(r.trace.rounds.len(), 200, "one trace round per iteration");
    for &a in r.source_trust() {
        assert!(a.is_finite() && (0.0..=1.0).contains(&a));
    }
    let params = &r.params;
    for e in 0..params.q.len() {
        assert!(
            params.q[e] < params.recall[e] + 1e-9,
            "vote monotonicity must survive 200 iterations"
        );
    }
}

#[test]
fn zero_iteration_budget_returns_defaults() {
    let cfg = ModelConfig {
        max_iterations: 0,
        ..ModelConfig::default()
    };
    let r = multilayer(vec![obs(0, 0, 0, 0, 1.0)], cfg.clone());
    assert_eq!(r.iterations(), 0);
    assert!(!r.converged());
    assert!(r.trace.rounds.is_empty());
    assert_eq!(r.source_trust()[0], cfg.default_source_accuracy);
}

#[test]
fn gold_init_with_extreme_seeds_is_clamped() {
    use kbt::QualityInit;
    let observations = (0..5u32).map(|d| obs(0, 0, d, 0, 1.0)).collect();
    let init = QualityInit::FromGold {
        source_accuracy: vec![Some(1.0)],
        extractor_precision: vec![Some(0.0)],
        extractor_recall: vec![Some(f64::NAN.max(1.0))], // sanitized upstream
    };
    let r = TrustPipeline::new()
        .observations(observations)
        .init(init)
        .try_run()
        .expect("pipeline runs");
    for &a in r.source_trust() {
        assert!(a.is_finite());
    }
    let params = &r.params;
    for e in 0..params.precision.len() {
        assert!(params.precision[e].is_finite());
        assert!(params.q[e].is_finite());
    }
}

#[test]
fn many_extractors_zero_overlap_does_not_underflow() {
    // 200 extractors each extracting one distinct triple: the literal
    // all-extractors absence sum is ≈ −200·|Abs|; sigmoids must underflow
    // to 0.0 gracefully, not NaN.
    let observations = (0..200u32).map(|e| obs(e, 0, e, 0, 1.0)).collect();
    let r = multilayer(observations, ModelConfig::default());
    for &c in r.correctness().unwrap() {
        assert!(c.is_finite());
    }
    for &t in r.truth_of_group() {
        assert!(t.is_finite());
    }
}

/// A single-layer group none of whose cells is a claim (every confidence
/// is 0) reports the truth the posteriors give its triple — a group's
/// truth and `posteriors().prob` never disagree — and stays uncovered.
#[test]
fn single_layer_group_without_a_claim_reports_its_posterior_truth() {
    let mut observations: Vec<Observation> = (0..3u32).map(|w| obs(0, w, 0, 0, 1.0)).collect();
    observations.push(obs(1, 3, 0, 0, 0.0));
    let r = TrustPipeline::new()
        .observations(observations)
        .model(Model::accu())
        .try_run()
        .expect("pipeline runs");
    for (g, &truth) in r.truth_of_group().iter().enumerate() {
        let p = r.posteriors.prob(ItemId::new(0), ValueId::new(0));
        assert_eq!(truth.to_bits(), p.to_bits(), "group {g}");
    }
    assert!(r.truth_of_group()[3] > 0.9);
    assert_eq!(r.covered_group, [true, true, true, false]);
}
