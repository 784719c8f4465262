//! Acceptance tests for copy detection and the copy-aware fusion loop:
//!
//! 1. differential proof that detection is **identical** to the scalar
//!    oracle (`common::expand_claim_pairs`, the original serial pass) and
//!    to itself at 1, 2, and 8 threads, on a seeded random corpus and on
//!    a planted-copier corpus,
//! 2. the planted verbatim copier pair ranks first in `CopyEvidence`
//!    order across ≥32 proptest seeds,
//! 3. copy-aware fusion (`ModelConfig::copy_detection`) strictly
//!    improves truth accuracy over copy-blind fusion on the same
//!    corpus, per seed, and
//! 4. the copy-aware fit's trust and independence factors are pinned to
//!    the bits it produced before the pair-counting kernel was replaced,
//!    resident and streamed.

mod common;
#[path = "../crates/core/tests/matrix/mod.rs"]
mod matrix;

use kbt::core::{
    detect_copies_from_accuracy, CopyDetectConfig, CubeResidency, EmState, FusionModel,
    MultiLayerModel,
};
use kbt::datamodel::{
    CubeBuilder, ExtractorId, ItemId, Observation, ObservationCube, SourceId, ValueId,
};
use kbt::{FusionReport, Model, ModelConfig, QualityInit, TrustPipeline};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DOMAIN: u32 = 11;
const ITEMS: u32 = 200;
const HONEST: u32 = 5;
const HONEST_ACC: f64 = 0.6;

/// The copier id: one past the honest sources; it copies the last honest
/// source (the victim) verbatim, mistakes included.
const COPIER: u32 = HONEST;
const VICTIM: u32 = HONEST - 1;

/// A planted-copier corpus: `HONEST` independent sources of accuracy
/// `HONEST_ACC`, plus a verbatim copier of the last one. Returns the cube
/// and the planted truth per item.
fn planted_copier_corpus(seed: u64) -> (ObservationCube, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<u32> = (0..ITEMS).map(|_| rng.gen_range(0..DOMAIN)).collect();
    let mut provided: Vec<Vec<u32>> = Vec::new();
    for _ in 0..HONEST {
        provided.push(
            (0..ITEMS)
                .map(|d| {
                    if rng.gen::<f64>() < HONEST_ACC {
                        truth[d as usize]
                    } else {
                        // A wrong value, uniform over the other DOMAIN-1.
                        let mut v = rng.gen_range(0..DOMAIN - 1);
                        if v >= truth[d as usize] {
                            v += 1;
                        }
                        v
                    }
                })
                .collect(),
        );
    }
    provided.push(provided[VICTIM as usize].clone()); // the copier
    let mut b = CubeBuilder::new();
    for (w, vals) in provided.iter().enumerate() {
        for (d, &v) in vals.iter().enumerate() {
            for e in 0..2u32 {
                b.push(Observation::certain(
                    ExtractorId::new(e),
                    SourceId::new(w as u32),
                    ItemId::new(d as u32),
                    ValueId::new(v),
                ));
            }
        }
    }
    (b.build(), truth)
}

/// A seeded random corpus with no planted structure.
fn seeded_random_corpus(seed: u64) -> ObservationCube {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CubeBuilder::new();
    for _ in 0..1_500 {
        b.push(Observation {
            extractor: ExtractorId::new(rng.gen_range(0..4)),
            source: SourceId::new(rng.gen_range(0..20)),
            item: ItemId::new(rng.gen_range(0..60)),
            value: ValueId::new(rng.gen_range(0..8)),
            confidence: rng.gen::<f64>(),
        });
    }
    b.build()
}

fn assert_detection_identical_at_1_2_8_threads(
    cube: &ObservationCube,
    acc: &[f64],
    min_overlap: usize,
    ctx: &str,
) {
    let cfg = CopyDetectConfig {
        min_overlap,
        ..CopyDetectConfig::default()
    };
    let oracle = common::expand_claim_pairs(cube, min_overlap);
    let serial = kbt::flume::with_threads(Some(1), || detect_copies_from_accuracy(cube, acc, &cfg));
    assert_eq!(
        oracle,
        common::evidence_counts(&serial),
        "{ctx}: detector counts != scalar oracle"
    );
    for threads in [2usize, 8] {
        let parallel = kbt::flume::with_threads(Some(threads), || {
            detect_copies_from_accuracy(cube, acc, &cfg)
        });
        assert_eq!(serial, parallel, "{ctx}: {threads} threads != 1 thread");
    }
}

/// Differential test: the detector's pair counts are the scalar oracle's,
/// and its evidence (counts, score bits, order) is the same at 1, 2, and
/// 8 threads, on both corpus families and under several overlap
/// thresholds and accuracy vectors.
#[test]
fn sharded_detection_is_bit_identical_to_serial_reference() {
    for seed in [1u64, 42, 20150831] {
        let (cube, _) = planted_copier_corpus(seed);
        // EM-estimated accuracies (the production feed)…
        let report = MultiLayerModel::new(ModelConfig::default()).fit(&cube, &QualityInit::Default);
        assert_detection_identical_at_1_2_8_threads(
            &cube,
            report.source_trust(),
            CopyDetectConfig::default().min_overlap,
            &format!("planted copier, seed {seed}"),
        );

        let cube = seeded_random_corpus(seed);
        // …and an arbitrary synthetic trust vector.
        let acc: Vec<f64> = (0..cube.num_sources())
            .map(|w| 0.05 + 0.9 * (w as f64 / cube.num_sources() as f64))
            .collect();
        for min_overlap in [1usize, 5, 10, 50] {
            assert_detection_identical_at_1_2_8_threads(
                &cube,
                &acc,
                min_overlap,
                &format!("random corpus, seed {seed}, min_overlap {min_overlap}"),
            );
        }
    }
}

/// Fraction of items whose MAP posterior value equals the planted truth.
fn truth_accuracy(report: &FusionReport, truth: &[u32]) -> f64 {
    let correct = truth
        .iter()
        .enumerate()
        .filter(|&(d, &tv)| {
            report
                .posteriors
                .map_value(ItemId::new(d as u32))
                .is_some_and(|(v, _)| v == ValueId::new(tv))
        })
        .count();
    correct as f64 / truth.len() as f64
}

fn fusion_cfg() -> ModelConfig {
    ModelConfig {
        max_iterations: 20,
        convergence_eps: 1e-5,
        ..ModelConfig::default()
    }
}

/// The headline acceptance test: copy-aware fusion strictly beats
/// copy-blind fusion on the planted-copier scenario, the copier pair
/// ranks first in the attached evidence, and only the copier is
/// discounted.
#[test]
fn copy_aware_fusion_beats_copy_blind_on_planted_copier() {
    let (cube, truth) = planted_copier_corpus(20150831);

    let blind = MultiLayerModel::new(fusion_cfg()).fit(&cube, &QualityInit::Default);
    let aware_cfg = ModelConfig {
        copy_detection: Some(CopyDetectConfig {
            discount: true,
            ..CopyDetectConfig::default()
        }),
        ..fusion_cfg()
    };
    let aware = MultiLayerModel::new(aware_cfg).fit(&cube, &QualityInit::Default);

    let acc_blind = truth_accuracy(&blind, &truth);
    let acc_aware = truth_accuracy(&aware, &truth);
    assert!(
        acc_aware > acc_blind,
        "copy-aware fusion must strictly beat copy-blind: {acc_aware} vs {acc_blind}"
    );

    // The attached evidence ranks the planted pair first.
    let ev = aware.copy_evidence.as_ref().expect("evidence attached");
    assert_eq!(
        (ev[0].a, ev[0].b),
        (SourceId::new(VICTIM), SourceId::new(COPIER)),
        "planted pair must rank first: {:?}",
        ev[0]
    );

    // Only the copier loses independence; the honest sources keep theirs.
    let indep = aware
        .source_independence
        .as_ref()
        .expect("independence factors recorded");
    assert!(
        indep[COPIER as usize] < 0.5,
        "copier must be discounted: {indep:?}"
    );
    for w in 0..HONEST as usize {
        assert!(
            indep[w] > 0.9,
            "honest source {w} must stay independent: {indep:?}"
        );
    }

    // The copier's doubled votes no longer launder the victim's mistakes,
    // so the victim's trust drops relative to the copy-blind estimate.
    assert!(
        aware.kbt(SourceId::new(VICTIM)) < blind.kbt(SourceId::new(VICTIM)) + 1e-12,
        "victim trust must not rise under discounting"
    );
}

/// The same guarantee through the public pipeline switch
/// (`CopyDetectConfig::discount`), plus backward compatibility of the
/// post-hoc diagnostic path.
#[test]
fn pipeline_discount_switch_feeds_evidence_back_into_fusion() {
    let (cube, truth) = planted_copier_corpus(7);

    let post_hoc = TrustPipeline::new()
        .cube(cube.clone())
        .model(Model::MultiLayer(fusion_cfg()))
        .copy_detection(CopyDetectConfig::default())
        .try_run()
        .expect("pipeline runs");
    let aware = TrustPipeline::new()
        .cube(cube.clone())
        .model(Model::MultiLayer(fusion_cfg()))
        .copy_detection(CopyDetectConfig {
            discount: true,
            ..CopyDetectConfig::default()
        })
        .try_run()
        .expect("pipeline runs");

    // Post-hoc: trust identical to a copy-blind run; evidence attached.
    let blind = MultiLayerModel::new(fusion_cfg()).fit(&cube, &QualityInit::Default);
    assert_eq!(post_hoc.source_trust(), blind.source_trust());
    assert!(post_hoc.copy_evidence.is_some());

    // Discounting: strictly better truth accuracy, evidence attached.
    assert!(truth_accuracy(&aware, &truth) > truth_accuracy(&post_hoc, &truth));
    let ev = aware.copy_evidence.as_ref().unwrap();
    assert_eq!(
        (ev[0].a, ev[0].b),
        (SourceId::new(VICTIM), SourceId::new(COPIER))
    );
}

/// Copy-aware fusion itself (not just detection) is bit-for-bit
/// identical at 1, 2, and 8 threads, and its final refit is the scalar
/// reference's fit under the independence factors it reports — which
/// pins the CopyDiscount multiply of the value kernel to the oracle's,
/// resident and at every thread count (the equivalence matrix).
#[test]
fn copy_aware_fusion_is_bit_identical_across_engines() {
    let (cube, _) = planted_copier_corpus(3);
    let mk = |threads| ModelConfig {
        threads: Some(threads),
        copy_detection: Some(CopyDetectConfig {
            discount: true,
            ..CopyDetectConfig::default()
        }),
        ..fusion_cfg()
    };
    let serial = MultiLayerModel::new(mk(1)).fit(&cube, &QualityInit::Default);
    let indep = serial
        .source_independence
        .as_deref()
        .expect("independence factors recorded")
        .to_vec();
    assert!(
        indep.iter().any(|&s| s < 1.0),
        "the discount loop must engage on the planted corpus"
    );
    for threads in [2usize, 8] {
        let sharded = MultiLayerModel::new(mk(threads)).fit(&cube, &QualityInit::Default);
        assert_eq!(serial.source_trust(), sharded.source_trust(), "{threads}");
        assert_eq!(
            serial.truth_of_group(),
            sharded.truth_of_group(),
            "{threads}"
        );
        assert_eq!(serial.correctness(), sharded.correctness(), "{threads}");
        assert_eq!(serial.copy_evidence, sharded.copy_evidence, "{threads}");
        assert_eq!(
            Some(&indep[..]),
            sharded.source_independence.as_deref(),
            "{threads}"
        );
        assert_eq!(serial.iterations(), sharded.iterations());
    }

    let start = EmState::start(&cube, &fusion_cfg(), &QualityInit::Default).discounted(&indep);
    let oracle = kbt::core::reference::fit(&cube, &fusion_cfg(), start.clone());
    assert_eq!(serial.source_trust(), oracle.params.source_accuracy);
    assert_eq!(serial.truth_of_group(), oracle.truth_of_group);
    assert_eq!(serial.correctness(), oracle.correctness());
    matrix::assert_engine_matches_reference_from(&cube, &fusion_cfg(), &start, "planted copier");
}

/// The copy-aware fit reproduces, bit for bit, the trust vector and the
/// independence factors it produced when the detector still counted
/// pairs with hash maps: the new kernel feeds the discount loop exactly
/// the same evidence. (The trust bits were re-recorded once, when the
/// M-step and log-likelihood sums became correctly rounded exact sums:
/// each moved by at most 10 ulps, 2·10⁻¹⁵ relative.) Streamed at caps 1
/// and 4 too: every refit reads the model's own chunk store while the
/// co-claim census reads the row cube.
#[test]
fn copy_aware_fit_reproduces_its_pre_kernel_bits() {
    const FLOOR: u64 = 0x3fa999999999999a; // min_independence = 0.05
    const ONE: u64 = 0x3ff0000000000000;
    let pinned: [(u64, [u64; 6]); 2] = [
        (
            20150831,
            [
                0x3fe39bb4cee8d0bd,
                0x3fe32859a84645cc,
                0x3fe108ba4259c34a,
                0x3fe362db4bce4db9,
                0x3fe40bfa312ce8d9,
                0x3fe40bf907d746dc,
            ],
        ),
        (
            7,
            [
                0x3fe0713b269e55b1,
                0x3fe28de2c66c3cb0,
                0x3fe3a485c4fcc56b,
                0x3fe2beb073fa465a,
                0x3fe4ee8eb7d020f8,
                0x3fe4ee8d6ceb1d84,
            ],
        ),
    ];
    let path = matrix::fresh_path("aware");
    let streamed = |max_resident_chunks| CubeResidency::Streamed {
        path: path.clone(),
        max_resident_chunks,
    };
    for residency in [CubeResidency::Resident, streamed(1), streamed(4)] {
        for (seed, trust_bits) in pinned {
            let (cube, _) = planted_copier_corpus(seed);
            let aware_cfg = ModelConfig {
                copy_detection: Some(CopyDetectConfig {
                    discount: true,
                    ..CopyDetectConfig::default()
                }),
                residency: residency.clone(),
                ..fusion_cfg()
            };
            let fit = MultiLayerModel::new(aware_cfg).run_traced(&cube, &QualityInit::Default);
            let aware = fit.expect("copy-aware fit");
            let what = format!("seed {seed}, {residency:?}");
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            let trust = bits(&aware.params.source_accuracy);
            assert_eq!(trust, trust_bits, "trust bits, {what}");
            let indep = bits(aware.source_independence.as_deref().expect("I(w) recorded"));
            let want = [ONE, ONE, ONE, ONE, ONE, FLOOR];
            assert_eq!(indep, want, "independence bits, {what}");
            assert_eq!(aware.iterations(), 14, "EM rounds, {what}");
        }
    }
    std::fs::remove_file(&path).expect("the streamed fits wrote their store");
}

/// Warm session restarts re-use prior copy evidence: after a copy-aware
/// cold run, the next warm run starts from the recorded independence
/// factors, so its very first EM fit is already copy-aware.
#[test]
fn session_warm_restart_reuses_prior_copy_evidence() {
    use kbt::FusionSession;

    let (cube, truth) = planted_copier_corpus(11);
    let aware_cfg = ModelConfig {
        copy_detection: Some(CopyDetectConfig {
            discount: true,
            ..CopyDetectConfig::default()
        }),
        ..fusion_cfg()
    };
    let mut session = FusionSession::new(cube.clone(), Model::MultiLayer(aware_cfg));
    assert!(session.warm().is_none(), "no evidence before a run");
    let cold = session.run();
    let independence = |s: &FusionSession| s.warm().and_then(|w| w.independence.clone());
    let indep = independence(&session).expect("copy-aware run records I(w)");
    assert!(
        indep[COPIER as usize] < 0.5,
        "cold run must discount the copier: {indep:?}"
    );

    // A small honest delta, then a warm re-run: the copier stays
    // discounted and truth accuracy stays at copy-aware levels.
    let delta: Vec<Observation> = (0..10u32)
        .map(|d| {
            Observation::certain(
                ExtractorId::new(0),
                SourceId::new(0),
                ItemId::new(ITEMS + d),
                ValueId::new(0),
            )
        })
        .collect();
    let warm = session.update(&delta).run();
    assert!(warm.converged());
    let indep = independence(&session).unwrap();
    assert!(
        indep[COPIER as usize] < 0.5,
        "warm run must keep the copier discounted: {indep:?}"
    );
    assert!(
        truth_accuracy(&warm, &truth) >= truth_accuracy(&cold, &truth) - 1e-9,
        "warm copy-aware accuracy must not regress"
    );
}

proptest! {
    /// Across ≥32 seeds (the harness runs 64 cases by default): the
    /// planted verbatim copier pair always ranks first in evidence
    /// order, and copy-aware fusion strictly improves truth accuracy
    /// over copy-blind fusion on that corpus.
    #[test]
    fn planted_copier_always_ranks_first_and_discounting_always_helps(seed in 0u64..1_000_000) {
        let (cube, truth) = planted_copier_corpus(seed);

        let blind = MultiLayerModel::new(fusion_cfg()).fit(&cube, &QualityInit::Default);
        let evidence = detect_copies_from_accuracy(
            &cube,
            blind.source_trust(),
            &CopyDetectConfig::default(),
        );
        prop_assert!(!evidence.is_empty());
        prop_assert!(
            (evidence[0].a, evidence[0].b) == (SourceId::new(VICTIM), SourceId::new(COPIER)),
            "seed {}: copier pair must rank first, got {:?}", seed, evidence[0]
        );

        let aware_cfg = ModelConfig {
            copy_detection: Some(CopyDetectConfig {
            discount: true,
            ..CopyDetectConfig::default()
        }),
            ..fusion_cfg()
        };
        let aware = MultiLayerModel::new(aware_cfg).fit(&cube, &QualityInit::Default);
        let (acc_aware, acc_blind) = (truth_accuracy(&aware, &truth), truth_accuracy(&blind, &truth));
        prop_assert!(
            acc_aware > acc_blind,
            "seed {}: copy-aware {} must strictly beat copy-blind {}",
            seed, acc_aware, acc_blind
        );
    }
}
