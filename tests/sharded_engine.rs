//! Acceptance tests for the sharded EM execution engine:
//!
//! 1. fixed-seed proof that the engine — resident and streamed, both
//!    models — is **bit-for-bit identical** to the flat scalar reference
//!    (`kbt::core::reference`) at 1, 2, and 8 threads, and
//! 2. on this small, converging corpus, warm-started incremental fusion
//!    on a ~5% delta converges in **strictly fewer** EM iterations than a
//!    cold rerun on the merged cube. That is this corpus's property, not a
//!    promise: on `kbt_synth::scale`'s 200k-triple corpus a
//!    default-config warm refit runs all 5 rounds.

use kbt::core::{
    reference, CubeResidency, EmState, ModelConfig, Params, SingleLayerModel, ValueModel,
};
use kbt::datamodel::{
    ChunkingConfig, ExtractorId, FileChunkStore, ItemId, Observation, SourceId, ValueId,
};
use kbt::synth::paper::{generate, SyntheticConfig};
use kbt::{FusionSession, Model, QualityInit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../crates/core/tests/matrix/mod.rs"]
mod matrix;

/// Sharded multi-layer inference is bit-for-bit the flat reference, at 1,
/// 2, and 8 threads (and streamed at 1, 2, 4 × three `max_resident_chunks`), on a
/// fixed-seed synthetic corpus re-cut at 512 cells a chunk — cold, and
/// warm-started with a copy discount.
#[test]
fn multilayer_sharded_matches_flat_bitwise_at_1_2_8_threads() {
    let data = generate(&SyntheticConfig {
        num_sources: 20,
        triples_per_source: 60,
        seed: 20240915,
        ..SyntheticConfig::default()
    });
    let cube = data.cube.recut(&ChunkingConfig { target_cells: 512 });
    let cfg = ModelConfig {
        max_iterations: 8,
        ..ModelConfig::default()
    };
    let cold = QualityInit::Default;
    matrix::assert_engine_matches_reference(&cube, &cfg, &cold, "multi");
    let flat = reference::fit(&cube, &cfg, EmState::start(&cube, &cfg, &cold));
    assert!(
        flat.iterations() >= 2,
        "corpus must exercise several rounds"
    );
    let scales: Vec<f64> = (0..cube.num_sources())
        .map(|w| if w % 4 == 0 { 0.4 } else { 1.0 })
        .collect();
    let warm = EmState::resume(&cube, &cfg, flat.params, flat.truth_of_group);
    let warm = warm.discounted(&scales);
    matrix::assert_engine_matches_reference_from(&cube, &cfg, &warm, "multi, warm + discount");
}

/// Same bit-for-bit guarantee for the single-layer baseline, resident and
/// streamed, on a corpus whose pair cube spans more than one frame: cold,
/// gold-seeded, resumed, with zero iterations, and — for POPACCU's
/// popularity rule, which counts inactive pairs' claims too — with a thin
/// extractor's pairs held inactive by `min_source_support`.
#[test]
fn singlelayer_sharded_matches_flat_bitwise_at_1_2_8_threads() {
    let data = generate(&SyntheticConfig {
        num_sources: 80,
        triples_per_source: 50,
        seed: 777,
        ..SyntheticConfig::default()
    });
    // One more extractor, with one or two claims per page.
    let thin = ExtractorId::new(data.cube.num_extractors() as u32);
    let extra: Vec<Observation> = (0..data.cube.num_sources() as u32)
        .flat_map(|w| (0..1 + w % 2).map(move |d| (w, d)))
        .map(|(w, d)| {
            Observation::certain(thin, SourceId::new(w), ItemId::new(d), ValueId::new(w % 3))
        })
        .collect();
    let cube = data.cube.apply_delta(&extra);
    let ns = cube.num_sources();
    let gold = QualityInit::FromGold {
        source_accuracy: (0..ns)
            .map(|w| (w % 3 != 0).then_some(0.5 + 0.03 * w as f64))
            .collect(),
        extractor_precision: vec![],
        extractor_recall: vec![],
    };
    let base = ModelConfig::single_layer_default();
    // The pair cube (one cell per claim) passes 4 Ki cells, so the
    // default partition cuts it into more than one frame: a streamed fit
    // writes them all to its store.
    let path = matrix::fresh_path("pairs");
    let streamed = ModelConfig {
        residency: CubeResidency::Streamed {
            path: path.clone(),
            max_resident_chunks: 1,
        },
        ..base.clone()
    };
    let fit = SingleLayerModel::new(streamed).run_traced(&cube, &QualityInit::Default);
    fit.expect("a streamed single-layer fit");
    let frames = FileChunkStore::open(&path)
        .expect("the pair store")
        .num_chunks();
    std::fs::remove_file(&path).expect("remove the pair store");
    assert!(frames > 1, "the pair cube must span frames, not {frames}");
    // A warm restart's parameters, missing the last two pages.
    let last = reference::fit_single_layer(&cube, &base, &QualityInit::Default);
    let resume = QualityInit::Resume(Params {
        source_accuracy: last.source_trust()[..ns - 2].to_vec(),
        precision: vec![],
        recall: vec![],
        q: vec![],
    });
    for value_model in [ValueModel::Accu, ValueModel::PopAccu] {
        let cfg = ModelConfig {
            value_model,
            ..base.clone()
        };
        let cases = [
            ("cold", cfg.clone(), &QualityInit::Default),
            ("gold", cfg.clone(), &gold),
            ("resume", cfg.clone(), &resume),
            (
                "zero iterations",
                ModelConfig {
                    max_iterations: 0,
                    ..cfg.clone()
                },
                &QualityInit::Default,
            ),
            (
                "support 3",
                ModelConfig {
                    min_source_support: 3,
                    ..cfg.clone()
                },
                &QualityInit::Default,
            ),
        ];
        let thin_fit = reference::fit_single_layer(&cube, &cases[4].1, cases[4].2);
        let thin_pairs = thin_fit.pair_sources.expect("single-layer pairs");
        assert!(
            thin_pairs.active_pair.iter().any(|a| !a),
            "no inactive pair"
        );
        for (what, cfg, init) in cases {
            let tag = format!("{value_model:?} {what}");
            matrix::assert_single_layer_matches_reference(&cube, &cfg, init, &tag);
        }
    }
}

/// A seeded stream of observations with mixed source accuracies and a
/// noisy extractor — EM needs many rounds to converge from cold.
fn noisy_stream(rng: &mut StdRng, items: std::ops::Range<u32>) -> Vec<Observation> {
    let mut out = Vec::new();
    let num_sources = 40u32;
    for w in 0..num_sources {
        let acc = 0.35 + 0.6 * (w as f64 / num_sources as f64);
        for d in items.clone() {
            let v = if rng.gen::<f64>() < acc {
                d % 3
            } else {
                3 + rng.gen_range(0u32..4)
            };
            for e in 0..5u32 {
                if rng.gen::<f64>() < 0.7 {
                    let ev = if rng.gen::<f64>() < 0.15 {
                        3 + rng.gen_range(0u32..4)
                    } else {
                        v
                    };
                    out.push(Observation {
                        extractor: ExtractorId::new(e),
                        source: SourceId::new(w),
                        item: ItemId::new(d),
                        value: ValueId::new(ev),
                        confidence: 0.6 + 0.4 * rng.gen::<f64>(),
                    });
                }
            }
        }
    }
    out
}

/// Warm-started incremental fusion on a ~5% delta converges in strictly
/// fewer EM iterations than a cold rerun on the merged cube (fixed seed).
#[test]
fn warm_start_beats_cold_rerun_on_merged_cube() {
    let mut rng = StdRng::seed_from_u64(1234);
    let base = noisy_stream(&mut rng, 0..200);
    let delta = noisy_stream(&mut rng, 200..210); // 5% new items
    let cfg = ModelConfig {
        max_iterations: 50,
        convergence_eps: 1e-4,
        ..ModelConfig::default()
    };

    let mut session =
        FusionSession::from_observations(base.clone(), Model::MultiLayer(cfg.clone()));
    let cold_base = session.run();
    assert!(cold_base.converged());
    let warm = session.update(&delta).run();
    assert!(warm.converged());

    let all: Vec<Observation> = base.into_iter().chain(delta).collect();
    let cold_merged = FusionSession::from_observations(all, Model::MultiLayer(cfg)).run();
    assert!(cold_merged.converged());

    assert!(
        warm.iterations() < cold_merged.iterations(),
        "warm-started run took {} iterations, cold rerun took {}",
        warm.iterations(),
        cold_merged.iterations()
    );
    // The warm run must land on the same answers: same trust ranking of
    // a clearly-bad and a clearly-good source, and close accuracies.
    let (lo, hi) = (SourceId::new(1), SourceId::new(38));
    assert!(warm.kbt(hi) > warm.kbt(lo));
    assert!(cold_merged.kbt(hi) > cold_merged.kbt(lo));
    for w in 0..cold_merged.source_trust().len() {
        let diff = (warm.source_trust()[w] - cold_merged.source_trust()[w]).abs();
        assert!(diff < 0.05, "W{w}: warm vs cold accuracy differs by {diff}");
    }
}

/// Warm-starting repeatedly over a stream of deltas stays cheap: every
/// incremental round converges in no more iterations than the initial
/// cold run.
#[test]
fn delta_stream_converges_in_few_rounds_each() {
    let mut rng = StdRng::seed_from_u64(99);
    let base = noisy_stream(&mut rng, 0..120);
    let cfg = ModelConfig {
        max_iterations: 50,
        convergence_eps: 1e-4,
        ..ModelConfig::default()
    };
    let mut session = FusionSession::from_observations(base, Model::MultiLayer(cfg));
    let cold_iters = session.run().iterations();
    for step in 0..4u32 {
        let delta = noisy_stream(&mut rng, 120 + step * 5..125 + step * 5);
        let warm = session.update(&delta).run();
        assert!(warm.converged(), "step {step}");
        assert!(
            warm.iterations() <= cold_iters,
            "step {step}: warm {} vs cold {}",
            warm.iterations(),
            cold_iters
        );
    }
    assert_eq!(session.deltas_applied(), 4);
}
