//! Criterion benchmarks for the inference pipeline (companions to the
//! Figure 3 / Table 5 experiments): full EM runs plus the individual
//! per-iteration phases of Algorithm 1.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use kbt_core::{
    estimate_correctness, estimate_values, reference, update_extractor_quality,
    update_source_accuracy, AlphaState, FusionModel, ModelConfig, MultiLayerModel, Params,
    QualityInit, SingleLayerModel,
};
use kbt_datamodel::{ChunkedCube, ResidentChunks};
use kbt_flume::ShardedExecutor;
use kbt_synth::paper::{generate, SyntheticConfig};

fn full_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_model");
    for extractors in [2usize, 5, 10] {
        let data = generate(&SyntheticConfig {
            num_extractors: extractors,
            seed: 7,
            ..SyntheticConfig::default()
        });
        group.bench_with_input(
            BenchmarkId::new("multilayer", extractors),
            &data,
            |b, data| {
                let model = MultiLayerModel::new(ModelConfig::default());
                b.iter(|| black_box(model.fit(&data.cube, &QualityInit::Default)));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("singlelayer", extractors),
            &data,
            |b, data| {
                let model = SingleLayerModel::new(ModelConfig::single_layer_default());
                b.iter(|| black_box(model.fit(&data.cube, &QualityInit::Default)));
            },
        );
    }
    group.finish();
}

fn phases(c: &mut Criterion) {
    let data = generate(&SyntheticConfig {
        triples_per_source: 500,
        seed: 13,
        ..SyntheticConfig::default()
    });
    let cube = &data.cube;
    let cfg = ModelConfig::default();
    let params = Params::init(cube, &cfg, &QualityInit::Default);
    let votes = reference::vote_counter(cube, &params, &cfg);
    let alpha = AlphaState::uniform(cube.num_groups(), cfg.alpha);
    let active = vec![true; cube.num_sources()];
    let chunked = ChunkedCube::from_cube(cube, &cfg.chunking());
    let src = ResidentChunks::new(&chunked);
    let mut correctness = vec![0.0; cube.num_groups()];
    let mut group_exec = ShardedExecutor::new();
    let mut correct = |out: &mut [f64]| {
        estimate_correctness(&src, &votes, &alpha, &cfg, &mut group_exec, out)
            .expect("resident views")
    };
    correct(&mut correctness);
    let mut value_exec = ShardedExecutor::new();
    let mut values = || {
        estimate_values(
            &src,
            &correctness,
            &params,
            &cfg,
            &active,
            None,
            &mut value_exec,
        )
        .expect("resident views")
    };

    let mut group = c.benchmark_group("phase");
    group.bench_function("extraction_correctness", |b| {
        let mut out = vec![0.0; cube.num_groups()];
        b.iter(|| {
            correct(&mut out);
            black_box(out[0])
        })
    });
    group.bench_function("value_inference", |b| b.iter(|| black_box(values())));
    group.bench_function("source_accuracy_update", |b| {
        let out = values();
        let mut exec = ShardedExecutor::new();
        let mut updates = Vec::new();
        b.iter(|| {
            let mut p = params.clone();
            let mut act = active.clone();
            update_source_accuracy(
                &chunked.source_offsets,
                &correctness,
                &out.truth_given_provided,
                &cfg,
                &mut p,
                &mut act,
                &mut exec,
                &mut updates,
            );
            black_box(p)
        })
    });
    group.bench_function("extractor_quality_update", |b| {
        let mut fold = ShardedExecutor::with_shards(1);
        b.iter(|| {
            let mut p = params.clone();
            update_extractor_quality(&src, &correctness, &cfg, &mut p, &mut fold)
                .expect("resident views");
            black_box(p)
        })
    });
    group.finish();
}

criterion_group!(benches, full_models, phases);
criterion_main!(benches);
