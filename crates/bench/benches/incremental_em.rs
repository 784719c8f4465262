//! Criterion benchmarks for the EM engine and incremental fusion: the
//! value E-step kernel and a full fit next to the scalar reference, full
//! cold fit vs warm-started re-fit.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use kbt_core::{
    estimate_values, reference, AlphaState, ColValueScratch, FusionModel, ModelConfig,
    MultiLayerModel, Params, QualityInit,
};
use kbt_datamodel::{ChunkedCube, ResidentChunks};
use kbt_flume::ShardedExecutor;
use kbt_pipeline::{FusionSession, Model};
use kbt_synth::paper::{generate, SyntheticConfig};

fn estep_kernel_vs_reference(c: &mut Criterion) {
    let data = generate(&SyntheticConfig {
        num_sources: 40,
        triples_per_source: 200,
        seed: 11,
        ..SyntheticConfig::default()
    });
    let cube = &data.cube;
    let cfg = ModelConfig::default();
    let params = Params::init(cube, &cfg, &QualityInit::Default);
    let votes = reference::vote_counter(cube, &params, &cfg);
    let alpha = AlphaState::uniform(cube.num_groups(), cfg.alpha);
    let correctness = reference::estimate_correctness(cube, &votes, &alpha, &cfg);
    let active = vec![true; cube.num_sources()];
    let chunked = ChunkedCube::from_cube(cube, &cfg.chunking());
    let src = ResidentChunks::new(&chunked);

    let mut group = c.benchmark_group("estep");
    group.bench_function("reference", |b| {
        b.iter(|| {
            black_box(reference::estimate_values(
                cube,
                &correctness,
                &params,
                &cfg,
                &active,
                None,
            ))
        })
    });
    group.bench_function("kernel", |b| {
        let mut exec: ShardedExecutor<ColValueScratch> = ShardedExecutor::new();
        b.iter(|| {
            black_box(estimate_values(
                &src,
                &correctness,
                &params,
                &cfg,
                &active,
                None,
                &mut exec,
            ))
        })
    });
    group.finish();
}

fn full_fit(c: &mut Criterion) {
    let data = generate(&SyntheticConfig {
        num_sources: 30,
        triples_per_source: 150,
        seed: 23,
        ..SyntheticConfig::default()
    });
    let cfg = ModelConfig::default();
    let mut group = c.benchmark_group("full_fit");
    group.bench_function("engine", |b| {
        let model = MultiLayerModel::new(cfg.clone());
        b.iter(|| black_box(model.fit(&data.cube, &QualityInit::Default)));
    });
    group.bench_function("reference", |b| {
        let init = QualityInit::Default;
        b.iter(|| black_box(reference::fit(&data.cube, &cfg, &init, None, None)));
    });
    group.finish();
}

fn cold_vs_warm_session(c: &mut Criterion) {
    let base = generate(&SyntheticConfig {
        num_sources: 30,
        triples_per_source: 150,
        seed: 31,
        ..SyntheticConfig::default()
    });
    let delta = generate(&SyntheticConfig {
        num_sources: 30,
        triples_per_source: 8, // ~5% of the base items
        seed: 32,
        ..SyntheticConfig::default()
    });
    // Rebuild the delta as raw observations with item ids offset past the
    // base cube, so it extends rather than overwrites.
    let offset = base.cube.num_items() as u32;
    let mut delta_obs = Vec::new();
    for (_, grp, cells) in delta.cube.iter_with_cells() {
        for cell in cells {
            delta_obs.push(kbt_datamodel::Observation {
                extractor: cell.extractor,
                source: grp.source,
                item: kbt_datamodel::ItemId::new(grp.item.0 + offset),
                value: grp.value,
                confidence: cell.confidence,
            });
        }
    }
    let cfg = ModelConfig {
        max_iterations: 50,
        convergence_eps: 1e-4,
        ..ModelConfig::default()
    };

    let mut group = c.benchmark_group("session");
    group.bench_function("cold_fit_merged", |b| {
        let merged = base.cube.apply_delta(&delta_obs);
        let model = MultiLayerModel::new(cfg.clone());
        b.iter(|| black_box(model.fit(&merged, &QualityInit::Default)));
    });
    group.bench_function("warm_refit_after_delta", |b| {
        let mut template = FusionSession::new(base.cube.clone(), Model::MultiLayer(cfg.clone()));
        template.run(); // converge once, outside the measurement
        template.update(&delta_obs);
        // `run()` mutates the session (it stores the merged-cube fixed
        // point), so each iteration must start from a fresh clone of the
        // post-update state — otherwise every round after the first would
        // measure an already-converged no-op re-run. The clone is a
        // memcpy-scale cost next to an EM fit.
        b.iter(|| black_box(template.clone().run()));
    });
    group.bench_function("apply_delta", |b| {
        b.iter(|| black_box(base.cube.apply_delta(&delta_obs)));
    });
    group.finish();
}

criterion_group!(
    benches,
    estep_kernel_vs_reference,
    full_fit,
    cold_vs_warm_session
);
criterion_main!(benches);
