//! The convergence record of Algorithm 1 (§3.4) on the 200k-triple scale
//! corpus: how many rounds a fit needs to reach Δ < 10⁻⁵ with the
//! per-triple α prior (§3.3.4) re-estimated and without it, how fast Δ
//! shrinks round to round, how far the default 5-round fit stops from a
//! 200-round one, and how far a warm-started session drifts from a cold
//! fit on the same claims.
//!
//! It asserts nothing: it is the record a convergence fix is judged by.
//!
//! `cargo run --release -p kbt-bench --bin convergence [seed ...]`
//! (default seeds 42, 7 and 1001).

use kbt_core::{FusionModel, FusionReport, ModelConfig, MultiLayerModel, QualityInit};
use kbt_datamodel::{Observation, ObservationCube};
use kbt_pipeline::{FusionSession, Model};
use kbt_synth::scale::{generate, ScaleConfig};

const TRIPLES: usize = 200_000;
const SOURCES: usize = 2_000;
const EXTRACTORS: usize = 16;
/// The round budget of the fits run to ε.
const CAP: usize = 500;
const LONG_RUN: usize = 200;
const DELTAS: usize = 6;
const DELTA_CLAIMS: usize = 1_000;

fn main() {
    let seeds: Vec<u64> = std::env::args()
        .skip(1)
        .filter_map(|s| s.parse().ok())
        .collect();
    let seeds = if seeds.is_empty() {
        vec![42, 7, 1001]
    } else {
        seeds
    };
    println!(
        "convergence — Algorithm 1 on kbt_synth::scale ({TRIPLES} triples, {SOURCES} sources, \
         {EXTRACTORS} extractors), ModelConfig::default() unless stated"
    );
    for seed in seeds {
        let cube = generate(&ScaleConfig {
            triples: TRIPLES,
            num_sources: SOURCES,
            num_extractors: EXTRACTORS,
            seed,
            ..ScaleConfig::default()
        });
        println!("\nseed {seed}: {} groups", cube.num_groups());
        let to_eps = |alpha_update_from| {
            let cfg = ModelConfig {
                max_iterations: CAP,
                alpha_update_from,
                ..ModelConfig::default()
            };
            fit(&cube, cfg)
        };
        for (name, report) in [("α on ", to_eps(Some(3))), ("α off", to_eps(None))] {
            let rounds = match report.converged() {
                true => report.iterations().to_string(),
                false => format!("> {CAP}"),
            };
            println!("  {name}: rounds to Δ < 1e-5: {rounds}");
            let deltas: Vec<f64> = report.trace.rounds.iter().map(|r| r.delta).collect();
            let ratios: Vec<String> = deltas
                .windows(2)
                .map(|d| format!("{:.3}", d[1] / d[0]))
                .collect();
            println!("    Δt/Δt-1: {}", ratios.join(" "));
        }

        let short = fit(&cube, ModelConfig::default());
        let long = fit(
            &cube,
            ModelConfig {
                max_iterations: LONG_RUN,
                ..ModelConfig::default()
            },
        );
        let (max, mean) = distance(&short, &long);
        println!(
            "  5-round fit (Δ {:.2e}) vs {LONG_RUN}-round budget ({} rounds): trust distance \
             max {max:.4}, mean {mean:.5}",
            short.trace.final_delta().unwrap_or(f64::NAN),
            long.iterations(),
        );

        let (gap, warm_rounds) = history_gap(&cube);
        println!(
            "  history gap after {DELTAS} deltas of {DELTA_CLAIMS} claims: trust distance max \
             {:.4}, mean {:.5} (warm refit rounds {warm_rounds:?})",
            gap.0, gap.1
        );
    }
}

fn fit(cube: &ObservationCube, cfg: ModelConfig) -> FusionReport {
    MultiLayerModel::new(cfg).fit(cube, &QualityInit::Default)
}

/// Max and mean absolute difference of two fits' source trust.
fn distance(a: &FusionReport, b: &FusionReport) -> (f64, f64) {
    let d: Vec<f64> = (a.source_trust().iter().zip(b.source_trust()))
        .map(|(x, y)| (x - y).abs())
        .collect();
    let max = d.iter().copied().fold(0.0, f64::max);
    (max, d.iter().sum::<f64>() / d.len().max(1) as f64)
}

/// A default-config session fitted on all claims but `DELTAS` slices of
/// `DELTA_CLAIMS` (every claim whose group index is `j` modulo
/// `TRIPLES / DELTA_CLAIMS` for slice `j`), then updated and refitted
/// warm slice by slice, against a cold fit on the cube it ends with.
/// Returns the trust distance and each warm refit's rounds.
fn history_gap(cube: &ObservationCube) -> ((f64, f64), Vec<usize>) {
    let stride = TRIPLES / DELTA_CLAIMS;
    let mut base = Vec::new();
    let mut deltas = vec![Vec::new(); DELTAS];
    for (g, grp, cells) in cube.iter_with_cells() {
        let slice = deltas.get_mut(g % stride).unwrap_or(&mut base);
        slice.extend(cells.map(|c| Observation {
            extractor: c.extractor,
            source: grp.source,
            item: grp.item,
            value: grp.value,
            confidence: c.confidence,
        }));
    }
    let mut session = FusionSession::from_observations(base, Model::multi_layer());
    session.run();
    let refits: Vec<FusionReport> = (deltas.iter())
        .map(|delta| session.update(delta).run())
        .collect();
    let last = refits.last().expect("one delta at least");
    let cold = fit(session.cube(), ModelConfig::default());
    let rounds = refits.iter().map(FusionReport::iterations).collect();
    (distance(last, &cold), rounds)
}
