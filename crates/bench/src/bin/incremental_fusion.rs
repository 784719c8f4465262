//! The incremental-fusion scenario: cold vs warm-started convergence and
//! value E-step kernel throughput.
//!
//! ```text
//! cargo run --release -p kbt-bench --bin incremental_fusion [-- --smoke]
//! ```
//!
//! Fixed-seed and deterministic; `--smoke` shrinks the corpus so CI can
//! run it in seconds. Reports:
//!
//! 1. cold run on the base cube, warm-started runs over a stream of ~5%
//!    deltas, and a cold rerun on the final merged cube (EM iterations +
//!    wall time each),
//! 2. value E-step kernel throughput at 1 and N threads,
//! 3. per-shard load balance of the final cube
//!    (`ObservationCube::shard_stats`).

use std::time::Instant;

use kbt_core::{
    estimate_values, reference, AlphaState, ColValueScratch, FusionReport, ModelConfig, Params,
    QualityInit,
};
use kbt_datamodel::{
    ChunkedCube, ExtractorId, ItemId, Observation, ObservationCube, ResidentChunks, SourceId,
    ValueId,
};
use kbt_flume::ShardedExecutor;
use kbt_pipeline::{FusionSession, Model};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Scale {
    sources: u32,
    extractors: u32,
    base_items: u32,
    delta_items: u32,
    delta_rounds: u32,
    estep_reps: u32,
}

impl Scale {
    fn full() -> Self {
        Self {
            sources: 120,
            extractors: 8,
            base_items: 1_500,
            delta_items: 75,
            delta_rounds: 4,
            estep_reps: 20,
        }
    }

    fn smoke() -> Self {
        Self {
            sources: 30,
            extractors: 4,
            base_items: 150,
            delta_items: 8,
            delta_rounds: 2,
            estep_reps: 3,
        }
    }
}

/// Seeded observation stream with mixed source accuracy and extractor
/// noise (same family the `sharded_engine` acceptance test uses).
fn stream(rng: &mut StdRng, scale: &Scale, items: std::ops::Range<u32>) -> Vec<Observation> {
    let mut out = Vec::new();
    for w in 0..scale.sources {
        let acc = 0.35 + 0.6 * (w as f64 / scale.sources as f64);
        for d in items.clone() {
            let v = if rng.gen::<f64>() < acc {
                d % 3
            } else {
                3 + rng.gen_range(0u32..4)
            };
            for e in 0..scale.extractors {
                if rng.gen::<f64>() < 0.6 {
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

fn report_line(label: &str, r: &FusionReport, wall_ms: f64) {
    println!(
        "  {label:<26} {:>3} iters  converged={:<5}  {:>9.1} ms",
        r.iterations(),
        r.converged(),
        wall_ms
    );
}

/// Value E-step kernel ms/round at `threads` workers.
fn estep_throughput(cube: &ObservationCube, cfg: &ModelConfig, threads: usize, reps: u32) -> f64 {
    let params = Params::init(cube, cfg, &QualityInit::Default);
    let votes = reference::vote_counter(cube, &params, cfg);
    let alpha = AlphaState::uniform(cube.num_groups(), cfg.alpha);
    let correctness = reference::estimate_correctness(cube, &votes, &alpha, cfg);
    let active = vec![true; cube.num_sources()];
    let chunked = ChunkedCube::from_cube(cube, &cfg.chunking());
    let src = ResidentChunks::new(&chunked);

    kbt_flume::with_threads(Some(threads), || {
        let mut exec: ShardedExecutor<ColValueScratch> = ShardedExecutor::new();
        let mut estep = || {
            estimate_values(&src, &correctness, &params, cfg, &active, None, &mut exec)
                .expect("resident views")
        };
        let _ = estep(); // warm the arenas, then time
        let t0 = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(estep());
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
        println!("  {threads:>2} threads: {ms:>8.2} ms/round");
        ms
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let mut rng = StdRng::seed_from_u64(20150831); // fixed seed, always

    let cfg = ModelConfig {
        max_iterations: 50,
        convergence_eps: 1e-4,
        ..ModelConfig::default()
    };

    let base = stream(&mut rng, &scale, 0..scale.base_items);
    println!(
        "incremental fusion scenario ({}): {} sources x {} base items, {} observations",
        if smoke { "smoke" } else { "full" },
        scale.sources,
        scale.base_items,
        base.len()
    );

    // ---- 1. Cold -> deltas -> warm, vs cold rerun on the merged cube. ----
    println!("\nconvergence (EM iterations, wall):");
    let mut session =
        FusionSession::from_observations(base.clone(), Model::MultiLayer(cfg.clone()));
    let t0 = Instant::now();
    let cold = session.run();
    report_line("cold (base cube)", &cold, t0.elapsed().as_secs_f64() * 1e3);

    let mut all = base;
    for round in 0..scale.delta_rounds {
        let lo = scale.base_items + round * scale.delta_items;
        let delta = stream(&mut rng, &scale, lo..lo + scale.delta_items);
        all.extend_from_slice(&delta);
        let t0 = Instant::now();
        let warm = session.update(&delta).run();
        report_line(
            &format!("warm delta #{} (+{} items)", round + 1, scale.delta_items),
            &warm,
            t0.elapsed().as_secs_f64() * 1e3,
        );
        assert!(warm.converged(), "warm run failed to converge");
    }

    let t0 = Instant::now();
    let cold_merged = FusionSession::from_observations(all, Model::MultiLayer(cfg.clone())).run();
    report_line(
        "cold rerun (merged cube)",
        &cold_merged,
        t0.elapsed().as_secs_f64() * 1e3,
    );
    let warm_last = session.last_report().expect("session ran").iterations();
    println!(
        "  => warm restart saves {} of {} EM rounds on the final delta",
        cold_merged.iterations().saturating_sub(warm_last),
        cold_merged.iterations()
    );

    // ---- 2. Value E-step kernel throughput. ----
    println!(
        "\nE-step throughput ({} reps, final merged cube):",
        scale.estep_reps
    );
    let cube = session.cube();
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut estep = Vec::new();
    let mut thread_counts = vec![1usize, hw];
    thread_counts.dedup(); // one hardware thread: report `_1t` once
    for threads in thread_counts {
        estep.push((
            threads,
            estep_throughput(cube, &cfg, threads, scale.estep_reps),
        ));
    }

    // ---- 3. Shard balance. ----
    println!("\nper-shard load ({} group-range shards):", hw);
    let stats = cube.shard_stats(hw);
    let max_cells = stats.iter().map(|s| s.cells).max().unwrap_or(0);
    let min_cells = stats.iter().map(|s| s.cells).min().unwrap_or(0);
    for s in &stats {
        println!(
            "  shard {:>2}: groups {:>7}..{:<7} cells {:>8}  source-span {:>5}",
            s.shard, s.groups.start, s.groups.end, s.cells, s.sources
        );
    }
    if min_cells > 0 {
        println!(
            "  cell skew max/min = {:.2} (Table 7's straggler diagnostic)",
            max_cells as f64 / min_cells as f64
        );
    }

    // Deterministic checksum so CI smoke runs catch silent numeric drift:
    // exact integer fold over the bit patterns of the final trust scores.
    let checksum = cold_merged.source_trust().iter().fold(0u64, |acc, a| {
        acc.wrapping_mul(31).wrapping_add(a.to_bits())
    });
    println!("\ntrust checksum: {checksum:#018x}");

    let mut report =
        kbt_bench::BenchReport::new("incremental_fusion", if smoke { "smoke" } else { "full" });
    report
        .count("sources", scale.sources as u64)
        .count("base_items", scale.base_items as u64)
        .count("em_rounds_cold_base", cold.iterations() as u64)
        .count("em_rounds_warm_final", warm_last as u64)
        .count("em_rounds_cold_merged", cold_merged.iterations() as u64)
        .count(
            "em_rounds_saved_final",
            cold_merged.iterations().saturating_sub(warm_last) as u64,
        );
    for (threads, ms) in &estep {
        report.metric(
            &format!("estep_rounds_per_s_{threads}t"),
            1e3 / ms.max(1e-9),
        );
    }
    if min_cells > 0 {
        report.metric("shard_cell_skew", max_cells as f64 / min_cells as f64);
    }
    report.text("trust_checksum", &format!("{checksum:#018x}"));
    let path = report.write().expect("write bench report");
    println!("report: {}", path.display());
}
