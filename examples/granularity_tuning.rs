//! Granularity tuning: how split-and-merge changes trust estimates.
//!
//! Generates a corpus where most webpages contribute one or two triples —
//! too few to judge a page on its own — and shows how merging pages into
//! their parent website (Section 4) recovers reliable KBT estimates,
//! while splitting keeps any oversized aggregator page from dominating a
//! shard. Both runs go through the same `TrustPipeline`; only the
//! `.granularity(..)` stage differs.
//!
//! Run with: `cargo run --release --example granularity_tuning`

use kbt::core::config::AbsencePolicy;
use kbt::core::ModelConfig;
use kbt::datamodel::SourceId;
use kbt::granularity::SplitMergeConfig;
use kbt::synth::web::{generate, WebCorpusConfig};
use kbt::{Model, TrustPipeline};

fn main() -> Result<(), kbt::PipelineError> {
    let corpus = generate(&WebCorpusConfig {
        num_sites: 300,
        seed: 123,
        ..WebCorpusConfig::default()
    });
    let cfg = ModelConfig {
        min_source_support: 2,
        absence_policy: AbsencePolicy::SourceCandidates,
        ..ModelConfig::default()
    };

    // --- Finest granularity: every webpage is a source. ---
    let fine = TrustPipeline::new()
        .cube(corpus.cube.clone())
        .model(Model::MultiLayer(cfg.clone()))
        .try_run()?;
    let fine_active = fine.active_source.iter().filter(|&&a| a).count();

    // --- Split-and-merge with the paper's defaults m=5, M=10K. ---
    let keys: Vec<_> = corpus
        .observations
        .iter()
        .map(|o| corpus.finest_source_key(o))
        .collect();
    let coarse_run = TrustPipeline::new()
        .observations(corpus.observations.clone())
        .source_keys(move |i, _| keys[i].clone())
        .granularity(SplitMergeConfig {
            min_size: 5,
            max_size: 10_000,
        })
        .model(Model::MultiLayer(cfg))
        .try_run_detailed()?;
    let coarse = &coarse_run.report;
    let sources = coarse_run.working_sources.as_deref().unwrap();
    let coarse_active = coarse.active_source.iter().filter(|&&a| a).count();

    println!("Webpage granularity:");
    println!(
        "  {} sources, {} with enough data to score ({:.0}%), coverage {:.3}",
        corpus.cube.num_sources(),
        fine_active,
        100.0 * fine_active as f64 / corpus.cube.num_sources() as f64,
        fine.coverage(),
    );
    println!("After SPLITANDMERGE (m=5, M=10000):");
    println!(
        "  {} working sources, {} scored ({:.0}%), coverage {:.3}",
        sources.len(),
        coarse_active,
        100.0 * coarse_active as f64 / sources.len() as f64,
        coarse.coverage(),
    );

    // Merged working sources borrow statistical strength: compare the
    // estimate error against planted page accuracy for thin pages.
    let mut fine_err = 0.0;
    let mut n_thin = 0usize;
    for p in 0..corpus.cube.num_sources() {
        let size = corpus.cube.source_size(SourceId::new(p as u32));
        if (1..5).contains(&size) && fine.active_source[p] {
            fine_err += (fine.kbt(SourceId::new(p as u32)) - corpus.page_accuracy[p]).abs();
            n_thin += 1;
        }
    }
    if n_thin > 0 {
        println!(
            "\nMean |KBT error| over {} thin pages scored at page level: {:.3}",
            n_thin,
            fine_err / n_thin as f64
        );
        println!(
            "Merged sources aggregate those pages with their site siblings, \
             so thin pages inherit a site-level estimate instead."
        );
    }
    Ok(())
}
