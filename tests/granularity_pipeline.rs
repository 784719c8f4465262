//! Integration tests for the split-and-merge granularity pipeline against
//! the KV-scale corpus simulator, driven through `TrustPipeline`.

use kbt::core::config::AbsencePolicy;
use kbt::core::ModelConfig;
use kbt::datamodel::SourceId;
use kbt::granularity::SplitMergeConfig;
use kbt::synth::web::{generate, WebCorpusConfig};
use kbt::synth::WebCorpus;
use kbt::{Model, PipelineRun, TrustPipeline};

fn kv_cfg() -> ModelConfig {
    ModelConfig {
        min_source_support: 2,
        absence_policy: AbsencePolicy::SourceCandidates,
        ..ModelConfig::default()
    }
}

/// A pipeline regrouping `corpus` at the given bounds, with the corpus's
/// real source hierarchy.
fn regrouped(corpus: &WebCorpus, sm: SplitMergeConfig) -> PipelineRun {
    let keys: Vec<_> = corpus
        .observations
        .iter()
        .map(|o| corpus.finest_source_key(o))
        .collect();
    TrustPipeline::new()
        .observations(corpus.observations.clone())
        .source_keys(move |i, _| keys[i].clone())
        .granularity(sm)
        .model(Model::MultiLayer(kv_cfg()))
        .try_run_detailed()
        .expect("pipeline runs")
}

#[test]
fn merging_improves_source_coverage() {
    let corpus = generate(&WebCorpusConfig::tiny(21));
    let fine = TrustPipeline::new()
        .cube(corpus.cube.clone())
        .model(Model::MultiLayer(kv_cfg()))
        .try_run()
        .expect("pipeline runs");
    let merged = regrouped(
        &corpus,
        SplitMergeConfig {
            min_size: 5,
            max_size: 10_000,
        },
    )
    .report;
    assert!(
        merged.coverage() >= fine.coverage(),
        "merged coverage {} must not fall below page-level {}",
        merged.coverage(),
        fine.coverage()
    );
}

#[test]
fn working_sources_respect_size_bounds() {
    let corpus = generate(&WebCorpusConfig::tiny(33));
    let sm = SplitMergeConfig {
        min_size: 4,
        max_size: 50,
    };
    let run = regrouped(&corpus, sm);
    let sources = run.working_sources.as_deref().unwrap();
    let row_source = run.row_source.as_deref().unwrap();
    assert_eq!(run.cube.num_sources(), sources.len());
    for ws in sources {
        // Oversized only allowed at the very top of the hierarchy after
        // merging; split output must respect M.
        if ws.bucket.is_some() {
            assert!(
                ws.rows.len() <= sm.max_size,
                "split bucket of {} triples",
                ws.rows.len()
            );
        }
    }
    // Every observation row got exactly one working source in range.
    for &s in row_source {
        assert!((s as usize) < sources.len());
    }
}

#[test]
fn regrouping_preserves_triple_truth_structure() {
    // Regrouping must not change the set of distinct (item, value)
    // triples in the cube — only who "owns" them.
    use std::collections::BTreeSet;
    let corpus = generate(&WebCorpusConfig::tiny(55));
    let before: BTreeSet<(u32, u32)> = corpus
        .cube
        .groups()
        .iter()
        .map(|g| (g.item.0, g.value.0))
        .collect();
    let run = regrouped(
        &corpus,
        SplitMergeConfig {
            min_size: 5,
            max_size: 100,
        },
    );
    let after: BTreeSet<(u32, u32)> = run
        .cube
        .groups()
        .iter()
        .map(|g| (g.item.0, g.value.0))
        .collect();
    assert_eq!(before, after);
}

#[test]
fn site_level_model_scores_most_sites() {
    let corpus = generate(&WebCorpusConfig::tiny(88));
    // Merge everything to site level via the hierarchy (huge m forces
    // full merging up to the website).
    let run = regrouped(
        &corpus,
        SplitMergeConfig {
            min_size: 1_000_000,
            max_size: usize::MAX,
        },
    );
    let sources = run.working_sources.as_deref().unwrap();
    // All working sources are now whole websites (depth-1 keys).
    for ws in sources {
        assert_eq!(ws.key.depth(), 1, "expected site-level keys");
    }
    let r = &run.report;
    let active = r.active_source.iter().filter(|&&a| a).count();
    assert!(
        active * 10 >= sources.len() * 8,
        "most site-level sources should be scorable: {active}/{}",
        sources.len()
    );
    // KBT scores are probabilities.
    for w in 0..run.cube.num_sources() {
        let a = r.kbt(SourceId::new(w as u32));
        assert!((0.0..=1.0).contains(&a));
    }
}
