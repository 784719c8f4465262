//! Shared experiment plumbing: run a model on a dataset, evaluate with the
//! Section 5.1.1 metrics.

use std::collections::BTreeMap;

use kbt_core::{
    CorrectnessWeighting, FusionModel, FusionReport, ModelConfig, MultiLayerModel, QualityInit,
    SingleLayerModel, ValueModel,
};
use kbt_datamodel::{ItemId, ObservationCube, SourceId, ValueId};
use kbt_granularity::{regroup_cube, SplitMergeConfig, WorkingSource};
use kbt_metrics::{auc_pr_partial, square_loss_binary, square_loss_partial, wdev_partial};
use kbt_pipeline::{Model, TrustPipeline};
use kbt_synth::paper::SyntheticDataset;
use kbt_synth::WebCorpus;

/// The three square losses of the synthetic experiments (Figures 3–4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthLosses {
    /// Square loss on triple truthfulness.
    pub sqv: f64,
    /// Square loss on extraction correctness (`None` for the single-layer
    /// model, which has no extraction layer — Figure 3 notes this).
    pub sqc: Option<f64>,
    /// Square loss on source accuracy.
    pub sqa: f64,
}

/// Evaluate the multi-layer model on a synthetic dataset with exact truth.
pub fn eval_multilayer_synth(data: &SyntheticDataset, cfg: &ModelConfig) -> SynthLosses {
    let result = MultiLayerModel::new(cfg.clone()).fit(&data.cube, &QualityInit::Default);
    let sqv = sqv_of(data, &result);
    let sqc = square_loss_binary(
        result.correctness().unwrap_or(&[]),
        &data.truth.group_provided,
    );
    let sqa = sqa_of(
        result.source_trust(),
        &data.truth.source_accuracy,
        &result.active_source,
    );
    SynthLosses { sqv, sqc, sqa }
}

/// Evaluate the single-layer baseline on a synthetic dataset.
pub fn eval_singlelayer_synth(data: &SyntheticDataset, cfg: &ModelConfig) -> SynthLosses {
    let result = SingleLayerModel::new(cfg.clone()).fit(&data.cube, &QualityInit::Default);
    let sqv = sqv_of(data, &result);
    let active = vec![true; data.cube.num_sources()];
    let sqa = sqa_of(result.source_trust(), &data.truth.source_accuracy, &active);
    SynthLosses {
        sqv,
        sqc: None,
        sqa,
    }
}

fn sqv_of(data: &SyntheticDataset, result: &FusionReport) -> f64 {
    let eval = data.value_eval_set();
    let pred: Vec<f64> = eval
        .iter()
        .map(|(d, v, _)| result.posteriors.prob(*d, *v))
        .collect();
    let truth: Vec<bool> = eval.iter().map(|(_, _, t)| *t).collect();
    square_loss_binary(&pred, &truth).unwrap_or(0.0)
}

fn sqa_of(pred: &[f64], truth: &[f64], active: &[bool]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for w in 0..truth.len().min(pred.len()) {
        if !active[w] {
            continue;
        }
        let d = pred[w] - truth[w];
        sum += d * d;
        n += 1;
    }
    if n == 0 {
        // No active source: score every source at its default prediction.
        return square_loss_binary(&[], &[]).unwrap_or(0.0);
    }
    sum / n as f64
}

/// Table 5 metrics for one method on the KV-scale corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodScores {
    /// SqV against the (partial) gold standard.
    pub sqv: f64,
    /// Weighted deviation.
    pub wdev: f64,
    /// Area under the PR curve.
    pub auc_pr: f64,
    /// Coverage of evaluated `(item, value)` triples.
    pub cov: f64,
}

/// Predictions over distinct `(item, value)` triples plus coverage flags —
/// the unit Table 5 evaluates on.
#[derive(Debug, Clone)]
pub struct TriplePredictions {
    /// The distinct triples in cube order of first appearance.
    pub triples: Vec<(ItemId, ValueId)>,
    /// Predicted `p(V_d = v | X)`.
    pub pred: Vec<f64>,
    /// Whether the method computed a probability for the triple (Cov).
    pub covered: Vec<bool>,
}

/// Collect distinct-(item, value) predictions from a cube + per-group
/// outputs.
pub fn collect_triple_predictions(
    cube: &ObservationCube,
    truth_of_group: &[f64],
    covered_group: &[bool],
) -> TriplePredictions {
    let mut index: BTreeMap<(ItemId, ValueId), usize> = BTreeMap::new();
    let mut triples = Vec::new();
    let mut pred = Vec::new();
    let mut covered = Vec::new();
    for (g, grp) in cube.groups().iter().enumerate() {
        match index.entry((grp.item, grp.value)) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(triples.len());
                triples.push((grp.item, grp.value));
                pred.push(truth_of_group[g]);
                covered.push(covered_group[g]);
            }
            std::collections::btree_map::Entry::Occupied(e) => {
                let i = *e.get();
                covered[i] |= covered_group[g];
            }
        }
    }
    TriplePredictions {
        triples,
        pred,
        covered,
    }
}

/// Score triple predictions against the corpus gold standard. Uncovered
/// triples are excluded from SqV/WDev/AUC-PR (the paper computes them over
/// triples that received a probability) and counted against Cov.
pub fn score_predictions(corpus: &WebCorpus, preds: &TriplePredictions) -> MethodScores {
    let mut pred = Vec::new();
    let mut labels = Vec::new();
    for (i, (d, v)) in preds.triples.iter().enumerate() {
        if !preds.covered[i] {
            continue;
        }
        pred.push(preds.pred[i]);
        labels.push(corpus.gold_label_value(*d, *v));
    }
    MethodScores {
        sqv: square_loss_partial(&pred, &labels).unwrap_or(f64::NAN),
        wdev: wdev_partial(&pred, &labels).unwrap_or(f64::NAN),
        auc_pr: auc_pr_partial(&pred, &labels).unwrap_or(f64::NAN),
        cov: kbt_metrics::coverage(&preds.covered),
    }
}

/// Labeled (prediction, gold) pairs over covered triples — used for the
/// Figure 8/9 curves.
pub fn labeled_predictions(
    corpus: &WebCorpus,
    preds: &TriplePredictions,
) -> (Vec<f64>, Vec<Option<bool>>) {
    let mut pred = Vec::new();
    let mut labels = Vec::new();
    for (i, (d, v)) in preds.triples.iter().enumerate() {
        if !preds.covered[i] {
            continue;
        }
        pred.push(preds.pred[i]);
        labels.push(corpus.gold_label_value(*d, *v));
    }
    (pred, labels)
}

/// Build the semi-supervised initialization (the `+` variants): per-source
/// accuracy and per-extractor precision seeded from the gold standard with
/// add-one smoothing.
pub fn gold_init(corpus: &WebCorpus) -> QualityInit {
    let cube = &corpus.cube;
    let labels = corpus.gold_labels();
    let mut src_true = vec![0usize; cube.num_sources()];
    let mut src_tot = vec![0usize; cube.num_sources()];
    let mut ext_true = vec![0usize; cube.num_extractors()];
    let mut ext_tot = vec![0usize; cube.num_extractors()];
    for (g, grp, cells) in cube.iter_with_cells() {
        let Some(l) = labels[g] else { continue };
        src_tot[grp.source.index()] += 1;
        if l {
            src_true[grp.source.index()] += 1;
        }
        for c in cells {
            ext_tot[c.extractor.index()] += 1;
            if l {
                ext_true[c.extractor.index()] += 1;
            }
        }
    }
    QualityInit::FromGold {
        source_accuracy: smoothed_rates(&src_true, &src_tot),
        extractor_precision: smoothed_rates(&ext_true, &ext_tot),
        extractor_recall: vec![None; cube.num_extractors()],
    }
}

/// Add-one smoothed `true / total` per id; `None` where nothing was
/// labelled.
fn smoothed_rates(true_counts: &[usize], totals: &[usize]) -> Vec<Option<f64>> {
    true_counts
        .iter()
        .zip(totals)
        .map(|(&t, &n)| (n > 0).then(|| (t as f64 + 1.0) / (n as f64 + 2.0)))
        .collect()
}

/// Gold init re-targeted to a regrouped cube: working-source accuracies
/// are seeded from the gold labels of the observation rows they absorbed
/// (`row_source[i]` = new source id of observation `i`).
pub fn gold_init_for_working_sources(
    corpus: &WebCorpus,
    regrouped: &ObservationCube,
    num_sources: usize,
    row_source: &[u32],
) -> QualityInit {
    let mut src_true = vec![0usize; num_sources];
    let mut src_tot = vec![0usize; num_sources];
    for (i, o) in corpus.observations.iter().enumerate() {
        if let Some(l) = corpus.gold_label_value(o.item, o.value) {
            let sid = row_source[i] as usize;
            src_tot[sid] += 1;
            if l {
                src_true[sid] += 1;
            }
        }
    }
    // Extractor ids are unchanged by source regrouping.
    let QualityInit::FromGold {
        extractor_precision: ep,
        extractor_recall: er,
        ..
    } = gold_init(corpus)
    else {
        unreachable!("gold_init builds FromGold")
    };
    QualityInit::FromGold {
        source_accuracy: smoothed_rates(&src_true, &src_tot),
        extractor_precision: ep
            .into_iter()
            .chain(std::iter::repeat(None))
            .take(regrouped.num_extractors())
            .collect(),
        extractor_recall: er
            .into_iter()
            .chain(std::iter::repeat(None))
            .take(regrouped.num_extractors())
            .collect(),
    }
}

/// Run MULTILAYER on the corpus at page granularity, through the unified
/// pipeline.
pub fn run_multilayer(
    corpus: &WebCorpus,
    cfg: &ModelConfig,
    init: &QualityInit,
) -> (FusionReport, TriplePredictions) {
    // fit() borrows the corpus cube — no clone for the common page-level
    // path (the KV cubes are millions of cells).
    let r = MultiLayerModel::new(cfg.clone()).fit(&corpus.cube, init);
    let preds = collect_triple_predictions(&corpus.cube, r.truth_of_group(), &r.covered_group);
    (r, preds)
}

/// The single-layer [`Model`] variant matching `cfg.value_model`.
pub fn single_layer_model(cfg: &ModelConfig) -> Model {
    match cfg.value_model {
        ValueModel::Accu => Model::Accu(cfg.clone()),
        ValueModel::PopAccu => Model::PopAccu(cfg.clone()),
    }
}

/// Rebuild the corpus cube with sources at *website* granularity. The
/// paper's single-layer provenances are (extractor, website, predicate,
/// pattern) 4-tuples — website-level, not webpage-level (Section 5.1.2).
pub fn website_cube(corpus: &WebCorpus) -> ObservationCube {
    let mut b = kbt_datamodel::CubeBuilder::with_capacity(corpus.observations.len());
    for o in &corpus.observations {
        b.push(kbt_datamodel::Observation {
            source: SourceId::new(corpus.site_of_page[o.source.index()]),
            ..*o
        });
    }
    b.reserve_ids(
        corpus.sites.len() as u32,
        corpus.cube.num_extractors() as u32,
        corpus.cube.num_items() as u32,
        corpus.cube.num_values() as u32,
    );
    b.build()
}

/// Run SINGLELAYER on the corpus, with provenances at website granularity
/// as in the paper.
pub fn run_singlelayer(
    corpus: &WebCorpus,
    cfg: &ModelConfig,
    init: &QualityInit,
) -> (FusionReport, TriplePredictions) {
    let cube = website_cube(corpus);
    // Re-target a per-page gold init to websites when needed.
    let init = match init {
        QualityInit::FromGold {
            extractor_precision,
            extractor_recall,
            ..
        } => {
            let labels = corpus.gold_labels();
            let mut t = vec![0usize; corpus.sites.len()];
            let mut n = vec![0usize; corpus.sites.len()];
            for (g, grp) in corpus.cube.groups().iter().enumerate() {
                if let Some(l) = labels[g] {
                    let s = corpus.site_of_page[grp.source.index()] as usize;
                    n[s] += 1;
                    if l {
                        t[s] += 1;
                    }
                }
            }
            QualityInit::FromGold {
                source_accuracy: smoothed_rates(&t, &n),
                extractor_precision: extractor_precision.clone(),
                extractor_recall: extractor_recall.clone(),
            }
        }
        QualityInit::Default => QualityInit::Default,
        // Warm starts already carry per-source accuracies; the website
        // regrouping would need a remap nobody requests here.
        QualityInit::Resume(p) => QualityInit::Resume(p.clone()),
    };
    // The website cube is freshly built and owned: move it through the
    // pipeline and read it back from the run instead of cloning.
    let run = TrustPipeline::new()
        .cube(cube)
        .model(single_layer_model(cfg))
        .init(init)
        .try_run_detailed()
        .expect("pipeline runs");
    let preds = collect_triple_predictions(
        &run.cube,
        run.report.truth_of_group(),
        &run.report.covered_group,
    );
    (run.report, preds)
}

/// Run MULTILAYERSM: SPLITANDMERGE the sources, then MULTILAYER on the
/// regrouped cube. Returns the regrouped cube and working sources too.
pub fn run_multilayer_sm(
    corpus: &WebCorpus,
    cfg: &ModelConfig,
    sm: &SplitMergeConfig,
    gold: bool,
) -> (
    FusionReport,
    TriplePredictions,
    ObservationCube,
    Vec<WorkingSource>,
) {
    // Regroup first (not via `.granularity(..)`) because the gold
    // initialization is computed *from* the regrouping (working-source
    // accuracies are seeded from the rows each one absorbed).
    let (cube, sources, row_source) = regroup_cube(
        &corpus.observations,
        |i| corpus.finest_source_key(&corpus.observations[i]),
        sm,
    );
    let init = if gold {
        gold_init_for_working_sources(corpus, &cube, sources.len(), &row_source)
    } else {
        QualityInit::Default
    };
    let run = TrustPipeline::new()
        .cube(cube)
        .model(Model::MultiLayer(cfg.clone()))
        .init(init)
        .try_run_detailed()
        .expect("pipeline runs");
    let preds = collect_triple_predictions(
        &run.cube,
        run.report.truth_of_group(),
        &run.report.covered_group,
    );
    (run.report, preds, run.cube, sources)
}

/// Default model configuration for the KV-scale experiments: the paper's
/// settings with a support threshold of 2 triples per source and
/// source-scoped absence votes. At (extractor, pattern) provenance
/// granularity thousands of extractor ids exist and almost none visit any
/// given page, so the literal all-extractors absence sum of Eq. 14 would
/// drown every triple (the paper's finest extractor granularity is
/// website-scoped for the same reason — Section 4).
pub fn kv_multilayer_config() -> ModelConfig {
    ModelConfig {
        min_source_support: 2,
        absence_policy: kbt_core::config::AbsencePolicy::SourceCandidates,
        ..ModelConfig::default()
    }
}

/// Single-layer configuration for the KV-scale experiments (`n = 100`).
/// Website-level provenances are rarely thin, so every pair participates
/// (the paper reports 0.952 coverage for the single layer — near-total).
pub fn kv_singlelayer_config() -> ModelConfig {
    ModelConfig {
        min_source_support: 1,
        ..ModelConfig::single_layer_default()
    }
}

/// The Table 6 ablation variants of the multi-layer configuration.
pub fn ablation_configs() -> Vec<(&'static str, ModelConfig)> {
    let base = kv_multilayer_config();
    vec![
        ("MultiLayer+ (baseline)", base.clone()),
        (
            "p(Vd|Chat_d) (MAP correctness)",
            ModelConfig {
                correctness_weighting: CorrectnessWeighting::Map,
                ..base.clone()
            },
        ),
        (
            "Not updating alpha",
            ModelConfig {
                alpha_update_from: None,
                ..base.clone()
            },
        ),
        (
            "p(C|I(X>phi)) (thresholded conf.)",
            ModelConfig {
                confidence_threshold: Some(0.0),
                ..base
            },
        ),
    ]
}

/// Topic-relevance weights (Section 5.4.2, item 1): identify each
/// website's main topic as the subject neighborhood holding most of its
/// triples, and weight triples outside it at 0.
///
/// Relevance is judged per *site*: a triple is on-topic if its subject is
/// among the site's head subjects covering `mass` (e.g. 0.8) of the
/// site's triples, or if the site is too small to establish a topic.
pub fn topic_weights(corpus: &WebCorpus, mass: f64) -> Vec<f64> {
    use std::collections::HashMap;
    let cube = &corpus.cube;
    // Subject histogram per site.
    let mut hist: Vec<HashMap<u32, usize>> = vec![HashMap::new(); corpus.sites.len()];
    for grp in cube.groups() {
        let (subject, _) = corpus.world.subject_predicate(grp.item);
        let site = corpus.site_of_page[grp.source.index()] as usize;
        *hist[site].entry(subject).or_insert(0) += 1;
    }
    // Head-subject sets per site.
    let head: Vec<std::collections::HashSet<u32>> = hist
        .iter()
        .map(|h| {
            let total: usize = h.values().sum();
            let mut subjects: Vec<(&u32, &usize)> = h.iter().collect();
            // Count ties by subject id: `HashMap` order changes per run.
            subjects.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
            let mut kept = std::collections::HashSet::new();
            let mut acc = 0usize;
            for (s, c) in subjects {
                if (acc as f64) >= mass * total as f64 {
                    break;
                }
                kept.insert(*s);
                acc += c;
            }
            kept
        })
        .collect();
    cube.groups()
        .iter()
        .map(|grp| {
            let (subject, _) = corpus.world.subject_predicate(grp.item);
            let site = corpus.site_of_page[grp.source.index()] as usize;
            if head[site].len() <= 3 || head[site].contains(&subject) {
                1.0
            } else {
                0.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_synth::paper::{generate, SyntheticConfig};
    use kbt_synth::web::{generate as gen_web, WebCorpusConfig};

    #[test]
    fn multilayer_beats_singlelayer_on_synthetic_sqv() {
        let data = generate(&SyntheticConfig::default());
        let multi = eval_multilayer_synth(&data, &ModelConfig::default());
        let single = eval_singlelayer_synth(&data, &ModelConfig::single_layer_default());
        assert!(
            multi.sqv <= single.sqv + 0.02,
            "multi {} vs single {}",
            multi.sqv,
            single.sqv
        );
        assert!(multi.sqc.is_some());
        assert!(single.sqc.is_none());
    }

    #[test]
    fn triple_predictions_are_distinct_and_cover_all_groups() {
        let data = generate(&SyntheticConfig::default());
        let n_groups = data.cube.num_groups();
        let truth = vec![0.5; n_groups];
        let covered = vec![true; n_groups];
        let preds = collect_triple_predictions(&data.cube, &truth, &covered);
        let mut seen = std::collections::BTreeSet::new();
        for t in &preds.triples {
            assert!(seen.insert(*t));
        }
        assert!(preds.triples.len() <= n_groups);
    }

    #[test]
    fn corpus_pipeline_end_to_end() {
        let corpus = gen_web(&WebCorpusConfig::tiny(5));
        let cfg = kv_multilayer_config();
        let (result, preds) = run_multilayer(&corpus, &cfg, &QualityInit::Default);
        assert!(result.iterations() >= 1);
        let scores = score_predictions(&corpus, &preds);
        assert!(scores.sqv.is_finite());
        assert!(scores.cov > 0.0 && scores.cov <= 1.0);
        assert!(scores.auc_pr.is_finite());
    }

    #[test]
    fn gold_init_improves_or_matches_auc() {
        let corpus = gen_web(&WebCorpusConfig::tiny(9));
        let cfg = kv_multilayer_config();
        let (_, preds_def) = run_multilayer(&corpus, &cfg, &QualityInit::Default);
        let (_, preds_gold) = run_multilayer(&corpus, &cfg, &gold_init(&corpus));
        let s_def = score_predictions(&corpus, &preds_def);
        let s_gold = score_predictions(&corpus, &preds_gold);
        assert!(
            s_gold.auc_pr >= s_def.auc_pr - 0.05,
            "gold {} vs default {}",
            s_gold.auc_pr,
            s_def.auc_pr
        );
    }

    /// Each call hashes its histograms with fresh keys, so a cut that
    /// fell on a count tie by `HashMap` order kept a different head set
    /// call to call.
    #[test]
    fn topic_weights_break_count_ties_by_subject() {
        let corpus = gen_web(&WebCorpusConfig::tiny(7));
        let first = topic_weights(&corpus, 0.5);
        for _ in 0..16 {
            assert_eq!(topic_weights(&corpus, 0.5), first);
        }
    }

    #[test]
    fn splitmerge_pipeline_runs_and_conserves_triples() {
        let corpus = gen_web(&WebCorpusConfig::tiny(13));
        let cfg = kv_multilayer_config();
        let sm = SplitMergeConfig {
            min_size: 5,
            max_size: 10_000,
        };
        let (r, preds, cube, sources) = run_multilayer_sm(&corpus, &cfg, &sm, false);
        // Merging pages of one site can dedup identical (e, w, d, v)
        // extractions, so cells may shrink but never grow.
        assert!(cube.num_cells() <= corpus.cube.num_cells());
        assert!(cube.num_cells() > 0);
        assert!(!sources.is_empty());
        assert!(r.iterations() >= 1);
        let scores = score_predictions(&corpus, &preds);
        assert!(scores.sqv.is_finite());
    }
}
