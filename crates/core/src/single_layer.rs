//! The single-layer baseline (Section 2.2): the state-of-the-art knowledge
//! fusion of \[11\] that KBT improves upon.
//!
//! The cube is "reshaped" into the two-dimensional matrix of Figure 1(a)
//! by treating every (webpage, extractor) combination as a distinct data
//! source `s = (w, e)`. The ACCU model of \[8\] (Eqs. 1–4) is then run: each
//! pair-source claims the values its extractions assert, value posteriors
//! follow Bayes' rule with a uniform prior, and pair accuracies are
//! re-estimated as the mean truth probability of their claims (Eq. 4).
//!
//! That is the multi-layer model without its extraction layer, so it runs
//! on the one EM engine: [`SingleLayerModel::run_traced`] builds the *pair
//! cube* — one source per (page, extractor) pair with a claim, one group
//! per claim — fits it with the extraction layer off, and folds the fit
//! back onto the input cube as a [`FusionReport`] whose
//! [`FusionReport::pair_sources`] keeps the pair-level fit. The rewrite is
//! exact:
//!
//! * with `p(C) ≡ 1` the engine's vote is `1.0 · ln(n·A_s/(1 − A_s))`,
//!   Eq. 2's vote to the bit;
//! * the conditional truth Eq. 28 reads, `p / ((1 − p) + p)`, is `p` bit
//!   for bit, because `(1 − p) + p` rounds to exactly 1 for `p ∈ [0, 1]`;
//! * so Eq. 28 under unit correctness is Eq. 4.
//!
//! POPACCU's popularity ρ counts every claim of an item, active pair or
//! not, as the multi-layer value layer does. The serial oracle is
//! [`crate::reference::fit_single_layer`].
//!
//! The model cannot tell an unreliable source from an unreliable
//! extractor — the comparison experiments (Figure 3, Table 5) quantify the
//! cost of that conflation.

use std::io;

use kbt_datamodel::{
    ChunkedCube, CubeBuilder, ExtractorId, Observation, ObservationCube, SourceId, TripleGroup,
};
use kbt_flume::Stopwatch;

use crate::config::ModelConfig;
use crate::model::{FusionReport, PairSources};
use crate::multi_layer::{with_em, EmState};
use crate::params::{Params, QualityInit};

/// The single-layer ACCU/POPACCU estimator.
#[derive(Debug, Clone)]
pub struct SingleLayerModel {
    cfg: ModelConfig,
}

impl Default for SingleLayerModel {
    fn default() -> Self {
        Self::new(ModelConfig::single_layer_default())
    }
}

impl SingleLayerModel {
    /// Build with an explicit configuration (the paper uses `n = 100`).
    pub fn new(cfg: ModelConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Run single-layer fusion and report it, per-iteration trace included.
    ///
    /// Inference runs under the per-run thread configuration of
    /// [`ModelConfig::threads`] via `kbt_flume::with_threads`. The pair
    /// cube lives where [`ModelConfig::residency`] says (same bits); only
    /// a streamed fit's I/O can fail.
    pub fn run_traced(
        &self,
        cube: &ObservationCube,
        init: &QualityInit,
    ) -> io::Result<FusionReport> {
        let cfg = &self.cfg;
        kbt_flume::with_threads(cfg.threads, || {
            let mut sw = Stopwatch::start();
            let (pairs, pair_cube) = pair_cube(cube, cfg);
            let chunked = ChunkedCube::from_cube(&pair_cube, &cfg.chunking());
            drop(pair_cube);
            let chunking = sw.lap();
            let init = QualityInit::FromGold {
                source_accuracy: pairs.iter().map(|&(w, _)| page_init(init, w)).collect(),
                extractor_precision: Vec::new(),
                extractor_recall: Vec::new(),
            };
            let ne = chunked.meta.num_extractors as usize;
            let start = EmState::new(ne, &chunked.meta.source_sizes, cfg, &init, false);
            let mut fit = with_em(chunked, cfg, |fit| fit(start))?;
            fit.trace.stage_wall.chunking += chunking;
            Ok(fold_back(cube, cfg, pairs, fit))
        })
    }
}

/// The single layer's claims, in cube order: `(group, its triple,
/// extractor)` for every cell of positive effective confidence — the model
/// binarizes extractions.
pub(crate) fn claims<'a>(
    cube: &'a ObservationCube,
    cfg: &'a ModelConfig,
) -> impl Iterator<Item = (usize, &'a TripleGroup, ExtractorId)> + 'a {
    cube.iter_with_cells().flat_map(move |(g, grp, cells)| {
        let claimed = cells
            .iter()
            .filter(|c| cfg.effective_confidence(c.confidence) > 0.0);
        claimed.map(move |c| (g, grp, c.extractor))
    })
}

/// The §2.2 reshape of `cube`: the (page, extractor) pairs with a claim,
/// ascending — pair-source `s` is the `s`-th — and the pair cube, one group
/// `(s, item, value)` per claim under extractor 0 at confidence 1, over the
/// input's item and value id spaces.
pub(crate) fn pair_cube(
    cube: &ObservationCube,
    cfg: &ModelConfig,
) -> (Vec<(SourceId, ExtractorId)>, ObservationCube) {
    // In the pair cube's key order: by item, then pair (ascending pairs
    // are ascending pair-sources), then value.
    let mut claimed: Vec<_> = claims(cube, cfg)
        .map(|(_, grp, e)| (grp.item, (grp.source, e), grp.value))
        .collect();
    claimed.sort_unstable();
    let mut pairs: Vec<(SourceId, ExtractorId)> = claimed.iter().map(|c| c.1).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut b = CubeBuilder::with_capacity(claimed.len());
    for (item, pair, value) in claimed {
        let s = pairs.binary_search(&pair).expect("claimed pair");
        b.push(Observation {
            extractor: ExtractorId::new(0),
            source: SourceId::new(s as u32),
            item,
            value,
            confidence: 1.0,
        });
    }
    let np = pairs.len() as u32;
    b.reserve_ids(np, 1, cube.num_items() as u32, cube.num_values() as u32);
    (pairs, b.build())
}

/// The accuracy `init` starts page `w`'s pairs from: its gold or resumed
/// accuracy, if any. Extractor entries seed nothing.
pub(crate) fn page_init(init: &QualityInit, w: SourceId) -> Option<f64> {
    match init {
        QualityInit::Default => None,
        QualityInit::FromGold {
            source_accuracy, ..
        } => source_accuracy.get(w.index()).copied().flatten(),
        QualityInit::Resume(prev) => prev.source_accuracy.get(w.index()).copied(),
    }
}

/// Fold a pair-cube fit back onto `cube`: the claim-weighted mean of each
/// page's active pair accuracies (a page with none is inactive), and per
/// group the posterior of its `(item, value)` and whether an active pair
/// claims it.
fn fold_back(
    cube: &ObservationCube,
    cfg: &ModelConfig,
    pairs: Vec<(SourceId, ExtractorId)>,
    fit: FusionReport,
) -> FusionReport {
    let (acc, active) = (fit.params.source_accuracy, fit.active_source);
    let mut claims_of = vec![0usize; pairs.len()];
    let mut covered_group = vec![false; cube.num_groups()];
    for (g, grp, e) in claims(cube, cfg) {
        let s = pairs.binary_search(&(grp.source, e)).expect("claimed pair");
        claims_of[s] += 1;
        covered_group[g] |= active[s];
    }
    let mut num = vec![0.0f64; cube.num_sources()];
    let mut den = vec![0.0f64; cube.num_sources()];
    for (s, (w, _)) in pairs.iter().enumerate().filter(|&(s, _)| active[s]) {
        num[w.index()] += claims_of[s] as f64 * acc[s];
        den[w.index()] += claims_of[s] as f64;
    }
    let default = cfg.default_source_accuracy;
    let source_accuracy = (num.iter().zip(&den))
        .map(|(n, d)| if *d > 0.0 { n / d } else { default })
        .collect();
    let posteriors = fit.posteriors;
    let groups = cube.groups().iter();
    let truth_of_group = groups.map(|g| posteriors.prob(g.item, g.value)).collect();
    FusionReport {
        params: Params::sources_only(source_accuracy),
        posteriors,
        truth_of_group,
        covered_group,
        active_source: den.iter().map(|&d| d > 0.0).collect(),
        source_independence: None,
        copy_evidence: None,
        trace: fit.trace,
        extraction: None,
        pair_sources: Some(PairSources {
            pairs,
            pair_accuracy: acc,
            active_pair: active,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_datamodel::{ItemId, ValueId};

    fn obs(e: u32, w: u32, d: u32, v: u32) -> Observation {
        Observation::certain(
            ExtractorId::new(e),
            SourceId::new(w),
            ItemId::new(d),
            ValueId::new(v),
        )
    }

    fn fit(model: SingleLayerModel, cube: &ObservationCube, init: &QualityInit) -> FusionReport {
        model.run_traced(cube, init).expect("resident fit")
    }

    #[test]
    fn majority_value_wins() {
        let mut b = CubeBuilder::new();
        for w in 0..4u32 {
            b.push(obs(0, w, 0, 0));
        }
        for w in 4..6u32 {
            b.push(obs(0, w, 0, 1));
        }
        let cube = b.build();
        let model = SingleLayerModel::default();
        let r = fit(model, &cube, &QualityInit::Default);
        assert!(r.posteriors.prob(ItemId::new(0), ValueId::new(0)) > 0.9);
        assert!(r.posteriors.prob(ItemId::new(0), ValueId::new(1)) < 0.1);
        assert_eq!(r.coverage(), 1.0);
    }

    /// The key weakness of Section 2.3: in the Table 2 world the single
    /// layer counts 12 pair-sources for USA and 12 for Kenya, so it cannot
    /// separate them the way the multi-layer model can.
    #[test]
    fn pair_sources_conflate_extraction_and_source_errors() {
        let mut b = CubeBuilder::new();
        // Table 2: the value extractors E1..E5 extract from pages W1..W8
        // (USA = 0, Kenya = 1, NAmer = 2, `N` = nothing) for item 0, Obama's
        // nationality.
        const N: u32 = u32::MAX;
        let table = [
            [0, 0, 0, 0, 1],
            [0, 0, 0, N, 2],
            [0, N, 0, 2, N],
            [0, N, 0, 1, N],
            [1, 1, 1, 1, 1],
            [1, N, 1, 0, N],
            [N, N, 1, 1, N],
            [N, N, N, N, 1],
        ];
        for (w, row) in (0..).zip(table) {
            for (e, v) in (0..).zip(row).filter(|&(_, v)| v != N) {
                b.push(obs(e, w, 0, v));
            }
        }
        let cube = b.build();
        let model = SingleLayerModel::default();
        let r = fit(model, &cube, &QualityInit::Default);
        let p_usa = r.posteriors.prob(ItemId::new(0), ValueId::new(0));
        let p_kenya = r.posteriors.prob(ItemId::new(0), ValueId::new(1));
        // 12 claims each with identical accuracies → near-equal posteriors.
        assert!(
            (p_usa - p_kenya).abs() < 0.05,
            "single layer cannot separate: USA {p_usa} vs Kenya {p_kenya}"
        );
    }

    #[test]
    fn min_support_excludes_thin_pairs_from_coverage() {
        let mut b = CubeBuilder::new();
        for d in 0..5u32 {
            b.push(obs(0, 0, d, 0)); // pair (W0,E0): 5 claims
        }
        b.push(obs(1, 1, 9, 3)); // pair (W1,E1): 1 claim
        let cube = b.build();
        let cfg = ModelConfig {
            min_source_support: 3,
            ..ModelConfig::single_layer_default()
        };
        let r = fit(SingleLayerModel::new(cfg), &cube, &QualityInit::Default);
        assert!(r.coverage() < 1.0);
        let uncovered: Vec<_> = r
            .covered_group
            .iter()
            .enumerate()
            .filter(|(_, c)| !**c)
            .collect();
        assert_eq!(uncovered.len(), 1);
        // W1 keeps the default accuracy.
        assert_eq!(
            r.kbt(SourceId::new(1)),
            ModelConfig::default().default_source_accuracy
        );
        assert!(r.active_source[0] && !r.active_source[1]);
    }

    #[test]
    fn gold_init_seeds_pair_accuracies() {
        let mut b = CubeBuilder::new();
        for d in 0..3u32 {
            b.push(obs(0, 0, d, 0));
            b.push(obs(0, 1, d, 1));
        }
        let cube = b.build();
        let init = QualityInit::FromGold {
            source_accuracy: vec![Some(0.95), Some(0.05)],
            extractor_precision: vec![],
            extractor_recall: vec![],
        };
        let r = fit(SingleLayerModel::default(), &cube, &init);
        // Seeded trust should break the symmetry toward W0's values.
        for d in 0..3u32 {
            assert!(
                r.posteriors.prob(ItemId::new(d), ValueId::new(0))
                    > r.posteriors.prob(ItemId::new(d), ValueId::new(1)),
                "item {d}"
            );
        }
    }

    #[test]
    fn popaccu_variant_runs_and_normalizes() {
        let mut b = CubeBuilder::new();
        for w in 0..5u32 {
            b.push(obs(0, w, 0, w % 2));
        }
        let cube = b.build();
        let cfg = ModelConfig {
            value_model: crate::ValueModel::PopAccu,
            ..ModelConfig::single_layer_default()
        };
        let r = fit(SingleLayerModel::new(cfg), &cube, &QualityInit::Default);
        let d = ItemId::new(0);
        let total = r.posteriors.observed_mass(d)
            + r.posteriors.prob(d, ValueId::new(99)) * (101 - 2) as f64;
        assert!((total - 1.0).abs() < 1e-6, "total = {total}");
    }
}
