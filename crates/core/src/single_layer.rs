//! The single-layer baseline (Section 2.2): the state-of-the-art knowledge
//! fusion of [11] that KBT improves upon.
//!
//! The cube is "reshaped" into the two-dimensional matrix of Figure 1(a)
//! by treating every (webpage, extractor) combination as a distinct data
//! source `s = (w, e)`. The ACCU model of [8] (Eqs. 1–4) is then run: each
//! pair-source claims the values its extractions assert, value posteriors
//! follow Bayes' rule with a uniform prior, and pair accuracies are
//! re-estimated as the mean truth probability of their claims (Eq. 4).
//!
//! The model cannot tell an unreliable source from an unreliable
//! extractor — the comparison experiments (Figure 3, Table 5) quantify the
//! cost of that conflation.

use std::collections::HashMap;

use kbt_datamodel::{ExtractorId, ItemId, ObservationCube, SourceId, ValueId};
use kbt_flume::{par_ranges, Stopwatch};

use crate::config::{ModelConfig, ValueModel};
use crate::math::{clamp_quality, log_sum_exp_with_zeros};
use crate::model::{map_confidence_ll, ConvergenceTrace, IterationTrace};
use crate::params::QualityInit;
use crate::posterior::ItemPosteriors;

/// One claim: pair-source `pair` asserts `(item, value)`; `group` links
/// back to the originating cube group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Claim {
    pub(crate) pair: u32,
    pub(crate) value: ValueId,
    pub(crate) group: u32,
}

/// The reshaped cube an E-step reads: the claims, indexed by item
/// (`by_item[offsets[d]..offsets[d+1]]` are item `d`'s claim indices),
/// and which pair-sources may vote.
#[derive(Clone, Copy)]
pub(crate) struct PairClaims<'a> {
    pub(crate) claims: &'a [Claim],
    pub(crate) offsets: &'a [u32],
    pub(crate) by_item: &'a [u32],
    pub(crate) active_pair: &'a [bool],
}

/// Result of single-layer fusion.
#[derive(Debug, Clone)]
pub struct SingleLayerResult {
    /// The (webpage, extractor) pair-sources, in dense pair-id order.
    pub pairs: Vec<(SourceId, ExtractorId)>,
    /// `A_s` per pair-source.
    pub pair_accuracy: Vec<f64>,
    /// Per web source: claim-weighted mean of its pairs' accuracies — the
    /// best per-source trust estimate the single-layer model can offer.
    pub source_accuracy: Vec<f64>,
    /// Posterior `p(V_d | X)` per item.
    pub posteriors: ItemPosteriors,
    /// `p(V_d = v(g) | X)` per cube group.
    pub truth_of_group: Vec<f64>,
    /// Coverage per cube group: claimed by at least one active pair.
    pub covered_group: Vec<bool>,
    /// Pairs with enough claims to move off the default accuracy.
    pub active_pair: Vec<bool>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether accuracies converged before the iteration cap.
    pub converged: bool,
}

impl SingleLayerResult {
    /// Fraction of covered groups (the Cov metric).
    pub fn coverage(&self) -> f64 {
        if self.covered_group.is_empty() {
            return 0.0;
        }
        self.covered_group.iter().filter(|&&c| c).count() as f64 / self.covered_group.len() as f64
    }
}

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

    /// Run single-layer fusion, also recording per-iteration diagnostics.
    ///
    /// Inference runs under the per-run thread configuration of
    /// [`ModelConfig::threads`] via `kbt_flume::with_threads`.
    pub fn run_traced(
        &self,
        cube: &ObservationCube,
        init: &QualityInit,
    ) -> (SingleLayerResult, ConvergenceTrace) {
        kbt_flume::with_threads(self.cfg.threads, || {
            run_with(&self.cfg, cube, init, |pc, acc, truth_of_claim| {
                pair_estep(pc, acc, &self.cfg, truth_of_claim)
            })
        })
    }
}

/// The single-layer EM loop around a pluggable E-step (Eq. 2–3):
/// `estep(claims, pair accuracies, truth_of_claim out)` returns the item
/// posteriors and fills each claim's truthfulness. The model passes the
/// sharded [`pair_estep`]; [`crate::reference::fit_single_layer`] passes
/// the flat serial one.
pub(crate) fn run_with(
    cfg: &ModelConfig,
    cube: &ObservationCube,
    init: &QualityInit,
    mut estep: impl FnMut(&PairClaims<'_>, &[f64], &mut [f64]) -> ItemPosteriors,
) -> (SingleLayerResult, ConvergenceTrace) {
    // ---- Reshape the cube into pair-sources and claims. ----
    let mut pair_ids: HashMap<(SourceId, ExtractorId), u32> = HashMap::new();
    let mut pairs: Vec<(SourceId, ExtractorId)> = Vec::new();
    let mut claims: Vec<Claim> = Vec::new();
    // Claims grouped by item: counting sort below.
    let mut item_of_claim: Vec<ItemId> = Vec::new();
    for (g, grp, cells) in cube.iter_with_cells() {
        for c in cells {
            if cfg.effective_confidence(c.confidence) <= 0.0 {
                continue; // single layer binarizes extractions
            }
            let pid = *pair_ids
                .entry((grp.source, c.extractor))
                .or_insert_with(|| {
                    pairs.push((grp.source, c.extractor));
                    (pairs.len() - 1) as u32
                });
            claims.push(Claim {
                pair: pid,
                value: grp.value,
                group: g as u32,
            });
            item_of_claim.push(grp.item);
        }
    }
    let np = pairs.len();

    // Index claims by item.
    let ni = cube.num_items();
    let mut offsets = vec![0u32; ni + 1];
    for d in &item_of_claim {
        offsets[d.index() + 1] += 1;
    }
    for k in 0..ni {
        offsets[k + 1] += offsets[k];
    }
    let mut cursor = offsets.clone();
    let mut by_item: Vec<u32> = vec![0; claims.len()];
    for (ci, d) in item_of_claim.iter().enumerate() {
        let slot = &mut cursor[d.index()];
        by_item[*slot as usize] = ci as u32;
        *slot += 1;
    }

    // Claim counts per pair → activity.
    let mut pair_claims = vec![0usize; np];
    for c in &claims {
        pair_claims[c.pair as usize] += 1;
    }
    let active_pair: Vec<bool> = pair_claims
        .iter()
        .map(|&n| n >= cfg.min_source_support)
        .collect();

    // ---- Initialize accuracies. ----
    let mut acc = vec![cfg.default_source_accuracy; np];
    match init {
        QualityInit::Default => {}
        QualityInit::FromGold {
            source_accuracy, ..
        } => {
            for (pid, (w, _)) in pairs.iter().enumerate() {
                if let Some(Some(a)) = source_accuracy.get(w.index()) {
                    acc[pid] = clamp_quality(*a);
                }
            }
        }
        // Warm start (incremental fusion): seed each pair from its web
        // source's converged accuracy — the best per-pair prior the
        // single-layer parameterization can carry forward.
        QualityInit::Resume(prev) => {
            for (pid, (w, _)) in pairs.iter().enumerate() {
                if let Some(a) = prev.source_accuracy.get(w.index()) {
                    acc[pid] = clamp_quality(*a);
                }
            }
        }
    }

    // ---- Iterate E/M. ----
    let pc = PairClaims {
        claims: &claims,
        offsets: &offsets,
        by_item: &by_item,
        active_pair: &active_pair,
    };
    let mut truth_of_claim = vec![0.0f64; claims.len()];
    let mut posteriors = ItemPosteriors::default();
    let mut iterations = 0;
    let mut converged = false;
    let mut trace = ConvergenceTrace::default();
    let mut watch = Stopwatch::start();

    for t in 1..=cfg.max_iterations {
        iterations = t;
        posteriors = estep(&pc, &acc, &mut truth_of_claim);

        // M-step (Eq. 4): pair accuracy = mean truth of its claims.
        let mut num = vec![0.0f64; np];
        for (ci, cl) in claims.iter().enumerate() {
            num[cl.pair as usize] += truth_of_claim[ci];
        }
        let mut max_delta = 0.0f64;
        for p in 0..np {
            if !active_pair[p] || pair_claims[p] == 0 {
                continue;
            }
            let new = clamp_quality(num[p] / pair_claims[p] as f64);
            max_delta = max_delta.max((new - acc[p]).abs());
            acc[p] = new;
        }
        let log_likelihood = truth_of_claim.iter().map(|&p| map_confidence_ll(p)).sum();
        trace.rounds.push(IterationTrace {
            iteration: t,
            delta: max_delta,
            log_likelihood,
            wall: watch.lap(),
        });
        if max_delta < cfg.convergence_eps {
            converged = true;
            break;
        }
    }
    trace.converged = converged;

    // ---- Aggregate to per-source accuracy and per-group outputs. ----
    let mut src_num = vec![0.0f64; cube.num_sources()];
    let mut src_den = vec![0.0f64; cube.num_sources()];
    for (pid, (w, _)) in pairs.iter().enumerate() {
        if !active_pair[pid] {
            continue;
        }
        let weight = pair_claims[pid] as f64;
        src_num[w.index()] += weight * acc[pid];
        src_den[w.index()] += weight;
    }
    let source_accuracy: Vec<f64> = src_num
        .iter()
        .zip(&src_den)
        .map(|(n_, d_)| {
            if *d_ > 0.0 {
                n_ / d_
            } else {
                cfg.default_source_accuracy
            }
        })
        .collect();

    let mut truth_of_group = vec![0.0f64; cube.num_groups()];
    let mut covered_group = vec![false; cube.num_groups()];
    for (ci, cl) in claims.iter().enumerate() {
        let g = cl.group as usize;
        truth_of_group[g] = truth_of_claim[ci];
        if active_pair[cl.pair as usize] {
            covered_group[g] = true;
        }
    }

    let result = SingleLayerResult {
        pairs,
        pair_accuracy: acc,
        source_accuracy,
        posteriors,
        truth_of_group,
        covered_group,
        active_pair,
        iterations,
        converged,
    };
    (result, trace)
}

/// One item range's output of the single-layer E-step.
struct PairRangeOut {
    entries: Vec<(ValueId, f64)>,
    entry_counts: Vec<u32>,
    unobserved: Vec<f64>,
    truth: Vec<(u32, f64)>, // (claim index, truthfulness)
}

/// The single-layer E-step (Eq. 2–3), one contiguous item range per
/// worker ([`par_ranges`]); range outputs merge in range order. The
/// arithmetic is [`crate::reference::pair_estep`]'s, operation for
/// operation (the `sharded_engine` integration test pins bit-identity).
fn pair_estep(
    pc: &PairClaims<'_>,
    acc: &[f64],
    cfg: &ModelConfig,
    truth_of_claim: &mut [f64],
) -> ItemPosteriors {
    let PairClaims {
        claims,
        offsets,
        by_item,
        active_pair,
    } = *pc;
    let ni = offsets.len() - 1;
    let n = cfg.n_false_values as f64;
    let domain = cfg.n_false_values + 1;
    let outs = par_ranges(ni, |item_range| {
        let range_claims = (offsets[item_range.end] - offsets[item_range.start]) as usize;
        let mut s = PairRangeOut {
            entries: Vec::new(),
            entry_counts: Vec::with_capacity(item_range.len()),
            unobserved: Vec::with_capacity(item_range.len()),
            truth: Vec::with_capacity(range_claims),
        };
        let mut votes: Vec<(ValueId, f64, f64)> = Vec::new(); // (v, vote sum, claim count)
        let mut vcs: Vec<f64> = Vec::new();
        for d in item_range {
            let lo = offsets[d] as usize;
            let hi = offsets[d + 1] as usize;
            votes.clear();
            for &ci in &by_item[lo..hi] {
                let cl = claims[ci as usize];
                if !active_pair[cl.pair as usize] {
                    continue;
                }
                let a = clamp_quality(acc[cl.pair as usize]);
                let vote = (n * a / (1.0 - a)).ln();
                match votes.iter_mut().find(|(v, _, _)| *v == cl.value) {
                    Some((_, sum, c)) => {
                        *sum += vote;
                        *c += 1.0;
                    }
                    None => votes.push((cl.value, vote, 1.0)),
                }
            }
            if cfg.value_model == ValueModel::PopAccu && !votes.is_empty() {
                let total: f64 = votes.iter().map(|(_, _, c)| c).sum();
                let denom = total + n + 1.0;
                for (_, sum, c) in votes.iter_mut() {
                    let rho = (*c + 1.0) / denom;
                    *sum += *c * ((1.0 / n).ln() - rho.ln());
                }
            }
            let unobserved_count = domain.saturating_sub(votes.len());
            vcs.clear();
            vcs.extend(votes.iter().map(|(_, sum, _)| *sum));
            let log_z = log_sum_exp_with_zeros(&vcs, unobserved_count);
            let entry_start = s.entries.len();
            s.entries
                .extend(votes.iter().map(|(v, sum, _)| (*v, (sum - log_z).exp())));
            s.entries[entry_start..].sort_unstable_by_key(|(v, _)| *v);
            s.entry_counts.push((s.entries.len() - entry_start) as u32);
            let um = if log_z.is_finite() {
                (-log_z).exp()
            } else {
                1.0 / domain as f64
            };
            s.unobserved.push(um);
            let run = &s.entries[entry_start..];
            for &ci in &by_item[lo..hi] {
                let cl = claims[ci as usize];
                let p = match run.binary_search_by_key(&cl.value, |(v, _)| *v) {
                    Ok(i) => run[i].1,
                    Err(_) => um,
                };
                s.truth.push((ci, p));
            }
        }
        s
    });

    // Ordered merge: the ranges tile the items in order.
    let total_entries: usize = outs.iter().map(|s| s.entries.len()).sum();
    let mut out_offsets = Vec::with_capacity(ni + 1);
    out_offsets.push(0u32);
    let mut entries = Vec::with_capacity(total_entries);
    let mut unobserved = Vec::with_capacity(ni);
    for s in &outs {
        for &c in &s.entry_counts {
            out_offsets.push(out_offsets.last().unwrap() + c);
        }
        entries.extend_from_slice(&s.entries);
        unobserved.extend_from_slice(&s.unobserved);
        for &(ci, p) in &s.truth {
            truth_of_claim[ci as usize] = p;
        }
    }
    debug_assert_eq!(out_offsets.len(), ni + 1);
    ItemPosteriors::from_flat_parts(out_offsets, entries, unobserved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_datamodel::{CubeBuilder, Observation};

    fn obs(e: u32, w: u32, d: u32, v: u32) -> Observation {
        Observation::certain(
            ExtractorId::new(e),
            SourceId::new(w),
            ItemId::new(d),
            ValueId::new(v),
        )
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
        let r = model.run_traced(&cube, &QualityInit::Default).0;
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
        // Table 2 extractions (E1..E5 = 0..4; W1..W8 = 0..7; USA=0,
        // Kenya=1, NAmer=2). Item 0 = Obama nationality.
        let t = [
            (0, 0, 0),
            (1, 0, 0),
            (2, 0, 0),
            (3, 0, 0),
            (4, 0, 1), // W1
            (0, 1, 0),
            (1, 1, 0),
            (2, 1, 0),
            (4, 1, 2), // W2
            (0, 2, 0),
            (2, 2, 0),
            (3, 2, 2), // W3
            (0, 3, 0),
            (2, 3, 0),
            (3, 3, 1), // W4
            (0, 4, 1),
            (1, 4, 1),
            (2, 4, 1),
            (3, 4, 1),
            (4, 4, 1), // W5
            (0, 5, 1),
            (2, 5, 1),
            (3, 5, 0), // W6
            (2, 6, 1),
            (3, 6, 1), // W7
            (4, 7, 1), // W8
        ];
        for (e, w, v) in t {
            b.push(obs(e, w, 0, v));
        }
        let cube = b.build();
        let model = SingleLayerModel::default();
        let r = model.run_traced(&cube, &QualityInit::Default).0;
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
        let r = SingleLayerModel::new(cfg)
            .run_traced(&cube, &QualityInit::Default)
            .0;
        assert!(r.coverage() < 1.0);
        let uncovered: Vec<_> = r
            .covered_group
            .iter()
            .enumerate()
            .filter(|(_, c)| !**c)
            .collect();
        assert_eq!(uncovered.len(), 1);
        // W1 keeps the default accuracy.
        assert_eq!(r.source_accuracy[1], cfg_default_accuracy());
    }

    fn cfg_default_accuracy() -> f64 {
        ModelConfig::default().default_source_accuracy
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
        let r = SingleLayerModel::default().run_traced(&cube, &init).0;
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
            value_model: ValueModel::PopAccu,
            ..ModelConfig::single_layer_default()
        };
        let r = SingleLayerModel::new(cfg)
            .run_traced(&cube, &QualityInit::Default)
            .0;
        let d = ItemId::new(0);
        let total = r.posteriors.observed_mass(d)
            + r.posteriors.prob(d, ValueId::new(99)) * (101 - 2) as f64;
        assert!((total - 1.0).abs() < 1e-6, "total = {total}");
    }
}
