//! The scalar reference: Algorithm 1 written straight off the paper's
//! equations over the row-major [`ObservationCube`] — one plainly serial
//! function per equation, no chunks, no scratch reuse, no threads; its
//! sums are [`ExactSum`]s, as the engine's are.
//!
//! This is the **oracle**, not an engine: no configuration value selects
//! it, and nothing on the fitting or serving path calls it. The tests and
//! the bench gates compare the chunk-view kernels
//! ([`crate::MultiLayerModel`], [`crate::SingleLayerModel`]) against
//! [`fit`] / [`fit_single_layer`] bit for bit, and the paper's worked
//! examples (Tables 2–4) are reproduced from these functions.

use std::convert::Infallible;

use kbt_datamodel::{ItemId, ObservationCube, SourceId, TripleGroup, ValueId};
use kbt_flume::ExactSum;

use crate::config::{AbsencePolicy, CorrectnessWeighting, ModelConfig, ValueModel};
use crate::copydetect::CopyDiscount;
use crate::math::{clamp_quality, log_sum_exp_with_zeros, logit, sigmoid};
use crate::model::{map_confidence_ll, FusionReport, PairSources};
use crate::multi_layer::{empty_values, iterate, EmState};
use crate::params::{q_from_precision_recall, Params, QualityInit};
use crate::posterior::ItemPosteriors;
use crate::single_layer::{claims, page_init, pair_cube};
use crate::value::ValueLayerOutput;
use crate::votes::VoteCounter;

/// Presence/absence vote tables (Eqs. 12–13) for `cube`: the cube's
/// per-source candidate extractors, laid out as the CSR the one table
/// builder ([`VoteCounter::rebuild`]) takes.
pub fn vote_counter(cube: &ObservationCube, params: &Params, cfg: &ModelConfig) -> VoteCounter {
    let mut offsets = vec![0u32];
    let mut ids = Vec::new();
    for w in 0..cube.num_sources() {
        let on_source = cube.extractors_on_source(SourceId::new(w as u32));
        ids.extend(on_source.iter().map(|e| e.0));
        offsets.push(ids.len() as u32);
    }
    let mut votes = VoteCounter::empty();
    votes.rebuild(
        cube.num_extractors(),
        cube.num_sources(),
        &offsets,
        &ids,
        params,
        cfg,
    );
    votes
}

/// `p(C_wdv = 1 | X_wdv)` for every triple group: the sigmoid of its
/// confidence-weighted vote count plus the prior log-odds (Eq. 15 with
/// Eq. 31).
pub fn estimate_correctness(
    cube: &ObservationCube,
    votes: &VoteCounter,
    alpha: &[f64],
    cfg: &ModelConfig,
) -> Vec<f64> {
    let groups = cube.groups().iter().enumerate();
    groups
        .map(|(g, grp)| sigmoid(votes.vote_count(grp.source, cube.cells_of(grp), cfg) + alpha[g]))
        .collect()
}

/// Re-estimate every group's correctness prior from the value layer
/// (Section 3.3.4, Eq. 26, in the Eq. 5-consistent form unless
/// [`ModelConfig::literal_eq26_alpha`] asks for the printed one).
pub fn update_alpha(
    alpha: &mut [f64],
    cube: &ObservationCube,
    truth: &[f64],
    params: &Params,
    cfg: &ModelConfig,
) {
    let n = cfg.n_false_values.max(1) as f64;
    let spread = if cfg.literal_eq26_alpha { 1.0 } else { n };
    for ((l, grp), &t) in alpha.iter_mut().zip(cube.groups()).zip(truth) {
        let a = params.source_accuracy[grp.source.index()];
        *l = logit(t * a + (1.0 - t) * (1.0 - a) / spread);
    }
}

/// The value layer (Eqs. 23–25), item by item: every claim of item `d`
/// votes `weight · ln(n·A_w/(1−A_w))` (× the copy-independence factor,
/// if any) for its value, and the posterior is the softmax over vote
/// sums with one `exp(0)` term per unobserved domain value.
pub fn estimate_values(
    cube: &ObservationCube,
    correctness: &[f64],
    params: &Params,
    cfg: &ModelConfig,
    active_source: &[bool],
    discount: Option<&CopyDiscount>,
) -> ValueLayerOutput {
    let n = cfg.n_false_values as f64;
    let domain = cfg.n_false_values + 1;
    let mut entries_per_item = Vec::with_capacity(cube.num_items());
    let mut unobserved = Vec::with_capacity(cube.num_items());
    let mut truth_of_group = vec![0.0; cube.num_groups()];
    let mut truth_given_provided = vec![0.0; cube.num_groups()];
    let mut covered_group = vec![false; cube.num_groups()];

    for d in 0..cube.num_items() {
        let mut values: Vec<(ValueId, f64)> = Vec::new(); // (v, vote sum), first-seen order
        let mut claims: Vec<(ValueId, f64)> = Vec::new(); // (v, claim weight): POPACCU popularity
        let mut rows: Vec<(usize, ValueId, f64, f64)> = Vec::new(); // (g, v, weight, full vote)
        let mut total_claims = 0.0f64;
        for g in cube.groups_of_item(ItemId::new(d as u32)) {
            let grp = &cube.groups()[g];
            if cube.cells_of(grp).is_empty() {
                // A group with no surviving extraction (emptied by a
                // retraction) casts no claim and no vote.
                rows.push((g, grp.value, 0.0, 0.0));
                continue;
            }
            let weight = match cfg.correctness_weighting {
                CorrectnessWeighting::Weighted => correctness[g],
                CorrectnessWeighting::Map => f64::from(u8::from(correctness[g] >= 0.5)),
            };
            // Popularity counts use every claim, active or not.
            match claims.iter_mut().find(|(v, _)| *v == grp.value) {
                Some((_, c)) => *c += weight,
                None => claims.push((grp.value, weight)),
            }
            total_claims += weight;
            if !active_source[grp.source.index()] {
                rows.push((g, grp.value, 0.0, 0.0));
                continue;
            }
            let a = clamp_quality(params.source_accuracy[grp.source.index()]);
            let mut full_vote = (n * a / (1.0 - a)).ln();
            if let Some(dc) = discount {
                full_vote *= dc.factor(grp.source);
            }
            rows.push((g, grp.value, weight, full_vote));
            match values.iter_mut().find(|(v, _)| *v == grp.value) {
                Some((_, sum)) => *sum += weight * full_vote,
                None => values.push((grp.value, weight * full_vote)),
            }
        }
        // POPACCU: replace the uniform 1/n false-value probability with
        // smoothed empirical popularity ρ, i.e. add ln(1/n) − ln ρ(d,v)
        // per unit of claim weight on the value.
        if cfg.value_model == ValueModel::PopAccu && total_claims > 0.0 {
            let denom = total_claims + n + 1.0;
            for (v, sum) in values.iter_mut() {
                let cnt = claims.iter().find(|(cv, _)| cv == v).map_or(0.0, |c| c.1);
                *sum += cnt * ((1.0 / n).ln() - ((cnt + 1.0) / denom).ln());
            }
        }

        let vcs: Vec<f64> = values.iter().map(|(_, s)| *s).collect();
        let log_z = log_sum_exp_with_zeros(&vcs, domain.saturating_sub(values.len()));
        let unobserved_mass = if log_z.is_finite() {
            (-log_z).exp()
        } else {
            1.0 / domain as f64 // no observed values and an empty domain
        };
        let vote_sum = |v: ValueId| values.iter().find(|(ev, _)| *ev == v).map(|(_, s)| *s);
        for (g, v, weight, full_vote) in rows {
            let p = vote_sum(v).map_or(unobserved_mass, |s| (s - log_z).exp());
            truth_of_group[g] = p;
            // p(V_d = v | X, C_g = 1): raise this group's vote from
            // weight·vote to the full vote and renormalize.
            truth_given_provided[g] = if log_z.is_finite() && full_vote != 0.0 {
                let a = vote_sum(v).unwrap_or(0.0) - log_z;
                let eb = (a + (1.0 - weight) * full_vote).exp();
                (eb / (1.0 - a.exp() + eb)).clamp(0.0, 1.0)
            } else {
                p
            };
            covered_group[g] = vote_sum(v).is_some();
        }
        entries_per_item.push(
            values
                .iter()
                .map(|(v, s)| (*v, (s - log_z).exp()))
                .collect(),
        );
        unobserved.push(unobserved_mass);
    }

    ValueLayerOutput {
        posteriors: ItemPosteriors::from_parts(entries_per_item, unobserved),
        truth_of_group,
        truth_given_provided,
        covered_group,
    }
}

/// Eq. 28: a source's accuracy is the correctness-weighted mean truth of
/// its triples. Sources below `cfg.min_source_support` (or with no
/// correctness mass) keep their accuracy and turn inactive.
pub fn update_source_accuracy(
    cube: &ObservationCube,
    correctness: &[f64],
    truth: &[f64],
    cfg: &ModelConfig,
    params: &mut Params,
    active: &mut [bool],
) {
    for (w, active) in active.iter_mut().enumerate() {
        let groups = cube.source_groups(SourceId::new(w as u32));
        let groups = || groups.iter().map(|&g| g as usize);
        let num = exact_sum(groups().map(|g| correctness[g] * truth[g]));
        let den = exact_sum(groups().map(|g| correctness[g]));
        *active = !(groups().len() < cfg.min_source_support || den <= 1e-12);
        if *active {
            params.source_accuracy[w] = clamp_quality(num / den);
        }
    }
}

/// γ̂ = expected provided mass over the slot universe: each source can
/// provide one of `n + 1` domain values for each item it talks about.
/// A source's groups ascend, so its distinct items are the runs of their
/// items.
pub fn estimate_gamma(cube: &ObservationCube, correctness: &[f64], cfg: &ModelConfig) -> f64 {
    if !cfg.estimate_gamma || correctness.is_empty() {
        return cfg.gamma;
    }
    let mut slots = 0usize;
    for w in 0..cube.num_sources() {
        let groups = cube.source_groups(SourceId::new(w as u32));
        let item = |g: u32| cube.groups()[g as usize].item;
        let items = groups
            .windows(2)
            .filter(|p| item(p[0]) != item(p[1]))
            .count()
            + usize::from(!groups.is_empty());
        slots += items * (cfg.n_false_values + 1);
    }
    clamp_quality(exact_sum(correctness.iter().copied()) / (slots.max(1) as f64))
}

/// Eqs. 32–33 + Eq. 7 in one pass over the cube's cells:
/// `P_e = Σ conf·p(C) / Σ conf` over the extractor's cells,
/// `R_e = Σ conf·p(C) / Σ_{g : e ∈ candidates(source(g))} p(C_g)`, and
/// `Q_e` derived from both and γ̂.
pub fn update_extractor_quality(
    cube: &ObservationCube,
    correctness: &[f64],
    cfg: &ModelConfig,
    params: &mut Params,
) {
    let ne = cube.num_extractors();
    let mut num = vec![ExactSum::default(); ne];
    let mut pden = vec![ExactSum::default(); ne];
    for (g, _grp, cells) in cube.iter_with_cells() {
        for c in cells {
            let conf = cfg.effective_confidence(c.confidence);
            num[c.extractor.index()].add(conf * correctness[g]);
            pden[c.extractor.index()].add(conf);
        }
    }
    let rden = match cfg.absence_policy {
        // Eq. 30 literally: the total provided mass, for every extractor.
        AbsencePolicy::AllExtractors => vec![exact_sum(correctness.iter().copied()); ne],
        AbsencePolicy::SourceCandidates => {
            let mut rden = vec![ExactSum::default(); ne];
            for w in 0..cube.num_sources() {
                let w = SourceId::new(w as u32);
                for &g in cube.source_groups(w) {
                    for e in cube.extractors_on_source(w) {
                        rden[e.index()].add(correctness[g as usize]);
                    }
                }
            }
            rden.iter().map(ExactSum::finish).collect()
        }
    };
    let gamma = estimate_gamma(cube, correctness, cfg);
    for e in 0..ne {
        let (num, pden, rden) = (num[e].finish(), pden[e].finish(), rden[e]);
        if pden > 1e-12 {
            params.precision[e] = clamp_quality(num / pden);
        }
        if rden > 1e-12 {
            params.recall[e] = clamp_quality(num / rden);
        }
        params.q[e] = q_from_precision_recall(params.precision[e], params.recall[e], gamma);
    }
}

/// The correctly rounded sum of `xs`.
fn exact_sum(xs: impl Iterator<Item = f64>) -> f64 {
    let mut sum = ExactSum::default();
    sum.extend(xs);
    sum.finish()
}

/// Algorithm 1 from `start`, one EM fit: the oracle for the engine's
/// `run_em`, the same driver over its own `round`. The copy-aware refit
/// loop is not part of it; hand it the factors the engine reports it ran
/// with ([`EmState::discounted`]).
pub fn fit(cube: &ObservationCube, cfg: &ModelConfig, start: EmState) -> FusionReport {
    let mut values = empty_values(cube.num_items(), cube.num_groups(), cfg);
    let mut s = start;
    let Ok(trace) = iterate(cfg, s.rounds, || round(cube, cfg, &mut s, &mut values));
    FusionReport::multi_layer(s, values, trace)
}

/// One round of Algorithm 1 over `s`: α when due (Eq. 26), correctness,
/// the value layer into `values`, and both M-steps. Returns its Δ and
/// log-likelihood; it cannot fail.
fn round(
    cube: &ObservationCube,
    cfg: &ModelConfig,
    s: &mut EmState,
    values: &mut ValueLayerOutput,
) -> Result<(f64, f64), Infallible> {
    if let Some(truth) = s.truth.as_ref().filter(|_| s.alpha_due(cfg)) {
        update_alpha(&mut s.alpha, cube, truth, &s.params, cfg);
    }
    let votes = vote_counter(cube, &s.params, cfg);
    s.correctness = estimate_correctness(cube, &votes, &s.alpha, cfg);
    let c = &s.correctness;
    *values = estimate_values(cube, c, &s.params, cfg, &s.active, s.discount.as_ref());
    let prev = s.params.clone();
    let (cond, truth) = (&values.truth_given_provided, &values.truth_of_group);
    update_source_accuracy(cube, c, cond, cfg, &mut s.params, &mut s.active);
    update_extractor_quality(cube, c, cfg, &mut s.params);
    let ll = (c.iter().zip(truth)).map(|(&c, &v)| map_confidence_ll(c) + map_confidence_ll(v));
    s.truth = Some(truth.clone());
    s.rounds += 1;
    Ok((s.params.max_abs_delta(&prev), exact_sum(ll)))
}

/// The single-layer E-step (Eqs. 2–3) over the pair cube `pc`, item by
/// item: every claim (group) of an active pair-source votes
/// `ln(n·A_s/(1−A_s))` for its value, and POPACCU's popularity counts every
/// claim. Each claim's truth goes to `truth[g]`.
fn pair_estep(
    pc: &ObservationCube,
    acc: &[f64],
    active: &[bool],
    cfg: &ModelConfig,
    truth: &mut [f64],
) -> ItemPosteriors {
    let n = cfg.n_false_values as f64;
    let domain = cfg.n_false_values + 1;
    let mut entries_per_item = Vec::with_capacity(pc.num_items());
    let mut unobserved = Vec::with_capacity(pc.num_items());
    for d in 0..pc.num_items() {
        let claims: Vec<(usize, &TripleGroup)> = (pc.groups_of_item(ItemId::new(d as u32)))
            .map(|g| (g, &pc.groups()[g]))
            .collect();
        let mut votes: Vec<(ValueId, f64)> = Vec::new(); // (v, vote sum), first-seen order
        for (_, grp) in claims.iter().filter(|(_, grp)| active[grp.source.index()]) {
            let a = clamp_quality(acc[grp.source.index()]);
            let vote = (n * a / (1.0 - a)).ln();
            match votes.iter_mut().find(|(v, _)| *v == grp.value) {
                Some((_, s)) => *s += vote,
                None => votes.push((grp.value, vote)),
            }
        }
        if cfg.value_model == ValueModel::PopAccu && !claims.is_empty() {
            let denom = claims.len() as f64 + n + 1.0;
            for (v, s) in votes.iter_mut() {
                let cnt = claims.iter().filter(|(_, grp)| grp.value == *v).count() as f64;
                *s += cnt * ((1.0 / n).ln() - ((cnt + 1.0) / denom).ln());
            }
        }
        let vcs: Vec<f64> = votes.iter().map(|(_, s)| *s).collect();
        let log_z = log_sum_exp_with_zeros(&vcs, domain.saturating_sub(votes.len()));
        let entries: Vec<(ValueId, f64)> =
            votes.iter().map(|(v, s)| (*v, (s - log_z).exp())).collect();
        let um = if log_z.is_finite() {
            (-log_z).exp()
        } else {
            1.0 / domain as f64
        };
        for &(g, grp) in &claims {
            truth[g] = entries
                .iter()
                .find(|(v, _)| *v == grp.value)
                .map_or(um, |e| e.1);
        }
        entries_per_item.push(entries);
        unobserved.push(um);
    }
    ItemPosteriors::from_parts(entries_per_item, unobserved)
}

/// The single-layer baseline (§2.2), serially — the oracle for
/// [`crate::SingleLayerModel`]: ACCU / POPACCU over the pair cube's
/// (page, extractor) sources, each claim a pair-cube group.
pub fn fit_single_layer(
    cube: &ObservationCube,
    cfg: &ModelConfig,
    init: &QualityInit,
) -> FusionReport {
    let (pairs, pc) = pair_cube(cube, cfg);
    let claims_of = |s: usize| pc.source_groups(SourceId::new(s as u32));
    let active: Vec<bool> = (0..pairs.len())
        .map(|s| claims_of(s).len() >= cfg.min_source_support)
        .collect();
    let default = cfg.default_source_accuracy;
    let mut acc: Vec<f64> = (pairs.iter())
        .map(|&(w, _)| page_init(init, w).map_or(default, clamp_quality))
        .collect();

    let mut truth = vec![0.0f64; pc.num_groups()];
    let mut posteriors = empty_values(cube.num_items(), 0, cfg).posteriors;
    let round = || {
        posteriors = pair_estep(&pc, &acc, &active, cfg, &mut truth);
        // M-step (Eq. 4): an active pair's accuracy is the mean truth of
        // its claims.
        let mut delta = 0.0f64;
        for s in (0..pairs.len()).filter(|&s| active[s]) {
            let num = exact_sum(claims_of(s).iter().map(|&g| truth[g as usize]));
            let new = clamp_quality(num / claims_of(s).len() as f64);
            delta = delta.max((new - acc[s]).abs());
            acc[s] = new;
        }
        let ll = exact_sum(truth.iter().map(|&p| map_confidence_ll(p)));
        Ok::<_, Infallible>((delta, ll))
    };
    let Ok(trace) = iterate(cfg, 0, round);

    // A page's accuracy is the claim-weighted mean of its active pairs'.
    let mut src_num = vec![0.0f64; cube.num_sources()];
    let mut src_den = vec![0.0f64; cube.num_sources()];
    for (s, (w, _)) in pairs.iter().enumerate().filter(|&(s, _)| active[s]) {
        src_num[w.index()] += claims_of(s).len() as f64 * acc[s];
        src_den[w.index()] += claims_of(s).len() as f64;
    }
    let source_accuracy = (src_num.iter().zip(&src_den))
        .map(|(n, d)| if *d > 0.0 { n / d } else { default })
        .collect();
    let mut covered_group = vec![false; cube.num_groups()];
    for (g, grp, e) in claims(cube, cfg) {
        covered_group[g] |= active[pairs.binary_search(&(grp.source, e)).expect("claimed pair")];
    }
    let groups = cube.groups().iter();
    let truth_of_group = groups.map(|g| posteriors.prob(g.item, g.value)).collect();
    let mut active_source = vec![false; cube.num_sources()];
    for (s, (w, _)) in pairs.iter().enumerate() {
        active_source[w.index()] |= active[s];
    }
    FusionReport {
        params: Params::sources_only(source_accuracy),
        posteriors,
        truth_of_group,
        covered_group,
        active_source,
        source_independence: None,
        copy_evidence: None,
        trace,
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
    use kbt_datamodel::{CubeBuilder, ExtractorId, Observation};

    fn obs(e: u32, w: u32, d: u32, v: u32, confidence: f64) -> Observation {
        Observation {
            extractor: ExtractorId::new(e),
            source: SourceId::new(w),
            item: ItemId::new(d),
            value: ValueId::new(v),
            confidence,
        }
    }

    fn cube_of(observations: &[Observation]) -> ObservationCube {
        let mut b = CubeBuilder::new();
        for o in observations {
            b.push(*o);
        }
        b.build()
    }

    fn flat_params(sources: usize, accuracy: f64) -> Params {
        Params {
            source_accuracy: vec![accuracy; sources],
            precision: vec![0.9],
            recall: vec![0.9],
            q: vec![0.1],
        }
    }

    /// Example 3.2: six sources with A = 0.6, n = 10; USA provided by
    /// four sources, Kenya by two → p(USA) ≈ 0.995, p(Kenya) ≈ 0.004.
    #[test]
    fn example_3_2_posteriors() {
        let claims: Vec<_> = (0..6)
            .map(|w| obs(0, w, 0, u32::from(w >= 4), 1.0))
            .collect();
        let cube = cube_of(&claims);
        let (item, usa, kenya) = (ItemId::new(0), ValueId::new(0), ValueId::new(1));
        let cfg = ModelConfig::default(); // n = 10
        let out = estimate_values(
            &cube,
            &vec![1.0; cube.num_groups()],
            &flat_params(6, 0.6),
            &cfg,
            &[true; 6],
            None,
        );
        let (p_usa, p_kenya) = (
            out.posteriors.prob(item, usa),
            out.posteriors.prob(item, kenya),
        );
        assert!((p_usa - 0.995).abs() < 2e-3, "p(USA) = {p_usa}");
        assert!((p_kenya - 0.004).abs() < 2e-3, "p(Kenya) = {p_kenya}");
        let p_other = out.posteriors.prob(item, ValueId::new(7));
        assert!(p_other < 1e-3 && p_other > 0.0);
        let total = out.posteriors.observed_mass(item) + p_other * 9.0;
        assert!((total - 1.0).abs() < 1e-9, "total = {total}");
        for (g, grp) in cube.groups().iter().enumerate() {
            let expect = if grp.value == usa { p_usa } else { p_kenya };
            assert_eq!(out.truth_of_group[g], expect);
        }
    }

    #[test]
    fn correctness_weights_and_map_thresholding_shape_the_votes() {
        // v0 claimed by 2 sources with high correctness, v1 by 3 with
        // near-zero correctness (likely extraction errors).
        let claims: Vec<_> = (0..5)
            .map(|w| obs(0, w, 0, u32::from(w >= 2), 1.0))
            .collect();
        let cube = cube_of(&claims);
        let item = ItemId::new(0);
        let correctness: Vec<f64> = cube
            .groups()
            .iter()
            .map(|g| {
                if g.value == ValueId::new(0) {
                    0.95
                } else {
                    0.05
                }
            })
            .collect();
        let params = flat_params(5, 0.7);
        let weighted = ModelConfig::default();
        let out = estimate_values(&cube, &correctness, &params, &weighted, &[true; 5], None);
        let p = |out: &ValueLayerOutput, v| out.posteriors.prob(item, ValueId::new(v));
        assert!(
            p(&out, 0) > p(&out, 1),
            "weighted votes override raw counts"
        );
        // MAP weighting: 0.95 → full vote, 0.05 → no vote.
        let map = ModelConfig {
            correctness_weighting: CorrectnessWeighting::Map,
            ..weighted.clone()
        };
        let out = estimate_values(&cube, &correctness, &params, &map, &[true; 5], None);
        assert!(p(&out, 0) > 0.5 && p(&out, 1) < 0.2);
        // Inactive sources do not vote and leave their groups uncovered.
        let out = estimate_values(&cube, &correctness, &params, &weighted, &[false; 5], None);
        assert!(out.covered_group.iter().all(|c| !c));
        assert!(
            (p(&out, 0) - 1.0 / 11.0).abs() < 1e-9,
            "uniform over domain"
        );
        // POPACCU stays normalized and keeps the majority value ahead.
        let pop = ModelConfig {
            value_model: ValueModel::PopAccu,
            ..weighted
        };
        let out = estimate_values(&cube, &[1.0; 5], &params, &pop, &[true; 5], None);
        assert!(p(&out, 1) > p(&out, 0), "three claims beat two");
        let total = out.posteriors.observed_mass(item) + p(&out, 9) * 9.0;
        assert!((total - 1.0).abs() < 1e-9);
    }

    /// W0 provides two triples; W1 provides one. In group order:
    /// (item 0, W0), (item 0, W1), (item 1, W0).
    fn cube_two_sources() -> ObservationCube {
        cube_of(&[
            obs(0, 0, 0, 0, 1.0),
            obs(0, 0, 1, 1, 1.0),
            obs(1, 1, 0, 2, 1.0),
        ])
    }

    #[test]
    fn source_accuracy_is_weighted_average_of_truth() {
        let cube = cube_two_sources();
        let cfg = ModelConfig::default();
        let mut params = Params::init(&cube, &cfg, &QualityInit::Default);
        let mut active = vec![false; 2];
        // W0 groups: truth .9 and .5, correctness 1 and .5 →
        // A = (1·.9 + .5·.5) / (1 + .5) = 1.15/1.5.
        let (c, t) = ([1.0, 1.0, 0.5], [0.9, 0.2, 0.5]);
        update_source_accuracy(&cube, &c, &t, &cfg, &mut params, &mut active);
        assert!((params.source_accuracy[0] - 1.15 / 1.5).abs() < 1e-12);
        assert!((params.source_accuracy[1] - 0.2).abs() < 1e-12);
        assert!(active[0] && active[1]);
        // Below the support threshold a source stays default and inactive.
        let cfg = ModelConfig {
            min_source_support: 2,
            ..cfg
        };
        let mut params = Params::init(&cube, &cfg, &QualityInit::Default);
        update_source_accuracy(
            &cube,
            &[1.0; 3],
            &[0.9, 0.1, 0.9],
            &cfg,
            &mut params,
            &mut active,
        );
        assert!(active[0] && !active[1], "W1 has 1 triple < support 2");
        assert_eq!(params.source_accuracy[1], 0.8, "stays at default");
    }

    #[test]
    fn extractor_precision_is_mean_correctness_of_its_extractions() {
        let cube = cube_two_sources();
        // Scope recall to visited sources and hold γ fixed so Eq. 7 is
        // directly checkable.
        let cfg = ModelConfig {
            absence_policy: AbsencePolicy::SourceCandidates,
            estimate_gamma: false,
            ..ModelConfig::default()
        };
        let mut params = Params::init(&cube, &cfg, &QualityInit::Default);
        // E0 extracted groups 0,2 (correctness .8, .4) → P = .6.
        // E1 extracted group 1 (correctness 1.0) → P = 1 → clamped .999.
        update_extractor_quality(&cube, &[0.8, 1.0, 0.4], &cfg, &mut params);
        assert!((params.precision[0] - 0.6).abs() < 1e-12);
        assert!((params.precision[1] - 0.999).abs() < 1e-12);
        // Recall of E0: num = 1.2 of W0's mass 1.2 → R = 1 → clamped.
        assert!((params.recall[0] - 0.999).abs() < 1e-9);
        let expect_q0 = q_from_precision_recall(0.6, 0.999, cfg.gamma);
        assert!((params.q[0] - expect_q0).abs() < 1e-12);
    }

    #[test]
    fn recall_counts_missed_triples_and_confidence_discounts_unsure_ones() {
        // E0 and E1 both active on W0; E1 misses one of the two provided
        // triples → R = 1 / (1 + 1).
        let cube = cube_of(&[
            obs(0, 0, 0, 0, 1.0),
            obs(0, 0, 1, 0, 1.0),
            obs(1, 0, 0, 0, 1.0),
        ]);
        let cfg = ModelConfig::default();
        let mut params = Params::init(&cube, &cfg, &QualityInit::Default);
        update_extractor_quality(&cube, &[1.0, 1.0], &cfg, &mut params);
        assert!((params.recall[1] - 0.5).abs() < 1e-12);
        assert!((params.recall[0] - 0.999).abs() < 1e-9);
        // P = (0.5·0 + 1·1) / (0.5 + 1) = 2/3 — an unsure wrong
        // extraction costs less than a confident one would.
        let cube = cube_of(&[obs(0, 0, 0, 0, 0.5), obs(0, 0, 1, 0, 1.0)]);
        let mut params = Params::init(&cube, &cfg, &QualityInit::Default);
        update_extractor_quality(&cube, &[0.0, 1.0], &cfg, &mut params);
        assert!((params.precision[0] - 2.0 / 3.0).abs() < 1e-12);
    }
}
