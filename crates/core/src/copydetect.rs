//! Copy detection between sources (Section 5.4.2, item 4) and the
//! copy-aware vote discount it feeds.
//!
//! "Some websites scrape data from other websites. Identifying such
//! websites requires techniques such as copy detection" — the paper cites
//! Dong et al. [7, 8], whose core insight is that *shared false values*
//! are strong evidence of copying: two independent sources rarely make
//! the same mistake, because each false value is one of `n` alternatives,
//! while a copier reproduces its victim's mistakes verbatim.
//!
//! This module implements that signal over the cube in three stages:
//!
//! 1. **pair counts** — one pass of `kbt_datamodel::pair_counts` (the
//!    row-wise sparse-accumulator kernel: `Σ_d fan-in(d)²/2` dense slot
//!    bumps, `O(sources)` memory per worker, no hashing and no merge)
//!    yields the exact overlap, agreement and exclusive-agreement counts
//!    of every pair reaching [`CopyDetectConfig::min_overlap`]. The
//!    counts depend on the cube alone, so the copy-aware refit loop
//!    gathers them once,
//! 2. **scoring** — each pair's counts become a likelihood-ratio score
//!    under the current accuracy estimates, and the evidence is sorted,
//! 3. **discount loop** — [`CopyDiscount`] turns the evidence into
//!    per-source independence factors `I(w)` that down-weight a
//!    dependent source's votes inside the value-layer E-step (the
//!    ACCUCOPY-style correction; see `MultiLayerModel`).
//!
//! The counts are exact integers and the kernel's workers own disjoint
//! source ranges, so the evidence is identical at any thread count; the
//! `copydetect_engine` and `coclaim_census` integration tests pin it to a
//! scalar claim-pair expansion at 1, 2, and 8 threads.

use kbt_datamodel::{pair_counts, ObservationCube, PairCounts, SourceId};

/// Evidence about one source pair.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyEvidence {
    /// The pair (ordered, `a < b`; copy direction is not identified —
    /// see \[8\] for the directional test).
    pub a: SourceId,
    /// Second source of the pair.
    pub b: SourceId,
    /// Items both sources make claims about.
    pub overlap: usize,
    /// Overlapping items where both pick the same value.
    pub agree: usize,
    /// *Exclusive* agreements: values claimed by these two sources and
    /// nobody else — the smoking gun. Two honest sources rarely share a
    /// mistake (each false value is one of `n` options), and their shared
    /// *true* values are normally echoed by other honest sources; only a
    /// copier produces many two-party-exclusive agreements. Exclusivity
    /// is also robust to a copier's doubled votes corrupting the value
    /// posteriors (which would launder a naive "shared false value"
    /// test).
    pub agree_exclusive: usize,
    /// Log-likelihood ratio of the observed agreement pattern under
    /// copying versus independence; larger = more likely copied.
    pub score: f64,
}

/// Configuration for the detector and the copy-aware discount.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyDetectConfig {
    /// Minimum overlapping claims for a pair to be scored; thinner pairs
    /// are dropped when the counting pass flushes them.
    pub min_overlap: usize,
    /// Domain size `n` (false alternatives per item) used in the
    /// independence model: two honest sources share a given mistake with
    /// probability `≈ (1−A_a)(1−A_b)/n`, a copier with `≈ (1−A)`, so each
    /// exclusive shared value is worth `ln(n / √((1−A_a)(1−A_b)))` bits of
    /// copy evidence.
    pub n_false_values: usize,
    /// Evidence score above which a pair is treated as a dependency when
    /// computing [`CopyDiscount`] independence factors. In log-likelihood
    /// units: the default (10) demands the agreement pattern be `e^10`
    /// times likelier under copying than under independence, which a
    /// genuine copier clears after a handful of shared mistakes while
    /// honest pairs (whose exclusive agreements are rare accidents) stay
    /// well below.
    pub score_threshold: f64,
    /// Floor for the independence factor `I(w)`: even a certain copier
    /// keeps this fraction of its vote, so a wrongly-accused source can
    /// never be silenced outright and the E-step stays numerically tame.
    pub min_independence: f64,
    /// How many detect → discount → refit rounds the copy-aware fusion
    /// loop runs when copy detection is attached to a `ModelConfig` with
    /// [`CopyDetectConfig::discount`] set. One round (the default)
    /// recovers the planted-copier scenarios; more rounds help when
    /// discounting one copier unmasks another. Factors only deepen
    /// across rounds (element-wise min with the previous round), so an
    /// extra round can never lift an earlier discount and revert the fit
    /// toward copy-blind; the loop stops early once the factors stop
    /// changing.
    pub discount_rounds: usize,
    /// Whether the evidence feeds back into fusion. `false` (the
    /// default): detection is a pure diagnostic — evidence is attached
    /// to the result but no vote is discounted, at any layer. `true`:
    /// the engine runs the CopyDiscount loop (detect → independence
    /// factors → refit from the run's initialization with dependent
    /// sources' votes down-weighted), and
    /// `TrustPipeline::copy_detection` hands the detector to the engine
    /// instead of running it post-hoc.
    pub discount: bool,
}

impl Default for CopyDetectConfig {
    fn default() -> Self {
        Self {
            min_overlap: 5,
            n_false_values: 10,
            score_threshold: 10.0,
            min_independence: 0.05,
            discount_rounds: 1,
            discount: false,
        }
    }
}

/// Per-source independence factors `I(w) ∈ [min_independence, 1]` — the
/// CopyDiscount stage of copy-aware fusion.
///
/// The paper's ACCUCOPY lineage \[8\] counts a source's vote only with the
/// probability that it acted independently. We reproduce that shape: each
/// pair whose evidence score exceeds [`CopyDetectConfig::score_threshold`]
/// marks its *dependent* member (the lower-accuracy source; ties go to
/// the higher id), whose factor is multiplied by `1 − p_copy` with
/// `p_copy = excess / (excess + 1)` for `excess = score − threshold`. The
/// value-layer E-step then scales the source's vote weight
/// `ln(n·A_w/(1−A_w))` by `I(w)`, so a copier's duplicated mistakes stop
/// counting as independent confirmation.
#[derive(Debug, Clone, PartialEq)]
pub struct CopyDiscount {
    scale: Vec<f64>,
}

impl CopyDiscount {
    /// No discounts: every source fully independent.
    pub fn neutral(num_sources: usize) -> Self {
        Self {
            scale: vec![1.0; num_sources],
        }
    }

    /// Wrap precomputed independence factors (e.g. carried over from a
    /// previous session run). Values are clamped to `(0, 1]` sanity.
    pub fn from_scales(mut scale: Vec<f64>) -> Self {
        for s in &mut scale {
            if !s.is_finite() {
                *s = 1.0;
            }
            *s = s.clamp(f64::MIN_POSITIVE, 1.0);
        }
        Self { scale }
    }

    /// Derive independence factors from detection evidence.
    pub fn from_evidence(
        evidence: &[CopyEvidence],
        source_accuracy: &[f64],
        num_sources: usize,
        cfg: &CopyDetectConfig,
    ) -> Self {
        let mut scale = vec![1.0; num_sources];
        for ev in evidence {
            let excess = ev.score - cfg.score_threshold;
            if excess.is_nan() || excess <= 0.0 {
                continue;
            }
            // The detector does not identify direction; deterministically
            // blame the lower-accuracy member (a copier's estimate is
            // inflated *at most* to its victim's), ties to the higher id.
            let (aa, ab) = (source_accuracy[ev.a.index()], source_accuracy[ev.b.index()]);
            let dep = if aa < ab { ev.a } else { ev.b };
            let p_copy = excess / (excess + 1.0);
            scale[dep.index()] *= 1.0 - p_copy;
        }
        let floor = cfg.min_independence.clamp(f64::MIN_POSITIVE, 1.0);
        for s in &mut scale {
            *s = s.max(floor);
        }
        Self { scale }
    }

    /// The independence factor of source `w`.
    pub fn factor(&self, w: SourceId) -> f64 {
        self.scale[w.index()]
    }

    /// All factors, indexed by source.
    pub fn as_slice(&self) -> &[f64] {
        &self.scale
    }

    /// Whether every factor is exactly 1 (discounting would be a no-op).
    pub fn is_neutral(&self) -> bool {
        self.scale.iter().all(|&s| s == 1.0)
    }
}

/// Score all source pairs with sufficient overlap from per-source
/// accuracy estimates: any engine's trust vector works (this is what
/// `TrustPipeline` feeds from a `FusionReport`).
///
/// Cost is `Σ_d fan-in(d)²/2` counter bumps — quadratic in per-item
/// fan-in, which is small in practice — split over the ambient
/// `kbt_flume` worker threads by source range. Returns bit-for-bit
/// identical evidence at any thread count.
pub fn detect_copies_from_accuracy(
    cube: &ObservationCube,
    source_accuracy: &[f64],
    cfg: &CopyDetectConfig,
) -> Vec<CopyEvidence> {
    score_pair_stats(&collect_pair_stats(cube, cfg), source_accuracy, cfg)
}

/// Count the accuracy-independent statistics of every pair reaching
/// `min_overlap`, sorted by `(a, b)` — everything the detector reads from
/// the (immutable) cube. Collected once, then re-scored per accuracy
/// vector: the copy-aware fusion loop re-detects after every refit, and
/// only the scores change between rounds.
pub(crate) fn collect_pair_stats(
    cube: &ObservationCube,
    cfg: &CopyDetectConfig,
) -> Vec<PairCounts> {
    pair_counts(cube, cfg.min_overlap)
}

/// Score a pair-stats table against an accuracy vector and sort the
/// evidence — the per-round half of detection.
pub(crate) fn score_pair_stats(
    stats: &[PairCounts],
    source_accuracy: &[f64],
    cfg: &CopyDetectConfig,
) -> Vec<CopyEvidence> {
    let n = cfg.n_false_values.max(1) as f64;
    let mut out: Vec<CopyEvidence> = stats
        .iter()
        .map(|s| {
            let (overlap, agree, agree_exclusive) = (
                s.overlap as usize,
                s.agree as usize,
                s.agree_exclusive as usize,
            );
            CopyEvidence {
                a: s.a,
                b: s.b,
                overlap,
                agree,
                agree_exclusive,
                score: pair_score(
                    overlap,
                    agree,
                    agree_exclusive,
                    source_accuracy[s.a.index()],
                    source_accuracy[s.b.index()],
                    n,
                ),
            }
        })
        .collect();
    sort_evidence(&mut out);
    out
}

/// Assumed conditional copy rate of the copying hypothesis: a copier
/// reproduces its victim's value on a co-claimed item with at least this
/// probability (the remainder behaves independently). Fixed, like the
/// paper's `c` in the ACCUCOPY lineage [8].
const COPY_RATE: f64 = 0.8;

/// The likelihood-ratio score of one pair. Two terms:
///
/// * **exclusive agreements** — two sources agree on a false value with
///   probability ≈ (1−A)²/n per overlapping item under independence,
///   versus ≈ (1−A) for a copier, so each two-party-exclusive shared
///   value is worth `ln(n / √((1−A_a)(1−A_b)))`;
/// * **agreement rate** — the binomial log-likelihood ratio of the
///   observed agreement count under copying (rate
///   `r = c + (1−c)·q`) versus independence (rate
///   `q = A_a·A_b + (1−A_a)(1−A_b)/n`). A verbatim copier agrees on
///   essentially every overlapping item, which honest sources only do
///   when both accuracies are high — in which case `q ≈ 1` and the term
///   vanishes, so honest consensus is not penalized while
///   agree-on-everything pairs of *mediocre* estimated accuracy are.
fn pair_score(
    overlap: usize,
    agree: usize,
    agree_exclusive: usize,
    aa: f64,
    ab: f64,
    n: f64,
) -> f64 {
    let aa = aa.clamp(0.01, 0.99);
    let ab = ab.clamp(0.01, 0.99);
    let miss = ((1.0 - aa) * (1.0 - ab)).max(1e-6);
    let per_mistake = (n / miss.sqrt()).ln();
    let q = (aa * ab + miss / n).clamp(1e-6, 1.0 - 1e-6);
    let r = COPY_RATE + (1.0 - COPY_RATE) * q;
    let rate_llr =
        agree as f64 * (r / q).ln() + (overlap - agree) as f64 * ((1.0 - r) / (1.0 - q)).ln();
    agree_exclusive as f64 * per_mistake + rate_llr
}

/// Sort evidence by score (descending), ties broken by pair id so the
/// ordering is deterministic regardless of accumulation order. Uses
/// `f64::total_cmp`: a NaN score (e.g. from degenerate upstream
/// accuracies) sorts last instead of panicking the pipeline.
fn sort_evidence(out: &mut [CopyEvidence]) {
    out.sort_unstable_by(|x, y| {
        x.score
            .is_nan()
            .cmp(&y.score.is_nan())
            .then_with(|| y.score.total_cmp(&x.score))
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FusionModel, ModelConfig, MultiLayerModel, QualityInit};
    use kbt_datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, ValueId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Sources 0–3 are independent (accuracy 0.7); source 4 copies
    /// source 3 verbatim, including its mistakes.
    fn corpus_with_copier(seed: u64) -> kbt_datamodel::ObservationCube {
        let mut rng = StdRng::seed_from_u64(seed);
        let items = 60u32;
        let domain = 11u32;
        let truth: Vec<u32> = (0..items).map(|_| rng.gen_range(0..domain)).collect();
        let mut provided: Vec<Vec<u32>> = Vec::new();
        for _w in 0..4 {
            provided.push(
                (0..items)
                    .map(|d| {
                        if rng.gen::<f64>() < 0.7 {
                            truth[d as usize]
                        } else {
                            let mut v = rng.gen_range(0..domain - 1);
                            if v >= truth[d as usize] {
                                v += 1;
                            }
                            v
                        }
                    })
                    .collect(),
            );
        }
        provided.push(provided[3].clone()); // the copier
        let mut b = CubeBuilder::new();
        for (w, vals) in provided.iter().enumerate() {
            for (d, &v) in vals.iter().enumerate() {
                for e in 0..2u32 {
                    b.push(Observation::certain(
                        ExtractorId::new(e),
                        SourceId::new(w as u32),
                        ItemId::new(d as u32),
                        ValueId::new(v),
                    ));
                }
            }
        }
        b.build()
    }

    /// Copy evidence scored from a default multi-layer fit of `cube`.
    fn fitted_evidence(cube: &ObservationCube, cfg: &CopyDetectConfig) -> Vec<CopyEvidence> {
        let report = MultiLayerModel::new(ModelConfig::default()).fit(cube, &QualityInit::Default);
        detect_copies_from_accuracy(cube, report.source_trust(), cfg)
    }

    #[test]
    fn copier_pair_scores_highest() {
        let cube = corpus_with_copier(5);
        let evidence = fitted_evidence(&cube, &CopyDetectConfig::default());
        assert!(!evidence.is_empty());
        let top = &evidence[0];
        assert_eq!(
            (top.a, top.b),
            (SourceId::new(3), SourceId::new(4)),
            "the planted copier pair must rank first; got {top:?}"
        );
        assert!(
            top.agree_exclusive > 0,
            "copying shows in exclusive agreements"
        );
        // Independent pairs share far fewer false values.
        let independents: Vec<&CopyEvidence> = evidence
            .iter()
            .filter(|e| !(e.a == SourceId::new(3) && e.b == SourceId::new(4)))
            .collect();
        let max_indep = independents
            .iter()
            .map(|e| e.agree_exclusive)
            .max()
            .unwrap_or(0);
        assert!(
            top.agree_exclusive > max_indep,
            "copier shares {} exclusive values vs max independent {max_indep}",
            top.agree_exclusive
        );
    }

    #[test]
    fn overlap_threshold_filters_thin_pairs() {
        let cube = corpus_with_copier(9);
        let cfg = CopyDetectConfig {
            min_overlap: 1_000_000,
            ..CopyDetectConfig::default()
        };
        assert!(fitted_evidence(&cube, &cfg).is_empty());
    }

    #[test]
    fn evidence_is_sorted_by_score() {
        let cube = corpus_with_copier(13);
        let evidence = fitted_evidence(&cube, &CopyDetectConfig::default());
        for w in evidence.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    /// Regression: degenerate accuracies (hard 0.0 / 1.0, or NaN leaked
    /// from a divergent upstream estimate) must never panic the sort —
    /// `partial_cmp(..).expect("score NaN")` used to.
    #[test]
    fn degenerate_accuracies_cannot_panic_the_sort() {
        let cube = corpus_with_copier(3);
        let cfg = CopyDetectConfig::default();
        // Hard 0/1 accuracies: clamped, finite scores, sorted.
        let hard: Vec<f64> = (0..cube.num_sources())
            .map(|w| if w % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let ev = detect_copies_from_accuracy(&cube, &hard, &cfg);
        assert!(!ev.is_empty());
        assert!(ev.iter().all(|e| e.score.is_finite()));
        for w in ev.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // NaN accuracy: scores may be NaN, but detection must return
        // (NaN sorts last under total_cmp) instead of panicking.
        let mut nan = hard.clone();
        nan[3] = f64::NAN;
        let ev = detect_copies_from_accuracy(&cube, &nan, &cfg);
        assert!(!ev.is_empty());
        if let Some(i) = ev.iter().position(|e| e.score.is_nan()) {
            assert!(
                ev[i..].iter().all(|e| e.score.is_nan()),
                "NaN scores must sort after every real score"
            );
        }
    }

    #[test]
    fn discount_blames_the_lower_accuracy_member_with_a_floor() {
        let evidence = vec![
            CopyEvidence {
                a: SourceId::new(0),
                b: SourceId::new(1),
                overlap: 50,
                agree: 40,
                agree_exclusive: 20,
                score: 60.0,
            },
            CopyEvidence {
                a: SourceId::new(2),
                b: SourceId::new(3),
                overlap: 50,
                agree: 10,
                agree_exclusive: 0,
                score: -3.0, // below threshold: no discount
            },
        ];
        let acc = vec![0.9, 0.6, 0.7, 0.7];
        let cfg = CopyDetectConfig::default();
        let d = CopyDiscount::from_evidence(&evidence, &acc, 4, &cfg);
        assert_eq!(d.factor(SourceId::new(0)), 1.0, "victim keeps full vote");
        assert!(
            d.factor(SourceId::new(1)) < 0.1,
            "copier is discounted: {}",
            d.factor(SourceId::new(1))
        );
        assert!(
            d.factor(SourceId::new(1)) >= cfg.min_independence,
            "floor holds"
        );
        assert_eq!(d.factor(SourceId::new(2)), 1.0);
        assert_eq!(d.factor(SourceId::new(3)), 1.0);
        assert!(!d.is_neutral());
        assert!(CopyDiscount::neutral(4).is_neutral());
    }

    #[test]
    fn discount_tie_goes_to_the_higher_id_and_nan_scores_are_ignored() {
        let evidence = vec![
            CopyEvidence {
                a: SourceId::new(0),
                b: SourceId::new(1),
                overlap: 40,
                agree: 30,
                agree_exclusive: 15,
                score: 42.0,
            },
            CopyEvidence {
                a: SourceId::new(2),
                b: SourceId::new(3),
                overlap: 40,
                agree: 30,
                agree_exclusive: 15,
                score: f64::NAN,
            },
        ];
        let acc = vec![0.7, 0.7, 0.7, 0.7];
        let d = CopyDiscount::from_evidence(&evidence, &acc, 4, &CopyDetectConfig::default());
        assert_eq!(d.factor(SourceId::new(0)), 1.0);
        assert!(d.factor(SourceId::new(1)) < 1.0, "tie blames the higher id");
        assert_eq!(d.factor(SourceId::new(2)), 1.0, "NaN evidence is inert");
        assert_eq!(d.factor(SourceId::new(3)), 1.0);
    }

    /// The public census (`CoClaimIndex::candidate_pairs`, what the bench
    /// bin's prefilter statistic uses) and the detector's own pair table
    /// are two instantiations of one kernel: same pairs, same overlaps.
    #[test]
    fn coclaim_census_matches_detector_pair_stats() {
        let cube = corpus_with_copier(17);
        let index = kbt_datamodel::CoClaimIndex::build(&cube);
        for min_overlap in [1usize, 5, 30] {
            let census: Vec<(SourceId, SourceId, u64)> = index
                .candidate_pairs(min_overlap)
                .into_iter()
                .map(|c| (c.a, c.b, c.overlap))
                .collect();
            let cfg = CopyDetectConfig {
                min_overlap,
                ..CopyDetectConfig::default()
            };
            let stats: Vec<(SourceId, SourceId, u64)> = collect_pair_stats(&cube, &cfg)
                .iter()
                .map(|s| (s.a, s.b, s.overlap))
                .collect();
            assert_eq!(census, stats, "min_overlap {min_overlap}");
        }
    }
}
