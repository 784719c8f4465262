//! The multi-layer model (Section 3) and its EM-like driver (Algorithm 1).
//!
//! Per iteration, in the order of Algorithm 1:
//!
//! 1. estimate extraction correctness `C` (Eqs. 15, 26, 31),
//! 2. estimate item values `V` (Eqs. 23–25),
//! 3. estimate source accuracies θ1 (Eq. 28),
//! 4. estimate extractor qualities θ2 (Eqs. 32–33 + Eq. 7),
//!
//! stopping early when the parameters converge. The per-triple correctness
//! prior α is re-estimated from the previous iteration's value posteriors
//! (Eq. 26) beginning at the configured iteration (the third, by default —
//! Section 5.1.2).

use std::io;
use std::sync::Arc;

use kbt_datamodel::{
    ChunkSource, ChunkedCube, FileChunkStore, ObservationCube, ResidentChunks, StreamedChunks,
};
use kbt_flume::{ExactSum, Stopwatch};

use crate::config::{CubeResidency, ModelConfig};
use crate::copydetect::{collect_pair_stats, score_pair_stats, CopyDiscount};
use crate::correctness::{estimate_correctness, AlphaState};
use crate::model::{map_confidence_ll, ConvergenceTrace, FusionReport, IterationTrace};
use crate::mstep::update_source_accuracy;
use crate::params::{Params, QualityInit};
use crate::posterior::ItemPosteriors;
use crate::value::{estimate_values, ColValueScratch, ValueLayerOutput};
use crate::votes::VoteCounter;

/// The multi-layer KBT estimator.
#[derive(Debug, Clone, Default)]
pub struct MultiLayerModel {
    cfg: ModelConfig,
}

impl MultiLayerModel {
    /// Build a model with the given configuration.
    pub fn new(cfg: ModelConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Run Algorithm 1 and report it, per-iteration trace included.
    ///
    /// Inference runs under the per-run thread configuration of
    /// [`ModelConfig::threads`] via `kbt_flume::with_threads`. The chunked
    /// cube lives where [`ModelConfig::residency`] says (same bits); only a
    /// streamed fit's I/O can fail.
    pub fn run_traced(
        &self,
        cube: &ObservationCube,
        init: &QualityInit,
    ) -> io::Result<FusionReport> {
        self.run_traced_with_priors(cube, init, None, None)
    }

    /// [`Self::run_traced`] with the two priors a warm restart carries —
    /// the incremental-fusion entry point (`FusionSession` in
    /// `kbt-pipeline`).
    ///
    /// `prior_truth[g]` is a per-group **prior-truth hint**: the previous
    /// run's `p(V_d = v(g) | X)` for this cube's groups. The per-triple
    /// correctness prior α is re-estimated from it *before* the first
    /// round, so a warm-started run enters EM with the mature α state a
    /// cold run only reaches after `alpha_update_from` iterations.
    /// Ignored when α re-estimation is disabled.
    ///
    /// `prior_independence[w]` is a per-source **independence prior** —
    /// the previous run's `I(w)` factors, prior copy evidence: even the
    /// *first* EM fit of this run is copy-aware, so a warm restart
    /// neither re-launders a known copier's votes nor has to re-earn the
    /// discount from scratch. Factors for sources beyond the slice (new
    /// in this cube) default to 1 (fully independent).
    pub fn run_traced_with_priors(
        &self,
        cube: &ObservationCube,
        init: &QualityInit,
        prior_truth: Option<&[f64]>,
        prior_independence: Option<&[f64]>,
    ) -> io::Result<FusionReport> {
        let cfg = &self.cfg;
        kbt_flume::with_threads(cfg.threads, || {
            // The chunk view of the cube, built once per run: the
            // copy-aware loop refits the same cube several times.
            let mut sw = Stopwatch::start();
            let chunked = ChunkedCube::from_cube(cube, &cfg.chunking());
            let gather = sw.lap();
            let mut report = with_em(chunked, cfg, init, prior_truth, true, |fit| {
                copy_aware(cfg, cube, prior_independence, fit)
            })?;
            report.trace.stage_wall.chunking += gather;
            Ok(report)
        })
    }

    /// Algorithm 1 from a [`FileChunkStore`] written elsewhere — the one
    /// cube-less entry point. No [`ObservationCube`] (or [`ChunkedCube`])
    /// is ever materialized: only the O(groups) posterior vectors, the
    /// per-source/per-extractor tables, and one decoded frame per scan
    /// worker are resident; a scan runs on at most `max_resident_chunks`
    /// workers (`0` = as many as the thread count allows).
    /// [`FileChunkStore::frames_read`] counts the reads: each frame once
    /// per scan, two scans per round.
    ///
    /// It is the same loop over the same kernels as a resident fit, fed
    /// from [`StreamedChunks`] instead of [`ResidentChunks`], so its
    /// [`FusionReport`] is **bit-for-bit identical** at any thread count
    /// and any `max_resident_chunks` (the `out_of_core` integration tests
    /// assert this).
    ///
    /// I/O failures mid-fit (truncated frames, CRC mismatches) surface
    /// as typed [`io::Error`]s, never panics. Copy detection counts pairs
    /// on the row cube, which a store alone does not hold, and is
    /// rejected up front as [`io::ErrorKind::Unsupported`].
    pub fn run_streamed(
        &self,
        store: &Arc<FileChunkStore>,
        max_resident_chunks: usize,
        init: &QualityInit,
    ) -> io::Result<FusionReport> {
        if self.cfg.copy_detection.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "copy detection counts pairs on the row cube; fit it with run_traced, \
                 which streams under CubeResidency::Streamed too",
            ));
        }
        let src = StreamedChunks::new(Arc::clone(store), max_resident_chunks);
        kbt_flume::with_threads(self.cfg.threads, || {
            run_em(&self.cfg, &src, init, None, None, true)
        })
    }
}

/// One EM fit plus, when [`ModelConfig::copy_detection`] is set, the
/// copy-aware loop: detect copies from the fitted accuracies, derive
/// [`CopyDiscount`] independence factors, and **refit from the run's
/// original initialization** with the dependent sources' votes
/// down-weighted — `discount_rounds` times. The refit deliberately
/// restarts truth discovery rather than warm-continuing: a copier's
/// doubled votes can drive EM into a self-consistent basin (copier
/// and victim rated near-perfect, honest sources poor) that a warm
/// continuation cannot leave, because the corrupted parameters are
/// exactly what the continuation resumes from. The refits' rounds
/// continue the base fit's trace ([`ConvergenceTrace::then`]). `fit`
/// runs EM under a discount; the census reads `cube`.
fn copy_aware(
    cfg: &ModelConfig,
    cube: &ObservationCube,
    prior_independence: Option<&[f64]>,
    fit: &dyn Fn(Option<&CopyDiscount>) -> io::Result<FusionReport>,
) -> io::Result<FusionReport> {
    let prior_discount = prior_independence.map(|s| {
        let mut scales = s.to_vec();
        scales.resize(cube.num_sources(), 1.0);
        CopyDiscount::from_scales(scales)
    });
    let base_discount = prior_discount.as_ref().filter(|d| !d.is_neutral());
    let mut report = fit(base_discount)?;
    // Record the factors this fit actually ran with even when no
    // detection is configured (e.g. a session carrying prior evidence
    // into a model whose copy_detection was turned off) — a
    // discounted fit must never be indistinguishable from a
    // copy-blind one. The discount loop below overwrites this with
    // the factors of the final refit.
    report.source_independence = base_discount.map(|d| d.as_slice().to_vec());

    if let Some(cd) = &cfg.copy_detection {
        let ns = cube.num_sources();
        // The pair statistics depend only on the (immutable) cube:
        // count once, re-score per round as the accuracies move.
        let stats = collect_pair_stats(cube, cd);
        let mut evidence = score_pair_stats(&stats, &report.params.source_accuracy, cd);
        if cd.discount {
            // Factors the latest fit actually ran with: the prior on a
            // warm restart, neutral otherwise (an all-ones discount is
            // bit-identical to no discount at all).
            let mut discount = prior_discount.unwrap_or_else(|| CopyDiscount::neutral(ns));
            for _ in 0..cd.discount_rounds {
                let fresh =
                    CopyDiscount::from_evidence(&evidence, &report.params.source_accuracy, ns, cd);
                // Discounts only ever deepen within a run (element-wise
                // min with what the last fit used): discounting a pair
                // lowers its score, so re-deriving factors from scratch
                // could lift a threshold-straddling copier back to
                // neutral in the next round and revert the fit to
                // copy-blind. Monotonicity also guarantees the loop
                // converges — later rounds can only unmask *more*
                // dependencies.
                let next = CopyDiscount::from_scales(
                    discount
                        .as_slice()
                        .iter()
                        .zip(fresh.as_slice())
                        .map(|(a, b)| a.min(*b))
                        .collect(),
                );
                if next == discount {
                    // The current fit already used exactly these
                    // factors (warm restart with carried-over evidence,
                    // or no pair above the threshold): a refit would
                    // reproduce it bit-for-bit — skip it.
                    break;
                }
                discount = next;
                let refit = fit(Some(&discount))?;
                let trace = report.trace.then(refit.trace);
                report = FusionReport { trace, ..refit };
                // Re-score with the copy-aware accuracies: what the
                // next round (and the reported evidence) should see.
                evidence = score_pair_stats(&stats, &report.params.source_accuracy, cd);
            }
            report.source_independence = Some(discount.as_slice().to_vec());
        }
        report.copy_evidence = Some(evidence);
    }
    Ok(report)
}

/// Lay `chunked` out where [`ModelConfig::residency`] says — the one place
/// a fit's residency is decided — and hand `body` an EM fit over it, to
/// run under any discount as often as it asks. A streamed `chunked` is
/// written to the store and dropped before the first scan.
pub(crate) fn with_em<R>(
    chunked: ChunkedCube,
    cfg: &ModelConfig,
    init: &QualityInit,
    prior_truth: Option<&[f64]>,
    extraction: bool,
    body: impl FnOnce(&dyn Fn(Option<&CopyDiscount>) -> io::Result<FusionReport>) -> io::Result<R>,
) -> io::Result<R> {
    match &cfg.residency {
        CubeResidency::Resident => {
            let src = ResidentChunks::new(&chunked);
            body(&|d| run_em(cfg, &src, init, prior_truth, d, extraction))
        }
        CubeResidency::Streamed {
            path,
            max_resident_chunks,
        } => {
            FileChunkStore::write(&chunked, path)?;
            drop(chunked);
            let store = Arc::new(FileChunkStore::open(path)?);
            let src = StreamedChunks::new(store, *max_resident_chunks);
            body(&|d| run_em(cfg, &src, init, prior_truth, d, extraction))
        }
    }
}

/// Algorithm 1: the one EM loop, over whatever [`ChunkSource`] the
/// caller's residency picked. A round scans the cube twice —
/// [`estimate_correctness`] over the group frames, folding the extractor
/// M-step's sums as it goes, and [`estimate_values`]
/// over the item chunks; everything else reads the source's integer
/// skeleton alone (vote tables, Eq. 28 and the masses it hands on, α).
/// Every float sum that feeds the parameters or the trace is an
/// [`ExactSum`], so no partition or thread count moves a bit. Scratch and
/// buffers persist across rounds, so the steady-state loop allocates only
/// the round's value-layer output and per-worker accumulators.
///
/// With `extraction` off every claim is provided (`p(C) ≡ 1`) and a round
/// skips the vote tables, the correctness scan, the extractor M-step and
/// α: the single layer of §2.2, which [`crate::SingleLayerModel`] runs
/// over its pair cube.
fn run_em<S: ChunkSource>(
    cfg: &ModelConfig,
    src: &S,
    init: &QualityInit,
    prior_truth: Option<&[f64]>,
    discount: Option<&CopyDiscount>,
    extraction: bool,
) -> io::Result<FusionReport> {
    let meta = src.meta();
    let ng = meta.num_groups as usize;
    let nw = meta.num_sources as usize;
    let ne = meta.num_extractors as usize;

    let mut params = Params::init_sized(nw, ne, cfg, init);
    // A source may vote from the start if it has enough support (its
    // group span is its size); its accuracy stays at the default until
    // the first M-step.
    let mut active: Vec<bool> = meta
        .source_offsets
        .windows(2)
        .map(|w| (w[1] - w[0]) as usize >= cfg.min_source_support)
        .collect();
    let mut alpha = AlphaState::uniform(ng, cfg.alpha);
    let alpha_always = alpha_matured_by(init) && cfg.alpha_update_from.is_some();
    if let (Some(t0), Some(_)) = (prior_truth, cfg.alpha_update_from) {
        debug_assert_eq!(t0.len(), ng);
        alpha.update(&meta.source_offsets, t0, &params, cfg);
    }

    // One value-layer scratch per worker the scans may use.
    let mut value_scratch: Vec<ColValueScratch> = Vec::new();
    value_scratch.resize_with(kbt_flume::num_threads(), Default::default);
    let mut votes = VoteCounter::empty();
    let mut correctness: Vec<f64> = vec![if extraction { 0.0 } else { 1.0 }; ng];

    let mut values: Option<ValueLayerOutput> = None;
    let mut trace = ConvergenceTrace::default();
    let mut watch = Stopwatch::start();
    let mut stage = Stopwatch::start();

    for t in 1..=cfg.max_iterations {
        stage.lap();
        // Step 1: extraction correctness.
        let sums = if extraction {
            let (ext_offsets, ext_ids) = (&meta.source_ext_offsets, &meta.source_ext_ids);
            votes.rebuild(ne, nw, ext_offsets, ext_ids, &params, cfg);
            trace.stage_wall.votes += stage.lap();
            let sums = estimate_correctness(src, &votes, &alpha, cfg, &mut correctness)?;
            trace.stage_wall.correctness += stage.lap();
            Some(sums)
        } else {
            None
        };
        // Step 2: item values (with the CopyDiscount stage, if any). The
        // previous round's output is dead from here on, so drop it first:
        // the per-item posterior vectors are the largest fit-state
        // allocation, and holding two rounds' worth while the new one is
        // built would dominate a streamed fit's peak RSS.
        drop(values.take());
        let out = estimate_values(
            src,
            &correctness,
            &params,
            cfg,
            &active,
            discount,
            &mut value_scratch,
        )?;
        trace.stage_wall.values += stage.lap();
        // Steps 3–4: parameters.
        let prev = params.clone();
        let (c, given) = (&correctness, &out.truth_given_provided);
        let mass =
            update_source_accuracy(meta, c, given, cfg, &mut params, &mut active, extraction);
        trace.stage_wall.source_update += stage.lap();
        if let Some(sums) = sums {
            sums.finish(meta, &mass, cfg, &mut params);
            trace.stage_wall.extractor_update += stage.lap();
            // Re-estimate the correctness prior for the *next* iteration
            // (Section 3.3.4), using the fresh accuracies as in Example 3.3.
            if cfg.updates_alpha_at(t + 1) || alpha_always {
                alpha.update(&meta.source_offsets, &out.truth_of_group, &params, cfg);
            }
            trace.stage_wall.alpha += stage.lap();
        }
        let delta = params.max_abs_delta(&prev);
        // Per-group LL terms summed per range, the ranges' sums merged.
        let (truth, corr) = (&out.truth_of_group, &correctness);
        let mut ll = ExactSum::default();
        for range in kbt_flume::par_ranges(ng, |r| {
            let mut ll = ExactSum::default();
            ll.extend(r.map(|g| map_confidence_ll(corr[g]) + map_confidence_ll(truth[g])));
            ll
        }) {
            ll.merge(&range);
        }
        let log_likelihood = ll.finish();
        trace.stage_wall.log_likelihood += stage.lap();
        trace.rounds.push(IterationTrace {
            iteration: t,
            delta,
            log_likelihood,
            wall: watch.lap(),
        });
        values = Some(out);
        if delta < cfg.convergence_eps {
            trace.converged = true;
            break;
        }
    }

    let values = values.unwrap_or_else(|| empty_values(meta.num_items as usize, ng, cfg));
    Ok(FusionReport::multi_layer(
        params,
        correctness,
        values,
        active,
        trace,
    ))
}

/// Whether `init` resumes converged parameters, in which case the α
/// re-estimation of Section 3.3.4 starts immediately: the schedule delays
/// it only while the early parameter estimates are unreliable, and a
/// warm-started run's estimates already are reliable. (A schedule of
/// `None` still disables re-estimation entirely.)
pub(crate) fn alpha_matured_by(init: &QualityInit) -> bool {
    matches!(init, QualityInit::Resume(_))
}

/// The degenerate value-layer output of a zero-iteration run
/// (`max_iterations == 0`): uniform posteriors, nothing covered, every
/// per-group vector dense.
pub(crate) fn empty_values(
    num_items: usize,
    num_groups: usize,
    cfg: &ModelConfig,
) -> ValueLayerOutput {
    ValueLayerOutput {
        posteriors: ItemPosteriors::from_parts(
            vec![Vec::new(); num_items],
            vec![1.0 / (cfg.n_false_values + 1) as f64; num_items],
        ),
        truth_of_group: vec![0.0; num_groups],
        truth_given_provided: vec![0.0; num_groups],
        covered_group: vec![false; num_groups],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId};

    /// A clean corpus: 5 accurate sources agreeing on 20 items, observed by
    /// 3 good extractors. The model should end up trusting everyone.
    #[test]
    fn consensus_corpus_converges_to_high_trust() {
        let mut b = CubeBuilder::new();
        for w in 0..5u32 {
            for d in 0..20u32 {
                for e in 0..3u32 {
                    b.push(Observation::certain(
                        ExtractorId::new(e),
                        SourceId::new(w),
                        ItemId::new(d),
                        ValueId::new(d), // everyone agrees: value d for item d
                    ));
                }
            }
        }
        let cube = b.build();
        let model = MultiLayerModel::new(ModelConfig::default());
        let r = model.run_traced(&cube, &QualityInit::Default).unwrap();
        for w in 0..5 {
            assert!(
                r.kbt(SourceId::new(w)) > 0.9,
                "A_{w} = {}",
                r.kbt(SourceId::new(w))
            );
        }
        for &c in r.correctness().unwrap() {
            assert!(c > 0.9, "all extractions should be judged correct");
        }
        for &t in &r.truth_of_group {
            assert!(t > 0.9, "all triples should be judged true");
        }
        assert!(r.coverage() == 1.0);
        assert!(r.iterations() <= 5);
    }

    /// One source disagrees with four consistent ones on every item: the
    /// dissenter's KBT must come out lower.
    #[test]
    fn dissenting_source_gets_lower_kbt() {
        let mut b = CubeBuilder::new();
        for d in 0..30u32 {
            for w in 0..4u32 {
                for e in 0..2u32 {
                    b.push(Observation::certain(
                        ExtractorId::new(e),
                        SourceId::new(w),
                        ItemId::new(d),
                        ValueId::new(0),
                    ));
                }
            }
            for e in 0..2u32 {
                b.push(Observation::certain(
                    ExtractorId::new(e),
                    SourceId::new(4),
                    ItemId::new(d),
                    ValueId::new(1), // always the odd one out
                ));
            }
        }
        let cube = b.build();
        let model = MultiLayerModel::new(ModelConfig::default());
        let r = model.run_traced(&cube, &QualityInit::Default).unwrap();
        let good: f64 = (0..4).map(|w| r.kbt(SourceId::new(w))).sum::<f64>() / 4.0;
        let bad = r.kbt(SourceId::new(4));
        assert!(
            good > bad + 0.3,
            "consistent sources {good} vs dissenter {bad}"
        );
    }

    /// The motivating scenario: a noisy extractor hallucinating a value on
    /// a good source must not drag the source's KBT down (the single-layer
    /// failure mode described in Section 2.3).
    #[test]
    fn extraction_noise_does_not_poison_source_accuracy() {
        let mut b = CubeBuilder::new();
        // Three good extractors see W0..W3 providing the true value for 20
        // items. A junk extractor (E3) additionally "extracts" a wrong
        // value from W0 for every item.
        for d in 0..20u32 {
            for w in 0..4u32 {
                for e in 0..3u32 {
                    b.push(Observation::certain(
                        ExtractorId::new(e),
                        SourceId::new(w),
                        ItemId::new(d),
                        ValueId::new(0),
                    ));
                }
            }
            b.push(Observation::certain(
                ExtractorId::new(3),
                SourceId::new(0),
                ItemId::new(d),
                ValueId::new(1),
            ));
        }
        let cube = b.build();
        let model = MultiLayerModel::new(ModelConfig::default());
        let r = model.run_traced(&cube, &QualityInit::Default).unwrap();
        // The junk extractor's extractions should be judged incorrect…
        for (g, grp) in cube.groups().iter().enumerate() {
            if grp.value == ValueId::new(1) {
                assert!(
                    r.correctness().unwrap()[g] < 0.5,
                    "hallucinated extraction judged correct: {}",
                    r.correctness().unwrap()[g]
                );
            }
        }
        // …so W0's trust stays close to its peers'.
        let w0 = r.kbt(SourceId::new(0));
        let w1 = r.kbt(SourceId::new(1));
        assert!(
            (w0 - w1).abs() < 0.1,
            "W0 {w0} should stay near W1 {w1} despite extractor noise"
        );
        // And the junk extractor's precision should collapse.
        assert!(
            r.params.precision[3] < 0.5,
            "junk extractor precision = {}",
            r.params.precision[3]
        );
        assert!(r.params.precision[0] > 0.9);
    }

    #[test]
    fn empty_cube_yields_defaults() {
        let mut b = CubeBuilder::new();
        b.reserve_ids(2, 1, 1, 1);
        let cube = b.build();
        let model = MultiLayerModel::new(ModelConfig::default());
        let r = model.run_traced(&cube, &QualityInit::Default).unwrap();
        assert_eq!(r.params.source_accuracy, vec![0.8, 0.8]);
        assert!(!r.active_source[0]);
        assert_eq!(r.coverage(), 0.0);
    }

    #[test]
    fn convergence_stops_early_on_stable_parameters() {
        // A strongly consistent corpus: parameters saturate at the clamp
        // bounds within a few iterations and the loop stops early.
        let mut b = CubeBuilder::new();
        for w in 0..5u32 {
            for d in 0..10u32 {
                for e in 0..2u32 {
                    b.push(Observation::certain(
                        ExtractorId::new(e),
                        SourceId::new(w),
                        ItemId::new(d),
                        ValueId::new(d),
                    ));
                }
            }
        }
        let cube = b.build();
        let cfg = ModelConfig {
            max_iterations: 50,
            convergence_eps: 1e-4,
            ..ModelConfig::default()
        };
        let model = MultiLayerModel::new(cfg);
        let r = model.run_traced(&cube, &QualityInit::Default).unwrap();
        assert!(
            r.converged(),
            "did not converge in {} iterations",
            r.iterations()
        );
        assert!(r.iterations() < 50);
    }
}
