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
//!
//! A round is one scan over the item chunks: each chunk's worker applies
//! the α update that is due, computes the chunk's correctness and value
//! posteriors, and folds its rows into the M-steps' and the
//! log-likelihood's exact sums; the M-steps finish after the scan. The
//! chunks' rows are the cube's (item-major) groups in order, so the fit's
//! per-row state is the report's per-group state, with no permutation.

use std::io;
use std::ops::Range;
use std::sync::Arc;

use kbt_datamodel::{
    ChunkSource, ChunkStoreMeta, ChunkedCube, FileChunkStore, ObservationCube, ResidentChunks,
    StreamedChunks,
};
use kbt_flume::Stopwatch;

use crate::config::{CubeResidency, ModelConfig};
use crate::copydetect::{collect_pair_stats, score_pair_stats, CopyDiscount};
use crate::correctness::{estimate_correctness, AlphaState};
use crate::math::logit;
use crate::model::{ConvergenceTrace, FusionReport, IterationTrace};
use crate::mstep::{update_extractor_quality, update_source_accuracy, RoundSums};
use crate::params::{Params, QualityInit};
use crate::posterior::ItemPosteriors;
use crate::value::{
    estimate_values, ChunkPosteriors, ColValueScratch, ValueLayerOutput, ValueVotes,
};
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
            let split = sw.lap();
            let mut report = with_em(chunked, cfg, init, prior_truth, true, |fit| {
                copy_aware(cfg, cube, prior_independence, fit)
            })?;
            report.trace.stage_wall.chunking += split;
            Ok(report)
        })
    }

    /// Algorithm 1 from a [`FileChunkStore`] written elsewhere — the one
    /// cube-less entry point. No [`ObservationCube`] (or [`ChunkedCube`])
    /// is ever materialized: only the O(groups) row state, the
    /// per-source/per-extractor tables, and one decoded frame and one set
    /// of sums per scan worker are resident; a scan runs on at most
    /// `max_resident_chunks` workers (`0` = as many as the thread count
    /// allows).
    /// [`FileChunkStore::frames_read`] counts the reads: each item frame
    /// once per round.
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
/// caller's residency picked. A round rebuilds the vote tables, makes one
/// scan over the item chunks and finishes the M-steps from the workers'
/// merged [`RoundSums`]; everything besides the scan reads the source's
/// integer skeleton alone. Each chunk is handled by the worker that pulled
/// it: the α update that is due (Eq. 26), correctness (Eqs. 15, 31), the
/// value E-step (Eqs. 23–25), and every row folded into the sums. Every
/// float sum that feeds the parameters or the trace is a
/// [`kbt_flume::ExactSum`], so no partition or thread count moves a bit.
/// The per-row state and the workers' scratch persist across rounds, so a
/// round allocates only its per-worker accumulators.
///
/// With `extraction` off every claim is provided (`p(C) ≡ 1`) and a round
/// skips the vote tables, correctness, the extractor M-step and α: the
/// single layer of §2.2, which [`crate::SingleLayerModel`] runs over its
/// pair cube.
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
    let miv = meta.max_item_values as usize;

    let mut params = Params::init_sized(nw, ne, cfg, init);
    // A source may vote from the start if it has enough support; its
    // accuracy stays at the default until the first M-step.
    let mut active: Vec<bool> = (meta.source_sizes.iter())
        .map(|&size| size as usize >= cfg.min_source_support)
        .collect();
    let alpha_always = alpha_matured_by(init) && cfg.alpha_update_from.is_some();
    debug_assert!(prior_truth.is_none_or(|t0| t0.len() == ng));

    let mut rows = RowState::new(meta, cfg, extraction);
    let mut workers: Vec<(ColValueScratch, RoundSums)> = Vec::new();
    workers.resize_with(kbt_flume::num_threads(), Default::default);
    let (mut votes, mut value_votes) = (VoteCounter::empty(), ValueVotes::default());
    // `Σ conf` per extractor: folded in the first round, fixed after.
    let mut pden: Vec<f64> = Vec::new();
    let mut trace = ConvergenceTrace::default();
    let mut watch = Stopwatch::start();
    let mut stage = Stopwatch::start();

    for t in 1..=cfg.max_iterations {
        stage.lap();
        if extraction {
            let (ext_offsets, ext_ids) = (&meta.source_ext_offsets, &meta.source_ext_ids);
            votes.rebuild(ne, nw, ext_offsets, ext_ids, &params, cfg);
        }
        value_votes.rebuild(&params, cfg, &active, discount);
        trace.stage_wall.votes += stage.lap();

        // Eq. 26 for this round's rows: from the warm prior before the
        // first round, from the last round's truth once the schedule (or
        // a resumed fit) allows it.
        let prior = prior_truth.filter(|_| t == 1 && cfg.alpha_update_from.is_some());
        let from_truth = t > 1 && (cfg.updates_alpha_at(t) || alpha_always);
        for (_, sums) in &mut workers {
            sums.reset(nw, ne, extraction && t == 1);
        }
        let mut windows = rows.windows(meta);
        src.scan_items(&mut workers, &mut windows, |(scratch, sums), view, rows| {
            if extraction {
                if let Some(prior) = prior {
                    let truth = |r: usize| prior[rows.first + r];
                    AlphaState::update(rows.alpha, view.ig_source, truth, &params, cfg);
                } else if from_truth {
                    let truth = |r: usize| rows.truth[r];
                    AlphaState::update(rows.alpha, view.ig_source, truth, &params, cfg);
                }
                estimate_correctness(view, &votes, rows.alpha, cfg, rows.correctness, sums);
            }
            estimate_values(view, &value_votes, &active, miv, scratch, rows);
            sums.fold_rows(view.ig_source, rows.correctness, rows.truth, rows.cond);
        })?;
        trace.stage_wall.scan += stage.lap();

        let ((_, sums), rest) = workers.split_first_mut().expect("one worker at least");
        rest.iter().for_each(|(_, w)| sums.merge(w));
        let prev = params.clone();
        let mass = update_source_accuracy(meta, sums, cfg, &mut params, &mut active, extraction);
        if extraction {
            if let Some(folded) = sums.pden() {
                pden = folded;
            }
            update_extractor_quality(meta, sums, &pden, &mass, cfg, &mut params);
        }
        let delta = params.max_abs_delta(&prev);
        let log_likelihood = sums.ll.finish();
        trace.stage_wall.mstep += stage.lap();
        trace.rounds.push(IterationTrace {
            iteration: t,
            delta,
            log_likelihood,
            wall: watch.lap(),
        });
        if delta < cfg.convergence_eps {
            trace.converged = true;
            break;
        }
    }

    let (correctness, values) = match trace.rounds.is_empty() {
        true => {
            let values = empty_values(meta.num_items as usize, ng, cfg);
            (rows.correctness, values)
        }
        false => rows.into_output(),
    };
    Ok(FusionReport::multi_layer(
        params,
        correctness,
        values,
        active,
        trace,
    ))
}

/// A fit's per-row state, in row (= cube group) order: allocated once per
/// fit on the calling thread and kept across rounds.
struct RowState {
    alpha: Vec<f64>,
    correctness: Vec<f64>,
    truth: Vec<f64>,
    cond: Vec<f64>,
    covered: Vec<bool>,
    /// One entry per chunk.
    posteriors: Vec<ChunkPosteriors>,
}

/// One chunk's window of the [`RowState`], for the one task that scans
/// the chunk.
pub(crate) struct ChunkRows<'a> {
    /// The row (cube group) of the window's first entry.
    pub(crate) first: usize,
    pub(crate) alpha: &'a mut [f64],
    pub(crate) correctness: &'a mut [f64],
    pub(crate) truth: &'a mut [f64],
    pub(crate) cond: &'a mut [f64],
    pub(crate) covered: &'a mut [bool],
    pub(crate) posteriors: &'a mut ChunkPosteriors,
}

impl RowState {
    /// Uniform priors; correctness fixed at 1 when the extraction layer is
    /// off.
    fn new(meta: &ChunkStoreMeta, cfg: &ModelConfig, extraction: bool) -> Self {
        let ng = meta.num_groups as usize;
        let posteriors = meta.item_chunks.iter().map(ChunkPosteriors::for_chunk);
        Self {
            alpha: vec![logit(cfg.alpha); ng],
            correctness: vec![if extraction { 0.0 } else { 1.0 }; ng],
            truth: vec![0.0; ng],
            cond: vec![0.0; ng],
            covered: vec![false; ng],
            posteriors: posteriors.collect(),
        }
    }

    /// The state cut into one window per chunk of `meta.item_chunks`.
    fn windows(&mut self, meta: &ChunkStoreMeta) -> Vec<ChunkRows<'_>> {
        fn carve<'a, T>(column: &mut &'a mut [T], rows: &Range<u32>) -> &'a mut [T] {
            column
                .split_off_mut(..rows.len())
                .expect("chunks tile the rows")
        }
        let mut alpha = &mut self.alpha[..];
        let (mut correctness, mut truth) = (&mut self.correctness[..], &mut self.truth[..]);
        let (mut cond, mut covered) = (&mut self.cond[..], &mut self.covered[..]);
        let chunks = meta.item_chunks.iter().zip(&mut self.posteriors);
        chunks
            .map(|(chunk, posteriors)| ChunkRows {
                first: chunk.rows.start as usize,
                alpha: carve(&mut alpha, &chunk.rows),
                correctness: carve(&mut correctness, &chunk.rows),
                truth: carve(&mut truth, &chunk.rows),
                cond: carve(&mut cond, &chunk.rows),
                covered: carve(&mut covered, &chunk.rows),
                posteriors,
            })
            .collect()
    }

    /// Correctness and the value layer's output: the row columns, which
    /// are already in cube group order.
    fn into_output(self) -> (Vec<f64>, ValueLayerOutput) {
        let values = ValueLayerOutput {
            posteriors: ChunkPosteriors::concat(&self.posteriors),
            truth_of_group: self.truth,
            truth_given_provided: self.cond,
            covered_group: self.covered,
        };
        (self.correctness, values)
    }
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
pub(crate) mod tests {
    use super::*;
    use kbt_datamodel::{
        ChunkingConfig, CubeBuilder, ExtractorId, ItemId, ItemView, Observation, SourceId, ValueId,
    };

    /// One resident scan of `cc` on `workers` into a fit's row state, as
    /// `run_em`'s first round makes it under `cfg`: `f(worker, view, rows)`
    /// fills each chunk's rows. The correctness and value columns come
    /// back as a fit reports them.
    pub(crate) fn scan_rows<S: Send>(
        cc: &ChunkedCube,
        cfg: &ModelConfig,
        workers: &mut [S],
        f: impl Fn(&mut S, &ItemView<'_>, &mut ChunkRows<'_>) + Sync,
    ) -> (Vec<f64>, ValueLayerOutput) {
        let src = ResidentChunks::new(cc);
        let mut rows = RowState::new(src.meta(), cfg, true);
        src.scan_items(workers, &mut rows.windows(src.meta()), |s, view, rows| {
            f(s, view, rows)
        })
        .expect("a resident scan never fails");
        rows.into_output()
    }

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

    /// Rows without cells — which no row cube produces, but a chunk store
    /// may hold — claim nothing and still report, in cube order: a warm
    /// fit (resumed parameters, prior truth, copy discount) over a cube
    /// with every fifth group's cells removed is the same at 1, 2 and 8
    /// threads, resident and streamed at caps 0, 1 and 4, and every
    /// group's truth and coverage are its own `(item, value)`'s.
    #[test]
    fn cell_less_rows_report_in_cube_order_at_any_residency() {
        use crate::mstep::tests::hollow_rows;
        let mut b = CubeBuilder::new();
        for d in 0..30u32 {
            for k in 0..6u32 {
                let w = (d * 5 + k * 7) % 23;
                b.push(Observation {
                    extractor: ExtractorId::new(k % 3),
                    source: SourceId::new(w),
                    item: ItemId::new(d),
                    value: ValueId::new((w + k) % 3),
                    confidence: 0.4 + 0.1 * k as f64,
                });
            }
        }
        let cube = b.build();
        let hollow = |g: usize| g % 5 == 2;
        let chunking = ChunkingConfig { target_cells: 12 };
        let cc = hollow_rows(ChunkedCube::from_cube(&cube, &chunking), hollow);
        let cfg = ModelConfig::default();
        let init = QualityInit::Resume(Params::init(&cube, &cfg, &QualityInit::Default));
        let prior: Vec<f64> = (0..cube.num_groups())
            .map(|g| (g % 7) as f64 / 7.0)
            .collect();
        let discount = CopyDiscount::from_scales((0..23).map(|w| 1.0 - 0.02 * w as f64).collect());
        let fit = |src: &dyn Fn() -> io::Result<FusionReport>, threads| {
            kbt_flume::with_threads(Some(threads), src).expect("fit")
        };
        let resident = ResidentChunks::new(&cc);
        let run = || run_em(&cfg, &resident, &init, Some(&prior), Some(&discount), true);
        let want = fit(&run, 1);
        let path = std::env::temp_dir().join(format!("kbt-hollow-{}.chunks", std::process::id()));
        FileChunkStore::write(&cc, &path).expect("write the store");
        let store = Arc::new(FileChunkStore::open(&path).expect("open the store"));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2, 8] {
            let mut fits = vec![fit(&run, threads)];
            for cap in [0, 1, 4] {
                let src = StreamedChunks::new(Arc::clone(&store), cap);
                let streamed = || run_em(&cfg, &src, &init, Some(&prior), Some(&discount), true);
                fits.push(fit(&streamed, threads));
            }
            for got in &fits {
                assert_eq!(got.params, want.params, "x{threads}");
                assert_eq!(bits(&got.truth_of_group), bits(&want.truth_of_group));
                assert_eq!(got.covered_group, want.covered_group, "x{threads}");
                assert_eq!(got.posteriors, want.posteriors, "x{threads}");
                let (a, b) = (got.correctness().unwrap(), want.correctness().unwrap());
                assert_eq!(bits(a), bits(b), "x{threads}");
            }
        }
        std::fs::remove_file(&path).expect("remove the store");
        for (g, grp) in cube.groups().iter().enumerate() {
            let truth = want.posteriors.prob(grp.item, grp.value);
            let voted = want
                .posteriors
                .observed(grp.item)
                .iter()
                .any(|e| e.0 == grp.value);
            assert_eq!(
                want.truth_of_group[g].to_bits(),
                truth.to_bits(),
                "group {g}"
            );
            assert_eq!(want.covered_group[g], voted, "group {g}");
        }
    }
}
