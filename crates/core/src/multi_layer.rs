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
//! A round is a map over one [`EmState`] — parameters, active sources, the
//! per-row α logits, correctness and truth, and the α schedule's clock —
//! so a fit is a start state with rounds applied, and a fit that stopped
//! continues from the state it left. A warm start is a resumed state
//! ([`EmState::resume`]): the last fit's parameters, and its belief in each
//! triple as the truth column the first round re-estimates α from.
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
    ChunkSource, ChunkStoreMeta, ChunkedCube, FileChunkStore, ObservationCube, SourceId,
    StreamedChunks,
};
use kbt_flume::Stopwatch;

use crate::config::{CubeResidency, ModelConfig};
use crate::copydetect::{collect_pair_stats, score_pair_stats, CopyDiscount};
use crate::correctness::{estimate_correctness, update_alpha};
use crate::math::logit;
use crate::model::{ConvergenceTrace, FusionReport, IterationTrace, StageWall};
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

    /// Run Algorithm 1 from `init` and report it, per-iteration trace
    /// included: [`Self::run_from`] an [`EmState::start`].
    pub fn run_traced(
        &self,
        cube: &ObservationCube,
        init: &QualityInit,
    ) -> io::Result<FusionReport> {
        self.run_from(cube, EmState::start(cube, &self.cfg, init))
    }

    /// Run Algorithm 1 on `cube` from `start`, cold or warm (`FusionSession`
    /// in `kbt-pipeline` resumes here), and report it; a discounted start
    /// makes even the first fit copy-aware. It runs under
    /// [`ModelConfig::threads`] via `kbt_flume::with_threads`, with the
    /// chunked cube where [`ModelConfig::residency`] says (same bits); only
    /// a streamed fit's I/O can fail.
    pub fn run_from(&self, cube: &ObservationCube, start: EmState) -> io::Result<FusionReport> {
        let cfg = &self.cfg;
        kbt_flume::with_threads(cfg.threads, || {
            // The chunked cube, built once per run: the
            // copy-aware loop refits the same cube several times.
            let mut sw = Stopwatch::start();
            let chunked = ChunkedCube::from_cube(cube, &cfg.chunking());
            let split = sw.lap();
            let mut report = with_em(chunked, cfg, |fit| copy_aware(cfg, cube, start, fit))?;
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
    /// from [`StreamedChunks`] instead of a resident [`ChunkedCube`], so its
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
        let meta = src.meta();
        let ne = meta.num_extractors as usize;
        let start = EmState::new(ne, &meta.source_sizes, &self.cfg, init, true);
        kbt_flume::with_threads(self.cfg.threads, || fit_em(&self.cfg, &src, start))
    }
}

/// Algorithm 1's state between rounds: everything the next round reads. A
/// fit applies rounds to a start state, cold ([`Self::start`]) or warm
/// ([`Self::resume`]), and continues from where it stopped bit for bit.
#[derive(Debug, Clone)]
pub struct EmState {
    pub(crate) params: Params,
    pub(crate) active: Vec<bool>,
    /// Independence factors scaling the value votes; never all ones.
    pub(crate) discount: Option<CopyDiscount>,
    /// Per row (cube group): the log-odds `ln(α / (1 − α))` (Eq. 26),
    /// correctness (Eq. 15) and truth (none before a round or warm start).
    pub(crate) alpha: Vec<f64>,
    pub(crate) correctness: Vec<f64>,
    pub(crate) truth: Option<Vec<f64>>,
    /// Rounds applied so far: the α schedule's clock.
    pub(crate) rounds: usize,
    /// Whether `params` resume a converged fit, which matures α at once.
    pub(crate) resumed: bool,
    /// Whether the extraction layer is fitted: not in the single layer.
    pub(crate) extraction: bool,
}

impl EmState {
    /// The start of a fit of `cube` from `init`: uniform α, no truth, and
    /// every source with enough support active. A `Resume` init needs no
    /// schedule: α is re-estimated from the first truth on.
    pub fn start(cube: &ObservationCube, cfg: &ModelConfig, init: &QualityInit) -> Self {
        let size = |w| cube.source_size(SourceId::new(w as u32)) as u32;
        let sizes: Vec<u32> = (0..cube.num_sources()).map(size).collect();
        Self::new(cube.num_extractors(), &sizes, cfg, init, true)
    }

    /// A warm restart on `cube`: the `last` fit's parameters resumed, and
    /// `truth[g]`, its belief in group `g`, as the truth column the first
    /// round re-estimates α from.
    pub fn resume(
        cube: &ObservationCube,
        cfg: &ModelConfig,
        last: Params,
        truth: Vec<f64>,
    ) -> Self {
        assert_eq!(truth.len(), cube.num_groups(), "one truth per group");
        let mut start = Self::start(cube, cfg, &QualityInit::Resume(last));
        start.truth = Some(truth);
        start
    }

    /// This state with every round's value votes scaled by the independence
    /// factors `I(w)`; sources beyond the slice are fully independent.
    pub fn discounted(self, independence: &[f64]) -> Self {
        let mut scales = independence.to_vec();
        scales.resize(self.active.len(), 1.0);
        let discount = Some(CopyDiscount::from_scales(scales)).filter(|d| !d.is_neutral());
        Self { discount, ..self }
    }

    /// The start from `init` over `ne` extractors and the sources' row
    /// counts; a source with enough support votes from the first round.
    pub(crate) fn new(
        ne: usize,
        sizes: &[u32],
        cfg: &ModelConfig,
        init: &QualityInit,
        extraction: bool,
    ) -> Self {
        let ng = sizes.iter().map(|&n| n as usize).sum(); // a row is one source's
        let supported = |&n: &u32| n as usize >= cfg.min_source_support;
        Self {
            params: Params::init_sized(sizes.len(), ne, cfg, init),
            active: sizes.iter().map(supported).collect(),
            discount: None,
            alpha: vec![logit(cfg.alpha); ng],
            correctness: vec![if extraction { 0.0 } else { 1.0 }; ng],
            truth: None,
            rounds: 0,
            resumed: matches!(init, QualityInit::Resume(_)),
            extraction,
        }
    }

    /// Whether the next round re-estimates α (Eq. 26) from the truth
    /// column: when on, once resumed or once the schedule reaches it.
    pub(crate) fn alpha_due(&self, cfg: &ModelConfig) -> bool {
        let due = |from| self.resumed || self.rounds + 1 >= from;
        self.truth.is_some() && cfg.alpha_update_from.is_some_and(due)
    }
}

/// Algorithm 1's driver, the engine's and the oracles': after `done`
/// rounds, apply `round` (its Δ and log-likelihood) until Δ < ε or
/// `cfg.max_iterations` rounds in all.
pub(crate) fn iterate<E>(
    cfg: &ModelConfig,
    done: usize,
    mut round: impl FnMut() -> Result<(f64, f64), E>,
) -> Result<ConvergenceTrace, E> {
    let (mut trace, mut watch) = (ConvergenceTrace::default(), Stopwatch::start());
    for iteration in done + 1..=cfg.max_iterations {
        let (delta, log_likelihood) = round()?;
        trace.rounds.push(IterationTrace {
            iteration,
            delta,
            log_likelihood,
            wall: watch.lap(),
        });
        if delta < cfg.convergence_eps {
            trace.converged = true;
            break;
        }
    }
    Ok(trace)
}

/// One EM fit plus, when [`ModelConfig::copy_detection`] is set, the
/// copy-aware loop: detect copies from the fitted accuracies, derive
/// [`CopyDiscount`] independence factors, and **refit from `start`**
/// with the dependent sources' votes down-weighted — `discount_rounds`
/// times. The refit deliberately restarts truth discovery rather than
/// warm-continuing: a copier's doubled votes can drive EM into a
/// self-consistent basin (copier and victim rated near-perfect, honest
/// sources poor) that a warm continuation cannot leave, because the
/// corrupted parameters are exactly what the continuation resumes from.
/// The refits' rounds continue the base fit's trace
/// ([`ConvergenceTrace::then`]). `fit` runs EM from a state; the census
/// reads `cube`.
fn copy_aware(
    cfg: &ModelConfig,
    cube: &ObservationCube,
    start: EmState,
    fit: &dyn Fn(EmState) -> io::Result<FusionReport>,
) -> io::Result<FusionReport> {
    let detect = cfg.copy_detection.as_ref();
    let refit_from = detect.filter(|cd| cd.discount).map(|_| start.clone());
    let mut report = fit(start)?;
    if let Some(cd) = detect {
        let ns = cube.num_sources();
        // The pair statistics depend only on the (immutable) cube:
        // count once, re-score per round as the accuracies move.
        let stats = collect_pair_stats(cube, cd);
        let mut evidence = score_pair_stats(&stats, &report.params.source_accuracy, cd);
        if let Some(from) = refit_from {
            // Factors the latest fit actually ran with: the prior on a
            // warm restart, neutral otherwise (an all-ones discount is
            // bit-identical to no discount at all).
            let neutral = || CopyDiscount::neutral(ns);
            let mut discount = from.discount.clone().unwrap_or_else(neutral);
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
                let refit = fit(EmState {
                    discount: Some(discount.clone()),
                    ..from.clone()
                })?;
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
/// run from any state as often as it asks. A streamed `chunked` is
/// written to the store and dropped before the first scan.
pub(crate) fn with_em<R>(
    chunked: ChunkedCube,
    cfg: &ModelConfig,
    body: impl FnOnce(&dyn Fn(EmState) -> io::Result<FusionReport>) -> io::Result<R>,
) -> io::Result<R> {
    match &cfg.residency {
        CubeResidency::Resident => body(&|start| fit_em(cfg, &chunked, start)),
        CubeResidency::Streamed {
            path,
            max_resident_chunks,
        } => {
            FileChunkStore::write(&chunked, path)?;
            drop(chunked);
            let store = Arc::new(FileChunkStore::open(path)?);
            let src = StreamedChunks::new(store, *max_resident_chunks);
            body(&|start| fit_em(cfg, &src, start))
        }
    }
}

/// [`run_em`] from `state`, reported.
fn fit_em<S: ChunkSource>(cfg: &ModelConfig, src: &S, mut s: EmState) -> io::Result<FusionReport> {
    let (rows, trace) = run_em(cfg, src, &mut s)?;
    let values = match (trace.rounds.is_empty(), s.truth.take()) {
        (false, Some(truth)) => rows.into_values(truth),
        _ => empty_values(src.meta().num_items as usize, s.alpha.len(), cfg),
    };
    Ok(FusionReport::multi_layer(s, values, trace))
}

/// Algorithm 1: the one EM loop, over whatever [`ChunkSource`] the
/// caller's residency picked — [`iterate`] over a round that maps `state`
/// to the next: the vote tables, then one scan over the item chunks in
/// which each chunk's worker applies the α update that is due (Eq. 26),
/// correctness (Eqs. 15, 31) and the value E-step (Eqs. 23–25) and folds
/// its rows into [`RoundSums`] of exact sums (no partition or thread count
/// moves a bit), then the M-steps. The single layer skips the vote
/// tables, correctness, the extractor M-step and α. Returns the last
/// round's value rows and the trace; `state` is left where it stopped.
fn run_em<S: ChunkSource>(
    cfg: &ModelConfig,
    src: &S,
    state: &mut EmState,
) -> io::Result<(ValueRows, ConvergenceTrace)> {
    let (meta, extraction) = (src.meta(), state.extraction);
    let (nw, ne) = (meta.num_sources as usize, meta.num_extractors as usize);
    assert_eq!(
        state.alpha.len(),
        meta.num_groups as usize,
        "a state of another cube"
    );
    let miv = meta.max_item_values as usize;
    let mut workers: Vec<(ColValueScratch, RoundSums)> = Vec::new();
    workers.resize_with(kbt_flume::num_threads(), Default::default);
    let (mut votes, mut value_votes) = (VoteCounter::empty(), ValueVotes::default());
    // `Σ conf` per extractor: folded in the fit's first round, fixed after.
    let mut pden: Vec<f64> = Vec::new();
    let mut rows = ValueRows::new(meta);
    let (mut wall, mut stage) = (StageWall::default(), Stopwatch::start());
    let mut trace = iterate::<io::Error>(cfg, state.rounds, || {
        stage.lap();
        let (params, active) = (&state.params, &state.active);
        if extraction {
            let (ext_offsets, ext_ids) = (&meta.source_ext_offsets, &meta.source_ext_ids);
            votes.rebuild(ne, nw, ext_offsets, ext_ids, params, cfg);
        }
        value_votes.rebuild(params, cfg, active, state.discount.as_ref());
        wall.votes += stage.lap();

        let alpha_due = extraction && state.alpha_due(cfg);
        for (_, sums) in &mut workers {
            sums.reset(nw, ne, extraction && pden.is_empty());
        }
        let truth = state
            .truth
            .get_or_insert_with(|| vec![0.0; state.alpha.len()]);
        let mut windows = rows.windows(meta, [&mut state.alpha, &mut state.correctness, truth]);
        src.scan_items(&mut workers, &mut windows, |(scratch, sums), buf, rows| {
            if extraction {
                if alpha_due {
                    update_alpha(rows.alpha, &buf.ig_source, rows.truth, params, cfg);
                }
                estimate_correctness(buf, &votes, rows.alpha, cfg, rows.correctness, sums);
            }
            estimate_values(buf, &value_votes, active, miv, scratch, rows);
            sums.fold_rows(&buf.ig_source, rows.correctness, rows.truth, rows.cond);
        })?;
        wall.scan += stage.lap();

        let ((_, sums), rest) = workers.split_first_mut().expect("one worker at least");
        rest.iter().for_each(|(_, w)| sums.merge(w));
        let prev = state.params.clone();
        let (params, active) = (&mut state.params, &mut state.active);
        let mass = update_source_accuracy(meta, sums, cfg, params, active, extraction);
        if extraction {
            if let Some(folded) = sums.pden() {
                pden = folded;
            }
            update_extractor_quality(meta, sums, &pden, &mass, cfg, params);
        }
        state.rounds += 1;
        let delta = state.params.max_abs_delta(&prev);
        wall.mstep += stage.lap();
        Ok((delta, sums.ll.finish()))
    })?;
    trace.stage_wall = wall;
    Ok((rows, trace))
}

/// The value layer's per-row output of a fit's last round, in row (= cube
/// group) order.
struct ValueRows {
    cond: Vec<f64>,
    covered: Vec<bool>,
    /// One entry per chunk.
    posteriors: Vec<ChunkPosteriors>,
}

/// One chunk's window of the [`EmState`]'s and the [`ValueRows`]' row
/// columns, for the one task that scans the chunk.
pub(crate) struct ChunkRows<'a> {
    pub(crate) alpha: &'a mut [f64],
    pub(crate) correctness: &'a mut [f64],
    pub(crate) truth: &'a mut [f64],
    pub(crate) cond: &'a mut [f64],
    pub(crate) covered: &'a mut [bool],
    pub(crate) posteriors: &'a mut ChunkPosteriors,
}

impl ValueRows {
    fn new(meta: &ChunkStoreMeta) -> Self {
        let ng = meta.num_groups as usize;
        let posteriors = meta.item_chunks.iter().map(ChunkPosteriors::for_chunk);
        Self {
            cond: vec![0.0; ng],
            covered: vec![false; ng],
            posteriors: posteriors.collect(),
        }
    }

    /// These columns and the state's α, correctness and truth cut into one
    /// window per chunk of `meta.item_chunks`.
    fn windows<'a>(
        &'a mut self,
        meta: &ChunkStoreMeta,
        [mut alpha, mut correctness, mut truth]: [&'a mut [f64]; 3],
    ) -> Vec<ChunkRows<'a>> {
        fn carve<'a, T>(column: &mut &'a mut [T], rows: &Range<u32>) -> &'a mut [T] {
            column
                .split_off_mut(..rows.len())
                .expect("chunks tile the rows")
        }
        let (mut cond, mut covered) = (&mut self.cond[..], &mut self.covered[..]);
        let chunks = meta.item_chunks.iter().zip(&mut self.posteriors);
        chunks
            .map(|(chunk, posteriors)| ChunkRows {
                alpha: carve(&mut alpha, &chunk.rows),
                correctness: carve(&mut correctness, &chunk.rows),
                truth: carve(&mut truth, &chunk.rows),
                cond: carve(&mut cond, &chunk.rows),
                covered: carve(&mut covered, &chunk.rows),
                posteriors,
            })
            .collect()
    }

    /// The value layer's output, `truth` its truth column: the row
    /// columns, which are already in cube group order.
    fn into_values(self, truth: Vec<f64>) -> ValueLayerOutput {
        ValueLayerOutput {
            posteriors: ChunkPosteriors::concat(&self.posteriors),
            truth_of_group: truth,
            truth_given_provided: self.cond,
            covered_group: self.covered,
        }
    }
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
        ChunkBuf, ChunkingConfig, CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId,
    };

    /// One resident scan of `cc` on `workers` into a fit's row state, as
    /// `run_em`'s first round makes it under `cfg` but from the
    /// `correctness` and `truth` columns given: `f(worker, frame, rows)`
    /// fills each chunk's rows. The correctness and value columns come back
    /// as a fit reports them.
    pub(crate) fn scan_rows<S: Send>(
        cc: &ChunkedCube,
        cfg: &ModelConfig,
        [correctness, truth]: [&[f64]; 2],
        workers: &mut [S],
        f: impl Fn(&mut S, &ChunkBuf, &mut ChunkRows<'_>) + Sync,
    ) -> (Vec<f64>, ValueLayerOutput) {
        let mut alpha = vec![logit(cfg.alpha); cc.meta.num_groups as usize];
        let (mut correctness, mut truth) = (correctness.to_vec(), truth.to_vec());
        let mut rows = ValueRows::new(&cc.meta);
        let mut windows = rows.windows(&cc.meta, [&mut alpha, &mut correctness, &mut truth]);
        (cc.scan_items(workers, &mut windows, |s, buf, rows| f(s, buf, rows)))
            .expect("a resident scan never fails");
        (correctness, rows.into_values(truth))
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

    /// Algorithm 1 is a resumable map: k rounds, then n − k more from their
    /// state, is the n-round fit bit for bit (state, value layer, every Δ
    /// and log-likelihood) at every k, cold and warm (resumed, a truth
    /// column, a discount), the same resident at 1, 2 and 8 threads and
    /// streamed at caps 0, 1 and 4. Every fifth row has no cells, as a
    /// chunk store may hold: it claims nothing and still reports in cube
    /// order, every group's truth and coverage its own `(item, value)`'s.
    #[test]
    fn a_fit_continued_from_its_state_is_one_fit() {
        type Trace = Vec<(usize, f64, f64)>;
        // The state and the value layer after `n` rounds in all at `x`
        // threads, in Debug form (which prints every float exactly), and
        // the trace.
        fn run<S: ChunkSource>(src: &S, s: &mut EmState, n: usize, x: usize) -> (String, Trace) {
            let cfg = ModelConfig {
                max_iterations: n,
                convergence_eps: 0.0,
                ..ModelConfig::default()
            };
            let (rows, trace) =
                kbt_flume::with_threads(Some(x), || run_em(&cfg, src, s).expect("fit"));
            let values = rows.into_values(s.truth.clone().expect("a round ran"));
            let round = |r: &IterationTrace| (r.iteration, r.delta, r.log_likelihood);
            (
                format!("{s:?} {values:?}"),
                trace.rounds.iter().map(round).collect(),
            )
        }
        fn check<S: ChunkSource>(src: &S, start: &EmState, x: usize, tag: &str) -> String {
            let (want, trace) = run(src, &mut start.clone(), 5, x);
            let want = format!("{want} {trace:?}");
            for k in 1..5 {
                let mut state = start.clone();
                let (_, head) = run(src, &mut state, k, x);
                let (got, tail) = run(src, &mut state, 5, x);
                let got = format!("{got} {:?}", [head, tail].concat());
                assert_eq!(got, want, "{tag} k={k} x{x}");
            }
            want
        }
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
        let cc = ChunkedCube::from_cube(&cube, &ChunkingConfig { target_cells: 12 });
        let cc = crate::mstep::tests::hollow_rows(cc, |g| g % 5 == 2);
        let cfg = ModelConfig::default();
        let cold = EmState::start(&cube, &cfg, &QualityInit::Default);
        let prior = (0..cube.num_groups()).map(|g| (g % 7) as f64 / 7.0);
        let scales: Vec<f64> = (0..23).map(|w| 1.0 - 0.02 * w as f64).collect();
        let warm = EmState::resume(&cube, &cfg, cold.params.clone(), prior.collect());
        let warm = warm.discounted(&scales);
        let path = std::env::temp_dir().join(format!("kbt-split-{}.chunks", std::process::id()));
        FileChunkStore::write(&cc, &path).expect("write the store");
        let store = Arc::new(FileChunkStore::open(&path).expect("open the store"));
        for (start, tag) in [(&cold, "cold"), (&warm, "warm")] {
            let want = check(&cc, start, 1, tag);
            for threads in [1, 2, 8] {
                let got = check(&cc, start, threads, tag);
                assert_eq!(got, want, "{tag} x{threads}");
                for cap in [0, 1, 4] {
                    let src = StreamedChunks::new(Arc::clone(&store), cap);
                    let got = check(&src, start, threads, &format!("{tag} cap={cap}"));
                    assert_eq!(got, want, "{tag} cap={cap} x{threads}");
                }
            }
            let r = fit_em(&cfg, &cc, start.clone()).expect("fit");
            for (g, grp) in cube.groups().iter().enumerate() {
                let truth = r.posteriors.prob(grp.item, grp.value);
                assert_eq!(r.truth_of_group[g].to_bits(), truth.to_bits(), "{tag} {g}");
                let voted = r
                    .posteriors
                    .observed(grp.item)
                    .iter()
                    .any(|e| e.0 == grp.value);
                assert_eq!(r.covered_group[g], voted, "{tag} {g}");
            }
        }
        std::fs::remove_file(&path).expect("remove the store");
    }
}
