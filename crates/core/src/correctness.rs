//! Layer 1: estimating extraction correctness `p(C_wdv = 1 | X_wdv)`
//! (Section 3.3.1, Eq. 15).
//!
//! For every triple group the posterior is the sigmoid of its vote count
//! plus the prior log-odds `ln(α/(1−α))`. The prior starts at the fixed
//! `α` of the config and is re-estimated per triple from the previous
//! iteration's value posteriors (Section 3.3.4, Eq. 26) once the schedule
//! allows it.

use std::io;

use kbt_datamodel::{ChunkSource, GroupView};
use kbt_flume::par_ranges_mut;

use crate::config::ModelConfig;
use crate::math::{logit, sigmoid};
use crate::mstep::ExtractorSums;
use crate::params::Params;
use crate::votes::VoteCounter;

/// Per-group prior log-odds `ln(α_wdv / (1 − α_wdv))`.
#[derive(Debug, Clone)]
pub struct AlphaState {
    logits: Vec<f64>,
}

impl AlphaState {
    /// Uniform prior `α` for every group (the initial iterations).
    pub fn uniform(num_groups: usize, alpha: f64) -> Self {
        Self {
            logits: vec![logit(alpha); num_groups],
        }
    }

    /// Prior log-odds of group `g`.
    #[inline]
    pub fn logit(&self, g: usize) -> f64 {
        self.logits[g]
    }

    /// The logit buffer, for [`crate::reference::update_alpha`].
    pub(crate) fn logits_mut(&mut self) -> &mut [f64] {
        &mut self.logits
    }

    /// Re-estimate every group's prior from the value layer
    /// (Section 3.3.4).
    ///
    /// `truth[g]` is the previous iteration's `p(V_d = v(g) | X)` and the
    /// source accuracy comes from the current parameters. By default the
    /// Eq. 5-consistent form is used,
    /// `α̂ = p·A_w + (1 − p)·(1 − A_w)/n` — a source provides a *specific*
    /// false value with probability `(1 − A_w)/n`. Setting
    /// [`ModelConfig::literal_eq26_alpha`] reproduces the paper's printed
    /// Eq. 26 without the `/n` spread (Example 3.3).
    ///
    /// Groups are source-sorted, so the per-source group spans of
    /// `source_offsets` give each group's source and the update reads no
    /// chunk data at all.
    pub fn update(
        &mut self,
        source_offsets: &[u32],
        truth: &[f64],
        params: &Params,
        cfg: &ModelConfig,
    ) {
        debug_assert_eq!(truth.len(), self.logits.len());
        let n = cfg.n_false_values.max(1) as f64;
        let spread = if cfg.literal_eq26_alpha { 1.0 } else { n };
        par_ranges_mut(&mut self.logits, |base, chunk| {
            // Walk the source spans that overlap `base..end`, starting at
            // the one holding group `base`.
            let end = base + chunk.len();
            let mut w = source_offsets
                .partition_point(|&o| o as usize <= base)
                .saturating_sub(1);
            let mut g = base;
            while g < end {
                let span_end = (source_offsets[w + 1] as usize).min(end);
                let a = params.source_accuracy[w];
                for (l, &t) in chunk[g - base..span_end - base]
                    .iter_mut()
                    .zip(&truth[g..span_end])
                {
                    *l = logit(t * a + (1.0 - t) * (1.0 - a) / spread);
                }
                g = span_end;
                w += 1;
            }
        });
    }
}

/// `p(C_wdv = 1 | X_wdv)` for one group frame (Eq. 15 with the
/// confidence-weighted vote count of Eq. 31) into `out`, in local group
/// order. The vote count streams the frame's `cell_extractor` /
/// `cell_confidence` columns against the precomputed `Pre_e − Abs_e`
/// table: per cell, `conf · (Pre_e − Abs_e)` accumulated in cell order
/// onto the source's absence sum.
fn estimate_correctness_frame(
    view: &GroupView<'_>,
    votes: &VoteCounter,
    alpha: &AlphaState,
    cfg: &ModelConfig,
    out: &mut [f64],
) {
    let base = view.groups.start as usize;
    for (lg, p) in out.iter_mut().enumerate() {
        let cells = view.cells(lg);
        let extractors = &view.cell_extractor[cells.clone()];
        let mut vc = votes.source_absence_sum[view.group_source[lg] as usize];
        for (&e, &c) in extractors.iter().zip(&view.cell_confidence[cells]) {
            vc += cfg.effective_confidence(c) * votes.adjust[e as usize];
        }
        *p = sigmoid(vc + alpha.logit(base + lg));
    }
}

/// The correctness E-step: [`estimate_correctness_frame`] over every
/// group frame of `src`, frames in parallel, each into its own window of
/// `out` (length `num_groups`). Per-group sigmoids are independent, so
/// the result does not depend on the frame partition or the thread count.
///
/// The same scan carries the extractor M-step's transition: the worker
/// that computed a frame folds it into its own [`ExtractorSums`] before
/// letting the frame go, and the workers' exact sums are merged after the
/// scan: no frame waits for another, no second pass reads the frames.
pub(crate) fn estimate_correctness<S: ChunkSource>(
    src: &S,
    votes: &VoteCounter,
    alpha: &AlphaState,
    cfg: &ModelConfig,
    out: &mut [f64],
) -> io::Result<ExtractorSums> {
    let zero = ExtractorSums::new(src.meta().num_extractors as usize);
    let mut workers = vec![zero; kbt_flume::num_threads()];
    src.scan_groups(&mut workers, out, |sums, v, window| {
        estimate_correctness_frame(v, votes, alpha, cfg, window);
        sums.fold_frame(v, window, cfg);
    })?;
    let mut sums = workers.pop().expect("one worker at least");
    workers.iter().for_each(|w| sums.merge(w));
    Ok(sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use kbt_datamodel::{
        ChunkedCube, ChunkingConfig, CubeBuilder, ExtractorId, ItemId, Observation, ResidentChunks,
        SourceId, ValueId,
    };

    /// Two extractors with known quality; a triple extracted by the good
    /// one should be judged provided, one extracted only by the bad one
    /// should not.
    #[test]
    fn good_extractor_beats_bad_extractor() {
        let mut b = CubeBuilder::new();
        let (good, bad) = (ExtractorId::new(0), ExtractorId::new(1));
        let w = SourceId::new(0);
        // Group 0: extracted by good only; group 1: by bad only.
        b.push(Observation::certain(
            good,
            w,
            ItemId::new(0),
            ValueId::new(0),
        ));
        b.push(Observation::certain(
            bad,
            w,
            ItemId::new(1),
            ValueId::new(1),
        ));
        let cube = b.build();
        let params = Params {
            source_accuracy: vec![0.8],
            precision: vec![0.95, 0.3],
            recall: vec![0.9, 0.3],
            q: vec![0.01, 0.4],
        };
        let cfg = ModelConfig::default();
        let votes = reference::vote_counter(&cube, &params, &cfg);
        let alpha = AlphaState::uniform(cube.num_groups(), 0.5);
        let c = reference::estimate_correctness(&cube, &votes, &alpha, &cfg);
        assert!(c[0] > 0.9, "good-extractor triple: {}", c[0]);
        assert!(c[1] < 0.5, "bad-extractor-only triple: {}", c[1]);
    }

    #[test]
    fn alpha_prior_shifts_the_posterior_as_in_example_3_3() {
        // Example 3.3: vote count −2.65 with α = 0.5 gives σ(−2.65) ≈ 0.07;
        // after the prior drops to 0.4 the posterior becomes
        // σ(−2.65 + ln(0.4/0.6)) ≈ 0.04.
        let p_before = sigmoid(-2.65);
        let p_after = sigmoid(-2.65 + (0.4f64 / 0.6).ln());
        assert!((p_before - 0.066).abs() < 0.005);
        assert!((p_after - 0.045).abs() < 0.01);
        assert!(p_after < p_before);
    }

    #[test]
    fn alpha_update_uses_truth_and_source_accuracy() {
        let params = Params {
            source_accuracy: vec![0.6],
            precision: vec![0.9],
            recall: vec![0.9],
            q: vec![0.1],
        };
        let mut alpha = AlphaState::uniform(1, 0.5);
        assert!((alpha.logit(0) - 0.0).abs() < 1e-9);
        // Example 3.3 (literal Eq. 26): p(V=v) = 0.004, A_w = 0.6 →
        // α = 0.004·0.6 + 0.996·0.4 = 0.4008.
        let literal = ModelConfig {
            literal_eq26_alpha: true,
            ..ModelConfig::default()
        };
        alpha.update(&[0, 1], &[0.004], &params, &literal);
        let expected = logit(0.004 * 0.6 + 0.996 * 0.4);
        assert!((alpha.logit(0) - expected).abs() < 1e-12);
        // Eq. 5-consistent default spreads the false mass over n values:
        // α = 0.004·0.6 + 0.996·0.4/10 = 0.0423 — a much lower prior for
        // a value the consensus rejects.
        let cfg = ModelConfig::default();
        alpha.update(&[0, 1], &[0.004], &params, &cfg);
        let expected_spread = logit(0.004 * 0.6 + 0.996 * 0.4 / 10.0);
        assert!((alpha.logit(0) - expected_spread).abs() < 1e-12);
        assert!(alpha.logit(0) < -2.0);
    }

    /// Kernel ≡ reference for the correctness E-step and the α update,
    /// bit for bit, at several frame sizes and thread counts. The cube
    /// has source ids without groups (3, then the trailing 6), which any
    /// worker split of the α update must not let shift a span.
    #[test]
    fn correctness_and_alpha_kernels_match_the_reference_bitwise() {
        let mut b = CubeBuilder::new();
        for w in [0u32, 1, 2, 4, 5] {
            for d in 0..(1 + w % 3) {
                for e in 0..(1 + (w + d) % 3) {
                    b.push(Observation {
                        extractor: ExtractorId::new(e),
                        source: SourceId::new(w),
                        item: ItemId::new(d),
                        value: ValueId::new(w % 2),
                        confidence: 0.2 + 0.25 * e as f64,
                    });
                }
            }
        }
        b.reserve_ids(7, 3, 3, 2);
        let cube = b.build();
        let ng = cube.num_groups();
        let params = Params {
            source_accuracy: (0..cube.num_sources())
                .map(|w| 0.3 + 0.09 * w as f64)
                .collect(),
            precision: vec![0.9, 0.7, 0.5],
            recall: vec![0.9, 0.6, 0.4],
            q: vec![0.1, 0.2, 0.3],
        };
        let truth: Vec<f64> = (0..ng).map(|g| (g as f64 + 0.5) / ng as f64).collect();
        for policy in [
            crate::config::AbsencePolicy::AllExtractors,
            crate::config::AbsencePolicy::SourceCandidates,
        ] {
            let cfg = ModelConfig {
                absence_policy: policy,
                ..ModelConfig::default()
            };
            let votes = reference::vote_counter(&cube, &params, &cfg);
            let mut want_alpha = AlphaState::uniform(ng, cfg.alpha);
            reference::update_alpha(&mut want_alpha, &cube, &truth, &params, &cfg);
            let want = reference::estimate_correctness(&cube, &votes, &want_alpha, &cfg);
            for target_cells in [1usize, 5, 1 << 20] {
                let cc = ChunkedCube::from_cube(&cube, &ChunkingConfig { target_cells });
                let src = ResidentChunks::new(&cc);
                for threads in [1, 2, 5] {
                    kbt_flume::with_threads(Some(threads), || {
                        let mut alpha = AlphaState::uniform(ng, cfg.alpha);
                        alpha.update(&cc.source_offsets, &truth, &params, &cfg);
                        let mut got = vec![0.0; ng];
                        estimate_correctness(&src, &votes, &alpha, &cfg, &mut got).unwrap();
                        for g in 0..ng {
                            let tag = format!("{policy:?} t={target_cells} g={g} x{threads}");
                            assert_eq!(
                                alpha.logit(g).to_bits(),
                                want_alpha.logit(g).to_bits(),
                                "alpha {tag}"
                            );
                            assert_eq!(got[g].to_bits(), want[g].to_bits(), "{tag}");
                        }
                    });
                }
            }
        }
    }
}
