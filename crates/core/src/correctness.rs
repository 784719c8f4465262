//! Layer 1: estimating extraction correctness `p(C_wdv = 1 | X_wdv)`
//! (Section 3.3.1, Eq. 15).
//!
//! For every triple group the posterior is the sigmoid of its vote count
//! plus the prior log-odds `ln(α/(1−α))`. The prior starts at the fixed
//! `α` of the config and is re-estimated per triple from the previous
//! iteration's value posteriors (Section 3.3.4, Eq. 26) once the schedule
//! allows it.

use kbt_datamodel::ChunkBuf;

use crate::config::ModelConfig;
use crate::math::{logit, sigmoid};
use crate::mstep::RoundSums;
use crate::params::Params;
use crate::votes::VoteCounter;

/// Re-estimate the prior log-odds `ln(α / (1 − α))` of a chunk's rows from
/// the value layer (Section 3.3.4).
///
/// `truth[r]` is the previous iteration's `p(V_d = v | X)` of row `r`,
/// whose source is `sources[r]`; the source accuracy comes from the
/// current parameters. By default the Eq. 5-consistent form is used,
/// `α̂ = p·A_w + (1 − p)·(1 − A_w)/n` — a source provides a *specific*
/// false value with probability `(1 − A_w)/n`. Setting
/// [`ModelConfig::literal_eq26_alpha`] reproduces the paper's printed
/// Eq. 26 without the `/n` spread (Example 3.3).
pub(crate) fn update_alpha(
    logits: &mut [f64],
    sources: &[u32],
    truth: &[f64],
    params: &Params,
    cfg: &ModelConfig,
) {
    let n = cfg.n_false_values.max(1) as f64;
    let spread = if cfg.literal_eq26_alpha { 1.0 } else { n };
    for ((l, &w), &t) in logits.iter_mut().zip(sources).zip(truth) {
        let a = params.source_accuracy[w as usize];
        *l = logit(t * a + (1.0 - t) * (1.0 - a) / spread);
    }
}

/// `p(C_wdv = 1 | X_wdv)` for every row of a chunk (Eq. 15 with the
/// confidence-weighted vote count of Eq. 31) into `out`, from the rows'
/// prior log-odds `alpha`. The vote count streams the row's
/// `cell_extractor` / `cell_confidence` columns against the precomputed
/// `Pre_e − Abs_e` table: per cell, `conf · (Pre_e − Abs_e)` accumulated
/// in cell order onto the source's absence sum.
///
/// Each row's cells are folded into the extractor M-step's `sums` as soon
/// as its posterior is known, so the extractor update needs no pass of its
/// own.
pub(crate) fn estimate_correctness(
    frame: &ChunkBuf,
    votes: &VoteCounter,
    alpha: &[f64],
    cfg: &ModelConfig,
    out: &mut [f64],
    sums: &mut RoundSums,
) {
    for (r, p) in out.iter_mut().enumerate() {
        let cells = frame.cells(r);
        let extractors = &frame.cell_extractor[cells.clone()];
        let confidences = &frame.cell_confidence[cells];
        let mut vc = votes.source_absence_sum[frame.ig_source[r] as usize];
        for (&e, &c) in extractors.iter().zip(confidences) {
            vc += cfg.effective_confidence(c) * votes.adjust[e as usize];
        }
        *p = sigmoid(vc + alpha[r]);
        sums.fold_cells(extractors, confidences, *p, cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_layer::tests::scan_rows;
    use crate::reference;
    use kbt_datamodel::{
        ChunkedCube, ChunkingConfig, CubeBuilder, ExtractorId, ItemId, Observation, SourceId,
        ValueId,
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
        let alpha = vec![logit(0.5); cube.num_groups()];
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
        let mut alpha = [logit(0.5)];
        // Example 3.3 (literal Eq. 26): p(V=v) = 0.004, A_w = 0.6 →
        // α = 0.004·0.6 + 0.996·0.4 = 0.4008.
        let literal = ModelConfig {
            literal_eq26_alpha: true,
            ..ModelConfig::default()
        };
        update_alpha(&mut alpha, &[0], &[0.004], &params, &literal);
        let expected = logit(0.004 * 0.6 + 0.996 * 0.4);
        assert!((alpha[0] - expected).abs() < 1e-12);
        // Eq. 5-consistent default spreads the false mass over n values:
        // α = 0.004·0.6 + 0.996·0.4/10 = 0.0423 — a much lower prior for
        // a value the consensus rejects.
        let cfg = ModelConfig::default();
        update_alpha(&mut alpha, &[0], &[0.004], &params, &cfg);
        let expected_spread = logit(0.004 * 0.6 + 0.996 * 0.4 / 10.0);
        assert!((alpha[0] - expected_spread).abs() < 1e-12);
        assert!(alpha[0] < -2.0);
    }

    /// Kernel ≡ reference for the correctness E-step and the α update,
    /// bit for bit, at several chunk sizes and thread counts: each chunk's
    /// rows are its cube groups. The cube has source ids without groups
    /// (3, then the trailing 6).
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
        let zeros = vec![0.0; ng];
        let columns = [&zeros[..], &truth[..]];
        for policy in [
            crate::config::AbsencePolicy::AllExtractors,
            crate::config::AbsencePolicy::SourceCandidates,
        ] {
            let cfg = ModelConfig {
                absence_policy: policy,
                ..ModelConfig::default()
            };
            let votes = reference::vote_counter(&cube, &params, &cfg);
            let mut want_alpha = vec![logit(cfg.alpha); ng];
            reference::update_alpha(&mut want_alpha, &cube, &truth, &params, &cfg);
            let want = reference::estimate_correctness(&cube, &votes, &want_alpha, &cfg);
            for target_cells in [1usize, 5, 1 << 20] {
                let cc = ChunkedCube::from_cube(&cube, &ChunkingConfig { target_cells });
                for threads in [1, 2, 5] {
                    let mut workers = vec![RoundSums::default(); threads];
                    // α rides back out in the truth column.
                    let (got, alpha) = kbt_flume::with_threads(Some(threads), || {
                        scan_rows(&cc, &cfg, columns, &mut workers, |sums, buf, rows| {
                            sums.reset(cube.num_sources(), cube.num_extractors(), true);
                            update_alpha(rows.alpha, &buf.ig_source, rows.truth, &params, &cfg);
                            estimate_correctness(
                                buf,
                                &votes,
                                rows.alpha,
                                &cfg,
                                rows.correctness,
                                sums,
                            );
                            rows.truth.copy_from_slice(rows.alpha);
                        })
                    });
                    let got = got.iter().zip(&alpha.truth_of_group).map(|(&c, &a)| (a, c));
                    for (g, (alpha, c)) in got.enumerate() {
                        let tag = format!("{policy:?} t={target_cells} g={g} x{threads}");
                        assert_eq!(alpha.to_bits(), want_alpha[g].to_bits(), "alpha {tag}");
                        assert_eq!(c.to_bits(), want[g].to_bits(), "{tag}");
                    }
                }
            }
        }
    }
}
