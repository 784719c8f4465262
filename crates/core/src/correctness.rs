//! Layer 1: estimating extraction correctness `p(C_wdv = 1 | X_wdv)`
//! (Section 3.3.1, Eq. 15).
//!
//! For every triple group the posterior is the sigmoid of its vote count
//! plus the prior log-odds `ln(α/(1−α))`. The prior starts at the fixed
//! `α` of the config and is re-estimated per triple from the previous
//! iteration's value posteriors (Section 3.3.4, Eq. 26) once the schedule
//! allows it.

use kbt_datamodel::{ChunkedCube, GroupView, ObservationCube};
use kbt_flume::{par_chunks_mut, par_map_indexed, ShardedExecutor};

use crate::config::ModelConfig;
use crate::math::{logit, sigmoid};
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
    pub fn update(
        &mut self,
        cube: &ObservationCube,
        truth: &[f64],
        params: &Params,
        cfg: &ModelConfig,
    ) {
        debug_assert_eq!(truth.len(), cube.num_groups());
        let n = cfg.n_false_values.max(1) as f64;
        let spread = if cfg.literal_eq26_alpha { 1.0 } else { n };
        let logits = par_map_indexed(cube.groups(), |g, grp| {
            let a = params.source_accuracy[grp.source.index()];
            let t = truth[g];
            logit(t * a + (1.0 - t) * (1.0 - a) / spread)
        });
        self.logits = logits;
    }

    /// [`Self::update`] on the sharded executor, rewriting the logit
    /// buffer in place (no per-round allocation). Bit-identical to the
    /// flat form at any shard count: the per-group computation is pure.
    pub fn update_with(
        &mut self,
        cube: &ObservationCube,
        truth: &[f64],
        params: &Params,
        cfg: &ModelConfig,
        exec: &mut ShardedExecutor<()>,
    ) {
        debug_assert_eq!(truth.len(), cube.num_groups());
        let n = cfg.n_false_values.max(1) as f64;
        let spread = if cfg.literal_eq26_alpha { 1.0 } else { n };
        let groups = cube.groups();
        exec.map_keys(groups.len(), &mut self.logits, |_, g| {
            let grp = &groups[g];
            let a = params.source_accuracy[grp.source.index()];
            let t = truth[g];
            logit(t * a + (1.0 - t) * (1.0 - a) / spread)
        });
    }

    /// [`Self::update_with`] on the columnar layout: the per-group source
    /// id comes from the `group_source` column instead of the AoS group
    /// structs. Same arithmetic per group → bit-identical.
    pub fn update_cols(
        &mut self,
        cc: &ChunkedCube,
        truth: &[f64],
        params: &Params,
        cfg: &ModelConfig,
        exec: &mut ShardedExecutor<()>,
    ) {
        debug_assert_eq!(truth.len(), cc.num_groups());
        let n = cfg.n_false_values.max(1) as f64;
        let spread = if cfg.literal_eq26_alpha { 1.0 } else { n };
        let sources = &cc.group_source;
        exec.map_keys(cc.num_groups(), &mut self.logits, |_, g| {
            let a = params.source_accuracy[sources[g] as usize];
            let t = truth[g];
            logit(t * a + (1.0 - t) * (1.0 - a) / spread)
        });
    }

    /// [`Self::update_cols`] from a bare `source_offsets` CSR — the form
    /// the streamed fit uses: groups are source-sorted, so the per-source
    /// group spans stand in for the `group_source` column and the update
    /// reads no chunk data at all. Same per-group arithmetic →
    /// bit-identical to the resident update.
    pub fn update_offsets(
        &mut self,
        source_offsets: &[u32],
        truth: &[f64],
        params: &Params,
        cfg: &ModelConfig,
    ) {
        debug_assert_eq!(truth.len(), self.logits.len());
        let n = cfg.n_false_values.max(1) as f64;
        let spread = if cfg.literal_eq26_alpha { 1.0 } else { n };
        par_chunks_mut(&mut self.logits, |base, chunk| {
            // The span holding group `base`; later groups only walk forward.
            let mut w = source_offsets
                .partition_point(|&o| o as usize <= base)
                .saturating_sub(1);
            for (i, l) in chunk.iter_mut().enumerate() {
                let g = base + i;
                while source_offsets[w + 1] as usize <= g {
                    w += 1;
                }
                let a = params.source_accuracy[w];
                let t = truth[g];
                *l = logit(t * a + (1.0 - t) * (1.0 - a) / spread);
            }
        });
    }
}

/// Estimate `p(C_wdv = 1 | X_wdv)` for every triple group (Eq. 15 with the
/// confidence-weighted vote count of Eq. 31). Parallel over groups.
pub fn estimate_correctness(
    cube: &ObservationCube,
    votes: &VoteCounter,
    alpha: &AlphaState,
    cfg: &ModelConfig,
) -> Vec<f64> {
    par_map_indexed(cube.groups(), |g, grp| {
        let vcc = votes.vote_count(grp.source, cube.cells_of(grp), cfg);
        sigmoid(vcc + alpha.logit(g))
    })
}

/// [`estimate_correctness`] on the sharded executor, writing into a
/// caller-held buffer that is reused across EM rounds. Bit-identical to
/// the flat form at any shard count.
pub fn estimate_correctness_with(
    cube: &ObservationCube,
    votes: &VoteCounter,
    alpha: &AlphaState,
    cfg: &ModelConfig,
    exec: &mut ShardedExecutor<()>,
    out: &mut Vec<f64>,
) {
    let groups = cube.groups();
    exec.map_keys(groups.len(), out, |_, g| {
        let grp = &groups[g];
        let vcc = votes.vote_count(grp.source, cube.cells_of(grp), cfg);
        sigmoid(vcc + alpha.logit(g))
    });
}

/// The per-group cell fold `vc += conf·adjust[e]` shared by the resident
/// and streamed correctness kernels. With the `simd` feature this
/// dispatches to the AVX2 gather kernel (bit-identical by construction);
/// otherwise it is the scalar reference loop.
#[inline]
fn fold_cell_votes(
    start: f64,
    ext: &[u32],
    conf: &[f64],
    votes: &VoteCounter,
    cfg: &ModelConfig,
) -> f64 {
    #[cfg(feature = "simd")]
    {
        crate::simd::fold_cell_votes(start, ext, conf, votes, cfg)
    }
    #[cfg(not(feature = "simd"))]
    {
        let mut vc = start;
        for (&e, &c) in ext.iter().zip(conf) {
            vc += cfg.effective_confidence(c) * votes.adjust[e as usize];
        }
        vc
    }
}

/// [`estimate_correctness_with`] on the columnar layout: the vote count
/// streams the `cell_extractor`/`cell_confidence` columns with the
/// precomputed `Pre_e − Abs_e` adjust table, so the inner loop is a
/// branch-free gather + multiply-accumulate per cell. The per-cell float
/// sequence (`conf · (Pre_e − Abs_e)` accumulated in cell order onto the
/// source absence sum) is exactly [`VoteCounter::vote_count`]'s, so the
/// result is bit-identical to the row-major paths at any shard count.
pub fn estimate_correctness_cols(
    cc: &ChunkedCube,
    votes: &VoteCounter,
    alpha: &AlphaState,
    cfg: &ModelConfig,
    exec: &mut ShardedExecutor<()>,
    out: &mut Vec<f64>,
) {
    let sources = &cc.group_source;
    let offsets = &cc.cell_offsets;
    let extractors = &cc.cell_extractor;
    let confidences = &cc.cell_confidence;
    exec.map_keys(cc.num_groups(), out, |_, g| {
        let (lo, hi) = (offsets[g] as usize, offsets[g + 1] as usize);
        // Slice once so the cell loop carries no per-access bounds checks;
        // iteration stays in ascending cell order.
        let vc = fold_cell_votes(
            votes.source_absence_sum[sources[g] as usize],
            &extractors[lo..hi],
            &confidences[lo..hi],
            votes,
            cfg,
        );
        sigmoid(vc + alpha.logit(g))
    });
}

/// [`estimate_correctness_cols`] for one streamed group frame: the same
/// branch-free cell loop over the frame's columns, returning the frame's
/// posteriors in local group order (the caller scatters them into the
/// resident correctness vector). Per-group arithmetic is identical to the
/// resident kernel, so a streamed fit stays bit-for-bit equal.
pub fn estimate_correctness_frame(
    view: &GroupView<'_>,
    votes: &VoteCounter,
    alpha: &AlphaState,
    cfg: &ModelConfig,
) -> Vec<f64> {
    let base = view.groups.start as usize;
    (0..view.num_groups())
        .map(|lg| {
            let cells = view.cells(lg);
            let vc = fold_cell_votes(
                votes.source_absence_sum[view.group_source[lg] as usize],
                &view.cell_extractor[cells.clone()],
                &view.cell_confidence[cells],
                votes,
                cfg,
            );
            sigmoid(vc + alpha.logit(base + lg))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use kbt_datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId};

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
        let votes = VoteCounter::new(&cube, &params, &cfg);
        let alpha = AlphaState::uniform(cube.num_groups(), 0.5);
        let c = estimate_correctness(&cube, &votes, &alpha, &cfg);
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
        let mut b = CubeBuilder::new();
        b.push(Observation::certain(
            ExtractorId::new(0),
            SourceId::new(0),
            ItemId::new(0),
            ValueId::new(0),
        ));
        let cube = b.build();
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
        alpha.update(&cube, &[0.004], &params, &literal);
        let expected = logit(0.004 * 0.6 + 0.996 * 0.4);
        assert!((alpha.logit(0) - expected).abs() < 1e-12);
        // Eq. 5-consistent default spreads the false mass over n values:
        // α = 0.004·0.6 + 0.996·0.4/10 = 0.0423 — a much lower prior for
        // a value the consensus rejects.
        let cfg = ModelConfig::default();
        alpha.update(&cube, &[0.004], &params, &cfg);
        let expected_spread = logit(0.004 * 0.6 + 0.996 * 0.4 / 10.0);
        assert!((alpha.logit(0) - expected_spread).abs() < 1e-12);
        assert!(alpha.logit(0) < -2.0);
    }

    #[test]
    fn correctness_is_a_probability_for_all_groups() {
        let mut b = CubeBuilder::new();
        for w in 0..4u32 {
            for e in 0..3u32 {
                b.push(Observation {
                    extractor: ExtractorId::new(e),
                    source: SourceId::new(w),
                    item: ItemId::new(w),
                    value: ValueId::new(e),
                    confidence: 0.5,
                });
            }
        }
        let cube = b.build();
        let cfg = ModelConfig::default();
        let params = Params::init(&cube, &cfg, &crate::params::QualityInit::Default);
        let votes = VoteCounter::new(&cube, &params, &cfg);
        let alpha = AlphaState::uniform(cube.num_groups(), cfg.alpha);
        for p in estimate_correctness(&cube, &votes, &alpha, &cfg) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    /// The streamed α update reads sources off the group-span CSR instead
    /// of a `group_source` column; source ids without groups (3, then the
    /// trailing 6) and any worker split must not shift a span.
    #[test]
    fn alpha_update_from_offsets_matches_the_column_update() {
        let mut b = CubeBuilder::new();
        for w in [0u32, 1, 2, 4, 5] {
            for d in 0..(1 + w % 3) {
                b.push(Observation::certain(
                    ExtractorId::new(0),
                    SourceId::new(w),
                    ItemId::new(d),
                    ValueId::new(w % 2),
                ));
            }
        }
        b.reserve_ids(7, 1, 3, 2);
        let cube = b.build();
        let cfg = ModelConfig::default();
        let cc = ChunkedCube::from_cube(&cube, &cfg.chunking());
        let ng = cube.num_groups();
        let params = Params {
            source_accuracy: (0..cube.num_sources())
                .map(|w| 0.3 + 0.09 * w as f64)
                .collect(),
            precision: vec![0.9],
            recall: vec![0.9],
            q: vec![0.1],
        };
        let truth: Vec<f64> = (0..ng).map(|g| (g as f64 + 0.5) / ng as f64).collect();
        let mut by_column = AlphaState::uniform(ng, cfg.alpha);
        by_column.update_cols(&cc, &truth, &params, &cfg, &mut ShardedExecutor::new());
        for threads in [1, 2, 5] {
            let mut by_offsets = AlphaState::uniform(ng, cfg.alpha);
            kbt_flume::with_threads(Some(threads), || {
                by_offsets.update_offsets(&cc.source_offsets, &truth, &params, &cfg);
            });
            for g in 0..ng {
                assert_eq!(
                    by_offsets.logit(g).to_bits(),
                    by_column.logit(g).to_bits(),
                    "group {g} at {threads} threads"
                );
            }
        }
    }
}
