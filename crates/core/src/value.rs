//! Layer 2: estimating the true value of each data item (Sections 3.3.2
//! and 3.3.3).
//!
//! Under the single-truth assumption each item `d` has one latent true
//! value `V_d` over a domain of `n + 1` values. Each source that provides
//! `(d, v)` casts a vote of weight `ln(n·A_w / (1 − A_w))` (Eq. 19); the
//! improved estimator (Eq. 23) scales that vote by the extraction
//! correctness `p(C_wdv = 1 | X)` rather than thresholding it. The
//! posterior is a softmax over vote counts with one `exp(0)` term per
//! unobserved domain value (Eq. 21/25, Example 3.2).

use kbt_datamodel::{ChunkBuf, CubeChunk, SourceId, ValueId};

use crate::config::{CorrectnessWeighting, ModelConfig, ValueModel};
use crate::copydetect::CopyDiscount;
use crate::math::clamp_quality;
use crate::math::log_sum_exp_with_zeros;
use crate::multi_layer::ChunkRows;
use crate::params::Params;
use crate::posterior::ItemPosteriors;

/// Output of the value layer.
#[derive(Debug, Clone)]
pub struct ValueLayerOutput {
    /// Posterior `p(V_d | X)` per item.
    pub posteriors: ItemPosteriors,
    /// `p(V_d = v(g) | X)` for each triple group `g` — the truthfulness of
    /// the triple the group supports.
    pub truth_of_group: Vec<f64>,
    /// `p(V_d = v(g) | X, C_g = 1)`: truthfulness *conditioned on the
    /// source actually providing the triple*. This is the quantity the
    /// source-accuracy update (Eq. 28) needs: under the improved
    /// estimator the unconditional posterior already discounts by
    /// `p(C)`, and re-weighting it by `p(C)` in Eq. 28 double-counts the
    /// extraction uncertainty, collapsing `A_w` on sparse data (see
    /// README, "Where this departs from the paper").
    pub truth_given_provided: Vec<f64>,
    /// Whether each group's `(d, v)` received at least one vote from an
    /// *active* source (the coverage rule; see [`ModelConfig::min_source_support`]).
    pub covered_group: Vec<bool>,
}

/// Reusable per-worker scratch of the value E-step: slot-indexed
/// accumulators sized once to the cube's `max_item_values` (so the
/// per-item inner loops index dense arrays instead of searching). Used
/// slots are reset after each item; capacity is retained across rounds.
#[derive(Debug, Default)]
pub(crate) struct ColValueScratch {
    vote_sum: Vec<f64>,
    voted: Vec<bool>,
    claim: Vec<f64>,
    prob: Vec<f64>,
    order: Vec<u32>,            // first-seen voted slots
    rows: Vec<(u32, f64, f64)>, // (slot, weight, full vote)
    vcs: Vec<f64>,
}

/// One chunk's posterior entries, in item order — kept by the fit across
/// rounds and concatenated in chunk order once, when the fit reports.
#[derive(Debug)]
pub(crate) struct ChunkPosteriors {
    entries: Vec<(ValueId, f64)>,
    entry_counts: Vec<u32>,
    unobserved: Vec<f64>,
}

impl ChunkPosteriors {
    /// Room for `chunk`'s posteriors — at most one entry per row — taken
    /// on the calling thread, so no scan worker ever grows these buffers
    /// (memory a worker allocates stays in its thread's arena).
    pub(crate) fn for_chunk(chunk: &CubeChunk) -> Self {
        Self {
            entries: Vec::with_capacity(chunk.rows.len()),
            entry_counts: Vec::with_capacity(chunk.items.len()),
            unobserved: Vec::with_capacity(chunk.items.len()),
        }
    }

    /// The posteriors of every item, from each chunk's in chunk order.
    pub(crate) fn concat(chunks: &[Self]) -> ItemPosteriors {
        let items = chunks.iter().map(|c| c.unobserved.len()).sum();
        let mut offsets = Vec::with_capacity(items + 1);
        offsets.push(0u32);
        let mut entries = Vec::with_capacity(chunks.iter().map(|c| c.entries.len()).sum());
        let mut unobserved = Vec::with_capacity(items);
        for chunk in chunks {
            for &c in &chunk.entry_counts {
                offsets.push(offsets.last().unwrap() + c);
            }
            entries.extend_from_slice(&chunk.entries);
            unobserved.extend_from_slice(&chunk.unobserved);
        }
        ItemPosteriors::from_flat_parts(offsets, entries, unobserved)
    }
}

/// What the value E-step reads besides the chunk, fixed for a round:
/// each active source's vote `ln(n·A_w/(1−A_w))` (× its independence
/// factor) and the model's switches. Rebuilt in place every round.
#[derive(Debug, Default)]
pub(crate) struct ValueVotes {
    full_vote: Vec<f64>,
    map_weight: bool,
    popaccu: bool,
    n: f64,
    domain: usize,
}

impl ValueVotes {
    /// The votes of `params` under `cfg`. `discount` (the CopyDiscount
    /// stage, if copy-aware fusion is on) scales each source's vote by its
    /// independence factor `I(w)` — `None` leaves the arithmetic
    /// bit-identical to copy-blind fusion. Inactive sources never vote, so
    /// their entry is a placeholder the kernel never reads.
    pub(crate) fn rebuild(
        &mut self,
        params: &Params,
        cfg: &ModelConfig,
        active_source: &[bool],
        discount: Option<&CopyDiscount>,
    ) {
        let n = cfg.n_false_values as f64;
        self.full_vote.clear();
        self.full_vote
            .extend(active_source.iter().enumerate().map(|(w, &active)| {
                if !active {
                    return 0.0;
                }
                let a = clamp_quality(params.source_accuracy[w]);
                let mut fv = (n * a / (1.0 - a)).ln();
                if let Some(dc) = discount {
                    fv *= dc.factor(SourceId::new(w as u32));
                }
                fv
            }));
        self.map_weight = cfg.correctness_weighting == CorrectnessWeighting::Map;
        self.popaccu = cfg.value_model == ValueModel::PopAccu;
        self.n = n;
        self.domain = cfg.n_false_values + 1;
    }
}

/// The per-item value E-step kernel (Eqs. 23–25). Streams the item's
/// rows with pre-resolved value slots and the chunk's correctness column
/// (`out.correctness`), so the hot loop is sequential loads, one weight
/// select, and a slot-indexed accumulate — no searching, no random
/// access, no per-item allocation. Per slot, votes accumulate in row
/// order, the POPACCU adjustment and the softmax run in first-seen value
/// order; the per-row `(truth, cond, covered)` outputs land at the item's
/// rows.
///
/// Takes the chunk's [`ChunkBuf`] (`li` is the frame-local item index), so
/// the same kernel — the same instructions, the same float sequence — runs
/// whether the frame is a resident cube's or a buffer streamed from disk.
fn col_value_item_kernel(
    frame: &ChunkBuf,
    votes: &ValueVotes,
    active_source: &[bool],
    li: usize,
    s: &mut ColValueScratch,
    out: &mut ChunkRows<'_>,
) {
    let vals = frame.values(li);
    let nv = vals.len();
    let rows = frame.rows(li);
    // Borrow the item's row span as slices once, so the hot loop iterates
    // without per-access bounds checks.
    let correctness = &out.correctness[rows.clone()];
    let ig_source = &frame.ig_source[rows.clone()];
    let ig_slot = &frame.ig_slot[rows.clone()];
    let cell_offsets = &frame.cell_offsets[rows.start..=rows.end];
    s.order.clear();
    s.rows.clear();
    let mut total_claims = 0.0f64;
    for r in 0..correctness.len() {
        let slot = ig_slot[r] as usize;
        if cell_offsets[r] == cell_offsets[r + 1] {
            // Cell-less group (emptied by a retraction delta): no claim,
            // no vote, but a dense truth entry below.
            s.rows.push((slot as u32, 0.0, 0.0));
            continue;
        }
        let c = correctness[r];
        let weight = if votes.map_weight {
            if c >= 0.5 {
                1.0
            } else {
                0.0
            }
        } else {
            c
        };
        s.claim[slot] += weight;
        total_claims += weight;
        let w = ig_source[r] as usize;
        if !active_source[w] {
            s.rows.push((slot as u32, 0.0, 0.0));
            continue;
        }
        let full_vote = votes.full_vote[w];
        let vote = weight * full_vote;
        s.rows.push((slot as u32, weight, full_vote));
        if s.voted[slot] {
            s.vote_sum[slot] += vote;
        } else {
            s.vote_sum[slot] = vote;
            s.voted[slot] = true;
            s.order.push(slot as u32);
        }
    }
    // POPACCU adjustment: replace the uniform 1/n false-value
    // probability with smoothed empirical popularity, i.e. add
    // ln(1/n) − ln(ρ(d,v)) per unit of claim weight on the value.
    let n = votes.n;
    if votes.popaccu && total_claims > 0.0 {
        let denom = total_claims + n + 1.0;
        for &slot in &s.order {
            let cnt = s.claim[slot as usize];
            let rho = (cnt + 1.0) / denom;
            s.vote_sum[slot as usize] += cnt * ((1.0 / n).ln() - rho.ln());
        }
    }

    // Softmax with unobserved-value zeros (Eq. 21/25), summed in
    // first-seen order.
    let domain = votes.domain;
    let unobserved_count = domain.saturating_sub(s.order.len());
    s.vcs.clear();
    s.vcs
        .extend(s.order.iter().map(|&slot| s.vote_sum[slot as usize]));
    let log_z = log_sum_exp_with_zeros(&s.vcs, unobserved_count);
    let posteriors = &mut *out.posteriors;
    let entry_start = posteriors.entries.len();
    for (slot, &val) in vals.iter().enumerate().take(nv) {
        if s.voted[slot] {
            let p = (s.vote_sum[slot] - log_z).exp();
            s.prob[slot] = p;
            posteriors.entries.push((ValueId::new(val), p));
        }
    }
    posteriors
        .entry_counts
        .push((posteriors.entries.len() - entry_start) as u32);
    let unobserved_mass = if log_z.is_finite() {
        (-log_z).exp()
    } else {
        1.0 / domain as f64
    };
    posteriors.unobserved.push(unobserved_mass);

    // Truth probability, conditional truth, and coverage per row.
    // p(V_d = v | X, C_g = 1): raise this group's vote from weight·vote
    // to the full vote and renormalize. With a = log p(v|X) and
    // b = a + (1−weight)·vote, p_cond = e^b / (1 − e^a + e^b).
    for (r, &(slot, weight, full_vote)) in rows.zip(&s.rows) {
        let slot = slot as usize;
        let voted = s.voted[slot];
        let p = if voted { s.prob[slot] } else { unobserved_mass };
        let p_cond = if log_z.is_finite() && full_vote != 0.0 {
            let x = if voted { s.vote_sum[slot] } else { 0.0 };
            let a = x - log_z;
            let b = a + (1.0 - weight) * full_vote;
            // `a.exp()` is the entry/unobserved probability computed in the
            // softmax pass from the very same bits (`x − log_z`; for the
            // unvoted case `0.0 − log_z` ≡ `−log_z` exactly, and for
            // `log_z == ±0.0` both arguments exp to the same 1.0) — reuse
            // it instead of a second `exp` per group.
            let ea = p;
            let eb = b.exp();
            (eb / (1.0 - ea + eb)).clamp(0.0, 1.0)
        } else {
            p
        };
        out.truth[r] = p;
        out.cond[r] = p_cond;
        out.covered[r] = voted;
    }

    // Reset the slots this item used; the arrays stay allocated.
    for slot in 0..nv {
        s.vote_sum[slot] = 0.0;
        s.voted[slot] = false;
        s.claim[slot] = 0.0;
    }
}

/// The value E-step over one chunk: [`col_value_item_kernel`] for each of
/// its items, from the chunk's correctness column into its truth,
/// conditional truth, coverage and posteriors. `active_source[w]` gates
/// which sources vote;
/// `max_item_values` sizes the slot accumulators. Every row belongs to
/// exactly one item and chunks never split an item, so the result does
/// not depend on the chunk partition, the thread count or the residency.
pub(crate) fn estimate_values(
    frame: &ChunkBuf,
    votes: &ValueVotes,
    active_source: &[bool],
    max_item_values: usize,
    s: &mut ColValueScratch,
    out: &mut ChunkRows<'_>,
) {
    for slots in [&mut s.vote_sum, &mut s.claim, &mut s.prob] {
        slots.clear();
        slots.resize(max_item_values, 0.0);
    }
    s.voted.clear();
    s.voted.resize(max_item_values, false);
    let posteriors = &mut *out.posteriors;
    posteriors.entries.clear();
    posteriors.entry_counts.clear();
    posteriors.unobserved.clear();
    for li in 0..frame.num_items() {
        col_value_item_kernel(frame, votes, active_source, li, s, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mstep::tests::hollow_rows;
    use crate::multi_layer::tests::scan_rows;
    use crate::reference;
    use kbt_datamodel::{
        ChunkedCube, ChunkingConfig, CubeBuilder, ExtractorId, ItemId, Observation,
    };

    /// The value E-step over every chunk of `cc` on `scratch.len()`
    /// workers, from correctness per cube group, reported as a fit
    /// reports it.
    fn scan(
        cc: &ChunkedCube,
        correctness: &[f64],
        votes: &ValueVotes,
        active: &[bool],
        scratch: &mut [ColValueScratch],
    ) -> ValueLayerOutput {
        let cfg = ModelConfig::default();
        let miv = cc.meta.max_item_values as usize;
        let truth = vec![0.0; cc.meta.num_groups as usize];
        scan_rows(cc, &cfg, [correctness, &truth], scratch, |s, buf, rows| {
            estimate_values(buf, votes, active, miv, s, rows);
        })
        .1
    }

    /// Kernel ≡ reference for the value E-step, bit for bit: both value
    /// models, both weightings, with and without a copy discount, at
    /// several chunk sizes and thread counts and across buffer reuse — on
    /// a cube after a retraction (emptied sources and items, inactive
    /// sources), and on the unretracted cube with the retracted groups'
    /// rows left without cells, which must tell the survivors the same.
    #[test]
    fn value_kernel_matches_the_reference_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(777);
        let mut b = CubeBuilder::new();
        for _ in 0..800 {
            b.push(Observation {
                extractor: ExtractorId::new(rng.gen_range(0..6)),
                source: SourceId::new(rng.gen_range(0..25)),
                item: ItemId::new(rng.gen_range(0..40)),
                value: ValueId::new(rng.gen_range(0..7)),
                confidence: rng.gen::<f64>(),
            });
        }
        let full = b.build();
        let retracted = |g: usize| g % 7 == 3 || full.groups()[g].source.0 == 11;
        let (gone, kept): (Vec<usize>, Vec<usize>) =
            (0..full.num_groups()).partition(|&g| retracted(g));
        let key = |g: &kbt_datamodel::TripleGroup| (g.source, g.item, g.value);
        let keys: Vec<_> = gone.iter().map(|&g| key(&full.groups()[g])).collect();
        let cube = full.retract(&keys);
        let params = Params {
            source_accuracy: (0..25).map(|w| 0.3 + 0.02 * w as f64).collect(),
            precision: vec![0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
            recall: vec![0.9, 0.8, 0.7, 0.6, 0.5, 0.4],
            q: vec![0.05, 0.1, 0.15, 0.2, 0.25, 0.3],
        };
        let correctness: Vec<f64> = (0..cube.num_groups()).map(|_| rng.gen::<f64>()).collect();
        let mut full_correctness = vec![0.5; full.num_groups()];
        for (&g, &c) in kept.iter().zip(&correctness) {
            full_correctness[g] = c;
        }
        let active: Vec<bool> = (0..25).map(|w| w % 5 != 0).collect();
        let discount =
            CopyDiscount::from_scales((0..25).map(|w| 1.0 - 0.03 * (w % 4) as f64).collect());
        for (value_model, weighting, discount) in [
            (ValueModel::Accu, CorrectnessWeighting::Weighted, None),
            (ValueModel::PopAccu, CorrectnessWeighting::Weighted, None),
            (ValueModel::Accu, CorrectnessWeighting::Map, None),
            (
                ValueModel::Accu,
                CorrectnessWeighting::Weighted,
                Some(&discount),
            ),
        ] {
            let cfg = ModelConfig {
                value_model,
                correctness_weighting: weighting,
                ..ModelConfig::default()
            };
            let want =
                reference::estimate_values(&cube, &correctness, &params, &cfg, &active, discount);
            let mut votes = ValueVotes::default();
            votes.rebuild(&params, &cfg, &active, discount);
            for target_cells in [1usize, 16, 1 << 20] {
                let chunking = ChunkingConfig { target_cells };
                let cc = ChunkedCube::from_cube(&cube, &chunking);
                let hollow = hollow_rows(ChunkedCube::from_cube(&full, &chunking), retracted);
                for shards in [1usize, 2, 8] {
                    let mut scratch: Vec<ColValueScratch> = Vec::new();
                    scratch.resize_with(shards, Default::default);
                    let mut run = |cc: &ChunkedCube, correctness: &[f64]| {
                        kbt_flume::with_threads(Some(shards), || {
                            scan(cc, correctness, &votes, &active, &mut scratch)
                        })
                    };
                    // Run twice: the second round exercises buffer reuse.
                    let _ = run(&cc, &correctness);
                    let got = run(&cc, &correctness);
                    let tag = format!("{value_model:?}/{weighting:?} t={target_cells} s={shards}");
                    assert_eq!(got.truth_of_group, want.truth_of_group, "{tag}");
                    assert_eq!(got.truth_given_provided, want.truth_given_provided, "{tag}");
                    assert_eq!(got.covered_group, want.covered_group, "{tag}");
                    assert_eq!(got.posteriors, want.posteriors, "{tag}");
                    let hollow = run(&hollow, &full_correctness);
                    let pick = |xs: &[f64]| kept.iter().map(|&g| xs[g]).collect::<Vec<f64>>();
                    assert_eq!(pick(&hollow.truth_of_group), want.truth_of_group, "{tag}");
                    assert_eq!(
                        pick(&hollow.truth_given_provided),
                        want.truth_given_provided,
                        "{tag}"
                    );
                    assert_eq!(hollow.posteriors, want.posteriors, "{tag}");
                    // A cell-less row still gets its dense entry: the mass of
                    // its value, voted or not — never the initial zero.
                    assert!(
                        gone.iter().all(|&g| hollow.truth_of_group[g] > 0.0),
                        "{tag}"
                    );
                }
            }
        }
    }
}
