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

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use kbt_datamodel::{ChunkSource, ItemView, SourceId, ValueId};

use crate::config::{CorrectnessWeighting, ModelConfig, ValueModel};
use crate::copydetect::CopyDiscount;
use crate::math::clamp_quality;
use crate::math::log_sum_exp_with_zeros;
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
    /// DESIGN.md).
    pub truth_given_provided: Vec<f64>,
    /// Whether each group's `(d, v)` received at least one vote from an
    /// *active* source (the coverage rule; see [`ModelConfig::min_source_support`]).
    pub covered_group: Vec<bool>,
}

/// Reusable per-worker scratch of the value E-step: slot-indexed
/// accumulators sized once to the cube's `max_item_values` (so the
/// per-item inner loops index dense arrays instead of searching), and the
/// chunk-local row columns of the gather → compute → scatter phases. Used
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
    // One entry per item-major row of the chunk in hand.
    gathered: Vec<f64>, // correctness[ig_group[r]]
    truth: Vec<f64>,
    cond: Vec<f64>,
    covered: Vec<bool>,
}

/// One item chunk's posterior entries, concatenated in chunk order.
struct ValueChunkOut {
    entries: Vec<(ValueId, f64)>,
    entry_counts: Vec<u32>,
    unobserved: Vec<f64>,
}

/// The per-item value E-step kernel (Eqs. 23–25). Streams the item's
/// `ig_*` rows with pre-resolved value slots and the chunk's pre-gathered
/// correctness column, so the hot loop is sequential loads, one weight
/// select, and a slot-indexed accumulate — no searching, no random access,
/// no per-item allocation. Per slot, votes accumulate in row order, the
/// POPACCU adjustment and the softmax run in first-seen value order; the
/// per-row `(truth, cond, covered)` outputs append in row order.
///
/// Takes an [`ItemView`] (`li` is the view-local item index), so the same
/// kernel — the same instructions, the same float sequence — runs whether
/// the chunk is a resident slice or a buffer streamed from disk.
// Kernel signature: the EM stages pass disjoint column and scratch borrows as separate parameters; bundling them in a struct would alias mutable slices or force per-round allocation.
#[allow(clippy::too_many_arguments)]
fn col_value_item_kernel(
    view: &ItemView<'_>,
    active_source: &[bool],
    full_vote_of: &[f64],
    map_weight: bool,
    popaccu: bool,
    n: f64,
    domain: usize,
    li: usize,
    s: &mut ColValueScratch,
    out: &mut ValueChunkOut,
) {
    let vals = view.values(li);
    let nv = vals.len();
    let rows = view.rows(li);
    // Borrow the item's row span as slices once, so the hot loop iterates
    // without per-access bounds checks.
    let gathered = &s.gathered[rows.clone()];
    let ig_source = &view.ig_source[rows.clone()];
    let ig_slot = &view.ig_slot[rows.clone()];
    let ig_has_cells = &view.ig_has_cells[rows];
    s.order.clear();
    s.rows.clear();
    let mut total_claims = 0.0f64;
    for r in 0..gathered.len() {
        let slot = ig_slot[r] as usize;
        if ig_has_cells[r] == 0 {
            // Cell-less group (emptied by a retraction delta): no claim,
            // no vote, but a dense truth entry below.
            s.rows.push((slot as u32, 0.0, 0.0));
            continue;
        }
        let c = gathered[r];
        let weight = if map_weight {
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
        let full_vote = full_vote_of[w];
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
    if popaccu && total_claims > 0.0 {
        let denom = total_claims + n + 1.0;
        for &slot in &s.order {
            let cnt = s.claim[slot as usize];
            let rho = (cnt + 1.0) / denom;
            s.vote_sum[slot as usize] += cnt * ((1.0 / n).ln() - rho.ln());
        }
    }

    // Softmax with unobserved-value zeros (Eq. 21/25), summed in
    // first-seen order.
    let unobserved_count = domain.saturating_sub(s.order.len());
    s.vcs.clear();
    s.vcs
        .extend(s.order.iter().map(|&slot| s.vote_sum[slot as usize]));
    let log_z = log_sum_exp_with_zeros(&s.vcs, unobserved_count);
    let entry_start = out.entries.len();
    for (slot, &val) in vals.iter().enumerate().take(nv) {
        if s.voted[slot] {
            let p = (s.vote_sum[slot] - log_z).exp();
            s.prob[slot] = p;
            out.entries.push((ValueId::new(val), p));
        }
    }
    out.entry_counts
        .push((out.entries.len() - entry_start) as u32);
    let unobserved_mass = if log_z.is_finite() {
        (-log_z).exp()
    } else {
        1.0 / domain as f64
    };
    out.unobserved.push(unobserved_mass);

    // Truth probability, conditional truth, and coverage per row.
    // p(V_d = v | X, C_g = 1): raise this group's vote from weight·vote
    // to the full vote and renormalize. With a = log p(v|X) and
    // b = a + (1−weight)·vote, p_cond = e^b / (1 − e^a + e^b).
    for &(slot, weight, full_vote) in &s.rows {
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
        s.truth.push(p);
        s.cond.push(p_cond);
        s.covered.push(voted);
    }

    // Reset the slots this item used; the arrays stay allocated.
    for slot in 0..nv {
        s.vote_sum[slot] = 0.0;
        s.voted[slot] = false;
        s.claim[slot] = 0.0;
    }
}

/// The value E-step over every item chunk of `src`.
///
/// `correctness[g]` is the current `p(C_wdv = 1 | X)`; `active_source[w]`
/// gates which sources vote; `discount` (the CopyDiscount stage, if
/// copy-aware fusion is on) scales each source's vote by its independence
/// factor `I(w)` — `None` leaves the arithmetic bit-identical to
/// copy-blind fusion.
///
/// Workers pull whole chunks ([`ChunkSource::scan_items`], one `scratch`
/// slot each) and run three phases per chunk, so that the only random
/// memory accesses sit in two tight loops the core can overlap misses in,
/// away from the dependent float work: **gather** `correctness[ig_group[r]]`
/// into a chunk-local column, **compute** ([`col_value_item_kernel`] over
/// dense rows), **scatter** the chunk's rows to the three per-group
/// outputs. Chunks tile the item space in order and every group belongs to
/// exactly one item, so the result is the same at any thread count, chunk
/// size and residency.
pub(crate) fn estimate_values<S: ChunkSource>(
    src: &S,
    correctness: &[f64],
    params: &Params,
    cfg: &ModelConfig,
    active_source: &[bool],
    discount: Option<&CopyDiscount>,
    scratch: &mut [ColValueScratch],
) -> io::Result<ValueLayerOutput> {
    let meta = src.meta();
    let num_groups = meta.num_groups as usize;
    let ni = meta.num_items as usize;
    debug_assert_eq!(correctness.len(), num_groups);
    debug_assert_eq!(active_source.len(), meta.num_sources as usize);
    let n = cfg.n_false_values as f64;

    // `ln(n·A_w/(1−A_w))` (× independence factor) per active source,
    // hoisted out of the hot loop. Inactive sources never vote, so their
    // slot is a placeholder the kernel never reads.
    let full_vote_of: Vec<f64> = (0..meta.num_sources as usize)
        .map(|w| {
            if !active_source[w] {
                return 0.0;
            }
            let a = clamp_quality(params.source_accuracy[w]);
            let mut fv = (n * a / (1.0 - a)).ln();
            if let Some(dc) = discount {
                fv *= dc.factor(SourceId::new(w as u32));
            }
            fv
        })
        .collect();

    let map_weight = cfg.correctness_weighting == CorrectnessWeighting::Map;
    let popaccu = cfg.value_model == ValueModel::PopAccu;
    let domain = cfg.n_false_values + 1;
    let miv = meta.max_item_values as usize;

    // The per-group outputs, written by the workers: atomics only to share
    // the vectors across the scan, never to synchronize.
    let bits = || (0..num_groups).map(|_| AtomicU64::new(0)).collect();
    let (truth, cond): (Vec<AtomicU64>, Vec<AtomicU64>) = (bits(), bits());
    let covered: Vec<AtomicBool> = (0..num_groups).map(|_| AtomicBool::new(false)).collect();

    let outs: Vec<ValueChunkOut> = src.scan_items(scratch, |s, view| {
        for slots in [&mut s.vote_sum, &mut s.claim, &mut s.prob] {
            slots.clear();
            slots.resize(miv, 0.0);
        }
        s.voted.clear();
        s.voted.resize(miv, false);
        s.gathered.clear();
        s.gathered
            .extend(view.ig_group.iter().map(|&g| correctness[g as usize]));
        s.truth.clear();
        s.cond.clear();
        s.covered.clear();
        let mut out = ValueChunkOut {
            entries: Vec::with_capacity(view.item_values.len()),
            entry_counts: Vec::with_capacity(view.num_items()),
            unobserved: Vec::with_capacity(view.num_items()),
        };
        for li in 0..view.num_items() {
            col_value_item_kernel(
                view,
                active_source,
                &full_vote_of,
                map_weight,
                popaccu,
                n,
                domain,
                li,
                s,
                &mut out,
            );
        }
        let rows = s.truth.iter().zip(&s.cond).zip(&s.covered);
        for (&g, ((&t, &c), &cov)) in view.ig_group.iter().zip(rows) {
            // ordering: Relaxed — group `g` is a row of exactly one item,
            // so each slot has one writer per round and nobody reads it
            // before the scan's workers are joined.
            truth[g as usize].store(t.to_bits(), Ordering::Relaxed);
            cond[g as usize].store(c.to_bits(), Ordering::Relaxed);
            covered[g as usize].store(cov, Ordering::Relaxed);
        }
        out
    })?;

    let total_entries: usize = outs.iter().map(|o| o.entries.len()).sum();
    let mut offsets = Vec::with_capacity(ni + 1);
    offsets.push(0u32);
    let mut entries = Vec::with_capacity(total_entries);
    let mut unobserved = Vec::with_capacity(ni);
    for out in &outs {
        for &c in &out.entry_counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        entries.extend_from_slice(&out.entries);
        unobserved.extend_from_slice(&out.unobserved);
    }
    debug_assert_eq!(offsets.len(), ni + 1);

    let floats = |v: Vec<AtomicU64>| v.into_iter().map(|x| f64::from_bits(x.into_inner()));
    Ok(ValueLayerOutput {
        posteriors: ItemPosteriors::from_flat_parts(offsets, entries, unobserved),
        truth_of_group: floats(truth).collect(),
        truth_given_provided: floats(cond).collect(),
        covered_group: covered.into_iter().map(AtomicBool::into_inner).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use kbt_datamodel::{
        ChunkedCube, ChunkingConfig, CubeBuilder, ExtractorId, ItemId, Observation, ResidentChunks,
    };

    /// Kernel ≡ reference for the value E-step, bit for bit: both value
    /// models, both weightings, with and without a copy discount, at
    /// several chunk sizes and thread counts and across buffer reuse — on
    /// a cube after a retraction (emptied sources and items, inactive
    /// sources), and on the unretracted cube with the retracted groups'
    /// rows marked cell-less, which must tell the survivors the same.
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
            for target_cells in [1usize, 16, 1 << 20] {
                let chunking = ChunkingConfig { target_cells };
                let cc = ChunkedCube::from_cube(&cube, &chunking);
                let mut hollow = ChunkedCube::from_cube(&full, &chunking);
                for (has_cells, &g) in hollow.ig_has_cells.iter_mut().zip(&hollow.ig_group) {
                    *has_cells = u8::from(!retracted(g as usize));
                }
                // Every group is a row of exactly one item: one writer per slot.
                let mut rows = cc.ig_group.clone();
                rows.sort_unstable();
                assert!(rows.iter().copied().eq(0..cube.num_groups() as u32));
                for shards in [1usize, 2, 8] {
                    let mut scratch: Vec<ColValueScratch> = Vec::new();
                    scratch.resize_with(shards, Default::default);
                    let mut run = |cc: &ChunkedCube, correctness: &[f64]| {
                        let src = ResidentChunks::new(cc);
                        kbt_flume::with_threads(Some(shards), || {
                            estimate_values(
                                &src,
                                correctness,
                                &params,
                                &cfg,
                                &active,
                                discount,
                                &mut scratch,
                            )
                        })
                        .unwrap()
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
