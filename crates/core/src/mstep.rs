//! Parameter estimation (Section 3.4): source accuracies and extractor
//! precision/recall from the current latent-variable estimates.
//!
//! * **Source accuracy** (Eq. 28) — the KBT equation: the accuracy of a web
//!   source is the weighted average of the truth probability of the facts
//!   it contains, weighted by the probability that it indeed contains them.
//! * **Extractor quality** (Eqs. 32–33, confidence-weighted): precision is
//!   the average correctness of what the extractor extracted; recall is the
//!   correctness mass it captured out of all that was provided where it was
//!   looking. `Q_e` is then *derived* via Eq. 7 rather than estimated
//!   directly (Section 3.4.2).

use kbt_datamodel::{ChunkStoreMeta, GroupView};
use kbt_flume::par_ranges_mut;

use crate::config::{AbsencePolicy, ModelConfig};
use crate::math::clamp_quality;
use crate::params::{q_from_precision_recall, Params};

/// Eq. 28. Sources below `cfg.min_source_support` keep their current
/// (default) accuracy; `active` is updated to reflect which sources have
/// enough data to be trusted.
///
/// Eq. 28 needs no chunk data at all: groups are source-sorted, so source
/// `w` owns `correctness` / `truth` entries
/// `source_offsets[w]..source_offsets[w+1]`. Sources are updated in
/// parallel, balanced by group count, into the caller-held `updates`
/// buffer (reused across rounds); each source's sums run serially over
/// its span.
pub(crate) fn update_source_accuracy(
    source_offsets: &[u32],
    correctness: &[f64],
    truth: &[f64],
    cfg: &ModelConfig,
    params: &mut Params,
    active: &mut [bool],
    updates: &mut Vec<Option<f64>>,
) {
    let num_sources = source_offsets.len() - 1;
    debug_assert_eq!(truth.len(), correctness.len());
    let estimate = |w: usize| {
        let (lo, hi) = (source_offsets[w] as usize, source_offsets[w + 1] as usize);
        if hi - lo < cfg.min_source_support {
            return None;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for g in lo..hi {
            num += correctness[g] * truth[g];
            den += correctness[g];
        }
        if den <= 1e-12 {
            return None;
        }
        Some(clamp_quality(num / den))
    };
    updates.clear();
    updates.resize(num_sources, None);
    // One window of sources per worker, cut where the *group* mass splits
    // evenly: on a long-tail corpus the first half of the source ids owns
    // most of the groups, and an even split by source count leaves one
    // worker streaming several times what the others do.
    let parts = kbt_flume::num_threads().clamp(1, num_sources.max(1));
    let mut rest = updates.as_mut_slice();
    let mut windows = Vec::with_capacity(parts);
    let mut first = 0;
    for k in 1..=parts {
        // The last window also takes the trailing sources without groups.
        let mass = (truth.len() * k / parts) as u32;
        let ends = &source_offsets[1..];
        let end = if k == parts {
            num_sources
        } else {
            ends.partition_point(|&o| o < mass).max(first)
        };
        let window = rest.split_off_mut(..end - first);
        windows.push((first, window.expect("windows tile the sources")));
        first = end;
    }
    par_ranges_mut(&mut windows, |_, windows| {
        for (base, part) in windows {
            for (w, u) in (*base..).zip(part.iter_mut()) {
                *u = estimate(w);
            }
        }
    });
    for (w, u) in updates.iter().enumerate() {
        match u {
            Some(a) => {
                params.source_accuracy[w] = *a;
                active[w] = true;
            }
            None => {
                active[w] = false;
            }
        }
    }
}

/// The extractor-quality M-step (Eqs. 32–33 + Eq. 7) as a
/// transition/final accumulator riding the correctness scan
/// ([`crate::correctness::estimate_correctness`]).
///
/// Per-extractor sums must add up in a thread-count-independent order, so
/// [`Self::fold_frame`] runs in the scan's ordered section — frame `i`
/// after frame `i − 1`, on the worker that just computed the frame's
/// correctness and still holds it — which is global cell order, the serial
/// loop's: `num[e] = Σ conf·p(C=1)` and `pden[e] = Σ conf` over the
/// extractor's cells. [`Self::finish`] runs at the M-step's place in
/// Algorithm 1.
#[derive(Debug)]
pub(crate) struct ExtractorSums {
    num: Vec<f64>,
    pden: Vec<f64>,
}

impl ExtractorSums {
    /// A round's sums, all zero.
    pub fn new(num_extractors: usize) -> Self {
        Self {
            num: vec![0.0; num_extractors],
            pden: vec![0.0; num_extractors],
        }
    }

    /// Fold one group frame's cells into the per-extractor sums;
    /// `correctness` is the frame's window of `p(C = 1)`.
    pub fn fold_frame(&mut self, view: &GroupView<'_>, correctness: &[f64], cfg: &ModelConfig) {
        for (lg, &c_g) in correctness.iter().enumerate() {
            let cells = view.cells(lg);
            let extractors = &view.cell_extractor[cells.clone()];
            for (&e, &raw) in extractors.iter().zip(&view.cell_confidence[cells]) {
                let conf = cfg.effective_confidence(raw);
                self.num[e as usize] += conf * c_g;
                self.pden[e as usize] += conf;
            }
        }
    }

    /// Derive the new precision/recall and, via Eq. 7, Q, from a finished
    /// scan's sums. The recall denominator needs no cell: under the scoped
    /// absence policy extractor `e` collects the correctness mass of every
    /// source it observes (`Σ_{g : e ∈ candidates(source(g))} p(C_g = 1)`),
    /// in ascending source order off the skeleton's per-source extractor
    /// sets; otherwise the total mass (Eq. 30 literally: the same
    /// denominator for every extractor).
    pub fn finish(
        &self,
        meta: &ChunkStoreMeta,
        correctness: &[f64],
        cfg: &ModelConfig,
        params: &mut Params,
    ) {
        let ne = self.num.len();
        let mut rden = vec![0.0f64; ne];
        if cfg.absence_policy == AbsencePolicy::SourceCandidates {
            let spans = meta.source_offsets.windows(2);
            for (groups, ext) in spans.zip(meta.source_ext_offsets.windows(2)) {
                let mass: f64 = correctness[groups[0] as usize..groups[1] as usize]
                    .iter()
                    .sum();
                for &e in &meta.source_ext_ids[ext[0] as usize..ext[1] as usize] {
                    rden[e as usize] += mass;
                }
            }
        } else {
            rden.fill(correctness.iter().sum());
        }
        let gamma = estimate_gamma(&meta.source_item_counts, correctness, cfg);
        let (precision, recall) = (&mut params.precision, &mut params.recall);
        for e in 0..ne {
            if self.pden[e] > 1e-12 {
                precision[e] = clamp_quality(self.num[e] / self.pden[e]);
            }
            if rden[e] > 1e-12 {
                recall[e] = clamp_quality(self.num[e] / rden[e]);
            }
            params.q[e] = q_from_precision_recall(precision[e], recall[e], gamma);
        }
    }
}

/// The γ re-estimation of the extractor-quality update (see
/// [`ModelConfig::estimate_gamma`]): expected provided mass over the slot
/// universe — each source can provide one of `n + 1` domain values for
/// each of its `source_item_counts[w]` distinct items.
pub fn estimate_gamma(source_item_counts: &[u32], correctness: &[f64], cfg: &ModelConfig) -> f64 {
    if !cfg.estimate_gamma || correctness.is_empty() {
        return cfg.gamma;
    }
    let mut slots = 0usize;
    for &c in source_item_counts {
        slots += c as usize * (cfg.n_false_values + 1);
    }
    let mass: f64 = correctness.iter().sum();
    clamp_quality(mass / (slots.max(1) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correctness::{estimate_correctness, AlphaState};
    use crate::reference;
    use kbt_datamodel::{
        ChunkSource, ChunkedCube, ChunkingConfig, CubeBuilder, ExtractorId, ItemId, Observation,
        ObservationCube, ResidentChunks, SourceId, ValueId,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One round's correctness, parameters and active flags.
    type Round = (Vec<f64>, Params, Vec<bool>);

    /// Two rounds (the second exercises buffer reuse) of the fused
    /// correctness scan and both M-steps from `init`, as `run_em` calls
    /// them.
    fn two_rounds(cc: &ChunkedCube, init: &Params, truth: &[f64], cfg: &ModelConfig) -> Round {
        let src = ResidentChunks::new(cc);
        let meta = src.meta();
        let (ne, nw) = (cc.num_extractors(), cc.num_sources());
        let mut votes = crate::votes::VoteCounter::empty();
        let (ext_offsets, ext_ids) = (&meta.source_ext_offsets, &meta.source_ext_ids);
        votes.rebuild(ne, nw, ext_offsets, ext_ids, init, cfg);
        let alpha = AlphaState::uniform(truth.len(), cfg.alpha);
        let (mut c, mut got, mut active) = (vec![0.0; truth.len()], init.clone(), vec![true; nw]);
        let mut updates = Vec::new();
        for _ in 0..2 {
            got = init.clone();
            let sums = estimate_correctness(&src, &votes, &alpha, cfg, &mut c).unwrap();
            let (offsets, active) = (&cc.source_offsets, &mut active);
            update_source_accuracy(offsets, &c, truth, cfg, &mut got, active, &mut updates);
            sums.finish(meta, &c, cfg, &mut got);
        }
        (c, got, active)
    }

    /// Kernel ≡ reference for both M-steps, bit for bit: Eq. 28 from the
    /// offsets CSR and Eqs. 32–33 folded under the correctness scan, at
    /// several frame sizes and thread counts and across buffer-reuse
    /// rounds — on a random cube, on that cube after a retraction that
    /// empties source 11, and on the unretracted cube with the retracted
    /// groups left in place without cells, which must fold nothing.
    #[test]
    fn mstep_kernels_match_the_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut b = CubeBuilder::new();
        for _ in 0..600 {
            b.push(Observation {
                extractor: ExtractorId::new(rng.gen_range(0..8)),
                source: SourceId::new(rng.gen_range(0..15)),
                item: ItemId::new(rng.gen_range(0..25)),
                value: ValueId::new(rng.gen_range(0..4)),
                confidence: rng.gen::<f64>(),
            });
        }
        let full = b.build();
        let retracted = |g: usize| g % 7 == 3 || full.groups()[g].source.0 == 11;
        let gone = full
            .groups()
            .iter()
            .enumerate()
            .filter(|&(g, _)| retracted(g));
        let keys: Vec<_> = gone.map(|(_, g)| (g.source, g.item, g.value)).collect();
        let shrunk = full.retract(&keys);
        let truth: Vec<f64> = (0..full.num_groups()).map(|_| rng.gen::<f64>()).collect();
        let init = Params {
            source_accuracy: vec![0.8; full.num_sources()],
            precision: (0..8).map(|e| 0.9 - 0.06 * e as f64).collect(),
            recall: (0..8).map(|e| 0.5 + 0.05 * e as f64).collect(),
            q: (0..8).map(|e| 0.02 + 0.03 * e as f64).collect(),
        };
        // The retracted groups stay, without cells; the cells left and the
        // per-source extractor sets are the retracted cube's.
        let hollow_out = |mut cc: ChunkedCube, shrunk: &ChunkedCube| {
            let offsets = std::mem::replace(&mut cc.cell_offsets, vec![0]);
            let ext = std::mem::take(&mut cc.cell_extractor);
            let conf = std::mem::take(&mut cc.cell_confidence);
            for g in 0..full.num_groups() {
                if !retracted(g) {
                    let cells = offsets[g] as usize..offsets[g + 1] as usize;
                    cc.cell_extractor.extend(&ext[cells.clone()]);
                    cc.cell_confidence.extend(&conf[cells]);
                }
                cc.cell_offsets.push(cc.cell_extractor.len() as u32);
            }
            cc.source_ext_offsets = shrunk.source_ext_offsets.clone();
            cc.source_ext_ids = shrunk.source_ext_ids.clone();
            cc
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for policy in [
            AbsencePolicy::AllExtractors,
            AbsencePolicy::SourceCandidates,
        ] {
            for estimate_gamma in [true, false] {
                let cfg = ModelConfig {
                    absence_policy: policy,
                    estimate_gamma,
                    min_source_support: 3,
                    ..ModelConfig::default()
                };
                let oracle = |cube: &ObservationCube| -> Round {
                    let truth = &truth[..cube.num_groups()];
                    let votes = reference::vote_counter(cube, &init, &cfg);
                    let alpha = AlphaState::uniform(truth.len(), cfg.alpha);
                    let c = reference::estimate_correctness(cube, &votes, &alpha, &cfg);
                    let (mut want, mut active) = (init.clone(), vec![true; cube.num_sources()]);
                    reference::update_source_accuracy(
                        cube,
                        &c,
                        truth,
                        &cfg,
                        &mut want,
                        &mut active,
                    );
                    reference::update_extractor_quality(cube, &c, &cfg, &mut want);
                    (c, want, active)
                };
                let (want_full, want_shrunk) = (oracle(&full), oracle(&shrunk));
                let mut hollow_first: Option<Params> = None;
                for target_cells in [1usize, 64, 1 << 20] {
                    let chunking = ChunkingConfig { target_cells };
                    let of = |cube| ChunkedCube::from_cube(cube, &chunking);
                    let cases = [
                        (of(&full), Some(&want_full)),
                        (of(&shrunk), Some(&want_shrunk)),
                        (hollow_out(of(&full), &of(&shrunk)), None),
                    ];
                    for (cc, want) in &cases {
                        for threads in [1usize, 2, 8] {
                            let (c, got, active) = kbt_flume::with_threads(Some(threads), || {
                                two_rounds(cc, &init, &truth[..cc.num_groups()], &cfg)
                            });
                            let tag = format!("{policy:?} γ={estimate_gamma} t={target_cells}");
                            let Some(want) = want else {
                                assert_eq!(got.precision, want_shrunk.1.precision, "hollow {tag}");
                                let first = hollow_first.get_or_insert(got.clone());
                                assert_eq!(&got, first, "hollow {tag} x{threads}");
                                continue;
                            };
                            assert_eq!(bits(&c), bits(&want.0), "{tag} x{threads}");
                            assert_eq!(got, want.1, "{tag} x{threads}");
                            assert_eq!(active, want.2, "{tag} x{threads}");
                        }
                    }
                }
            }
        }
    }
}
