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

use std::ops::Range;

use kbt_datamodel::{ChunkStoreMeta, GroupView};
use kbt_flume::ExactSum;

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
/// parallel, balanced by group count; `num_w` and `den_w` are exact sums.
/// `den_w = Σ p(C_g = 1)` is also what the recall denominators and γ add
/// up, so with `extraction` on it comes back merged: entry `e` over the
/// sources extractor `e` observes (if scoped), the last entry in total.
pub(crate) fn update_source_accuracy(
    meta: &ChunkStoreMeta,
    correctness: &[f64],
    truth: &[f64],
    cfg: &ModelConfig,
    params: &mut Params,
    active: &mut [bool],
    extraction: bool,
) -> Vec<ExactSum> {
    let (offsets, ext_offsets) = (&meta.source_offsets, &meta.source_ext_offsets);
    let num_sources = offsets.len() - 1;
    let scoped = cfg.absence_policy == AbsencePolicy::SourceCandidates;
    let masses = usize::from(extraction) * (meta.num_extractors as usize + 1);
    // One window of sources per worker, cut where the *group* mass splits
    // evenly: on a long-tail corpus the first half of the source ids owns
    // most of the groups, and an even split by source count leaves one
    // worker streaming several times what the others do.
    let parts = kbt_flume::num_threads().clamp(1, num_sources.max(1));
    let cut = |k: usize| match k {
        k if k == parts => num_sources,
        k => offsets[1..].partition_point(|&o| (o as usize) < truth.len() * k / parts),
    };
    let windows: Vec<_> = (0..parts).map(|k| cut(k)..cut(k + 1)).collect();
    let window = |sources: &Range<usize>| {
        let mut mass = vec![ExactSum::default(); masses];
        let updates: Vec<Option<f64>> = (sources.clone())
            .map(|w| {
                let groups = offsets[w] as usize..offsets[w + 1] as usize;
                let (mut num, mut den) = (ExactSum::default(), ExactSum::default());
                num.extend(groups.clone().map(|g| correctness[g] * truth[g]));
                den.extend(correctness[groups.clone()].iter().copied());
                if let Some((total, per_extractor)) = mass.split_last_mut() {
                    total.merge(&den);
                    let ext = ext_offsets[w] as usize..ext_offsets[w + 1] as usize;
                    for &e in meta.source_ext_ids[ext].iter().filter(|_| scoped) {
                        per_extractor[e as usize].merge(&den);
                    }
                }
                let den = den.finish();
                let supported = groups.len() >= cfg.min_source_support && den > 1e-12;
                supported.then(|| clamp_quality(num.finish() / den))
            })
            .collect();
        (sources.clone(), updates, mass)
    };
    let mut mass = vec![ExactSum::default(); masses];
    for (sources, updates, part) in kbt_flume::par_map_slice(&windows, window) {
        mass.iter_mut().zip(&part).for_each(|(m, p)| m.merge(p));
        for (w, u) in sources.zip(updates) {
            active[w] = u.is_some();
            params.source_accuracy[w] = u.unwrap_or(params.source_accuracy[w]);
        }
    }
    mass
}

/// The extractor-quality M-step (Eqs. 32–33 + Eq. 7) as a
/// transition/merge/final accumulator riding the correctness scan
/// ([`crate::correctness::estimate_correctness`]).
///
/// Each scan worker folds the frames it computed into its own exact sums —
/// `num[e] = Σ conf·p(C=1)` and `pden[e] = Σ conf` over the extractor's
/// cells — merged after the scan, so no frame order or worker shows in
/// the bits. [`Self::finish`] runs at the M-step's place in Algorithm 1.
#[derive(Debug, Clone)]
pub(crate) struct ExtractorSums {
    num: Vec<ExactSum>,
    pden: Vec<ExactSum>,
}

impl ExtractorSums {
    /// A round's sums, all zero.
    pub fn new(num_extractors: usize) -> Self {
        Self {
            num: vec![ExactSum::default(); num_extractors],
            pden: vec![ExactSum::default(); num_extractors],
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
                self.num[e as usize].add(conf * c_g);
                self.pden[e as usize].add(conf);
            }
        }
    }

    /// Add another worker's sums.
    pub(crate) fn merge(&mut self, other: &Self) {
        let (num, pden) = (self.num.iter_mut(), self.pden.iter_mut());
        for (a, b) in num.zip(&other.num).chain(pden.zip(&other.pden)) {
            a.merge(b);
        }
    }

    /// Derive the new precision/recall and, via Eq. 7, Q, from a finished
    /// scan's sums and the `mass` of [`update_source_accuracy`]. Extractor
    /// `e`'s recall denominator is, if scoped, the mass of every source it
    /// observes; otherwise the total (Eq. 30 literally). γ̂ is the total
    /// over the slot universe: `n + 1` values per distinct item of a source.
    pub fn finish(
        &self,
        meta: &ChunkStoreMeta,
        mass: &[ExactSum],
        cfg: &ModelConfig,
        params: &mut Params,
    ) {
        let (total, per_extractor) = mass.split_last().expect("the total mass");
        let total = total.finish();
        let items: usize = meta.source_item_counts.iter().map(|&c| c as usize).sum();
        let gamma = if cfg.estimate_gamma && items > 0 {
            clamp_quality(total / ((items * (cfg.n_false_values + 1)) as f64))
        } else {
            cfg.gamma
        };
        let (precision, recall) = (&mut params.precision, &mut params.recall);
        for e in 0..self.num.len() {
            let (num, pden) = (self.num[e].finish(), self.pden[e].finish());
            let rden = match cfg.absence_policy {
                AbsencePolicy::SourceCandidates => per_extractor[e].finish(),
                AbsencePolicy::AllExtractors => total,
            };
            if pden > 1e-12 {
                precision[e] = clamp_quality(num / pden);
            }
            if rden > 1e-12 {
                recall[e] = clamp_quality(num / rden);
            }
            params.q[e] = q_from_precision_recall(precision[e], recall[e], gamma);
        }
    }
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
        for _ in 0..2 {
            got = init.clone();
            let sums = estimate_correctness(&src, &votes, &alpha, cfg, &mut c).unwrap();
            let mass = update_source_accuracy(meta, &c, truth, cfg, &mut got, &mut active, true);
            sums.finish(meta, &mass, cfg, &mut got);
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
