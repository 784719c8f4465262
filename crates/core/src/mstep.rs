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
//!
//! Both are transition / merge / final aggregates: a round's scan folds
//! every row into its worker's `RoundSums`, the workers' sums are merged
//! after the scan, and the updates below finish them — exact sums, so no
//! chunk order, partition or worker count shows in the bits.

use kbt_datamodel::ChunkStoreMeta;
use kbt_flume::ExactSum;

use crate::config::{AbsencePolicy, ModelConfig};
use crate::math::clamp_quality;
use crate::model::map_confidence_ll;
use crate::params::{q_from_precision_recall, Params};

/// One round's sums, per scan worker: Eq. 28's per source, `num_w = Σ
/// p(C)·p(V | X, C = 1)` and `den_w = Σ p(C)` over its groups; Eqs.
/// 32–33's per extractor, `num_e = Σ conf·p(C)` and `pden_e = Σ conf` over
/// its cells — `pden` does not move between rounds, so a fit folds it in
/// its first round only; and the pseudo log-likelihood.
#[derive(Debug, Clone, Default)]
pub(crate) struct RoundSums {
    source_num: Vec<ExactSum>,
    source_den: Vec<ExactSum>,
    ext_num: Vec<ExactSum>,
    ext_pden: Vec<ExactSum>,
    pub(crate) ll: ExactSum,
}

impl RoundSums {
    /// All zero, with the `Σ conf` sums iff `with_pden`.
    pub(crate) fn reset(&mut self, sources: usize, extractors: usize, with_pden: bool) {
        let pden = usize::from(with_pden) * extractors;
        let (source_num, source_den) = (&mut self.source_num, &mut self.source_den);
        let (ext_num, ext_pden) = (&mut self.ext_num, &mut self.ext_pden);
        for (sums, len) in [
            (source_num, sources),
            (source_den, sources),
            (ext_num, extractors),
            (ext_pden, pden),
        ] {
            sums.clear();
            sums.resize(len, ExactSum::default());
        }
        self.ll = ExactSum::default();
    }

    /// Fold a chunk's rows: their sources, correctness, truth and
    /// conditional truth.
    pub(crate) fn fold_rows(&mut self, sources: &[u32], c: &[f64], truth: &[f64], cond: &[f64]) {
        for ((&w, &c), &cond) in sources.iter().zip(c).zip(cond) {
            self.source_num[w as usize].add(c * cond);
            self.source_den[w as usize].add(c);
        }
        let terms = c.iter().zip(truth);
        (self.ll).extend(terms.map(|(&c, &t)| map_confidence_ll(c) + map_confidence_ll(t)));
    }

    /// Fold one group's cells, of correctness `c`.
    #[inline]
    pub(crate) fn fold_cells(
        &mut self,
        extractors: &[u32],
        confidences: &[f64],
        c: f64,
        cfg: &ModelConfig,
    ) {
        let with_pden = !self.ext_pden.is_empty();
        for (&e, &raw) in extractors.iter().zip(confidences) {
            let conf = cfg.effective_confidence(raw);
            self.ext_num[e as usize].add(conf * c);
            if with_pden {
                self.ext_pden[e as usize].add(conf);
            }
        }
    }

    /// Add another worker's sums.
    pub(crate) fn merge(&mut self, other: &Self) {
        let pairs = [
            (&mut self.source_num, &other.source_num),
            (&mut self.source_den, &other.source_den),
            (&mut self.ext_num, &other.ext_num),
            (&mut self.ext_pden, &other.ext_pden),
        ];
        for (a, b) in pairs {
            a.iter_mut().zip(b).for_each(|(a, b)| a.merge(b));
        }
        self.ll.merge(&other.ll);
    }

    /// The finished `Σ conf` per extractor, if this round folded them.
    pub(crate) fn pden(&self) -> Option<Vec<f64>> {
        let pden = &self.ext_pden;
        (!pden.is_empty()).then(|| pden.iter().map(ExactSum::finish).collect())
    }
}

/// Eq. 28 from a round's merged [`RoundSums`]. Sources below
/// `cfg.min_source_support` (their size in `meta.source_sizes`)
/// keep their current (default) accuracy; `active` is updated to reflect
/// which sources have enough data to be trusted.
///
/// `den_w = Σ p(C_g = 1)` is also what the recall denominators and γ add
/// up, so with `extraction` on it comes back merged: entry `e` over the
/// sources extractor `e` observes (if scoped), the last entry in total.
pub(crate) fn update_source_accuracy(
    meta: &ChunkStoreMeta,
    sums: &RoundSums,
    cfg: &ModelConfig,
    params: &mut Params,
    active: &mut [bool],
    extraction: bool,
) -> Vec<ExactSum> {
    let (sizes, ext_offsets) = (&meta.source_sizes, &meta.source_ext_offsets);
    let scoped = cfg.absence_policy == AbsencePolicy::SourceCandidates;
    let masses = usize::from(extraction) * (meta.num_extractors as usize + 1);
    let mut mass = vec![ExactSum::default(); masses];
    for (w, (num, den)) in sums.source_num.iter().zip(&sums.source_den).enumerate() {
        if let Some((total, per_extractor)) = mass.split_last_mut() {
            total.merge(den);
            let ext = ext_offsets[w] as usize..ext_offsets[w + 1] as usize;
            for &e in meta.source_ext_ids[ext].iter().filter(|_| scoped) {
                per_extractor[e as usize].merge(den);
            }
        }
        let den = den.finish();
        active[w] = sizes[w] as usize >= cfg.min_source_support && den > 1e-12;
        if active[w] {
            params.source_accuracy[w] = clamp_quality(num.finish() / den);
        }
    }
    mass
}

/// Eqs. 32–33 + Eq. 7: the new precision/recall and, via Eq. 7, Q, from
/// a round's merged [`RoundSums`], the fit's `Σ conf` per extractor
/// `pden`, and the `mass` of [`update_source_accuracy`]. Extractor `e`'s
/// recall denominator is, if scoped, the mass of every source it
/// observes; otherwise the total (Eq. 30 literally). γ̂ is the total over
/// the slot universe: `n + 1` values per distinct item of a source.
pub(crate) fn update_extractor_quality(
    meta: &ChunkStoreMeta,
    sums: &RoundSums,
    pden: &[f64],
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
    for (e, (num, &pden)) in sums.ext_num.iter().zip(pden).enumerate() {
        let num = num.finish();
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::correctness::estimate_correctness;
    use crate::math::logit;
    use crate::multi_layer::tests::scan_rows;
    use crate::reference;
    use kbt_datamodel::{
        ChunkedCube, ChunkingConfig, CubeBuilder, ExtractorId, ItemId, Observation,
        ObservationCube, SourceId, ValueId,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One round's correctness, parameters and active flags.
    type Round = (Vec<f64>, Params, Vec<bool>);

    /// Two rounds (the second exercises the scratch's reuse and a round
    /// without the `Σ conf` fold) of the correctness scan folding both
    /// M-steps' sums, and both M-steps from `init`, as `run_em` runs them.
    fn two_rounds(cc: &ChunkedCube, init: &Params, truth: &[f64], cfg: &ModelConfig) -> Round {
        let meta = &cc.meta;
        let (ne, nw) = (meta.num_extractors as usize, meta.num_sources as usize);
        let mut votes = crate::votes::VoteCounter::empty();
        let (ext_offsets, ext_ids) = (&meta.source_ext_offsets, &meta.source_ext_ids);
        votes.rebuild(ne, nw, ext_offsets, ext_ids, init, cfg);
        let mut workers = vec![RoundSums::default(); 8];
        let (mut c, mut got, mut active) = (Vec::new(), init.clone(), vec![true; nw]);
        let (mut pden, zeros) = (Vec::new(), vec![0.0; truth.len()]);
        let columns = [&zeros[..], truth];
        for round in 0..2 {
            got = init.clone();
            workers.iter_mut().for_each(|w| w.reset(nw, ne, round == 0));
            c = scan_rows(cc, cfg, columns, &mut workers, |sums, buf, rows| {
                estimate_correctness(buf, &votes, rows.alpha, cfg, rows.correctness, sums);
                sums.fold_rows(&buf.ig_source, rows.correctness, rows.truth, rows.truth);
            })
            .0;
            let (sums, rest) = workers.split_first_mut().unwrap();
            rest.iter().for_each(|w| sums.merge(w));
            let mass = update_source_accuracy(meta, sums, cfg, &mut got, &mut active, true);
            if let Some(folded) = sums.pden() {
                pden = folded;
            }
            update_extractor_quality(meta, sums, &pden, &mass, cfg, &mut got);
        }
        (c, got, active)
    }

    /// Kernel ≡ reference for both M-steps, bit for bit: both folded
    /// under the correctness scan, at several chunk sizes and thread
    /// counts and across buffer-reuse rounds — on a random cube, on that
    /// cube after a retraction that empties source 11, and on the
    /// unretracted cube with the retracted groups left in place without
    /// cells, which must fold nothing.
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
        let hollow_out = |cc: ChunkedCube, shrunk: &ChunkedCube| {
            let mut hollow = hollow_rows(cc, retracted);
            hollow.meta.source_ext_offsets = shrunk.meta.source_ext_offsets.clone();
            hollow.meta.source_ext_ids = shrunk.meta.source_ext_ids.clone();
            hollow
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
                    let alpha = vec![logit(cfg.alpha); truth.len()];
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
                                two_rounds(cc, &init, &truth[..cc.meta.num_groups as usize], &cfg)
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

    /// `cc` with the cells of every row whose group `hollow` picks
    /// removed, frame by frame: the rows stay, claiming without a cell,
    /// and each chunk (and the meta frame) counts the cells it has left.
    pub(crate) fn hollow_rows(mut cc: ChunkedCube, hollow: impl Fn(usize) -> bool) -> ChunkedCube {
        let chunks = cc.meta.item_chunks.iter_mut();
        for (chunk, frame) in chunks.zip(&mut cc.frames) {
            let offsets = std::mem::replace(&mut frame.cell_offsets, vec![0]);
            let ext = std::mem::take(&mut frame.cell_extractor);
            let conf = std::mem::take(&mut frame.cell_confidence);
            for r in 0..frame.num_rows() {
                if !hollow(chunk.rows.start as usize + r) {
                    let cells = offsets[r] as usize..offsets[r + 1] as usize;
                    frame.cell_extractor.extend(&ext[cells.clone()]);
                    frame.cell_confidence.extend(&conf[cells]);
                }
                frame.cell_offsets.push(frame.cell_extractor.len() as u32);
            }
            cc.meta.num_cells -= chunk.cells - frame.cell_extractor.len() as u32;
            chunk.cells = frame.cell_extractor.len() as u32;
        }
        cc
    }
}
