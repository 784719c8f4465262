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

use std::io;

use kbt_datamodel::{ChunkSource, GroupView};
use kbt_flume::par_ranges_mut;

use crate::config::ModelConfig;
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
/// transition/final accumulator over group frames.
///
/// Per-extractor sums must add up in a thread-count-independent order, so
/// the fold is one serial pass over the group-major frames in ascending
/// frame order — global cell order: `num[e] = Σ conf·p(C=1)` and
/// `pden[e] = Σ conf` over the extractor's cells, and under the scoped
/// absence policy `rden[e]` collects each visited source's correctness
/// mass once (`Σ_{g : e ∈ candidates(source(g))} p(C_g = 1)`). No more
/// than one frame is ever needed at a time.
///
/// Usage: [`Self::begin`] once per round, [`Self::consume`] once per
/// group frame in ascending frame order, [`Self::finish`] to write the
/// new parameters ([`update_extractor_quality`] does all three).
#[derive(Debug, Default)]
pub(crate) struct StreamedExtractorAcc {
    num: Vec<f64>,
    pden: Vec<f64>,
    rden: Vec<f64>,
    last_source: Vec<u32>,
    sum_c_source: Vec<f64>,
    scoped: bool,
    total_mass: f64,
}

impl StreamedExtractorAcc {
    /// Reset the per-extractor sums and precompute the recall
    /// denominators for this round: per-source correctness mass under
    /// the scoped policy, total mass otherwise (Eq. 30 literally: the
    /// same denominator for every extractor).
    pub fn begin(
        &mut self,
        num_extractors: usize,
        source_offsets: &[u32],
        correctness: &[f64],
        cfg: &ModelConfig,
    ) {
        for v in [&mut self.num, &mut self.pden, &mut self.rden] {
            v.clear();
            v.resize(num_extractors, 0.0);
        }
        self.last_source.clear();
        self.last_source.resize(num_extractors, u32::MAX);
        self.scoped = cfg.absence_policy == crate::config::AbsencePolicy::SourceCandidates;
        self.sum_c_source.clear();
        if self.scoped {
            let nw = source_offsets.len() - 1;
            self.total_mass = 0.0;
            self.sum_c_source.extend((0..nw).map(|w| {
                correctness[source_offsets[w] as usize..source_offsets[w + 1] as usize]
                    .iter()
                    .sum::<f64>()
            }));
        } else {
            self.total_mass = correctness.iter().sum();
        }
    }

    /// Fold one group frame's cells into the per-extractor sums. Frames
    /// must arrive in ascending frame order for the global-cell-order
    /// guarantee to hold.
    pub fn consume(&mut self, view: &GroupView<'_>, correctness: &[f64], cfg: &ModelConfig) {
        let correctness = &correctness[view.groups.start as usize..view.groups.end as usize];
        for (lg, (&c_g, &w)) in correctness.iter().zip(view.group_source).enumerate() {
            let cells = view.cells(lg);
            let extractors = &view.cell_extractor[cells.clone()];
            for (&e, &raw) in extractors.iter().zip(&view.cell_confidence[cells]) {
                let e = e as usize;
                let conf = cfg.effective_confidence(raw);
                self.num[e] += conf * c_g;
                self.pden[e] += conf;
                if self.scoped && self.last_source[e] != w {
                    self.rden[e] += self.sum_c_source[w as usize];
                    self.last_source[e] = w;
                }
            }
        }
    }

    /// Derive the new precision/recall and, via Eq. 7, Q.
    /// `source_item_counts` is the per-source distinct-item count of the
    /// chunk skeleton, feeding [`estimate_gamma`].
    pub fn finish(
        &mut self,
        source_item_counts: &[u32],
        correctness: &[f64],
        cfg: &ModelConfig,
        params: &mut Params,
    ) {
        let gamma = estimate_gamma(source_item_counts, correctness, cfg);
        let (precision, recall) = (&mut params.precision, &mut params.recall);
        for e in 0..precision.len() {
            let rden = if self.scoped {
                self.rden[e]
            } else {
                self.total_mass
            };
            if self.pden[e] > 1e-12 {
                precision[e] = clamp_quality(self.num[e] / self.pden[e]);
            }
            if rden > 1e-12 {
                recall[e] = clamp_quality(self.num[e] / rden);
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

/// The extractor-quality M-step over every group frame of `src`: `acc`
/// is the scan's only scratch slot, so one worker folds the frames into
/// it in ascending order (a streamed source still prefetching ahead).
pub(crate) fn update_extractor_quality<S: ChunkSource>(
    src: &S,
    correctness: &[f64],
    cfg: &ModelConfig,
    params: &mut Params,
    acc: &mut StreamedExtractorAcc,
) -> io::Result<()> {
    let meta = src.meta();
    let ne = meta.num_extractors as usize;
    acc.begin(ne, &meta.source_offsets, correctness, cfg);
    src.scan_groups(std::slice::from_mut(acc), |acc, v| {
        acc.consume(v, correctness, cfg)
    })?;
    acc.finish(&meta.source_item_counts, correctness, cfg, params);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::QualityInit;
    use crate::reference;
    use kbt_datamodel::{
        ChunkedCube, ChunkingConfig, CubeBuilder, ExtractorId, ItemId, Observation,
        ObservationCube, ResidentChunks, SourceId, ValueId,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cube(rng: &mut StdRng, n: usize) -> ObservationCube {
        let mut b = CubeBuilder::new();
        for _ in 0..n {
            b.push(Observation {
                extractor: ExtractorId::new(rng.gen_range(0..8)),
                source: SourceId::new(rng.gen_range(0..15)),
                item: ItemId::new(rng.gen_range(0..25)),
                value: ValueId::new(rng.gen_range(0..4)),
                confidence: rng.gen::<f64>(),
            });
        }
        b.build()
    }

    /// Kernel ≡ reference for both M-steps, bit for bit: Eq. 28 from the
    /// offsets CSR and the serial frame fold of Eqs. 32–33, at several
    /// frame sizes and thread counts and across buffer-reuse rounds.
    #[test]
    fn mstep_kernels_match_the_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(33);
        let cube = random_cube(&mut rng, 600);
        let correctness: Vec<f64> = (0..cube.num_groups()).map(|_| rng.gen::<f64>()).collect();
        let truth: Vec<f64> = (0..cube.num_groups()).map(|_| rng.gen::<f64>()).collect();
        for policy in [
            crate::config::AbsencePolicy::AllExtractors,
            crate::config::AbsencePolicy::SourceCandidates,
        ] {
            for estimate_gamma in [true, false] {
                let cfg = ModelConfig {
                    absence_policy: policy,
                    estimate_gamma,
                    min_source_support: 3,
                    ..ModelConfig::default()
                };
                let mut want = Params::init(&cube, &cfg, &QualityInit::Default);
                let mut want_active = vec![true; cube.num_sources()];
                reference::update_source_accuracy(
                    &cube,
                    &correctness,
                    &truth,
                    &cfg,
                    &mut want,
                    &mut want_active,
                );
                reference::update_extractor_quality(&cube, &correctness, &cfg, &mut want);
                for target_cells in [1usize, 64, 1 << 20] {
                    let cc = ChunkedCube::from_cube(&cube, &ChunkingConfig { target_cells });
                    let src = ResidentChunks::new(&cc);
                    for threads in [1usize, 2, 8] {
                        let mut got = Params::init(&cube, &cfg, &QualityInit::Default);
                        let mut active = vec![true; cube.num_sources()];
                        let mut fold = StreamedExtractorAcc::default();
                        let mut updates = Vec::new();
                        // Two rounds: the second exercises buffer reuse.
                        for _ in 0..2 {
                            kbt_flume::with_threads(Some(threads), || {
                                update_source_accuracy(
                                    &cc.source_offsets,
                                    &correctness,
                                    &truth,
                                    &cfg,
                                    &mut got,
                                    &mut active,
                                    &mut updates,
                                );
                                update_extractor_quality(
                                    &src,
                                    &correctness,
                                    &cfg,
                                    &mut got,
                                    &mut fold,
                                )
                                .unwrap();
                            });
                        }
                        let tag = format!("{policy:?} γ={estimate_gamma} t={target_cells}");
                        assert_eq!(got, want, "{tag} x{threads}");
                        assert_eq!(active, want_active, "{tag} x{threads}");
                    }
                }
            }
        }
    }
}
