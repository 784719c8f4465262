//! Vote counting for extraction correctness (Section 3.3.1).
//!
//! Each extractor casts a *presence vote* `Pre_e = ln R_e − ln Q_e` for a
//! triple it extracts and an *absence vote* `Abs_e = ln(1−R_e) − ln(1−Q_e)`
//! for a triple it does not (Eqs. 12–13). The vote count of a triple
//! (Eq. 14, confidence-weighted per Eq. 31) is
//!
//! ```text
//! VCC'(w,d,v) = Σ_e [ p(X_ewdv=1)·Pre_e + p(X_ewdv=0)·Abs_e ]
//! ```
//!
//! summed over the *candidate extractors* of source `w` — those that
//! extracted anything from `w` (see `kbt-datamodel` docs). Since every
//! candidate contributes `Abs_e` by default, we precompute per-source
//! absence sums and each extraction then *adjusts* by
//! `conf·(Pre_e − Abs_e)`, making the vote count O(cells) overall.

use kbt_datamodel::SourceId;

use crate::config::ModelConfig;
use crate::math::clamp_quality;
use crate::params::Params;

/// Precomputed per-extractor votes and per-source absence sums.
#[derive(Debug, Clone)]
pub struct VoteCounter {
    /// `Pre_e` per extractor.
    pub presence: Vec<f64>,
    /// `Abs_e` per extractor.
    pub absence: Vec<f64>,
    /// `Pre_e − Abs_e` per extractor, precomputed so the vote-count
    /// kernel is one multiply-add per cell. Bit-identical to computing
    /// the difference at use sites.
    pub adjust: Vec<f64>,
    /// `Σ_{e ∈ candidates(w)} Abs_e` per source.
    pub source_absence_sum: Vec<f64>,
}

impl VoteCounter {
    /// An empty counter to be filled by [`Self::rebuild`] — what the EM
    /// loop holds across rounds.
    pub fn empty() -> Self {
        Self {
            presence: Vec::new(),
            absence: Vec::new(),
            adjust: Vec::new(),
            source_absence_sum: Vec::new(),
        }
    }

    /// Recompute the vote tables in place from fresh parameters, reusing
    /// the existing allocations. Called once per EM round.
    /// `src_ext_ids[src_ext_offsets[w]..src_ext_offsets[w+1]]` must be
    /// source `w`'s sorted distinct extractor ids (what
    /// `ObservationCube::extractors_on_source` yields and
    /// `kbt_datamodel::ChunkStoreMeta` holds), so the per-source absence
    /// fold runs in ascending-extractor order.
    pub fn rebuild(
        &mut self,
        num_extractors: usize,
        num_sources: usize,
        src_ext_offsets: &[u32],
        src_ext_ids: &[u32],
        params: &Params,
        cfg: &ModelConfig,
    ) {
        self.presence.clear();
        self.absence.clear();
        self.adjust.clear();
        self.presence.reserve(num_extractors);
        self.absence.reserve(num_extractors);
        self.adjust.reserve(num_extractors);
        for e in 0..num_extractors {
            let r = clamp_quality(params.recall[e]);
            let q = clamp_quality(params.q[e]);
            let pre = r.ln() - q.ln();
            let abs = (1.0 - r).ln() - (1.0 - q).ln();
            self.presence.push(pre);
            self.absence.push(abs);
            self.adjust.push(pre - abs);
        }
        self.source_absence_sum.clear();
        match cfg.absence_policy {
            crate::config::AbsencePolicy::AllExtractors => {
                let total: f64 = self.absence.iter().sum();
                self.source_absence_sum.resize(num_sources, total);
            }
            crate::config::AbsencePolicy::SourceCandidates => {
                let absence = &self.absence;
                self.source_absence_sum.extend((0..num_sources).map(|w| {
                    src_ext_ids[src_ext_offsets[w] as usize..src_ext_offsets[w + 1] as usize]
                        .iter()
                        .map(|&e| absence[e as usize])
                        .sum::<f64>()
                }));
            }
        }
    }

    /// `VCC'(w,d,v)` for the group with the given source and cells.
    ///
    /// `cells` are the group's extractions; `cfg` supplies the optional
    /// confidence threshold (Section 3.5).
    #[inline]
    pub fn vote_count(
        &self,
        source: SourceId,
        cells: impl IntoIterator<Item = kbt_datamodel::Cell>,
        cfg: &ModelConfig,
    ) -> f64 {
        let mut vc = self.source_absence_sum[source.index()];
        for c in cells {
            let conf = cfg.effective_confidence(c.confidence);
            let e = c.extractor.index();
            vc += conf * (self.presence[e] - self.absence[e]);
        }
        vc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::reference::vote_counter;
    use kbt_datamodel::{
        Cell, CubeBuilder, ExtractorId, ItemId, Observation, ObservationCube, ValueId,
    };

    /// Build the 5-extractor configuration of Table 3, with every extractor
    /// active on one source.
    fn table3_setup() -> (ObservationCube, Params) {
        let mut b = CubeBuilder::new();
        // One dummy observation per extractor so all 5 are candidates on W0.
        for e in 0..5u32 {
            b.push(Observation::certain(
                ExtractorId::new(e),
                SourceId::new(0),
                ItemId::new(e),
                ValueId::new(0),
            ));
        }
        let cube = b.build();
        let params = Params {
            source_accuracy: vec![0.6],
            precision: vec![0.99, 0.99, 0.85, 0.33, 0.25],
            recall: vec![0.99, 0.5, 0.99, 0.33, 0.17],
            // Table 3's stated Q values (the paper rounds E1/E2 up to .01).
            q: vec![0.01, 0.01, 0.06, 0.22, 0.17],
        };
        (cube, params)
    }

    #[test]
    fn presence_and_absence_votes_match_table3() {
        let (cube, params) = table3_setup();
        let vc = vote_counter(&cube, &params, &ModelConfig::default());
        let expected_pre = [4.6, 3.9, 2.8, 0.4, 0.0];
        let expected_abs = [-4.6, -0.7, -4.5, -0.15, 0.0];
        for e in 0..5 {
            assert!(
                (vc.presence[e] - expected_pre[e]).abs() < 0.06,
                "Pre(E{}) = {} want {}",
                e + 1,
                vc.presence[e],
                expected_pre[e]
            );
            assert!(
                (vc.absence[e] - expected_abs[e]).abs() < 0.06,
                "Abs(E{}) = {} want {}",
                e + 1,
                vc.absence[e],
                expected_abs[e]
            );
        }
    }

    #[test]
    fn w1_usa_vote_count_matches_example_3_1() {
        // W1/USA is extracted by E1–E4; E5 abstains. The paper computes
        // VCC = (4.6 + 3.9 + 2.8 + 0.4) + 0 = 11.7.
        let (cube, params) = table3_setup();
        let vc = vote_counter(&cube, &params, &ModelConfig::default());
        let cells: Vec<Cell> = (0..4)
            .map(|e| Cell {
                extractor: ExtractorId::new(e),
                confidence: 1.0,
            })
            .collect();
        let cfg = ModelConfig::default();
        let v = vc.vote_count(SourceId::new(0), cells, &cfg);
        assert!((v - 11.7).abs() < 0.15, "VCC = {v}");
    }

    #[test]
    fn w6_usa_vote_count_matches_example_3_1() {
        // W6/USA is extracted only by E4: VCC = 0.4 + (−4.6 −0.7 −4.5 −0) = −9.4.
        let (cube, params) = table3_setup();
        let vc = vote_counter(&cube, &params, &ModelConfig::default());
        let cells = [Cell {
            extractor: ExtractorId::new(3),
            confidence: 1.0,
        }];
        let cfg = ModelConfig::default();
        let v = vc.vote_count(SourceId::new(0), cells, &cfg);
        assert!((v - (-9.4)).abs() < 0.15, "VCC = {v}");
    }

    #[test]
    fn confidence_scales_the_presence_adjustment() {
        let (cube, params) = table3_setup();
        let vc = vote_counter(&cube, &params, &ModelConfig::default());
        let cfg = ModelConfig::default();
        let full = vc.vote_count(
            SourceId::new(0),
            [Cell {
                extractor: ExtractorId::new(0),
                confidence: 1.0,
            }],
            &cfg,
        );
        let half = vc.vote_count(
            SourceId::new(0),
            [Cell {
                extractor: ExtractorId::new(0),
                confidence: 0.5,
            }],
            &cfg,
        );
        let none = vc.vote_count(SourceId::new(0), [], &cfg);
        // A half-confidence extraction votes exactly halfway between a
        // full extraction and no extraction.
        assert!(((full + none) / 2.0 - half).abs() < 1e-9);
    }

    #[test]
    fn thresholding_binarizes_confidences() {
        let (cube, params) = table3_setup();
        let vc = vote_counter(&cube, &params, &ModelConfig::default());
        let cfg = ModelConfig {
            confidence_threshold: Some(0.7),
            ..ModelConfig::default()
        };
        let low = vc.vote_count(
            SourceId::new(0),
            [Cell {
                extractor: ExtractorId::new(0),
                confidence: 0.5,
            }],
            &cfg,
        );
        let none = vc.vote_count(SourceId::new(0), [], &cfg);
        assert_eq!(low, none); // 0.5 < φ behaves like no extraction
    }
}
