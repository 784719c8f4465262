//! Model configuration: hyper-parameters and inference-variant switches.
//!
//! Defaults follow Section 5.1.2: `n = 10`, `γ = 0.25`, `α = 0.5`, five EM
//! iterations, α re-estimation starting at the third iteration, and the
//! improved (uncertainty-weighted) estimator of Section 3.3.3. The
//! single-layer baseline uses `n = 100` per the paper.

use std::path::PathBuf;

use crate::copydetect::CopyDetectConfig;

/// How false values are assumed to be distributed over the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueModel {
    /// ACCU (Eq. 1/5): the `n` false values are uniformly likely.
    #[default]
    Accu,
    /// POPACCU: false values follow their empirical popularity in the
    /// observed claims (smoothed over the domain). The paper found this
    /// slightly better for the single-layer model but *worse* under the
    /// multi-layer model because it does not compose with the improved
    /// estimator of Section 3.3.3 — the ablation benches reproduce that.
    PopAccu,
}

/// How extraction correctness feeds the value layer (Section 3.3.2 vs 3.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorrectnessWeighting {
    /// The improved estimator (Eq. 23–25): weight each source's vote by
    /// `p(C_wdv = 1 | X)`.
    #[default]
    Weighted,
    /// The MAP approximation (Section 3.3.2): treat `Ĉ_wdv = argmax` as
    /// observed, i.e. weight is `I(p ≥ 0.5)`. Table 6 row `p(V_d | Ĉ_d)`.
    Map,
}

/// Which extractors cast *absence* votes for a triple (Eq. 13–14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AbsencePolicy {
    /// Every extractor in the corpus votes absence when it did not
    /// extract the triple — the literal Eq. 14 and the behaviour of the
    /// paper's worked example (Table 4, rows W7/W8).
    #[default]
    AllExtractors,
    /// Only extractors that extracted *something* from the triple's
    /// source vote absence. Appropriate when extractor provenances are
    /// scoped (e.g. per-website patterns, Section 4) and most extractors
    /// never visit most sources.
    SourceCandidates,
}

/// Where a fit reads the cube's item frames from — which
/// `kbt_datamodel::ChunkSource` the one EM loop scans. It changes where
/// bytes come from, never which kernels run.
///
/// [`CubeResidency::Streamed`] drives the EM rounds from a
/// `kbt_datamodel::FileChunkStore`, each scan worker reading every frame
/// it runs into its own buffer: peak memory is O(groups) row state +
/// one decoded frame per worker instead of O(corpus), and the fit is
/// **bit-for-bit identical** to a resident fit at any thread count and
/// any `max_resident_chunks`, warm starts and copy-aware refits included.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CubeResidency {
    /// Scan the cube's own frames in memory (the default).
    #[default]
    Resident,
    /// Stream chunk payloads from a `KBTCHNK4` chunk store on disk.
    Streamed {
        /// Path of the chunk store file
        /// (`kbt_datamodel::FileChunkStore::write`).
        path: PathBuf,
        /// Cap on decoded frames in memory at once: a scan runs on at
        /// most this many workers, each holding one frame (fewer if the
        /// thread count is lower); `0` = unbounded.
        max_resident_chunks: usize,
    },
}

/// Shared hyper-parameters of both models.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// `n`: number of false values in each data item's domain (Eq. 1/5).
    pub n_false_values: usize,
    /// `γ = p(C_wdv = 1)`: global prior that a source provides a given
    /// triple, used to derive `Q_e` from precision and recall (Eq. 7).
    pub gamma: f64,
    /// Re-estimate γ each iteration from the data as
    /// `Σ_g p(C_g) / Σ_w |items(w)| · (n+1)` — the expected provided mass
    /// over the slot universe the domain model assumes. This is the
    /// self-consistent EM choice and the stabilizer that keeps the
    /// coupled (P, Q, p(C)) updates away from the degenerate "everything
    /// provided"/"nothing provided" fixed points on sparse data (see
    /// README, "Where this departs from the paper"). Disable to hold γ at
    /// the configured constant, as the paper's description suggests.
    pub estimate_gamma: bool,
    /// `α`: prior probability that an extracted triple is truly provided
    /// (Section 3.3.1), used before re-estimation kicks in.
    pub alpha: f64,
    /// Maximum EM iterations (`t_max` of Algorithm 1).
    pub max_iterations: usize,
    /// Convergence threshold on the max absolute parameter change.
    pub convergence_eps: f64,
    /// Iteration (1-based) at which per-triple α re-estimation (Eq. 26)
    /// starts; the paper starts at the third iteration. `None` disables
    /// re-estimation entirely (Table 6 row "Not updating α").
    pub alpha_update_from: Option<usize>,
    /// Value-layer model.
    pub value_model: ValueModel,
    /// Correctness weighting for the value layer.
    pub correctness_weighting: CorrectnessWeighting,
    /// If set, binarize extraction confidences at this threshold instead of
    /// using soft evidence (Section 3.5 / Table 6 row
    /// `p(C_dwv | I(X_ewdv > φ))`).
    pub confidence_threshold: Option<f64>,
    /// Default source accuracy `A_w` before any data is seen.
    pub default_source_accuracy: f64,
    /// Default extractor recall `R_e`.
    pub default_recall: f64,
    /// Default extractor `Q_e` (1 − specificity).
    pub default_q: f64,
    /// Absence-vote candidate rule (Eq. 14).
    pub absence_policy: AbsencePolicy,
    /// Use the literal Eq. 26 for the α re-estimation,
    /// `α̂ = p·A + (1−p)·(1−A)`. The printed equation is inconsistent
    /// with the source observation model (Eq. 5), under which a specific
    /// false value is provided with probability `(1−A)/n`; the default
    /// (`false`) uses the Eq. 5-consistent form
    /// `α̂ = p·A + (1−p)·(1−A)/n`, which is what makes extraction
    /// correctness separate provided from hallucinated triples (see
    /// README, "Where this departs from the paper").
    pub literal_eq26_alpha: bool,
    /// Sources with fewer than this many triples are *inactive*: their
    /// quality stays at the default and their claims do not vote, and
    /// triples supported only by inactive sources are reported uncovered
    /// (the coverage rule of Section 5.1.1/5.1.2).
    pub min_source_support: usize,
    /// Worker threads for this run. `None` uses the ambient
    /// `kbt_flume` configuration (an enclosing `with_threads` scope, then
    /// hardware); `Some(0)` forces the hardware default; `Some(n)` pins
    /// `n` workers. Per-run and race-free — installed around inference
    /// via `kbt_flume::with_threads`.
    pub threads: Option<usize>,
    /// Where the fit reads the cube's frames: in memory (default), or
    /// written to a chunk store on disk and streamed a few decoded frames
    /// at a time (`FusionModel::fit` always fits resident). Streamed
    /// fits are bit-identical to resident ones — the knob trades I/O for
    /// peak RSS, never results.
    pub residency: CubeResidency,
    /// Copy detection inside the engine (§5.4.2): when set, a
    /// multi-layer fit follows its EM rounds with copy detection and
    /// attaches the evidence to its result. With
    /// [`crate::CopyDetectConfig`]'s `discount` flag also set, fusion
    /// becomes copy-aware: `discount_rounds` rounds of detect →
    /// [`crate::CopyDiscount`] independence factors → a refit from the
    /// run's initialization with the dependent sources' value-layer
    /// votes down-weighted, so a copier's duplicated mistakes stop
    /// laundering themselves into high posteriors. `None` (the default)
    /// keeps fusion copy-blind and bit-identical to previous releases.
    /// Ignored by the single-layer baseline: it runs the same engine over
    /// (page, extractor) pair-sources, with no per-page vote to discount.
    pub copy_detection: Option<CopyDetectConfig>,
}

impl Default for ModelConfig {
    fn default() -> Self {
        Self {
            n_false_values: 10,
            gamma: 0.25,
            estimate_gamma: true,
            alpha: 0.5,
            max_iterations: 5,
            convergence_eps: 1e-5,
            alpha_update_from: Some(3),
            value_model: ValueModel::Accu,
            correctness_weighting: CorrectnessWeighting::Weighted,
            confidence_threshold: None,
            default_source_accuracy: 0.8,
            default_recall: 0.8,
            default_q: 0.2,
            absence_policy: AbsencePolicy::AllExtractors,
            literal_eq26_alpha: false,
            min_source_support: 1,
            threads: None,
            residency: CubeResidency::Resident,
            copy_detection: None,
        }
    }
}

impl ModelConfig {
    /// The paper's single-layer configuration (`n = 100`, 5 iterations).
    pub fn single_layer_default() -> Self {
        Self {
            n_false_values: 100,
            ..Self::default()
        }
    }

    /// Effective confidence of a cell under the thresholding option.
    #[inline]
    pub fn effective_confidence(&self, raw: f64) -> f64 {
        match self.confidence_threshold {
            Some(phi) => {
                if raw > phi {
                    1.0
                } else {
                    0.0
                }
            }
            None => raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmState, QualityInit};

    #[test]
    fn defaults_match_the_papers_settings() {
        let c = ModelConfig::default();
        assert_eq!(c.n_false_values, 10);
        assert_eq!(c.gamma, 0.25);
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.max_iterations, 5);
        assert_eq!(c.alpha_update_from, Some(3));
        assert_eq!(c.default_source_accuracy, 0.8);
        assert_eq!(c.default_recall, 0.8);
        assert_eq!(c.default_q, 0.2);
        assert_eq!(ModelConfig::single_layer_default().n_false_values, 100);
    }

    /// α is re-estimated from a truth column: from the third round on by
    /// default, from the first truth on once resumed, never when frozen.
    #[test]
    fn alpha_update_schedule() {
        let c = ModelConfig::default();
        let cube = kbt_datamodel::CubeBuilder::new().build();
        let mut s = EmState::start(&cube, &c, &QualityInit::Default);
        s.rounds = 2;
        assert!(!s.alpha_due(&c), "no truth column yet");
        s.truth = Some(Vec::new());
        let due = |s: &mut EmState, rounds| {
            s.rounds = rounds;
            s.alpha_due(&c)
        };
        let schedule = [0, 1, 2, 4].map(|rounds| due(&mut s, rounds));
        assert_eq!(schedule, [false, false, true, true]);
        s.resumed = true;
        assert!(due(&mut s, 0));
        let mut frozen = c.clone();
        frozen.alpha_update_from = None;
        assert!(!s.alpha_due(&frozen));
    }

    #[test]
    fn confidence_thresholding() {
        let soft = ModelConfig::default();
        assert_eq!(soft.effective_confidence(0.3), 0.3);
        let hard = ModelConfig {
            confidence_threshold: Some(0.0),
            ..ModelConfig::default()
        };
        assert_eq!(hard.effective_confidence(0.3), 1.0);
        assert_eq!(hard.effective_confidence(0.0), 0.0);
        let phi7 = ModelConfig {
            confidence_threshold: Some(0.7),
            ..ModelConfig::default()
        };
        assert_eq!(phi7.effective_confidence(0.5), 0.0);
        assert_eq!(phi7.effective_confidence(0.85), 1.0);
    }
}
