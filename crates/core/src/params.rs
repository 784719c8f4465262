//! Model parameters θ = (θ1, θ2): source accuracies and extractor qualities.
//!
//! θ1 = {A_w} (one accuracy per web source) and θ2 = ({P_e}, {R_e}) with the
//! derived {Q_e} (Eq. 7). Parameters live in dense vectors indexed by the
//! dense ids of `kbt-datamodel`.

use kbt_datamodel::ObservationCube;

use crate::config::ModelConfig;
use crate::math::clamp_quality;

/// Dense parameter vectors for one inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// `A_w`: probability that a value provided by source `w` is correct.
    pub source_accuracy: Vec<f64>,
    /// `P_e`: extractor precision.
    pub precision: Vec<f64>,
    /// `R_e`: extractor recall — probability of extracting a provided triple.
    pub recall: Vec<f64>,
    /// `Q_e = 1 − specificity`: probability of extracting an *unprovided*
    /// triple, derived from `P_e`, `R_e`, and `γ` via Eq. 7.
    pub q: Vec<f64>,
}

/// Eq. 7: `Q_e = γ/(1−γ) · (1−P_e)/P_e · R_e`, clamped to valid range.
///
/// The paper estimates `P_e` and `R_e` from data and *derives* `Q_e`
/// (Section 3.4.2) because direct estimation of `Q_e` is unreliable.
///
/// We additionally enforce the model-validity constraint `Q_e < R_e`: an
/// extractor must be more likely to extract a *provided* triple than an
/// unprovided one, otherwise the presence/absence votes (Eqs. 12–13)
/// invert sign and EM locks into a degenerate "everything was provided"
/// fixed point. When Eq. 7 would violate the constraint the extractor is
/// nearly uninformative and `Q_e` saturates just below `R_e`.
pub fn q_from_precision_recall(precision: f64, recall: f64, gamma: f64) -> f64 {
    let p = clamp_quality(precision);
    let r = clamp_quality(recall);
    let g = clamp_quality(gamma);
    let q = g / (1.0 - g) * (1.0 - p) / p * r;
    clamp_quality(q.min(0.95 * r))
}

/// How to initialize parameters before the first EM iteration.
#[derive(Debug, Clone, Default)]
pub enum QualityInit {
    /// The paper's defaults: `A_w = 0.8`, `R_e = 0.8`, `Q_e = 0.2`
    /// (precision backed out from Eq. 7).
    #[default]
    Default,
    /// Semi-supervised initialization from a gold standard (the `+`
    /// variants of Section 5): per-source and/or per-extractor initial
    /// accuracies estimated externally (e.g. the fraction of a source's
    /// extracted triples confirmed by Freebase). Entries may be `None`
    /// where no gold data exists; those fall back to the defaults.
    FromGold {
        /// Optional initial accuracy per source.
        source_accuracy: Vec<Option<f64>>,
        /// Optional initial precision per extractor.
        extractor_precision: Vec<Option<f64>>,
        /// Optional initial recall per extractor.
        extractor_recall: Vec<Option<f64>>,
    },
    /// Warm start from previously-converged parameters — the incremental
    /// fusion path (`FusionSession` in `kbt-pipeline`). Entries are
    /// copied index-wise into the new parameter vectors; ids beyond the
    /// resumed vectors (sources/extractors introduced by a delta) fall
    /// back to the defaults. It does not promise fewer rounds: at 200k
    /// triples a default-config warm refit after a small delta still runs
    /// all 5.
    Resume(Params),
}

impl Params {
    /// Allocate parameters for `cube`, initialized per `init` and `cfg`.
    pub fn init(cube: &ObservationCube, cfg: &ModelConfig, init: &QualityInit) -> Self {
        Self::init_sized(cube.num_sources(), cube.num_extractors(), cfg, init)
    }

    /// [`Self::init`] from bare dimension counts — the streamed fit's
    /// entry point, which has chunk-store metadata but no resident cube.
    pub fn init_sized(nw: usize, ne: usize, cfg: &ModelConfig, init: &QualityInit) -> Self {
        // Back out the default precision implied by (R, Q, γ) through Eq. 7
        // so that q_from_precision_recall(default_p, default_r) == default_q.
        let g = cfg.gamma / (1.0 - cfg.gamma);
        let ratio = cfg.default_q / (g * cfg.default_recall); // (1-P)/P
        let default_precision = clamp_quality(1.0 / (1.0 + ratio));

        let mut p = Self {
            source_accuracy: vec![cfg.default_source_accuracy; nw],
            precision: vec![default_precision; ne],
            recall: vec![cfg.default_recall; ne],
            q: vec![cfg.default_q; ne],
        };
        match init {
            QualityInit::Default => {}
            QualityInit::FromGold {
                source_accuracy,
                extractor_precision,
                extractor_recall,
            } => {
                for (w, a) in source_accuracy.iter().enumerate().take(nw) {
                    if let Some(a) = a {
                        p.source_accuracy[w] = clamp_quality(*a);
                    }
                }
                for (e, pe) in extractor_precision.iter().enumerate().take(ne) {
                    if let Some(pe) = pe {
                        p.precision[e] = clamp_quality(*pe);
                    }
                }
                for (e, re) in extractor_recall.iter().enumerate().take(ne) {
                    if let Some(re) = re {
                        p.recall[e] = clamp_quality(*re);
                    }
                }
                for e in 0..ne {
                    p.q[e] = q_from_precision_recall(p.precision[e], p.recall[e], cfg.gamma);
                }
            }
            QualityInit::Resume(prev) => {
                for (w, a) in prev.source_accuracy.iter().enumerate().take(nw) {
                    p.source_accuracy[w] = clamp_quality(*a);
                }
                for (e, pe) in prev.precision.iter().enumerate().take(ne) {
                    p.precision[e] = clamp_quality(*pe);
                }
                for (e, re) in prev.recall.iter().enumerate().take(ne) {
                    p.recall[e] = clamp_quality(*re);
                }
                // Resume Q as converged where available (it already
                // satisfies the Eq. 7 / validity relation), deriving it
                // only for extractors the resumed run never saw.
                for (e, qe) in prev.q.iter().enumerate().take(ne) {
                    p.q[e] = clamp_quality(*qe);
                }
                for e in prev.q.len()..ne {
                    p.q[e] = q_from_precision_recall(p.precision[e], p.recall[e], cfg.gamma);
                }
            }
        }
        p
    }

    /// Source accuracies alone, with empty extractor columns: the single
    /// layer's parameters.
    pub(crate) fn sources_only(source_accuracy: Vec<f64>) -> Self {
        Self {
            source_accuracy,
            precision: Vec::new(),
            recall: Vec::new(),
            q: Vec::new(),
        }
    }

    /// Largest absolute element-wise change versus `other` — the
    /// convergence statistic of Algorithm 1 line 7.
    pub fn max_abs_delta(&self, other: &Params) -> f64 {
        fn md(a: &[f64], b: &[f64]) -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max)
        }
        md(&self.source_accuracy, &other.source_accuracy)
            .max(md(&self.precision, &other.precision))
            .max(md(&self.recall, &other.recall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId};

    fn tiny_cube() -> ObservationCube {
        let mut b = CubeBuilder::new();
        b.push(Observation::certain(
            ExtractorId::new(0),
            SourceId::new(0),
            ItemId::new(0),
            ValueId::new(0),
        ));
        b.reserve_ids(3, 2, 1, 1);
        b.build()
    }

    #[test]
    fn eq7_matches_table3_examples() {
        // Table 3 with γ = 0.25: E3 (P=.85, R=.99) → Q ≈ .06;
        // E4 (P=.33, R=.33) → Q ≈ .22; E5 (P=.25, R=.17) → Q ≈ .17.
        assert!((q_from_precision_recall(0.85, 0.99, 0.25) - 0.058).abs() < 0.005);
        assert!((q_from_precision_recall(0.33, 0.33, 0.25) - 0.223).abs() < 0.005);
        // E5: the raw Eq. 7 value is 0.17 = R (Table 3), which sits on the
        // uninformative boundary Q = R; the validity cap holds it just
        // below R.
        assert!((q_from_precision_recall(0.25, 0.17, 0.25) - 0.95 * 0.17).abs() < 0.005);
    }

    #[test]
    fn q_is_clamped_to_valid_probabilities() {
        assert!(q_from_precision_recall(0.0, 1.0, 0.9) <= 0.999);
        assert!(q_from_precision_recall(1.0, 0.0, 0.1) >= 0.001);
    }

    #[test]
    fn default_init_is_self_consistent_with_eq7() {
        let cube = tiny_cube();
        let cfg = ModelConfig::default();
        let p = Params::init(&cube, &cfg, &QualityInit::Default);
        assert_eq!(p.source_accuracy, vec![0.8; 3]);
        assert_eq!(p.recall, vec![0.8; 2]);
        assert_eq!(p.q, vec![0.2; 2]);
        // Deriving Q from the backed-out precision must reproduce default_q.
        let q = q_from_precision_recall(p.precision[0], p.recall[0], cfg.gamma);
        assert!((q - 0.2).abs() < 1e-9);
    }

    #[test]
    fn gold_init_overrides_only_provided_entries() {
        let cube = tiny_cube();
        let cfg = ModelConfig::default();
        let init = QualityInit::FromGold {
            source_accuracy: vec![Some(0.95), None, Some(0.4)],
            extractor_precision: vec![Some(0.9), None],
            extractor_recall: vec![None, Some(0.6)],
        };
        let p = Params::init(&cube, &cfg, &init);
        assert_eq!(p.source_accuracy[0], 0.95);
        assert_eq!(p.source_accuracy[1], 0.8);
        assert_eq!(p.source_accuracy[2], 0.4);
        assert_eq!(p.precision[0], 0.9);
        assert_eq!(p.recall[1], 0.6);
        // Q re-derived from the overridden values.
        assert!((p.q[0] - q_from_precision_recall(0.9, 0.8, 0.25)).abs() < 1e-12);
    }

    #[test]
    fn resume_init_copies_params_and_defaults_new_ids() {
        let cube = tiny_cube(); // 3 sources, 2 extractors
        let cfg = ModelConfig::default();
        let prev = Params {
            source_accuracy: vec![0.91, 0.42], // one fewer than the cube has
            precision: vec![0.77],
            recall: vec![0.66],
            q: vec![0.11],
        };
        let p = Params::init(&cube, &cfg, &QualityInit::Resume(prev));
        assert_eq!(p.source_accuracy[0], 0.91);
        assert_eq!(p.source_accuracy[1], 0.42);
        assert_eq!(p.source_accuracy[2], 0.8, "new source gets the default");
        assert_eq!(p.precision[0], 0.77);
        assert_eq!(p.recall[0], 0.66);
        assert_eq!(p.q[0], 0.11, "converged Q is resumed, not re-derived");
        assert_eq!(p.recall[1], cfg.default_recall, "new extractor defaults");
        assert!(
            (p.q[1] - q_from_precision_recall(p.precision[1], p.recall[1], cfg.gamma)).abs()
                < 1e-12
        );
    }

    #[test]
    fn max_abs_delta_detects_the_largest_change() {
        let cube = tiny_cube();
        let cfg = ModelConfig::default();
        let a = Params::init(&cube, &cfg, &QualityInit::Default);
        let mut b = a.clone();
        assert_eq!(a.max_abs_delta(&b), 0.0);
        b.source_accuracy[1] = 0.5;
        assert!((a.max_abs_delta(&b) - 0.3).abs() < 1e-12);
        b.recall[0] = 0.1;
        assert!((a.max_abs_delta(&b) - 0.7).abs() < 1e-12);
    }
}
