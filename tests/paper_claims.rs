//! The paper's claims, asserted rather than printed.
//!
//! Table 6 (§5.3): re-estimating the per-triple correctness prior α
//! (§3.3.4, Eq. 26) improves MULTILAYER+ — on the `table6` corpus, with
//! the `table6` configuration and gold-seeded initialization, α
//! re-estimation must beat `alpha_update_from: None` on square loss (SqV)
//! and on AUC-PR, each by a stated margin, on every one of three seeds.
//!
//! The paper also reports that freezing α hurts WDev (calibration). That
//! does not reproduce here — freezing α *lowers* WDev on all three seeds
//! (README, "Reproducing the paper's experiments") — so it is not
//! asserted.

use kbt::core::ModelConfig;
use kbt::synth::web::{generate, WebCorpusConfig};
use kbt_bench::harness::{gold_init, kv_multilayer_config, run_multilayer, score_predictions};

/// Margins: α on must be at least this much better than α off. Measured
/// gaps (α off − α on): SqV .009 / .008 / .011, AUC-PR .062 / .062 / .070
/// on seeds 42 / 7 / 1001.
const SQV_MARGIN: f64 = 0.004;
const AUC_PR_MARGIN: f64 = 0.03;

#[test]
fn alpha_re_estimation_beats_a_frozen_alpha_on_sqv_and_auc_pr() {
    for seed in [42u64, 7, 1001] {
        let corpus = generate(&WebCorpusConfig {
            seed,
            ..WebCorpusConfig::default()
        });
        let gold = gold_init(&corpus);
        let score =
            |cfg: &ModelConfig| score_predictions(&corpus, &run_multilayer(&corpus, cfg, &gold).1);
        let on = score(&kv_multilayer_config());
        let off = score(&ModelConfig {
            alpha_update_from: None,
            ..kv_multilayer_config()
        });
        assert!(
            on.sqv + SQV_MARGIN <= off.sqv,
            "seed {seed}: SqV with α {:.4}, frozen {:.4}",
            on.sqv,
            off.sqv
        );
        assert!(
            on.auc_pr >= off.auc_pr + AUC_PR_MARGIN,
            "seed {seed}: AUC-PR with α {:.4}, frozen {:.4}",
            on.auc_pr,
            off.auc_pr
        );
    }
}
