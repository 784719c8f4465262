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
//!
//! Table 5 (§5.3): the multi-layer model beats the single layer. On the
//! `table5` corpus and configurations, unsupervised, MULTILAYER is far
//! better calibrated than SINGLELAYER (WDev), and MULTILAYERSM beats
//! SINGLELAYER on SqV, WDev and AUC-PR, each by a stated margin, on every
//! one of three seeds. What does not reproduce is listed in README and
//! not asserted: MULTILAYER against SINGLELAYER on SqV and AUC-PR is mixed
//! across seeds, and MULTILAYER+ loses to MULTILAYERSM+.

use kbt::core::{ModelConfig, QualityInit};
use kbt::granularity::SplitMergeConfig;
use kbt::synth::web::{generate, WebCorpusConfig};
use kbt_bench::harness::{
    gold_init, kv_multilayer_config, kv_singlelayer_config, run_multilayer, run_multilayer_sm,
    run_singlelayer, score_predictions,
};

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

/// Table 5's margins. Measured, SqV / WDev / AUC-PR, SingleLayer →
/// MultiLayer → MultiLayerSM: seed 42 .050/.0137/.827 → .051/.0023/.812
/// → .029/.0019/.921; seed 7 .056/.0153/.813 → .064/.0029/.753 →
/// .036/.0018/.890; seed 1001 .055/.0149/.788 → .049/.0027/.801 →
/// .034/.0019/.893.
const WDEV_FACTOR: f64 = 3.0;
const SM_SQV_MARGIN: f64 = 0.01;
const SM_AUC_PR_MARGIN: f64 = 0.04;

#[test]
fn table5_multi_layer_beats_the_single_layer() {
    let sm = SplitMergeConfig {
        min_size: 5,
        max_size: 10_000,
    };
    for seed in [42u64, 7, 1001] {
        let corpus = generate(&WebCorpusConfig {
            seed,
            ..WebCorpusConfig::default()
        });
        let init = QualityInit::Default;
        let single = run_singlelayer(&corpus, &kv_singlelayer_config(), &init).1;
        let single = score_predictions(&corpus, &single);
        let multi = run_multilayer(&corpus, &kv_multilayer_config(), &init).1;
        let multi = score_predictions(&corpus, &multi);
        let split_merge = run_multilayer_sm(&corpus, &kv_multilayer_config(), &sm, false).1;
        let split_merge = score_predictions(&corpus, &split_merge);
        assert!(
            multi.wdev * WDEV_FACTOR <= single.wdev,
            "seed {seed}: WDev MultiLayer {:.4}, SingleLayer {:.4}",
            multi.wdev,
            single.wdev
        );
        assert!(
            split_merge.sqv + SM_SQV_MARGIN <= single.sqv,
            "seed {seed}: SqV MultiLayerSM {:.4}, SingleLayer {:.4}",
            split_merge.sqv,
            single.sqv
        );
        assert!(
            split_merge.wdev * WDEV_FACTOR <= single.wdev,
            "seed {seed}: WDev MultiLayerSM {:.4}, SingleLayer {:.4}",
            split_merge.wdev,
            single.wdev
        );
        assert!(
            split_merge.auc_pr >= single.auc_pr + SM_AUC_PR_MARGIN,
            "seed {seed}: AUC-PR MultiLayerSM {:.4}, SingleLayer {:.4}",
            split_merge.auc_pr,
            single.auc_pr
        );
    }
}
