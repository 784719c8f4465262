//! Figure 7: distribution of KBT over websites with at least 5 extracted
//! triples.
//!
//! Expected shape (paper): the distribution peaks at 0.8 and 52% of
//! websites have KBT above 0.8 (the simulator plants the bulk of site
//! accuracies near 0.8, so the estimated-KBT histogram should recover
//! that shape).

use kbt_bench::harness::{kv_multilayer_config, website_cube};
use kbt_bench::table::TableWriter;
use kbt_core::{FusionModel, MultiLayerModel, QualityInit};
use kbt_datamodel::SourceId;
use kbt_metrics::probability_histogram;
use kbt_synth::web::{generate, WebCorpusConfig};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let corpus = generate(&WebCorpusConfig {
        seed,
        ..WebCorpusConfig::default()
    });
    // KBT per *website*: run the multi-layer model with websites as
    // sources (the unit the paper reports Figure 7 for), keeping sites
    // with at least 5 extracted triples.
    let cfg = kv_multilayer_config();
    let cube = website_cube(&corpus);
    let result = MultiLayerModel::new(cfg).fit(&cube, &QualityInit::Default);
    let kbt: Vec<f64> = (0..cube.num_sources())
        .filter(|&s| cube.source_size(SourceId::new(s as u32)) >= 5 && result.active_source[s])
        .map(|s| result.kbt(SourceId::new(s as u32)))
        .collect();

    let h = probability_histogram(kbt.iter().copied(), 20);
    println!(
        "Figure 7 — KBT distribution over {} websites with ≥5 extracted triples\n",
        kbt.len()
    );
    let mut t = TableWriter::new(&["KBT bucket", "fraction"]);
    let fr = h.fractions();
    for (i, label) in h.labels.iter().enumerate() {
        t.row(vec![label.clone(), format!("{:.3}", fr[i])]);
    }
    println!("{}", t.render());
    let above_08: f64 = kbt.iter().filter(|&&x| x > 0.8).count() as f64 / kbt.len().max(1) as f64;
    println!("peak bucket: {}   (paper: 0.80)", h.labels[h.peak()]);
    println!(
        "websites with KBT > 0.8: {:.0}%   (paper: 52%)",
        100.0 * above_08
    );
}
