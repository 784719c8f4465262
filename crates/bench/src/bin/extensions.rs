//! Section 5.4.2 extensions in action: IDF weighting and topic filtering.
//!
//! The paper's manual evaluation found two failure modes among high-KBT
//! websites: trivia farms (accurate but uninformative triples) and
//! off-topic sites. This binary applies the two proposed fixes —
//! IDF-weighted trust and topic-relevance filtering — and reports how
//! many planted farms/off-topic sites remain in the high-KBT set before
//! and after.

use kbt_bench::harness::{kv_multilayer_config, run_multilayer, topic_weights};
use kbt_bench::table::TableWriter;
use kbt_core::{extensions, QualityInit};
use kbt_synth::web::{generate, SiteArchetype, WebCorpusConfig};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let corpus = generate(&WebCorpusConfig {
        seed,
        trivia_fraction: 0.05,
        offtopic_fraction: 0.05,
        ..WebCorpusConfig::default()
    });
    let cfg = kv_multilayer_config();
    let (result, _) = run_multilayer(&corpus, &cfg, &QualityInit::Default);
    let layer = result.extraction.as_ref().unwrap();

    // Plain vs IDF-weighted vs topic-filtered KBT at page level,
    // aggregated to sites.
    let ones = vec![1.0; corpus.cube.num_groups()];
    let idf = extensions::idf_weights(&corpus.cube);
    let topic = topic_weights(&corpus, 0.8);
    let combined: Vec<f64> = idf.iter().zip(&topic).map(|(a, b)| a * b).collect();

    let count_suspects = |weights: &[f64], label: &str| -> (usize, usize, usize) {
        let kbt = extensions::weighted_kbt(&corpus.cube, layer, weights, 1.0);
        // Site score = triple-weighted mean of its pages' scores.
        let mut num = vec![0.0f64; corpus.sites.len()];
        let mut den = vec![0.0f64; corpus.sites.len()];
        for (p, score) in kbt.iter().enumerate() {
            let Some(score) = score else { continue };
            let wt = corpus
                .cube
                .source_size(kbt_datamodel::SourceId::new(p as u32)) as f64;
            let s = corpus.site_of_page[p] as usize;
            num[s] += wt * score;
            den[s] += wt;
        }
        let mut high_total = 0;
        let mut high_trivia = 0;
        let mut high_offtopic = 0;
        for s in 0..corpus.sites.len() {
            if den[s] <= 0.0 {
                continue;
            }
            if num[s] / den[s] > 0.85 {
                high_total += 1;
                match corpus.sites[s].archetype {
                    SiteArchetype::TriviaFarm => high_trivia += 1,
                    SiteArchetype::OffTopic => high_offtopic += 1,
                    _ => {}
                }
            }
        }
        let _ = label;
        (high_total, high_trivia, high_offtopic)
    };

    println!("Section 5.4.2 extensions — cleaning the high-KBT set (score > 0.85)\n");
    let mut t = TableWriter::new(&[
        "weighting",
        "high-KBT sites",
        "trivia farms among them",
        "off-topic among them",
    ]);
    for (name, w) in [
        ("plain (Eq. 28)", &ones),
        ("IDF-weighted", &idf),
        ("topic-filtered", &topic),
        ("IDF + topic", &combined),
    ] {
        let (total, trivia, off) = count_suspects(w, name);
        t.row(vec![
            name.to_string(),
            total.to_string(),
            trivia.to_string(),
            off.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Expected: IDF weighting demotes or flags trivia farms; topic filtering\n\
         removes off-topic sites' irrelevant triples from their trust evidence."
    );
}
