//! Section 5.4.1: the manual evaluation of 100 high-KBT websites,
//! simulated against generator ground truth.
//!
//! The paper sampled 100 websites with KBT > 0.9, manually checked 10
//! triples from each against four criteria — triple correctness,
//! extraction correctness, topic relevance, non-trivialness — and found
//! 85 genuinely trustworthy, most with low PageRank. We reproduce the
//! pipeline: sample high-KBT sites, sample their high-confidence triples,
//! and apply the four criteria using the simulator's ground truth in
//! place of the human rater.

use kbt_bench::harness::{gold_init, kv_multilayer_config, run_multilayer};
use kbt_synth::web::{generate, SiteArchetype, WebCorpusConfig};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let corpus = generate(&WebCorpusConfig {
        seed,
        // More accurate-tail and special sites so the high-KBT sample is
        // interesting at simulation scale.
        accurate_tail_fraction: 0.08,
        trivia_fraction: 0.03,
        offtopic_fraction: 0.03,
        ..WebCorpusConfig::default()
    });
    let cfg = kv_multilayer_config();
    let (result, _) = run_multilayer(&corpus, &cfg, &gold_init(&corpus));
    let site_kbt = corpus.site_scores(result.source_trust(), &result.active_source);

    // Sample up to 100 sites with KBT above 0.9.
    let sample: Vec<(u32, f64)> = site_kbt
        .iter()
        .filter(|(_, k)| *k > 0.9)
        .take(100)
        .copied()
        .collect();
    println!(
        "Section 5.4.1 — simulated manual evaluation of {} high-KBT websites (KBT > 0.9)\n",
        sample.len()
    );

    let mut trustworthy = 0;
    let mut fail_correctness = 0;
    let mut fail_extraction = 0;
    let mut fail_topic = 0;
    let mut fail_trivial = 0;
    // Each site's high-correctness triples as `(page, group)`, in one walk
    // over the groups.
    let correctness = result.correctness().unwrap();
    let mut high = vec![Vec::new(); corpus.sites.len()];
    for (g, grp) in corpus.cube.groups().iter().enumerate() {
        if correctness[g] >= 0.8 {
            let site = corpus.site_of_page[grp.source.index()] as usize;
            high[site].push((grp.source, g));
        }
    }
    for (site, _) in &sample {
        // Check up to 10 of them, page by page.
        let mut triples = std::mem::take(&mut high[*site as usize]);
        triples.sort_unstable();
        triples.truncate(10);
        let checked = triples.len();
        let correct = triples.iter().filter(|t| corpus.group_value_true[t.1]);
        let extracted_ok = triples.iter().filter(|t| corpus.group_provided[t.1]);
        let (correct, extracted_ok) = (correct.count(), extracted_ok.count());
        if checked == 0 {
            continue;
        }
        // The paper's thresholds: at least 9 of 10 must pass each check.
        let need = (checked * 9).div_ceil(10);
        let arch = corpus.sites[*site as usize].archetype;
        let topic_ok = arch != SiteArchetype::OffTopic;
        let nontrivial_ok = arch != SiteArchetype::TriviaFarm;
        let ok_corr = correct >= need;
        let ok_extr = extracted_ok >= need;
        if ok_corr && ok_extr && topic_ok && nontrivial_ok {
            trustworthy += 1;
        } else {
            fail_correctness += (!ok_corr) as usize;
            fail_extraction += (!ok_extr) as usize;
            fail_topic += (!topic_ok) as usize;
            fail_trivial += (!nontrivial_ok) as usize;
        }
    }
    println!("trustworthy: {trustworthy} / {}", sample.len());
    println!("failed triple correctness:    {fail_correctness}");
    println!("failed extraction correctness: {fail_extraction}");
    println!("failed topic relevance:        {fail_topic}");
    println!("failed non-trivialness:        {fail_trivial}");
    println!(
        "\nPaper: 85/100 trustworthy; 2 topic-irrelevant, 12 trivial, 2 extraction-error \
         (one site failed two checks)."
    );
}
