//! Figure 10: KBT versus PageRank for a random sample of websites.
//!
//! PageRank is computed over a preferential-attachment web graph whose
//! link structure is independent of factual accuracy; KBT comes from the
//! multi-layer model. Expected shape (paper): the two signals are almost
//! orthogonal (tiny correlation), with trustworthy-but-unpopular sites in
//! the bottom-right and popular gossip sites in the top-left.

use kbt_bench::harness::{gold_init, kv_multilayer_config, run_multilayer};
use kbt_graph::{
    normalize_unit, pagerank, preferential_attachment, PageRankConfig, WebGraph, WebGraphConfig,
};
use kbt_metrics::{pearson, spearman};
use kbt_synth::web::{generate, SiteArchetype, WebCorpusConfig};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let corpus = generate(&WebCorpusConfig {
        seed,
        ..WebCorpusConfig::default()
    });
    // KBT per site.
    let cfg = kv_multilayer_config();
    let (result, _) = run_multilayer(&corpus, &cfg, &gold_init(&corpus));
    let site_kbt = corpus.site_scores(result.source_trust(), &result.active_source);

    // PageRank over a link graph independent of accuracy — except that
    // gossip sites are planted popular (they receive extra in-links), per
    // the paper's Section 5.4.1 observation.
    let n = corpus.sites.len();
    let mut edges = preferential_attachment(&WebGraphConfig {
        num_nodes: n,
        edges_per_node: 4,
        seed: seed ^ 0xABCD,
    });
    for (s, site) in corpus.sites.iter().enumerate() {
        if site.archetype == SiteArchetype::Gossip {
            // Everyone loves gossip: heavy extra in-links.
            for k in 0..200usize {
                edges.push((((s + k * 7 + 1) % n) as u32, s as u32));
            }
        }
    }
    let graph = WebGraph::from_edges(n, &edges);
    let pr = normalize_unit(&pagerank(&graph, &PageRankConfig::default()));

    // Sample up to 2000 sites with KBT estimates (the paper samples 2000).
    let mut xs = Vec::new(); // KBT
    let mut ys = Vec::new(); // PageRank
    let mut rows = Vec::new();
    for (site, kbt) in site_kbt.iter().take(2000) {
        xs.push(*kbt);
        ys.push(pr[*site as usize]);
        rows.push((*site, *kbt, pr[*site as usize]));
    }

    println!(
        "Figure 10 — KBT vs PageRank over {} sampled websites\n",
        xs.len()
    );
    println!("KBT,PageRank (first 40 sample points)");
    for (_, k, p) in rows.iter().take(40) {
        println!("{k:.3},{p:.3}");
    }
    let pe = pearson(&xs, &ys).unwrap_or(0.0);
    let sp = spearman(&xs, &ys).unwrap_or(0.0);
    println!("\nPearson corr = {pe:.3}, Spearman corr = {sp:.3}   (paper: \"almost orthogonal\")");

    // Corner analyses (Section 5.4.1).
    let med_pr = median(&ys);
    let mut high_kbt_low_pr = 0;
    let mut total_high_kbt = 0;
    for (_, k, p) in &rows {
        if *k > 0.9 {
            total_high_kbt += 1;
            if *p <= med_pr {
                high_kbt_low_pr += 1;
            }
        }
    }
    println!(
        "sites with KBT > 0.9: {total_high_kbt}; of those, {high_kbt_low_pr} have below-median PageRank \
         (trustworthy tail exists)"
    );
    let gossip: Vec<&(u32, f64, f64)> = rows
        .iter()
        .filter(|(s, _, _)| corpus.sites[*s as usize].archetype == SiteArchetype::Gossip)
        .collect();
    if !gossip.is_empty() {
        let med_kbt = median(&xs);
        let low_kbt = gossip.iter().filter(|(_, k, _)| *k < med_kbt).count();
        let high_pr = gossip.iter().filter(|(_, _, p)| *p > med_pr).count();
        println!(
            "gossip sites sampled: {}; {} in bottom half of KBT, {} in top half of PageRank \
             (paper: 14/15 top-15% PageRank, all bottom-50% KBT)",
            gossip.len(),
            low_kbt,
            high_pr
        );
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if v.is_empty() {
        return 0.0;
    }
    v[v.len() / 2]
}
