//! Web-scale scenario: score a simulated slice of the web and contrast
//! Knowledge-Based Trust with PageRank.
//!
//! Generates a KV-style corpus (sites with Zipf page counts, 16 noisy
//! extractors, planted gossip and accurate-tail sites), runs the
//! multi-layer model at website granularity, computes PageRank over an
//! accuracy-independent link graph, and prints the sites where the two
//! signals disagree the most — the paper's Section 5.4.1 story.
//!
//! Run with: `cargo run --release --example web_trust`

use kbt::core::config::AbsencePolicy;
use kbt::core::ModelConfig;
use kbt::datamodel::{CubeBuilder, Observation, SourceId};
use kbt::graph::{
    normalize_unit, pagerank, preferential_attachment, PageRankConfig, WebGraph, WebGraphConfig,
};
use kbt::synth::web::{generate, SiteArchetype, WebCorpusConfig};
use kbt::{Model, TrustPipeline};

fn main() -> Result<(), kbt::PipelineError> {
    let corpus = generate(&WebCorpusConfig {
        num_sites: 400,
        seed: 7,
        ..WebCorpusConfig::default()
    });

    // Rebuild the cube with websites as sources.
    let mut b = CubeBuilder::with_capacity(corpus.observations.len());
    for o in &corpus.observations {
        b.push(Observation {
            source: SourceId::new(corpus.site_of_page[o.source.index()]),
            ..*o
        });
    }
    b.reserve_ids(corpus.sites.len() as u32, 0, 0, 0);
    let cube = b.build();

    let result = TrustPipeline::new()
        .cube(cube)
        .model(Model::MultiLayer(ModelConfig {
            min_source_support: 5,
            absence_policy: AbsencePolicy::SourceCandidates,
            ..ModelConfig::default()
        }))
        .try_run()?;

    // PageRank over a link graph where gossip sites are popular.
    let n = corpus.sites.len();
    let mut edges = preferential_attachment(&WebGraphConfig {
        num_nodes: n,
        edges_per_node: 4,
        seed: 99,
    });
    for (s, site) in corpus.sites.iter().enumerate() {
        if site.archetype == SiteArchetype::Gossip {
            for k in 0..150usize {
                edges.push((((s + 3 * k + 1) % n) as u32, s as u32));
            }
        }
    }
    // Percentile-rank PageRank for comparison: raw scores are power-law
    // distributed, so min–max normalization would squash everything but
    // the top hub to ~0.
    let raw = normalize_unit(&pagerank(
        &WebGraph::from_edges(n, &edges),
        &PageRankConfig::default(),
    ));
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| raw[a].partial_cmp(&raw[b]).unwrap());
    let mut pr = vec![0.0; n];
    for (rank, &s) in order.iter().enumerate() {
        pr[s] = rank as f64 / (n - 1).max(1) as f64;
    }

    // Rank sites by the gap between popularity and trustworthiness.
    let mut scored: Vec<(usize, f64, f64)> = (0..n)
        .filter(|&s| result.active_source[s])
        .map(|s| (s, result.kbt(SourceId::new(s as u32)), pr[s]))
        .collect();

    scored.sort_by(|a, b| (b.2 - b.1).partial_cmp(&(a.2 - a.1)).unwrap());
    println!("Popular but untrustworthy (PageRank ≫ KBT):");
    for (s, kbt, pr) in scored.iter().take(5) {
        println!(
            "  site {s:4}  KBT {kbt:.2}  PageRank {pr:.2}  [{:?}] true accuracy {:.2}",
            corpus.sites[*s].archetype, corpus.sites[*s].accuracy
        );
    }

    scored.sort_by(|a, b| (b.1 - b.2).partial_cmp(&(a.1 - a.2)).unwrap());
    println!("\nTrustworthy but obscure (KBT ≫ PageRank):");
    for (s, kbt, pr) in scored.iter().take(5) {
        println!(
            "  site {s:4}  KBT {kbt:.2}  PageRank {pr:.2}  [{:?}] true accuracy {:.2}",
            corpus.sites[*s].archetype, corpus.sites[*s].accuracy
        );
    }

    let xs: Vec<f64> = scored.iter().map(|x| x.1).collect();
    let ys: Vec<f64> = scored.iter().map(|x| x.2).collect();
    if let Some(r) = kbt::metrics::pearson(&xs, &ys) {
        println!("\nPearson correlation between KBT and PageRank: {r:.3} (≈ orthogonal)");
    }
    Ok(())
}
