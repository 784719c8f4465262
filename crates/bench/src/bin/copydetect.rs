//! The copy-detection scenario: detection throughput on a copier-heavy
//! corpus and on a web-shaped scale point, and copy-aware vs copy-blind
//! fusion accuracy.
//!
//! ```text
//! cargo run --release -p kbt-bench --bin copydetect [-- --smoke]
//! ```
//!
//! Fixed-seed and deterministic; `--smoke` shrinks the copier-heavy
//! corpus so CI can run it in seconds. Reports:
//!
//! 1. overlap-threshold effectiveness: candidate pairs reaching
//!    `min_overlap` versus the total co-claiming pair population,
//! 2. detection wall at 1 thread and the claim pairs it visits per second
//!    (the pass is one sparse-accumulator sweep over `Σ_d fan-in(d)²/2`
//!    claim pairs — see `kbt_datamodel::coclaim`),
//! 3. the web-shaped scale point: 10⁵ sources whose sizes follow the long
//!    tail `⌊S·u³⌋`, 1M triples — 1-thread wall, accumulator bytes per
//!    worker, and (on ≥ 2 hardware threads) the 2-thread speedup with an
//!    equality check. The speedup is taken here and not on the smoke
//!    corpus, whose whole pass is shorter than a thread spawn,
//! 4. copy-aware (`ModelConfig::copy_detection`) versus copy-blind
//!    fusion: truth accuracy and the recovered copier discounts on a
//!    planted-copier corpus.

use std::time::Instant;

use kbt_core::{
    detect_copies_from_accuracy, CopyDetectConfig, CopyEvidence, FusionModel, ModelConfig,
    MultiLayerModel, QualityInit,
};
use kbt_datamodel::{
    CoClaimIndex, CubeBuilder, ExtractorId, ItemId, Observation, ObservationCube, SourceId, ValueId,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Scale {
    sources: u32,
    copiers: u32,
    items: u32,
    claim_prob: f64,
    reps: u32,
}

impl Scale {
    fn full() -> Self {
        Self {
            sources: 150,
            copiers: 30,
            items: 1_200,
            claim_prob: 0.12,
            reps: 5,
        }
    }

    fn smoke() -> Self {
        Self {
            sources: 40,
            copiers: 8,
            items: 150,
            claim_prob: 0.25,
            reps: 2,
        }
    }
}

/// Corpus bundle: the cube, the planted truth, the true accuracies, and
/// each source's copy family (honest sources map to themselves, copiers
/// to their victim — two sources are genuinely dependent iff their
/// families match, which also covers two copiers of the same victim).
type Corpus = (ObservationCube, Vec<u32>, Vec<f64>, Vec<u32>);

/// A copier-heavy corpus: `sources - copiers` honest sources with mixed
/// accuracies, plus `copiers` verbatim copiers of random honest victims.
/// Each honest source claims inside a contiguous item window (half the
/// corpus), so distant sources co-claim only thinly — the pair
/// population the `min_overlap` prefilter exists to prune.
fn copier_heavy_corpus(rng: &mut StdRng, scale: &Scale) -> Corpus {
    let domain = 13u32;
    let honest = scale.sources - scale.copiers;
    let window = scale.items / 2;
    let truth: Vec<u32> = (0..scale.items).map(|_| rng.gen_range(0..domain)).collect();
    let mut claims: Vec<Vec<Option<u32>>> = Vec::new();
    let mut accuracy = Vec::new();
    for w in 0..honest {
        let acc = 0.45 + 0.5 * (w as f64 / honest as f64);
        accuracy.push(acc);
        let start = rng.gen_range(0..scale.items - window);
        claims.push(
            (0..scale.items)
                .map(|d| {
                    if d < start || d >= start + window || rng.gen::<f64>() > scale.claim_prob {
                        return None;
                    }
                    Some(if rng.gen::<f64>() < acc {
                        truth[d as usize]
                    } else {
                        let mut v = rng.gen_range(0..domain - 1);
                        if v >= truth[d as usize] {
                            v += 1;
                        }
                        v
                    })
                })
                .collect(),
        );
    }
    let mut family: Vec<u32> = (0..honest).collect();
    for _ in 0..scale.copiers {
        let victim = rng.gen_range(0..honest);
        family.push(victim);
        accuracy.push(accuracy[victim as usize]);
        claims.push(claims[victim as usize].clone());
    }
    let mut b = CubeBuilder::new();
    // Windowed sampling can leave items (or tail values) unclaimed; keep
    // the dense id spaces aligned with the planted truth regardless.
    b.reserve_ids(scale.sources, 1, scale.items, domain);
    for (w, vals) in claims.iter().enumerate() {
        for (d, v) in vals.iter().enumerate() {
            if let Some(v) = v {
                b.push(Observation::certain(
                    ExtractorId::new(0),
                    SourceId::new(w as u32),
                    ItemId::new(d as u32),
                    ValueId::new(*v),
                ));
            }
        }
    }
    (b.build(), truth, accuracy, family)
}

/// The web-shaped scale point (ROADMAP 3a's second corpus): `sources`
/// sources, the source of each claim drawn as `⌊S·u³⌋` so a head of
/// large sources co-claims heavily above a long tail of small ones, five
/// claims from distinct sources per item. Returns the cube and a planted
/// accuracy per source.
fn web_shaped_corpus(rng: &mut StdRng, sources: u32, items: u32) -> (ObservationCube, Vec<f64>) {
    let domain = 13u32;
    let accuracy: Vec<f64> = (0..sources)
        .map(|_| 0.3 + 0.65 * rng.gen::<f64>())
        .collect();
    let mut b = CubeBuilder::with_capacity(items as usize * 5);
    b.reserve_ids(sources, 1, items, domain);
    for d in 0..items {
        let truth = rng.gen_range(0..domain);
        let mut claimed: Vec<u32> = Vec::with_capacity(5);
        while claimed.len() < 5 {
            let w = (sources as f64 * rng.gen::<f64>().powi(3)) as u32;
            if claimed.contains(&w) {
                continue;
            }
            claimed.push(w);
            let v = if rng.gen::<f64>() < accuracy[w as usize] {
                truth
            } else {
                (truth + 1 + rng.gen_range(0..domain - 1)) % domain
            };
            b.push(Observation::certain(
                ExtractorId::new(0),
                SourceId::new(w),
                ItemId::new(d),
                ValueId::new(v),
            ));
        }
    }
    (b.build(), accuracy)
}

/// Mean detection wall in ms over `reps` passes at `threads` workers
/// (after one warm-up pass), and the evidence of the last pass.
fn detection_ms(
    cube: &ObservationCube,
    accuracy: &[f64],
    threads: usize,
    reps: u32,
) -> (f64, Vec<CopyEvidence>) {
    let cfg = CopyDetectConfig::default();
    kbt_flume::with_threads(Some(threads), || {
        let mut evidence = detect_copies_from_accuracy(cube, accuracy, &cfg);
        let t0 = Instant::now();
        for _ in 0..reps {
            evidence = std::hint::black_box(detect_copies_from_accuracy(cube, accuracy, &cfg));
        }
        (t0.elapsed().as_secs_f64() * 1e3 / reps as f64, evidence)
    })
}

/// Claim pairs the detection pass visits: per item, the pairs of claims
/// by different sources — `((Σc)² − Σc²) / 2` over its `(source, c)` runs.
fn claim_pairs(cube: &ObservationCube, index: &CoClaimIndex) -> u64 {
    (0..cube.num_items())
        .map(|d| {
            let runs = index.item_sources(ItemId::new(d as u32));
            let sum: u64 = runs.iter().map(|&(_, c)| u64::from(c)).sum();
            let squares: u64 = runs.iter().map(|&(_, c)| u64::from(c).pow(2)).sum();
            (sum * sum - squares) / 2
        })
        .sum()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let mut rng = StdRng::seed_from_u64(20150831); // fixed seed, always

    let (cube, truth, accuracy, family) = copier_heavy_corpus(&mut rng, &scale);
    println!(
        "copy detection scenario ({}): {} sources ({} copiers) x {} items, {} groups",
        if smoke { "smoke" } else { "full" },
        scale.sources,
        scale.copiers,
        scale.items,
        cube.num_groups()
    );

    // ---- 1. Overlap-threshold effectiveness. ----
    let index = CoClaimIndex::build(&cube);
    let all_pairs = index.pair_overlaps().len();
    let cfg = CopyDetectConfig::default();
    let candidates = index.candidate_pairs(cfg.min_overlap).len();
    println!(
        "\nprefilter: {candidates} candidate pairs of {all_pairs} co-claiming ({:.1}% pruned before scoring)",
        100.0 * (1.0 - candidates as f64 / all_pairs.max(1) as f64)
    );

    // ---- 2. Detection throughput, one thread. ----
    let pairs = claim_pairs(&cube, &index);
    let (detect_ms, _) = detection_ms(&cube, &accuracy, 1, scale.reps);
    let pairs_per_s = pairs as f64 / (detect_ms / 1e3);
    println!(
        "\ndetection ({} passes, 1 thread): {detect_ms:.3} ms/pass, {pairs} claim pairs, {pairs_per_s:.3e} claim pairs/s",
        scale.reps
    );

    // ---- 3. The web-shaped scale point. ----
    let (web_sources, web_items) = (100_000u32, 200_000u32);
    let (web_cube, web_accuracy) = web_shaped_corpus(&mut rng, web_sources, web_items);
    let web_pairs = claim_pairs(&web_cube, &CoClaimIndex::build(&web_cube));
    let (web_ms, web_evidence) = detection_ms(&web_cube, &web_accuracy, 1, 3);
    // One `[overlap, agree, agree_exclusive]` u64 slot per source, per worker.
    let accumulator_bytes = web_cube.num_sources() * std::mem::size_of::<[u64; 3]>();
    println!(
        "\nweb-shaped scale point: {web_sources} sources x {web_items} items, {} triples, {web_pairs} claim pairs",
        web_cube.num_groups()
    );
    println!(
        "   1 thread : {web_ms:>8.2} ms/pass   {:.3e} claim pairs/s   {} pairs scored   accumulator {accumulator_bytes} B/worker",
        web_pairs as f64 / (web_ms / 1e3),
        web_evidence.len()
    );
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let web_speedup_2t = (hw >= 2).then(|| {
        let (ms_2t, evidence_2t) = detection_ms(&web_cube, &web_accuracy, 2, 3);
        assert_eq!(
            web_evidence, evidence_2t,
            "detection must be identical at 1 and 2 threads"
        );
        println!(
            "   2 threads: {ms_2t:>8.2} ms/pass   speedup x{:.2} ({hw} hardware threads)",
            web_ms / ms_2t
        );
        web_ms / ms_2t
    });

    // ---- 4. Detection quality: genuine dependencies at the top. ----
    // A top pair is a hit iff its members share a copy family — the
    // planted (victim, copier) pairs plus copier-copier pairs that share
    // a victim (verbatim copies of each other, legitimately dependent).
    let evidence = detect_copies_from_accuracy(&cube, &accuracy, &cfg);
    let top = scale.copiers as usize;
    let hits = evidence
        .iter()
        .take(top)
        .filter(|e| family[e.a.index()] == family[e.b.index()])
        .count();
    println!(
        "\ndetection quality: {hits}/{top} of the top-{top} evidence pairs are genuine copy relationships"
    );

    // ---- 5. Copy-aware vs copy-blind fusion. ----
    let fusion_cfg = ModelConfig {
        max_iterations: 20,
        convergence_eps: 1e-5,
        ..ModelConfig::default()
    };
    let map_accuracy = |r: &kbt_core::FusionReport| {
        truth
            .iter()
            .enumerate()
            .filter(|&(d, &tv)| {
                r.posteriors()
                    .map_value(ItemId::new(d as u32))
                    .is_some_and(|(v, _)| v == ValueId::new(tv))
            })
            .count() as f64
            / truth.len() as f64
    };
    let t0 = Instant::now();
    let blind = MultiLayerModel::new(fusion_cfg.clone()).fit(&cube, &QualityInit::Default);
    let blind_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let aware = MultiLayerModel::new(ModelConfig {
        copy_detection: Some(CopyDetectConfig {
            discount: true,
            ..cfg
        }),
        ..fusion_cfg
    })
    .fit(&cube, &QualityInit::Default);
    let aware_ms = t0.elapsed().as_secs_f64() * 1e3;
    let discounted = aware
        .as_multi_layer()
        .unwrap()
        .source_independence
        .as_ref()
        .unwrap()
        .iter()
        .filter(|&&s| s < 1.0)
        .count();
    println!("\nfusion (truth accuracy vs planted truth):");
    println!(
        "  copy-blind  {:.4}  ({:>3} iters, {blind_ms:>7.1} ms)",
        map_accuracy(&blind),
        blind.iterations()
    );
    println!(
        "  copy-aware  {:.4}  ({:>3} iters, {aware_ms:>7.1} ms, {discounted} sources discounted)",
        map_accuracy(&aware),
        aware.iterations()
    );

    // Deterministic checksum so CI smoke runs catch silent drift: exact
    // integer fold over the evidence stats and the final trust bits.
    let mut checksum = evidence.iter().fold(0u64, |acc, e| {
        acc.wrapping_mul(31)
            .wrapping_add(e.a.0 as u64)
            .wrapping_mul(31)
            .wrapping_add(e.b.0 as u64)
            .wrapping_mul(31)
            .wrapping_add(e.agree_exclusive as u64)
    });
    checksum = aware.source_trust().iter().fold(checksum, |acc, a| {
        acc.wrapping_mul(31).wrapping_add(a.to_bits())
    });
    println!("\nevidence checksum: {checksum:#018x}");

    let mut report =
        kbt_bench::BenchReport::new("copydetect", if smoke { "smoke" } else { "full" });
    report
        .count("sources", scale.sources as u64)
        .count("copiers", scale.copiers as u64)
        .count("candidate_pairs", candidates as u64)
        .count("co_claiming_pairs", all_pairs as u64)
        .count("top_pair_hits", hits as u64)
        .count("top_pairs", top as u64)
        .metric("fusion_accuracy_blind", map_accuracy(&blind))
        .metric("fusion_accuracy_aware", map_accuracy(&aware))
        .count("em_rounds_blind", blind.iterations() as u64)
        .count("em_rounds_aware", aware.iterations() as u64)
        .metric("fusion_ms_blind", blind_ms)
        .metric("fusion_ms_aware", aware_ms)
        .count("sources_discounted", discounted as u64);
    report
        .metric("detect_ms_1t", detect_ms)
        .metric("detect_claim_pairs_per_s_1t", pairs_per_s)
        .count("web_sources", web_sources as u64)
        .count("web_triples", web_cube.num_groups() as u64)
        .count("web_claim_pairs", web_pairs)
        .count("web_pairs_scored", web_evidence.len() as u64)
        .metric("web_detect_ms_1t", web_ms)
        .metric(
            "web_detect_claim_pairs_per_s_1t",
            web_pairs as f64 / (web_ms / 1e3),
        )
        .count("web_accumulator_bytes", accumulator_bytes as u64);
    if let Some(speedup) = web_speedup_2t {
        report.metric("web_detect_speedup_2t", speedup);
    }
    report.text("evidence_checksum", &format!("{checksum:#018x}"));
    let path = report.write().expect("write bench report");
    println!("report: {}", path.display());
}
