//! Concurrency and exactness guarantees of the trust-serving layer.
//!
//! 1. **Stress**: reader threads hammer the store while the writer runs
//!    back-to-back refits; no reader may ever observe a torn snapshot
//!    (fingerprint mismatch), a backwards epoch, or a snapshot staler
//!    than the published floor it read before the query.
//! 2. **Exactness**: proptest that every serve-layer answer equals the
//!    corresponding `FusionReport` field bit-for-bit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use kbt_core::ModelConfig;
use kbt_datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt_pipeline::{Model, TrustPipeline};
use kbt_serve::{RefitMode, TrustServer};
use proptest::prelude::*;

fn obs(e: u32, w: u32, d: u32, v: u32) -> Observation {
    Observation::certain(
        ExtractorId::new(e),
        SourceId::new(w),
        ItemId::new(d),
        ValueId::new(v),
    )
}

/// A deterministic mixed-accuracy corpus (same shape as the session
/// tests): enough disagreement that EM iterates a few rounds per refit.
fn corpus(items: std::ops::Range<u32>) -> Vec<Observation> {
    let mut out = Vec::new();
    for w in 0..8u32 {
        for d in items.clone() {
            let errs = (w * 37 + d * 13) % 10 < w;
            let v = if errs { 3 + (w + d) % 4 } else { d % 3 };
            for e in 0..2u32 {
                if (w + d + e) % 5 != 0 {
                    out.push(obs(e, w, d, v));
                }
            }
        }
    }
    out
}

fn single_threaded() -> Model {
    Model::MultiLayer(ModelConfig {
        threads: Some(1),
        ..ModelConfig::default()
    })
}

/// Readers running concurrently with back-to-back warm refits never see
/// a torn snapshot, a non-monotone epoch, or a stale epoch (older than
/// the published floor observed before the read).
#[test]
fn readers_never_observe_torn_or_stale_snapshots_during_refits() {
    const REFITS: u64 = 6;
    const READERS: usize = 4;

    let session = TrustPipeline::new()
        .observations(corpus(0..30))
        .model(single_threaded())
        .into_session()
        .unwrap();
    let mut server = TrustServer::new(session, RefitMode::Warm);
    let handle = server.handle();

    // The writer bumps the floor *after* each publish; a reader that
    // loads the floor and then queries must get an epoch >= that floor.
    let published_floor = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let reads = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..READERS {
            let mut reader = handle.reader();
            let published_floor = &published_floor;
            let done = &done;
            let reads = &reads;
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut local_reads = 0u64;
                // Check-then-test: each reader verifies at least one
                // snapshot even if the writer finishes every refit
                // before this thread is first scheduled (single-core CI).
                loop {
                    let stop = done.load(Ordering::SeqCst);
                    let floor = published_floor.load(Ordering::SeqCst);
                    let snap = reader.current();
                    let epoch = snap.epoch();
                    // Torn-read oracle: the payload digest must match.
                    assert!(snap.verify_integrity(), "torn snapshot at epoch {epoch}");
                    // Staleness: never older than the floor read before.
                    assert!(epoch >= floor, "stale epoch {epoch} < floor {floor}");
                    // Monotonicity per reader.
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    last_epoch = epoch;
                    // Spot-check a few served answers for well-formedness.
                    for w in 0..snap.num_sources() as u32 {
                        let t = snap.trust(SourceId::new(w)).unwrap();
                        assert!((0.0..=1.0).contains(&t));
                    }
                    let top = snap.top_k_sources(3);
                    for pair in top.windows(2) {
                        assert!(pair[0].1 >= pair[1].1);
                    }
                    local_reads += 1;
                    if stop {
                        break;
                    }
                }
                reads.fetch_add(local_reads, Ordering::SeqCst);
            });
        }

        // Writer: back-to-back refits, one delta batch each.
        for i in 0..REFITS {
            let lo = 30 + i as u32 * 2;
            server.ingest(corpus(lo..lo + 2)).unwrap();
            let snap = server.refit().unwrap().expect("delta publishes");
            assert_eq!(snap.epoch(), i + 1);
            published_floor.store(i + 1, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
    });

    assert_eq!(handle.epoch(), REFITS);
    assert!(reads.load(Ordering::SeqCst) > 0, "readers actually read");
}

fn observations(max_len: usize) -> impl Strategy<Value = Vec<Observation>> {
    prop::collection::vec(
        (0u32..4, 0u32..7, 0u32..9, 0u32..5, 0.0f64..=1.0).prop_map(|(e, w, d, v, c)| {
            Observation {
                extractor: ExtractorId::new(e),
                source: SourceId::new(w),
                item: ItemId::new(d),
                value: ValueId::new(v),
                confidence: c,
            }
        }),
        1..max_len,
    )
}

proptest! {
    /// Every serve-layer answer equals the corresponding `FusionReport`
    /// field exactly (bitwise for floats): snapshots are faithful
    /// exports, not approximations.
    #[test]
    fn snapshot_answers_equal_report_fields(base in observations(60), delta in observations(20)) {
        let report = TrustPipeline::new()
            .observations(base.iter().chain(&delta).copied().collect())
            .model(single_threaded())
            .try_run().expect("pipeline runs");

        // Serve the same data through a cold-refit server: base corpus,
        // then the delta, then one refit.
        let mut server = TrustServer::new(
            TrustPipeline::new()
                .observations(base)
                .model(single_threaded())
                .into_session()
                .unwrap(),
            RefitMode::Cold,
        );
        server.ingest(delta).unwrap();
        let snap = server.refit().unwrap().expect("non-empty delta publishes");

        // Bulk columns are bit-identical.
        prop_assert_eq!(snap.source_trust(), report.source_trust());

        // Point queries mirror the report accessors.
        for w in 0..snap.num_sources() as u32 {
            let w = SourceId::new(w);
            prop_assert_eq!(snap.trust(w).unwrap(), report.kbt(w));
            prop_assert_eq!(snap.is_active(w).unwrap(),
                report.active_source[w.index()]);
        }
        for d in 0..snap.num_items() as u32 {
            for v in 0..6u32 {
                let (d, v) = (ItemId::new(d), ValueId::new(v));
                prop_assert_eq!(snap.posterior(d, v).unwrap(),
                    report.posteriors.prob(d, v));
            }
        }
        prop_assert_eq!(snap.num_triples(), report.truth_of_group().len());
        for (g, &(w, d, v)) in snap.triple_keys().iter().enumerate() {
            prop_assert_eq!(snap.triple_posterior(w, d, v).map(f64::to_bits),
                Some(report.truth_of_group()[g].to_bits()));
        }

        // The ranking agrees with a sort of the report's own trust column.
        let k = snap.num_sources();
        let top = snap.top_k_sources(k);
        let mut expect: Vec<(SourceId, f64)> = report
            .source_trust()
            .iter()
            .enumerate()
            .map(|(w, &t)| (SourceId::new(w as u32), t))
            .collect();
        expect.sort_by(|a, b| f64::total_cmp(&b.1, &a.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(top, expect);

        // Batched lookups are the pointwise map.
        let ws: Vec<SourceId> = (0..snap.num_sources() as u32 + 2).map(SourceId::new).collect();
        let batch = snap.trust_batch(&ws);
        for (i, &w) in ws.iter().enumerate() {
            prop_assert_eq!(batch[i], snap.trust(w));
        }
    }
}
