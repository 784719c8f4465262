//! Layer probes of the traced run.
//!
//! What a workload's outside clock cannot see — the codec behind a
//! request, the steps behind a publish — is replayed here in process,
//! through the same public functions, each call under its own span.
//! Calls that take tens of nanoseconds are timed as blocks (one span,
//! `count` = calls inside), because two clock reads cost more than the
//! call. Every per-layer number is then read back from the spans.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use kbt_datamodel::{ItemId, Observation, ObservationCube, SourceId, ValueId};
use kbt_net::proto::encode_frame;
use kbt_net::{FrameBuffer, NetClient, Reply, Request, DEFAULT_MAX_FRAME_BYTES};
use kbt_pipeline::FusionSession;
use kbt_serve::{RefitMode, SnapshotProvenance, SnapshotStore, TrustHandle, TrustSnapshot};
use kbt_store::{config_digest, decode_checkpoint, encode_checkpoint, WalWriter};

use crate::gen::{Corpus, SplitMix64, DOMAIN};
use crate::report::Outcome;
use crate::span::{NameStats, Tracer};
use crate::workloads::query::{BATCH, TOP_K};
use crate::workloads::{model, ENGINE_THREADS};

type Names = BTreeMap<&'static str, NameStats>;

/// Set each `metric` to the median self time of one `span`, in units of
/// `per_second` to the second (1 = s, 1e3 = ms, 1e6 = µs).
pub fn set_medians(
    names: &Names,
    out: &mut Outcome,
    per_second: f64,
    pairs: &[(&'static str, &str)],
) {
    for &(metric, span) in pairs {
        let (value, n) = names
            .get(span)
            .map_or((0.0, 0), |s| (s.median_s() * per_second, s.self_ns.len()));
        out.set(metric, value, n);
    }
}

/// Set each `metric` to the nanoseconds per operation of the block spans
/// named `span`.
fn set_ns_per_op(names: &Names, out: &mut Outcome, pairs: &[(&'static str, &str)]) {
    for &(metric, span) in pairs {
        let (value, n) = names
            .get(span)
            .map_or((0.0, 0), |s| (s.ns_per_op(), s.count as usize));
        out.set(metric, value, n);
    }
}

// ---- flume ----

/// The per-stage thread-scope cost: a parallel map over a no-op kernel.
pub fn flume_dispatch(tr: &mut Tracer) {
    let items = [0u8; ENGINE_THREADS];
    for _ in 0..20 {
        tr.time_block("flume.par_map_slice", 200, || {
            for _ in 0..200 {
                black_box(kbt_flume::with_threads(Some(ENGINE_THREADS), || {
                    kbt_flume::par_map_slice(&items, |x| *x)
                }));
            }
        });
    }
}

pub fn report_flume(names: &Names, out: &mut Outcome) {
    let (ns, n) = names
        .get("flume.par_map_slice")
        .map_or((0.0, 0), |s| (s.ns_per_op(), s.count as usize));
    out.set("flume.dispatch_us", ns / 1e3, n);
}

// ---- net codec ----

const CODEC_BLOCK: u64 = 20_000;
const CODEC_BLOCKS: usize = 10;

fn block<R>(tr: &mut Tracer, name: &'static str, mut f: impl FnMut() -> R) {
    for _ in 0..CODEC_BLOCKS {
        tr.time_block(name, CODEC_BLOCK, || {
            for _ in 0..CODEC_BLOCK {
                black_box(f());
            }
        });
    }
}

fn batch_sources() -> Vec<SourceId> {
    (0..BATCH as u32).map(|i| SourceId::new(i * 37)).collect()
}

/// `Request`/`Reply` `encode`/`decode` for a point and a batch query,
/// the frame path (`encode_frame` → `FrameBuffer::push` → `next_frame`,
/// CRC included), and the bytes an average query of the mix moves.
pub fn codec(tr: &mut Tracer, out: &mut Outcome) {
    let point = Request::Trust {
        id: 7,
        source: SourceId::new(1234),
    };
    let point_reply = Reply::Trust {
        id: 7,
        epoch: 3,
        fingerprint: 0x1234_5678_9abc_def0,
        value: Some(0.8125),
    };
    let batch = Request::TrustBatch {
        id: 7,
        sources: batch_sources(),
    };
    let batch_reply = Reply::TrustBatch {
        id: 7,
        epoch: 3,
        fingerprint: 0x1234_5678_9abc_def0,
        values: (0..BATCH).map(|i| Some(i as f64 / BATCH as f64)).collect(),
    };
    let (point_bytes, point_reply_bytes) = (point.encode(), point_reply.encode());
    let (batch_bytes, batch_reply_bytes) = (batch.encode(), batch_reply.encode());

    block(tr, "net.request_encode", || point.encode());
    block(tr, "net.request_decode", || Request::decode(&point_bytes));
    block(tr, "net.reply_encode", || point_reply.encode());
    block(tr, "net.reply_decode", || Reply::decode(&point_reply_bytes));
    block(tr, "net.batch64_request_encode", || batch.encode());
    block(tr, "net.batch64_request_decode", || {
        Request::decode(&batch_bytes)
    });
    block(tr, "net.batch64_reply_encode", || batch_reply.encode());
    block(tr, "net.batch64_reply_decode", || {
        Reply::decode(&batch_reply_bytes)
    });
    let mut fb = FrameBuffer::new();
    block(tr, "net.frame", || {
        fb.push(&encode_frame(&point_bytes));
        fb.next_frame(DEFAULT_MAX_FRAME_BYTES)
    });

    set_ns_per_op(
        &tr.by_name(),
        out,
        &[
            ("net.req_encode_ns", "net.request_encode"),
            ("net.req_decode_ns", "net.request_decode"),
            ("net.reply_encode_ns", "net.reply_encode"),
            ("net.reply_decode_ns", "net.reply_decode"),
            ("net.batch64_req_encode_ns", "net.batch64_request_encode"),
            ("net.batch64_req_decode_ns", "net.batch64_request_decode"),
            ("net.batch64_reply_encode_ns", "net.batch64_reply_encode"),
            ("net.batch64_reply_decode_ns", "net.batch64_reply_decode"),
            ("net.frame_ns", "net.frame"),
        ],
    );

    // Frame bytes both ways per request kind, weighted by the mix.
    let framed = |payload: &[u8]| encode_frame(payload).len() as f64;
    let posterior = framed(
        &Request::Posterior {
            id: 7,
            item: ItemId::new(1),
            value: ValueId::new(1),
        }
        .encode(),
    ) + framed(
        &Reply::Posterior {
            id: 7,
            epoch: 3,
            fingerprint: 1,
            value: Some(0.5),
        }
        .encode(),
    );
    let top_k = framed(&Request::TopKSources { id: 7, k: TOP_K }.encode())
        + framed(
            &Reply::TopK {
                id: 7,
                epoch: 3,
                fingerprint: 1,
                sources: (0..TOP_K).map(|i| (SourceId::new(i), 0.5)).collect(),
            }
            .encode(),
        );
    let point_total = framed(&point_bytes) + framed(&point_reply_bytes);
    let batch_total = framed(&batch_bytes) + framed(&batch_reply_bytes);
    out.set(
        "net.bytes_per_query",
        0.7 * point_total + 0.1 * posterior + 0.1 * batch_total + 0.1 * top_k,
        1,
    );
}

// ---- serve reads ----

/// `SnapshotReader::current()` + lookup for each request kind, timed per
/// block.
pub fn reads(tr: &mut Tracer, handle: &TrustHandle, corpus: &Corpus, out: &mut Outcome) {
    let mut rng = SplitMix64::fork(corpus.seed, 900);
    let sources: Vec<SourceId> = (0..4096)
        .map(|_| SourceId::new(rng.below(corpus.spec.sources)))
        .collect();
    let items: Vec<(ItemId, ValueId)> = (0..4096)
        .map(|_| {
            (
                ItemId::new(rng.below(corpus.items)),
                ValueId::new(rng.below(DOMAIN)),
            )
        })
        .collect();
    let batch = batch_sources();
    let mut reader = handle.reader();
    let mut i = 0usize;
    for _ in 0..10 {
        tr.time_block("serve.read_trust", 100_000, || {
            for _ in 0..100_000 {
                i = (i + 1) & 4095;
                black_box(reader.current().trust(sources[i]));
            }
        });
        tr.time_block("serve.read_posterior", 20_000, || {
            for _ in 0..20_000 {
                i = (i + 1) & 4095;
                black_box(reader.current().posterior(items[i].0, items[i].1));
            }
        });
        tr.time_block("serve.read_batch64", 5_000, || {
            for _ in 0..5_000 {
                black_box(reader.current().trust_batch(&batch));
            }
        });
        tr.time_block("serve.read_topk100", 5_000, || {
            for _ in 0..5_000 {
                black_box(reader.current().top_k_sources(TOP_K as usize));
            }
        });
    }
    set_ns_per_op(
        &tr.by_name(),
        out,
        &[
            ("serve.read_trust_ns", "serve.read_trust"),
            ("serve.read_posterior_ns", "serve.read_posterior"),
            ("serve.read_batch64_ns", "serve.read_batch64"),
            ("serve.read_topk100_ns", "serve.read_topk100"),
        ],
    );
}

// ---- net round trips ----

const ROUND_TRIPS: usize = 2_000;

/// One quiet connection: the ping floor (socket + per-connection thread
/// hand-off), connect cost, and the round trip of each point query kind.
/// What is left of the point round trip after the codec, frame and read
/// spans is `net.rtt_unaccounted_us` — time only spans inside the
/// program could explain. Call after [`codec`] and [`reads`].
pub fn round_trips(tr: &mut Tracer, addr: SocketAddr, corpus: &Corpus, out: &mut Outcome) {
    for _ in 0..20 {
        tr.next_op();
        let ok = tr
            .time("net.connect", || {
                NetClient::connect(addr).and_then(|mut c| c.ping())
            })
            .is_ok();
        out.ops(1, u64::from(!ok));
    }
    let Ok(mut client) = NetClient::connect(addr) else {
        return out.check(
            "probe_connect",
            false,
            "could not connect for round-trip probes",
        );
    };
    let mut rng = SplitMix64::fork(corpus.seed, 901);
    let mut failed = 0;
    for _ in 0..ROUND_TRIPS {
        tr.next_op();
        failed += u64::from(tr.time("net.ping", || client.ping()).is_err());
        let w = SourceId::new(rng.below(corpus.spec.sources));
        failed += u64::from(tr.time("net.point_trust", || client.trust(w)).is_err());
        let (d, v) = (
            ItemId::new(rng.below(corpus.items)),
            ValueId::new(rng.below(DOMAIN)),
        );
        failed += u64::from(
            tr.time("net.point_posterior", || client.posterior(d, v))
                .is_err(),
        );
        failed += u64::from(
            tr.time("net.top_k_sources", || client.top_k_sources(TOP_K))
                .is_err(),
        );
    }
    out.ops(4 * ROUND_TRIPS as u64, failed);

    set_medians(
        &tr.by_name(),
        out,
        1e6,
        &[
            ("net.connect_us", "net.connect"),
            ("net.ping_rtt_us", "net.ping"),
            ("net.point_p50_us", "net.point_trust"),
            ("net.posterior_p50_us", "net.point_posterior"),
            ("net.topk100_p50_us", "net.top_k_sources"),
        ],
    );
    let accounted_ns: f64 = [
        "net.req_encode_ns",
        "net.req_decode_ns",
        "net.reply_encode_ns",
        "net.reply_decode_ns",
        "serve.read_trust_ns",
    ]
    .iter()
    .map(|m| out.values.get(m).map_or(0.0, |v| v.value))
    .sum::<f64>()
        + 2.0 * out.values.get("net.frame_ns").map_or(0.0, |v| v.value);
    let point = out.values["net.point_p50_us"];
    out.set(
        "net.rtt_unaccounted_us",
        point.value - accounted_ns / 1e3,
        point.samples,
    );
}

// ---- the ingest path, step by step ----

fn triples_of(cube: &ObservationCube) -> Vec<(SourceId, ItemId, ValueId)> {
    cube.groups()
        .iter()
        .map(|g| (g.source, g.item, g.value))
        .collect()
}

/// One batch of the delta schedule.
#[derive(Debug, Clone, Copy)]
pub enum Delta<'a> {
    Add(&'a [Observation]),
    Remove(&'a [(SourceId, ItemId, ValueId)]),
}

/// The steps behind one durable publish, replayed through the layers'
/// own public functions on a shadow copy of the state: WAL append →
/// `FusionSession::update` → `run` → `TrustSnapshot::from_report` →
/// `SnapshotStore::publish` → WAL commit + sync → (every
/// `checkpoint_every` batches) checkpoint encode + write.
pub struct IngestReplay {
    session: FusionSession,
    published: SnapshotStore,
    epoch: u64,
    digest: u64,
    /// Write-ahead log of the shadow, when the replay includes `store`.
    wal: Option<WalWriter>,
    pub warm_rounds: Vec<f64>,
    pub wal_bytes: u64,
    pub wal_observations: u64,
    pub checkpoint_bytes: u64,
}

impl IngestReplay {
    /// Fit `base` cold, publish epoch 0 and, with `wal_dir`, start a log.
    pub fn new(base: Vec<Observation>, wal_dir: Option<&Path>) -> std::io::Result<Self> {
        let model = model();
        let digest = config_digest(&model);
        let mut session = FusionSession::from_observations(base, model);
        let report = session.run();
        let snapshot = TrustSnapshot::from_report(
            &report,
            triples_of(session.cube()),
            0,
            SnapshotProvenance {
                refit_mode: RefitMode::Cold,
                deltas_applied: 0,
                iterations: report.iterations(),
                converged: report.converged(),
                coverage: report.coverage(),
            },
        );
        let wal = match wal_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                Some(WalWriter::create(&dir.join("replay.log"), digest, 0)?)
            }
            None => None,
        };
        Ok(Self {
            session,
            published: SnapshotStore::new(snapshot),
            epoch: 0,
            digest,
            wal,
            warm_rounds: Vec::new(),
            wal_bytes: 0,
            wal_observations: 0,
            checkpoint_bytes: 0,
        })
    }

    /// Replay one batch, one span per step. With `checkpoint`, also
    /// encode, write and decode a checkpoint of the new epoch.
    pub fn apply(
        &mut self,
        tr: &mut Tracer,
        delta: Delta<'_>,
        checkpoint: Option<&Path>,
    ) -> std::io::Result<()> {
        tr.next_op();
        let op = tr.enter("bench.ingest_replay");
        if let Some(wal) = &mut self.wal {
            match delta {
                Delta::Add(obs) => tr.time("store.wal_append_add", || wal.append_add(obs))?,
                Delta::Remove(keys) => wal.append_remove(keys)?,
            }
        }
        match delta {
            Delta::Add(obs) => tr.time("pipeline.session_update", || {
                self.session.update(obs);
            }),
            Delta::Remove(keys) => {
                self.session.retract(keys);
            }
        }
        let report = tr.time("pipeline.session_run", || self.session.run());
        self.warm_rounds.push(report.iterations() as f64);
        self.epoch += 1;
        let snapshot = tr.time("serve.snapshot_from_report", || {
            TrustSnapshot::from_report(
                &report,
                triples_of(self.session.cube()),
                self.epoch,
                SnapshotProvenance {
                    refit_mode: RefitMode::Warm,
                    deltas_applied: self.session.deltas_applied(),
                    iterations: report.iterations(),
                    converged: report.converged(),
                    coverage: report.coverage(),
                },
            )
        });
        let installed = tr.time("serve.publish", || self.published.publish(snapshot));
        if let Some(wal) = &mut self.wal {
            tr.time("store.wal_append_commit", || wal.append_commit(self.epoch))?;
            tr.time("store.wal_sync", || wal.sync())?;
            self.wal_bytes = std::fs::metadata(wal.path())?.len();
            if let Delta::Add(obs) = delta {
                self.wal_observations += obs.len() as u64;
            }
        }
        if let Some(path) = checkpoint {
            let bytes = tr.time("store.encode_checkpoint", || {
                encode_checkpoint(&installed, self.session.cube(), self.digest)
            });
            self.checkpoint_bytes = bytes.len() as u64;
            tr.time("store.checkpoint_write", || -> std::io::Result<()> {
                let mut file = std::fs::File::create(path)?;
                std::io::Write::write_all(&mut file, &bytes)?;
                file.sync_data()
            })?;
            tr.time("store.decode_checkpoint", || {
                decode_checkpoint(&bytes, self.digest)
            })
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        }
        tr.exit(op);
        Ok(())
    }

    /// `ObservationCube::apply_delta` and `retract` of one batch on the
    /// shadow's current cube, results discarded.
    pub fn cube_delta(
        &self,
        tr: &mut Tracer,
        delta: &[Observation],
        keys: &[(SourceId, ItemId, ValueId)],
    ) {
        tr.next_op();
        let merged = tr.time("datamodel.apply_delta", || {
            self.session.cube().apply_delta(delta)
        });
        tr.time("datamodel.retract", || black_box(merged.retract(keys)));
    }

    /// Read the shadow's log back, as recovery would.
    pub fn read_log(&self, tr: &mut Tracer) -> bool {
        let Some(wal) = &self.wal else { return true };
        tr.next_op();
        tr.time("store.read_wal", || {
            kbt_store::wal::read_wal(wal.path(), self.digest)
        })
        .is_ok_and(|o| o.clean)
    }
}

/// The per-layer numbers of an [`IngestReplay`], read back from spans.
pub fn report_ingest_replay(names: &Names, replay: &IngestReplay, out: &mut Outcome) {
    set_medians(
        names,
        out,
        1e3,
        &[
            ("pipeline.session_update_ms", "pipeline.session_update"),
            ("pipeline.session_run_ms", "pipeline.session_run"),
            ("serve.snapshot_build_ms", "serve.snapshot_from_report"),
            ("datamodel.apply_delta_ms", "datamodel.apply_delta"),
            ("datamodel.retract_ms", "datamodel.retract"),
            ("store.checkpoint_decode_ms", "store.decode_checkpoint"),
            ("store.wal_read_ms", "store.read_wal"),
        ],
    );
    set_medians(names, out, 1e6, &[("serve.publish_us", "serve.publish")]);
    let mut rounds = replay.warm_rounds.clone();
    out.set(
        "pipeline.warm_rounds",
        crate::stats::median(&mut rounds),
        rounds.len(),
    );
    if replay.wal.is_some() {
        let median_us = |span: &str| names.get(span).map_or(0.0, |s| s.median_s() * 1e6);
        out.set(
            "store.wal_append_us",
            median_us("store.wal_append_add") + median_us("store.wal_append_commit"),
            names
                .get("store.wal_append_add")
                .map_or(0, |s| s.self_ns.len()),
        );
        set_medians(names, out, 1e6, &[("store.wal_sync_us", "store.wal_sync")]);
        out.set(
            "store.wal_bytes_per_obs",
            replay.wal_bytes as f64 / replay.wal_observations.max(1) as f64,
            replay.wal_observations as usize,
        );
        out.set("store.checkpoint_bytes", replay.checkpoint_bytes as f64, 1);
    }
}

/// Wall time of `f` in nanoseconds, for loops that time every call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}
