//! `ingest_durable`: the write path, in process, crash-safe.
//!
//! `DurableTrustServer::create` over a 100k-triple base with the default
//! `StoreConfig` — checkpoint every 8 applied batches, fsync the log on
//! every commit — then cycles of 7 × (`ingest` 500 new-item claims →
//! `refit`) and 1 × (`retract` 100 earlier triples → `refit`). A cycle
//! is 8 applied batches, so every cycle ends on a checkpoint and the
//! window always closes on one. Then the server is dropped without any
//! shutdown and `DurableTrustServer::recover` is timed. The only
//! workload where `store` works, and where `serve`/`pipeline`/`core` run
//! as a writer: warm refits of a small cube.

use std::path::Path;
use std::time::Instant;

use kbt_pipeline::FusionSession;
use kbt_serve::{RefitMode, TrustServer};
use kbt_store::{DurableTrustServer, StoreConfig};

use super::{model, record_peak_rss, RunConfig, SetupClock, BATCH_CLAIMS, RETRACT_TRIPLES};
use crate::gen::{self, retraction_of, Corpus};
use crate::probes::{self, timed, Delta, IngestReplay};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::{median, median_ns, tail_ns};

/// Additive batches per cycle; the cycle's last operation is a retract.
const INGESTS_PER_CYCLE: u32 = 7;
/// `recover` calls timed after the drop.
const RECOVERIES: usize = 9;

struct State {
    server: DurableTrustServer,
    corpus: Corpus,
}

fn create(cfg: &RunConfig, dir: &Path) -> State {
    let corpus = gen::corpus(cfg.seed, cfg.ingest_spec());
    let session = FusionSession::from_observations(corpus.observations.clone(), model());
    let server = DurableTrustServer::create(dir, session, RefitMode::Warm, StoreConfig::default())
        .expect("a fresh directory takes a fresh store");
    State { server, corpus }
}

/// The same schedule through a plain `TrustServer` (no hook) and,
/// step by step, through [`IngestReplay`] — the traced run's view of
/// what a durable publish is made of. Both start from the same base as
/// the durable server and see every batch, so all three stay in step.
struct Shadow<'a> {
    plain: TrustServer,
    replay: IngestReplay,
    dir: &'a Path,
}

/// What one window measured.
#[derive(Default)]
struct Window {
    /// `ingest` + `refit` of the durable server, untraced cycles.
    ingest_ns: Vec<u64>,
    /// The same in cycles that recorded spans (traced run: every other).
    traced_ingest_ns: Vec<u64>,
    retract_ns: Vec<u64>,
    /// The same batches through the plain server.
    plain_ns: Vec<u64>,
    observations: u64,
    batches: u32,
    wall: f64,
}

/// `refit` published exactly the next epoch.
fn published_next<E>(
    result: &Result<Option<std::sync::Arc<kbt_serve::TrustSnapshot>>, E>,
    epoch: u64,
) -> bool {
    matches!(result, Ok(Some(s)) if s.epoch() == epoch + 1)
}

/// Run whole cycles until `seconds` have passed. With a shadow, spans
/// are recorded in every other cycle, so traced and untraced publishes
/// share the cube's growth and their ratio is the tracing overhead.
fn window(
    state: &mut State,
    seconds: f64,
    mut shadow: Option<Shadow<'_>>,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (Window, Option<IngestReplay>) {
    let mut w = Window::default();
    let mut off = Tracer::off();
    let start = Instant::now();
    let mut cycle = 0u32;
    // At least one cycle of each kind, however short the window.
    let min_cycles = if shadow.is_some() { 2 } else { 1 };
    while cycle < min_cycles || start.elapsed().as_secs_f64() < seconds {
        let traced = shadow.is_some() && cycle.is_multiple_of(2);
        let tr: &mut Tracer = if traced { &mut *tr } else { &mut off };
        cycle += 1;
        let mut first_batch = Vec::new();
        for slot in 0..INGESTS_PER_CYCLE {
            let batch = state.corpus.delta_batch(w.batches, BATCH_CLAIMS);
            w.batches += 1;
            let epoch = state.server.epoch();
            tr.next_op();
            let (published, ns) = timed(|| {
                tr.time("store.durable_ingest_refit", || {
                    state
                        .server
                        .ingest(batch.iter().copied())
                        .and_then(|()| state.server.refit())
                })
            });
            out.ops(1, u64::from(!published_next(&published, epoch)));
            if traced {
                &mut w.traced_ingest_ns
            } else {
                &mut w.ingest_ns
            }
            .push(ns);
            w.observations += batch.len() as u64;
            if let Some(s) = &mut shadow {
                let (published, ns) = timed(|| {
                    tr.time("serve.ingest_refit", || {
                        s.plain
                            .ingest(batch.iter().copied())
                            .and_then(|()| s.plain.refit())
                    })
                });
                out.ops(1, u64::from(!published_next(&published, epoch)));
                w.plain_ns.push(ns);
                // Once per cycle, like the real policy: a checkpoint, and
                // the cube-level delta and retraction on their own.
                let checkpoint = (slot == 0).then(|| s.dir.join("replay.checkpoint"));
                let replayed = s
                    .replay
                    .apply(tr, Delta::Add(&batch), checkpoint.as_deref());
                out.ops(1, u64::from(replayed.is_err()));
                if slot == 0 {
                    s.replay
                        .cube_delta(tr, &batch, &retraction_of(&batch, RETRACT_TRIPLES));
                }
            }
            if slot == 0 {
                first_batch = batch;
            }
        }
        // The cycle's 8th batch: take back part of its first one.
        let keys = retraction_of(&first_batch, RETRACT_TRIPLES);
        let epoch = state.server.epoch();
        tr.next_op();
        let (published, ns) = timed(|| {
            tr.time("store.durable_retract_refit", || {
                state
                    .server
                    .retract(keys.iter().copied())
                    .and_then(|()| state.server.refit())
            })
        });
        out.ops(1, u64::from(!published_next(&published, epoch)));
        w.retract_ns.push(ns);
        if let Some(s) = &mut shadow {
            let published = s
                .plain
                .retract(keys.iter().copied())
                .and_then(|()| s.plain.refit());
            let replayed = s.replay.apply(tr, Delta::Remove(&keys), None);
            out.ops(
                2,
                u64::from(!published_next(&published, epoch)) + u64::from(replayed.is_err()),
            );
        }
    }
    w.wall = start.elapsed().as_secs_f64();
    (w, shadow.map(|s| s.replay))
}

pub fn run(cfg: &RunConfig, out: &mut Outcome, tr: &mut Tracer) {
    let dir = cfg.workdir.join("store-0");
    let (mut state, clock) = SetupClock::first(|| create(cfg, &dir));
    out.note(format!(
        "in process; base {} triples / {} sources; policy: checkpoint every {} applied batches, fsync on every commit, \
         keep {} checkpoints; cycle = {INGESTS_PER_CYCLE} x ingest({BATCH_CLAIMS} claims)+refit, 1 x \
         retract({RETRACT_TRIPLES} triples)+refit; closed loop, no generator lateness",
        state.corpus.triples,
        state.corpus.spec.sources,
        StoreConfig::default().checkpoint_every,
        StoreConfig::default().keep_checkpoints,
    ));

    let shadow_dir = cfg.workdir.join("shadow");
    let shadow = if cfg.trace {
        // The shadows triple the process's memory, so the traced run
        // reads the peak here, after set-up alone; the untraced run's
        // reading covers the window too.
        record_peak_rss(out);
        let base = state.corpus.observations.clone();
        match IngestReplay::new(base.clone(), Some(&shadow_dir)) {
            Ok(replay) => Some(Shadow {
                plain: TrustServer::new(
                    FusionSession::from_observations(base, model()),
                    RefitMode::Warm,
                ),
                replay,
                dir: &shadow_dir,
            }),
            Err(e) => return out.check("shadow_replay", false, e.to_string()),
        }
    } else {
        None
    };
    let (w, replay) = window(&mut state, cfg.seconds, shadow, tr, out);
    if !cfg.trace {
        record_peak_rss(out);
    }

    let publish_p50_ms = median_ns(&w.ingest_ns) / 1e6;
    let (p, tail) = tail_ns(&w.ingest_ns);
    out.set("op_p50_ms", publish_p50_ms, w.ingest_ns.len());
    out.set(
        "work_per_s",
        w.observations as f64 / w.wall,
        w.batches as usize,
    );
    out.set("store.publish_tail_ms", tail / 1e6, w.ingest_ns.len());
    out.detail(
        "ingest_publish_p50_ms",
        publish_p50_ms,
        "ms",
        w.ingest_ns.len(),
    );
    if p > 50.0 {
        out.detail(
            format!("ingest_publish_p{p}_ms"),
            tail / 1e6,
            "ms",
            w.ingest_ns.len(),
        );
    }
    out.detail(
        "retract_publish_p50_ms",
        median_ns(&w.retract_ns) / 1e6,
        "ms",
        w.retract_ns.len(),
    );
    out.detail(
        "ingest_obs_per_s",
        w.observations as f64 / w.wall,
        "1/s",
        w.batches as usize,
    );

    if cfg.trace {
        out.set(
            "bench.trace_overhead_pct",
            (median_ns(&w.traced_ingest_ns) / median_ns(&w.ingest_ns) - 1.0) * 100.0,
            w.traced_ingest_ns.len(),
        );
        let all: Vec<u64> = w
            .ingest_ns
            .iter()
            .chain(&w.traced_ingest_ns)
            .copied()
            .collect();
        let refit_ms = median_ns(&w.plain_ns) / 1e6;
        out.set("serve.refit_ms", refit_ms, w.plain_ns.len());
        out.set(
            "store.durable_overhead_ms",
            median_ns(&all) / 1e6 - refit_ms,
            all.len(),
        );
        if let Some(replay) = &replay {
            out.ops(1, u64::from(!replay.read_log(tr)));
        }
        for _ in 0..3 {
            tr.next_op();
            let done = tr.time("store.checkpoint_now", || state.server.checkpoint_now());
            out.ops(1, u64::from(done.is_err()));
        }
        probes::flume_dispatch(tr);
    }

    // Crash: drop the server as it stands, no shutdown of any kind.
    let published = state.server.handle().snapshot();
    let (epoch, fingerprint) = (published.epoch(), published.fingerprint());
    let dir_bytes = crate::sys::dir_bytes(&dir);
    drop(published);
    drop(state.server);
    let mut recoveries = Vec::with_capacity(RECOVERIES);
    let mut recovered_ok = true;
    let mut replayed = 0;
    for _ in 0..RECOVERIES {
        tr.next_op();
        let (recovered, ns) = timed(|| {
            tr.time("store.recover", || {
                DurableTrustServer::recover(&dir, model())
            })
        });
        recoveries.push(ns as f64 / 1e9);
        match recovered {
            Ok(r) => {
                replayed = r.replayed_commits;
                recovered_ok &= r.snapshot.epoch() == epoch
                    && r.snapshot.fingerprint() == fingerprint
                    && r.pending.is_empty();
            }
            Err(_) => recovered_ok = false,
        }
    }
    let recovery_s = median(&mut recoveries);
    out.set("aux_p50_ms", recovery_s * 1e3, RECOVERIES);
    out.detail("recovery_s", recovery_s, "s", RECOVERIES);
    out.check(
        "recover_last_published",
        recovered_ok,
        format!("epoch {epoch} fingerprint {fingerprint:#018x} recovered {RECOVERIES} times, {replayed} commits replayed"),
    );
    out.note(format!(
        "seed {}: last published epoch {epoch}, fingerprint {fingerprint:#018x} (informational)",
        cfg.seed
    ));

    if cfg.trace {
        let names = tr.by_name();
        if let Some(replay) = &replay {
            probes::report_ingest_replay(&names, replay, out);
        }
        probes::report_flume(&names, out);
        let checkpoint = names.get("store.checkpoint_now");
        out.set(
            "store.checkpoint_ms",
            checkpoint.map_or(0.0, |s| s.median_s() * 1e3),
            checkpoint.map_or(0, |s| s.self_ns.len()),
        );
        out.set(
            "store.dir_bytes_per_obs",
            dir_bytes as f64 / w.observations.max(1) as f64,
            w.observations as usize,
        );
    }
    drop(state.corpus);
    clock.finish(
        out,
        |rep| create(cfg, &cfg.workdir.join(format!("store-{rep}"))),
        drop,
    );
}
