//! `mixed_net`: reads beside writes, over loopback TCP, on 2 cores.
//!
//! `NetServer` over the 100k-triple base. Connection 1 runs the
//! `query_net` mix closed-loop; connection 2 sends ingest batches of 500
//! claims one at a time: send → ack → `ping` every millisecond until the
//! epoch advances. Refit worker threads, two server threads per
//! connection and two clients share the cores, so a refit that takes
//! more CPU, a heavier snapshot build or a slower publish shows here as
//! worse query latency while `query_net` stays flat — and a read-path
//! gain bought with per-publish work shows as a slower ingest.
//!
//! Not durable: `StoreHook` is private and `into_server` detaches it, so
//! durable and network ingest cannot be composed through today's public
//! API.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use kbt_net::NetClient;
use kbt_pipeline::FusionSession;
use kbt_serve::{RefitMode, TrustServer};

use super::query::{self, client_loop, report_queries, Book, ClientStats, Mix, Served};
use super::{model, record_peak_rss, RunConfig, SetupClock, BATCH_CLAIMS};
use crate::gen;
use crate::probes::{self, Delta, IngestReplay};
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::median_ns;

/// How often the writer asks whether its batch is visible yet.
const POLL: Duration = Duration::from_millis(1);
/// A batch not visible after this long is a failed operation.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Batches replayed step by step after the traced window.
const REPLAY_BATCHES: u32 = 10;

/// What the ingest connection measured.
#[derive(Default)]
struct Writes {
    /// send → ack.
    ack_ns: Vec<u64>,
    /// send → the new epoch visible to this client.
    visible_ns: Vec<u64>,
    observations: u64,
    attempted: u64,
    failed: u64,
    wall: f64,
}

/// Send batches one at a time for `seconds`; each is done when a `ping`
/// shows the epoch it produced.
fn write_loop(
    served: &Served,
    next_batch: &mut u32,
    seconds: f64,
    book: &Book,
    tr: &mut Tracer,
) -> Writes {
    let mut w = Writes::default();
    let start = Instant::now();
    let connected = NetClient::connect(served.net.addr())
        .and_then(|mut c| c.ping().map(|(epoch, _)| (c, epoch)));
    let Ok((mut client, mut epoch)) = connected else {
        w.attempted = 1;
        w.failed = 1;
        return w;
    };
    'batches: while start.elapsed().as_secs_f64() < seconds {
        let batch = served.corpus.delta_batch(*next_batch, BATCH_CLAIMS);
        *next_batch += 1;
        let sent = batch.len();
        w.attempted += 1;
        tr.next_op();
        let op = tr.enter("net.ingest_visible");
        let t0 = Instant::now();
        let acked = tr.time("net.ingest_ack", || client.ingest(batch));
        w.ack_ns.push(t0.elapsed().as_nanos() as u64);
        if !matches!(acked, Ok(n) if n as usize == sent) {
            w.failed += 1;
            tr.exit(op);
            break;
        }
        loop {
            match client.ping() {
                Ok((e, f)) => {
                    w.failed += u64::from(!book.agrees(e, f));
                    if e > epoch {
                        epoch = e;
                        break;
                    }
                }
                Err(_) => {
                    w.failed += 1;
                    tr.exit(op);
                    break 'batches;
                }
            }
            if t0.elapsed() > VISIBLE_TIMEOUT {
                w.failed += 1;
                tr.exit(op);
                break 'batches;
            }
            std::thread::sleep(POLL);
        }
        tr.exit(op);
        w.visible_ns.push(t0.elapsed().as_nanos() as u64);
        w.observations += sent as u64;
    }
    w.wall = start.elapsed().as_secs_f64();
    w
}

/// One window: the reader on its own thread until the writer is done.
fn window(
    served: &Served,
    seed: u64,
    next_batch: &mut u32,
    seconds: f64,
    book: &Book,
    tr: &mut Tracer,
) -> (ClientStats, Writes) {
    let stop = AtomicBool::new(false);
    let oracle = served.net.handle();
    let started = Instant::now();
    let far = started + Duration::from_secs(3600);
    std::thread::scope(|scope| {
        let mix = Mix::new(seed, 0, &served.corpus);
        let reader_tracer = tr.for_thread(1);
        let (stop_ref, oracle) = (&stop, &oracle);
        let reader = scope.spawn(move || {
            client_loop(
                served.net.addr(),
                mix,
                started,
                far,
                stop_ref,
                oracle,
                book,
                reader_tracer,
            )
        });
        let writes = write_loop(served, next_batch, seconds, book, tr);
        // ordering: Relaxed — an advisory stop flag that publishes no data.
        stop.store(true, Ordering::Relaxed);
        (
            reader.join().expect("the reader thread does not panic"),
            writes,
        )
    })
}

pub fn run(cfg: &RunConfig, out: &mut Outcome, tr: &mut Tracer) {
    let spec = cfg.ingest_spec();
    let (served, clock) = SetupClock::first(|| query::serve(cfg.seed, spec));
    out.note(format!(
        "loopback only, not durable: connection 1 = closed-loop query mix, connection 2 = ingest batches of \
         {BATCH_CLAIMS} claims one at a time (send, ack, ping every {} ms until the epoch advances) onto {} triples / {} \
         sources; closed loops have no generator lateness",
        POLL.as_millis(),
        served.corpus.triples,
        spec.sources
    ));
    let book = Book::default();
    let mut next_batch = 0u32;

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (reads, writes) = window(
        &served,
        cfg.seed,
        &mut next_batch,
        seconds,
        &book,
        &mut Tracer::off(),
    );
    record_peak_rss(out);
    out.ops(writes.attempted, writes.failed);
    let plain = query::merge(vec![reads], tr, out);
    report_queries(&plain, out);
    let batches = writes.visible_ns.len();
    let visible_ms = median_ns(&writes.visible_ns) / 1e6;
    out.set("aux_p50_ms", visible_ms, batches);
    out.detail("ingest_publish_p50_ms", visible_ms, "ms", batches);
    let obs_per_s = writes.observations as f64 / writes.wall.max(f64::MIN_POSITIVE);
    out.detail("ingest_obs_per_s", obs_per_s, "1/s", batches);
    out.set("serve.mixed_ingest_obs_per_s", obs_per_s, batches);

    if cfg.trace {
        let (reads, traced_writes) =
            window(&served, cfg.seed + 1, &mut next_batch, seconds, &book, tr);
        out.ops(traced_writes.attempted, traced_writes.failed);
        let traced = query::merge(vec![reads], tr, out);
        out.set(
            "bench.trace_overhead_pct",
            (traced.p50_ns / plain.p50_ns - 1.0) * 100.0,
            traced.all_ns.len(),
        );
        out.set(
            "net.ingest_ack_us",
            median_ns(&traced_writes.ack_ns) / 1e3,
            traced_writes.ack_ns.len(),
        );

        // What a publish is made of, replayed on a fresh copy of the base
        // (the server owns the real one), next to the plain server's
        // ingest + refit of the same batches.
        let base = gen::corpus(cfg.seed, spec);
        let mut plain_server = TrustServer::new(
            FusionSession::from_observations(base.observations.clone(), model()),
            RefitMode::Warm,
        );
        match IngestReplay::new(base.observations.clone(), None) {
            Err(e) => out.check("ingest_replay", false, e.to_string()),
            Ok(mut replay) => {
                let mut refit_ns = Vec::new();
                for index in 0..REPLAY_BATCHES {
                    let batch = base.delta_batch(index, BATCH_CLAIMS);
                    let replayed = replay.apply(tr, Delta::Add(&batch), None);
                    if index == 0 {
                        replay.cube_delta(
                            tr,
                            &batch,
                            &gen::retraction_of(&batch, super::RETRACT_TRIPLES),
                        );
                    }
                    let (published, ns) = probes::timed(|| {
                        tr.time("serve.ingest_refit", || {
                            plain_server
                                .ingest(batch.iter().copied())
                                .and_then(|()| plain_server.refit())
                        })
                    });
                    refit_ns.push(ns);
                    out.ops(
                        2,
                        u64::from(replayed.is_err()) + u64::from(!matches!(published, Ok(Some(_)))),
                    );
                }
                out.set("serve.refit_ms", median_ns(&refit_ns) / 1e6, refit_ns.len());
                probes::report_ingest_replay(&tr.by_name(), &replay, out);
            }
        }
    }

    let epochs = book.epochs() as u64;
    let published = served.net.handle().epoch();
    out.check(
        "one_epoch_one_fingerprint",
        epochs <= published + 1 && published == u64::from(next_batch),
        format!("{epochs} epochs seen by clients, {published} published for {next_batch} batches, each with one fingerprint"),
    );
    query::shutdown(served);
    clock.finish(out, |_| query::serve(cfg.seed, spec), query::shutdown);
}
