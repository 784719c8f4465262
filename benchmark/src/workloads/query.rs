//! `query_net`: the read path, over loopback TCP.
//!
//! A static snapshot (no ingest) behind `NetServer`; two closed-loop
//! `NetClient` threads, one connection each, send a seeded mix of 70%
//! `trust`, 10% `posterior`, 10% `trust_batch`(64) and 10%
//! `top_k_sources`(100). `net` and the read side of `serve` do all the
//! work and `core` none after set-up, so an EM change predicts no change
//! here. Two clients, not one: a single client leaves the cores idling
//! between wake-ups and does not repeat from run to run.
//!
//! Every loop is closed (a client sends its next request only after the
//! previous reply), so there is no generator lateness to report.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use kbt_datamodel::{ItemId, SourceId, ValueId};
use kbt_net::{ClientError, NetClient, NetServer};
use kbt_pipeline::TrustPipeline;
use kbt_serve::{RefitMode, TrustHandle, TrustServer, TrustSnapshot};

use super::{model, record_peak_rss, RunConfig, SetupClock, ENGINE_THREADS};
use crate::gen::{self, Corpus, CorpusSpec, SplitMix64, DOMAIN};
use crate::probes;
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::{median_ns, tail_ns};

/// Client threads = connections. The host has 2 cores.
pub const CLIENTS: usize = 2;
/// Sources per `trust_batch` request and `k` of `top_k_sources`.
pub const BATCH: usize = 64;
pub const TOP_K: u32 = 100;
/// One reply in this many is compared, value by value, with the
/// in-process oracle.
const COMPARE_EVERY: u64 = 1024;
/// Unmeasured traffic before the window, so connections, caches and the
/// server's per-connection threads are warm.
const WARMUP: Duration = Duration::from_millis(500);

/// Throughput is the median over slices of this length: a stall of the
/// 2-core host costs the slices it hits, not the whole window's mean
/// (which ranged 113k–143k queries/s from run to run where the median
/// slice repeats within a few percent).
const SLICE: Duration = Duration::from_millis(100);

pub const KINDS: [&str; 4] = ["trust", "posterior", "trust_batch", "top_k_sources"];

/// One request of the mix.
#[derive(Debug, Clone)]
pub enum Query {
    Trust(SourceId),
    Posterior(ItemId, ValueId),
    Batch(Vec<SourceId>),
    TopK(u32),
}

impl Query {
    pub fn kind(&self) -> usize {
        match self {
            Query::Trust(_) => 0,
            Query::Posterior(..) => 1,
            Query::Batch(_) => 2,
            Query::TopK(_) => 3,
        }
    }
}

/// The values of a reply.
#[derive(Debug, PartialEq)]
enum Answered {
    Scalar(Option<u64>),
    Batch(Vec<Option<u64>>),
    TopK(Vec<(SourceId, u64)>),
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// What the in-process snapshot answers to `q`.
fn oracle_answer(snapshot: &TrustSnapshot, q: &Query) -> Answered {
    match q {
        Query::Trust(w) => Answered::Scalar(bits(snapshot.trust(*w))),
        Query::Posterior(d, v) => Answered::Scalar(bits(snapshot.posterior(*d, *v))),
        Query::Batch(ws) => {
            Answered::Batch(snapshot.trust_batch(ws).into_iter().map(bits).collect())
        }
        Query::TopK(k) => Answered::TopK(
            snapshot
                .top_k_sources(*k as usize)
                .into_iter()
                .map(|(w, t)| (w, t.to_bits()))
                .collect(),
        ),
    }
}

/// The seeded request mix of one client.
pub struct Mix {
    rng: SplitMix64,
    sources: u32,
    items: u32,
}

impl Mix {
    pub fn new(seed: u64, client: u64, corpus: &Corpus) -> Self {
        Self {
            rng: SplitMix64::fork(seed, 500 + client),
            sources: corpus.spec.sources,
            items: corpus.items,
        }
    }

    pub fn next_query(&mut self) -> Query {
        match self.rng.below(10) {
            0..=6 => Query::Trust(SourceId::new(self.rng.below(self.sources))),
            7 => Query::Posterior(
                ItemId::new(self.rng.below(self.items)),
                ValueId::new(self.rng.below(DOMAIN)),
            ),
            8 => Query::Batch(
                (0..BATCH)
                    .map(|_| SourceId::new(self.rng.below(self.sources)))
                    .collect(),
            ),
            _ => Query::TopK(TOP_K),
        }
    }
}

/// The per-epoch book: the first fingerprint seen for an epoch is the
/// one every later reply of that epoch must carry.
#[derive(Default)]
pub struct Book(Mutex<BTreeMap<u64, u64>>);

impl Book {
    pub fn agrees(&self, epoch: u64, fingerprint: u64) -> bool {
        let mut book = self.0.lock().expect("no holder of the book panics");
        *book.entry(epoch).or_insert(fingerprint) == fingerprint
    }

    pub fn epochs(&self) -> usize {
        self.0.lock().expect("no holder of the book panics").len()
    }
}

/// What one client thread measured.
pub struct ClientStats {
    /// Round-trip nanoseconds per request kind, indexed like [`KINDS`];
    /// 4 bytes a sample, so that two million of them stay a small part
    /// of the process's memory (a round trip over 4.29 s saturates).
    pub latency_ns: [Vec<u32>; 4],
    pub attempted: u64,
    pub failed: u64,
    /// Replies compared value by value with the oracle.
    pub compared: u64,
    pub wall: f64,
    /// Replies received per [`SLICE`] of the window.
    pub per_slice: Vec<u32>,
    pub tracer: Tracer,
}

/// Send one query and return `(epoch, fingerprint, values)`.
fn ask(client: &mut NetClient, q: Query) -> Result<(u64, u64, Answered), ClientError> {
    Ok(match q {
        Query::Trust(w) => {
            let a = client.trust(w)?;
            (a.epoch, a.fingerprint, Answered::Scalar(bits(a.value)))
        }
        Query::Posterior(d, v) => {
            let a = client.posterior(d, v)?;
            (a.epoch, a.fingerprint, Answered::Scalar(bits(a.value)))
        }
        Query::Batch(ws) => {
            let a = client.trust_batch(ws)?;
            (
                a.epoch,
                a.fingerprint,
                Answered::Batch(a.value.into_iter().map(bits).collect()),
            )
        }
        Query::TopK(k) => {
            let a = client.top_k_sources(k)?;
            let values = a.value.into_iter().map(|(w, t)| (w, t.to_bits())).collect();
            (a.epoch, a.fingerprint, Answered::TopK(values))
        }
    })
}

/// A closed-loop client: next request only after the previous reply,
/// from `started` (the window's common clock origin) until `deadline`
/// passes or `stop` is raised.
#[allow(clippy::too_many_arguments)]
pub fn client_loop(
    addr: SocketAddr,
    mut mix: Mix,
    started: Instant,
    deadline: Instant,
    stop: &AtomicBool,
    oracle: &TrustHandle,
    book: &Book,
    mut tracer: Tracer,
) -> ClientStats {
    let mut stats = ClientStats {
        // Room for a minute of samples up front: untouched capacity costs
        // no memory, growing a full vector would briefly hold two copies.
        latency_ns: [8, 2, 2, 2].map(|millions| Vec::with_capacity(millions << 20)),
        attempted: 0,
        failed: 0,
        compared: 0,
        wall: 0.0,
        per_slice: Vec::new(),
        tracer: Tracer::off(),
    };
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            stats.attempted = 1;
            stats.failed = 1;
            return stats;
        }
    };
    let _ = client.set_timeout(Some(Duration::from_secs(10)));
    let mut seen = (0u64, None::<u64>);
    // ordering: Relaxed — an advisory stop flag that publishes no data.
    while !stop.load(Ordering::Relaxed) {
        let q = mix.next_query();
        let kind = q.kind();
        let compare = stats.attempted.is_multiple_of(COMPARE_EVERY);
        let kept = compare.then(|| q.clone());
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        let reply = ask(&mut client, q);
        let t1 = Instant::now();
        tracer.next_op();
        tracer.record("net.request", t0, t1);
        stats.attempted += 1;
        let (epoch, fingerprint, values) = match reply {
            Ok(r) => r,
            Err(_) => {
                // A dead connection fails every later request too; one
                // failure is recorded and the loop ends.
                stats.failed += 1;
                break;
            }
        };
        stats.latency_ns[kind].push(u32::try_from((t1 - t0).as_nanos()).unwrap_or(u32::MAX));
        let slice = ((t1 - started).as_nanos() / SLICE.as_nanos()) as usize;
        if slice >= stats.per_slice.len() {
            stats.per_slice.resize(slice + 1, 0);
        }
        stats.per_slice[slice] += 1;
        // Epochs never regress on a connection, and an epoch has one
        // fingerprint for everybody.
        let consistent = match seen {
            (e, Some(f)) if e == epoch => f == fingerprint,
            (e, _) => epoch >= e && book.agrees(epoch, fingerprint),
        };
        seen = (epoch, Some(fingerprint));
        let mut ok = consistent;
        if let Some(q) = kept {
            let snapshot = oracle.snapshot();
            // A publish between reply and lookup is not an error, only
            // a comparison that cannot be made.
            if snapshot.epoch() == epoch {
                stats.compared += 1;
                ok &=
                    snapshot.fingerprint() == fingerprint && oracle_answer(&snapshot, &q) == values;
            }
        }
        stats.failed += u64::from(!ok);
    }
    stats.wall = started.elapsed().as_secs_f64();
    stats.tracer = tracer;
    stats
}

/// A spawned network server over a freshly fitted corpus.
pub struct Served {
    pub net: NetServer,
    pub corpus: Corpus,
}

/// Generate the corpus, run the initial fit, spawn the server and prove
/// it answers: one complete set-up of a network workload. The corpus
/// comes back without its observations (the server owns them now).
pub fn serve(seed: u64, spec: CorpusSpec) -> Served {
    let mut corpus = gen::corpus(seed, spec);
    let observations = std::mem::take(&mut corpus.observations);
    let pipeline = TrustPipeline::new()
        .observations(observations)
        .model(model())
        .threads(ENGINE_THREADS);
    let server = TrustServer::from_pipeline(pipeline, RefitMode::Warm)
        .expect("a plain multi-layer pipeline makes a session");
    let net = NetServer::spawn(server, "127.0.0.1:0").expect("loopback port available");
    let mut client = NetClient::connect(net.addr()).expect("fresh server accepts");
    client.ping().expect("fresh server answers");
    Served { net, corpus }
}

pub fn shutdown(served: Served) {
    let _ = served.net.shutdown();
}

/// Run `CLIENTS` closed-loop clients for `seconds`.
pub fn window(
    served: &Served,
    seed: u64,
    seconds: f64,
    book: &Book,
    tr: &mut Tracer,
) -> Vec<ClientStats> {
    let stop = AtomicBool::new(false);
    let oracle = served.net.handle();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let stats: Vec<ClientStats> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let mix = Mix::new(seed, c, &served.corpus);
                let tracer = tr.for_thread(c + 1);
                let (stop, oracle) = (&stop, &oracle);
                scope.spawn(move || {
                    client_loop(
                        served.net.addr(),
                        mix,
                        started,
                        deadline,
                        stop,
                        oracle,
                        book,
                        tracer,
                    )
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client threads do not panic"))
            .collect()
    });
    stats
}

/// Queries per second of a window: the median over its whole slices
/// (the first holds the connects, the last is cut short), or the plain
/// mean for a window too short to have three.
fn queries_per_s(per_slice: &[u32], total: usize, wall: f64) -> f64 {
    match per_slice {
        [_, whole @ .., _] if !whole.is_empty() => {
            let mut rates: Vec<f64> = whole
                .iter()
                .map(|&n| f64::from(n) / SLICE.as_secs_f64())
                .collect();
            crate::stats::median(&mut rates)
        }
        _ => total as f64 / wall.max(f64::MIN_POSITIVE),
    }
}

/// Merged latencies of a window. The order statistics over all
/// requests are taken once, here: a window holds over a million samples.
pub struct Merged {
    pub all_ns: Vec<u64>,
    pub p50_ns: f64,
    /// `(percentile, value in ns)`: the highest tail the sample supports.
    pub tail: (f64, f64),
    pub by_kind: [Vec<u64>; 4],
    pub qps: f64,
}

/// Count the window's operations into `out`, take over the client
/// tracers, and merge the latencies.
pub fn merge(stats: Vec<ClientStats>, tr: &mut Tracer, out: &mut Outcome) -> Merged {
    let mut by_kind: [Vec<u64>; 4] = Default::default();
    let mut wall: f64 = 0.0;
    let mut compared = 0;
    let mut per_slice: Vec<u32> = Vec::new();
    for s in stats {
        out.ops(s.attempted, s.failed);
        compared += s.compared;
        wall = wall.max(s.wall);
        if per_slice.len() < s.per_slice.len() {
            per_slice.resize(s.per_slice.len(), 0);
        }
        for (all, mine) in per_slice.iter_mut().zip(&s.per_slice) {
            *all += mine;
        }
        for (all, mine) in by_kind.iter_mut().zip(&s.latency_ns) {
            all.extend(mine.iter().map(|&ns| u64::from(ns)));
        }
        tr.absorb(s.tracer);
    }
    let all_ns: Vec<u64> = by_kind.iter().flatten().copied().collect();
    out.detail("replies_compared_with_oracle", compared as f64, "count", 1);
    Merged {
        qps: queries_per_s(&per_slice, all_ns.len(), wall),
        p50_ns: median_ns(&all_ns),
        tail: tail_ns(&all_ns),
        all_ns,
        by_kind,
    }
}

/// The query side of a window: `op_p50_ms` and `work_per_s`, the tail,
/// and the same numbers under the names people know. Returns the median
/// `trust_batch` round trip in ns with its sample count.
pub fn report_queries(m: &Merged, out: &mut Outcome) -> (f64, usize) {
    let n = m.all_ns.len();
    out.set("op_p50_ms", m.p50_ns / 1e6, n);
    out.set("work_per_s", m.qps, n);
    out.detail("query_qps", m.qps, "1/s", n);
    out.detail("query_p50_us", m.p50_ns / 1e3, "us", n);
    let (p, tail) = m.tail;
    out.detail(format!("query_p{p}_us"), tail / 1e3, "us", n);
    out.set("net.query_tail_us", tail / 1e3, n);
    let medians: Vec<f64> = m.by_kind.iter().map(|ns| median_ns(ns)).collect();
    for ((kind, ns), median) in KINDS.iter().zip(&m.by_kind).zip(&medians) {
        out.detail(format!("{kind}_p50_us"), median / 1e3, "us", ns.len());
    }
    (medians[2], m.by_kind[2].len())
}

pub fn run(cfg: &RunConfig, out: &mut Outcome, tr: &mut Tracer) {
    let spec = cfg.query_spec();
    let (served, clock) = SetupClock::first(|| serve(cfg.seed, spec));
    out.note(format!(
        "loopback only: {CLIENTS} closed-loop clients, one connection each, against a static snapshot of {} triples / {} \
         sources; mix 70% trust, 10% posterior, 10% trust_batch({BATCH}), 10% top_k_sources({TOP_K}); closed loops have \
         no generator lateness",
        served.corpus.triples, spec.sources
    ));
    let snapshot = served.net.handle().snapshot();
    out.note(format!(
        "seed {}: snapshot fingerprint={:#018x} trust_checksum={:#018x} (informational)",
        cfg.seed,
        snapshot.fingerprint(),
        super::checksum(snapshot.source_trust())
    ));

    let book = Book::default();
    let warm = Instant::now();
    window(
        &served,
        cfg.seed ^ 0x5eed,
        WARMUP.as_secs_f64().min(cfg.seconds),
        &book,
        &mut Tracer::off(),
    );
    out.set("bench.warmup_s", warm.elapsed().as_secs_f64(), 1);

    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let stats = window(&served, cfg.seed, seconds, &book, &mut Tracer::off());
    record_peak_rss(out);
    let plain = merge(stats, tr, out);
    let (batch_ns, batches) = report_queries(&plain, out);
    out.set("aux_p50_ms", batch_ns / 1e6, batches);

    if cfg.trace {
        let traced = merge(window(&served, cfg.seed + 1, seconds, &book, tr), tr, out);
        out.set(
            "bench.trace_overhead_pct",
            (traced.p50_ns / plain.p50_ns - 1.0) * 100.0,
            traced.all_ns.len(),
        );
        probes::codec(tr, out);
        probes::reads(tr, &served.net.handle(), &served.corpus, out);
        probes::round_trips(tr, served.net.addr(), &served.corpus, out);
    }
    out.check(
        "one_epoch_one_fingerprint",
        book.epochs() == 1 && book.agrees(snapshot.epoch(), snapshot.fingerprint()),
        format!(
            "{} epoch(s) seen on a static snapshot, fingerprint as published",
            book.epochs()
        ),
    );
    shutdown(served);
    clock.finish(out, |_| serve(cfg.seed, spec), shutdown);
}
