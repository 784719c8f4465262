//! [`NetServer`]: the thread-per-connection network front end.
//!
//! ```text
//!  TCP ──▶ accept loop ──▶ conn thread ──▶ queries answered on the spot
//!                       (per connection)    (SnapshotReader), the replies
//!                              │            written back by the same thread
//!                              │ ingest/retract frames
//!                              ▼ bounded ingest queue
//!                       trust-writer thread
//!                       owns the TrustServer:
//!                       drain → coalesce → refit
//! ```
//!
//! Three invariants carry the hostile-client story:
//!
//! * **Readers never block on writers.** Query frames are answered on
//!   the connection's thread from an epoch-cached [`SnapshotReader`] —
//!   one atomic load — while refits run.
//! * **Bounded buffers everywhere.** Replies are bounded by the socket
//!   and the write timeout: the replies to one read are written, at most
//!   `READ_CHUNK` bytes at a time, before the next read, and a client
//!   that stops reading parks only its own thread until a write makes no
//!   progress for `WRITE_TIMEOUT`, then is disconnected, not buffered
//!   forever. Ingest batches queue into a bounded channel to the single
//!   trust-writer thread (a full queue is a typed `Overloaded` reply,
//!   not memory growth), and an ingest may extend an id axis by at most
//!   its own size past what the queued ingests reached (a typed
//!   `IdOutOfRange` otherwise), so no frame sizes the writer's dense
//!   tables.
//! * **Failure degrades, never kills.** A durability-hook failure flips
//!   the server into a degraded mode: ingestion is refused with a typed
//!   `DurabilityLost` error carrying the hook's message, queries keep
//!   serving the last published epoch, and [`NetServer::shutdown`]
//!   returns the underlying [`HookError`].
//!
//! The [`TrustServer`] is served as it comes: with a store attached
//! (`kbt_store::DurableTrustServer::into_server`) this is a durable
//! service, and the server [`NetServer::shutdown`] hands back can be
//! checkpointed. What a client may conclude from a reply:
//!
//! * an **ack** (`IngestAck` / `RetractAck`) means *queued*: the batch is
//!   in the bounded queue and will reach the writer — shutdown drains the
//!   queue before the writer leaves — but it is not logged yet, and a
//!   crash or a degrade before the writer takes it loses it;
//! * an **epoch advance** means *logged, applied, committed*: every batch
//!   the new epoch contains went through the hook's `log` before the
//!   server queued it, and the hook's `commit` (commit marker, fsync) is
//!   the writer's next step after the publish — readers never wait on an
//!   fsync, so the epoch is visible a moment before it is durable; if
//!   that commit fails the epoch stays served, and the `DurabilityLost`
//!   every later write draws says it may not survive a restart.

use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use kbt_datamodel::{wire, Observation};
use kbt_pipeline::Delta;
use kbt_serve::{HookError, SnapshotReader, TrustHandle, TrustServer};

use crate::proto::{
    ErrorCode, FrameBuffer, ProtoError, Reply, Request, WireStats, DEFAULT_MAX_FRAME_BYTES,
};

/// How often an idle connection wakes to poll the stop flag, and how
/// long the accept loop backs off after a failed accept.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// How long one socket write may make no progress before the peer is
/// given up on — the slow-consumer rule. A peer that has stopped reading
/// parks its connection's thread in `write_all` once the kernel buffers
/// fill; without a bound that thread — and the [`NetServer::shutdown`]
/// that joins it — would wait on the peer forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Socket-read chunk size, and the reply bytes answered before they are
/// written. Bounds per-connection memory together with the frame cap:
/// the frame buffer never holds more than one capped frame plus one
/// chunk, the reply buffer never more than one chunk plus one reply.
const READ_CHUNK: usize = 64 * 1024;

/// Ingest/retract batches queued to the trust writer before clients get
/// `Overloaded` backpressure replies.
const INGEST_QUEUE_BATCHES: usize = 64;

/// Everything that can go wrong spawning or shutting down a server.
#[derive(Debug)]
pub enum NetError {
    /// Binding, accepting, or socket configuration failed.
    Io(std::io::Error),
    /// The trust-writer thread panicked; its state is gone. The message
    /// is the captured panic payload.
    ServerPanicked(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "net server I/O error: {e}"),
            Self::ServerPanicked(msg) => write!(f, "trust writer thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::ServerPanicked(_) => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// What [`NetServer::shutdown`] hands back.
#[derive(Debug)]
pub struct NetShutdown {
    /// The trust server, recovered from the writer thread.
    pub server: TrustServer,
    /// `Err` when a durability hook failed mid-run (the server kept
    /// serving in degraded mode from that point on).
    pub durability: Result<(), HookError>,
    /// Final counter values.
    pub stats: WireStats,
}

// ---- shared state ----

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    active: AtomicU64,
    peak_active: AtomicU64,
    queries: AtomicU64,
    ingested_observations: AtomicU64,
    retracted_keys: AtomicU64,
    protocol_errors: AtomicU64,
    refits: AtomicU64,
}

impl Counters {
    /// Record `by` events on one counter.
    // ordering: Relaxed — every counter here is a monotonic statistic
    // read only for reporting; no memory is published through it.
    fn add(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Raise a high-water-mark counter to at least `candidate`.
    // ordering: Relaxed — stat high-water mark read only for reporting;
    // the RMW's atomicity alone keeps it exact.
    fn max(counter: &AtomicU64, candidate: u64) {
        counter.fetch_max(candidate, Ordering::Relaxed);
    }

    fn snapshot(&self) -> WireStats {
        // ordering: Relaxed — stat snapshot; the counters are advisory,
        // order nothing, and the cut need not be consistent.
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        WireStats {
            accepted: read(&self.accepted),
            active: read(&self.active),
            peak_active: read(&self.peak_active),
            queries: read(&self.queries),
            ingested_observations: read(&self.ingested_observations),
            retracted_keys: read(&self.retracted_keys),
            protocol_errors: read(&self.protocol_errors),
        }
    }
}

#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    /// Set (once) when the durability hook fails: the message clients
    /// see in `DurabilityLost` replies.
    degraded: OnceLock<String>,
    /// Per axis (extractor, source, item, value), the dense size that
    /// queued ingests have reached: the served cube's at spawn, raised
    /// after each queued ingest. An ingest of `n` observations may name
    /// ids below this ceiling + `n` — the writer's dense tables grow by
    /// O(bytes received), never by whatever id a frame names.
    admitted: [AtomicU64; 4],
    counters: Counters,
}

// ---- the server ----

/// A listening trust service. Spawn with [`NetServer::spawn`], connect
/// with [`crate::NetClient`], stop with [`NetServer::shutdown`].
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    handle: TrustHandle,
    accept: JoinHandle<()>,
    writer: JoinHandle<(TrustServer, Result<(), HookError>)>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("degraded", &self.shared.degraded.get())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving `server`, with whatever durability hook it carries.
    pub fn spawn(server: TrustServer, addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let handle = server.handle();
        let cube = server.session().cube();
        let dims = [
            cube.num_extractors(),
            cube.num_sources(),
            cube.num_items(),
            cube.num_values(),
        ];
        let shared = Arc::new(Shared {
            admitted: dims.map(|n| AtomicU64::new(n as u64)),
            ..Shared::default()
        });

        let (ingest_tx, ingest_rx) = mpsc::sync_channel::<Delta>(INGEST_QUEUE_BATCHES);
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || trust_writer_loop(server, ingest_rx, &shared))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let handle = handle.clone();
            std::thread::spawn(move || accept_loop(listener, shared, handle, ingest_tx))
        };

        Ok(Self {
            local_addr,
            shared,
            handle,
            accept,
            writer,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// An in-process read-side handle to the same snapshot store the
    /// network serves — the torn-read oracle of `tests/protocol.rs`.
    pub fn handle(&self) -> TrustHandle {
        self.handle.clone()
    }

    /// Current counter values.
    pub fn stats(&self) -> WireStats {
        self.shared.counters.snapshot()
    }

    /// Refits the trust writer has completed so far.
    pub fn refits(&self) -> u64 {
        // ordering: Relaxed — monotonic progress counter; the refit's
        // *data* is published by the snapshot store's Release/Acquire
        // epoch, not through this count.
        self.shared.counters.refits.load(Ordering::Relaxed)
    }

    /// The degradation message, when a durability hook has failed.
    pub fn degraded(&self) -> Option<String> {
        self.shared.degraded.get().cloned()
    }

    /// Stop accepting, drain the connections, apply everything they
    /// queued — every acked batch reaches the server — and hand the
    /// trust server back.
    ///
    /// # Errors
    ///
    /// [`NetError::ServerPanicked`] if the trust-writer thread panicked
    /// (connections were still drained; the in-memory server state is
    /// lost with the thread).
    pub fn shutdown(self) -> Result<NetShutdown, NetError> {
        // ordering: Relaxed — pure termination request; the flag carries
        // no data, and every result travels through the channel and the
        // thread joins below (which are full synchronization points).
        // The accept loop loads it only once `accept` has returned the
        // connection made below, after this store; the kernel's socket
        // locks order the two.
        self.shared.stop.store(true, Ordering::Relaxed);
        // The accept loop blocks in `accept`; one connection of our own
        // wakes it to see the flag. An unspecified bind address is
        // reached through the loopback address of its family.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
        let _ = self.accept.join();
        let stats = self.shared.counters.snapshot();
        match self.writer.join() {
            Ok((server, durability)) => Ok(NetShutdown {
                server,
                durability,
                stats,
            }),
            Err(payload) => Err(NetError::ServerPanicked(panic_message(payload.as_ref()))),
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---- the trust-writer thread ----

/// The single-writer loop: drain the bounded queue, submit the burst to
/// the server (which logs each batch and coalesces it into its pending
/// runs), refit once per burst. It leaves only when the queue
/// disconnects — the accept loop drops the last sender after joining
/// every connection — so a batch acked on the way into shutdown is
/// still applied. A hook failure marks the server degraded and keeps the
/// loop draining (and discarding) so connection threads never block —
/// reads keep serving the last published epoch.
fn trust_writer_loop(
    mut server: TrustServer,
    rx: mpsc::Receiver<Delta>,
    shared: &Shared,
) -> (TrustServer, Result<(), HookError>) {
    let mut durability = Ok(());
    while let Ok(first) = rx.recv() {
        // Taken whole before any of it is submitted, so a burst — and the
        // wait for the publish behind it — is bounded by the queue.
        let burst: Vec<Delta> = std::iter::once(first).chain(rx.try_iter()).collect();
        if durability.is_err() {
            // Degraded: discard. Connections already refuse ingest at
            // the door; anything in flight is dropped, not half-logged.
            continue;
        }
        let step = burst
            .into_iter()
            .try_for_each(|delta| server.submit(delta))
            .and_then(|()| server.refit());
        match step {
            Ok(_) => Counters::add(&shared.counters.refits, 1),
            Err(e) => {
                let _ = shared.degraded.set(e.to_string());
                durability = Err(e);
            }
        }
    }
    (server, durability)
}

// ---- the accept loop ----

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handle: TrustHandle,
    ingest_tx: SyncSender<Delta>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        // ordering: Relaxed — advisory stop poll; see `shutdown`. Checked
        // before the connection counts: the one that wakes us after the
        // flag is `shutdown`'s own.
        if shared.stop.load(Ordering::Relaxed) {
            break;
        }
        match stream {
            Ok(stream) => {
                Counters::add(&shared.counters.accepted, 1);
                // ordering: Relaxed — the RMW's atomicity alone keeps the
                // active count exact; the value feeds stats only and
                // publishes no memory.
                let active = shared.counters.active.fetch_add(1, Ordering::Relaxed) + 1;
                Counters::max(&shared.counters.peak_active, active);
                let shared = Arc::clone(&shared);
                let reader = handle.reader();
                let ingest_tx = ingest_tx.clone();
                conns.push(std::thread::spawn(move || {
                    connection_loop(stream, &shared, reader, &ingest_tx);
                    // ordering: Relaxed — stat decrement; atomicity alone
                    // keeps the count exact.
                    shared.counters.active.fetch_sub(1, Ordering::Relaxed);
                }));
                // Reap finished connections so the handle list does not
                // grow with every client that ever connected.
                conns.retain(|h| !h.is_finished());
            }
            // Out of descriptors and the like: back off, do not spin.
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
    drop(listener);
    for conn in conns {
        let _ = conn.join();
    }
}

// ---- per-connection machinery ----

/// One connection, one thread: it reads the requests and writes their
/// replies on the same socket, then closes it the same way whatever
/// ended the connection.
fn connection_loop(
    stream: TcpStream,
    shared: &Shared,
    reader: SnapshotReader,
    ingest_tx: &SyncSender<Delta>,
) {
    // The read timeout polls the stop flag. A write that times out ends
    // the connection like any other write error: the frame is torn, so
    // the connection is closed, not resumed.
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err()
        || stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    serve_frames(&stream, shared, reader, ingest_tx);
    // Every reply, a final error frame included, was written before this
    // FIN, so the peer reads it before EOF.
    let _ = stream.shutdown(Shutdown::Write);
}

/// The frame loop: read, answer every complete frame, write the replies
/// in one go, poll the stop flag, repeat. Returns once the last reply
/// owed (a fatal error, the stop notice) is written, or the peer is gone.
fn serve_frames(
    mut stream: &TcpStream,
    shared: &Shared,
    mut reader: SnapshotReader,
    ingest_tx: &SyncSender<Delta>,
) {
    let mut fb = FrameBuffer::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let mut out = Vec::new();
    let mut preamble_done = false;
    // The last pass stopped at `READ_CHUNK` reply bytes: answer the rest
    // of `fb` before reading more, so a pipelining client cannot size
    // `out`.
    let mut backlog = false;
    loop {
        if !backlog {
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => fb.push(&chunk[..n]),
                // A timed-out read is the idle stop poll below.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(_) => return,
            }
        }
        let mut close = false;
        while !close && out.len() < READ_CHUNK {
            let Some(reply) =
                next_reply(&mut fb, &mut preamble_done, shared, &mut reader, ingest_tx)
            else {
                break;
            };
            close = matches!(reply, Reply::Error { code, .. } if code.is_fatal());
            wire::put_frame(&mut out, |b| reply.encode_into(b));
        }
        backlog = out.len() >= READ_CHUNK;
        // ordering: Relaxed — advisory stop poll; see `shutdown`. Polled
        // after every read, so a client that never pauses cannot hold
        // `shutdown` either.
        if !close && shared.stop.load(Ordering::Relaxed) {
            let stopping = Reply::Error {
                id: 0,
                code: ErrorCode::ShuttingDown,
                detail: "server stopping".into(),
            };
            wire::put_frame(&mut out, |b| stopping.encode_into(b));
            close = true;
        }
        if stream.write_all(&out).is_err() || close {
            return;
        }
        out.clear();
    }
}

/// The reply to the next complete frame in `fb` — the connection
/// preamble first — or `None` until more bytes arrive.
fn next_reply(
    fb: &mut FrameBuffer,
    preamble_done: &mut bool,
    shared: &Shared,
    reader: &mut SnapshotReader,
    ingest_tx: &SyncSender<Delta>,
) -> Option<Reply> {
    if !*preamble_done {
        match fb.take_preamble() {
            Ok(true) => *preamble_done = true,
            Ok(false) => return None,
            Err(e) => return Some(protocol_error(shared, e.into(), "bad connection preamble")),
        }
    }
    match fb.next_frame(DEFAULT_MAX_FRAME_BYTES) {
        Ok(payload) => payload.map(|p| handle_payload(&p, shared, reader, ingest_tx)),
        Err(e) => Some(protocol_error(shared, e.into(), &e.to_string())),
    }
}

/// A counted error reply to a frame that never parsed (so id 0). The
/// code says whether the connection closes ([`ErrorCode::is_fatal`]).
fn protocol_error(shared: &Shared, code: ErrorCode, detail: &str) -> Reply {
    Counters::add(&shared.counters.protocol_errors, 1);
    Reply::Error {
        id: 0,
        code,
        detail: detail.into(),
    }
}

/// Decode one request payload and answer it.
fn handle_payload(
    payload: &[u8],
    shared: &Shared,
    reader: &mut SnapshotReader,
    ingest_tx: &SyncSender<Delta>,
) -> Reply {
    let request = match Request::decode(payload) {
        Ok(req) => req,
        Err(ProtoError::UnknownKind(k)) => {
            let detail = format!("unknown request kind {k:#04x}");
            return protocol_error(shared, ErrorCode::UnknownKind, &detail);
        }
        Err(e) => return protocol_error(shared, ErrorCode::BadFrame, &e.to_string()),
    };

    match request {
        Request::Ping { token } => {
            let snap = reader.current();
            Reply::Pong {
                token,
                epoch: snap.epoch(),
                fingerprint: snap.fingerprint(),
            }
        }
        Request::Trust { id, source } => {
            Counters::add(&shared.counters.queries, 1);
            let snap = reader.current();
            Reply::Trust {
                id,
                epoch: snap.epoch(),
                fingerprint: snap.fingerprint(),
                value: snap.trust(source),
            }
        }
        Request::Posterior { id, item, value } => {
            Counters::add(&shared.counters.queries, 1);
            let snap = reader.current();
            Reply::Posterior {
                id,
                epoch: snap.epoch(),
                fingerprint: snap.fingerprint(),
                value: snap.posterior(item, value),
            }
        }
        Request::TriplePosterior {
            id,
            source,
            item,
            value,
        } => {
            Counters::add(&shared.counters.queries, 1);
            let snap = reader.current();
            Reply::TriplePosterior {
                id,
                epoch: snap.epoch(),
                fingerprint: snap.fingerprint(),
                value: snap.triple_posterior(source, item, value),
            }
        }
        Request::TopKSources { id, k } => {
            Counters::add(&shared.counters.queries, 1);
            let snap = reader.current();
            Reply::TopK {
                id,
                epoch: snap.epoch(),
                fingerprint: snap.fingerprint(),
                sources: snap.top_k_sources(k as usize),
            }
        }
        Request::TrustBatch { id, sources } => {
            Counters::add(&shared.counters.queries, 1);
            let snap = reader.current();
            Reply::TrustBatch {
                id,
                epoch: snap.epoch(),
                fingerprint: snap.fingerprint(),
                values: snap.trust_batch(&sources),
            }
        }
        Request::Ingest { id, delta } => admit_ingest(id, delta, shared, ingest_tx),
        Request::Retract { id, keys } => queue_write(id, Delta::Remove(keys), shared, ingest_tx),
        Request::Stats { id } => {
            let snap = reader.current();
            Reply::StatsReply {
                id,
                epoch: snap.epoch(),
                fingerprint: snap.fingerprint(),
                stats: shared.counters.snapshot(),
            }
        }
    }
}

/// The door rule for ids: queue an ingest only if no id reaches its
/// axis's admitted ceiling + the batch's size (a survivable
/// `IdOutOfRange` otherwise, never queued or logged), then raise the
/// ceilings to what the queued batch names.
fn admit_ingest(
    id: u64,
    delta: Vec<Observation>,
    shared: &Shared,
    ingest_tx: &SyncSender<Delta>,
) -> Reply {
    let ends = delta.iter().fold([0u64; 4], |ends, o| {
        let ids = [o.extractor.0, o.source.0, o.item.0, o.value.0];
        std::array::from_fn(|a| ends[a].max(u64::from(ids[a]) + 1))
    });
    let n = delta.len() as u64;
    // ordering: Relaxed — the ceilings bound allocation and publish no
    // memory; a racing connection at worst checks an older, lower one.
    let past = |(&end, a): (&u64, &AtomicU64)| end > a.load(Ordering::Relaxed) + n;
    if ends.iter().zip(&shared.admitted).any(past) {
        Counters::add(&shared.counters.protocol_errors, 1);
        return Reply::Error {
            id,
            code: ErrorCode::IdOutOfRange,
            detail: format!("an id past the admitted ceiling + {n} on its axis"),
        };
    }
    let reply = queue_write(id, Delta::Add(delta), shared, ingest_tx);
    if matches!(reply, Reply::IngestAck { .. }) {
        for (end, a) in ends.into_iter().zip(&shared.admitted) {
            // ordering: Relaxed — as above; the RMW alone keeps it a max.
            a.fetch_max(end, Ordering::Relaxed);
        }
    }
    reply
}

/// Queue a batch for the trust writer, translating a degraded server
/// and a full queue into their typed error replies. The ack says
/// *queued*, nothing more.
fn queue_write(id: u64, delta: Delta, shared: &Shared, ingest_tx: &SyncSender<Delta>) -> Reply {
    if let Some(msg) = shared.degraded.get() {
        return Reply::Error {
            id,
            code: ErrorCode::DurabilityLost,
            detail: msg.clone(),
        };
    }
    let queued = delta.len() as u32;
    let (counter, ack) = match delta {
        Delta::Add(_) => (
            &shared.counters.ingested_observations,
            Reply::IngestAck { id, queued },
        ),
        Delta::Remove(_) => (
            &shared.counters.retracted_keys,
            Reply::RetractAck { id, queued },
        ),
    };
    match ingest_tx.try_send(delta) {
        Ok(()) => {
            Counters::add(counter, queued.into());
            ack
        }
        Err(TrySendError::Full(_)) => Reply::Error {
            id,
            code: ErrorCode::Overloaded,
            detail: "ingest queue full, retry later".into(),
        },
        Err(TrySendError::Disconnected(_)) => Reply::Error {
            id,
            code: ErrorCode::ShuttingDown,
            detail: "trust writer stopped".into(),
        },
    }
}
