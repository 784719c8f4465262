//! The `KBTNET01` wire protocol: request/reply payloads, typed error
//! codes, and the incremental frame assembler.
//!
//! ```text
//! connection:  header("KBTNET01", version 1)      client → server, once
//! then:        frame*                             both directions
//! payload:     [kind u8] [body…]
//! ```
//!
//! Header, frame and sequence are [`kbt_datamodel::wire`]'s — the length
//! cap, the CRC-before-parse order and the count guards are stated (and
//! enforced) there; this module only says what a payload holds.

use kbt_datamodel::wire::{
    self, put_f64, put_observation, put_seq, put_triple_key, put_u32, put_u64, put_u8, WireError,
    WireReader, OBSERVATION_WIRE_BYTES, TRIPLE_KEY_WIRE_BYTES,
};
use kbt_datamodel::{ItemId, Observation, SourceId, ValueId};

/// Connection magic, sent by the client before its first frame.
pub const NET_MAGIC: &[u8; 8] = b"KBTNET01";

/// Protocol version carried after the magic.
pub const NET_VERSION: u32 = 1;

/// Bytes of the connection preamble (magic + version).
pub const PREAMBLE_BYTES: usize = NET_MAGIC.len() + 4;

/// Default per-frame byte cap (1 MiB) — tighter than the wire module's
/// [`kbt_datamodel::wire::MAX_FRAME_BYTES`] because a trust query never
/// legitimately approaches it; ingest batches larger than this must be
/// split by the client.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 1024 * 1024;

/// Encode the connection preamble.
pub fn encode_preamble() -> Vec<u8> {
    let mut buf = Vec::with_capacity(PREAMBLE_BYTES);
    wire::put_header(&mut buf, NET_MAGIC, NET_VERSION);
    buf
}

/// Wrap an encoded payload in a frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 8);
    wire::put_frame(&mut buf, |b| b.extend_from_slice(payload));
    buf
}

// ---- error replies ----

/// Typed error codes the server sends in [`Reply::Error`] frames.
///
/// The first five are **fatal**: the byte stream can no longer be
/// trusted (or never was), so the server replies and closes. The rest
/// refuse one request, or describe a degraded or overloaded server —
/// the connection stays up and queries keep working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The connection preamble's magic was wrong.
    BadMagic,
    /// The protocol version is not supported.
    BadVersion,
    /// A frame announced a length over the server's cap.
    FrameTooLarge,
    /// A frame's CRC did not match its payload.
    BadCrc,
    /// A payload failed to parse (truncated or overrunning body).
    BadFrame,
    /// The payload's kind byte names no known request.
    UnknownKind,
    /// The ingest queue is full — backpressure; retry later.
    Overloaded,
    /// The durability hook failed; writes are refused but queries keep
    /// serving the last published epoch.
    DurabilityLost,
    /// The server is shutting down.
    ShuttingDown,
    /// An ingest names an id further past its axis's admitted ceiling
    /// than the batch has observations; the batch was not queued.
    IdOutOfRange,
}

impl ErrorCode {
    /// Whether the server closes the connection after this error.
    pub fn is_fatal(self) -> bool {
        matches!(
            self,
            Self::BadMagic | Self::BadVersion | Self::FrameTooLarge | Self::BadCrc | Self::BadFrame
        )
    }

    fn to_u8(self) -> u8 {
        match self {
            Self::BadMagic => 1,
            Self::BadVersion => 2,
            Self::FrameTooLarge => 3,
            Self::BadCrc => 4,
            Self::BadFrame => 5,
            Self::UnknownKind => 6,
            Self::Overloaded => 7,
            Self::DurabilityLost => 8,
            Self::ShuttingDown => 9,
            Self::IdOutOfRange => 10,
        }
    }

    fn from_u8(x: u8) -> Option<Self> {
        Some(match x {
            1 => Self::BadMagic,
            2 => Self::BadVersion,
            3 => Self::FrameTooLarge,
            4 => Self::BadCrc,
            5 => Self::BadFrame,
            6 => Self::UnknownKind,
            7 => Self::Overloaded,
            8 => Self::DurabilityLost,
            9 => Self::ShuttingDown,
            10 => Self::IdOutOfRange,
            _ => return None,
        })
    }
}

/// The code a framing failure is reported under.
impl From<WireError> for ErrorCode {
    fn from(e: WireError) -> Self {
        match e {
            WireError::BadMagic => Self::BadMagic,
            WireError::BadVersion(_) => Self::BadVersion,
            WireError::FrameTooLarge { .. } => Self::FrameTooLarge,
            WireError::BadCrc { .. } => Self::BadCrc,
            _ => Self::BadFrame,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Self::BadMagic => "bad magic",
            Self::BadVersion => "bad version",
            Self::FrameTooLarge => "frame too large",
            Self::BadCrc => "bad crc",
            Self::BadFrame => "bad frame",
            Self::UnknownKind => "unknown kind",
            Self::Overloaded => "overloaded",
            Self::DurabilityLost => "durability lost",
            Self::ShuttingDown => "shutting down",
            Self::IdOutOfRange => "id out of range",
        };
        f.write_str(name)
    }
}

// ---- payload decode errors ----

/// Why a frame payload failed to decode into a request or reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended early, ran long, or announced more elements than
    /// it carries.
    Wire(WireError),
    /// The kind byte names no known payload.
    UnknownKind(u8),
    /// An error-reply detail string was not UTF-8.
    BadString,
    /// An error-reply code byte was out of range.
    BadErrorCode(u8),
    /// An ingest or retract frame names id `u32::MAX`, which every axis
    /// reserves: a dense id space must hold `id + 1` entries.
    ReservedId,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "malformed payload: {e}"),
            Self::UnknownKind(k) => write!(f, "unknown payload kind {k:#04x}"),
            Self::BadString => write!(f, "error detail is not UTF-8"),
            Self::BadErrorCode(c) => write!(f, "error code {c} out of range"),
            Self::ReservedId => write!(f, "id {} is reserved", u32::MAX),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

// ---- requests ----

/// Every request a client can send. All carry a client-chosen `id`
/// echoed in the reply, so a client may pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness + epoch probe; `token` comes back in the [`Reply::Pong`].
    Ping {
        /// Echoed verbatim.
        token: u64,
    },
    /// Point trust score of one source.
    Trust {
        /// Request id, echoed in the reply.
        id: u64,
        /// The source queried.
        source: SourceId,
    },
    /// Value posterior `p(v true for d)`.
    Posterior {
        /// Request id, echoed in the reply.
        id: u64,
        /// The item queried.
        item: ItemId,
        /// The value queried.
        value: ValueId,
    },
    /// Triple correctness posterior for `(source, item, value)`.
    TriplePosterior {
        /// Request id, echoed in the reply.
        id: u64,
        /// The providing source.
        source: SourceId,
        /// The item.
        item: ItemId,
        /// The value.
        value: ValueId,
    },
    /// The `k` most trusted sources.
    TopKSources {
        /// Request id, echoed in the reply.
        id: u64,
        /// How many sources to return.
        k: u32,
    },
    /// Batched point trust over many sources in one frame.
    TrustBatch {
        /// Request id, echoed in the reply.
        id: u64,
        /// The sources queried, answered in order.
        sources: Vec<SourceId>,
    },
    /// Stream an additive observation batch into the trust server.
    Ingest {
        /// Request id, echoed in the reply.
        id: u64,
        /// The observations to queue.
        delta: Vec<Observation>,
    },
    /// Stream a retraction batch into the trust server.
    Retract {
        /// Request id, echoed in the reply.
        id: u64,
        /// The `(source, item, value)` triples to remove.
        keys: Vec<(SourceId, ItemId, ValueId)>,
    },
    /// Server-side counters (connections, queries, ingest volume).
    Stats {
        /// Request id, echoed in the reply.
        id: u64,
    },
}

const K_PING: u8 = 0x01;
const K_TRUST: u8 = 0x02;
const K_POSTERIOR: u8 = 0x03;
const K_TRIPLE: u8 = 0x04;
const K_TOPK: u8 = 0x05;
const K_TRUST_BATCH: u8 = 0x06;
const K_INGEST: u8 = 0x07;
const K_RETRACT: u8 = 0x08;
const K_STATS: u8 = 0x09;

impl Request {
    /// Encode to a frame payload (no framing; see [`encode_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append the payload to `buf` — inside [`wire::put_frame`], a whole
    /// frame built in one buffer.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Ping { token } => {
                put_u8(buf, K_PING);
                put_u64(buf, *token);
            }
            Self::Trust { id, source } => {
                put_u8(buf, K_TRUST);
                put_u64(buf, *id);
                put_u32(buf, source.0);
            }
            Self::Posterior { id, item, value } => {
                put_u8(buf, K_POSTERIOR);
                put_u64(buf, *id);
                put_u32(buf, item.0);
                put_u32(buf, value.0);
            }
            Self::TriplePosterior {
                id,
                source,
                item,
                value,
            } => {
                put_u8(buf, K_TRIPLE);
                put_u64(buf, *id);
                put_u32(buf, source.0);
                put_u32(buf, item.0);
                put_u32(buf, value.0);
            }
            Self::TopKSources { id, k } => {
                put_u8(buf, K_TOPK);
                put_u64(buf, *id);
                put_u32(buf, *k);
            }
            Self::TrustBatch { id, sources } => {
                put_u8(buf, K_TRUST_BATCH);
                put_u64(buf, *id);
                put_seq(buf, sources, |b, w| put_u32(b, w.0));
            }
            Self::Ingest { id, delta } => {
                put_u8(buf, K_INGEST);
                put_u64(buf, *id);
                put_seq(buf, delta, put_observation);
            }
            Self::Retract { id, keys } => {
                put_u8(buf, K_RETRACT);
                put_u64(buf, *id);
                put_seq(buf, keys, put_triple_key);
            }
            Self::Stats { id } => {
                put_u8(buf, K_STATS);
                put_u64(buf, *id);
            }
        }
    }

    /// Decode a frame payload. The whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = WireReader::new(payload);
        let kind = r.u8()?;
        let req = match kind {
            K_PING => Self::Ping { token: r.u64()? },
            K_TRUST => Self::Trust {
                id: r.u64()?,
                source: SourceId::new(r.u32()?),
            },
            K_POSTERIOR => Self::Posterior {
                id: r.u64()?,
                item: ItemId::new(r.u32()?),
                value: ValueId::new(r.u32()?),
            },
            K_TRIPLE => Self::TriplePosterior {
                id: r.u64()?,
                source: SourceId::new(r.u32()?),
                item: ItemId::new(r.u32()?),
                value: ValueId::new(r.u32()?),
            },
            K_TOPK => Self::TopKSources {
                id: r.u64()?,
                k: r.u32()?,
            },
            K_TRUST_BATCH => Self::TrustBatch {
                id: r.u64()?,
                sources: r.seq(4, |r| r.u32().map(SourceId::new))?,
            },
            // Refused here, before the frame is queued or logged: the id
            // would overflow the cube's dense tables on the writer thread,
            // and again on every replay of the log.
            K_INGEST => {
                let id = r.u64()?;
                let delta = r.seq(OBSERVATION_WIRE_BYTES, WireReader::observation)?;
                let ids = |o: &Observation| [o.extractor.0, o.source.0, o.item.0, o.value.0];
                if delta.iter().any(|o| ids(o).contains(&u32::MAX)) {
                    return Err(ProtoError::ReservedId);
                }
                Self::Ingest { id, delta }
            }
            K_RETRACT => {
                let id = r.u64()?;
                let keys = r.seq(TRIPLE_KEY_WIRE_BYTES, WireReader::triple_key)?;
                if keys
                    .iter()
                    .any(|k| [k.0 .0, k.1 .0, k.2 .0].contains(&u32::MAX))
                {
                    return Err(ProtoError::ReservedId);
                }
                Self::Retract { id, keys }
            }
            K_STATS => Self::Stats { id: r.u64()? },
            other => return Err(ProtoError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(req)
    }

    /// The request id (the ping token doubles as one).
    pub fn id(&self) -> u64 {
        match self {
            Self::Ping { token } => *token,
            Self::Trust { id, .. }
            | Self::Posterior { id, .. }
            | Self::TriplePosterior { id, .. }
            | Self::TopKSources { id, .. }
            | Self::TrustBatch { id, .. }
            | Self::Ingest { id, .. }
            | Self::Retract { id, .. }
            | Self::Stats { id } => *id,
        }
    }
}

// ---- replies ----

/// Server-side counters carried by [`Reply::StatsReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Highest concurrent connection count observed.
    pub peak_active: u64,
    /// Query frames answered.
    pub queries: u64,
    /// Observations queued through ingest frames.
    pub ingested_observations: u64,
    /// Retraction keys queued.
    pub retracted_keys: u64,
    /// Protocol errors replied (fatal and non-fatal).
    pub protocol_errors: u64,
}

/// Every reply the server can send. Query replies carry the answering
/// snapshot's `epoch` and `fingerprint` so a client can verify it never
/// observes a torn or regressing epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong {
        /// The echoed ping token.
        token: u64,
        /// Epoch currently published.
        epoch: u64,
        /// Fingerprint of that snapshot.
        fingerprint: u64,
    },
    /// Answer to [`Request::Trust`].
    Trust {
        /// Echoed request id.
        id: u64,
        /// Epoch the answer was read from.
        epoch: u64,
        /// Fingerprint of that snapshot.
        fingerprint: u64,
        /// The trust score, `None` for an unknown source.
        value: Option<f64>,
    },
    /// Answer to [`Request::Posterior`].
    Posterior {
        /// Echoed request id.
        id: u64,
        /// Epoch the answer was read from.
        epoch: u64,
        /// Fingerprint of that snapshot.
        fingerprint: u64,
        /// The posterior, `None` for an unknown `(item, value)`.
        value: Option<f64>,
    },
    /// Answer to [`Request::TriplePosterior`].
    TriplePosterior {
        /// Echoed request id.
        id: u64,
        /// Epoch the answer was read from.
        epoch: u64,
        /// Fingerprint of that snapshot.
        fingerprint: u64,
        /// The posterior, `None` for an unknown triple.
        value: Option<f64>,
    },
    /// Answer to [`Request::TopKSources`].
    TopK {
        /// Echoed request id.
        id: u64,
        /// Epoch the answer was read from.
        epoch: u64,
        /// Fingerprint of that snapshot.
        fingerprint: u64,
        /// `(source, trust)` descending by trust.
        sources: Vec<(SourceId, f64)>,
    },
    /// Answer to [`Request::TrustBatch`], one slot per queried source.
    TrustBatch {
        /// Echoed request id.
        id: u64,
        /// Epoch the answer was read from.
        epoch: u64,
        /// Fingerprint of that snapshot.
        fingerprint: u64,
        /// Scores in query order, `None` for unknown sources.
        values: Vec<Option<f64>>,
    },
    /// Answer to [`Request::Ingest`]: the batch is queued (durable if a
    /// hook is attached) and will fold into the next refit.
    IngestAck {
        /// Echoed request id.
        id: u64,
        /// Observations accepted.
        queued: u32,
    },
    /// Answer to [`Request::Retract`].
    RetractAck {
        /// Echoed request id.
        id: u64,
        /// Keys accepted.
        queued: u32,
    },
    /// Answer to [`Request::Stats`].
    StatsReply {
        /// Echoed request id.
        id: u64,
        /// Epoch currently published.
        epoch: u64,
        /// Fingerprint of that snapshot.
        fingerprint: u64,
        /// The counters.
        stats: WireStats,
    },
    /// Any failure, fatal ([`ErrorCode::is_fatal`] → connection closes
    /// after this frame) or degraded-but-serving.
    Error {
        /// Echoed request id (0 when the request never parsed).
        id: u64,
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

const K_PONG: u8 = 0x81;
const K_TRUST_R: u8 = 0x82;
const K_POSTERIOR_R: u8 = 0x83;
const K_TRIPLE_R: u8 = 0x84;
const K_TOPK_R: u8 = 0x85;
const K_TRUST_BATCH_R: u8 = 0x86;
const K_INGEST_ACK: u8 = 0x87;
const K_RETRACT_ACK: u8 = 0x88;
const K_STATS_R: u8 = 0x89;
const K_ERROR: u8 = 0xEE;

fn put_opt_f64(buf: &mut Vec<u8>, v: Option<f64>) {
    match v {
        Some(x) => {
            put_u8(buf, 1);
            put_f64(buf, x);
        }
        None => {
            put_u8(buf, 0);
            put_f64(buf, 0.0);
        }
    }
}

fn read_opt_f64(r: &mut WireReader<'_>) -> Result<Option<f64>, WireError> {
    let has = r.u8()?;
    let bits = r.f64()?;
    Ok(match has {
        0 => None,
        _ => Some(bits),
    })
}

impl Reply {
    /// Encode to a frame payload (no framing; see [`encode_frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Append the payload to `buf` — inside [`wire::put_frame`], a whole
    /// frame built in one buffer.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Self::Pong {
                token,
                epoch,
                fingerprint,
            } => {
                put_u8(buf, K_PONG);
                put_u64(buf, *token);
                put_u64(buf, *epoch);
                put_u64(buf, *fingerprint);
            }
            Self::Trust {
                id,
                epoch,
                fingerprint,
                value,
            } => {
                put_u8(buf, K_TRUST_R);
                put_u64(buf, *id);
                put_u64(buf, *epoch);
                put_u64(buf, *fingerprint);
                put_opt_f64(buf, *value);
            }
            Self::Posterior {
                id,
                epoch,
                fingerprint,
                value,
            } => {
                put_u8(buf, K_POSTERIOR_R);
                put_u64(buf, *id);
                put_u64(buf, *epoch);
                put_u64(buf, *fingerprint);
                put_opt_f64(buf, *value);
            }
            Self::TriplePosterior {
                id,
                epoch,
                fingerprint,
                value,
            } => {
                put_u8(buf, K_TRIPLE_R);
                put_u64(buf, *id);
                put_u64(buf, *epoch);
                put_u64(buf, *fingerprint);
                put_opt_f64(buf, *value);
            }
            Self::TopK {
                id,
                epoch,
                fingerprint,
                sources,
            } => {
                put_u8(buf, K_TOPK_R);
                put_u64(buf, *id);
                put_u64(buf, *epoch);
                put_u64(buf, *fingerprint);
                put_seq(buf, sources, |b, (w, t)| {
                    put_u32(b, w.0);
                    put_f64(b, *t);
                });
            }
            Self::TrustBatch {
                id,
                epoch,
                fingerprint,
                values,
            } => {
                put_u8(buf, K_TRUST_BATCH_R);
                put_u64(buf, *id);
                put_u64(buf, *epoch);
                put_u64(buf, *fingerprint);
                put_seq(buf, values, |b, v| put_opt_f64(b, *v));
            }
            Self::IngestAck { id, queued } => {
                put_u8(buf, K_INGEST_ACK);
                put_u64(buf, *id);
                put_u32(buf, *queued);
            }
            Self::RetractAck { id, queued } => {
                put_u8(buf, K_RETRACT_ACK);
                put_u64(buf, *id);
                put_u32(buf, *queued);
            }
            Self::StatsReply {
                id,
                epoch,
                fingerprint,
                stats,
            } => {
                put_u8(buf, K_STATS_R);
                put_u64(buf, *id);
                put_u64(buf, *epoch);
                put_u64(buf, *fingerprint);
                put_u64(buf, stats.accepted);
                put_u64(buf, stats.active);
                put_u64(buf, stats.peak_active);
                put_u64(buf, stats.queries);
                put_u64(buf, stats.ingested_observations);
                put_u64(buf, stats.retracted_keys);
                put_u64(buf, stats.protocol_errors);
            }
            Self::Error { id, code, detail } => {
                put_u8(buf, K_ERROR);
                put_u64(buf, *id);
                put_u8(buf, code.to_u8());
                wire::put_column(buf, detail.as_bytes(), |b| [b]);
            }
        }
    }

    /// Decode a frame payload. The whole payload must be consumed.
    pub fn decode(payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = WireReader::new(payload);
        let kind = r.u8()?;
        let reply = match kind {
            K_PONG => Self::Pong {
                token: r.u64()?,
                epoch: r.u64()?,
                fingerprint: r.u64()?,
            },
            K_TRUST_R => Self::Trust {
                id: r.u64()?,
                epoch: r.u64()?,
                fingerprint: r.u64()?,
                value: read_opt_f64(&mut r)?,
            },
            K_POSTERIOR_R => Self::Posterior {
                id: r.u64()?,
                epoch: r.u64()?,
                fingerprint: r.u64()?,
                value: read_opt_f64(&mut r)?,
            },
            K_TRIPLE_R => Self::TriplePosterior {
                id: r.u64()?,
                epoch: r.u64()?,
                fingerprint: r.u64()?,
                value: read_opt_f64(&mut r)?,
            },
            K_TOPK_R => Self::TopK {
                id: r.u64()?,
                epoch: r.u64()?,
                fingerprint: r.u64()?,
                sources: r.seq::<_, WireError>(12, |r| Ok((SourceId::new(r.u32()?), r.f64()?)))?,
            },
            K_TRUST_BATCH_R => Self::TrustBatch {
                id: r.u64()?,
                epoch: r.u64()?,
                fingerprint: r.u64()?,
                values: r.seq(9, read_opt_f64)?,
            },
            K_INGEST_ACK => Self::IngestAck {
                id: r.u64()?,
                queued: r.u32()?,
            },
            K_RETRACT_ACK => Self::RetractAck {
                id: r.u64()?,
                queued: r.u32()?,
            },
            K_STATS_R => Self::StatsReply {
                id: r.u64()?,
                epoch: r.u64()?,
                fingerprint: r.u64()?,
                stats: WireStats {
                    accepted: r.u64()?,
                    active: r.u64()?,
                    peak_active: r.u64()?,
                    queries: r.u64()?,
                    ingested_observations: r.u64()?,
                    retracted_keys: r.u64()?,
                    protocol_errors: r.u64()?,
                },
            },
            K_ERROR => {
                let id = r.u64()?;
                let code_byte = r.u8()?;
                let code =
                    ErrorCode::from_u8(code_byte).ok_or(ProtoError::BadErrorCode(code_byte))?;
                let mut detail = Vec::new();
                r.column(&mut detail, |[b]| b)?;
                let detail = String::from_utf8(detail).map_err(|_| ProtoError::BadString)?;
                Self::Error { id, code, detail }
            }
            other => return Err(ProtoError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(reply)
    }
}

// ---- incremental frame assembly ----

/// Reassembles frames from arbitrarily-sliced
/// socket reads. A slow-loris client trickling one byte at a time just
/// accumulates here; memory is bounded by the frame cap plus one read
/// chunk because an oversized length prefix is rejected the moment its
/// four bytes arrive, before any payload is buffered.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes at the front of `buf` already taken. They are dropped once
    /// per `push`, not once per frame, so a read carrying n pipelined
    /// frames costs O(n), not O(n²).
    taken: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.taken);
        self.taken = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.taken
    }

    /// Try to take the connection preamble off the front. `Ok(false)`
    /// means not enough bytes yet.
    pub fn take_preamble(&mut self) -> Result<bool, WireError> {
        match WireReader::new(&self.buf[self.taken..]).header(NET_MAGIC, NET_VERSION) {
            Ok(()) => {
                self.taken += PREAMBLE_BYTES;
                Ok(true)
            }
            Err(WireError::Truncated) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Extract the next complete frame's payload, if one has fully
    /// arrived. `Ok(None)` means more bytes are needed; an error means
    /// the stream is poisoned (the caller should close).
    pub fn next_frame(&mut self, max_frame_bytes: u32) -> Result<Option<Vec<u8>>, WireError> {
        let pending = &self.buf[self.taken..];
        let mut r = WireReader::new(pending);
        let Some(payload) = r.frame(max_frame_bytes)? else {
            return Ok(None);
        };
        let payload = payload.to_vec();
        self.taken += pending.len() - r.remaining();
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preamble_round_trips_and_rejects_imposters() {
        let mut fb = FrameBuffer::new();
        fb.push(&encode_preamble()[..5]);
        assert_eq!(fb.take_preamble(), Ok(false), "incomplete preamble waits");
        fb.push(&encode_preamble()[5..]);
        assert_eq!(fb.take_preamble(), Ok(true));

        let mut fb = FrameBuffer::new();
        fb.push(b"GET / HTTP/1.1\r\n");
        assert_eq!(fb.take_preamble(), Err(WireError::BadMagic));

        let mut bad_version = encode_preamble();
        bad_version[8] = 99;
        let mut fb = FrameBuffer::new();
        fb.push(&bad_version);
        assert_eq!(fb.take_preamble(), Err(WireError::BadVersion(99)));
    }
}
