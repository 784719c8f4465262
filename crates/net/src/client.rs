//! [`NetClient`]: a synchronous request/reply client for the
//! `KBTNET01` protocol, plus the raw-socket escape hatches the hostile
//! load harness uses to misbehave on purpose.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use kbt_datamodel::{ItemId, Observation, SourceId, ValueId};

use kbt_datamodel::wire::{self, WireError};

use crate::proto::{
    encode_preamble, ErrorCode, FrameBuffer, ProtoError, Reply, Request, WireStats,
    DEFAULT_MAX_FRAME_BYTES,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed or closed.
    Io(std::io::Error),
    /// The server closed the connection mid-reply.
    Disconnected,
    /// A reply frame failed framing (length/CRC) checks.
    Frame(WireError),
    /// A reply payload failed to decode.
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Server {
        /// The error code.
        code: ErrorCode,
        /// The server's detail message.
        detail: String,
    },
    /// The reply type or id did not match the request.
    UnexpectedReply,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "client I/O error: {e}"),
            Self::Disconnected => write!(f, "server closed the connection"),
            Self::Frame(e) => write!(f, "reply framing error: {e}"),
            Self::Proto(e) => write!(f, "reply decode error: {e}"),
            Self::Server { code, detail } => write!(f, "server error ({code}): {detail}"),
            Self::UnexpectedReply => write!(f, "reply does not match the request"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Frame(e) => Some(e),
            Self::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A query answer plus the snapshot coordinates it was read under —
/// the client-side material for torn-read verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer<T> {
    /// Epoch the server answered from.
    pub epoch: u64,
    /// Fingerprint of that snapshot.
    pub fingerprint: u64,
    /// The answer itself.
    pub value: T,
}

/// A blocking request/reply connection to a [`crate::NetServer`].
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    fb: FrameBuffer,
    next_id: u64,
    max_frame_bytes: u32,
}

impl NetClient {
    /// Connect and send the protocol preamble.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.write_all(&encode_preamble())?;
        Ok(Self {
            stream,
            fb: FrameBuffer::new(),
            next_id: 1,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        })
    }

    /// Bound how long a single reply read may block.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Send one request frame and block for the next reply frame.
    pub fn request(&mut self, req: &Request) -> Result<Reply, ClientError> {
        let mut frame = Vec::new();
        wire::put_frame(&mut frame, |b| req.encode_into(b));
        self.stream.write_all(&frame)?;
        self.read_reply()
    }

    /// Block for the next reply frame without sending anything.
    pub fn read_reply(&mut self) -> Result<Reply, ClientError> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(payload) = self
                .fb
                .next_frame(self.max_frame_bytes)
                .map_err(ClientError::Frame)?
            {
                return Reply::decode(&payload).map_err(ClientError::Proto);
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ClientError::Disconnected),
                Ok(n) => self.fb.push(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
    }

    /// Round-trip probe: returns the served `(epoch, fingerprint)`.
    pub fn ping(&mut self) -> Result<(u64, u64), ClientError> {
        let token = self.fresh_id();
        match self.request(&Request::Ping { token })? {
            Reply::Pong {
                token: t,
                epoch,
                fingerprint,
            } if t == token => Ok((epoch, fingerprint)),
            other => Err(reply_error(other)),
        }
    }

    /// Point trust score of one source.
    pub fn trust(&mut self, source: SourceId) -> Result<Answer<Option<f64>>, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::Trust { id, source })? {
            Reply::Trust {
                id: rid,
                epoch,
                fingerprint,
                value,
            } if rid == id => Ok(Answer {
                epoch,
                fingerprint,
                value,
            }),
            other => Err(reply_error(other)),
        }
    }

    /// Value posterior for `(item, value)`.
    pub fn posterior(
        &mut self,
        item: ItemId,
        value: ValueId,
    ) -> Result<Answer<Option<f64>>, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::Posterior { id, item, value })? {
            Reply::Posterior {
                id: rid,
                epoch,
                fingerprint,
                value,
            } if rid == id => Ok(Answer {
                epoch,
                fingerprint,
                value,
            }),
            other => Err(reply_error(other)),
        }
    }

    /// Triple correctness posterior for `(source, item, value)`.
    pub fn triple_posterior(
        &mut self,
        source: SourceId,
        item: ItemId,
        value: ValueId,
    ) -> Result<Answer<Option<f64>>, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::TriplePosterior {
            id,
            source,
            item,
            value,
        })? {
            Reply::TriplePosterior {
                id: rid,
                epoch,
                fingerprint,
                value,
            } if rid == id => Ok(Answer {
                epoch,
                fingerprint,
                value,
            }),
            other => Err(reply_error(other)),
        }
    }

    /// The `k` most trusted sources, descending.
    pub fn top_k_sources(&mut self, k: u32) -> Result<Answer<Vec<(SourceId, f64)>>, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::TopKSources { id, k })? {
            Reply::TopK {
                id: rid,
                epoch,
                fingerprint,
                sources,
            } if rid == id => Ok(Answer {
                epoch,
                fingerprint,
                value: sources,
            }),
            other => Err(reply_error(other)),
        }
    }

    /// Batched point trust, answered in query order.
    pub fn trust_batch(
        &mut self,
        sources: Vec<SourceId>,
    ) -> Result<Answer<Vec<Option<f64>>>, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::TrustBatch { id, sources })? {
            Reply::TrustBatch {
                id: rid,
                epoch,
                fingerprint,
                values,
            } if rid == id => Ok(Answer {
                epoch,
                fingerprint,
                value: values,
            }),
            other => Err(reply_error(other)),
        }
    }

    /// Stream an observation batch in; returns how many were queued.
    pub fn ingest(&mut self, delta: Vec<Observation>) -> Result<u32, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::Ingest { id, delta })? {
            Reply::IngestAck { id: rid, queued } if rid == id => Ok(queued),
            other => Err(reply_error(other)),
        }
    }

    /// Stream a retraction batch in; returns how many were queued.
    pub fn retract(&mut self, keys: Vec<(SourceId, ItemId, ValueId)>) -> Result<u32, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::Retract { id, keys })? {
            Reply::RetractAck { id: rid, queued } if rid == id => Ok(queued),
            other => Err(reply_error(other)),
        }
    }

    /// Server-side counters.
    pub fn stats(&mut self) -> Result<Answer<WireStats>, ClientError> {
        let id = self.fresh_id();
        match self.request(&Request::Stats { id })? {
            Reply::StatsReply {
                id: rid,
                epoch,
                fingerprint,
                stats,
            } if rid == id => Ok(Answer {
                epoch,
                fingerprint,
                value: stats,
            }),
            other => Err(reply_error(other)),
        }
    }

    /// Write raw bytes, bypassing the codec — the hostile harness uses
    /// this to send corrupt frames, absurd length prefixes, and
    /// half-frames before disconnecting.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }
}

fn reply_error(reply: Reply) -> ClientError {
    match reply {
        Reply::Error { code, detail, .. } => ClientError::Server { code, detail },
        _ => ClientError::UnexpectedReply,
    }
}
