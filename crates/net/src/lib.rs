//! # kbt-net
//!
//! The network front end for the trust-serving layer: point, top-k, and
//! batched trust queries plus streaming delta/retraction ingestion over
//! the `KBTNET01` wire protocol (header, frames and sequences of
//! [`kbt_datamodel::wire`], the codec the `KBTWAL01` delta log shares).
//!
//! * [`proto`] — the codec: [`Request`]/[`Reply`] payloads, framing,
//!   the [`FrameBuffer`] incremental assembler, typed [`ErrorCode`]s.
//! * [`NetServer`] — `std::net` thread-per-connection server over a
//!   [`kbt_serve::TrustServer`], durable when that server carries a
//!   store as its hook (`DurableTrustServer::into_server`): queries
//!   answered and written back on the connection's own thread from an
//!   epoch-cached snapshot reader, writes through a bounded queue into
//!   the single trust-writer thread (one refit per drained burst; an
//!   ack means *queued*, an epoch advance means *logged, applied,
//!   committed* — see [`server`]), a write timeout for clients that
//!   stop reading, and degraded-but-serving behavior when the hook
//!   fails.
//! * [`NetClient`] — a synchronous client, plus raw-byte escape hatches
//!   the hostility tests (`tests/protocol.rs`) use to slow-loris, corrupt
//!   frames, and disconnect mid-frame on purpose.
//!
//! ```no_run
//! use kbt_net::{NetClient, NetServer};
//! use kbt_pipeline::TrustPipeline;
//! use kbt_serve::{RefitMode, TrustServer};
//! use kbt_datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
//!
//! let obs = |w: u32, d: u32, v: u32| Observation::certain(
//!     ExtractorId::new(0), SourceId::new(w), ItemId::new(d), ValueId::new(v));
//! let base: Vec<Observation> =
//!     (0..3).flat_map(|w| (0..8).map(move |d| obs(w, d, 0))).collect();
//! let server = TrustServer::from_pipeline(
//!     TrustPipeline::new().observations(base).threads(1),
//!     RefitMode::Warm,
//! ).unwrap();
//!
//! let net = NetServer::spawn(server, "127.0.0.1:0").unwrap();
//! let mut client = NetClient::connect(net.addr()).unwrap();
//! let trust = client.trust(SourceId::new(0)).unwrap();
//! assert!(trust.value.unwrap() > 0.0);
//! client.ingest((0..8).map(|d| obs(3, d, 0)).collect()).unwrap();
//! let shutdown = net.shutdown().unwrap();
//! assert!(shutdown.durability.is_ok());
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Answer, ClientError, NetClient};
pub use proto::{
    ErrorCode, FrameBuffer, ProtoError, Reply, Request, WireStats, DEFAULT_MAX_FRAME_BYTES,
    NET_MAGIC, NET_VERSION,
};
pub use server::{NetError, NetServer, NetShutdown};
