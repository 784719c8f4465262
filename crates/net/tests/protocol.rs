//! Wire-protocol hostility tests for `kbt-net`, in two tiers:
//!
//! 1. **Codec properties** (proptest): every request and reply payload
//!    round-trips bit-exactly; framed bytes survive arbitrary read
//!    slicing; truncated frames wait instead of parsing garbage; any
//!    single bit flip anywhere in a frame is rejected, never silently
//!    decoded back to the original payload.
//! 2. **Socket hostility** (live [`NetServer`]): mid-frame disconnects,
//!    `len = u32::MAX` prefixes, bad magic, corrupt CRCs, slow-loris
//!    byte trickling, unknown request kinds — none of which may wedge
//!    or kill the listener — one by one, then all at once beside
//!    fingerprint-verifying queriers and writers forcing warm refits
//!    (the concurrency drill) — plus the durability drill: a failing
//!    hook degrades writes to typed `DurabilityLost` errors while
//!    queries keep serving the last published epoch.
//! 3. **The write path as one thing**: shutdown under write load loses
//!    no acked batch and is held neither by a peer that stopped reading
//!    nor by one that never pauses; backpressure (`Overloaded` from the
//!    bounded ingest queue, the write timeout cutting a slow reader
//!    loose) hurts no one else; and a real `kbt-store` behind
//!    the socket, in either refit mode, restarts on the `(epoch,
//!    fingerprint)` it last served and goes on publishing what a server
//!    that never stopped would, and degrades at the commit stage when
//!    its directory dies.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use kbt_datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt_net::proto::{encode_frame, encode_preamble, ProtoError};
use kbt_net::{
    ClientError, ErrorCode, FrameBuffer, NetClient, NetServer, NetShutdown, Reply, Request,
    WireStats, DEFAULT_MAX_FRAME_BYTES,
};
use kbt_pipeline::{Delta, FusionSession, TrustPipeline};
use kbt_serve::{DurabilityHook, HookFailure, HookStage, RefitMode, TrustServer, TrustSnapshot};
use kbt_store::{DurableTrustServer, StoreConfig};
use proptest::prelude::*;

// ---- strategies ----

fn observation_strategy() -> impl Strategy<Value = Observation> {
    (0u32..8, 0u32..64, 0u32..64, 0u32..8, 0.0f64..=1.0).prop_map(|(e, w, d, v, c)| Observation {
        extractor: ExtractorId::new(e),
        source: SourceId::new(w),
        item: ItemId::new(d),
        value: ValueId::new(v),
        confidence: c,
    })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0u8..9,
        any::<u64>(),
        (any::<u32>(), any::<u32>()),
        prop::collection::vec(observation_strategy(), 0..20),
        prop::collection::vec(any::<u32>(), 0..20),
    )
        .prop_map(|(sel, id, (a, b), delta, nums)| match sel {
            0 => Request::Ping { token: id },
            1 => Request::Trust {
                id,
                source: SourceId::new(a),
            },
            2 => Request::Posterior {
                id,
                item: ItemId::new(a),
                value: ValueId::new(b),
            },
            3 => Request::TriplePosterior {
                id,
                source: SourceId::new(a),
                item: ItemId::new(b),
                value: ValueId::new(a ^ b),
            },
            4 => Request::TopKSources { id, k: a },
            5 => Request::TrustBatch {
                id,
                sources: nums.iter().copied().map(SourceId::new).collect(),
            },
            6 => Request::Ingest { id, delta },
            7 => Request::Retract {
                id,
                keys: nums
                    .iter()
                    .map(|&x| (SourceId::new(x), ItemId::new(x ^ a), ValueId::new(x ^ b)))
                    .collect(),
            },
            _ => Request::Stats { id },
        })
}

fn reply_strategy() -> impl Strategy<Value = Reply> {
    const CODES: [ErrorCode; 10] = [
        ErrorCode::BadMagic,
        ErrorCode::BadVersion,
        ErrorCode::FrameTooLarge,
        ErrorCode::BadCrc,
        ErrorCode::BadFrame,
        ErrorCode::UnknownKind,
        ErrorCode::Overloaded,
        ErrorCode::DurabilityLost,
        ErrorCode::ShuttingDown,
        ErrorCode::IdOutOfRange,
    ];
    (
        0u8..10,
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<f64>(), any::<bool>()),
        prop::collection::vec((any::<u32>(), any::<f64>(), any::<bool>()), 0..20),
        any::<u32>(),
    )
        .prop_map(|(sel, (id, epoch, fingerprint), (x, has), list, q)| {
            let value = has.then_some(x);
            match sel {
                0 => Reply::Pong {
                    token: id,
                    epoch,
                    fingerprint,
                },
                1 => Reply::Trust {
                    id,
                    epoch,
                    fingerprint,
                    value,
                },
                2 => Reply::Posterior {
                    id,
                    epoch,
                    fingerprint,
                    value,
                },
                3 => Reply::TriplePosterior {
                    id,
                    epoch,
                    fingerprint,
                    value,
                },
                4 => Reply::TopK {
                    id,
                    epoch,
                    fingerprint,
                    sources: list
                        .iter()
                        .map(|&(w, t, _)| (SourceId::new(w), t))
                        .collect(),
                },
                5 => Reply::TrustBatch {
                    id,
                    epoch,
                    fingerprint,
                    values: list.iter().map(|&(_, t, h)| h.then_some(t)).collect(),
                },
                6 => Reply::IngestAck { id, queued: q },
                7 => Reply::RetractAck { id, queued: q },
                8 => Reply::StatsReply {
                    id,
                    epoch,
                    fingerprint,
                    stats: WireStats {
                        accepted: id.wrapping_add(1),
                        active: epoch.wrapping_add(2),
                        peak_active: fingerprint.wrapping_add(3),
                        queries: id.wrapping_mul(3),
                        ingested_observations: epoch.wrapping_mul(5),
                        retracted_keys: fingerprint.wrapping_mul(7),
                        protocol_errors: q as u64,
                    },
                },
                _ => Reply::Error {
                    id,
                    code: CODES[q as usize % CODES.len()],
                    detail: format!("synthetic detail {q}"),
                },
            }
        })
}

proptest! {
    /// Every request payload decodes back to itself, framed or not.
    #[test]
    fn request_payloads_round_trip(req in request_strategy()) {
        let payload = req.encode();
        prop_assert_eq!(Request::decode(&payload).unwrap(), req.clone());

        // Through the framing layer too: one frame in, same request out.
        let mut fb = FrameBuffer::new();
        fb.push(&encode_frame(&payload));
        let framed = fb.next_frame(DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
        prop_assert_eq!(Request::decode(&framed).unwrap(), req);
        prop_assert_eq!(fb.buffered(), 0);
    }

    /// Every reply payload decodes back to itself (floats bit-exact).
    #[test]
    fn reply_payloads_round_trip(reply in reply_strategy()) {
        let payload = reply.encode();
        prop_assert_eq!(Reply::decode(&payload).unwrap(), reply);
    }

    /// A frame survives arbitrary slicing across socket reads, and
    /// never completes before its last byte has arrived.
    #[test]
    fn frames_survive_arbitrary_read_slicing(
        req in request_strategy(),
        cuts in prop::collection::vec(1usize..17, 0..12),
    ) {
        let frame = encode_frame(&req.encode());
        let mut fb = FrameBuffer::new();
        let mut sent = 0;
        for cut in cuts {
            if sent == frame.len() {
                break;
            }
            let next = (sent + cut).min(frame.len());
            fb.push(&frame[sent..next]);
            sent = next;
            let got = fb.next_frame(DEFAULT_MAX_FRAME_BYTES).unwrap();
            if sent < frame.len() {
                prop_assert!(got.is_none(), "frame completed {} bytes early", frame.len() - sent);
            } else {
                prop_assert_eq!(Request::decode(&got.unwrap()).unwrap(), req.clone());
            }
        }
        if sent < frame.len() {
            fb.push(&frame[sent..]);
            let payload = fb.next_frame(DEFAULT_MAX_FRAME_BYTES).unwrap().unwrap();
            prop_assert_eq!(Request::decode(&payload).unwrap(), req.clone());
        }
        prop_assert_eq!(fb.buffered(), 0);

        // One full 64 KiB read of pipelined frames — the request between
        // numbered pings — decodes in order, and the frame the read cut
        // off completes on the next push.
        const READ: usize = 64 * 1024;
        let (mut bytes, mut pipelined, mut token) = (Vec::new(), Vec::new(), 0);
        while bytes.len() <= READ {
            for r in [req.clone(), Request::Ping { token }] {
                bytes.extend_from_slice(&encode_frame(&r.encode()));
                pipelined.push(r);
            }
            token += 1;
        }
        let mut decoded = Vec::new();
        for read in [&bytes[..READ], &bytes[READ..]] {
            fb.push(read);
            while let Some(payload) = fb.next_frame(DEFAULT_MAX_FRAME_BYTES).unwrap() {
                decoded.push(Request::decode(&payload).unwrap());
            }
        }
        prop_assert_eq!(decoded, pipelined);
        prop_assert_eq!(fb.buffered(), 0);
    }

    /// Flipping any single bit of a frame — length prefix, payload, or
    /// CRC — never hands the original payload back as a valid frame:
    /// the buffer errors (CRC/cap) or keeps waiting, and whatever it
    /// would return is not the bytes the sender framed.
    #[test]
    fn single_bit_flips_never_pass_for_the_original(
        req in request_strategy(),
        pos in any::<u32>(),
        bit in 0u8..8,
    ) {
        let payload = req.encode();
        let mut frame = encode_frame(&payload);
        let pos = pos as usize % frame.len();
        frame[pos] ^= 1 << bit;

        let mut fb = FrameBuffer::new();
        fb.push(&frame);
        match fb.next_frame(DEFAULT_MAX_FRAME_BYTES) {
            Err(_) | Ok(None) => {}
            Ok(Some(p)) => prop_assert!(
                p != payload,
                "bit {bit} at byte {pos} slipped through as the original payload"
            ),
        }
    }
}

// ---- socket-level hostility against a live server ----

fn obs(w: u32, d: u32, v: u32) -> Observation {
    Observation::certain(
        ExtractorId::new(0),
        SourceId::new(w),
        ItemId::new(d),
        ValueId::new(v),
    )
}

fn corpus() -> Vec<Observation> {
    (0..4u32)
        .flat_map(|w| (0..10u32).map(move |d| obs(w, d, w % 2)))
        .collect()
}

fn spawn_net() -> NetServer {
    let server = TrustServer::from_pipeline(
        TrustPipeline::new().observations(corpus()).threads(1),
        RefitMode::Warm,
    )
    .expect("seed corpus fits");
    NetServer::spawn(server, "127.0.0.1:0").expect("ephemeral bind")
}

/// Poll `f` until it yields, failing the test after `deadline`.
fn wait_until<T>(deadline: Duration, what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let start = Instant::now();
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// Read reply frames off a raw socket until one parses or EOF.
fn read_reply_raw(stream: &mut TcpStream) -> Option<Reply> {
    let mut fb = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    loop {
        if let Ok(Some(payload)) = fb.next_frame(DEFAULT_MAX_FRAME_BYTES) {
            return Some(Reply::decode(&payload).expect("server frames always decode"));
        }
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(n) => fb.push(&chunk[..n]),
        }
    }
}

#[test]
fn network_answers_equal_the_in_process_snapshot_bit_for_bit() {
    let net = spawn_net();
    let mut reader = net.handle().reader();
    let mut client = NetClient::connect(net.addr()).expect("connect");

    let (epoch, fingerprint) = client.ping().expect("ping");
    {
        let snap = reader.current();
        assert_eq!((epoch, fingerprint), (snap.epoch(), snap.fingerprint()));

        for w in 0..6u32 {
            let got = client.trust(SourceId::new(w)).expect("trust");
            assert_eq!(got.epoch, snap.epoch());
            assert_eq!(got.fingerprint, snap.fingerprint());
            assert_eq!(
                got.value.map(f64::to_bits),
                snap.trust(SourceId::new(w)).map(f64::to_bits)
            );
        }
        for d in 0..4u32 {
            for v in 0..3u32 {
                let got = client.posterior(ItemId::new(d), ValueId::new(v)).unwrap();
                assert_eq!(
                    got.value.map(f64::to_bits),
                    snap.posterior(ItemId::new(d), ValueId::new(v))
                        .map(f64::to_bits)
                );
                let got = client
                    .triple_posterior(SourceId::new(1), ItemId::new(d), ValueId::new(v))
                    .unwrap();
                assert_eq!(
                    got.value.map(f64::to_bits),
                    snap.triple_posterior(SourceId::new(1), ItemId::new(d), ValueId::new(v))
                        .map(f64::to_bits)
                );
            }
        }

        let top = client.top_k_sources(3).unwrap();
        assert_eq!(top.value, snap.top_k_sources(3));

        let asked: Vec<SourceId> = (0..8).map(SourceId::new).collect();
        let batch = client.trust_batch(asked.clone()).unwrap();
        assert_eq!(batch.value, snap.trust_batch(&asked));
    }

    let stats = client.stats().unwrap();
    assert!(stats.value.accepted >= 1);
    assert!(stats.value.queries >= 6);

    let down = net.shutdown().expect("clean shutdown");
    assert!(down.durability.is_ok());
}

#[test]
fn network_ingest_and_retract_advance_epochs() {
    let net = spawn_net();
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let (epoch0, _) = client.ping().expect("ping");

    // A brand-new source arrives over the wire…
    let delta: Vec<Observation> = (0..10).map(|d| obs(9, d, 0)).collect();
    let queued = client.ingest(delta).expect("ingest ack");
    assert_eq!(queued, 10);
    wait_until(Duration::from_secs(10), "ingest refit", || {
        let (e, _) = client.ping().expect("ping during refit");
        (e > epoch0).then_some(())
    });
    let trust9 = client.trust(SourceId::new(9)).expect("trust of new source");
    assert!(trust9.value.is_some(), "ingested source is served");

    // …and half its claims are retracted again.
    let keys: Vec<_> = (0..5)
        .map(|d| (SourceId::new(9), ItemId::new(d), ValueId::new(0)))
        .collect();
    let epoch1 = client.ping().expect("ping").0;
    assert_eq!(client.retract(keys).expect("retract ack"), 5);
    wait_until(Duration::from_secs(10), "retract refit", || {
        let (e, _) = client.ping().expect("ping during refit");
        (e > epoch1).then_some(())
    });

    // The post-retraction answer equals the in-process snapshot bit
    // for bit — the network layer serves exactly what was refit.
    let mut reader = net.handle().reader();
    let got = client.trust(SourceId::new(9)).expect("trust after retract");
    let snap = reader.current();
    assert_eq!(got.epoch, snap.epoch());
    assert_eq!(
        got.value.map(f64::to_bits),
        snap.trust(SourceId::new(9)).map(f64::to_bits)
    );

    let down = net.shutdown().expect("clean shutdown");
    assert!(down.durability.is_ok());
    assert_eq!(down.stats.ingested_observations, 10);
    assert_eq!(down.stats.retracted_keys, 5);
    assert!(down.server.epoch() > epoch1);
}

/// A NaN confidence on a shared item is no evidence: the next epoch's
/// trust replies and top-k ranking stay finite.
#[test]
fn a_nan_confidence_cannot_poison_the_next_epoch() {
    let net = spawn_net();
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let (epoch0, _) = client.ping().expect("ping");
    let nan = Observation {
        confidence: f64::NAN,
        ..obs(4, 0, 0)
    };
    assert_eq!(client.ingest(vec![nan]).expect("ingest ack"), 1);
    wait_until(Duration::from_secs(10), "the NaN refit", || {
        let (e, _) = client.ping().expect("ping during refit");
        (e > epoch0).then_some(())
    });
    for w in 0..5u32 {
        let trust = client.trust(SourceId::new(w)).expect("trust").value;
        assert!(trust.is_some_and(f64::is_finite), "source {w}: {trust:?}");
    }
    let top = client.top_k_sources(5).expect("top-k").value;
    assert_eq!(top.len(), 5);
    assert!(top.iter().all(|(_, t)| t.is_finite()), "{top:?}");
    net.shutdown().expect("clean shutdown");
}

#[test]
fn mid_frame_disconnects_do_not_wedge_the_listener() {
    let net = spawn_net();

    // One client dies halfway through the preamble, one halfway through
    // an ingest frame; both simply vanish.
    {
        let mut s = TcpStream::connect(net.addr()).unwrap();
        s.write_all(&encode_preamble()[..7]).unwrap();
    }
    {
        let mut s = TcpStream::connect(net.addr()).unwrap();
        s.write_all(&encode_preamble()).unwrap();
        let frame = encode_frame(
            &Request::Ingest {
                id: 7,
                delta: (0..50).map(|d| obs(8, d, 0)).collect(),
            }
            .encode(),
        );
        s.write_all(&frame[..frame.len() / 2]).unwrap();
    }

    // The listener still serves fresh clients.
    let mut client = NetClient::connect(net.addr()).expect("connect after the carnage");
    client.ping().expect("ping");
    assert!(client.trust(SourceId::new(0)).unwrap().value.is_some());

    let down = net.shutdown().expect("clean shutdown");
    assert!(down.durability.is_ok());
    assert_eq!(down.stats.accepted, 3);
}

#[test]
fn hostile_length_prefix_is_a_typed_error_not_an_allocation() {
    let net = spawn_net();

    let mut s = TcpStream::connect(net.addr()).unwrap();
    s.write_all(&encode_preamble()).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    match read_reply_raw(&mut s) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::FrameTooLarge),
        other => panic!("expected a FrameTooLarge error, got {other:?}"),
    }
    // Fatal: the server hangs up after the error frame.
    assert!(read_reply_raw(&mut s).is_none(), "connection is closed");

    let mut client = NetClient::connect(net.addr()).expect("server survived");
    client.ping().expect("ping");
    assert!(net.stats().protocol_errors >= 1);
    net.shutdown().expect("clean shutdown");
}

#[test]
fn bad_magic_and_corrupt_crc_are_rejected_with_typed_errors() {
    let net = spawn_net();

    // An HTTP client wanders in.
    let mut s = TcpStream::connect(net.addr()).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\nHost: kbt\r\n\r\n").unwrap();
    match read_reply_raw(&mut s) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::BadMagic),
        other => panic!("expected a BadMagic error, got {other:?}"),
    }

    // A bit-flipped frame fails its CRC.
    let mut s = TcpStream::connect(net.addr()).unwrap();
    s.write_all(&encode_preamble()).unwrap();
    let mut frame = encode_frame(&Request::Ping { token: 3 }.encode());
    let n = frame.len();
    frame[n - 1] ^= 0x40;
    s.write_all(&frame).unwrap();
    match read_reply_raw(&mut s) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::BadCrc),
        other => panic!("expected a BadCrc error, got {other:?}"),
    }

    let mut client = NetClient::connect(net.addr()).expect("server survived");
    client.ping().expect("ping");
    assert!(net.stats().protocol_errors >= 2);
    net.shutdown().expect("clean shutdown");
}

#[test]
fn unknown_request_kinds_are_survivable_on_the_same_connection() {
    let net = spawn_net();
    let mut client = NetClient::connect(net.addr()).expect("connect");

    // A payload with an unassigned kind byte gets a typed, NON-fatal
    // error; the same connection then answers real requests.
    client
        .send_raw(&encode_frame(&[0x55, 1, 2, 3, 4, 5, 6, 7, 8]))
        .unwrap();
    match client.read_reply().expect("error reply") {
        Reply::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownKind),
        other => panic!("expected an UnknownKind error, got {other:?}"),
    }
    client.ping().expect("connection still usable");

    net.shutdown().expect("clean shutdown");
}

/// One write carrying 256 point requests, then three good requests and a
/// corrupt-CRC frame: every reply comes back in request order with its
/// id, then the typed `BadCrc` error, then EOF.
#[test]
fn pipelined_requests_are_answered_in_order_up_to_a_fatal_frame() {
    let frames = |reqs: &[Request]| -> Vec<u8> {
        reqs.iter()
            .flat_map(|r| encode_frame(&r.encode()))
            .collect()
    };
    let points: Vec<Request> = (1..=256u32)
        .map(|i| Request::Trust {
            id: u64::from(i),
            source: SourceId::new(i % 6),
        })
        .collect();
    let good = [
        Request::Ping { token: 1001 },
        Request::Posterior {
            id: 1002,
            item: ItemId::new(1),
            value: ValueId::new(0),
        },
        Request::Stats { id: 1003 },
    ];
    let mut tail = frames(&good);
    let mut corrupt = encode_frame(&Request::Ping { token: 1004 }.encode());
    let n = corrupt.len();
    corrupt[n - 1] ^= 0x40;
    tail.extend_from_slice(&corrupt);

    let net = spawn_net();
    let mut client = NetClient::connect(net.addr()).expect("connect");
    client.send_raw(&frames(&points)).unwrap();
    client.send_raw(&tail).unwrap();
    for req in points.iter().chain(&good) {
        let reply = client.read_reply().expect("a reply per request");
        let answered = match (req, &reply) {
            (Request::Trust { id, .. }, Reply::Trust { id: r, .. })
            | (Request::Posterior { id, .. }, Reply::Posterior { id: r, .. })
            | (Request::Stats { id }, Reply::StatsReply { id: r, .. })
            | (Request::Ping { token: id }, Reply::Pong { token: r, .. }) => id == r,
            _ => false,
        };
        assert!(answered, "{req:?} answered by {reply:?}");
    }
    match client.read_reply() {
        Ok(Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::BadCrc),
        other => panic!("expected a BadCrc error, got {other:?}"),
    }
    assert!(
        matches!(client.read_reply(), Err(ClientError::Disconnected)),
        "EOF after the fatal error"
    );
    net.shutdown().expect("clean shutdown");
}

/// Id `u32::MAX` is reserved on every axis (a dense id space holds
/// `id + 1` entries): a frame naming it is refused at decode with a typed
/// error — never queued, never logged — and the server keeps serving.
#[test]
fn reserved_ids_are_refused_before_they_are_queued() {
    let bad_delta = vec![obs(1, 2, 3), obs(u32::MAX, 0, 0)];
    let bad_keys = vec![(SourceId::new(0), ItemId::new(u32::MAX), ValueId::new(0))];
    let frames = [
        Request::Ingest {
            id: 7,
            delta: bad_delta,
        }
        .encode(),
        Request::Retract {
            id: 8,
            keys: bad_keys,
        }
        .encode(),
    ];
    let net = spawn_net();
    for payload in &frames {
        assert_eq!(Request::decode(payload), Err(ProtoError::ReservedId));
        let mut raw = raw_conn_after_ping(net.addr(), 1);
        raw.write_all(&encode_frame(payload)).unwrap();
        expect_error(&mut raw, ErrorCode::BadFrame);
    }
    let mut client = NetClient::connect(net.addr()).expect("connect");
    client.ping().expect("still serving");
    let down = net.shutdown().expect("clean shutdown");
    assert_eq!(
        down.stats.ingested_observations + down.stats.retracted_keys,
        0
    );
    assert_eq!(down.stats.protocol_errors, 2);
}

/// An ingest may name ids at most its own size past what the served cube
/// and the queued ingests reached, axis by axis: source 4·10⁹ — which
/// would size the writer's per-source tables to 4·10⁹ entries, on every
/// replay of the log too — draws a survivable `IdOutOfRange`, as does a
/// batch of two naming item 10 + 2. Neither is queued, the connection
/// goes on, and the next legal ingest publishes with the same sources.
#[test]
fn ids_past_the_admitted_ceiling_are_refused_at_the_door() {
    let net = spawn_net();
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let (epoch0, _) = client.ping().expect("ping");
    for hostile in [
        vec![obs(4_000_000_000, 0, 0)],
        vec![obs(0, 12, 0), obs(1, 12, 0)],
    ] {
        match client.ingest(hostile) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::IdOutOfRange),
            other => panic!("expected IdOutOfRange, got {other:?}"),
        }
        assert_eq!(client.ping().expect("same connection").0, epoch0);
    }
    // Item 11 is within 10 + 2.
    let legal = vec![obs(0, 11, 0), obs(1, 11, 0)];
    assert_eq!(client.ingest(legal).expect("ingest ack"), 2);
    wait_until(Duration::from_secs(10), "the legal refit", || {
        (client.ping().expect("ping").0 > epoch0).then_some(())
    });
    let snap = net.handle().snapshot();
    assert_eq!((snap.num_sources(), snap.num_items()), (4, 12));
    let down = net.shutdown().expect("clean shutdown");
    assert_eq!(down.stats.ingested_observations, 2);
    assert_eq!(down.stats.protocol_errors, 2);
}

#[test]
fn slow_loris_byte_trickle_still_gets_an_answer() {
    let net = spawn_net();

    let mut s = TcpStream::connect(net.addr()).unwrap();
    let mut bytes = encode_preamble();
    bytes.extend_from_slice(&encode_frame(&Request::Ping { token: 99 }.encode()));
    for b in bytes {
        s.write_all(&[b]).unwrap();
        s.flush().unwrap();
        thread::sleep(Duration::from_millis(2));
    }
    match read_reply_raw(&mut s) {
        Some(Reply::Pong { token, .. }) => assert_eq!(token, 99),
        other => panic!("expected a Pong, got {other:?}"),
    }

    net.shutdown().expect("clean shutdown");
}

// ---- the concurrency drill ----

/// Every `(epoch → fingerprint)` any participant ever observes. Two
/// fingerprints for one epoch is a torn read.
#[derive(Default)]
struct EpochBook(Mutex<HashMap<u64, u64>>);

impl EpochBook {
    fn note(&self, epoch: u64, fingerprint: u64) {
        let prev = self.0.lock().unwrap().insert(epoch, fingerprint);
        assert!(
            prev.is_none_or(|p| p == fingerprint),
            "torn read: epoch {epoch} served fingerprints {prev:?} and {fingerprint}"
        );
    }
}

/// Where the drill's participants meet: each checks in once the server
/// has answered it (so it is accepted and counted active), and none
/// starts its part before all `parties` are connected at once. A deadline
/// instead of `std::sync::Barrier`, so a participant that dies early
/// fails the others instead of hanging them.
fn arrive_and_wait(arrived: &AtomicUsize, parties: usize) {
    arrived.fetch_add(1, Ordering::SeqCst);
    wait_until(Duration::from_secs(20), "all drill connections", || {
        (arrived.load(Ordering::SeqCst) >= parties).then_some(())
    });
}

/// Counts a finished (or panicked) writer, so the queriers' loop ends
/// either way.
struct Finished<'a>(&'a AtomicUsize);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A raw connection that has completed one ping round trip.
fn raw_conn_after_ping(addr: SocketAddr, token: u64) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&encode_preamble()).unwrap();
    s.write_all(&encode_frame(&Request::Ping { token }.encode()))
        .unwrap();
    match read_reply_raw(&mut s) {
        Some(Reply::Pong { token: t, .. }) => assert_eq!(t, token),
        other => panic!("expected a Pong, got {other:?}"),
    }
    s
}

fn expect_error(stream: &mut TcpStream, expected: ErrorCode) {
    match read_reply_raw(stream) {
        Some(Reply::Error { code, .. }) => assert_eq!(code, expected),
        other => panic!("expected a {expected:?} error, got {other:?}"),
    }
}

/// Everything at once: ≥ 16 connections open simultaneously — queriers
/// checking every reply against one epoch → fingerprint book (shared
/// with an in-process reader of the same snapshot store), two writers
/// whose ingest/retract pairs force warm refits under them, and one
/// hostile of each kind. No epoch may show two fingerprints to anyone,
/// each hostile draws its typed error, and the listener serves a fresh
/// client afterwards.
#[test]
fn concurrent_queriers_writers_and_hostiles_never_see_a_torn_epoch() {
    const QUERIERS: usize = 11;
    const WRITERS: usize = 2;
    // Queriers, writers, the slow loris and the three hostiles that can
    // ping before they attack; the bad-preamble client cannot, so it is
    // not waited for.
    const PARTIES: usize = QUERIERS + WRITERS + 1 + 3;

    let net = spawn_net();
    let addr = net.addr();
    let book = EpochBook::default();
    let (arrived, writers_done) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let meet = || arrive_and_wait(&arrived, PARTIES);
    let (book, writers_done) = (&book, &writers_done);

    thread::scope(|scope| {
        for q in 0..QUERIERS as u32 {
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("querier connects");
                client.ping().expect("ping");
                meet();
                let (mut last_epoch, mut i) = (0, q);
                let started = Instant::now();
                while writers_done.load(Ordering::SeqCst) < WRITERS {
                    assert!(started.elapsed() < Duration::from_secs(60), "writers hang");
                    let (epoch, fingerprint) = match i % 3 {
                        0 => {
                            let a = client.trust(SourceId::new(i % 4)).expect("trust");
                            (a.epoch, a.fingerprint)
                        }
                        1 => {
                            let a = client.top_k_sources(3).expect("top-k");
                            assert!(a.value.windows(2).all(|p| p[0].1 >= p[1].1));
                            (a.epoch, a.fingerprint)
                        }
                        _ => {
                            let asked = (0..4).map(SourceId::new).collect();
                            let a = client.trust_batch(asked).expect("trust batch");
                            (a.epoch, a.fingerprint)
                        }
                    };
                    book.note(epoch, fingerprint);
                    assert!(
                        epoch >= last_epoch,
                        "epoch went backwards on one connection"
                    );
                    last_epoch = epoch;
                    i += 1;
                }
            });
        }

        for w in 0..WRITERS as u32 {
            scope.spawn(move || {
                let _finished = Finished(writers_done);
                let mut client = NetClient::connect(addr).expect("writer connects");
                client.ping().expect("ping");
                meet();
                // Ingest a new source, wait for the refit that publishes
                // it, retract it, wait again: two epochs per writer.
                let source = 4 + w;
                let mut epoch = client.ping().expect("ping").0;
                let mut await_refit = |client: &mut NetClient| {
                    epoch = wait_until(Duration::from_secs(20), "a warm refit", || {
                        let (e, fingerprint) = client.ping().expect("ping during refit");
                        book.note(e, fingerprint);
                        (e > epoch).then_some(e)
                    });
                };
                let delta = (0..10).map(|d| obs(source, d, 0)).collect();
                assert_eq!(client.ingest(delta).expect("ingest ack"), 10);
                await_refit(&mut client);
                let keys = (0..10)
                    .map(|d| (SourceId::new(source), ItemId::new(d), ValueId::new(0)))
                    .collect();
                assert_eq!(client.retract(keys).expect("retract ack"), 10);
                await_refit(&mut client);
            });
        }

        // The in-process oracle: the same snapshot store, read without
        // the network in between, noted in the same book.
        scope.spawn(|| {
            let mut reader = net.handle().reader();
            while writers_done.load(Ordering::SeqCst) < WRITERS {
                let snap = reader.current();
                book.note(snap.epoch(), snap.fingerprint());
                thread::yield_now();
            }
        });

        // Slow loris: a second ping, one byte per write.
        scope.spawn(move || {
            let mut s = raw_conn_after_ping(addr, 1);
            meet();
            for b in encode_frame(&Request::Ping { token: 2 }.encode()) {
                s.write_all(&[b]).unwrap();
                s.flush().unwrap();
                thread::yield_now();
            }
            match read_reply_raw(&mut s) {
                Some(Reply::Pong { token, .. }) => assert_eq!(token, 2),
                other => panic!("slow client expected its pong, got {other:?}"),
            }
        });

        // Mid-frame disconnect: half an ingest frame, then gone.
        scope.spawn(move || {
            let mut s = raw_conn_after_ping(addr, 3);
            meet();
            let delta = (0..50).map(|d| obs(30, d, 0)).collect();
            let frame = encode_frame(&Request::Ingest { id: 7, delta }.encode());
            s.write_all(&frame[..frame.len() / 2]).unwrap();
        });

        // `u32::MAX` length prefix.
        scope.spawn(move || {
            let mut s = raw_conn_after_ping(addr, 4);
            meet();
            s.write_all(&u32::MAX.to_le_bytes()).unwrap();
            expect_error(&mut s, ErrorCode::FrameTooLarge);
        });

        // Flipped CRC bit.
        scope.spawn(move || {
            let mut s = raw_conn_after_ping(addr, 5);
            meet();
            let mut frame = encode_frame(&Request::Ping { token: 6 }.encode());
            let n = frame.len();
            frame[n - 1] ^= 0x40;
            s.write_all(&frame).unwrap();
            expect_error(&mut s, ErrorCode::BadCrc);
        });

        // Corrupt preamble, while everyone else is busy.
        scope.spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\nHost: kbt\r\n\r\n").unwrap();
            expect_error(&mut s, ErrorCode::BadMagic);
        });
    });

    let epochs_seen = book.0.lock().unwrap().len();
    assert!(
        epochs_seen >= 3,
        "refits ran under the queriers: {epochs_seen} epochs seen"
    );
    assert!(net.refits() >= 2, "the writers forced warm refits");

    // The listener still serves a fresh client, from the last epoch.
    let mut client = NetClient::connect(addr).expect("connect after the drill");
    let (epoch, fingerprint) = client.ping().expect("ping");
    book.note(epoch, fingerprint);
    assert!(client.trust(SourceId::new(0)).unwrap().value.is_some());

    let stats = net.stats();
    assert!(
        stats.peak_active >= PARTIES as u64,
        "{PARTIES} connections were open at once, peak_active {}",
        stats.peak_active
    );
    assert!(stats.protocol_errors >= 3, "{stats:?}");
    assert_eq!(stats.ingested_observations, 20);
    assert_eq!(stats.retracted_keys, 20);
    let down = net.shutdown().expect("hostile load never kills the server");
    assert!(down.durability.is_ok());
}

// ---- the durability drill ----

/// A hook whose ingest log is a brick wall: logging an additive batch
/// always fails.
struct DeadIngestLog;

impl DurabilityHook for DeadIngestLog {
    fn log(&mut self, delta: &Delta) -> Result<(), HookFailure> {
        match delta {
            Delta::Add(_) => Err("ingest log unwritable: disk full".into()),
            Delta::Remove(_) => Ok(()),
        }
    }

    fn commit(
        &mut self,
        _snapshot: &TrustSnapshot,
        _session: &FusionSession,
    ) -> Result<(), HookFailure> {
        Ok(())
    }
}

#[test]
fn hook_failure_degrades_to_typed_errors_while_queries_keep_serving() {
    let mut server = TrustServer::from_pipeline(
        TrustPipeline::new().observations(corpus()).threads(1),
        RefitMode::Warm,
    )
    .expect("seed corpus fits");
    server.set_hook(Box::new(DeadIngestLog));
    let net = NetServer::spawn(server, "127.0.0.1:0").expect("ephemeral bind");

    let mut client = NetClient::connect(net.addr()).expect("connect");
    let (epoch0, fp0) = client.ping().expect("ping");
    assert!(
        client.trust(SourceId::new(0)).unwrap().value.is_some(),
        "the seed fit is being served"
    );

    // The first batch is acked at the door, then the trust writer hits
    // the dead log; from that point every write is refused with a typed
    // DurabilityLost error carrying the hook's message.
    let detail = wait_until(Duration::from_secs(10), "degraded mode", || {
        match client.ingest(vec![obs(4, 0, 0)]) {
            Ok(_) => None,
            Err(ClientError::Server {
                code: ErrorCode::DurabilityLost,
                detail,
            }) => Some(detail),
            Err(other) => panic!("expected DurabilityLost, got {other}"),
        }
    });
    assert!(
        detail.contains("disk full"),
        "client sees the hook's own message, got: {detail}"
    );
    assert_eq!(net.degraded().as_deref(), Some(detail.as_str()));

    // Queries keep answering from the last published epoch — the
    // process did not die, and no partial batch was published.
    let (epoch1, fp1) = client.ping().expect("ping while degraded");
    assert_eq!(
        (epoch1, fp1),
        (epoch0, fp0),
        "no epoch moved past the failure"
    );
    assert!(client.trust(SourceId::new(0)).unwrap().value.is_some());

    // Shutdown hands the typed error back, staged at the failing call.
    let down = net.shutdown().expect("the process survived");
    let err = down.durability.expect_err("the hook failure is surfaced");
    assert_eq!(err.stage(), HookStage::LogIngest);
    assert_eq!(
        down.server.epoch(),
        epoch0,
        "in-memory state never ran ahead"
    );
}

// ---- the write path as one thing ----

/// Regression: the trust writer used to leave on a stop poll while
/// connection threads could still ack for one more poll interval, so a
/// batch acked on the way into shutdown was neither applied nor handed
/// back. Writers keep ingesting across `shutdown()`; every observation
/// the server acked must be in the cube it returns.
#[test]
fn batches_acked_during_shutdown_are_applied() {
    const WRITERS: u32 = 3;
    let net = spawn_net();
    let addr = net.addr();
    let closing = AtomicBool::new(false);
    let closing = &closing;

    let (down, acked) = thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("writer connects");
                    let mut acked = 0usize;
                    // One fresh item per batch: an acked batch is exactly
                    // one new group of this writer's source.
                    for d in 10.. {
                        if closing.load(Ordering::SeqCst) {
                            break;
                        }
                        match client.ingest(vec![obs(w, d, 0)]) {
                            Ok(n) => acked += n as usize,
                            Err(ClientError::Server {
                                code: ErrorCode::Overloaded,
                                ..
                            }) => {}
                            Err(_) => break, // the server hung up first
                        }
                        thread::sleep(Duration::from_millis(1));
                    }
                    acked
                })
            })
            .collect();
        // Writers outlive the stop flag by a few poll intervals, so acks
        // keep landing while the server is already shutting down.
        scope.spawn(|| {
            thread::sleep(Duration::from_millis(160));
            closing.store(true, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(80));
        let down = net.shutdown().expect("clean shutdown");
        let acked: Vec<usize> = writers.into_iter().map(|w| w.join().unwrap()).collect();
        (down, acked)
    });

    assert!(down.durability.is_ok());
    let cube = down.server.session().cube();
    for (w, &n) in acked.iter().enumerate() {
        assert!(n > 0, "writer {w} got batches in");
        assert_eq!(
            cube.source_size(SourceId::new(w as u32)),
            10 + n,
            "every batch acked to writer {w} was applied"
        );
    }
    assert_eq!(
        down.stats.ingested_observations,
        acked.iter().sum::<usize>() as u64
    );
    assert_eq!(down.server.pending(), (0, 0), "the queue was drained");
}

/// A hook whose `log` parks the trust-writer thread until the test lets
/// go of the gate (a dropped gate lets everything through).
struct GatedLog {
    entered: mpsc::Sender<()>,
    gate: mpsc::Receiver<()>,
}

impl DurabilityHook for GatedLog {
    fn log(&mut self, _delta: &Delta) -> Result<(), HookFailure> {
        let _ = self.entered.send(());
        let _ = self.gate.recv();
        Ok(())
    }

    fn commit(
        &mut self,
        _snapshot: &TrustSnapshot,
        _session: &FusionSession,
    ) -> Result<(), HookFailure> {
        Ok(())
    }
}

/// The ingest queue is bounded: with the writer held inside the hook,
/// 64 batches queue, the next one is refused with `Overloaded` on a
/// connection that stays usable, and letting the writer go folds every
/// acked batch into one refit.
#[test]
fn a_full_ingest_queue_answers_overloaded_and_drains_into_one_refit() {
    const QUEUE: u32 = 64;
    let mut server = TrustServer::from_pipeline(
        TrustPipeline::new().observations(corpus()).threads(1),
        RefitMode::Warm,
    )
    .expect("seed corpus fits");
    let (entered, entered_rx) = mpsc::channel();
    let (gate_tx, gate) = mpsc::channel();
    server.set_hook(Box::new(GatedLog { entered, gate }));
    let net = NetServer::spawn(server, "127.0.0.1:0").expect("ephemeral bind");
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let (epoch0, _) = client.ping().expect("ping");

    // Batch 0 reaches the writer, which parks in `log` holding it.
    assert_eq!(client.ingest(vec![obs(4, 0, 0)]).expect("ack"), 1);
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the writer took the first batch");
    // The queue takes exactly its bound…
    for d in 1..=QUEUE {
        assert_eq!(client.ingest(vec![obs(4, d, 0)]).expect("queued"), 1);
    }
    // …and not one batch more; retractions share the queue.
    match client.ingest(vec![obs(4, QUEUE + 1, 0)]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    match client.retract(vec![(SourceId::new(0), ItemId::new(0), ValueId::new(0))]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Overloaded),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Backpressure is not a disconnect, and nothing was published yet.
    assert_eq!(client.ping().expect("same connection").0, epoch0);

    // Release: batch 0 refits alone (it was taken alone), then the 64
    // queued batches come out as one burst and one refit.
    drop(gate_tx);
    wait_until(Duration::from_secs(20), "the drained refit", || {
        (client.ping().expect("ping").0 == epoch0 + 2).then_some(())
    });
    assert_eq!(net.refits(), 2);
    let down = net.shutdown().expect("clean shutdown");
    assert!(down.durability.is_ok());
    assert_eq!(down.stats.ingested_observations, u64::from(QUEUE) + 1);
    assert_eq!(down.stats.retracted_keys, 0);
    assert_eq!(down.server.epoch(), epoch0 + 2);
    assert_eq!(
        down.server.session().cube().source_size(SourceId::new(4)),
        QUEUE as usize + 1,
        "every acked batch was applied"
    );
}

/// The slow-consumer rule is the write timeout: a client that pipelines
/// large top-k requests and never reads a byte fills its socket, parks
/// its own connection's thread in a write, and is cut loose once that
/// write makes no progress — while a well-behaved client on the same
/// server is answered before, during and after.
#[test]
fn a_client_that_never_reads_is_disconnected_while_others_are_served() {
    const SOURCES: u32 = 2000;
    let wide: Vec<Observation> = (0..SOURCES)
        .flat_map(|w| (0..2).map(move |d| obs(w, d, w % 2)))
        .collect();
    let server = TrustServer::from_pipeline(
        TrustPipeline::new().observations(wide).threads(1),
        RefitMode::Warm,
    )
    .expect("wide corpus fits");
    let net = NetServer::spawn(server, "127.0.0.1:0").expect("ephemeral bind");
    let mut good = NetClient::connect(net.addr()).expect("connect");
    good.ping().expect("ping");

    // ~24 KB per reply, 21 bytes per request: the requests always fit
    // the server's receive window, the replies soon fit nowhere.
    let mut hog = raw_conn_after_ping(net.addr(), 1);
    wait_until(Duration::from_secs(10), "both connections active", || {
        (net.stats().active == 2).then_some(())
    });
    let request = encode_frame(&Request::TopKSources { id: 7, k: SOURCES }.encode());
    wait_until(Duration::from_secs(60), "the hog's disconnect", || {
        for _ in 0..64 {
            // A failed write is the disconnect arriving; keep polling.
            let _ = hog.write_all(&request);
        }
        assert_eq!(
            good.top_k_sources(3)
                .expect("served beside the hog")
                .value
                .len(),
            3
        );
        (net.stats().active == 1).then_some(())
    });

    // The server side is gone: what the kernel still holds drains to EOF.
    hog.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut sink = vec![0u8; 1 << 16];
    while matches!(hog.read(&mut sink), Ok(n) if n > 0) {}
    good.ping().expect("still served afterwards");
    let down = net.shutdown().expect("clean shutdown");
    assert_eq!(down.stats.accepted, 2);
}

/// The same peer met while *stopping*: it pipelines requests and reads
/// none of the answers, so its connection's thread parks in a socket
/// write. `shutdown()` joins that thread, and only the write timeout
/// lets the join return while the peer keeps its socket open.
#[test]
fn shutdown_is_not_held_by_a_client_that_never_reads() {
    // ~240 KB per reply: 100 of them fit no pair of socket buffers.
    const SOURCES: u32 = 20_000;
    const REQUESTS: u64 = 100;
    let wide: Vec<Observation> = (0..SOURCES)
        .flat_map(|w| (0..2).map(move |d| obs(w, d, w % 2)))
        .collect();
    let server = TrustServer::from_pipeline(
        TrustPipeline::new().observations(wide).threads(1),
        RefitMode::Warm,
    )
    .expect("wide corpus fits");
    let net = NetServer::spawn(server, "127.0.0.1:0").expect("ephemeral bind");
    let mut hog = raw_conn_after_ping(net.addr(), 1);
    let request = encode_frame(&Request::TopKSources { id: 7, k: SOURCES }.encode());
    for _ in 0..REQUESTS {
        hog.write_all(&request)
            .expect("21-byte requests always fit");
    }
    wait_until(Duration::from_secs(60), "the first reply", || {
        (net.stats().queries >= 1).then_some(())
    });

    let down = shutdown_watched(net, "the peer still holds its socket open");
    assert_eq!(down.stats.accepted, 1);
    drop(hog);
}

/// `shutdown()` on a watched thread: it must return within 20 s while
/// `condition` holds.
fn shutdown_watched(net: NetServer, condition: &str) -> NetShutdown {
    let (done_tx, done_rx) = mpsc::channel();
    let watched = thread::spawn(move || {
        let _ = done_tx.send(net.shutdown());
    });
    let down = done_rx
        .recv_timeout(Duration::from_secs(20))
        .unwrap_or_else(|_| panic!("shutdown did not return while {condition}"));
    watched.join().expect("the shutdown thread");
    down.expect("clean shutdown")
}

/// Regression: the stop flag was polled only when a read timed out, so a
/// client that asks more often than the poll interval held its
/// connection's thread — and `shutdown()`, which joins it — for as long
/// as it kept asking. It now draws the stop notice after a reply.
#[test]
fn shutdown_is_not_held_by_a_client_that_never_pauses() {
    let net = spawn_net();
    let addr = net.addr();
    let (pinging_tx, pinging) = mpsc::channel();
    let pinger = thread::spawn(move || {
        let mut client = NetClient::connect(addr).expect("connect");
        loop {
            if let Err(e) = client.ping() {
                return e;
            }
            let _ = pinging_tx.send(());
        }
    });
    pinging
        .recv_timeout(Duration::from_secs(10))
        .expect("the pinger is answered");

    let down = shutdown_watched(net, "a client pings in a tight loop");
    assert_eq!(down.stats.accepted, 1);
    match pinger.join().expect("the pinger") {
        ClientError::Server {
            code: ErrorCode::ShuttingDown,
            ..
        }
        | ClientError::Disconnected => {}
        other => panic!("expected the stop notice or EOF, got {other}"),
    }
}

/// `accept` blocks; `shutdown()` wakes it with a connection of its own —
/// through loopback when the server is bound to the unspecified address
/// — that is neither served nor counted.
#[test]
fn shutdown_wakes_a_listener_bound_to_the_unspecified_address() {
    let server = TrustServer::from_pipeline(
        TrustPipeline::new().observations(corpus()).threads(1),
        RefitMode::Warm,
    )
    .expect("seed corpus fits");
    let net = NetServer::spawn(server, "0.0.0.0:0").expect("bind every interface");
    let mut client = NetClient::connect(("127.0.0.1", net.addr().port())).expect("connect");
    client.ping().expect("ping");

    let down = shutdown_watched(net, "the listener is bound to 0.0.0.0");
    assert_eq!(down.stats.accepted, 1);
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kbt-net-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The restart drill, in both refit modes: a durable server behind the
/// socket, stopped without a checkpoint, comes back from its directory
/// serving the `(epoch, fingerprint)` it last served — the log is
/// replayed through the live server's own refit step, once per commit —
/// and its next epoch is the one a twin that never stopped publishes.
#[test]
fn durable_service_restarts_on_the_epoch_and_fingerprint_it_last_served() {
    for mode in [RefitMode::Warm, RefitMode::Cold] {
        let dir = fresh_dir(&format!("restart-{mode:?}"));
        let session = || {
            TrustPipeline::new()
                .observations(corpus())
                .threads(1)
                .into_session()
                .expect("seed corpus fits")
        };
        let model = session().model().clone();
        let keys = |d: std::ops::Range<u32>| -> Vec<_> {
            d.map(|d| (SourceId::new(9), ItemId::new(d), ValueId::new(0)))
                .collect()
        };
        // One request per refit, the same on both sides: over the wire,
        // and straight into a twin with no socket, store or restart.
        let mut twin = TrustServer::new(session(), mode);
        let mut advance = |client: &mut NetClient, delta: Delta| -> (u64, u64) {
            let (before, _) = client.ping().expect("ping");
            match delta.clone() {
                Delta::Add(obs) => client.ingest(obs).unwrap(),
                Delta::Remove(keys) => client.retract(keys).unwrap(),
            };
            wait_until(Duration::from_secs(20), "a committed refit", || {
                (client.ping().expect("ping").0 > before).then_some(())
            });
            twin.submit(delta).expect("no hook to fail");
            let snap = twin.refit().unwrap().expect("batch publishes");
            (snap.epoch(), snap.fingerprint())
        };

        // First process: create, serve, write over the wire, stop. The
        // default policy checkpoints every 8 applied batches, so all of
        // this lives in the log alone.
        let durable = DurableTrustServer::create(&dir, session(), mode, StoreConfig::default())
            .expect("create store");
        let net = NetServer::spawn(durable.into_server(), "127.0.0.1:0").expect("ephemeral bind");
        let mut client = NetClient::connect(net.addr()).expect("connect");
        let (epoch0, _) = client.ping().expect("ping");
        let mut twin_at = (0, 0);
        for delta in [
            Delta::Add((0..10).map(|d| obs(9, d, 0)).collect()),
            Delta::Remove(keys(0..4)),
            Delta::Add(vec![obs(9, 0, 1), obs(10, 3, 1)]),
            Delta::Remove(keys(4..5)),
        ] {
            twin_at = advance(&mut client, delta);
        }
        let served = client.ping().expect("ping");
        assert_eq!(served.0, epoch0 + 4);
        assert_eq!(served, twin_at, "{mode:?}: the store changes no bit");
        let down = net.shutdown().expect("clean shutdown");
        assert!(down.durability.is_ok());
        assert_eq!(down.server.epoch(), served.0);
        drop(down); // no checkpoint: the restart has to replay the log

        // Second process: open the directory, serve it again.
        let reopened = DurableTrustServer::open(&dir, model, mode, StoreConfig::default())
            .expect("open after restart");
        let net = NetServer::spawn(reopened.into_server(), "127.0.0.1:0").expect("ephemeral bind");
        let mut client = NetClient::connect(net.addr()).expect("connect");
        assert_eq!(
            client.ping().expect("ping"),
            served,
            "{mode:?}: same epoch, same bits"
        );
        let twin_next = advance(&mut client, Delta::Add(vec![obs(11, 1, 0)]));
        assert_eq!(
            client.ping().expect("ping"),
            twin_next,
            "{mode:?}: the restart is invisible in the next epoch too"
        );
        assert_eq!(twin_next.0, served.0 + 1);

        // The server shutdown hands back is still durable: checkpoint it.
        let mut down = net.shutdown().expect("clean shutdown");
        assert!(down.durability.is_ok());
        assert_eq!(
            down.server.checkpoint_now().expect("checkpoint"),
            served.0 + 1
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Commit-stage degrade with the real store: its directory vanishes
/// under the running server, the next batch is logged (the log's handle
/// is still open), applied and published, the checkpoint that publish
/// triggers fails — and from then on writes are refused with the
/// store's own message while queries keep answering.
#[test]
fn a_store_that_loses_its_directory_degrades_at_the_commit_stage() {
    let dir = fresh_dir("degrade");
    let session = TrustPipeline::new()
        .observations(corpus())
        .threads(1)
        .into_session()
        .expect("seed corpus fits");
    let config = StoreConfig {
        checkpoint_every: 1,
        keep_checkpoints: 2,
    };
    let durable =
        DurableTrustServer::create(&dir, session, RefitMode::Warm, config).expect("create store");
    let net = NetServer::spawn(durable.into_server(), "127.0.0.1:0").expect("ephemeral bind");
    let mut client = NetClient::connect(net.addr()).expect("connect");
    let (epoch0, _) = client.ping().expect("ping");

    std::fs::remove_dir_all(&dir).expect("pull the directory out");
    assert_eq!(client.ingest(vec![obs(4, 0, 0)]).expect("acked"), 1);
    let detail = wait_until(Duration::from_secs(10), "degraded mode", || {
        match client.ingest(vec![obs(4, 1, 0)]) {
            Ok(_) => None,
            Err(ClientError::Server {
                code: ErrorCode::DurabilityLost,
                detail,
            }) => Some(detail),
            Err(other) => panic!("expected DurabilityLost, got {other}"),
        }
    });
    assert!(
        detail.contains("commit") && detail.contains("store I/O error"),
        "client sees the stage and the store's own message, got: {detail}"
    );
    assert_eq!(net.degraded().as_deref(), Some(detail.as_str()));

    // The batch was published in memory before its commit failed, and
    // queries go on answering from it.
    assert_eq!(client.ping().expect("ping while degraded").0, epoch0 + 1);
    assert!(client.trust(SourceId::new(4)).unwrap().value.is_some());

    let down = net.shutdown().expect("the process survived");
    let err = down.durability.expect_err("the store failure is surfaced");
    assert_eq!(err.stage(), HookStage::Commit);
    assert_eq!(down.server.epoch(), epoch0 + 1);
}
