//! The four wire formats, bytes first: `KBTWAL01`, `KBTSNAP1` and
//! `KBTNET01` goldens (length + FNV-1a of what the encoders produced
//! before they were rebuilt on `kbt_datamodel::wire`'s one frame codec;
//! `KBTCHNK5`'s golden lives with its encoder, `file_store_bytes_are_golden`),
//! then one hostile corpus through all four decoders.

use kbt::core::ModelConfig;
use kbt::datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt::net::proto::{encode_frame, encode_preamble};
use kbt::net::{ErrorCode, Reply, Request, WireStats};
use kbt::store::{encode_checkpoint, WalWriter};
use kbt::{Model, RefitMode, TrustPipeline, TrustServer};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn obs(e: u32, w: u32, d: u32, v: u32, c: f64) -> Observation {
    Observation {
        extractor: ExtractorId::new(e),
        source: SourceId::new(w),
        item: ItemId::new(d),
        value: ValueId::new(v),
        confidence: c,
    }
}

fn key(w: u32, d: u32, v: u32) -> (SourceId, ItemId, ValueId) {
    (SourceId::new(w), ItemId::new(d), ValueId::new(v))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kbt-wire-formats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Header + add + remove + commit, as `DurableTrustServer` appends them.
fn sample_wal(name: &str) -> Vec<u8> {
    let path = tmp(name);
    let mut w = WalWriter::create(&path, 0x0123_4567_89ab_cdef, 7).unwrap();
    w.append_add(&[obs(0, 1, 2, 3, 0.625), obs(4, 5, 6, 7, 1.0)])
        .unwrap();
    w.append_remove(&[key(1, 2, 3)]).unwrap();
    w.append_commit(8).unwrap();
    w.sync().unwrap();
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    bytes
}

/// A checkpoint of a small single-threaded multi-layer fit.
fn sample_checkpoint() -> Vec<u8> {
    let mut corpus = Vec::new();
    for w in 0..6u32 {
        for d in 0..12u32 {
            let errs = (w * 37 + d * 13) % 10 < w;
            let v = if errs { 3 + (w + d) % 3 } else { d % 3 };
            for e in 0..2u32 {
                if (w + d + e) % 4 != 0 {
                    corpus.push(obs(e, w, d, v, 1.0));
                }
            }
        }
    }
    let server = TrustServer::from_pipeline(
        TrustPipeline::new()
            .observations(corpus)
            .model(Model::MultiLayer(ModelConfig {
                threads: Some(1),
                ..ModelConfig::default()
            })),
        RefitMode::Cold,
    )
    .unwrap();
    encode_checkpoint(&server.handle().snapshot(), server.session().cube(), 7)
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Ping { token: 0xfeed },
        Request::Trust {
            id: 1,
            source: SourceId::new(1234),
        },
        Request::Posterior {
            id: 2,
            item: ItemId::new(5),
            value: ValueId::new(6),
        },
        Request::TriplePosterior {
            id: 3,
            source: SourceId::new(7),
            item: ItemId::new(8),
            value: ValueId::new(9),
        },
        Request::TopKSources { id: 4, k: 100 },
        Request::TrustBatch {
            id: 5,
            sources: (0..64).map(|i| SourceId::new(i * 37)).collect(),
        },
        Request::Ingest {
            id: 6,
            delta: vec![obs(0, 1, 2, 3, 0.625), obs(4, 5, 6, 7, 1.0)],
        },
        Request::Retract {
            id: 7,
            keys: vec![key(1, 2, 3), key(4, 5, 6)],
        },
        Request::Stats { id: 8 },
    ]
}

fn sample_replies() -> Vec<Reply> {
    let (epoch, fingerprint) = (3, 0x1234_5678_9abc_def0);
    vec![
        Reply::Pong {
            token: 0xfeed,
            epoch,
            fingerprint,
        },
        Reply::Trust {
            id: 1,
            epoch,
            fingerprint,
            value: Some(0.8125),
        },
        Reply::Posterior {
            id: 2,
            epoch,
            fingerprint,
            value: None,
        },
        Reply::TriplePosterior {
            id: 3,
            epoch,
            fingerprint,
            value: Some(0.25),
        },
        Reply::TopK {
            id: 4,
            epoch,
            fingerprint,
            sources: vec![(SourceId::new(9), 0.99), (SourceId::new(2), 0.5)],
        },
        Reply::TrustBatch {
            id: 5,
            epoch,
            fingerprint,
            values: (0..64)
                .map(|i| (i % 5 != 0).then_some(i as f64 / 64.0))
                .collect(),
        },
        Reply::IngestAck { id: 6, queued: 2 },
        Reply::RetractAck { id: 7, queued: 2 },
        Reply::StatsReply {
            id: 8,
            epoch,
            fingerprint,
            stats: WireStats {
                accepted: 1,
                active: 2,
                peak_active: 3,
                queries: 4,
                ingested_observations: 5,
                retracted_keys: 6,
                protocol_errors: 7,
            },
        },
        Reply::Error {
            id: 9,
            code: ErrorCode::Overloaded,
            detail: "ingest queue full".into(),
        },
    ]
}

#[test]
fn wal_bytes_are_golden() {
    let bytes = sample_wal("golden.log");
    assert_eq!(&bytes[..8], b"KBTWAL01");
    assert_eq!((bytes.len(), fnv1a(&bytes)), (135, 0x7621_fdba_27c4_b322));
}

/// Re-pinned once, for format version 2: the header's version field and
/// the 61-byte warm section before the fingerprint (the serving-mode
/// byte, then the extractor precision / recall / Q columns of this
/// two-extractor fit, each behind its own `u32` count). Every byte a
/// version-1 file had is still written, in place; version 1 was 4658
/// bytes, `0x397f_1806_5325_f62c`. Re-pinned once more when the fit's
/// sums became correctly rounded exact sums: the same 4719 bytes, of
/// which only the low mantissa bytes of fitted floats, the fingerprint
/// and the CRC moved (`0x4ac1_d00e_ec1f_7179` before). Re-pinned for
/// format version 3, when the cube's groups went item-major: the same
/// 4719 bytes, with the version field, the cube section's cells and the
/// snapshot's triples in `(item, source, value)` order, and the
/// fingerprint and the CRC moved (`0x5cb8_9ef0_b2c6_a5ae` before).
/// Re-pinned for format version 4, when the snapshot section stopped
/// repeating the cube's group keys: 872 bytes shorter (the snapshot's
/// `u64` triple count and a 12-byte key for each of the 72 groups), the
/// version field moved, and so did the fingerprint — it no longer covers
/// the truth rank order or the calibration histogram, both deleted — and
/// the CRC (4719 bytes, `0x374a_365b_f169_ca52` before). Re-pinned for
/// format version 5, when the snapshot section stopped writing a truth
/// column (a triple's truth is its item's posterior): 576 bytes shorter
/// (an `f64` for each of the 72 groups), the version field moved, and so
/// did the fingerprint — it no longer hashes a truth word per group — and
/// the CRC (3847 bytes, `0x0a26_58ec_73fc_fffd` before). Re-pinned for
/// format version 6, when the cube section became the cube's item frames
/// (the four id-space sizes, the frame count, then this one-frame cube's
/// frame in the chunk store's encoding) instead of a `u64` cell count and
/// a 24-byte observation for each of the 108 cells: 184 bytes shorter
/// (2,616 section bytes became 2,432), and the version field and the CRC
/// moved (3271 bytes, `0xaa12_abea_f723_b756` before).
#[test]
fn checkpoint_bytes_are_golden() {
    let bytes = sample_checkpoint();
    assert_eq!(&bytes[..8], b"KBTSNAP1");
    assert_eq!((bytes.len(), fnv1a(&bytes)), (3087, 0xe471_f68b_d4c5_8b0d));
}

/// A checkpoint writes each group key once, in its cube section: the
/// decoded snapshot serves exactly the decoded cube's groups, a snapshot
/// written beside another cube does not decode (the stored fingerprint
/// covers the keys), and a version-3 file (which wrote the keys twice), a
/// version-4 file (which wrote a truth column) or a version-5 file (which
/// wrote the cube as its cells) is refused at the header.
#[test]
fn a_checkpoint_snapshot_serves_its_cubes_groups() {
    let bytes = sample_checkpoint();
    let decoded = decode_checkpoint(&bytes, 7).unwrap();
    let groups: Vec<_> = (decoded.cube.groups().iter())
        .map(|g| (g.source, g.item, g.value))
        .collect();
    assert_eq!(decoded.snapshot.triple_keys(), groups);

    let other = decoded.cube.retract(&groups[..1]);
    let mispaired = encode_checkpoint(&decoded.snapshot, &other, 7);
    let err = decode_checkpoint(&mispaired, 7).unwrap_err().to_string();
    assert!(err.contains("stored fingerprint"), "{err}");

    for version in [3u8, 4, 5] {
        let mut old = bytes[..bytes.len() - 4].to_vec();
        old[8] = version;
        old.extend(crc32(&old).to_le_bytes());
        let err = decode_checkpoint(&old, 7).unwrap_err().to_string();
        let message = format!("unsupported format version {version}");
        assert!(err.contains(&message), "{err}");
    }
}

#[test]
fn net_bytes_are_golden() {
    let preamble = encode_preamble();
    assert_eq!(&preamble[..8], b"KBTNET01");
    assert_eq!(
        (preamble.len(), fnv1a(&preamble)),
        (12, 0xf6e7_d340_05de_3e65)
    );

    let requests: Vec<(usize, u64)> = sample_requests()
        .iter()
        .map(|r| encode_frame(&r.encode()))
        .map(|f| (f.len(), fnv1a(&f)))
        .collect();
    assert_eq!(
        requests,
        [
            (17, 0x9169_a485_e427_eb7f),
            (21, 0x6cae_452f_9ad3_c9df),
            (25, 0xbd60_bbac_21b5_a4aa),
            (29, 0xe91a_0854_61b9_0f47),
            (21, 0xaf5c_68b3_22a8_a349),
            (277, 0x813c_3d9e_c666_881a),
            (69, 0xafc6_be63_33b2_70ee),
            (45, 0x2bae_36fb_7943_9858),
            (17, 0x268b_1e57_14bc_d258),
        ]
    );
    let replies: Vec<(usize, u64)> = sample_replies()
        .iter()
        .map(|r| encode_frame(&r.encode()))
        .map(|f| (f.len(), fnv1a(&f)))
        .collect();
    assert_eq!(
        replies,
        [
            (33, 0xf91e_f6ca_58ef_03b4),
            (42, 0xda93_ed45_21af_6191),
            (42, 0x5653_35be_2fa2_eac7),
            (42, 0xf810_62d2_65f6_ccef),
            (61, 0x7062_598b_6ecd_5800),
            (613, 0xe67a_28c1_a1b7_88d9),
            (21, 0x8da7_a07a_a373_502f),
            (21, 0xe819_2172_6987_3197),
            (89, 0x0e9e_1bed_abca_fdc9),
            (39, 0xb6cb_43ee_358f_84ce),
        ]
    );
}

// ---- the hostile corpus ----

use std::ops::Range;

use kbt::datamodel::wire::{crc32, WireError, WireReader};
use kbt::datamodel::{ChunkBuf, ChunkedCube, ChunkingConfig, CubeBuilder, FileChunkStore};
use kbt::net::{FrameBuffer, ProtoError, DEFAULT_MAX_FRAME_BYTES};
use kbt::store::{decode_checkpoint, wal::read_wal, StoreError};

/// One format under attack: a valid sample, where its checked regions
/// and decoded length / count fields sit, and its production decoder.
struct Format {
    name: &'static str,
    sample: Vec<u8>,
    /// `(bytes a CRC covers, where that CRC is stored)`.
    sealed: Vec<(Range<usize>, usize)>,
    /// Offsets of every `u32` the decoder reads as a frame length.
    len_fields: Vec<usize>,
    /// `(offset, width)` of element counts inside CRC-covered payloads.
    count_fields: Vec<(usize, usize)>,
    /// Offset of the header's version field, if the format has one.
    version_at: Option<usize>,
    /// Bytes no decoder reads (flipping them changes nothing).
    unread: Vec<Range<usize>>,
    /// `Ok(units accepted)` or the typed error's message.
    decode: fn(&[u8]) -> Result<usize, String>,
}

impl Format {
    /// What the untouched sample decodes to.
    fn full(&self) -> usize {
        (self.decode)(&self.sample).expect("the sample is valid")
    }

    /// Recompute every CRC, so a mutation reaches the check behind it.
    fn reseal(&self, bytes: &mut [u8]) {
        for (covered, at) in &self.sealed {
            let crc = crc32(&bytes[covered.clone()]);
            bytes[*at..*at + 4].copy_from_slice(&crc.to_le_bytes());
        }
    }

    /// `bytes` must not decode to what the sample decodes to, must not
    /// panic, and — where a message is expected — must fail with it.
    fn rejects(&self, case: &str, bytes: &[u8], message: Option<&str>) {
        let decode = self.decode;
        let got = std::panic::catch_unwind(|| decode(bytes))
            .unwrap_or_else(|_| panic!("{} / {case}: the decoder panicked", self.name));
        match (&got, message) {
            (Ok(n), _) => assert!(*n < self.full(), "{} / {case}: accepted", self.name),
            (Err(e), Some(m)) => assert!(e.contains(m), "{} / {case}: {e}", self.name),
            (Err(_), None) => {}
        }
    }
}

/// `[len][payload][crc]` frames tiling `bytes[from..]`.
fn frames_of(bytes: &[u8], from: usize) -> (Vec<(Range<usize>, usize)>, Vec<usize>) {
    let (mut sealed, mut len_fields, mut at) = (Vec::new(), Vec::new(), from);
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        len_fields.push(at);
        sealed.push((at + 4..at + 4 + len, at + 4 + len));
        at += len + 8;
    }
    (sealed, len_fields)
}

fn decode_stream(
    bytes: &[u8],
    preamble: bool,
    payload: fn(&[u8]) -> Result<(), ProtoError>,
) -> Result<usize, String> {
    let mut fb = FrameBuffer::new();
    fb.push(bytes);
    if preamble && !fb.take_preamble().map_err(|e| e.to_string())? {
        return Ok(0);
    }
    let mut frames = 0;
    while let Some(p) = fb
        .next_frame(DEFAULT_MAX_FRAME_BYTES)
        .map_err(|e| e.to_string())?
    {
        payload(&p).map_err(|e| e.to_string())?;
        frames += 1;
    }
    Ok(frames)
}

fn net_requests() -> Format {
    let mut sample = encode_preamble();
    for r in sample_requests() {
        sample.extend(encode_frame(&r.encode()));
    }
    let (sealed, len_fields) = frames_of(&sample, 12);
    let batch = sealed[5].0.start; // TrustBatch: kind u8, id u64, count
    Format {
        name: "KBTNET01 requests",
        count_fields: vec![(batch + 9, 4)],
        version_at: Some(8),
        unread: vec![],
        decode: |b| decode_stream(b, true, |p| Request::decode(p).map(drop)),
        sample,
        sealed,
        len_fields,
    }
}

fn net_replies() -> Format {
    let sample: Vec<u8> = sample_replies()
        .iter()
        .flat_map(|r| encode_frame(&r.encode()))
        .collect();
    let (sealed, len_fields) = frames_of(&sample, 0);
    let batch = sealed[5].0.start; // TrustBatch: kind, id, epoch, fingerprint, count
    Format {
        name: "KBTNET01 replies",
        count_fields: vec![(batch + 25, 4)],
        version_at: None,
        unread: vec![],
        decode: |b| decode_stream(b, false, |p| Reply::decode(p).map(drop)),
        sample,
        sealed,
        len_fields,
    }
}

fn wal() -> Format {
    let sample = sample_wal("hostile-sample.log");
    let (mut sealed, len_fields) = frames_of(&sample, 32);
    let add = sealed[0].0.start; // AddBatch: kind u8, count
    sealed.push((0..28, 28));
    Format {
        name: "KBTWAL01",
        count_fields: vec![(add + 1, 4)],
        version_at: Some(8),
        unread: vec![],
        // Records, plus one for a clean end: a torn log decodes to less.
        decode: |b| {
            let path = tmp(&format!("hostile-{:?}.log", std::thread::current().id()));
            std::fs::write(&path, b).unwrap();
            let out = read_wal(&path, 0x0123_4567_89ab_cdef).map_err(|e| e.to_string());
            std::fs::remove_file(&path).unwrap();
            out.map(|o| o.records.len() + o.clean as usize)
        },
        sample,
        sealed,
        len_fields,
    }
}

/// Offsets of the sample checkpoint's warm section, counted back from
/// the trailing CRC at `end`: `[mode byte, precision, recall, Q]`, each
/// column a `u32` count (2 extractors) and its `f64`s, then the 8-byte
/// fingerprint.
fn warm_section(end: usize) -> [usize; 4] {
    let column = 4 + 2 * 8;
    let q = end - 8 - column;
    [q - 2 * column - 1, q - 2 * column, q - column, q]
}

/// Offsets in the sample checkpoint's cube section of frame 0's eight
/// column counts (seven `u32` columns, then the `f64` confidences), each
/// followed by its elements. The section is the four id-space sizes from
/// byte 20 on, the frame count at [`FRAME_COUNT_AT`], then frame 0: its
/// item range, then the columns.
fn frame_columns(sample: &[u8]) -> [usize; 8] {
    let mut at = FRAME_COUNT_AT + 12;
    std::array::from_fn(|k| {
        let count = u32::from_le_bytes(sample[at..at + 4].try_into().unwrap()) as usize;
        let width = if k < 7 { 4 } else { 8 };
        at += 4 + width * count;
        at - 4 - width * count
    })
}

/// Header 12, config digest 8, four `u32` id-space sizes.
const FRAME_COUNT_AT: usize = 36;

fn checkpoint() -> Format {
    let sample = sample_checkpoint();
    let end = sample.len() - 4;
    Format {
        name: "KBTSNAP1",
        sealed: vec![(0..end, end)],
        len_fields: vec![],
        // The cube section's frame count and frame 0's column counts; and
        // the warm section's three extractor-column counts.
        count_fields: std::iter::once(FRAME_COUNT_AT)
            .chain(frame_columns(&sample))
            .chain(warm_section(end)[1..].iter().copied())
            .map(|at| (at, 4))
            .collect(),
        version_at: Some(8),
        unread: vec![],
        decode: |b| {
            decode_checkpoint(b, 7)
                .map(|_| 1)
                .map_err(|e| e.to_string())
        },
        sample,
    }
}

fn chunk_store() -> Format {
    let mut b = CubeBuilder::new();
    for w in 0..6u32 {
        for d in 0..9u32 {
            for e in 0..(1 + (w + d) % 3) {
                b.push(obs(e, w, d, (w + d) % 4, 0.3 + 0.1 * e as f64));
            }
        }
    }
    let cube = ChunkedCube::from_cube(&b.build(), &ChunkingConfig { target_cells: 8 });
    let path = tmp("hostile-sample.kbt");
    FileChunkStore::write(&cube, &path).unwrap();
    let sample = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let u32_at = |at: usize| u32::from_le_bytes(sample[at..at + 4].try_into().unwrap()) as usize;
    let tail = sample.len() - 8;
    let index_pos = u64::from_le_bytes(sample[tail..].try_into().unwrap()) as usize;
    let index = index_pos + 4..tail - 4;
    let mut r = WireReader::new(&sample[index.clone()]);
    let entry = |r: &mut WireReader<'_>| Ok::<_, WireError>((r.u64()? as usize, r.u32()? as usize));
    let entries: Vec<(usize, usize)> = r.seq(12, entry).unwrap();

    let meta = 12..12 + u32_at(8);
    let mut sealed = vec![(meta.clone(), meta.end), (index.clone(), index.end)];
    // The meta and index frames are found by their length prefixes; every
    // other frame by its index entry (the entry's `len` sits 8 bytes in).
    let mut len_fields = vec![8, index_pos];
    let mut unread = Vec::new();
    for (i, &(off, len)) in entries.iter().enumerate() {
        sealed.push((off..off + len, off + len));
        len_fields.push(index.start + 4 + 12 * i + 8);
        unread.push(off - 4..off);
    }
    // Item frame 0: its range, seven u32 columns (ending in the row cell
    // offsets and the cells' extractors), then the f64 confidence column.
    let first = entries[0].0 + 8;
    let cell_offsets = (0..5).fold(first, |at, _| at + 4 + 4 * u32_at(at));
    let extractors = cell_offsets + 4 + 4 * u32_at(cell_offsets);
    let confidences = extractors + 4 + 4 * u32_at(extractors);
    Format {
        name: "KBTCHNK5",
        // The meta frame's item-chunk count (after seven u32 dims), the
        // first column of item frame 0 (after its range), its row cell
        // offsets, and its f64 column.
        count_fields: vec![
            (meta.start + 28, 4),
            (first, 4),
            (cell_offsets, 4),
            (confidences, 4),
        ],
        version_at: None,
        decode: |b| {
            let path = tmp(&format!("hostile-{:?}.kbt", std::thread::current().id()));
            std::fs::write(&path, b).unwrap();
            let loaded = FileChunkStore::open(&path).and_then(|store| {
                for i in 0..store.num_chunks() {
                    store.load_chunk(i, &mut ChunkBuf::default())?;
                }
                Ok(store.num_chunks())
            });
            std::fs::remove_file(&path).unwrap();
            loaded.map_err(|e| {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
                e.to_string()
            })
        },
        sample,
        sealed,
        len_fields,
        unread,
    }
}

/// Every hostile shape through every decoder: a typed error (or, for
/// the stream formats, a shorter decode) — never a panic, never the
/// sample's content, never a buffer sized from the hostile number (a
/// `u32::MAX`-element reservation would abort this process).
#[test]
fn hostile_bytes_are_typed_errors_in_all_four_decoders() {
    for f in [
        net_requests(),
        net_replies(),
        wal(),
        checkpoint(),
        chunk_store(),
    ] {
        assert!(f.full() > 0, "{}", f.name);
        let patched = |at: usize, with: &[u8]| {
            let mut bytes = f.sample.clone();
            bytes[at..at + with.len()].copy_from_slice(with);
            f.reseal(&mut bytes);
            bytes
        };

        for &at in &f.len_fields {
            // Over any cap, then under the cap but past the end of input.
            f.rejects(
                "len = u32::MAX",
                &patched(at, &u32::MAX.to_le_bytes()),
                None,
            );
            f.rejects(
                "len = 2^19",
                &patched(at, &(1u32 << 19).to_le_bytes()),
                None,
            );
        }
        for &(at, width) in &f.count_fields {
            let bytes = patched(at, &[0xFF; 8][..width]);
            f.rejects("count overruns its payload", &bytes, Some("overruns"));
        }
        for cut in 0..f.sample.len() {
            f.rejects(&format!("cut to {cut} bytes"), &f.sample[..cut], None);
        }
        for at in (0..f.sample.len()).filter(|at| !f.unread.iter().any(|r| r.contains(at))) {
            let mut bytes = f.sample.clone();
            bytes[at] ^= 1 << (at % 8);
            f.rejects(&format!("bit flipped in byte {at}"), &bytes, None);
        }
        if f.sample.starts_with(b"KBT") {
            f.rejects("wrong magic", &patched(3, b"X"), Some("magic"));
        }
        if let Some(at) = f.version_at {
            f.rejects("wrong version", &patched(at, &[9]), Some("version 9"));
        }
    }
}

/// The checkpoint's version-2 warm section under attack, each shape
/// behind a valid whole-file CRC so it reaches the section's own checks.
#[test]
fn a_hostile_warm_section_is_a_typed_error() {
    let f = checkpoint();
    let end = f.sample.len() - 4;
    let sealed = |mut bytes: Vec<u8>| {
        let crc = crc32(&bytes);
        bytes.extend(crc.to_le_bytes());
        bytes
    };
    let body = &f.sample[..end];
    let [mode, _, _, q] = warm_section(end);

    // A version-1 file is not read as a current file minus a section,
    // nor a version-2 file (source-major triples) as an item-major one.
    for version in [1u8, 2] {
        let mut old = body.to_vec();
        old[8] = version;
        let message = format!("version {version}");
        f.rejects(&message, &sealed(old), Some(&message));
    }

    let mut bad_mode = body.to_vec();
    bad_mode[mode] = 3;
    f.rejects("serving mode 3", &sealed(bad_mode), Some("tag byte 0x03"));

    // One extractor's Q dropped, its column's count lowered to match:
    // the bytes parse, the three columns disagree.
    let mut ragged = body[..q].to_vec();
    ragged.extend(1u32.to_le_bytes());
    ragged.extend(&body[q + 4..q + 12]);
    ragged.extend(&body[end - 8..]);
    f.rejects(
        "columns of 2, 2 and 1 extractors",
        &sealed(ragged),
        Some("disagree on extractor count"),
    );

    // The file ends inside the section — at every byte of it.
    for cut in mode..end {
        f.rejects(
            &format!("sealed at {cut} bytes"),
            &sealed(body[..cut].to_vec()),
            None,
        );
    }
}

/// The cube section's frames under attack, each behind a valid
/// whole-file CRC so it reaches the frame checks: every shape parses, none
/// is a cube a build writes, and each is `StoreError::Corrupt`. Together
/// they break each invariant a build establishes (keys strictly
/// ascending, an item's value list exactly its rows' values in ascending
/// order, a row's extractors strictly ascending, confidences in
/// `[0, 1]`), the source and value id bounds, and the tiling of the
/// items.
#[test]
fn a_hostile_cube_section_is_corrupt() {
    let f = checkpoint();
    let u32_at = |at: usize| u32::from_le_bytes(f.sample[at..at + 4].try_into().unwrap());
    let [item_offsets, value_offsets, values, ig_source, ig_slot, cell_offsets, extractors, confidences] =
        frame_columns(&f.sample);
    // Element `i` of the `u32` column whose count sits at `column`.
    let at = |column: usize, i: u32| column + 4 + 4 * i as usize;
    let get = |column: usize, i: u32| u32_at(at(column, i));
    let le = |words: &[u32]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
    let (num_sources, num_items, num_values) = (u32_at(20), u32_at(28), u32_at(32));
    // The first item with two values: swapping them leaves every row's
    // slot in order but the value list descending.
    let pair = (0..num_items)
        .find(|&d| get(value_offsets, d + 1) - get(value_offsets, d) >= 2)
        .map(|d| get(value_offsets, d))
        .unwrap();

    let two_cells = (0..)
        .find(|&r| get(cell_offsets, r + 1) - get(cell_offsets, r) >= 2)
        .unwrap();
    let repeated = get(cell_offsets, two_cells);
    // Item 0's last row: its source is the item's largest, so only the
    // bound is broken, not the order.
    let last_row = get(item_offsets, 1) - 1;
    // A row whose value no other row of its item claims, moved to another
    // of the item's values: the rows stay in order, a value goes unclaimed.
    let (lone, other) = (0..num_items)
        .find_map(|d| {
            let values = get(value_offsets, d + 1) - get(value_offsets, d);
            let slots: Vec<(u32, u32)> = (get(item_offsets, d)..get(item_offsets, d + 1))
                .map(|r| (r, get(ig_slot, r)))
                .collect();
            let once = |&&(_, s): &&(u32, u32)| slots.iter().filter(|t| t.1 == s).count() == 1;
            let lone = slots.iter().find(once).filter(|_| values >= 2)?;
            Some((lone.0, (lone.1 + 1) % values))
        })
        .unwrap();
    for (case, offset, with) in [
        (
            "a NaN confidence",
            confidences + 4,
            f64::NAN.to_le_bytes().to_vec(),
        ),
        (
            "a repeated extractor in one row",
            at(extractors, repeated + 1),
            le(&[get(extractors, repeated)]),
        ),
        (
            "rows out of key order",
            at(ig_source, 0),
            le(&[get(ig_source, 1), get(ig_source, 0)]),
        ),
        ("a value no row claims", at(ig_slot, lone), le(&[other])),
        (
            "an item's values out of order",
            at(values, pair),
            le(&[get(values, pair + 1), get(values, pair)]),
        ),
        ("a value >= num_values", 32, le(&[num_values - 1])),
        (
            "a row source >= num_sources",
            at(ig_source, last_row),
            le(&[num_sources]),
        ),
        ("frames short of num_items", 28, le(&[num_items + 1])),
        ("frame 0 from item 1", FRAME_COUNT_AT + 4, le(&[1])),
    ] {
        let mut bytes = f.sample.clone();
        bytes[offset..offset + with.len()].copy_from_slice(&with);
        f.reseal(&mut bytes);
        f.rejects(case, &bytes, Some("malformed payload"));
        let decoded = decode_checkpoint(&bytes, 7);
        assert!(matches!(decoded, Err(StoreError::Corrupt(_))), "{case}");
    }
}

/// One bit flipped in every byte of the cube section's frames (past the
/// four id-space sizes), behind a valid whole-file CRC: the decode never
/// panics, and a flip it admits (a confidence halved, say) decodes to
/// exactly the cube `CubeBuilder` builds from that cube's own cells, an
/// oracle that shares no code with the frame checks.
#[test]
fn a_resealed_flip_in_the_frames_is_corrupt_or_a_built_cube() {
    let f = checkpoint();
    let confidences = frame_columns(&f.sample)[7];
    let count = u32::from_le_bytes(f.sample[confidences..confidences + 4].try_into().unwrap());
    let mut admitted = 0;
    for at in FRAME_COUNT_AT..confidences + 4 + 8 * count as usize {
        let mut bytes = f.sample.clone();
        bytes[at] ^= 1 << (at % 8);
        f.reseal(&mut bytes);
        let decoded = std::panic::catch_unwind(|| decode_checkpoint(&bytes, 7))
            .unwrap_or_else(|_| panic!("byte {at}: the decoder panicked"));
        let cube = match decoded {
            Ok(contents) => contents.cube,
            Err(StoreError::Corrupt(_)) => continue,
            Err(e) => panic!("byte {at}: {e}"),
        };
        let mut b = CubeBuilder::new();
        for (_, g, cells) in cube.iter_with_cells() {
            for c in cells {
                b.push(obs(
                    c.extractor.0,
                    g.source.0,
                    g.item.0,
                    g.value.0,
                    c.confidence,
                ));
            }
        }
        let spaces = [
            cube.num_sources(),
            cube.num_extractors(),
            cube.num_items(),
            cube.num_values(),
        ];
        let [w, e, d, v] = spaces.map(|n| n as u32);
        b.reserve_ids(w, e, d, v);
        let (mut got, mut built) = (Vec::new(), Vec::new());
        cube.encode(&mut got);
        b.build().encode(&mut built);
        assert!(got == built, "byte {at}: admitted a cube no build writes");
        admitted += 1;
    }
    assert!(admitted > 0, "no flip reached the oracle");
}

/// The same hostile length at the socket: four bytes in, a typed
/// `FrameTooLarge` out, before any payload byte is buffered.
#[test]
fn an_oversized_frame_is_refused_at_its_prefix() {
    let mut fb = FrameBuffer::new();
    fb.push(&u32::MAX.to_le_bytes());
    assert_eq!(
        fb.next_frame(DEFAULT_MAX_FRAME_BYTES),
        Err(WireError::FrameTooLarge {
            len: u32::MAX,
            max: DEFAULT_MAX_FRAME_BYTES
        })
    );
}
