//! The one wire codec under `KBTNET01`, `KBTWAL01`, `KBTCHNK4` and
//! `KBTSNAP1`: how a value looks in bytes, and how a record is
//! delimited, checksummed, version-tagged and length-guarded.
//!
//! **Values.** Fixed-width little-endian integers, IEEE-754 bit images
//! for floats (a decoded value is **bit-identical** to the encoded one,
//! never re-parsed through decimal), [`Observation`]s and
//! `(source, item, value)` keys. No serde, no varints, no alignment.
//!
//! **Frame.** `[len u32][payload: len bytes][crc32(payload) u32]`.
//! [`put_frame`] builds the payload in place and back-patches `len`;
//! [`WireReader::frame`] checks `len` against the caller's cap *before
//! anything is sized from it*, answers `None` while the frame is
//! incomplete (a socket's "need more bytes" and a log's torn tail are the
//! same answer) and verifies the CRC before the payload is parsed.
//! [`put_crc`] / [`checked`] are the unprefixed form `[body][crc32(body)]`
//! (the `KBTWAL01` header, the `KBTSNAP1` file, a chunk frame whose
//! length the index already holds — `read_frame_at`).
//!
//! **Header.** `[magic: 8 bytes][version u32]` — [`put_header`] /
//! [`WireReader::header`]; a format whose version lives in its magic
//! uses [`WireReader::magic`] alone.
//!
//! **Sequence.** `[count u32][count × element]`. [`WireReader::seq`]
//! (and [`WireReader::seq_n`] for a count that travelled separately)
//! proves `count × element bytes` fits the bytes actually left before the
//! `Vec` is sized — the only place in the four formats where a decoded
//! count reaches an allocator. [`put_column`] / [`WireReader::column`]
//! are the bulk form for columns of fixed-width scalars.
//!
//! **Checksum.** [`crc32`] is CRC-32/IEEE, computed slice-by-16 over three
//! interleaved lanes. One step folds 16 bytes through 16 independent
//! table lookups, but the next step needs its result, so a single stream
//! runs at the latency of that chain. Every whole `3 × 4 KiB` block is
//! therefore cut into three lanes whose registers advance side by side —
//! the first from the running state, the other two from zero — and are
//! then recombined. The register is linear over GF(2): the state after
//! `A ‖ B` from `s` is the state after `A` from `s`, advanced by `|B|`
//! zero bytes, xor the state after `B` from zero; and advancing by `n`
//! zero bytes is multiplication by `x^(8n) mod P`, a fixed linear map —
//! the two *shift operators* (one lane, two lanes), each four 256-entry
//! `const` tables. The recombination is that identity applied twice, so
//! the value is the bytewise CRC's for every input: one safe code path,
//! no feature detection, every stored checksum still valid.
//!
//! **Errors.** Every failure above is a [`WireError`], which converts
//! into `io::Error` (`InvalidData`), `kbt_store::StoreError` and
//! `kbt_net::ProtoError`, so decoders use plain `?`.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt as _;

use crate::ids::{ExtractorId, ItemId, SourceId, ValueId};
use crate::triple::Observation;

/// Encoded size of one [`Observation`]: four `u32` ids + one `f64`.
pub const OBSERVATION_WIRE_BYTES: usize = 24;

/// Encoded size of one `(source, item, value)` retraction key.
pub const TRIPLE_KEY_WIRE_BYTES: usize = 12;

/// Hard ceiling on any length-prefixed frame read from an untrusted
/// peer (16 MiB). Network readers pass this (or something tighter) to
/// [`WireReader::frame`] so a hostile length prefix — `len = u32::MAX`
/// from a malicious client — is rejected as a typed decode error
/// *before* any buffer is sized from it.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Why bytes failed to decode. Nothing here panics or allocates from an
/// unproven length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced structure did.
    Truncated,
    /// Bytes were left over after the announced structure.
    TrailingBytes(usize),
    /// A frame length prefix exceeded the caller's cap — an absurd or
    /// hostile frame, rejected before allocating.
    FrameTooLarge {
        /// The announced length.
        len: u32,
        /// The cap it violated.
        max: u32,
    },
    /// An element count announced more elements than the remaining
    /// payload could possibly hold — rejected before allocating.
    CountOverrun {
        /// The announced element count.
        count: u64,
        /// Encoded size of one element.
        elem_bytes: usize,
        /// Bytes actually remaining in the payload.
        remaining: usize,
    },
    /// The stored CRC does not match the bytes it covers.
    BadCrc {
        /// CRC carried by the bytes.
        expected: u32,
        /// CRC computed over them.
        actual: u32,
    },
    /// A tag byte names no alternative its field has.
    BadTag(u8),
    /// The leading magic is not the format's.
    BadMagic,
    /// The header's version is not the one this build reads.
    BadVersion(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "wire payload truncated"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            Self::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            Self::CountOverrun {
                count,
                elem_bytes,
                remaining,
            } => write!(
                f,
                "element count {count} x {elem_bytes} bytes overruns the {remaining}-byte payload"
            ),
            Self::BadCrc { expected, actual } => write!(
                f,
                "crc mismatch: stored {expected:#010x}, computed {actual:#010x}"
            ),
            Self::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            Self::BadMagic => write!(f, "magic mismatch"),
            Self::BadVersion(v) => write!(f, "unsupported format version {v}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// ---- writing ----

/// Append a `u8`.
#[inline]
pub fn put_u8(buf: &mut Vec<u8>, x: u8) {
    buf.push(x);
}

/// Append a `u32`, little-endian.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Append a `u64`, little-endian.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

/// Append an `f64` as its exact IEEE-754 bit pattern, little-endian.
#[inline]
pub fn put_f64(buf: &mut Vec<u8>, x: f64) {
    put_u64(buf, x.to_bits());
}

/// Append one [`Observation`] (`extractor`, `source`, `item`, `value`,
/// `confidence` — [`OBSERVATION_WIRE_BYTES`] bytes).
pub fn put_observation(buf: &mut Vec<u8>, o: &Observation) {
    put_u32(buf, o.extractor.0);
    put_u32(buf, o.source.0);
    put_u32(buf, o.item.0);
    put_u32(buf, o.value.0);
    put_f64(buf, o.confidence);
}

/// Append one `(source, item, value)` retraction key
/// ([`TRIPLE_KEY_WIRE_BYTES`] bytes).
pub fn put_triple_key(buf: &mut Vec<u8>, key: &(SourceId, ItemId, ValueId)) {
    put_u32(buf, key.0 .0);
    put_u32(buf, key.1 .0);
    put_u32(buf, key.2 .0);
}

/// Append a format header: `magic`, then `version`.
pub fn put_header(buf: &mut Vec<u8>, magic: &[u8; 8], version: u32) {
    buf.extend_from_slice(magic);
    put_u32(buf, version);
}

/// Append the CRC-32 of everything in `buf` from byte `from` on — the
/// writing half of [`checked`].
pub fn put_crc(buf: &mut Vec<u8>, from: usize) {
    let crc = crc32(&buf[from..]);
    put_u32(buf, crc);
}

/// Append one frame whose payload `body` writes in place: the length
/// prefix is back-patched and the CRC appended once the payload is known,
/// so a frame costs no second buffer.
pub fn put_frame(buf: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    put_u32(buf, 0);
    body(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    put_crc(buf, at + 4);
}

/// Append a sequence: the element count, then every element through `put`.
pub fn put_seq<T>(buf: &mut Vec<u8>, xs: &[T], mut put: impl FnMut(&mut Vec<u8>, &T)) {
    put_u32(buf, xs.len() as u32);
    for x in xs {
        put(buf, x);
    }
}

/// Append a sequence of `W`-byte little-endian scalars in one sized
/// write instead of one `Vec` growth check per element.
pub fn put_column<T: Copy, const W: usize>(buf: &mut Vec<u8>, xs: &[T], le: impl Fn(T) -> [u8; W]) {
    put_u32(buf, xs.len() as u32);
    let start = buf.len();
    buf.resize(start + xs.len() * W, 0);
    for (dst, &x) in buf[start..].chunks_exact_mut(W).zip(xs) {
        dst.copy_from_slice(&le(x));
    }
}

// ---- reading ----

/// `[body][crc32(body)]` → `body`, once the CRC checks out.
#[inline]
pub fn checked(bytes: &[u8]) -> Result<&[u8], WireError> {
    let (body, stored) = bytes.split_last_chunk::<4>().ok_or(WireError::Truncated)?;
    let (expected, actual) = (u32::from_le_bytes(*stored), crc32(body));
    if expected != actual {
        return Err(WireError::BadCrc { expected, actual });
    }
    Ok(body)
}

/// Prove that a `len`-byte payload at `payload_off` and its CRC end at or
/// before `limit`, in arithmetic a hostile offset cannot overflow.
pub fn frame_fits(payload_off: u64, len: u32, limit: u64) -> Result<(), WireError> {
    match payload_off.checked_add(len as u64 + 4) {
        Some(end) if end <= limit => Ok(()),
        _ => Err(WireError::Truncated),
    }
}

/// Read the `len`-byte payload at `off` of `file` and its trailing
/// CRC in one positioned read, verify, and return the payload. `limit`
/// is where the file's frames end: the read is bounded by the file, not
/// by the length field. Positioned reads take `&File`, so concurrent
/// loads share one handle without a seek race.
pub(crate) fn read_frame_at(file: &File, off: u64, len: u32, limit: u64) -> io::Result<Vec<u8>> {
    frame_fits(off, len, limit)?;
    let mut frame = vec![0u8; len as usize + 4];
    file.read_exact_at(&mut frame, off)?;
    let len = checked(&frame)?.len();
    frame.truncate(len);
    Ok(frame)
}

/// [`read_frame_at`] for a frame known only by the offset of its length
/// prefix.
pub(crate) fn read_prefixed_frame_at(file: &File, off: u64, limit: u64) -> io::Result<Vec<u8>> {
    frame_fits(off, 0, limit)?; // a zero-length payload = the prefix itself
    let mut len = [0u8; 4];
    file.read_exact_at(&mut len, off)?;
    read_frame_at(file, off + 4, u32::from_le_bytes(len), limit)
}

/// A bounds-checked cursor over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    data: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len()
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The structure is over: any byte left is an error.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        match self.data.len() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }

    /// Consume `n` raw bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, tail) = self.data.split_at_checked(n).ok_or(WireError::Truncated)?;
        self.data = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, tail) = self
            .data
            .split_first_chunk::<N>()
            .ok_or(WireError::Truncated)?;
        self.data = tail;
        Ok(*head)
    }

    /// Consume one `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    /// Consume one flag byte: `0` or `1`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Consume one little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Consume one little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Consume one `f64` stored as its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, WireError> {
        self.u64().map(f64::from_bits)
    }

    /// Consume one [`Observation`].
    pub fn observation(&mut self) -> Result<Observation, WireError> {
        Ok(Observation {
            extractor: ExtractorId::new(self.u32()?),
            source: SourceId::new(self.u32()?),
            item: ItemId::new(self.u32()?),
            value: ValueId::new(self.u32()?),
            confidence: self.f64()?,
        })
    }

    /// Consume one `(source, item, value)` retraction key.
    pub fn triple_key(&mut self) -> Result<(SourceId, ItemId, ValueId), WireError> {
        Ok((
            SourceId::new(self.u32()?),
            ItemId::new(self.u32()?),
            ValueId::new(self.u32()?),
        ))
    }

    /// Consume a format's 8-byte magic.
    pub fn magic(&mut self, magic: &[u8; 8]) -> Result<(), WireError> {
        if &self.array::<8>()? != magic {
            return Err(WireError::BadMagic);
        }
        Ok(())
    }

    /// Consume a [`put_header`] header and check both fields.
    pub fn header(&mut self, magic: &[u8; 8], version: u32) -> Result<(), WireError> {
        self.magic(magic)?;
        match self.u32()? {
            v if v == version => Ok(()),
            v => Err(WireError::BadVersion(v)),
        }
    }

    /// Consume one [`put_frame`] frame and return its CRC-verified
    /// payload. `Ok(None)` — nothing consumed — while the frame is
    /// incomplete; a length over `max` is an error as soon as its four
    /// bytes are there, so a hostile `len = u32::MAX` costs four bytes of
    /// input and a typed error, never an allocation.
    #[inline]
    pub fn frame(&mut self, max: u32) -> Result<Option<&'a [u8]>, WireError> {
        let mut r = self.clone();
        let Ok(len) = r.u32() else {
            return Ok(None);
        };
        if len > max {
            return Err(WireError::FrameTooLarge { len, max });
        }
        let Ok(body) = r.bytes((len as usize).saturating_add(4)) else {
            return Ok(None);
        };
        *self = r;
        checked(body).map(Some)
    }

    /// Prove `count` elements of at least `elem_bytes` encoded bytes each
    /// fit the bytes left, so a buffer sized from `count` is bounded by
    /// the input, not by the number.
    fn count(&self, count: u64, elem_bytes: usize) -> Result<usize, WireError> {
        debug_assert!(elem_bytes > 0, "elements must occupy at least one byte");
        if count > (self.remaining() / elem_bytes) as u64 {
            return Err(WireError::CountOverrun {
                count,
                elem_bytes,
                remaining: self.remaining(),
            });
        }
        Ok(count as usize)
    }

    /// An empty `Vec` with room for `count` elements of at least
    /// `elem_bytes` encoded bytes each, once the bytes left can back them.
    pub fn vec_for<T>(&self, count: u64, elem_bytes: usize) -> Result<Vec<T>, WireError> {
        let count = self.count(count, elem_bytes)?;
        Ok(Vec::with_capacity(count))
    }

    /// Decode `count` elements (a count that was not stored right in
    /// front of them) of at least `elem_bytes` encoded bytes each.
    pub fn seq_n<T, E: From<WireError>>(
        &mut self,
        count: u64,
        elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let mut out = self.vec_for(count, elem_bytes)?;
        for _ in 0..count {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// Decode a [`put_seq`] sequence.
    pub fn seq<T, E: From<WireError>>(
        &mut self,
        elem_bytes: usize,
        elem: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let count = self.u32()?;
        self.seq_n(count as u64, elem_bytes, elem)
    }

    /// Decode a [`put_column`] column into `out` (cleared first, capacity
    /// reused): one guarded byte slice, one pass.
    pub fn column<T, const W: usize>(
        &mut self,
        out: &mut Vec<T>,
        from_le: impl Fn([u8; W]) -> T,
    ) -> Result<(), WireError> {
        let count = self.u32()?;
        let n = self.count(count as u64, W)?;
        let bytes = self.bytes(n * W)?;
        out.clear();
        out.extend(bytes.chunks_exact(W).map(|c| {
            let mut le = [0u8; W];
            le.copy_from_slice(c);
            from_le(le)
        }));
        Ok(())
    }
}

// ---- integrity ----

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes per interleaved lane of [`crc32`].
const LANE: usize = 4096;

/// `T[0]` is the classic bytewise table; `T[k][i]` is the CRC state of
/// byte `i` followed by `k` zero bytes.
const T: [[u32; 256]; 16] = crc32_tables();

/// `SHIFT[0]` / `SHIFT[1]`: the register after [`LANE`] / `2 * LANE` more
/// zero bytes, as one 256-entry table per register byte.
const SHIFT: [[[u32; 256]; 4]; 2] = [shift_tables(LANE), shift_tables(2 * LANE)];

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
/// per-record checksum of the delta log and network frames, the per-frame
/// checksum of the chunk store, and the whole-file checksum of checkpoint
/// snapshots. Whole `3 * LANE`-byte blocks run as three interleaved lanes
/// (the module docs say why the value cannot differ); what is left takes
/// the same 16-byte steps on one register, then one 8-byte step, then
/// single bytes. Only the last two are inlined at a call site, so a
/// network frame of a dozen bytes pays for no call and no set-up.
#[inline]
pub fn crc32(data: &[u8]) -> u32 {
    let (mut crc, mut rest) = (!0u32, data);
    if rest.len() >= 16 {
        (crc, rest) = crc32_words(crc, rest);
    }
    if let Some((w, after)) = rest.split_first_chunk::<8>() {
        crc = step8(crc, w);
        rest = after;
    }
    for &b in rest {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Every whole block of `rest` through the three lanes, then every whole
/// 16-byte word: the register after them, and the fewer than 16 bytes
/// left.
#[inline(never)]
fn crc32_words(mut crc: u32, mut rest: &[u8]) -> (u32, &[u8]) {
    while let Some((block, after)) = rest.split_first_chunk::<{ 3 * LANE }>() {
        let (a, bc) = block.split_at(LANE);
        let (b, c) = bc.split_at(LANE);
        let (mut ca, mut cb, mut cc) = (crc, 0, 0);
        let steps = a.as_chunks().0.iter().zip(b.as_chunks().0);
        for ((wa, wb), wc) in steps.zip(c.as_chunks().0) {
            ca = step16(ca, wa);
            cb = step16(cb, wb);
            cc = step16(cc, wc);
        }
        crc = shift(&SHIFT[1], ca) ^ shift(&SHIFT[0], cb) ^ cc;
        rest = after;
    }
    while let Some((w, after)) = rest.split_first_chunk::<16>() {
        crc = step16(crc, w);
        rest = after;
    }
    (crc, rest)
}

/// Fold 16 bytes into the register: byte `i` is looked up in the table
/// of a byte followed by `15 - i` zero bytes, the register going in with
/// the first four. Bytes are cut from two 64-bit loads — the step is bound
/// by its loads, and the 16 lookups are enough.
#[inline(always)]
fn step16(crc: u32, w: &[u8; 16]) -> u32 {
    let mut out = 0;
    for (j, word) in w.as_chunks::<8>().0.iter().enumerate() {
        let x = u64::from_le_bytes(*word) ^ if j == 0 { crc as u64 } else { 0 };
        for k in 0..8 {
            out ^= T[15 - (8 * j + k)][(x >> (8 * k)) as u8 as usize];
        }
    }
    out
}

/// Fold 8 bytes into the register, the short tail's step. It loads the
/// last four bytes one at a time: a frame is checksummed right after it
/// is encoded, and a load wider than the field stores it overlaps waits
/// for them to retire (a 13-byte request's encode-and-parse path
/// measured 5–8 ns slower with word loads here).
#[inline(always)]
fn step8(crc: u32, w: &[u8; 8]) -> u32 {
    let lo = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
    let mut out = 0;
    for k in 0..8 {
        let byte = if k < 4 { lo[k] } else { w[k] };
        out ^= T[7 - k][byte as usize];
    }
    out
}

/// Apply one [`SHIFT`] operator to the register.
#[inline(always)]
fn shift(op: &[[u32; 256]; 4], crc: u32) -> u32 {
    let [b0, b1, b2, b3] = crc.to_le_bytes();
    op[0][b0 as usize] ^ op[1][b1 as usize] ^ op[2][b2 as usize] ^ op[3][b3 as usize]
}

const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// `a · b mod P` over GF(2), in the register's reflected bit order (bit
/// 31 is `x^0`).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 32;
    while bit > 0 {
        bit -= 1;
        if (a >> bit) & 1 != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { POLY ^ (b >> 1) } else { b >> 1 };
    }
    product
}

/// The operator "advance the register by `zeros` zero bytes": register
/// byte `k` holding `i` contributes `(i << 8k) · x^(8·zeros) mod P`.
const fn shift_tables(zeros: usize) -> [[u32; 256]; 4] {
    // x^(8·zeros) by square and multiply, from x^0 and x^1.
    let (mut power, mut square, mut n) = (1u32 << 31, 1u32 << 30, 8 * zeros);
    while n > 0 {
        if n & 1 != 0 {
            power = mul_mod_p(power, square);
        }
        square = mul_mod_p(square, square);
        n >>= 1;
    }
    let mut op = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            op[k][i] = mul_mod_p((i as u32) << (8 * k), power);
            i += 1;
        }
        k += 1;
    }
    op
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_and_floats_round_trip_bitwise() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_f64(&mut buf, 0.1 + 0.2);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.f64().unwrap(), 0.1 + 0.2);
        assert!(r.is_empty());
    }

    #[test]
    fn observation_and_key_round_trip() {
        let o = Observation {
            extractor: ExtractorId::new(3),
            source: SourceId::new(u32::MAX),
            item: ItemId::new(0),
            value: ValueId::new(99),
            confidence: 0.625,
        };
        let key = (SourceId::new(1), ItemId::new(2), ValueId::new(3));
        let mut buf = Vec::new();
        put_observation(&mut buf, &o);
        put_triple_key(&mut buf, &key);
        assert_eq!(buf.len(), OBSERVATION_WIRE_BYTES + TRIPLE_KEY_WIRE_BYTES);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.observation().unwrap(), o);
        assert_eq!(r.triple_key().unwrap(), key);
    }

    #[test]
    fn truncated_reads_error_instead_of_panicking() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 5);
        assert_eq!(WireReader::new(&buf[..2]).u32(), Err(WireError::Truncated));
        assert_eq!(
            WireReader::new(&buf).observation(),
            Err(WireError::Truncated)
        );
        assert_eq!(
            WireReader::new(&buf).finish(),
            Err(WireError::TrailingBytes(4))
        );
    }

    /// One frame, every way it can arrive: whole, short at every byte,
    /// over the cap, bit-flipped.
    #[test]
    fn frames_round_trip_wait_and_reject() {
        let mut buf = vec![0xAA]; // frames append; they do not own the buffer
        put_frame(&mut buf, |b| b.extend_from_slice(b"payload"));
        let frame = &buf[1..];
        assert_eq!(frame.len(), 4 + 7 + 4);
        let mut r = WireReader::new(frame);
        assert_eq!(r.frame(MAX_FRAME_BYTES), Ok(Some(&b"payload"[..])));
        assert!(r.is_empty());

        for keep in 0..frame.len() {
            let mut r = WireReader::new(&frame[..keep]);
            assert_eq!(r.frame(MAX_FRAME_BYTES), Ok(None), "{keep} bytes");
            assert_eq!(r.remaining(), keep, "an incomplete frame consumes nothing");
        }
        // The cap is checked as soon as the prefix is there — before the
        // payload arrives, so nothing is ever buffered or sized for it.
        assert_eq!(
            WireReader::new(&u32::MAX.to_le_bytes()).frame(MAX_FRAME_BYTES),
            Err(WireError::FrameTooLarge {
                len: u32::MAX,
                max: MAX_FRAME_BYTES
            })
        );
        assert_eq!(
            WireReader::new(frame).frame(6),
            Err(WireError::FrameTooLarge { len: 7, max: 6 })
        );
        for bit in 32..frame.len() * 8 {
            let mut bad = frame.to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    WireReader::new(&bad).frame(MAX_FRAME_BYTES),
                    Err(WireError::BadCrc { .. })
                ),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn headers_check_magic_then_version() {
        let mut buf = Vec::new();
        put_header(&mut buf, b"KBTTEST1", 3);
        put_crc(&mut buf, 0);
        let body = checked(&buf).unwrap();
        assert_eq!(WireReader::new(body).header(b"KBTTEST1", 3), Ok(()));
        assert_eq!(
            WireReader::new(body).header(b"KBTTEST2", 3),
            Err(WireError::BadMagic)
        );
        assert_eq!(
            WireReader::new(body).header(b"KBTTEST1", 4),
            Err(WireError::BadVersion(3))
        );
        assert_eq!(
            WireReader::new(&body[..9]).header(b"KBTTEST1", 3),
            Err(WireError::Truncated)
        );
        buf[2] ^= 1;
        assert!(matches!(checked(&buf), Err(WireError::BadCrc { .. })));
        assert_eq!(checked(&buf[..3]), Err(WireError::Truncated));
    }

    /// The element-count guard: a count the remaining payload cannot
    /// hold is a typed error before the `Vec` is sized from it.
    #[test]
    fn overrunning_element_counts_are_rejected_before_allocating() {
        let key = (SourceId::new(1), ItemId::new(2), ValueId::new(3));
        let mut buf = Vec::new();
        put_seq(&mut buf, &[key, key], put_triple_key);
        let mut r = WireReader::new(&buf);
        let keys: Result<_, WireError> = r.seq(TRIPLE_KEY_WIRE_BYTES, |r| r.triple_key());
        assert_eq!(keys, Ok(vec![key, key]));
        assert!(r.is_empty());

        // Claims four billion keys, carries two.
        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let overrun = WireError::CountOverrun {
            count: u32::MAX as u64,
            elem_bytes: TRIPLE_KEY_WIRE_BYTES,
            remaining: 2 * TRIPLE_KEY_WIRE_BYTES,
        };
        let keys: Result<Vec<_>, WireError> =
            WireReader::new(&buf).seq(TRIPLE_KEY_WIRE_BYTES, |r| r.triple_key());
        assert_eq!(keys, Err(overrun));
        // So does a count that travelled apart from its elements, at any
        // width — `u64::MAX × 12` must not wrap into something small.
        let r = WireReader::new(&buf[4..]);
        assert!(r.vec_for::<u8>(u64::MAX, TRIPLE_KEY_WIRE_BYTES).is_err());
        assert!(r.vec_for::<u8>(3, TRIPLE_KEY_WIRE_BYTES).is_err());
        assert!(r.vec_for::<u8>(2, TRIPLE_KEY_WIRE_BYTES).is_ok());
    }

    #[test]
    fn columns_round_trip_and_guard_their_count() {
        let xs = [0.5f64, -0.0, f64::NAN, 1e300];
        let mut buf = Vec::new();
        put_column(&mut buf, &xs, f64::to_le_bytes);
        assert_eq!(buf.len(), 4 + 8 * xs.len());
        let mut out = vec![7.0; 9];
        let mut r = WireReader::new(&buf);
        r.column(&mut out, f64::from_le_bytes).unwrap();
        assert!(r.is_empty());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&xs));

        buf[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            WireReader::new(&buf).column(&mut out, f64::from_le_bytes),
            Err(WireError::CountOverrun { .. })
        ));
    }

    /// The positioned-read guard holds for offsets no file can have.
    #[test]
    fn positioned_frame_bounds_cannot_overflow() {
        assert_eq!(frame_fits(12, 16, 32), Ok(()));
        assert_eq!(frame_fits(12, 17, 32), Err(WireError::Truncated));
        assert_eq!(frame_fits(u64::MAX - 1, 8, 32), Err(WireError::Truncated));
        assert_eq!(
            frame_fits(u64::MAX, u32::MAX, u64::MAX),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value of CRC-32/IEEE, and its neighbours.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    /// The one-lookup-per-byte form, kept as the reference the lanes must
    /// reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// `len` SplitMix64 bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 42u64;
        let byte = |_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) as u8
        };
        (0..len).map(byte).collect()
    }

    #[test]
    fn crc32_lanes_match_bytewise_reference() {
        // Every length 0..=64 at every start offset 0..16 covers each
        // head/tail split of the 16- and 8-byte steps; the big buffer runs
        // whole interleaved blocks. (Miri interprets every byte: there,
        // two blocks and a ragged tail.)
        let big = if cfg!(miri) { 6 * LANE + 29 } else { 1 << 20 };
        let buf = noise(big + 80);
        for off in 0..16 {
            for len in 0..=64 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "off {off} len {len}");
            }
        }
        assert_eq!(crc32(&buf[3..big + 3]), crc32_bytewise(&buf[3..big + 3]));
    }

    proptest::proptest! {
        /// Up to three whole blocks and change, from any alignment:
        /// `near` lands within 40 bytes of a lane boundary (so of every
        /// block boundary too), `any_len` anywhere.
        #[test]
        fn prop_crc32_equals_bytewise(
            off in 0usize..16,
            lanes in 0usize..10,
            near in 0usize..81,
            any_len in 0usize..9 * LANE + 41,
        ) {
            let buf = noise(9 * LANE + 40 + 16);
            for len in [(lanes * LANE + near).saturating_sub(40), any_len] {
                let s = &buf[off..off + len];
                proptest::prop_assert!(crc32(s) == crc32_bytewise(s), "off {off} len {len}");
            }
        }
    }
}
