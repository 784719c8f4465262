//! Stable little-endian on-disk encoding for the data-model types.
//!
//! The persistence layer (`kbt-store`) frames everything it writes —
//! checkpoint snapshots and the append-only delta log — out of the
//! primitives here: fixed-width little-endian integers, IEEE-754 bit
//! patterns for floats (so a decoded value is **bit-identical** to the
//! encoded one, never re-parsed through decimal), and the two record
//! payloads the delta log carries, [`Observation`]s and
//! `(source, item, value)` retraction keys.
//!
//! The encoding is deliberately hand-rolled, like the vendor shims: no
//! serde, no varints, no alignment games. Every multi-byte quantity is
//! little-endian; every float travels as its `to_bits()` image. Framing
//! (lengths, checksums, magics) is the caller's business — this module
//! only defines how individual values look on disk, plus the CRC-32
//! ([`crc32`]) used for per-record integrity.

use crate::ids::{ExtractorId, ItemId, SourceId, ValueId};
use crate::triple::Observation;

/// Encoded size of one [`Observation`]: four `u32` ids + one `f64`.
pub const OBSERVATION_WIRE_BYTES: usize = 24;

/// Encoded size of one `(source, item, value)` retraction key.
pub const TRIPLE_KEY_WIRE_BYTES: usize = 12;

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

// ---- reading ----

/// Decoding failed: the input ended early. The byte-level integrity of a
/// frame is the caller's job (CRC before parse); a reader hitting this
/// means the frame length and its payload disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTruncated;

impl std::fmt::Display for WireTruncated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire payload truncated")
    }
}

impl std::error::Error for WireTruncated {}

/// Hard ceiling on any length-prefixed frame read from an untrusted
/// peer (16 MiB). Network and log readers pass this (or something
/// tighter) to [`WireReader::frame_len`] so a hostile length prefix —
/// `len = u32::MAX` from a malicious client — is rejected as a typed
/// decode error *before* any buffer is sized from it.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Typed decode failure of a length-prefixed structure.
///
/// [`WireTruncated`] is kept as the error of the primitive reads (it is
/// matched all over the persistence layer); this enum covers the checks
/// that guard **allocation**: a frame length or element count must be
/// proven sane against a cap or the remaining payload before any `Vec`
/// is sized from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced structure did.
    Truncated,
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
        count: u32,
        /// Encoded size of one element.
        elem_bytes: usize,
        /// Bytes actually remaining in the payload.
        remaining: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => write!(f, "wire payload truncated"),
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
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireTruncated> for WireError {
    fn from(_: WireTruncated) -> Self {
        Self::Truncated
    }
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

    /// Consume `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireTruncated> {
        if self.data.len() < n {
            return Err(WireTruncated);
        }
        let (head, tail) = self.data.split_at(n);
        self.data = tail;
        Ok(head)
    }

    /// Consume one `u8`.
    pub fn u8(&mut self) -> Result<u8, WireTruncated> {
        Ok(self.bytes(1)?[0])
    }

    /// Consume one little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireTruncated> {
        let b = self.bytes(4)?.first_chunk::<4>().ok_or(WireTruncated)?;
        Ok(u32::from_le_bytes(*b))
    }

    /// Consume one little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireTruncated> {
        let b = self.bytes(8)?.first_chunk::<8>().ok_or(WireTruncated)?;
        Ok(u64::from_le_bytes(*b))
    }

    /// Consume one `f64` stored as its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireTruncated> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Consume one [`Observation`].
    pub fn observation(&mut self) -> Result<Observation, WireTruncated> {
        Ok(Observation {
            extractor: ExtractorId::new(self.u32()?),
            source: SourceId::new(self.u32()?),
            item: ItemId::new(self.u32()?),
            value: ValueId::new(self.u32()?),
            confidence: self.f64()?,
        })
    }

    /// Consume one `(source, item, value)` retraction key.
    pub fn triple_key(&mut self) -> Result<(SourceId, ItemId, ValueId), WireTruncated> {
        Ok((
            SourceId::new(self.u32()?),
            ItemId::new(self.u32()?),
            ValueId::new(self.u32()?),
        ))
    }

    /// Consume a `u32` frame-length prefix, rejecting anything over
    /// `max` **before the caller allocates a buffer for it**. A hostile
    /// peer announcing `len = u32::MAX` costs four bytes of input and a
    /// typed error, never an allocation.
    pub fn frame_len(&mut self, max: u32) -> Result<usize, WireError> {
        let len = self.u32()?;
        if len > max {
            return Err(WireError::FrameTooLarge { len, max });
        }
        Ok(len as usize)
    }

    /// Consume a `u32` element-count prefix for elements of
    /// `elem_bytes` encoded bytes each, rejecting counts the remaining
    /// payload cannot hold. Guards `Vec::with_capacity(count)` against
    /// absurd counts: a count that passes is bounded by
    /// `remaining / elem_bytes`, so sizing a buffer from it is safe.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, WireError> {
        debug_assert!(elem_bytes > 0, "elements must occupy at least one byte");
        let count = self.u32()?;
        if (count as u64) * (elem_bytes as u64) > self.data.len() as u64 {
            return Err(WireError::CountOverrun {
                count,
                elem_bytes,
                remaining: self.data.len(),
            });
        }
        Ok(count as usize)
    }
}

// ---- integrity ----

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
/// per-record checksum of the delta log and network frames, the per-frame
/// checksum of the chunk store, and the whole-file checksum of checkpoint
/// snapshots. Slice-by-8: eight bytes per step through eight 256-entry
/// tables, so the bytes of one step are looked up independently instead
/// of chaining one table lookup per byte.
pub fn crc32(data: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][w[4] as usize]
            ^ T[2][w[5] as usize]
            ^ T[1][w[6] as usize]
            ^ T[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `T[0]` is the classic bytewise table; `T[k][i]` is the CRC state of
/// byte `i` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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
        let mut r = WireReader::new(&buf[..2]);
        assert_eq!(r.u32(), Err(WireTruncated));
        let mut r = WireReader::new(&buf);
        assert_eq!(r.observation(), Err(WireTruncated));
    }

    /// The hostile-length-prefix guard: `len = u32::MAX` (or anything
    /// over the cap) is a typed error before any allocation happens.
    #[test]
    fn absurd_frame_lengths_are_rejected_before_allocating() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        let mut r = WireReader::new(&buf);
        assert_eq!(
            r.frame_len(MAX_FRAME_BYTES),
            Err(WireError::FrameTooLarge {
                len: u32::MAX,
                max: MAX_FRAME_BYTES
            })
        );

        // At or under the cap passes, independent of remaining bytes —
        // the *frame* guard bounds the buffer the caller will read into.
        let mut buf = Vec::new();
        put_u32(&mut buf, 64);
        assert_eq!(WireReader::new(&buf).frame_len(64), Ok(64));
        assert_eq!(
            WireReader::new(&buf).frame_len(63),
            Err(WireError::FrameTooLarge { len: 64, max: 63 })
        );

        // A truncated prefix is still a truncation error.
        assert_eq!(
            WireReader::new(&buf[..2]).frame_len(64),
            Err(WireError::Truncated)
        );
    }

    /// The element-count guard: a count the remaining payload cannot
    /// hold is a typed error, so `Vec::with_capacity(count)` is safe on
    /// any count that passes.
    #[test]
    fn overrunning_element_counts_are_rejected_before_allocating() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX); // claims 4 billion observations...
        put_observation(
            &mut buf,
            &Observation {
                extractor: ExtractorId::new(0),
                source: SourceId::new(0),
                item: ItemId::new(0),
                value: ValueId::new(0),
                confidence: 1.0,
            },
        ); // ...but carries one
        let mut r = WireReader::new(&buf);
        assert_eq!(
            r.count(OBSERVATION_WIRE_BYTES),
            Err(WireError::CountOverrun {
                count: u32::MAX,
                elem_bytes: OBSERVATION_WIRE_BYTES,
                remaining: OBSERVATION_WIRE_BYTES,
            })
        );

        // An honest count passes and the elements decode.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        for _ in 0..2 {
            put_triple_key(
                &mut buf,
                &(SourceId::new(1), ItemId::new(2), ValueId::new(3)),
            );
        }
        let mut r = WireReader::new(&buf);
        assert_eq!(r.count(TRIPLE_KEY_WIRE_BYTES), Ok(2));
        assert!(r.triple_key().is_ok() && r.triple_key().is_ok());
        assert!(r.is_empty());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value of CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    /// The one-lookup-per-byte form [`crc32`] replaced, kept as the
    /// reference the slice-by-8 kernel must reproduce.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let table = crc32_tables()[0];
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise_reference() {
        // SplitMix64 bytes: every length 0..=64 at every start offset
        // 0..8 covers each head/tail split of the 8-byte step.
        // (Miri interprets every byte: a 4 KiB buffer there.)
        let big = if cfg!(miri) { 1 << 12 } else { 1 << 20 };
        let mut x = 42u64;
        let buf: Vec<u8> = (0..big + 72)
            .map(|_| {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect();
        for off in 0..8 {
            for len in 0..=64 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "off {off} len {len}");
            }
        }
        assert_eq!(crc32(&buf[..big]), crc32_bytewise(&buf[..big]));
    }
}
