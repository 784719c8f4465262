//! The write-ahead delta log: one framed record per batch a
//! [`TrustServer`](kbt_serve::TrustServer) accepted.
//!
//! ```text
//! wal-<base-epoch>.log :=
//!   header("KBTWAL01", version 1) · config digest u64 · base epoch u64
//!     · CRC-32 of all of it, u32
//!   frame*
//!   payload: kind u8 ·
//!            1 = AddBatch     seq of observations
//!            2 = RemoveBatch  seq of (w, d, v) keys
//!            3 = Commit       epoch u64
//! ```
//!
//! Header, frame and sequence are [`kbt_datamodel::wire`]'s.
//!
//! The **base epoch** names the checkpoint this log continues from: all
//! records describe state *after* `checkpoint-<base-epoch>`. Batches are
//! appended when the server accepts them; a `Commit` frame lands after
//! each publish, carrying the new epoch — so on replay, every frame
//! before a `Commit` is durable up to that epoch, and frames after the
//! last `Commit` are the pending (accepted but never refitted) tail.
//!
//! [`read_wal`] verifies each frame's CRC and stops at the first torn or
//! corrupt frame, reporting whether the file ended cleanly; a torn tail
//! (the typical crash-mid-append artifact) costs exactly the unfinished
//! record, never the log before it.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use kbt_datamodel::wire::{
    self, put_observation, put_seq, put_triple_key, put_u64, put_u8, WireError, WireReader,
    OBSERVATION_WIRE_BYTES, TRIPLE_KEY_WIRE_BYTES,
};
use kbt_datamodel::{ItemId, Observation, SourceId, ValueId};
use kbt_pipeline::Delta;

use crate::durable::StoreError;

/// First bytes of every delta-log file.
const WAL_MAGIC: [u8; 8] = *b"KBTWAL01";

/// Current delta-log format version.
const WAL_VERSION: u32 = 1;

/// Encoded size of the log header.
const WAL_HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 4;

const KIND_ADD: u8 = 1;
const KIND_REMOVE: u8 = 2;
const KIND_COMMIT: u8 = 3;

/// One decoded log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A batch the server accepted (kind 1 or 2).
    Batch(Delta),
    /// A publish happened: everything logged before this frame is part
    /// of the named epoch.
    Commit(u64),
}

/// The append side of one log file. Created fresh (never reopened for
/// append — rotation and recovery always start a new file), writes one
/// frame per accepted batch, and fsyncs when told to ([`Self::sync`] —
/// the store does at every commit).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// The one buffer every frame is built in.
    frame: Vec<u8>,
}

impl WalWriter {
    /// Create (or truncate) the log at `path` and write its header. The
    /// header is flushed and fsynced immediately so an empty log is
    /// never mistaken for a torn one.
    pub fn create(path: &Path, config_digest: u64, base_epoch: u64) -> io::Result<Self> {
        let mut file = File::create(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_BYTES);
        wire::put_header(&mut header, &WAL_MAGIC, WAL_VERSION);
        put_u64(&mut header, config_digest);
        put_u64(&mut header, base_epoch);
        wire::put_crc(&mut header, 0);
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            frame: header,
        })
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append an ingested observation batch (one frame, no fsync).
    pub fn append_add(&mut self, delta: &[Observation]) -> io::Result<()> {
        self.append_frame(|p| {
            put_u8(p, KIND_ADD);
            put_seq(p, delta, put_observation);
        })
    }

    /// Append a retraction batch (one frame, no fsync).
    pub fn append_remove(&mut self, retractions: &[(SourceId, ItemId, ValueId)]) -> io::Result<()> {
        self.append_frame(|p| {
            put_u8(p, KIND_REMOVE);
            put_seq(p, retractions, put_triple_key);
        })
    }

    /// Append a commit marker for a freshly published epoch.
    pub fn append_commit(&mut self, epoch: u64) -> io::Result<()> {
        self.append_frame(|p| {
            put_u8(p, KIND_COMMIT);
            put_u64(p, epoch);
        })
    }

    /// fsync everything appended so far — the durability point of a
    /// commit.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn append_frame(&mut self, payload: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
        self.frame.clear();
        wire::put_frame(&mut self.frame, payload);
        // One write per frame: a crash tears at most the last record.
        self.file.write_all(&self.frame)
    }
}

/// What [`read_wal`] found in a log file.
#[derive(Debug)]
pub struct WalReadOutcome {
    /// The checkpoint epoch this log continues from (header field).
    pub base_epoch: u64,
    /// Every record up to the first torn or corrupt frame.
    pub records: Vec<WalRecord>,
    /// `true` when the file ended exactly at a frame boundary; `false`
    /// when a torn or corrupt tail was discarded (recovery must treat
    /// later log files as unreachable — the chain is broken here).
    pub clean: bool,
}

/// Read and verify a log file.
///
/// Frames are checked one by one (length, then per-record CRC, then
/// payload structure); the first failure ends the read with
/// `clean: false` and everything before it intact — the on-open
/// truncation of torn tails. A bad **header** is a [`StoreError`]
/// instead: the whole file is untrusted.
pub fn read_wal(path: &Path, expected_digest: u64) -> Result<WalReadOutcome, StoreError> {
    let bytes = std::fs::read(path).map_err(StoreError::Io)?;
    let (header, frames) = bytes
        .split_at_checked(WAL_HEADER_BYTES)
        .ok_or(WireError::Truncated)?;
    let mut h = WireReader::new(wire::checked(header)?);
    h.header(&WAL_MAGIC, WAL_VERSION)?;
    let digest = h.u64()?;
    if digest != expected_digest {
        return Err(StoreError::ConfigMismatch {
            stored: digest,
            expected: expected_digest,
        });
    }
    let base_epoch = h.u64()?;

    let mut records = Vec::new();
    let mut r = WireReader::new(frames);
    // Any frame that does not check out — torn, corrupt, or CRC-valid
    // with the wrong structure — ends the read; the cap is the file
    // itself, already in memory.
    let clean = loop {
        if r.is_empty() {
            break true; // ended exactly on a frame boundary
        }
        match r.frame(u32::MAX).ok().flatten().map(parse_payload) {
            Some(Ok(record)) => records.push(record),
            _ => break false,
        }
    };
    Ok(WalReadOutcome {
        base_epoch,
        records,
        clean,
    })
}

fn parse_payload(payload: &[u8]) -> Result<WalRecord, WireError> {
    let mut r = WireReader::new(payload);
    let record = match r.u8()? {
        KIND_ADD => WalRecord::Batch(Delta::Add(
            r.seq(OBSERVATION_WIRE_BYTES, WireReader::observation)?,
        )),
        KIND_REMOVE => WalRecord::Batch(Delta::Remove(
            r.seq(TRIPLE_KEY_WIRE_BYTES, WireReader::triple_key)?,
        )),
        KIND_COMMIT => WalRecord::Commit(r.u64()?),
        kind => return Err(WireError::BadTag(kind)),
    };
    r.finish()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_datamodel::ExtractorId;

    fn obs(w: u32, d: u32) -> Observation {
        Observation::certain(
            ExtractorId::new(0),
            SourceId::new(w),
            ItemId::new(d),
            ValueId::new(0),
        )
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("kbt-store-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = tmp("roundtrip.log");
        let mut w = WalWriter::create(&path, 42, 7).unwrap();
        let batch = vec![obs(0, 0), obs(1, 3)];
        let keys = vec![(SourceId::new(1), ItemId::new(3), ValueId::new(0))];
        w.append_add(&batch).unwrap();
        w.append_remove(&keys).unwrap();
        w.append_commit(8).unwrap();
        w.sync().unwrap();
        let out = read_wal(&path, 42).unwrap();
        assert_eq!(out.base_epoch, 7);
        assert!(out.clean);
        assert_eq!(
            out.records,
            vec![
                WalRecord::Batch(Delta::Add(batch)),
                WalRecord::Batch(Delta::Remove(keys)),
                WalRecord::Commit(8)
            ]
        );
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn.log");
        let mut w = WalWriter::create(&path, 1, 0).unwrap();
        w.append_add(&[obs(0, 0)]).unwrap();
        w.append_commit(1).unwrap();
        w.append_add(&[obs(1, 1), obs(2, 2)]).unwrap();
        w.sync().unwrap();
        drop(w);
        // Chop mid-way through the last frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let out = read_wal(&path, 1).unwrap();
        assert!(!out.clean);
        assert_eq!(
            out.records,
            vec![
                WalRecord::Batch(Delta::Add(vec![obs(0, 0)])),
                WalRecord::Commit(1)
            ]
        );
    }

    #[test]
    fn corrupt_record_stops_the_read() {
        let path = tmp("corrupt.log");
        let mut w = WalWriter::create(&path, 1, 0).unwrap();
        w.append_add(&[obs(0, 0)]).unwrap();
        w.append_commit(1).unwrap();
        w.sync().unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the first frame's payload.
        let idx = WAL_HEADER_BYTES + 6;
        bytes[idx] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let out = read_wal(&path, 1).unwrap();
        assert!(!out.clean);
        assert!(out.records.is_empty(), "nothing after the corruption");
    }

    #[test]
    fn bad_headers_reject_the_whole_file() {
        let path = tmp("badheader.log");
        let w = WalWriter::create(&path, 1, 0).unwrap();
        drop(w);
        // Wrong digest.
        assert!(matches!(
            read_wal(&path, 2),
            Err(StoreError::ConfigMismatch { .. })
        ));
        // Corrupt magic.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_wal(&path, 1).is_err());
        // Shorter than a header.
        std::fs::write(&path, [0u8; 4]).unwrap();
        assert!(read_wal(&path, 1).is_err());
    }

    #[test]
    fn empty_log_is_clean() {
        let path = tmp("empty.log");
        WalWriter::create(&path, 9, 3).unwrap();
        let out = read_wal(&path, 9).unwrap();
        assert!(out.clean);
        assert!(out.records.is_empty());
        assert_eq!(out.base_epoch, 3);
    }
}
