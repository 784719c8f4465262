//! The checkpoint codec: a versioned, checksummed binary image of one
//! published epoch — the observation cube plus the snapshot payload.
//!
//! ```text
//! checkpoint-<epoch> :=
//!   header("KBTSNAP1", version 6)                         12 bytes
//!   config digest      u64   (FNV-1a of the model config) 8
//!   cube section       the four id-space sizes, then the item frames
//!   snapshot section   provenance, the per-source columns, the posteriors
//!   warm section       serving mode u8, then the extractor P / R / Q
//!                      columns, each with its own count
//!   fingerprint        u64   (TrustSnapshot::fingerprint) 8
//!   crc32              u32   (over everything above)      4
//! ```
//!
//! Header, trailing CRC, value encodings and the guard on every decoded
//! count are [`kbt_datamodel::wire`]'s — a decoded checkpoint is
//! bit-identical to the encoded state, which [`decode_checkpoint`]
//! proves twice over: the whole-file CRC catches byte corruption, and
//! the snapshot rebuilt from the payload must reproduce the **stored
//! fingerprint** (recomputed from scratch by
//! [`TrustSnapshot::from_parts`]), so a checkpoint can never decode to a
//! snapshot that differs from the one the writer held in memory.
//!
//! The warm section (version 2) is, with the served trust, posterior and
//! independence columns, the `WarmState` the next refit resumes from; its
//! mode byte is the `RefitMode` of the server that wrote the file, so
//! recovery replays the log past the checkpoint the way it was served.
//!
//! Since version 6 the cube section is the cube's own form, its item
//! frames, whose bytes [`ObservationCube::encode`] and
//! [`ObservationCube::decode`] decide: recovery opens the frames it reads
//! as the cube, once they hold every invariant a build establishes. No
//! meta frame is stored; decode recounts it from the rows. Since
//! version 4 the snapshot's triple keys are the decoded cube's groups,
//! not a second copy; the fingerprint covers them, so a file cannot pair
//! a snapshot with another cube. Since version 5 the snapshot section has
//! no per-group truth column: a triple's truth is its item's posterior.

use kbt_core::{ItemPosteriors, ModelKind};
use kbt_datamodel::wire::{
    self, put_f64, put_seq, put_u32, put_u64, put_u8, WireError, WireReader,
};
use kbt_datamodel::{ItemId, ObservationCube, ValueId};
use kbt_serve::{RefitMode, SnapshotParts, SnapshotProvenance, TrustSnapshot};

use crate::durable::StoreError;

/// First bytes of every checkpoint file.
const CHECKPOINT_MAGIC: [u8; 8] = *b"KBTSNAP1";

/// Current checkpoint format version.
const CHECKPOINT_VERSION: u32 = 6;

/// A decoded checkpoint: the published snapshot and the cube it was
/// fitted on — everything recovery needs to resume a server.
#[derive(Debug, Clone)]
pub struct CheckpointContents {
    /// The snapshot published at the checkpointed epoch, rebuilt bit for
    /// bit (fingerprint verified against the stored one).
    pub snapshot: TrustSnapshot,
    /// The observation cube at that epoch, in canonical layout.
    pub cube: ObservationCube,
}

/// Serialize one epoch's durable state.
///
/// `config_digest` ties the file to the model configuration it was
/// fitted under (see [`crate::config_digest`]); decode rejects a
/// mismatch rather than resuming EM with different hyper-parameters.
pub fn encode_checkpoint(
    snapshot: &TrustSnapshot,
    cube: &ObservationCube,
    config_digest: u64,
) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::put_header(&mut buf, &CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
    put_u64(&mut buf, config_digest);
    cube.encode(&mut buf);
    encode_snapshot(&mut buf, snapshot);
    put_u64(&mut buf, snapshot.fingerprint());
    wire::put_crc(&mut buf, 0);
    buf
}

/// Decode and verify a checkpoint file.
///
/// # Errors
///
/// [`StoreError::Corrupt`] when the CRC, magic, version, structure, or
/// the rebuilt snapshot's fingerprint do not check out;
/// [`StoreError::ConfigMismatch`] when the file was written under a
/// different model configuration.
pub fn decode_checkpoint(
    bytes: &[u8],
    expected_digest: u64,
) -> Result<CheckpointContents, StoreError> {
    // Integrity first: nothing else in the file is trusted until the
    // whole-file CRC passes.
    let mut r = WireReader::new(wire::checked(bytes)?);
    r.header(&CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
    let digest = r.u64()?;
    if digest != expected_digest {
        return Err(StoreError::ConfigMismatch {
            stored: digest,
            expected: expected_digest,
        });
    }
    let cube = ObservationCube::decode(&mut r)?;
    let parts = decode_snapshot(&mut r, &cube)?;
    let stored_fingerprint = r.u64()?;
    r.finish()?;
    let snapshot = TrustSnapshot::from_parts(parts).map_err(StoreError::Parts)?;
    // The decisive check: the snapshot rebuilt from the payload must
    // recompute the exact fingerprint the writer stored — bit-identity
    // of every payload field, not just byte-identity of the file.
    if snapshot.fingerprint() != stored_fingerprint {
        return Err(StoreError::corrupt(
            "rebuilt snapshot does not reproduce the stored fingerprint",
        ));
    }
    Ok(CheckpointContents { snapshot, cube })
}

// ---- snapshot section ----

fn encode_snapshot(buf: &mut Vec<u8>, snap: &TrustSnapshot) {
    put_u64(buf, snap.epoch());
    put_u8(buf, model_tag(snap.model()));
    let prov = snap.provenance();
    put_u8(buf, mode_tag(prov.refit_mode));
    put_u64(buf, prov.deltas_applied as u64);
    put_u64(buf, prov.iterations as u64);
    put_u8(buf, prov.converged as u8);
    put_f64(buf, prov.coverage);

    put_u32(buf, snap.num_sources() as u32);
    for &t in snap.source_trust() {
        put_f64(buf, t);
    }
    for &a in snap.active_sources() {
        put_u8(buf, a as u8);
    }
    match snap.independence_column() {
        Some(ind) => {
            put_u8(buf, 1);
            for &i in ind {
                put_f64(buf, i);
            }
        }
        None => put_u8(buf, 0),
    }

    let posteriors = snap.posteriors();
    let items = posteriors.num_items();
    put_u32(buf, items as u32);
    let entries: usize = (0..items)
        .map(|d| posteriors.observed(ItemId::new(d as u32)).len())
        .sum();
    put_u64(buf, entries as u64);
    for d in 0..items {
        let d = ItemId::new(d as u32);
        let row = posteriors.observed(d);
        put_u32(buf, row.len() as u32);
        for &(v, p) in row {
            put_u32(buf, v.0);
            put_f64(buf, p);
        }
        put_f64(buf, posteriors.unobserved_mass_per_value(d));
    }

    put_u8(buf, mode_tag(snap.serving_mode()));
    for column in snap.extractor_quality() {
        put_seq(buf, column, |buf, &x| put_f64(buf, x));
    }
}

fn decode_snapshot(
    r: &mut WireReader<'_>,
    cube: &ObservationCube,
) -> Result<SnapshotParts, StoreError> {
    let epoch = r.u64()?;
    let model = match r.u8()? {
        1 => ModelKind::MultiLayer,
        2 => ModelKind::SingleLayer,
        t => return Err(WireError::BadTag(t).into()),
    };
    let refit_mode = mode_from_tag(r.u8()?)?;
    let deltas_applied = r.u64()? as usize;
    let iterations = r.u64()? as usize;
    let converged = r.bool()?;
    let coverage = r.f64()?;

    // Three columns share one count: trust, activity, and (optionally)
    // independence.
    let num_sources = r.u32()? as u64;
    let source_trust = r.seq_n(num_sources, 8, WireReader::f64)?;
    let active_source = r.seq_n(num_sources, 1, WireReader::bool)?;
    let independence = match r.bool()? {
        false => None,
        true => Some(r.seq_n(num_sources, 8, WireReader::f64)?),
    };

    // Posterior rows: a row costs at least 12 bytes (its length + the
    // unobserved-mass f64) and an entry exactly 12 (value + f64).
    let items = r.u32()? as u64;
    let total_entries = r.u64()?;
    let mut entries: Vec<(ValueId, f64)> = r.vec_for(total_entries, 12)?;
    let mut offsets = r.vec_for(items, 12)?;
    offsets.push(0u32);
    let unobserved = r.seq_n(items, 12, |r| {
        let row_start = entries.len();
        for _ in 0..r.u32()? {
            let (v, p) = (ValueId::new(r.u32()?), r.f64()?);
            if entries[row_start..]
                .last()
                .is_some_and(|&(prev, _)| prev >= v)
            {
                return Err(StoreError::corrupt("posterior row not sorted by value"));
            }
            entries.push((v, p));
        }
        offsets.push(entries.len() as u32);
        Ok(r.f64()?)
    })?;
    if entries.len() as u64 != total_entries {
        return Err(StoreError::corrupt("posterior entry count mismatch"));
    }
    let posteriors = ItemPosteriors::from_flat_parts(offsets, entries, unobserved);

    let serving_mode = mode_from_tag(r.u8()?)?;
    let mut column = || r.seq(8, WireReader::f64);
    let extractor_quality = [column()?, column()?, column()?];

    Ok(SnapshotParts {
        epoch,
        model,
        source_trust,
        active_source,
        independence,
        triples: (cube.groups().iter())
            .map(|g| (g.source, g.item, g.value))
            .collect(),
        posteriors,
        provenance: SnapshotProvenance {
            refit_mode,
            deltas_applied,
            iterations,
            converged,
            coverage,
        },
        extractor_quality,
        serving_mode,
    })
}

fn model_tag(m: ModelKind) -> u8 {
    match m {
        ModelKind::MultiLayer => 1,
        ModelKind::SingleLayer => 2,
    }
}

fn mode_tag(m: RefitMode) -> u8 {
    match m {
        RefitMode::Warm => 1,
        RefitMode::Cold => 2,
    }
}

fn mode_from_tag(tag: u8) -> Result<RefitMode, WireError> {
    match tag {
        1 => Ok(RefitMode::Warm),
        2 => Ok(RefitMode::Cold),
        t => Err(WireError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_core::ModelConfig;
    use kbt_datamodel::{ExtractorId, Observation, SourceId};
    use kbt_pipeline::{Model, TrustPipeline};
    use kbt_serve::TrustServer;

    fn obs(e: u32, w: u32, d: u32, v: u32) -> Observation {
        Observation::certain(
            ExtractorId::new(e),
            SourceId::new(w),
            ItemId::new(d),
            ValueId::new(v),
        )
    }

    fn corpus() -> Vec<Observation> {
        let mut out = Vec::new();
        for w in 0..6u32 {
            for d in 0..12u32 {
                let errs = (w * 37 + d * 13) % 10 < w;
                let v = if errs { 3 + (w + d) % 3 } else { d % 3 };
                for e in 0..2u32 {
                    if (w + d + e) % 4 != 0 {
                        out.push(obs(e, w, d, v));
                    }
                }
            }
        }
        out
    }

    fn fitted_server() -> TrustServer {
        TrustServer::from_pipeline(
            TrustPipeline::new()
                .observations(corpus())
                .model(Model::MultiLayer(ModelConfig {
                    threads: Some(1),
                    ..ModelConfig::default()
                })),
            RefitMode::Cold,
        )
        .unwrap()
    }

    #[test]
    fn checkpoint_round_trip_is_bit_identical() {
        let server = fitted_server();
        let snap = server.handle().snapshot();
        let bytes = encode_checkpoint(&snap, server.session().cube(), 7);
        let decoded = decode_checkpoint(&bytes, 7).unwrap();
        assert_eq!(&decoded.snapshot, snap.as_ref());
        assert_eq!(decoded.snapshot.fingerprint(), snap.fingerprint());
        // Cube equality via canonical re-encoding: the decoded cube must
        // reproduce the original file byte for byte.
        let reencoded = encode_checkpoint(&decoded.snapshot, &decoded.cube, 7);
        assert_eq!(reencoded, bytes);
    }

    #[test]
    fn config_digest_mismatch_is_a_hard_error() {
        let server = fitted_server();
        let snap = server.handle().snapshot();
        let bytes = encode_checkpoint(&snap, server.session().cube(), 7);
        match decode_checkpoint(&bytes, 8) {
            Err(StoreError::ConfigMismatch { stored, expected }) => {
                assert_eq!((stored, expected), (7, 8));
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }
}
