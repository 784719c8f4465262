//! [`TrustSnapshot`]: the immutable, query-optimized export of one fusion
//! epoch.
//!
//! A snapshot is everything a read path needs, copied out of a
//! [`FusionReport`] once per refit and then never mutated: per-source
//! trust, per-item value posteriors (a triple's truth is its item's),
//! the triple keys, copy-independence factors, and provenance (epoch,
//! deltas applied, EM rounds, refit mode). Readers share it behind an
//! `Arc`, so a query never races a refit and a refit never blocks a query.

use kbt_core::{FusionReport, ModelKind, Params};
use kbt_datamodel::{ItemId, SourceId, ValueId};
use kbt_pipeline::WarmState;

/// How a refit initializes EM (recorded in the provenance). A
/// performance choice: in either mode an epoch is a function of the
/// delta log, and crash recovery replays it bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefitMode {
    /// A resumed start from the previous epoch's [`WarmState`] (last
    /// parameters, their truth column, independence priors) — the production
    /// mode; at 200k triples a default-config warm refit still runs all 5.
    Warm,
    /// `QualityInit::Default` from scratch on the merged cube: a
    /// snapshot refit cold over a delta prefix is bit-identical to a cold
    /// `TrustPipeline` run over the same prefix (checked by
    /// `tests/serving.rs`) — the mode for audits against the batch
    /// pipeline.
    Cold,
}

/// Where a snapshot came from: the delta history and the fit that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotProvenance {
    /// How the refit initialized EM ([`RefitMode::Cold`] for the initial
    /// fit of a server).
    pub refit_mode: RefitMode,
    /// Number of deltas (additive and retraction batches) the underlying
    /// session had applied when this snapshot was fitted.
    pub deltas_applied: usize,
    /// EM iterations the fit performed.
    pub iterations: usize,
    /// Whether the fit converged before its iteration cap.
    pub converged: bool,
    /// Fraction of triple groups covered by an active source.
    pub coverage: f64,
}

/// The payload of a [`TrustSnapshot`], split out for persistence.
///
/// These are exactly the fields a codec must write to reproduce a
/// snapshot bit for bit; the snapshot's remaining state (the trust rank
/// order and the integrity fingerprint) is a deterministic function of
/// this payload and is recomputed by [`TrustSnapshot::from_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotParts {
    /// The epoch the snapshot was published under.
    pub epoch: u64,
    /// Which engine produced the underlying report.
    pub model: ModelKind,
    /// `A_w` per source — the KBT scores.
    pub source_trust: Vec<f64>,
    /// Whether each source had enough data to move off the default
    /// accuracy; aligned with `source_trust`.
    pub active_source: Vec<bool>,
    /// Copy-independence factor `I(w)` per source; `None` when the fit
    /// was copy-blind.
    pub independence: Option<Vec<f64>>,
    /// `(source, item, value)` per triple group, strictly sorted by `(item, source, value)`.
    pub triples: Vec<(SourceId, ItemId, ValueId)>,
    /// Per-item posterior over observed values + uniform unobserved mass.
    pub posteriors: kbt_core::ItemPosteriors,
    /// Delta history and fit diagnostics.
    pub provenance: SnapshotProvenance,
    /// Extractor `[P_e, R_e, Q_e]` columns the fit converged to (empty
    /// for the single layer). Not part of the fingerprint.
    pub extractor_quality: [Vec<f64>; 3],
    /// See [`TrustSnapshot::serving_mode`]. Not part of the fingerprint.
    pub serving_mode: RefitMode,
}

/// Why [`TrustSnapshot::from_parts`] rejected a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotPartsError {
    /// A triple key names an item the posterior table does not cover.
    MisalignedTriples,
    /// `active_source` (or a present `independence`) disagrees with
    /// `source_trust` on the number of sources.
    MisalignedSources,
    /// The triple column is not strictly sorted by `(item, source,
    /// value)`, so binary-searched queries would miss triples.
    UnsortedTriples,
    /// The three `extractor_quality` columns disagree on the number of
    /// extractors.
    MisalignedExtractors,
}

impl std::fmt::Display for SnapshotPartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MisalignedTriples => write!(f, "a triple key's item has no posterior"),
            Self::MisalignedSources => write!(f, "per-source columns disagree on source count"),
            Self::UnsortedTriples => write!(f, "triple key column is not strictly sorted"),
            Self::MisalignedExtractors => {
                write!(f, "extractor quality columns disagree on extractor count")
            }
        }
    }
}

impl std::error::Error for SnapshotPartsError {}

/// An immutable serving snapshot of one fusion epoch.
///
/// Built once per refit by [`TrustSnapshot::from_report`]; all queries
/// are read-only and lock-free (plain memory reads plus binary search /
/// the precomputed trust rank order). Equality-critical fields
/// ([`source_trust`](Self::source_trust), [`posteriors`](Self::posteriors))
/// are exported bit-for-bit from the [`FusionReport`], and a triple's
/// truth is read off the posteriors.
#[derive(Debug, Clone, PartialEq)]
pub struct TrustSnapshot {
    /// The payload: the served columns, plus the extractor columns and
    /// the serving mode, which are never served and stay outside the
    /// fingerprint — they are kept so the snapshot can hand back the
    /// [`WarmState`] the next refit resumes from.
    parts: SnapshotParts,
    /// Source ids sorted by descending trust (ties: ascending id).
    trust_rank: Vec<u32>,
    /// Order-sensitive digest of every served field, fixed at
    /// construction — see [`Self::fingerprint`].
    fingerprint: u64,
}

impl TrustSnapshot {
    /// Export a snapshot from a fusion report.
    ///
    /// `triples` must be the group-key column of the cube the report was
    /// fitted on (`(source, item, value)` per group, in group order) —
    /// [`crate::TrustServer`] passes its session's cube. `epoch` and
    /// `provenance` are caller-assigned; the store enforces that
    /// published epochs only move forward.
    pub fn from_report(
        report: &FusionReport,
        triples: Vec<(SourceId, ItemId, ValueId)>,
        epoch: u64,
        provenance: SnapshotProvenance,
    ) -> Self {
        // lint: allow(panic) — documented caller contract: `triples`
        // comes from the same cube the report was fitted on, so a
        // mismatch is a programming error in the *local* refit plumbing,
        // never a function of remote input.
        assert_eq!(
            triples.len(),
            report.truth_of_group().len(),
            "triple keys must align with the report's group arrays"
        );
        Self::from_parts(SnapshotParts {
            epoch,
            model: report.model(),
            source_trust: report.source_trust().to_vec(),
            active_source: report.active_source.to_vec(),
            independence: report.source_independence.clone(),
            triples,
            posteriors: report.posteriors.clone(),
            provenance,
            extractor_quality: [
                report.params.precision.clone(),
                report.params.recall.clone(),
                report.params.q.clone(),
            ],
            serving_mode: provenance.refit_mode,
        })
        // lint: allow(panic) — the parts are sliced out of one
        // `FusionReport`, whose columns are aligned by construction; the
        // fallible path exists for the decode-side constructor below.
        .expect("a fusion report always exports aligned snapshot parts")
    }

    /// Rebuild a snapshot from its payload [`SnapshotParts`] — the
    /// decode-side constructor of the persistence layer.
    ///
    /// The derived state (the trust rank order, the fingerprint) is
    /// **recomputed**, not trusted from the caller: it is a pure
    /// deterministic function of the payload (an `f64::total_cmp` sort and
    /// fixed-order FNV-1a), so rebuilding a snapshot from its own parts
    /// reproduces it bit for bit — including
    /// [`fingerprint`](Self::fingerprint).
    ///
    /// # Errors
    ///
    /// When the columns are mutually inconsistent: misaligned source or
    /// extractor columns, a triple column not strictly sorted by `(item,
    /// source, value)` (binary-searched queries would silently miss
    /// triples), or a triple whose item the posterior table lacks.
    pub fn from_parts(parts: SnapshotParts) -> Result<Self, SnapshotPartsError> {
        let num_sources = parts.source_trust.len();
        if parts.active_source.len() != num_sources
            || parts
                .independence
                .as_ref()
                .is_some_and(|ind| ind.len() != num_sources)
        {
            return Err(SnapshotPartsError::MisalignedSources);
        }
        let key = |&(w, d, v): &(SourceId, ItemId, ValueId)| (d, w, v);
        if parts.triples.windows(2).any(|t| key(&t[0]) >= key(&t[1])) {
            return Err(SnapshotPartsError::UnsortedTriples);
        }
        // Item-major: the last key names the largest item.
        if (parts.triples.last()).is_some_and(|t| t.1.index() >= parts.posteriors.num_items()) {
            return Err(SnapshotPartsError::MisalignedTriples);
        }
        let [precision, recall, q] = &parts.extractor_quality;
        if recall.len() != precision.len() || q.len() != precision.len() {
            return Err(SnapshotPartsError::MisalignedExtractors);
        }

        let mut snap = Self {
            trust_rank: rank_descending(&parts.source_trust),
            fingerprint: 0,
            parts,
        };
        snap.fingerprint = snap.compute_fingerprint();
        Ok(snap)
    }

    // ---- the next refit ----

    /// The [`WarmState`] of the fit this snapshot exports — what the
    /// session that produced it resumes its next warm refit from, column
    /// for column, so `FusionSession::restore` with it continues the
    /// epoch sequence bit for bit.
    pub fn warm_state(&self) -> WarmState {
        let [precision, recall, q] = self.parts.extractor_quality.clone();
        WarmState {
            params: Params {
                source_accuracy: self.parts.source_trust.clone(),
                precision,
                recall,
                q,
            },
            posteriors: self.parts.posteriors.clone(),
            independence: self.parts.independence.clone(),
        }
    }

    /// The extractor `[P_e, R_e, Q_e]` columns the fit converged to
    /// (empty for the single layer); codecs persist them beside the
    /// served columns.
    pub fn extractor_quality(&self) -> [&[f64]; 3] {
        self.parts.extractor_quality.each_ref().map(Vec::as_slice)
    }

    /// The [`RefitMode`] of the server that published (or resumed on)
    /// this snapshot — the mode a replay of the log past it refits in.
    /// [`provenance`](Self::provenance) records how *this* epoch was
    /// fitted, which differs for a warm server's initial fit. A snapshot
    /// built outside a server ([`Self::from_report`]) carries its own
    /// fit's mode.
    pub fn serving_mode(&self) -> RefitMode {
        self.parts.serving_mode
    }

    /// Stamp the mode of the server that serves this snapshot.
    pub(crate) fn served_in(mut self, mode: RefitMode) -> Self {
        self.parts.serving_mode = mode;
        self
    }

    // ---- identity ----

    /// The epoch this snapshot was published under (0 = the initial fit).
    pub fn epoch(&self) -> u64 {
        self.parts.epoch
    }

    /// Which engine produced the underlying report.
    pub fn model(&self) -> ModelKind {
        self.parts.model
    }

    /// Delta history and fit diagnostics.
    pub fn provenance(&self) -> &SnapshotProvenance {
        &self.parts.provenance
    }

    /// Number of sources in the dense id space.
    pub fn num_sources(&self) -> usize {
        self.parts.source_trust.len()
    }

    /// Number of items the posterior table covers.
    pub fn num_items(&self) -> usize {
        self.parts.posteriors.num_items()
    }

    /// Number of triple groups served.
    pub fn num_triples(&self) -> usize {
        self.parts.triples.len()
    }

    // ---- point queries ----

    /// Trust score `A_w` of a source; `None` outside the id space.
    pub fn trust(&self, w: SourceId) -> Option<f64> {
        self.parts.source_trust.get(w.index()).copied()
    }

    /// Whether the source had enough data to move off the default
    /// accuracy; `None` outside the id space.
    pub fn is_active(&self, w: SourceId) -> Option<bool> {
        self.parts.active_source.get(w.index()).copied()
    }

    /// Copy-independence factor `I(w)` of a source (1 when the fit was
    /// copy-blind or the source is independent); `None` outside the id
    /// space.
    pub fn independence(&self, w: SourceId) -> Option<f64> {
        if w.index() >= self.parts.source_trust.len() {
            return None;
        }
        Some(
            self.parts
                .independence
                .as_ref()
                .and_then(|i| i.get(w.index()).copied())
                .unwrap_or(1.0),
        )
    }

    /// Posterior `p(V_d = v | X)` for an `(item, value)` pair; `None`
    /// when the item is outside the id space (unobserved values of a
    /// known item get the item's uniform leftover mass).
    pub fn posterior(&self, d: ItemId, v: ValueId) -> Option<f64> {
        if d.index() >= self.parts.posteriors.num_items() {
            return None;
        }
        Some(self.parts.posteriors.prob(d, v))
    }

    /// The MAP value of an item with its probability — `None` when the
    /// item is unknown, has no observed value, or an unobserved value is
    /// the MAP.
    pub fn map_value(&self, d: ItemId) -> Option<(ValueId, f64)> {
        if d.index() >= self.parts.posteriors.num_items() {
            return None;
        }
        self.parts.posteriors.map_value(d)
    }

    /// Truth posterior `p(V_d = v | X)` of one served triple, addressed by
    /// its `(source, item, value)` key: [`Self::posterior`]`(d, v)` for a
    /// key in this epoch's cube, `None` for any other.
    pub fn triple_posterior(&self, w: SourceId, d: ItemId, v: ValueId) -> Option<f64> {
        self.parts
            .triples
            .binary_search_by_key(&(d, w, v), |&(w, d, v)| (d, w, v))
            .ok()?;
        self.posterior(d, v)
    }

    // ---- batched lookups ----

    /// [`Self::trust`] over a batch of sources, one `Option` per input.
    pub fn trust_batch(&self, sources: &[SourceId]) -> Vec<Option<f64>> {
        sources.iter().map(|&w| self.trust(w)).collect()
    }

    // ---- rankings ----

    /// The `k` most trusted sources as `(source, trust)`, descending
    /// (ties broken by ascending id). Precomputed at snapshot build, so
    /// this is O(k).
    pub fn top_k_sources(&self, k: usize) -> Vec<(SourceId, f64)> {
        self.trust_rank
            .iter()
            .take(k)
            .map(|&w| (SourceId::new(w), self.parts.source_trust[w as usize]))
            .collect()
    }

    // ---- bulk / audit access ----

    /// All trust scores, indexed by source id — bit-for-bit the
    /// `FusionReport::source_trust` column of the fit.
    pub fn source_trust(&self) -> &[f64] {
        &self.parts.source_trust
    }

    /// Every served triple group's `(source, item, value)`, sorted by `(item, source, value)`.
    pub fn triple_keys(&self) -> &[(SourceId, ItemId, ValueId)] {
        &self.parts.triples
    }

    /// The per-source activity column, aligned with
    /// [`Self::source_trust`].
    pub fn active_sources(&self) -> &[bool] {
        &self.parts.active_source
    }

    /// The raw per-source independence column: `None` when the fit was
    /// copy-blind (the point query [`Self::independence`] answers 1.0 in
    /// that case; codecs need the distinction to round-trip exactly).
    pub fn independence_column(&self) -> Option<&[f64]> {
        self.parts.independence.as_deref()
    }

    /// The full per-item posterior table.
    pub fn posteriors(&self) -> &kbt_core::ItemPosteriors {
        &self.parts.posteriors
    }

    /// Order-sensitive digest of every served field (everything but
    /// [`Self::extractor_quality`] and [`Self::serving_mode`]), computed
    /// once at construction. A reader that recomputes it
    /// ([`Self::verify_integrity`]) and matches proves the snapshot it
    /// holds is exactly what the writer published — the torn-read oracle
    /// of the concurrency stress tests.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Recompute the digest over the payload and compare with the stored
    /// [`Self::fingerprint`].
    pub fn verify_integrity(&self) -> bool {
        self.compute_fingerprint() == self.fingerprint
    }

    fn compute_fingerprint(&self) -> u64 {
        // FNV-1a over the exact bit patterns, in a fixed field order.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(PRIME);
        };
        eat(self.parts.epoch);
        eat(match self.parts.model {
            ModelKind::MultiLayer => 1,
            ModelKind::SingleLayer => 2,
        });
        eat(match self.parts.provenance.refit_mode {
            RefitMode::Warm => 1,
            RefitMode::Cold => 2,
        });
        eat(self.parts.provenance.deltas_applied as u64);
        eat(self.parts.provenance.iterations as u64);
        eat(self.parts.provenance.converged as u64);
        eat(self.parts.provenance.coverage.to_bits());
        for &t in &self.parts.source_trust {
            eat(t.to_bits());
        }
        for &a in &self.parts.active_source {
            eat(a as u64);
        }
        if let Some(ind) = &self.parts.independence {
            for &i in ind {
                eat(i.to_bits());
            }
        }
        for &(w, d, v) in &self.parts.triples {
            // FNV is order-sensitive: feed the key components separately
            // rather than packing them (a packed XOR would collide for
            // distinct keys once ids exceed the packing widths).
            eat(w.0 as u64);
            eat(d.0 as u64);
            eat(v.0 as u64);
        }
        for d in 0..self.parts.posteriors.num_items() {
            let d = ItemId::new(d as u32);
            for &(v, p) in self.parts.posteriors.observed(d) {
                eat(v.0 as u64);
                eat(p.to_bits());
            }
            eat(self.parts.posteriors.unobserved_mass_per_value(d).to_bits());
        }
        for &w in &self.trust_rank {
            eat(w as u64);
        }
        h
    }
}

/// Indices of `scores`, highest first under `f64::total_cmp`, ties by
/// ascending index. Score and index are packed into one sort key, so the
/// sort never chases an index back into `scores`.
fn rank_descending(scores: &[f64]) -> Vec<u32> {
    let mut keyed: Vec<(u64, u32)> = scores
        .iter()
        .zip(0u32..)
        .map(|(&s, i)| {
            // `total_cmp`'s order as an unsigned integer (a negative has every
            // bit flipped, the rest only the sign bit), inverted to descend.
            let bits = s.to_bits();
            let ascending = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
            (!ascending, i)
        })
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_core::{FusionModel, ModelConfig, MultiLayerModel, QualityInit};
    use kbt_datamodel::{CubeBuilder, ExtractorId, Observation};

    fn fitted() -> (kbt_datamodel::ObservationCube, FusionReport) {
        let mut b = CubeBuilder::new();
        for w in 0..4u32 {
            for d in 0..6u32 {
                let v = if w == 3 { 1 } else { 0 };
                b.push(Observation::certain(
                    ExtractorId::new(0),
                    SourceId::new(w),
                    ItemId::new(d),
                    ValueId::new(v),
                ));
            }
        }
        let cube = b.build();
        let report = MultiLayerModel::new(ModelConfig {
            threads: Some(1),
            ..ModelConfig::default()
        })
        .fit(&cube, &QualityInit::Default);
        (cube, report)
    }

    fn snapshot_of(cube: &kbt_datamodel::ObservationCube, report: &FusionReport) -> TrustSnapshot {
        let triples = cube
            .groups()
            .iter()
            .map(|g| (g.source, g.item, g.value))
            .collect();
        TrustSnapshot::from_report(
            report,
            triples,
            7,
            SnapshotProvenance {
                refit_mode: RefitMode::Cold,
                deltas_applied: 0,
                iterations: report.iterations(),
                converged: report.converged(),
                coverage: report.coverage(),
            },
        )
    }

    #[test]
    fn queries_mirror_the_report_exactly() {
        let (cube, report) = fitted();
        let snap = snapshot_of(&cube, &report);
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.num_sources(), 4);
        assert_eq!(snap.num_triples(), cube.num_groups());
        assert_eq!(snap.source_trust(), report.source_trust());
        for w in 0..4u32 {
            assert_eq!(
                snap.trust(SourceId::new(w)),
                Some(report.kbt(SourceId::new(w)))
            );
        }
        assert_eq!(snap.trust(SourceId::new(9)), None);
        for (g, grp) in cube.groups().iter().enumerate() {
            assert_eq!(
                snap.triple_posterior(grp.source, grp.item, grp.value)
                    .map(f64::to_bits),
                Some(report.truth_of_group()[g].to_bits())
            );
            assert_eq!(
                snap.posterior(grp.item, grp.value),
                Some(report.posteriors.prob(grp.item, grp.value))
            );
        }
        assert_eq!(
            snap.triple_posterior(SourceId::new(0), ItemId::new(0), ValueId::new(9)),
            None
        );
        assert_eq!(snap.posterior(ItemId::new(99), ValueId::new(0)), None);
        // The copy-blind fit serves neutral independence inside the id
        // space and None outside it.
        assert_eq!(snap.independence(SourceId::new(0)), Some(1.0));
        assert_eq!(snap.independence(SourceId::new(9)), None);
    }

    #[test]
    fn rankings_are_sorted_and_tie_broken_by_id() {
        let (cube, report) = fitted();
        let snap = snapshot_of(&cube, &report);
        let top = snap.top_k_sources(10);
        assert_eq!(top.len(), 4, "k larger than the population saturates");
        for pair in top.windows(2) {
            assert!(
                pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "unsorted: {pair:?}"
            );
        }
        // The dissenting source 3 ranks last.
        assert_eq!(top.last().unwrap().0, SourceId::new(3));
        assert!(snap.top_k_sources(0).is_empty());
    }

    #[test]
    fn rank_order_is_total_cmp_descending_with_index_ties() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let mut scores = vec![0.5, nan, -0.0, 0.0, 1.0, -1.5, 0.5, inf, -nan, -inf, 5e-324];
        // A long tail of ties, so the sort leaves its small-input path.
        scores.extend((0..500u32).map(|i| f64::from(i % 7) / 7.0 - 0.3));
        let mut expected: Vec<u32> = (0..scores.len() as u32).collect();
        expected.sort_by(|&a, &b| {
            f64::total_cmp(&scores[b as usize], &scores[a as usize]).then(a.cmp(&b))
        });
        assert_eq!(rank_descending(&scores), expected);
    }

    #[test]
    fn batched_lookups_match_point_queries() {
        let (cube, report) = fitted();
        let snap = snapshot_of(&cube, &report);
        let ws: Vec<SourceId> = (0..6u32).map(SourceId::new).collect();
        assert_eq!(
            snap.trust_batch(&ws),
            ws.iter().map(|&w| snap.trust(w)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fingerprint_detects_corruption() {
        let (cube, report) = fitted();
        let snap = snapshot_of(&cube, &report);
        assert!(snap.verify_integrity());
        let mut torn = snap.clone();
        torn.parts.triples[0].2 .0 ^= 1;
        assert!(
            !torn.verify_integrity(),
            "a flipped payload bit must be caught"
        );
        let mut wrong_epoch = snap.clone();
        wrong_epoch.parts.epoch = 8;
        assert!(!wrong_epoch.verify_integrity());
        // Every payload surface is covered, not just the keys.
        let mut torn_prov = snap.clone();
        torn_prov.parts.provenance.coverage += 1e-9;
        assert!(!torn_prov.verify_integrity(), "provenance is covered");
        let mut torn_rank = snap.clone();
        torn_rank.trust_rank.swap(0, 1);
        assert!(!torn_rank.verify_integrity(), "the rank order is covered");
    }

    /// The persistence contract: `from_parts` of a snapshot's own parts
    /// reproduces it bit for bit, rank order and fingerprint included.
    #[test]
    fn parts_round_trip_is_bit_identical() {
        let (cube, report) = fitted();
        let snap = snapshot_of(&cube, &report);
        let rebuilt = TrustSnapshot::from_parts(snap.parts.clone()).unwrap();
        assert_eq!(rebuilt, snap);
        assert_eq!(rebuilt.fingerprint(), snap.fingerprint());
        assert!(rebuilt.verify_integrity());
    }

    #[test]
    fn inconsistent_parts_are_rejected() {
        let (cube, report) = fitted();
        let snap = snapshot_of(&cube, &report);
        // A posterior table that stops before the last key's item.
        let mut short = snap.parts.clone();
        let items = short.posteriors.num_items() - 1;
        short.posteriors =
            kbt_core::ItemPosteriors::from_parts(vec![vec![]; items], vec![0.5; items]);
        assert_eq!(
            TrustSnapshot::from_parts(short),
            Err(SnapshotPartsError::MisalignedTriples)
        );
        let mut extra = snap.parts.clone();
        extra.active_source.push(true);
        assert_eq!(
            TrustSnapshot::from_parts(extra),
            Err(SnapshotPartsError::MisalignedSources)
        );
        let mut wide = snap.parts.clone();
        wide.independence = Some(vec![1.0; wide.source_trust.len() + 1]);
        assert_eq!(
            TrustSnapshot::from_parts(wide),
            Err(SnapshotPartsError::MisalignedSources)
        );
        let mut unsorted = snap.parts.clone();
        unsorted.triples.swap(0, 1);
        assert_eq!(
            TrustSnapshot::from_parts(unsorted),
            Err(SnapshotPartsError::UnsortedTriples)
        );
        let mut ragged = snap.parts.clone();
        ragged.extractor_quality[2].push(0.5);
        assert_eq!(
            TrustSnapshot::from_parts(ragged),
            Err(SnapshotPartsError::MisalignedExtractors)
        );
    }
}
