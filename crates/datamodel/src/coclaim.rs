//! Source-pair co-claim statistics: one sparse-accumulator pass over the
//! cube, shared by copy detection and the overlap census.
//!
//! Copy detection (Section 5.4.2) scores *source pairs* on how their
//! claims about the same data items relate. What it counts is the sparse
//! product `A·Aᵀ` of the source × item incidence, computed here row by
//! row: the claims are laid out **item-major** once (each item's row
//! sorted by source — the cube's own group order), then for every source
//! `a`, each of its claims (listed by the cube's source index) walks the
//! tail of its item's row — the claims of sources `b > a`, which follow
//! its own entry in the row — and bumps a dense slot indexed by `b`. When
//! `a` is done the touched slots are flushed in `b` order and zeroed. No
//! hashing, no merge:
//!
//! * time is `Σ_d fan-in(d)²/2` slot bumps — every claim pair is visited
//!   exactly once, from its lower-id source;
//! * memory is one `O(sources)` slot array per worker;
//! * workers own contiguous source ranges, i.e. disjoint output rows, so
//!   their outputs concatenate in range order — already sorted by
//!   `(a, b)`, identical at any thread count, nothing to merge.
//!
//! Counts are **claim-pair** counts: two sources with `c_a` and `c_b`
//! claims on one item add `c_a · c_b` to their overlap, exactly what the
//! pairwise expansion over claims produces. All counters are `u64`.
//!
//! Two instantiations run on the kernel: [`pair_counts`] (overlap,
//! agreement and exclusive agreement — the copy detector's input) and
//! [`CoClaimIndex::pair_overlaps`] (overlap only, over the run-length
//! compressed `(source, claims)` rows of the index).

use std::ops::Range;

use crate::cube::ObservationCube;
use crate::ids::{SourceId, ValueId};

/// One candidate source pair surviving the overlap prefilter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidatePair {
    /// First source of the pair (ordered, `a < b`).
    pub a: SourceId,
    /// Second source of the pair.
    pub b: SourceId,
    /// Claim-pair overlap: `Σ_d c_a(d) · c_b(d)` over co-claimed items.
    pub overlap: u64,
}

/// Exact co-claim statistics of one source pair (`a < b`), counted over
/// claim pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCounts {
    /// First source of the pair.
    pub a: SourceId,
    /// Second source of the pair.
    pub b: SourceId,
    /// Claim pairs on a common item.
    pub overlap: u64,
    /// …of which both claims carry the same value.
    pub agree: u64,
    /// …of which no third claim on the item carries that value.
    pub agree_exclusive: u64,
}

/// One entry of an item's row, as seen from a claim by a lower-id source.
trait RowEntry: Copy + Sync {
    fn source(&self) -> SourceId;
    /// Add this entry's `[overlap, agree, agree_exclusive]` contribution
    /// against `claim`, an entry of the same row. Must add at least 1 to
    /// the overlap — a zero overlap is what marks a slot untouched.
    fn bump(&self, claim: &Self, slot: &mut [u64; 3]);
}

/// A single claim: the detector's row entry.
#[derive(Debug, Clone, Copy)]
struct Claim {
    source: SourceId,
    value: ValueId,
    /// Exactly two claims on the item carry `value` — so a pair agreeing
    /// on it is alone in doing so. Deliberately a property of the claims,
    /// not of the value posterior: a copier's doubled votes can convince
    /// the model its shared mistakes are true, which would launder a
    /// posterior-based test.
    exclusive: bool,
}

impl RowEntry for Claim {
    fn source(&self) -> SourceId {
        self.source
    }

    fn bump(&self, claim: &Self, slot: &mut [u64; 3]) {
        let agree = self.value == claim.value;
        slot[0] += 1;
        slot[1] += u64::from(agree);
        slot[2] += u64::from(agree & self.exclusive);
    }
}

/// A `(source, claims)` run of the index: overlap only.
impl RowEntry for (SourceId, u32) {
    fn source(&self) -> SourceId {
        self.0
    }

    fn bump(&self, _: &Self, slot: &mut [u64; 3]) {
        slot[0] += u64::from(self.1);
    }
}

/// Item-major rows, each sorted by source, laid end to end: entry `p`'s
/// row ends at `row_end[p]`.
#[derive(Clone, Copy)]
struct Rows<'a, E> {
    entries: &'a [E],
    row_end: &'a [u32],
    /// The entry of each cube group; `None` when entry `g` is group `g`'s.
    entry_of: Option<&'a [u32]>,
}

impl<E: RowEntry> Rows<'_, E> {
    /// The kernel, for one contiguous range of first sources: the pairs
    /// `(a, b)` with `a` in `sources` and overlap ≥ `min_overlap`, sorted
    /// by `(a, b)`.
    fn scan(
        &self,
        cube: &ObservationCube,
        sources: Range<usize>,
        min_overlap: u64,
    ) -> Vec<PairCounts> {
        let mut out = Vec::new();
        let mut slots = vec![[0u64; 3]; cube.num_sources()];
        let mut touched: Vec<SourceId> = Vec::new();
        for a in sources {
            let a = SourceId::new(a as u32);
            for &g in cube.source_groups(a) {
                let p = self.entry_of.map_or(g as usize, |e| e[g as usize] as usize);
                let claim = &self.entries[p];
                // The row is sorted by source: past `a`'s own other
                // claims on the item, its tail is every claim by a
                // higher-id source.
                let tail = &self.entries[p + 1..self.row_end[p] as usize];
                for e in tail.iter().skip_while(|e| e.source() == a) {
                    let b = e.source();
                    let slot = &mut slots[b.index()];
                    if slot[0] == 0 {
                        touched.push(b);
                    }
                    e.bump(claim, slot);
                }
            }
            touched.sort_unstable();
            for b in touched.drain(..) {
                let [overlap, agree, agree_exclusive] = std::mem::take(&mut slots[b.index()]);
                if overlap >= min_overlap {
                    out.push(PairCounts {
                        a,
                        b,
                        overlap,
                        agree,
                        agree_exclusive,
                    });
                }
            }
        }
        out
    }

    /// Per first source, the cost of scanning it: for each of its row
    /// positions, one row fetch plus the entries behind it (`Σ fan-in`
    /// for the lowest-id source of every row, less for later ones).
    fn scan_weights(&self, num_sources: usize) -> Vec<u64> {
        let mut weights = vec![0u64; num_sources];
        for (p, (e, &end)) in self.entries.iter().zip(self.row_end).enumerate() {
            weights[e.source().index()] += u64::from(end) - p as u64;
        }
        weights
    }

    /// Run the kernel over all sources on up to `kbt_flume::num_threads()`
    /// workers, each owning one contiguous source range of near-equal
    /// scan weight.
    fn pair_counts(&self, cube: &ObservationCube, min_overlap: u64) -> Vec<PairCounts> {
        let ns = cube.num_sources();
        let threads = kbt_flume::num_threads();
        if threads <= 1 || ns < 2 {
            return self.scan(cube, 0..ns, min_overlap);
        }
        let ranges = split_by_weight(&self.scan_weights(ns), threads);
        let scanned =
            kbt_flume::par_map_slice(&ranges, |r| self.scan(cube, r.clone(), min_overlap));
        scanned.into_iter().flatten().collect()
    }
}

/// Cut `0..weights.len()` into at most `parts` contiguous non-empty
/// ranges, closing range `k` once the running weight reaches
/// `total · (k + 1) / parts`.
fn split_by_weight(weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let parts = parts.clamp(1, weights.len().max(1)) as u128;
    let mut ranges = Vec::new();
    let (mut start, mut acc) = (0usize, 0u128);
    for (i, &w) in weights.iter().enumerate() {
        acc += u128::from(w);
        let k = ranges.len() as u128 + 1;
        if k < parts && acc * parts >= total * k {
            ranges.push(start..i + 1);
            start = i + 1;
        }
    }
    if start < weights.len() {
        ranges.push(start..weights.len());
    }
    ranges
}

/// The co-claim statistics of every source pair whose claim-pair overlap
/// reaches `min_overlap` (pairs that never co-claim are not listed, so
/// `0` and `1` select the same pairs), sorted by `(a, b)`; computed on up
/// to `kbt_flume::num_threads()` workers, identical at any thread count.
pub fn pair_counts(cube: &ObservationCube, min_overlap: usize) -> Vec<PairCounts> {
    // One claim per group, in group order: the cube's item rows, each
    // sorted by source. Backer counts per value use one dense counter
    // array, zeroed again behind each row.
    let groups = cube.groups();
    let mut claims: Vec<Claim> = Vec::with_capacity(groups.len());
    let mut row_end: Vec<u32> = Vec::with_capacity(groups.len());
    let mut backers = vec![0u32; cube.num_values()];
    for w in cube.item_offsets().windows(2) {
        let row = &groups[w[0] as usize..w[1] as usize];
        for g in row {
            backers[g.value.index()] += 1;
        }
        claims.extend(row.iter().map(|g| Claim {
            source: g.source,
            value: g.value,
            exclusive: backers[g.value.index()] == 2,
        }));
        row_end.extend(row.iter().map(|_| w[1]));
        for g in row {
            backers[g.value.index()] = 0;
        }
    }
    Rows {
        entries: &claims,
        row_end: &row_end,
        entry_of: None,
    }
    .pair_counts(cube, min_overlap as u64)
}

/// Per-item source-multiplicity index over an [`ObservationCube`].
///
/// For each data item, the sorted list of `(source, claims)` entries,
/// where `claims` counts the item's triple groups attributed to that
/// source (a source claiming two values for one item counts twice —
/// claim-pair semantics). Built in one sequential pass over the cube's
/// groups, whose item rows are already sorted by source, so each entry is
/// one run; `O(groups)` time, `O(Σ_d distinct_sources(d))` space plus
/// each group's entry.
#[derive(Debug, Clone)]
pub struct CoClaimIndex<'a> {
    cube: &'a ObservationCube,
    /// `(source, claim count)` per item, sorted by source, items in order.
    entries: Vec<(SourceId, u32)>,
    /// Per entry: the end of its item's row in `entries`.
    row_end: Vec<u32>,
    /// Per cube group: its entry.
    entry_of: Vec<u32>,
}

impl<'a> CoClaimIndex<'a> {
    /// Build the index from a cube.
    pub fn build(cube: &'a ObservationCube) -> Self {
        let groups = cube.groups();
        let mut entries: Vec<(SourceId, u32)> = Vec::new();
        let mut row_end: Vec<u32> = Vec::new();
        let mut entry_of: Vec<u32> = Vec::with_capacity(groups.len());
        for w in cube.item_offsets().windows(2) {
            let row = entries.len();
            for g in &groups[w[0] as usize..w[1] as usize] {
                match entries[row..].last_mut() {
                    Some((s, c)) if *s == g.source => *c += 1,
                    _ => entries.push((g.source, 1)),
                }
                entry_of.push(entries.len() as u32 - 1);
            }
            row_end.resize(entries.len(), entries.len() as u32);
        }
        Self {
            cube,
            entries,
            row_end,
            entry_of,
        }
    }

    /// Number of items the index covers.
    pub fn num_items(&self) -> usize {
        self.cube.num_items()
    }

    /// The overlap-only instantiation of the kernel.
    fn overlaps(&self, min_overlap: usize) -> Vec<PairCounts> {
        Rows {
            entries: &self.entries,
            row_end: &self.row_end,
            entry_of: Some(&self.entry_of),
        }
        .pair_counts(self.cube, min_overlap as u64)
    }

    /// The exact claim-pair overlap of every co-claiming source pair,
    /// sorted by `(a, b)`.
    pub fn pair_overlaps(&self) -> Vec<((SourceId, SourceId), u64)> {
        self.overlaps(0)
            .into_iter()
            .map(|p| ((p.a, p.b), p.overlap))
            .collect()
    }

    /// Candidate pairs for copy detection: every ordered source pair whose
    /// claim-pair overlap reaches `min_overlap`, sorted by `(a, b)` — the
    /// `(a, b, overlap)` columns of [`pair_counts`] at the same threshold.
    pub fn candidate_pairs(&self, min_overlap: usize) -> Vec<CandidatePair> {
        self.overlaps(min_overlap)
            .into_iter()
            .map(|p| CandidatePair {
                a: p.a,
                b: p.b,
                overlap: p.overlap,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeBuilder;
    use crate::ids::{ExtractorId, ItemId};
    use crate::triple::Observation;

    fn obs(e: u32, w: u32, d: u32, v: u32) -> Observation {
        Observation::certain(
            ExtractorId::new(e),
            SourceId::new(w),
            ItemId::new(d),
            ValueId::new(v),
        )
    }

    #[test]
    fn index_counts_claims_per_source_per_item() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 1, 0, 0));
        b.push(obs(0, 1, 0, 1)); // source 1 claims two values for item 0
        b.push(obs(0, 0, 0, 0));
        b.push(obs(1, 0, 0, 0)); // second extractor: same group, not a new claim
        b.push(obs(0, 2, 1, 0));
        let cube = b.build();
        let idx = CoClaimIndex::build(&cube);
        assert_eq!(idx.num_items(), 2);
        // Item 0's (source, claim count) entries, sorted by source, then
        // item 1's; each entry knows where its row ends.
        let rows = [
            (SourceId::new(0), 1),
            (SourceId::new(1), 2),
            (SourceId::new(2), 1),
        ];
        assert_eq!(idx.entries, rows);
        assert_eq!(idx.row_end, [2, 2, 3]);
        // Groups: (0, s0, v0), (0, s1, v0), (0, s1, v1), (1, s2, v0).
        assert_eq!(idx.entry_of, [0, 1, 1, 2]);
    }

    #[test]
    fn pair_overlaps_use_claim_pair_counting() {
        let mut b = CubeBuilder::new();
        // Item 0: source 0 has 2 claims, source 1 has 1 → overlap 2.
        b.push(obs(0, 0, 0, 0));
        b.push(obs(0, 0, 0, 1));
        b.push(obs(0, 1, 0, 0));
        // Item 1: both claim once → +1.
        b.push(obs(0, 0, 1, 0));
        b.push(obs(0, 1, 1, 0));
        let cube = b.build();
        let idx = CoClaimIndex::build(&cube);
        let overlaps = idx.pair_overlaps();
        assert_eq!(overlaps, vec![((SourceId::new(0), SourceId::new(1)), 3)]);
    }

    #[test]
    fn pair_counts_separate_agreement_from_exclusive_agreement() {
        let mut b = CubeBuilder::new();
        // Item 0: 0 and 1 agree on value 7, nobody else claims it; source
        // 2 disagrees. Item 1: all three agree — no pair is exclusive.
        b.push(obs(0, 0, 0, 7));
        b.push(obs(0, 1, 0, 7));
        b.push(obs(0, 2, 0, 3));
        for w in 0..3 {
            b.push(obs(0, w, 1, 5));
        }
        let cube = b.build();
        let pc = |a, b, overlap, agree, agree_exclusive| PairCounts {
            a: SourceId::new(a),
            b: SourceId::new(b),
            overlap,
            agree,
            agree_exclusive,
        };
        let want = vec![pc(0, 1, 2, 2, 1), pc(0, 2, 2, 1, 0), pc(1, 2, 2, 1, 0)];
        for threads in [1, 2, 8] {
            let got = kbt_flume::with_threads(Some(threads), || pair_counts(&cube, 0));
            assert_eq!(got, want, "threads = {threads}");
        }
        assert!(pair_counts(&cube, 3).is_empty());
    }

    #[test]
    fn candidate_pairs_prune_below_min_overlap() {
        let mut b = CubeBuilder::new();
        for d in 0..5u32 {
            b.push(obs(0, 0, d, 0));
            b.push(obs(0, 1, d, 0));
        }
        b.push(obs(0, 2, 0, 0)); // source 2 overlaps each of 0/1 on one item
        let cube = b.build();
        let idx = CoClaimIndex::build(&cube);
        assert_eq!(idx.pair_overlaps().len(), 3);
        let cands = idx.candidate_pairs(5);
        assert_eq!(cands.len(), 1);
        assert_eq!(
            cands[0],
            CandidatePair {
                a: SourceId::new(0),
                b: SourceId::new(1),
                overlap: 5
            }
        );
        assert!(idx.candidate_pairs(6).is_empty());
    }

    #[test]
    fn empty_cube_yields_empty_index() {
        let cube = CubeBuilder::new().build();
        let idx = CoClaimIndex::build(&cube);
        assert_eq!(idx.num_items(), 0);
        assert!(idx.pair_overlaps().is_empty());
        assert!(idx.candidate_pairs(0).is_empty());
        assert!(kbt_flume::with_threads(Some(4), || pair_counts(&cube, 0)).is_empty());
    }

    #[test]
    fn split_by_weight_tiles_the_sources_and_isolates_a_heavy_one() {
        for (weights, parts) in [
            (vec![1u64; 10], 3usize),
            (vec![0, 0, 0, 0], 3),
            (vec![7, 0, 0, 9, 2], 2),
            (vec![5], 8),
            (vec![], 4),
        ] {
            let ranges = split_by_weight(&weights, parts);
            assert!(ranges.len() <= parts, "{weights:?} parts={parts}");
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, weights.len(), "{weights:?} parts={parts}");
        }
        let mut weights = vec![1u64; 63];
        weights.insert(0, 1_000);
        assert_eq!(split_by_weight(&weights, 4)[0], 0..1);
    }
}
