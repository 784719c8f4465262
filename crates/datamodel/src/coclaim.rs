//! Source-pair co-claim statistics: one census of the cube's item rows,
//! shared by copy detection and the overlap census.
//!
//! Copy detection (Section 5.4.2) scores *source pairs* on how their
//! claims on the same data items relate: the sparse product `A·Aᵀ` of the
//! source × item incidence, read from the item rows in storage order (each
//! row sorted by source). A **count pass** gives every source `a` its
//! number of claim pairs with higher-id sources and every claim its
//! exclusivity. The sources are then cut into one contiguous range per
//! worker, balanced on those counts; each worker walks the rows again,
//! **scatters** its range's claim pairs as compact `(b, agree, exclusive)`
//! records into one bucket per first source `a`, **folds** each bucket
//! into dense `[overlap, agree, agree_exclusive]` slots indexed by `b` and
//! **flushes** the touched slots in `b` order from a two-level bitmap.
//!
//! No hashing, no sort, no merge. Time is `O(groups)` per walk plus `O(1)`
//! per claim pair, `Σ_d fan-in(d)²/2` of them. Extra memory is `O(groups +
//! sources)` plus a buffer of `RECORD_BUDGET` records per worker, never
//! `Σ fan-in²`: a range with more records is scattered one buffer-sized
//! window per walk, and a source whose records straddle windows folds
//! into its slots window by window. Workers own disjoint output rows, so
//! their outputs concatenate in range order, sorted by `(a, b)` and the
//! same at any thread count and budget.
//!
//! Counts are **claim-pair** counts: two sources with `c_a` and `c_b`
//! claims on one item add `c_a · c_b` to their overlap, exactly what the
//! pairwise expansion over claims produces. All counters are `u64`.

use std::ops::Range;

use crate::cube::{ObservationCube, TripleGroup};
use crate::ids::SourceId;

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

/// Records a worker's buffer holds (8 MiB): one walk over the rows each.
const RECORD_BUDGET: usize = 1 << 20;

/// The co-claim statistics of every source pair whose claim-pair overlap
/// reaches `min_overlap` (pairs that never co-claim are not listed, so
/// `0` and `1` select the same pairs), sorted by `(a, b)`.
///
/// One census of the item rows (see the [module docs](self)): `O(groups)`
/// per walk over the rows plus `O(1)` per claim pair, in `O(groups +
/// sources)` extra memory plus a fixed record budget per worker; the same
/// rows at any `kbt_flume::num_threads()`.
pub fn pair_counts(cube: &ObservationCube, min_overlap: usize) -> Vec<PairCounts> {
    census(cube, min_overlap as u64, RECORD_BUDGET)
}

/// [`pair_counts`] at a buffer of `budget` records per worker.
fn census(cube: &ObservationCube, min_overlap: u64, budget: usize) -> Vec<PairCounts> {
    let rows = count(cube);
    let ranges = split_by_weight(&rows.pairs, kbt_flume::num_threads());
    let most = ranges.iter().map(|r| rows.pairs[r.clone()].iter().sum());
    let records = most.max().unwrap_or(0).min(budget as u64) as usize;
    // Allocated here, not on worker threads whose malloc arenas keep it.
    let worker = |_| Worker::new(cube.num_sources(), records);
    let mut workers: Vec<Worker> = ranges.iter().map(worker).collect();
    let done = kbt_flume::run_tasks(ranges.len(), &mut workers, |w, i| {
        Ok::<_, std::convert::Infallible>(w.census(&rows, ranges[i].clone(), min_overlap))
    });
    done.unwrap_or_else(|never| match never {}).concat()
}

/// The cube's item rows and what the count pass learns of them.
struct Rows<'a> {
    cube: &'a ObservationCube,
    /// Per group: exactly two claims on its item carry its value, so a
    /// pair agreeing on it is alone in doing so. Deliberately a property
    /// of the claims, not of the value posterior: a copier's doubled
    /// votes can convince the model its shared mistakes are true, which
    /// would launder a posterior-based test.
    exclusive: Vec<bool>,
    /// Per source `a`: its claim pairs with higher-id sources on a common
    /// item, i.e. its records.
    pairs: Vec<u64>,
}

/// The count pass. Backer counts per value use one dense counter array,
/// zeroed again behind each row.
fn count(cube: &ObservationCube) -> Rows<'_> {
    let groups = cube.groups();
    let mut exclusive = Vec::with_capacity(groups.len());
    let mut pairs = vec![0u64; cube.num_sources()];
    let mut backers = vec![0u32; cube.num_values()];
    for rows in cube.item_rows() {
        let row = &groups[rows];
        row.iter().for_each(|g| backers[g.value.index()] += 1);
        exclusive.extend(row.iter().map(|g| backers[g.value.index()] == 2));
        row.iter().for_each(|g| backers[g.value.index()] = 0);
        let mut i = 0;
        while i < row.len() {
            let j = run_end(row, i);
            pairs[row[i].source.index()] += ((j - i) * (row.len() - j)) as u64;
            i = j;
        }
    }
    Rows {
        cube,
        exclusive,
        pairs,
    }
}

/// The end of the run of claims by `row[i]`'s source.
fn run_end(row: &[TripleGroup], i: usize) -> usize {
    let a = row[i].source;
    i + 1 + row[i + 1..].iter().take_while(|g| g.source == a).count()
}

/// One worker's buffers.
struct Worker {
    /// One window of `b << 2 | exclusive << 1 | agree` records, bucketed
    /// by first source.
    records: Vec<u64>,
    /// `[overlap, agree, agree_exclusive]` per second source `b`.
    slots: Vec<[u64; 3]>,
    /// Bit `b` is set for a touched slot; bit `k` of `summary`, for a
    /// non-zero word `k` of `touched`.
    touched: Vec<u64>,
    summary: Vec<u64>,
    /// The highest touched `b`.
    last: usize,
}

impl Worker {
    fn new(num_sources: usize, records: usize) -> Self {
        Self {
            records: vec![0; records],
            slots: vec![[0; 3]; num_sources],
            touched: vec![0; num_sources.div_ceil(64)],
            summary: vec![0; num_sources.div_ceil(64 * 64)],
            last: 0,
        }
    }

    /// The pairs `(a, b)` with `a` in `sources` and overlap ≥
    /// `min_overlap`, sorted by `(a, b)`. The range's records are numbered
    /// source by source, each source's in row order; each window of a
    /// buffer's worth of numbers is scattered, then folded bucket by
    /// bucket, and a source is flushed once its last record is folded.
    fn census(&mut self, rows: &Rows, sources: Range<usize>, min_overlap: u64) -> Vec<PairCounts> {
        let total: u64 = rows.pairs[sources.clone()].iter().sum();
        let mut out = Vec::new();
        // `a` is the first source not yet flushed, `base` its first number.
        let (mut a, mut base, mut w0) = (sources.start, 0, 0);
        while w0 < total {
            let window = w0..total.min(w0 + self.records.len() as u64);
            self.scatter(rows, a..sources.end, base, &window);
            while a < sources.end && base < window.end {
                let end = base + rows.pairs[a];
                let bucket = (base.max(w0) - w0) as usize..(end.min(window.end) - w0) as usize;
                for &r in &self.records[bucket] {
                    let b = (r >> 2) as usize;
                    let slot = &mut self.slots[b];
                    slot[0] += 1;
                    slot[1] += r & 1;
                    slot[2] += r >> 1 & 1;
                    self.touched[b >> 6] |= 1 << (b & 63);
                    self.summary[b >> 12] |= 1 << (b >> 6 & 63);
                    self.last = self.last.max(b);
                }
                if end > window.end {
                    break;
                }
                if rows.pairs[a] > 0 {
                    self.flush(a, min_overlap, &mut out);
                }
                (a, base) = (a + 1, end);
            }
            w0 = window.end;
        }
        out
    }

    /// Write the records of `sources`, numbered from `base` on, that fall
    /// in `window`, in one walk over the rows in item order.
    fn scatter(&mut self, rows: &Rows, sources: Range<usize>, base: u64, window: &Range<u64>) {
        let starts = rows.pairs[sources.clone()].iter().scan(base, |next, &n| {
            *next += n;
            Some(*next - n)
        });
        let mut cursor: Vec<u64> = starts.take_while(|&at| at < window.end).collect();
        let (first, end) = (sources.start, sources.start + cursor.len());
        let (groups, exclusive) = (rows.cube.groups(), &rows.exclusive);
        for item in rows.cube.item_rows() {
            let start = item.start;
            let row = &groups[item];
            let mut i = 0;
            while i < row.len() {
                let a = row[i].source.index();
                let j = run_end(row, i);
                if j == row.len() || a >= end {
                    break;
                }
                if a >= first {
                    let mut k = cursor[a - first];
                    for p in start + i..start + j {
                        let (value, exclusive) = (groups[p].value, exclusive[p]);
                        for q in &row[j..] {
                            if window.contains(&k) {
                                let agree = q.value == value;
                                let flags = u64::from(agree & exclusive) << 1 | u64::from(agree);
                                self.records[(k - window.start) as usize] =
                                    u64::from(q.source.0) << 2 | flags;
                            }
                            k += 1;
                        }
                    }
                    cursor[a - first] = k;
                }
                i = j;
            }
        }
    }

    /// Emit `a`'s touched slots in `b` order, those reaching
    /// `min_overlap` as rows, and zero them. Every `b` is above `a`.
    fn flush(&mut self, a: usize, min_overlap: u64, out: &mut Vec<PairCounts>) {
        for s in (a + 1) >> 12..=self.last >> 12 {
            let mut words = std::mem::take(&mut self.summary[s]);
            while words != 0 {
                let w = s << 6 | words.trailing_zeros() as usize;
                words &= words - 1;
                let mut bits = std::mem::take(&mut self.touched[w]);
                while bits != 0 {
                    let b = w << 6 | bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let [overlap, agree, agree_exclusive] = std::mem::take(&mut self.slots[b]);
                    if overlap >= min_overlap {
                        out.push(PairCounts {
                            a: SourceId::new(a as u32),
                            b: SourceId::new(b as u32),
                            overlap,
                            agree,
                            agree_exclusive,
                        });
                    }
                }
            }
        }
        self.last = 0;
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

/// The overlap census of a cube: the `(a, b, overlap)` columns of
/// [`pair_counts`], counted per query.
#[derive(Debug, Clone)]
pub struct CoClaimIndex<'a> {
    cube: &'a ObservationCube,
}

impl<'a> CoClaimIndex<'a> {
    /// The census of `cube`.
    pub fn build(cube: &'a ObservationCube) -> Self {
        Self { cube }
    }

    /// Number of items the census covers.
    pub fn num_items(&self) -> usize {
        self.cube.num_items()
    }

    /// The exact claim-pair overlap of every co-claiming source pair,
    /// sorted by `(a, b)`.
    pub fn pair_overlaps(&self) -> Vec<((SourceId, SourceId), u64)> {
        let rows = pair_counts(self.cube, 0).into_iter();
        rows.map(|p| ((p.a, p.b), p.overlap)).collect()
    }

    /// Candidate pairs for copy detection: every ordered source pair whose
    /// claim-pair overlap reaches `min_overlap`, sorted by `(a, b)`.
    pub fn candidate_pairs(&self, min_overlap: usize) -> Vec<CandidatePair> {
        let rows = pair_counts(self.cube, min_overlap).into_iter();
        rows.map(|PairCounts { a, b, overlap, .. }| CandidatePair { a, b, overlap })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeBuilder;
    use crate::ids::{ExtractorId, ItemId, ValueId};
    use crate::triple::Observation;

    /// The cube of `(extractor, source, item, value)` claims.
    fn cube(claims: impl IntoIterator<Item = (u32, u32, u32, u32)>) -> ObservationCube {
        let mut b = CubeBuilder::new();
        for (e, w, d, v) in claims {
            let (e, w) = (ExtractorId::new(e), SourceId::new(w));
            b.push(Observation::certain(e, w, ItemId::new(d), ValueId::new(v)));
        }
        b.build()
    }

    /// `(a, b, overlap, agree, agree_exclusive)` per row.
    fn columns(rows: &[PairCounts]) -> Vec<(u32, u32, u64, u64, u64)> {
        let row = |p: &PairCounts| (p.a.0, p.b.0, p.overlap, p.agree, p.agree_exclusive);
        rows.iter().map(row).collect()
    }

    fn cand(a: u32, b: u32, overlap: u64) -> CandidatePair {
        let (a, b) = (SourceId::new(a), SourceId::new(b));
        CandidatePair { a, b, overlap }
    }

    #[test]
    fn index_counts_claims_per_source_per_item() {
        // Item 0: source 1 claims two values; source 0's claim, seen by
        // two extractors, is one group. Item 1: source 2 alone.
        let item0 = [(0, 1, 0, 0), (0, 1, 0, 1), (0, 0, 0, 0), (1, 0, 0, 0)];
        let cube = cube(item0.into_iter().chain([(0, 2, 1, 0)]));
        let idx = CoClaimIndex::build(&cube);
        assert_eq!(idx.num_items(), 2);
        // One claim by source 0 against two by source 1.
        let pair = (SourceId::new(0), SourceId::new(1));
        assert_eq!(idx.pair_overlaps(), [(pair, 2)]);
        assert_eq!(idx.candidate_pairs(2), [cand(0, 1, 2)]);
        assert!(idx.candidate_pairs(3).is_empty());
    }

    #[test]
    fn pair_overlaps_use_claim_pair_counting() {
        // Item 0: source 0 has 2 claims, source 1 has 1 → overlap 2.
        // Item 1: both claim once → +1.
        let item0 = [(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0)];
        let cube = cube(item0.into_iter().chain([(0, 0, 1, 0), (0, 1, 1, 0)]));
        let overlaps = CoClaimIndex::build(&cube).pair_overlaps();
        assert_eq!(overlaps, [((SourceId::new(0), SourceId::new(1)), 3)]);
    }

    #[test]
    fn pair_counts_separate_agreement_from_exclusive_agreement() {
        // Item 0: 0 and 1 agree on value 7, nobody else claims it; source
        // 2 disagrees. Item 1: all three agree — no pair is exclusive.
        let item0 = [(0, 0, 0, 7), (0, 1, 0, 7), (0, 2, 0, 3)];
        let cube = cube(item0.into_iter().chain((0..3).map(|w| (0, w, 1, 5))));
        let want = [(0, 1, 2, 2, 1), (0, 2, 2, 1, 0), (1, 2, 2, 1, 0)];
        for threads in [1, 2, 8] {
            let got = kbt_flume::with_threads(Some(threads), || pair_counts(&cube, 0));
            assert_eq!(columns(&got), want, "threads = {threads}");
        }
        assert!(pair_counts(&cube, 3).is_empty());
    }

    #[test]
    fn candidate_pairs_prune_below_min_overlap() {
        // Sources 0 and 1 share five items; source 2 shares item 0 only.
        let shared = (0..5).flat_map(|d| [(0, 0, d, 0), (0, 1, d, 0)]);
        let cube = cube(shared.chain([(0, 2, 0, 0)]));
        let idx = CoClaimIndex::build(&cube);
        assert_eq!(idx.pair_overlaps().len(), 3);
        assert_eq!(idx.candidate_pairs(5), [cand(0, 1, 5)]);
        assert!(idx.candidate_pairs(6).is_empty());
    }

    #[test]
    fn empty_cube_yields_empty_index() {
        let cube = cube([]);
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

    /// At a record budget small enough for three walks or more, with a
    /// source that passes it alone, the census has the one-walk rows at
    /// any thread count: on a random cube, on one item of 2,000 sources
    /// (every seventh claiming twice), and with one source on every item.
    #[test]
    fn a_tiny_record_budget_changes_no_row() {
        let mut x = 7u64;
        let mut next = move |n: u64| {
            x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
            ((x >> 33) % n) as u32
        };
        let random = (0..600).map(|_| (next(2), next(40), next(30), next(4)));
        let twice = (0..2_000).step_by(7).map(|w| (0, w, 0, 3 + w % 2));
        let wide = (0..2_000).map(|w| (0, w, 0, w % 3)).chain(twice);
        let beside = |d: u32| (0..6).map(move |k| (0, k * (1 + d % 9), d, k % 3));
        let heavy = (0..100).flat_map(beside);
        let cases = [(cube(random), 16), (cube(wide), 1_000), (cube(heavy), 64)];
        for (case, (cube, budget)) in cases.iter().enumerate() {
            let pairs = count(cube).pairs;
            let (total, most) = (pairs.iter().sum::<u64>(), pairs.iter().max());
            assert!(total >= 3 * budget, "case {case}: under three walks");
            assert!(
                case == 0 || most > Some(budget),
                "case {case}: no lone heavy source"
            );
            let one_walk = census(cube, 0, usize::MAX);
            for threads in [1, 2, 8] {
                let got =
                    kbt_flume::with_threads(Some(threads), || census(cube, 0, *budget as usize));
                assert!(
                    got == one_walk && !got.is_empty(),
                    "case {case}, {threads} threads"
                );
            }
        }
    }
}
