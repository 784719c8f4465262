//! The sparse observation "data cube" of Figure 1(b).
//!
//! The cube stores one [`Cell`] per nonzero `X_{ewdv}` entry, grouped by the
//! `(w, d, v)` triple it supports. Groups are sorted by
//! `(source, item, value)`, so all groups of one source are contiguous; a
//! secondary index lists the groups of each data item. This columnar layout
//! lets every inference stage stream the data it needs without hashing:
//!
//! * extraction-correctness (per-triple) — iterate [`ObservationCube::groups`],
//! * value inference (per-item) — iterate [`ObservationCube::groups_of_item`],
//! * source accuracy (per-source) — iterate [`ObservationCube::source_groups`],
//! * extractor quality — stream all cells once, accumulating per extractor.
//!
//! Absence votes (Eq. 13) need to know which extractors *could have*
//! extracted a triple but did not. At web scale not every extractor visits
//! every page, so the cube records, per source, the set of extractors that
//! extracted anything from it ([`ObservationCube::extractors_on_source`]);
//! the vote counter treats exactly those as the candidate set. This matches
//! the arithmetic of the paper's Example 3.1, where all five extractors are
//! active on every page of the example.

use std::cmp::Ordering;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Mutex;

use crate::ids::{ExtractorId, ItemId, SourceId, ValueId};
use crate::triple::Observation;

/// One extraction supporting a triple group: which extractor, with what
/// confidence `p(X_ewdv = 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The extractor that produced the extraction.
    pub extractor: ExtractorId,
    /// Soft-evidence confidence in `[0, 1]`.
    pub confidence: f64,
}

/// All extractions of one `(w, d, v)` triple — a row `X_wdv` of the cube.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripleGroup {
    /// The web source.
    pub source: SourceId,
    /// The data item.
    pub item: ItemId,
    /// The value.
    pub value: ValueId,
    cells: Range<u32>,
}

impl TripleGroup {
    /// Range of this group's cells inside [`ObservationCube::cells`].
    pub fn cell_range(&self) -> Range<usize> {
        self.cells.start as usize..self.cells.end as usize
    }
}

/// Immutable, index-accelerated storage for the observation matrix `X`.
#[derive(Debug, Clone)]
pub struct ObservationCube {
    cells: Vec<Cell>,
    groups: Vec<TripleGroup>,
    /// Per source: contiguous range in `groups`.
    source_group_ranges: Vec<Range<u32>>,
    /// Group indices ordered by item; `item_offsets[d]..item_offsets[d+1]`.
    item_groups: Vec<u32>,
    item_offsets: Vec<u32>,
    /// CSR of sorted distinct extractors per source:
    /// `source_extractor_ids[source_extractor_offsets[w]..source_extractor_offsets[w+1]]`.
    /// One flat allocation instead of a `Vec<Vec<_>>` — cheap to build and
    /// to clone.
    source_extractor_offsets: Vec<u32>,
    source_extractor_ids: Vec<ExtractorId>,
    /// CSR of sorted distinct observed values per item:
    /// `item_values[item_value_offsets[d]..item_value_offsets[d+1]]`.
    /// Precomputed once at build so the value layer never re-sorts or
    /// dedups inside an EM round.
    item_value_offsets: Vec<u32>,
    item_values: Vec<ValueId>,
    num_extractors: u32,
    num_values: u32,
}

impl ObservationCube {
    /// Total number of nonzero cube cells (extractions).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of distinct `(w, d, v)` triples with at least one extraction.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of sources (dense id space, including sources with no data).
    pub fn num_sources(&self) -> usize {
        self.source_group_ranges.len()
    }

    /// Number of extractors in the dense id space.
    pub fn num_extractors(&self) -> usize {
        self.num_extractors as usize
    }

    /// Number of data items in the dense id space.
    pub fn num_items(&self) -> usize {
        self.item_offsets.len().saturating_sub(1)
    }

    /// Number of values in the dense id space.
    pub fn num_values(&self) -> usize {
        self.num_values as usize
    }

    /// All triple groups, sorted by `(source, item, value)`.
    pub fn groups(&self) -> &[TripleGroup] {
        &self.groups
    }

    /// The cells of group `g`.
    pub fn cells_of(&self, g: &TripleGroup) -> &[Cell] {
        &self.cells[g.cell_range()]
    }

    /// Indices (into [`Self::groups`]) of the groups about data item `d`.
    pub fn groups_of_item(&self, d: ItemId) -> impl Iterator<Item = usize> + '_ {
        let lo = self.item_offsets[d.index()] as usize;
        let hi = self.item_offsets[d.index() + 1] as usize;
        self.item_groups[lo..hi].iter().map(|&g| g as usize)
    }

    /// The item index in CSR form, `(offsets, group indices)`: item `d`'s
    /// groups are `indices[offsets[d]..offsets[d + 1]]`, ascending — so
    /// sorted by `(source, value)`.
    pub(crate) fn item_index(&self) -> (&[u32], &[u32]) {
        (&self.item_offsets, &self.item_groups)
    }

    /// The per-item value lists in CSR form, `(offsets, values)`.
    pub(crate) fn item_values(&self) -> (&[u32], &[ValueId]) {
        (&self.item_value_offsets, &self.item_values)
    }

    /// The per-source extractor sets in CSR form, `(offsets, ids)`.
    pub(crate) fn source_extractors(&self) -> (&[u32], &[ExtractorId]) {
        (&self.source_extractor_offsets, &self.source_extractor_ids)
    }

    /// The contiguous range of group indices belonging to source `w`.
    pub fn source_groups(&self, w: SourceId) -> Range<usize> {
        let r = &self.source_group_ranges[w.index()];
        r.start as usize..r.end as usize
    }

    /// Sorted distinct extractors that extracted anything from source `w` —
    /// the candidate set used for absence votes.
    pub fn extractors_on_source(&self, w: SourceId) -> &[ExtractorId] {
        let lo = self.source_extractor_offsets[w.index()] as usize;
        let hi = self.source_extractor_offsets[w.index() + 1] as usize;
        &self.source_extractor_ids[lo..hi]
    }

    /// Sorted distinct values observed (by any source) for item `d`, as a
    /// borrowed slice of the precomputed item→values CSR index. The slot
    /// of a value within this slice is the dense per-item "value slot" the
    /// columnar E-step indexes its accumulators with.
    pub fn observed_values(&self, d: ItemId) -> &[ValueId] {
        let lo = self.item_value_offsets[d.index()] as usize;
        let hi = self.item_value_offsets[d.index() + 1] as usize;
        &self.item_values[lo..hi]
    }

    /// Number of triples (groups) attributed to source `w`.
    pub fn source_size(&self, w: SourceId) -> usize {
        self.source_groups(w).len()
    }

    /// Iterate `(group index, group, cells)` for all groups.
    pub fn iter_with_cells(&self) -> impl Iterator<Item = (usize, &TripleGroup, &[Cell])> + '_ {
        self.groups
            .iter()
            .enumerate()
            .map(move |(i, g)| (i, g, self.cells_of(g)))
    }

    /// Merge `delta` into this cube **without re-sorting the existing
    /// layout**: the delta alone is sorted (`O(m log m)` for `m` delta
    /// rows) and merge-walked against the already-sorted group list
    /// (`O(groups + cells)`), then the secondary indexes are rebuilt in
    /// one linear pass. The result is bit-identical to rebuilding a
    /// [`CubeBuilder`] from the union of all observations (duplicate
    /// `(e, w, d, v)` entries keep the maximum confidence, exactly as
    /// [`CubeBuilder::build`] does) — the `session_incremental` proptest
    /// pins this equivalence down.
    ///
    /// Dense id spaces grow to cover the delta; existing (possibly
    /// reserved) sizes are never shrunk.
    pub fn apply_delta(&self, delta: &[Observation]) -> ObservationCube {
        if delta.is_empty() {
            return self.clone();
        }
        // The delta on its own, admitted (clamped, id spaces grown from
        // this cube's), sorted and grouped exactly as a build would.
        let mut d = CubeBuilder::from(delta.to_vec());
        d.reserve_ids(
            self.num_sources() as u32,
            self.num_extractors,
            self.num_items() as u32,
            self.num_values,
        );
        d.obs.sort_unstable_by_key(row_key);
        let (new_cells, new_groups) = group_rows(d.obs.iter().copied());

        let mut cells: Vec<Cell> = Vec::with_capacity(self.cells.len() + new_cells.len());
        let mut groups: Vec<TripleGroup> = Vec::with_capacity(self.groups.len() + new_groups.len());
        let key = |g: &TripleGroup| (g.source, g.item, g.value);
        let (mut old, mut new) = (self.groups.iter().peekable(), new_groups.iter().peekable());
        loop {
            // The next key in order, from either side or — equal — both.
            let order = match (old.peek(), new.peek()) {
                (Some(a), Some(b)) => key(a).cmp(&key(b)),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            let a = old.next_if(|_| order.is_le());
            let b = new.next_if(|_| order.is_ge());
            let start = cells.len() as u32;
            merge_cells(
                &mut cells,
                a.map_or(&[], |g| &self.cells[g.cell_range()]),
                b.map_or(&[], |g| &new_cells[g.cell_range()]),
            );
            let g = a.or(b).expect("one side had a group");
            groups.push(TripleGroup {
                cells: start..cells.len() as u32,
                ..g.clone()
            });
        }

        assemble_cube(
            cells,
            groups,
            d.num_sources,
            d.num_extractors,
            d.num_items,
            d.num_values,
        )
    }

    /// Remove every triple group matching one of `retractions` — the
    /// **negative delta** of an incremental-fusion round (a source took a
    /// page down, an extractor's pattern was fixed, a value was renamed
    /// away). All cells of a matching `(source, item, value)` group are
    /// dropped; unknown triples are ignored.
    ///
    /// The result is canonical: bit-identical to rebuilding a
    /// [`CubeBuilder`] from the surviving observations, so every
    /// downstream invariant (item index ⊇ group values, source ranges,
    /// extractor candidate sets) holds again after a retraction — the
    /// `serve` stress tests and the `FusionSession::retract` regression
    /// tests rely on this. Dense id spaces are **never shrunk**: a
    /// retracted source keeps its id (and its default parameters), so
    /// per-source state carried across refits stays aligned.
    pub fn retract(&self, retractions: &[(SourceId, ItemId, ValueId)]) -> ObservationCube {
        if retractions.is_empty() {
            return self.clone();
        }
        let mut keys: Vec<(SourceId, ItemId, ValueId)> = retractions.to_vec();
        keys.sort_unstable();
        keys.dedup();

        let mut cells: Vec<Cell> = Vec::with_capacity(self.cells.len());
        let mut groups: Vec<TripleGroup> = Vec::with_capacity(self.groups.len());
        let mut ki = 0;
        for grp in &self.groups {
            let key = (grp.source, grp.item, grp.value);
            // Both lists are sorted by (source, item, value): one walk.
            while ki < keys.len() && keys[ki] < key {
                ki += 1;
            }
            if ki < keys.len() && keys[ki] == key {
                continue; // retracted
            }
            let start = cells.len() as u32;
            cells.extend_from_slice(&self.cells[grp.cell_range()]);
            groups.push(TripleGroup {
                source: grp.source,
                item: grp.item,
                value: grp.value,
                cells: start..cells.len() as u32,
            });
        }

        assemble_cube(
            cells,
            groups,
            self.num_sources() as u32,
            self.num_extractors,
            self.num_items() as u32,
            self.num_values,
        )
    }

    /// Approximate resident size of the cube in bytes (vector payloads
    /// only, no allocator overhead) — what `benchmark/` reports as
    /// `datamodel.cube_bytes`.
    pub fn approx_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<Cell>()
            + self.groups.len() * std::mem::size_of::<TripleGroup>()
            + self.source_group_ranges.len() * std::mem::size_of::<Range<u32>>()
            + (self.item_groups.len()
                + self.item_offsets.len()
                + self.source_extractor_offsets.len()
                + self.source_extractor_ids.len()
                + self.item_value_offsets.len()
                + self.item_values.len())
                * 4
    }
}

/// Append the union of two extractor-sorted cell lists of one group, an
/// extractor on both sides keeping the larger confidence.
fn merge_cells(out: &mut Vec<Cell>, mut a: &[Cell], mut b: &[Cell]) {
    while let (Some(x), Some(y)) = (a.first(), b.first()) {
        let order = x.extractor.cmp(&y.extractor);
        out.push(match order {
            Ordering::Less => *x,
            Ordering::Greater => *y,
            Ordering::Equal => Cell {
                confidence: y.confidence.max(x.confidence),
                ..*x
            },
        });
        a = &a[order.is_le() as usize..];
        b = &b[order.is_ge() as usize..];
    }
    out.extend_from_slice(a);
    out.extend_from_slice(b);
}

/// Size of the dense id space that holds `id`. Every axis reserves
/// `u32::MAX`: `id + 1` would wrap to an empty space in a release build
/// and index out of bounds much later (`kbt-net` refuses such a frame).
fn space_for(id: u32) -> u32 {
    id.checked_add(1)
        .expect("id u32::MAX is reserved: a dense id space holds id + 1 entries")
}

/// Build the secondary indexes over sorted `(cells, groups)` — shared by
/// [`CubeBuilder::build`] (full sort) and [`ObservationCube::apply_delta`]
/// (merge-walk). One linear pass over groups plus a counting sort of the
/// item index.
fn assemble_cube(
    cells: Vec<Cell>,
    groups: Vec<TripleGroup>,
    num_sources: u32,
    num_extractors: u32,
    num_items: u32,
    num_values: u32,
) -> ObservationCube {
    // Source ranges over the (source-sorted) group list, plus the per-source
    // extractor candidate sets in CSR form. `seen[e] == w + 1` marks extractor
    // `e` as listed for source `w`: one pass over its cells, one short sort.
    let ns = num_sources as usize;
    let mut source_group_ranges = vec![0u32..0u32; ns];
    let mut source_extractor_offsets = vec![0u32; ns + 1];
    let mut source_extractor_ids: Vec<ExtractorId> = Vec::new();
    let mut seen = vec![0u32; num_extractors as usize];
    let mut g = 0;
    while g < groups.len() {
        let w = groups[g].source;
        let start = g as u32;
        let first = source_extractor_ids.len();
        while g < groups.len() && groups[g].source == w {
            for c in &cells[groups[g].cell_range()] {
                let mark = &mut seen[c.extractor.index()];
                if *mark != w.0 + 1 {
                    *mark = w.0 + 1;
                    source_extractor_ids.push(c.extractor);
                }
            }
            g += 1;
        }
        source_extractor_ids[first..].sort_unstable();
        source_group_ranges[w.index()] = start..g as u32;
        source_extractor_offsets[w.index() + 1] = source_extractor_ids.len() as u32;
    }
    // A source with no group keeps the empty range at its predecessor's end.
    for w in 0..ns {
        source_extractor_offsets[w + 1] =
            source_extractor_offsets[w + 1].max(source_extractor_offsets[w]);
    }

    // Item index: counting sort of group indices by item. Each group's
    // value lands beside its index, so the value lists below read one
    // sequential column instead of chasing `groups[g]` per row.
    let ni = num_items as usize;
    let mut item_offsets = vec![0u32; ni + 1];
    for grp in &groups {
        item_offsets[grp.item.index() + 1] += 1;
    }
    for k in 0..ni {
        item_offsets[k + 1] += item_offsets[k];
    }
    let mut cursor = item_offsets.clone();
    let mut item_groups = vec![0u32; groups.len()];
    let mut row_values = vec![ValueId(0); groups.len()];
    for (gi, grp) in groups.iter().enumerate() {
        let slot = &mut cursor[grp.item.index()];
        item_groups[*slot as usize] = gi as u32;
        row_values[*slot as usize] = grp.value;
        *slot += 1;
    }

    // Item → sorted distinct observed values, CSR: each item's rows are
    // few, so a per-item sort + dedup in a scratch run is linearish.
    let mut item_value_offsets = Vec::with_capacity(ni + 1);
    item_value_offsets.push(0u32);
    let mut item_values: Vec<ValueId> = Vec::new();
    let mut scratch: Vec<ValueId> = Vec::new();
    for rows in item_offsets.windows(2) {
        scratch.clear();
        scratch.extend_from_slice(&row_values[rows[0] as usize..rows[1] as usize]);
        scratch.sort_unstable();
        scratch.dedup();
        item_values.extend_from_slice(&scratch);
        item_value_offsets.push(item_values.len() as u32);
    }

    ObservationCube {
        cells,
        groups,
        source_group_ranges,
        item_groups,
        item_offsets,
        source_extractor_offsets,
        source_extractor_ids,
        item_value_offsets,
        item_values,
        num_extractors,
        num_values,
    }
}

/// Accumulates raw [`Observation`]s and freezes them into an
/// [`ObservationCube`].
///
/// Duplicate `(e, w, d, v)` entries are merged keeping the maximum
/// confidence (an extractor may fire the same pattern twice on one page).
#[derive(Debug, Default)]
pub struct CubeBuilder {
    obs: Vec<Observation>,
    num_sources: u32,
    num_extractors: u32,
    num_items: u32,
    num_values: u32,
}

/// Adopt `obs` as the builder's buffer: the same builder as pushing every
/// element, without a second copy of the observations.
impl From<Vec<Observation>> for CubeBuilder {
    fn from(mut obs: Vec<Observation>) -> Self {
        let mut b = Self::default();
        for o in &mut obs {
            b.admit(o);
        }
        b.obs = obs;
        b
    }
}

impl CubeBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffered observations (before dedup).
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// True when no observation has been added.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// Pre-allocate for `n` observations.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            obs: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Add one observation. Confidence is clamped to `[0, 1]`; NaN is no
    /// evidence and becomes 0.
    pub fn push(&mut self, mut o: Observation) -> &mut Self {
        self.admit(&mut o);
        self.obs.push(o);
        self
    }

    /// Clamp `o`'s confidence (NaN to 0: one NaN would reach every vote
    /// of its item) and grow the id spaces to hold it.
    fn admit(&mut self, o: &mut Observation) {
        o.confidence = if o.confidence.is_nan() {
            0.0
        } else {
            o.confidence.clamp(0.0, 1.0)
        };
        self.num_sources = self.num_sources.max(space_for(o.source.0));
        self.num_extractors = self.num_extractors.max(space_for(o.extractor.0));
        self.num_items = self.num_items.max(space_for(o.item.0));
        self.num_values = self.num_values.max(space_for(o.value.0));
    }

    /// Declare the dense id-space sizes explicitly (useful when some ids
    /// carry no observations but parameters must still exist for them).
    pub fn reserve_ids(
        &mut self,
        sources: u32,
        extractors: u32,
        items: u32,
        values: u32,
    ) -> &mut Self {
        self.num_sources = self.num_sources.max(sources);
        self.num_extractors = self.num_extractors.max(extractors);
        self.num_items = self.num_items.max(items);
        self.num_values = self.num_values.max(values);
        self
    }

    /// Sort, dedup, group, and index the observations.
    ///
    /// Three ways to the same key order `(source, item, value, extractor)`,
    /// picked by [`build_path`] from the input alone; duplicate keys merge
    /// to their maximum confidence, so the order among equal keys never
    /// shows and the cube is the same on every path at any worker count.
    pub fn build(mut self) -> ObservationCube {
        let path = build_path(&self.obs);
        if path == BuildPath::SerialSort {
            self.obs.sort_unstable_by_key(row_key);
        }
        let (cells, groups) = if path == BuildPath::Partitioned {
            let rows = sort_partitioned(&self.obs, self.num_sources as usize);
            group_rows(rows.iter().map(|r| Observation {
                source: SourceId((r[0] >> 32) as u32),
                item: ItemId(r[0] as u32),
                value: ValueId((r[1] >> 32) as u32),
                extractor: ExtractorId(r[1] as u32),
                confidence: f64::from_bits(r[2]),
            }))
        } else {
            group_rows(self.obs.iter().copied())
        };
        drop(self.obs);

        assemble_cube(
            cells,
            groups,
            self.num_sources,
            self.num_extractors,
            self.num_items,
            self.num_values,
        )
    }
}

/// `[source·2³² + item, value·2³² + extractor]`: the same order as the
/// tuple `(source, item, value, extractor)` in two comparisons.
fn row_key(o: &Observation) -> [u64; 2] {
    [
        (o.source.0 as u64) << 32 | o.item.0 as u64,
        (o.value.0 as u64) << 32 | o.extractor.0 as u64,
    ]
}

/// How [`CubeBuilder::build`] brings its rows into key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BuildPath {
    /// Already in key order: one linear check, no sort.
    Sorted,
    /// One `sort_unstable_by_key` over all rows.
    SerialSort,
    /// [`sort_partitioned`]: source spans sorted as parallel tasks.
    Partitioned,
}

/// Rows from which a counting partition by source beats one sort, worker
/// spawn and the second row buffer included.
const PARTITION_MIN_ROWS: usize = 1 << 16;

/// The sorted check comes first on purpose: recovery hands the builder a
/// checkpoint's cells in cube order on every `recover`, where pattern-
/// defeating quicksort is O(n) and a counting partition plus worker spawn
/// is not (a partition-always prototype cost `ingest_durable` 41 → 47 ms
/// per recovery). On unsorted input the check stops at the first inversion.
fn build_path(obs: &[Observation]) -> BuildPath {
    if obs.is_sorted_by_key(row_key) {
        BuildPath::Sorted
    } else if obs.len() < PARTITION_MIN_ROWS {
        BuildPath::SerialSort
    } else {
        BuildPath::Partitioned
    }
}

/// A row of the partitioned build, [`row_key`] then the confidence bits:
/// plain words, so `vec![[0; 3]; n]` is zeroed pages from the allocator
/// rather than a fill loop, and a comparison reads no further than the key.
type PackedRow = [u64; 3];

/// Rows per sort task (contiguous sources, a source never split).
const SPAN_ROWS: usize = 1 << 15;

/// `obs` in key order, on every core [`kbt_flume::num_threads`] allows. A
/// counting pass gives every source its window of the result and a stable
/// scatter fills it — input that arrives item-major or source-major leaves
/// each window sorted or nearly so; then spans of about [`SPAN_ROWS`] rows
/// sort as tasks, source window by source window, on `(item, value,
/// extractor)` alone. Sources ascend, so the whole is in key order.
fn sort_partitioned(obs: &[Observation], num_sources: usize) -> Vec<PackedRow> {
    let mut starts = vec![0usize; num_sources + 1];
    for part in kbt_flume::par_ranges(obs.len(), |r| {
        let mut count = vec![0u32; num_sources];
        obs[r].iter().for_each(|o| count[o.source.index()] += 1);
        count
    }) {
        for (n, c) in starts[1..].iter_mut().zip(part) {
            *n += c as usize;
        }
    }
    for w in 0..num_sources {
        starts[w + 1] += starts[w];
    }
    let mut rows = vec![[0u64; 3]; obs.len()];
    let mut next = starts.clone();
    for o in obs {
        let [hi, lo] = row_key(o);
        rows[next[o.source.index()]] = [hi, lo, o.confidence.to_bits()];
        next[o.source.index()] += 1;
    }
    // One task per span: the span's rows and its sources' window bounds.
    let mut spans: Vec<Mutex<(&mut [PackedRow], &[usize])>> = Vec::new();
    let (mut rest, mut first) = (rows.as_mut_slice(), 0);
    for w in 1..=num_sources {
        if starts[w] - starts[first] >= SPAN_ROWS || w == num_sources {
            let span = rest.split_off_mut(..starts[w] - starts[first]);
            spans.push(Mutex::new((
                span.expect("windows tile the rows"),
                &starts[first..=w],
            )));
            first = w;
        }
    }
    let workers = &mut vec![(); kbt_flume::num_threads()];
    let sorted: Result<Vec<()>, Infallible> =
        kbt_flume::run_tasks(spans.len(), workers, |_, i, _| {
            let mut span = spans[i].lock().expect("task i alone locks span i");
            let (rows, bounds) = &mut *span;
            for w in bounds.windows(2) {
                rows[w[0] - bounds[0]..w[1] - bounds[0]].sort_unstable_by_key(|r| [r[0], r[1]]);
            }
            Ok(())
        });
    sorted.expect("infallible");
    drop(spans);
    rows
}

/// Group key-ordered rows by `(source, item, value)`, merging duplicate
/// `(e, w, d, v)` rows to their maximum confidence.
fn group_rows(rows: impl ExactSizeIterator<Item = Observation>) -> (Vec<Cell>, Vec<TripleGroup>) {
    let mut cells: Vec<Cell> = Vec::with_capacity(rows.len());
    let mut groups: Vec<TripleGroup> = Vec::new();
    for o in rows {
        let open = groups
            .last_mut()
            .filter(|g| (g.source, g.item, g.value) == (o.source, o.item, o.value));
        match (open, cells.last_mut()) {
            (Some(_), Some(c)) if c.extractor == o.extractor => {
                c.confidence = c.confidence.max(o.confidence);
                continue;
            }
            (Some(g), _) => g.cells.end += 1,
            (None, _) => groups.push(TripleGroup {
                source: o.source,
                item: o.item,
                value: o.value,
                cells: cells.len() as u32..cells.len() as u32 + 1,
            }),
        }
        cells.push(Cell {
            extractor: o.extractor,
            confidence: o.confidence,
        });
    }
    (cells, groups)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(e: u32, w: u32, d: u32, v: u32, c: f64) -> Observation {
        Observation {
            extractor: ExtractorId::new(e),
            source: SourceId::new(w),
            item: ItemId::new(d),
            value: ValueId::new(v),
            confidence: c,
        }
    }

    #[test]
    fn build_groups_by_triple() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 0, 0, 1.0));
        b.push(obs(1, 0, 0, 0, 1.0));
        b.push(obs(0, 0, 0, 1, 1.0));
        b.push(obs(0, 1, 0, 0, 1.0));
        let cube = b.build();
        assert_eq!(cube.num_groups(), 3);
        assert_eq!(cube.num_cells(), 4);
        let g0 = &cube.groups()[0];
        assert_eq!((g0.source.0, g0.item.0, g0.value.0), (0, 0, 0));
        assert_eq!(cube.cells_of(g0).len(), 2);
    }

    #[test]
    fn duplicates_merge_keeping_max_confidence() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 0, 0, 0.3));
        b.push(obs(0, 0, 0, 0, 0.9));
        b.push(obs(0, 0, 0, 0, 0.5));
        let cube = b.build();
        assert_eq!(cube.num_cells(), 1);
        assert_eq!(cube.cells_of(&cube.groups()[0])[0].confidence, 0.9);
    }

    #[test]
    fn adopting_a_vector_equals_pushing_its_elements() {
        let all = vec![
            obs(2, 1, 3, 0, 1.7),  // clamped to 1.0
            obs(0, 0, 0, 4, -0.2), // clamped to 0.0
            obs(0, 0, 0, 4, 0.6),
            obs(1, 5, 2, 1, 0.5),
        ];
        let mut pushed = CubeBuilder::new();
        for o in &all {
            pushed.push(*o);
        }
        let (a, b) = (CubeBuilder::from(all).build(), pushed.build());
        assert_eq!(a.groups(), b.groups());
        assert_eq!(a.cells, b.cells);
        assert_eq!(
            (
                a.num_sources(),
                a.num_extractors(),
                a.num_items(),
                a.num_values()
            ),
            (6, 3, 4, 5)
        );
        assert_eq!(a.num_values(), b.num_values());
    }

    #[test]
    fn source_ranges_are_contiguous_and_complete() {
        let mut b = CubeBuilder::new();
        for w in 0..3u32 {
            for d in 0..4u32 {
                b.push(obs(0, w, d, d, 1.0));
            }
        }
        let cube = b.build();
        for w in 0..3u32 {
            let r = cube.source_groups(SourceId::new(w));
            assert_eq!(r.len(), 4);
            for g in r {
                assert_eq!(cube.groups()[g].source, SourceId::new(w));
            }
        }
    }

    #[test]
    fn item_index_finds_all_groups_of_item() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 7, 1, 1.0));
        b.push(obs(0, 1, 7, 2, 1.0));
        b.push(obs(0, 2, 3, 1, 1.0));
        let cube = b.build();
        let gs: Vec<usize> = cube.groups_of_item(ItemId::new(7)).collect();
        assert_eq!(gs.len(), 2);
        for g in gs {
            assert_eq!(cube.groups()[g].item, ItemId::new(7));
        }
        assert_eq!(cube.groups_of_item(ItemId::new(3)).count(), 1);
    }

    #[test]
    fn source_extractor_candidate_sets() {
        let mut b = CubeBuilder::new();
        b.push(obs(2, 0, 0, 0, 1.0));
        b.push(obs(0, 0, 1, 0, 1.0));
        b.push(obs(1, 1, 0, 0, 1.0));
        let cube = b.build();
        assert_eq!(
            cube.extractors_on_source(SourceId::new(0)),
            &[ExtractorId::new(0), ExtractorId::new(2)]
        );
        assert_eq!(
            cube.extractors_on_source(SourceId::new(1)),
            &[ExtractorId::new(1)]
        );
    }

    #[test]
    fn observed_values_are_sorted_distinct() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 0, 5, 1.0));
        b.push(obs(0, 1, 0, 2, 1.0));
        b.push(obs(1, 2, 0, 5, 1.0));
        let cube = b.build();
        assert_eq!(
            cube.observed_values(ItemId::new(0)),
            [ValueId::new(2), ValueId::new(5)]
        );
    }

    #[test]
    fn reserve_ids_extends_dense_spaces() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 0, 0, 1.0));
        b.reserve_ids(10, 5, 7, 9);
        let cube = b.build();
        assert_eq!(cube.num_sources(), 10);
        assert_eq!(cube.num_extractors(), 5);
        assert_eq!(cube.num_items(), 7);
        assert_eq!(cube.num_values(), 9);
        assert_eq!(cube.source_size(SourceId::new(9)), 0);
        assert!((1..10).all(|w| cube.extractors_on_source(SourceId::new(w)).is_empty()));
    }

    /// `apply_delta` must be indistinguishable from a full rebuild over
    /// the union of the observations.
    fn assert_cubes_identical(a: &ObservationCube, b: &ObservationCube) {
        assert_eq!(a.groups(), b.groups());
        assert_eq!(a.num_cells(), b.num_cells());
        for (ga, gb) in a.groups().iter().zip(b.groups()) {
            assert_eq!(a.cells_of(ga), b.cells_of(gb));
        }
        assert_eq!(a.num_sources(), b.num_sources());
        assert_eq!(a.num_extractors(), b.num_extractors());
        assert_eq!(a.num_items(), b.num_items());
        assert_eq!(a.num_values(), b.num_values());
        for w in 0..a.num_sources() {
            let w = SourceId::new(w as u32);
            assert_eq!(a.source_groups(w), b.source_groups(w));
            assert_eq!(a.extractors_on_source(w), b.extractors_on_source(w));
        }
        for d in 0..a.num_items() {
            let d = ItemId::new(d as u32);
            assert_eq!(
                a.groups_of_item(d).collect::<Vec<_>>(),
                b.groups_of_item(d).collect::<Vec<_>>()
            );
            assert_eq!(a.observed_values(d), b.observed_values(d));
        }
    }

    /// `n` hashed rows, source drawn by `source_of`: few enough distinct
    /// keys that many `(e, w, d, v)` repeat with differing confidence.
    fn corpus(n: usize, source_of: impl Fn(u32) -> u32) -> Vec<Observation> {
        let hash = |i: usize| (i as u32).wrapping_mul(2_654_435_761) >> 8;
        let row = |k: u32| {
            obs(
                k % 3,
                source_of(k),
                (k >> 4) % 97,
                (k >> 11) % 5,
                f64::from(k % 7) / 6.0,
            )
        };
        (0..n).map(hash).map(row).collect()
    }

    /// The oracle of the build paths: one sort of all rows by the key
    /// tuple, then the sorted path. Ids are reserved beyond any row.
    fn serial_build(rows: &[Observation]) -> ObservationCube {
        let mut b = CubeBuilder::from(rows.to_vec());
        b.reserve_ids(200, 9, 120, 11);
        b.obs
            .sort_unstable_by_key(|o| (o.source, o.item, o.value, o.extractor));
        assert_eq!(build_path(&b.obs), BuildPath::Sorted);
        b.build()
    }

    fn build_at(threads: usize, rows: &[Observation]) -> ObservationCube {
        let mut b = CubeBuilder::from(rows.to_vec());
        b.reserve_ids(200, 9, 120, 11);
        kbt_flume::with_threads(Some(threads), || b.build())
    }

    /// The path is a function of the input alone, and all of them build
    /// the cube of the serial sort.
    #[test]
    fn every_build_path_builds_the_serially_sorted_cube() {
        let large = corpus(PARTITION_MIN_ROWS + 1_000, |k| (k >> 14) % 50);
        let mut sorted = large.clone();
        sorted.sort_unstable_by_key(|o| (o.source, o.item, o.value, o.extractor));
        let reversed: Vec<Observation> = sorted.iter().rev().copied().collect();
        for (rows, path) in [
            (&sorted[..], BuildPath::Sorted),
            (&reversed[..], BuildPath::Partitioned),
            (&large[..1_000], BuildPath::SerialSort),
            (&large[..], BuildPath::Partitioned),
        ] {
            assert_eq!(build_path(rows), path);
            assert_cubes_identical(&build_at(2, rows), &serial_build(rows));
        }
    }

    /// Either side of the parallel threshold the cube is the one-worker
    /// cube: with two of three source ids empty, with one source holding
    /// more than half of the rows, with every row in one source.
    #[test]
    fn build_is_the_same_cube_at_any_worker_count() {
        let n = PARTITION_MIN_ROWS;
        for rows in [
            corpus(n - 1, |k| (k >> 14) % 50),
            corpus(n + 1, |k| (k >> 14) % 50 * 3),
            corpus(4 * n, |k| if k % 5 < 3 { 7 } else { (k >> 14) % 50 }),
            corpus(n + 1, |_| 4),
        ] {
            let one = build_at(1, &rows);
            assert_cubes_identical(&one, &serial_build(&rows));
            for threads in [2, 3, 8] {
                assert_cubes_identical(&build_at(threads, &rows), &one);
            }
        }
    }

    #[test]
    #[should_panic(expected = "u32::MAX is reserved")]
    fn the_builder_refuses_the_reserved_id() {
        CubeBuilder::new().push(obs(0, u32::MAX, 0, 0, 1.0));
    }

    #[test]
    #[should_panic(expected = "u32::MAX is reserved")]
    fn a_delta_refuses_the_reserved_id() {
        CubeBuilder::new()
            .build()
            .apply_delta(&[obs(0, 0, 0, u32::MAX, 1.0)]);
    }

    #[test]
    fn apply_delta_matches_full_rebuild() {
        let base = vec![
            obs(0, 1, 0, 0, 1.0),
            obs(1, 1, 0, 0, 0.5),
            obs(0, 0, 2, 1, 0.9),
            obs(2, 3, 1, 0, 1.0),
        ];
        let delta = vec![
            obs(1, 1, 0, 0, 0.8), // merges into an existing cell (max conf)
            obs(2, 1, 0, 0, 1.0), // new cell in an existing group
            obs(0, 1, 0, 1, 1.0), // new group of an existing source
            obs(0, 2, 0, 0, 0.7), // source with no prior groups
            obs(3, 4, 5, 6, 1.0), // grows every id space
            obs(3, 4, 5, 6, 0.2), // duplicate keeps max confidence
        ];
        let mut b = CubeBuilder::new();
        for o in &base {
            b.push(*o);
        }
        let incremental = b.build().apply_delta(&delta);
        let mut full = CubeBuilder::new();
        for o in base.iter().chain(&delta) {
            full.push(*o);
        }
        assert_cubes_identical(&incremental, &full.build());
    }

    #[test]
    fn apply_delta_empty_is_identity_and_preserves_reservations() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 0, 0, 1.0));
        b.reserve_ids(9, 4, 6, 8);
        let cube = b.build();
        let same = cube.apply_delta(&[]);
        assert_cubes_identical(&cube, &same);
        // Reserved sizes survive a non-empty delta too.
        let grown = cube.apply_delta(&[obs(0, 1, 1, 1, 1.0)]);
        assert_eq!(grown.num_sources(), 9);
        assert_eq!(grown.num_extractors(), 4);
        assert_eq!(grown.num_items(), 6);
        assert_eq!(grown.num_values(), 8);
        assert_eq!(grown.num_groups(), 2);
    }

    #[test]
    fn apply_delta_onto_empty_cube() {
        let cube = CubeBuilder::new().build();
        let delta = vec![obs(0, 0, 0, 0, 0.4), obs(1, 0, 0, 0, 1.0)];
        let grown = cube.apply_delta(&delta);
        let mut full = CubeBuilder::new();
        for o in &delta {
            full.push(*o);
        }
        assert_cubes_identical(&grown, &full.build());
    }

    /// `retract` must be indistinguishable from rebuilding the cube from
    /// the surviving observations (with the id spaces held fixed).
    #[test]
    fn retract_matches_rebuild_of_survivors() {
        let base = vec![
            obs(0, 1, 0, 0, 1.0),
            obs(1, 1, 0, 0, 0.5),
            obs(0, 0, 2, 1, 0.9),
            obs(2, 3, 1, 0, 1.0),
            obs(0, 3, 1, 2, 0.8),
        ];
        let mut b = CubeBuilder::new();
        for o in &base {
            b.push(*o);
        }
        let cube = b.build();
        // Retract one multi-cell group, one single-cell group, and one
        // triple that does not exist (ignored).
        let retracted = cube.retract(&[
            (SourceId::new(1), ItemId::new(0), ValueId::new(0)),
            (SourceId::new(3), ItemId::new(1), ValueId::new(2)),
            (SourceId::new(9), ItemId::new(9), ValueId::new(9)),
        ]);
        let mut survivors = CubeBuilder::new();
        for o in &base {
            if (o.source.0, o.item.0, o.value.0) != (1, 0, 0)
                && (o.source.0, o.item.0, o.value.0) != (3, 1, 2)
            {
                survivors.push(*o);
            }
        }
        // Id spaces are preserved even when a retraction empties a source.
        survivors.reserve_ids(4, 3, 3, 3);
        assert_cubes_identical(&retracted, &survivors.build());
        assert_eq!(retracted.source_size(SourceId::new(1)), 0);
        assert!(retracted.extractors_on_source(SourceId::new(1)).is_empty());
    }

    #[test]
    fn retract_empty_and_unknown_are_identity() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 0, 0, 1.0));
        let cube = b.build();
        assert_cubes_identical(&cube, &cube.retract(&[]));
        assert_cubes_identical(
            &cube,
            &cube.retract(&[(SourceId::new(5), ItemId::new(5), ValueId::new(5))]),
        );
        // Duplicate retraction keys collapse to one removal.
        let gone = cube.retract(&[
            (SourceId::new(0), ItemId::new(0), ValueId::new(0)),
            (SourceId::new(0), ItemId::new(0), ValueId::new(0)),
        ]);
        assert_eq!(gone.num_groups(), 0);
        assert_eq!(gone.num_cells(), 0);
        assert_eq!(gone.num_sources(), 1, "id spaces never shrink");
    }

    #[test]
    fn retract_then_apply_delta_roundtrip() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 0, 0, 0.4));
        b.push(obs(1, 0, 0, 0, 0.9));
        b.push(obs(0, 1, 1, 1, 1.0));
        let cube = b.build();
        let key = (SourceId::new(0), ItemId::new(0), ValueId::new(0));
        let removed = cube.retract(&[key]);
        assert_eq!(removed.num_groups(), 1);
        // Re-adding the triple after retraction behaves like a fresh group.
        let back = removed.apply_delta(&[obs(0, 0, 0, 0, 0.7)]);
        assert_eq!(back.num_groups(), 2);
        let g0 = &back.groups()[0];
        assert_eq!((g0.source, g0.item, g0.value), key);
        assert_eq!(
            back.cells_of(g0),
            &[Cell {
                extractor: ExtractorId::new(0),
                confidence: 0.7
            }]
        );
    }

    #[test]
    fn confidence_is_clamped() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 0, 0, 1.7));
        b.push(obs(0, 0, 0, 1, -0.2));
        b.push(obs(0, 0, 0, 2, f64::NAN));
        let cube = b.build();
        let confs: Vec<f64> = cube
            .iter_with_cells()
            .flat_map(|(_, _, cs)| cs.iter().map(|c| c.confidence))
            .collect();
        assert_eq!(confs, vec![1.0, 0.0, 0.0]);
    }
}
