//! The sparse observation "data cube" of Figure 1(b).
//!
//! The cube stores one [`Cell`] per nonzero `X_{ewdv}` entry, grouped by the
//! `(w, d, v)` triple it supports. Groups are sorted item-major, by
//! `(item, source, value)` — the order in which Algorithm 1 reads them —
//! so all groups of one data item are contiguous, and the cells follow
//! their groups in the same order. This columnar layout lets every
//! inference stage stream the data it needs without hashing:
//!
//! * extraction-correctness (per-triple) — iterate [`ObservationCube::groups`],
//! * value inference (per-item) — the contiguous [`ObservationCube::groups_of_item`],
//! * source accuracy (per-source) — the same walk in group order, folded
//!   into one accumulator per source (the fit's chunk scan does this, and
//!   so does the serial oracle); [`ObservationCube::source_size`] is the
//!   only per-source count the cube keeps,
//! * extractor quality — stream all cells once, accumulating per extractor.
//!
//! Absence votes (Eq. 13) need to know which extractors *could have*
//! extracted a triple but did not. At web scale not every extractor visits
//! every page, so the cube records, per source, the set of extractors that
//! extracted anything from it ([`ObservationCube::extractors_on_source`]);
//! the vote counter treats exactly those as the candidate set. This matches
//! the arithmetic of the paper's Example 3.1, where all five extractors are
//! active on every page of the example.
//!
//! [`CubeBuilder::build`] assembles the cube the way the paper's batch job
//! does on its dataflow substrate, a shuffle by key then per-partition
//! work: unsorted input is cut by item into one window of about equal
//! row count per worker, and each window's task brings its rows into key
//! order, groups them and records its share of the indexes; then the
//! windows' groups and cells are laid out in window order, their item
//! ranges and value lists end to end, and their per-source counts and
//! extractor marks summed. The cube is the same at any worker count.

use std::cmp::Ordering;
use std::ops::Range;

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
    /// Range of this group's cells in its cube's cell array ([`ObservationCube::cells_of`]).
    pub fn cell_range(&self) -> Range<usize> {
        self.cells.start as usize..self.cells.end as usize
    }

    /// The group's key in cube order: `(item, source, value)`.
    fn key(&self) -> (ItemId, SourceId, ValueId) {
        (self.item, self.source, self.value)
    }
}

/// Immutable, index-accelerated storage for the observation matrix `X`.
#[derive(Debug, Clone)]
pub struct ObservationCube {
    pub(crate) cells: Vec<Cell>,
    groups: Vec<TripleGroup>,
    /// Item `d` owns groups `item_offsets[d]..item_offsets[d + 1]`.
    item_offsets: Vec<u32>,
    /// Per source: its number of groups.
    source_sizes: Vec<u32>,
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
        self.source_sizes.len()
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

    /// All triple groups, sorted by `(item, source, value)`.
    pub fn groups(&self) -> &[TripleGroup] {
        &self.groups
    }

    /// The cells of group `g`.
    pub fn cells_of(&self, g: &TripleGroup) -> &[Cell] {
        &self.cells[g.cell_range()]
    }

    /// The contiguous range of group indices about data item `d`, sorted
    /// by `(source, value)`.
    pub fn groups_of_item(&self, d: ItemId) -> Range<usize> {
        self.item_offsets[d.index()] as usize..self.item_offsets[d.index() + 1] as usize
    }

    /// Item `d`'s groups are `offsets[d]..offsets[d + 1]`.
    pub(crate) fn item_offsets(&self) -> &[u32] {
        &self.item_offsets
    }

    /// The per-item value lists in CSR form, `(offsets, values)`.
    pub(crate) fn item_values(&self) -> (&[u32], &[ValueId]) {
        (&self.item_value_offsets, &self.item_values)
    }

    /// The per-source extractor sets in CSR form, `(offsets, ids)`.
    pub(crate) fn source_extractors(&self) -> (&[u32], &[ExtractorId]) {
        (&self.source_extractor_offsets, &self.source_extractor_ids)
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
        self.source_sizes[w.index()] as usize
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
    /// linear passes over item windows, one per worker. A delta about new
    /// items appends at the end. The result is bit-identical to rebuilding a
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
        let (mut new_cells, mut new_groups) = (Vec::new(), Vec::new());
        lay_out(&d.obs, &mut new_cells, &mut new_groups);

        let mut cells: Vec<Cell> = Vec::with_capacity(self.cells.len() + new_cells.len());
        let mut groups: Vec<TripleGroup> = Vec::with_capacity(self.groups.len() + new_groups.len());
        let (mut old, mut new) = (self.groups.iter().peekable(), new_groups.iter().peekable());
        loop {
            // The next key in order, from either side or — equal — both.
            let order = match (old.peek(), new.peek()) {
                (Some(a), Some(b)) => a.key().cmp(&b.key()),
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
    /// downstream invariant (item ranges ⊇ group values, source sizes,
    /// extractor candidate sets) holds again after a retraction — the
    /// `serve` stress tests and the `FusionSession::retract` regression
    /// tests rely on this. Dense id spaces are **never shrunk**: a
    /// retracted source keeps its id (and its default parameters), so
    /// per-source state carried across refits stays aligned.
    pub fn retract(&self, retractions: &[(SourceId, ItemId, ValueId)]) -> ObservationCube {
        if retractions.is_empty() {
            return self.clone();
        }
        let mut keys: Vec<(ItemId, SourceId, ValueId)> =
            retractions.iter().map(|&(w, d, v)| (d, w, v)).collect();
        keys.sort_unstable();
        keys.dedup();

        let mut cells: Vec<Cell> = Vec::with_capacity(self.cells.len());
        let mut groups: Vec<TripleGroup> = Vec::with_capacity(self.groups.len());
        let mut ki = 0;
        for grp in &self.groups {
            let key = grp.key();
            // Both lists are sorted by (item, source, value): one walk.
            while ki < keys.len() && keys[ki] < key {
                ki += 1;
            }
            if ki < keys.len() && keys[ki] == key {
                continue; // retracted
            }
            let start = cells.len() as u32;
            cells.extend_from_slice(&self.cells[grp.cell_range()]);
            groups.push(TripleGroup {
                cells: start..cells.len() as u32,
                ..grp.clone()
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
            + (self.item_offsets.len()
                + self.source_sizes.len()
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

/// Index laid-out `(cells, groups)` — what [`ObservationCube::apply_delta`]
/// (merge-walk) and [`ObservationCube::retract`] (filter) produce. From
/// [`PARTITION_MIN_ROWS`] groups on, one item window per worker records
/// its share of the indexes in one walk over its groups and cells; then
/// [`index_cube`] lays them out.
fn assemble_cube(
    cells: Vec<Cell>,
    groups: Vec<TripleGroup>,
    num_sources: u32,
    num_extractors: u32,
    num_items: u32,
    num_values: u32,
) -> ObservationCube {
    let (ni, parts) = (num_items as usize, workers_for(groups.len()));
    let first = |d: usize| groups.partition_point(|g| g.item.index() < d);
    let cuts = cut_items(ni, groups.len(), parts, |g| groups[g].item.index());
    let records = kbt_flume::par_map_slice(&cuts, |items| {
        let mut index = WindowIndex::new(items.clone(), num_sources);
        for grp in &groups[first(items.start)..first(items.end)] {
            index.group(grp.source, grp.item, grp.value);
            for c in &cells[grp.cell_range()] {
                index.cell(grp.source, c.extractor);
            }
        }
        index.close();
        index
    });
    index_cube(cells, groups, records, num_extractors, num_values)
}

/// Extractors below this id are marked per source in one bit of a word;
/// the rest are listed as `(source, extractor)` pairs.
const MASKED_EXTRACTORS: u32 = u64::BITS;

/// One item window's share of the secondary indexes, recorded in one
/// walk over the window's groups and cells in key order.
struct WindowIndex {
    /// The window's items.
    items: Range<usize>,
    groups: usize,
    cells: usize,
    /// Per item of the window: its group count.
    item_groups: Vec<u32>,
    /// Per item of the window: the size of its value list.
    item_values: Vec<u32>,
    /// The window's value lists in item order, each sorted.
    values: Vec<ValueId>,
    /// The open item (window-local) and its values so far.
    open: Option<usize>,
    open_values: Vec<ValueId>,
    /// Per source: the window's groups of it.
    source_counts: Vec<u32>,
    /// Per source: bit `e` set when extractor `e` below
    /// [`MASKED_EXTRACTORS`] extracted from it.
    extractor_mask: Vec<u64>,
    /// `source·2³² + extractor` for the cells of the other extractors.
    extractor_pairs: Vec<u64>,
}

impl WindowIndex {
    fn new(items: Range<usize>, num_sources: u32) -> Self {
        Self {
            groups: 0,
            cells: 0,
            item_groups: vec![0; items.len()],
            item_values: vec![0; items.len()],
            values: Vec::new(),
            open: None,
            open_values: Vec::new(),
            source_counts: vec![0; num_sources as usize],
            extractor_mask: vec![0; num_sources as usize],
            extractor_pairs: Vec::new(),
            items,
        }
    }

    /// A group of source `w` about item `d` with value `v` opens; items
    /// ascend.
    fn group(&mut self, w: SourceId, d: ItemId, v: ValueId) {
        let local = d.index() - self.items.start;
        if self.open != Some(local) {
            self.close();
            self.open = Some(local);
        }
        self.item_groups[local] += 1;
        self.open_values.push(v);
        self.source_counts[w.index()] += 1;
        self.groups += 1;
    }

    /// A cell of extractor `e` in the open group of source `w`.
    fn cell(&mut self, w: SourceId, e: ExtractorId) {
        self.cells += 1;
        match e.0 < MASKED_EXTRACTORS {
            true => self.extractor_mask[w.index()] |= 1 << e.0,
            false => self
                .extractor_pairs
                .push(u64::from(w.0) << 32 | u64::from(e.0)),
        }
    }

    /// Record the window's key-ordered `rows`.
    fn record<R: Row>(&mut self, rows: &[R]) {
        for (step, [hi, lo, _]) in steps(rows) {
            let w = SourceId(hi as u32);
            match step {
                Step::Duplicate => continue,
                Step::Group => self.group(w, ItemId((hi >> 32) as u32), ValueId((lo >> 32) as u32)),
                Step::Cell => {}
            }
            self.cell(w, ExtractorId(lo as u32));
        }
        self.close();
    }

    /// Seal the open item's value list.
    fn close(&mut self) {
        if let Some(local) = self.open.take() {
            self.open_values.sort_unstable();
            self.open_values.dedup();
            self.item_values[local] = self.open_values.len() as u32;
            self.values.append(&mut self.open_values);
        }
    }
}

/// Lay out the secondary indexes of `(cells, groups)` from the records of
/// item windows that tile the items in order — the index passes of
/// [`CubeBuilder::build`] and [`assemble_cube`]. The item ranges and value
/// lists are the records' counts laid end to end; a source's size is the
/// sum of the windows' counts of it, and its extractor set the union of
/// their marks.
fn index_cube(
    cells: Vec<Cell>,
    groups: Vec<TripleGroup>,
    mut records: Vec<WindowIndex>,
    num_extractors: u32,
    num_values: u32,
) -> ObservationCube {
    let ni = records.last().map_or(0, |r| r.items.end);
    let ns = records[0].source_counts.len();
    let mut item_offsets = Vec::with_capacity(ni + 1);
    let mut item_value_offsets = Vec::with_capacity(ni + 1);
    item_offsets.push(0u32);
    item_value_offsets.push(0u32);
    let mut item_values = Vec::with_capacity(records.iter().map(|r| r.values.len()).sum());
    for r in &records {
        for (&n, &k) in r.item_groups.iter().zip(&r.item_values) {
            item_offsets.push(item_offsets.last().expect("starts at 0") + n);
            item_value_offsets.push(item_value_offsets.last().expect("starts at 0") + k);
        }
        item_values.extend_from_slice(&r.values);
    }

    let source_sizes = (0..ns)
        .map(|w| records.iter().map(|r| r.source_counts[w]).sum())
        .collect();
    let mut pairs: Vec<u64> = records
        .iter_mut()
        .flat_map(|r| std::mem::take(&mut r.extractor_pairs))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut pairs = pairs.into_iter().peekable();
    let mut source_extractor_offsets = Vec::with_capacity(ns + 1);
    source_extractor_offsets.push(0u32);
    let mut source_extractor_ids = Vec::new();
    for w in 0..ns {
        let mut mask = records.iter().fold(0, |m, r| m | r.extractor_mask[w]);
        while mask != 0 {
            source_extractor_ids.push(ExtractorId(mask.trailing_zeros()));
            mask &= mask - 1;
        }
        while let Some(p) = pairs.next_if(|&p| (p >> 32) as usize == w) {
            source_extractor_ids.push(ExtractorId(p as u32));
        }
        source_extractor_offsets.push(source_extractor_ids.len() as u32);
    }

    ObservationCube {
        cells,
        groups,
        item_offsets,
        source_sizes,
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
    /// Input already in key order `(item, source, value, extractor)` (one
    /// linear check) is read in place by one window on the calling
    /// thread. Anything else is cut by item into windows of about equal
    /// row count — one per worker from 2¹⁶ rows on, else one run inline —
    /// and each window's task gathers its rows from the input by item
    /// and sorts them item by item. Either way a window records its share
    /// of the indexes in the walk that groups its rows. The windows' groups
    /// and cells are then laid out in window order — a memory-bound walk,
    /// which one task per window measured no faster on a 2-vCPU machine —
    /// and their records are summed into the indexes.
    /// Duplicate keys merge to their maximum confidence, so the cube is
    /// the same at any worker count and in any arrival order.
    pub fn build(self) -> ObservationCube {
        let Self {
            obs,
            num_sources,
            num_extractors,
            num_items,
            num_values,
        } = self;
        let ni = num_items as usize;
        // The sorted check comes first on purpose: recovery hands the
        // builder a checkpoint's cells in cube order on every `recover`,
        // and one window reads them in place on the calling thread. (Two
        // windows measured slower there on a 2-vCPU machine: ≈ 270k rows,
        // `recover` 37 → 45 ms.) On unsorted input it stops at the first
        // inversion.
        let sorted = obs.is_sorted_by_key(row_key);
        let (starts, parts) = match sorted {
            true => (Vec::new(), 1),
            false => (item_starts(&obs, ni), workers_for(obs.len())),
        };
        let first_row = |d: usize| obs.partition_point(|o| o.item.index() < d);
        let cuts = cut_items(ni, obs.len(), parts, |p| match sorted {
            true => obs[p].item.index(),
            false => starts.partition_point(|&s| s <= p) - 1,
        });
        // Each window's rows in key order — a span of sorted input, or its
        // gather into its stretch of one row buffer — and its records, from
        // one walk over them. The buffer is allocated here, zeroed, on the
        // calling thread: the workers fault its pages in, and its memory
        // goes back where the cube's arrays come from (allocated by
        // short-lived workers, gather buffers stayed resident in their
        // arenas: +63 MB peak RSS on the 2M-row fit).
        let mut buffer = vec![[0; 3]; if sorted { 0 } else { obs.len() }];
        let mut rest = buffer.as_mut_slice();
        let mut windows: Vec<_> = cuts
            .into_iter()
            .map(|items| {
                let (span, rows) = match sorted {
                    true => (first_row(items.start)..first_row(items.end), 0),
                    false => (0..0, starts[items.end] - starts[items.start]),
                };
                let rows = rest.split_off_mut(..rows).expect("windows tile the rows");
                (rows, span, WindowIndex::new(items, num_sources))
            })
            .collect();
        kbt_flume::par_ranges_mut(&mut windows, |_, ws| {
            for (rows, span, index) in ws {
                match sorted {
                    true => index.record(&obs[span.clone()]),
                    false => {
                        gather(&obs, &starts, index.items.clone(), rows);
                        index.record(rows);
                    }
                }
            }
        });
        drop(starts);
        // Free the input before the cube's arrays exist, unless the windows
        // read it in place.
        let obs = if sorted { obs } else { Vec::new() };

        // The windows' groups and cells, laid out in window order.
        let nc = windows.iter().map(|w| w.2.cells).sum();
        let ng = windows.iter().map(|w| w.2.groups).sum();
        let (mut cells, mut groups) = (Vec::with_capacity(nc), Vec::with_capacity(ng));
        for (rows, span, _) in &windows {
            match sorted {
                true => lay_out(&obs[span.clone()], &mut cells, &mut groups),
                false => lay_out(rows, &mut cells, &mut groups),
            }
        }
        let records = windows.into_iter().map(|w| w.2).collect();
        drop((buffer, obs));
        index_cube(cells, groups, records, num_extractors, num_values)
    }
}

/// `[item·2³² + source, value·2³² + extractor]`: the same order as the
/// tuple `(item, source, value, extractor)` in two comparisons.
fn row_key(o: &Observation) -> [u64; 2] {
    [
        (o.item.0 as u64) << 32 | o.source.0 as u64,
        (o.value.0 as u64) << 32 | o.extractor.0 as u64,
    ]
}

/// Unsorted rows (or groups) from which the build and the index passes
/// split the items into one window per worker: below it, a spawn costs
/// more than a second worker saves, and one window runs inline.
const PARTITION_MIN_ROWS: usize = 1 << 16;

/// Windows for `rows` rows: one per worker [`kbt_flume::num_threads`]
/// allows from [`PARTITION_MIN_ROWS`] on, else one.
fn workers_for(rows: usize) -> usize {
    match rows >= PARTITION_MIN_ROWS {
        true => kbt_flume::num_threads(),
        false => 1,
    }
}

/// The items `0..num_items` cut into `parts` windows of about equal count
/// of `rows` item-ordered rows. `item_at(p)` is the item of row `p`; a
/// window may be empty.
fn cut_items(
    num_items: usize,
    rows: usize,
    parts: usize,
    item_at: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    let cut = |t: usize| match t {
        0 => 0,
        t if t == parts => num_items,
        t => item_at(rows * t / parts),
    };
    (0..parts).map(|t| cut(t)..cut(t + 1)).collect()
}

/// `starts[d]`: the rows of the items below `d`, for `d` in
/// `0..=num_items`. Counted over one input range per worker (the rows
/// cut as if each were its own item).
fn item_starts(obs: &[Observation], num_items: usize) -> Vec<usize> {
    let ranges = cut_items(obs.len(), obs.len(), workers_for(obs.len()), |p| p);
    let counts = kbt_flume::par_map_slice(&ranges, |r| {
        let mut count = vec![0u32; num_items];
        obs[r.clone()]
            .iter()
            .for_each(|o| count[o.item.index()] += 1);
        count
    });
    let mut starts = vec![0usize; num_items + 1];
    for count in counts {
        for (n, c) in starts[1..].iter_mut().zip(count) {
            *n += c as usize;
        }
    }
    for d in 0..num_items {
        starts[d + 1] += starts[d];
    }
    starts
}

/// A row in key order: [`row_key`], then the confidence bits, so a
/// comparison reads no further than the key.
type PackedRow = [u64; 3];

/// The rows of `items` in key order, into `rows`: a stable scatter by
/// item out of the whole input, then each item's run sorted on
/// `(source, value, extractor)`. The runs are short — an item's claims —
/// and a run that arrives sorted, as source-major input leaves it, costs
/// one pass.
fn gather(obs: &[Observation], starts: &[usize], items: Range<usize>, rows: &mut [PackedRow]) {
    let base = starts[items.start];
    let mut next: Vec<usize> = starts[items.clone()].iter().map(|s| s - base).collect();
    for o in obs {
        if let Some(at) = next.get_mut(o.item.index().wrapping_sub(items.start)) {
            rows[*at] = o.packed();
            *at += 1;
        }
    }
    for d in items {
        let run = &mut rows[starts[d] - base..starts[d + 1] - base];
        run.sort_unstable_by_key(|r| (r[0] as u128) << 64 | r[1] as u128);
    }
}

/// A row the build walks in key order: an observation of sorted input,
/// read in place, or a gathered [`PackedRow`].
trait Row: Sync {
    fn packed(&self) -> PackedRow;
}

impl Row for Observation {
    fn packed(&self) -> PackedRow {
        let [hi, lo] = row_key(self);
        [hi, lo, self.confidence.to_bits()]
    }
}

impl Row for PackedRow {
    fn packed(&self) -> PackedRow {
        *self
    }
}

/// What a row adds to the walk of key-ordered rows.
enum Step {
    /// The first cell of a new `(w, d, v)` group.
    Group,
    /// A new cell of the open group.
    Cell,
    /// The open cell again (a duplicate `(e, w, d, v)`): its confidence
    /// merges into the cell's by maximum.
    Duplicate,
}

/// Each of the key-ordered `rows` with the [`Step`] it takes.
fn steps<R: Row>(rows: &[R]) -> impl Iterator<Item = (Step, PackedRow)> + '_ {
    let mut last: Option<PackedRow> = None;
    rows.iter().map(move |r| {
        let r = r.packed();
        let step = match last {
            Some(l) if l[0] != r[0] || l[1] >> 32 != r[1] >> 32 => Step::Group,
            Some(l) if l[1] != r[1] => Step::Cell,
            Some(_) => Step::Duplicate,
            None => Step::Group,
        };
        last = Some(r);
        (step, r)
    })
}

/// Append key-ordered `rows`' groups and cells to the cube's arrays.
fn lay_out<R: Row>(rows: &[R], cells: &mut Vec<Cell>, groups: &mut Vec<TripleGroup>) {
    for (step, [hi, lo, confidence]) in steps(rows) {
        let confidence = f64::from_bits(confidence);
        let at = cells.len() as u32;
        match step {
            Step::Duplicate => {
                let open = cells.last_mut().expect("a duplicate follows its cell");
                open.confidence = open.confidence.max(confidence);
                continue;
            }
            Step::Group => groups.push(TripleGroup {
                source: SourceId(hi as u32),
                item: ItemId((hi >> 32) as u32),
                value: ValueId((lo >> 32) as u32),
                cells: at..at,
            }),
            Step::Cell => {}
        }
        let group = groups.last_mut().expect("a cell follows its group");
        group.cells.end = at + 1;
        cells.push(Cell {
            extractor: ExtractorId(lo as u32),
            confidence,
        });
    }
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

    /// Extractor ids from [`MASKED_EXTRACTORS`] on are listed from pairs,
    /// after the masked ones: every source's set is its extractors,
    /// sorted, whichever window saw them and at any worker count.
    #[test]
    fn wide_extractor_ids_are_listed_in_order() {
        let ids = [200u32, 0, 64, 63, 100, 3, 64, 65];
        let rows: Vec<Observation> = (0..PARTITION_MIN_ROWS as u32 + 500)
            .map(|i| obs(ids[i as usize % 8], i % 5, i % 999, i % 3, 0.5))
            .collect();
        let want = |w: u32| {
            let mut set: Vec<ExtractorId> = (rows.iter())
                .filter(|o| o.source.0 == w)
                .map(|o| o.extractor)
                .collect();
            set.sort_unstable();
            set.dedup();
            set
        };
        for threads in [1, 2, 8] {
            let cube =
                kbt_flume::with_threads(Some(threads), || CubeBuilder::from(rows.clone()).build());
            for w in 0..5u32 {
                assert_eq!(cube.extractors_on_source(SourceId::new(w)), want(w));
            }
        }
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
            assert_eq!(a.source_size(w), b.source_size(w));
            assert_eq!(a.extractors_on_source(w), b.extractors_on_source(w));
        }
        for d in 0..a.num_items() {
            let d = ItemId::new(d as u32);
            assert_eq!(a.groups_of_item(d), b.groups_of_item(d));
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

    /// `n` hashed rows over the ids [`serial_build`] reserves, drawn by
    /// `salt`: most `(w, d, v)` distinct, so 150k rows make about 110k
    /// groups, some `(e, w, d, v)` repeated with differing confidence.
    fn spread(n: u32, salt: u32) -> Vec<Observation> {
        let row = |i: u32| {
            let mut h = i.wrapping_add(salt << 20).wrapping_mul(0x9E37_79B1);
            h ^= h >> 15;
            h = h.wrapping_mul(0x85EB_CA6B);
            h ^= h >> 13;
            let c = f64::from(h >> 28) / 15.0;
            obs(h % 9, (h >> 4) % 200, (h >> 12) % 120, (h >> 19) % 11, c)
        };
        (0..n).map(row).collect()
    }

    /// The oracle of the build paths: one sort of all rows by the key
    /// tuple, then the sorted path on one worker. Ids are reserved beyond
    /// any row.
    fn serial_build(rows: &[Observation]) -> ObservationCube {
        let mut b = CubeBuilder::from(rows.to_vec());
        b.reserve_ids(200, 9, 120, 11);
        b.obs
            .sort_unstable_by_key(|o| (o.item, o.source, o.value, o.extractor));
        assert!(b.obs.is_sorted_by_key(row_key));
        kbt_flume::with_threads(Some(1), || b.build())
    }

    fn build_at(threads: usize, rows: &[Observation]) -> ObservationCube {
        let mut b = CubeBuilder::from(rows.to_vec());
        b.reserve_ids(200, 9, 120, 11);
        kbt_flume::with_threads(Some(threads), || b.build())
    }

    /// Input in key order is read in place, anything else gathered; either
    /// side of the parallel threshold, at 1, 2 and 8 threads, the same
    /// observations build the cube of the serial sort in every arrival
    /// order: item-major (a generator that emits item by item), source-major
    /// (page-by-page extraction), reversed and shuffled.
    #[test]
    fn every_build_path_builds_the_serially_sorted_cube() {
        let large = corpus(PARTITION_MIN_ROWS + 1_000, |k| (k >> 14) % 50);
        let mut item_major = large.clone();
        item_major.sort_by_key(|o| o.item);
        let mut source_major = large.clone();
        source_major.sort_by_key(|o| (o.source, o.item));
        let mut sorted = large.clone();
        sorted.sort_unstable_by_key(|o| (o.item, o.source, o.value, o.extractor));
        let reversed: Vec<Observation> = sorted.iter().rev().copied().collect();
        // `large` arrives in hashed order: a shuffle.
        for (rows, in_order) in [
            (&sorted[..], true),
            (&sorted[..1_000], true),
            (&item_major[..], false),
            (&source_major[..], false),
            (&reversed[..], false),
            (&large[..1_000], false),
            (&large[..], false),
        ] {
            assert_eq!(rows.is_sorted_by_key(row_key), in_order);
            let want = serial_build(rows);
            for threads in [1, 2, 8] {
                assert_cubes_identical(&build_at(threads, rows), &want);
            }
        }
    }

    /// Either side of the parallel threshold the cube is the one-worker
    /// cube: with two of three source ids empty, with one source holding
    /// more than half of the rows, with every row in one source, and with
    /// every row about one item (the windows are cut by item).
    #[test]
    fn build_is_the_same_cube_at_any_worker_count() {
        let n = PARTITION_MIN_ROWS;
        let one_item = |mut rows: Vec<Observation>| {
            rows.iter_mut().for_each(|o| o.item = ItemId::new(4));
            rows
        };
        for rows in [
            corpus(n - 1, |k| (k >> 14) % 50),
            corpus(n + 1, |k| (k >> 14) % 50 * 3),
            corpus(4 * n, |k| if k % 5 < 3 { 7 } else { (k >> 14) % 50 }),
            corpus(n + 1, |_| 4),
            one_item(corpus(n + 1, |k| (k >> 14) % 50)),
        ] {
            let one = build_at(1, &rows);
            assert_cubes_identical(&one, &serial_build(&rows));
            for threads in [2, 3, 8] {
                assert_cubes_identical(&build_at(threads, &rows), &one);
            }
        }
    }

    /// Each source's size is a recount of its groups, and the sizes sum
    /// to the cube's groups: above the parallel threshold, after a build,
    /// a delta and a retraction, at 1, 2 and 8 workers.
    #[test]
    fn source_sizes_recount_each_sources_groups() {
        let assert_recounts = |cube: &ObservationCube| {
            let mut own = vec![0; cube.num_sources()];
            cube.groups()
                .iter()
                .for_each(|g| own[g.source.index()] += 1);
            let size = |w: usize| cube.source_size(SourceId::new(w as u32));
            for (w, &n) in own.iter().enumerate() {
                assert_eq!(size(w), n, "source {w}");
            }
            let sizes: usize = (0..cube.num_sources()).map(size).sum();
            assert_eq!(sizes, cube.num_groups());
        };
        let (base, delta) = (spread(150_000, 1), spread(60_000, 2));
        let gone: Vec<_> = (base.iter().step_by(3))
            .map(|o| (o.source, o.item, o.value))
            .collect();
        for threads in [1, 2, 8] {
            let cube = build_at(threads, &base);
            let (grown, shrunk) = kbt_flume::with_threads(Some(threads), || {
                (cube.apply_delta(&delta), cube.retract(&gone))
            });
            for cube in [&cube, &grown, &shrunk] {
                assert!(cube.num_groups() >= PARTITION_MIN_ROWS);
                assert_recounts(cube);
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

        // Above the parallel threshold the merge is indexed in windows.
        let (base, delta) = (spread(150_000, 1), spread(60_000, 2));
        let full = serial_build(&[&base[..], &delta[..]].concat());
        for threads in [1, 2, 3, 8] {
            let cube = build_at(threads, &base);
            assert!(cube.num_groups() >= PARTITION_MIN_ROWS);
            let incremental = kbt_flume::with_threads(Some(threads), || cube.apply_delta(&delta));
            assert_cubes_identical(&incremental, &full);
        }
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

        // Above the parallel threshold: every third group goes, and every
        // group of source 7, which is left empty.
        let base = spread(150_000, 3);
        let gone = |w: u32, d: u32, v: u32| w == 7 || (w * 131 + d * 7 + v).is_multiple_of(3);
        let keys: Vec<_> = base
            .iter()
            .filter(|o| gone(o.source.0, o.item.0, o.value.0))
            .map(|o| (o.source, o.item, o.value))
            .collect();
        let survivors: Vec<Observation> = base
            .iter()
            .filter(|o| !gone(o.source.0, o.item.0, o.value.0))
            .copied()
            .collect();
        let rebuilt = serial_build(&survivors);
        assert!(rebuilt.num_groups() >= PARTITION_MIN_ROWS);
        for threads in [1, 2, 3, 8] {
            let cube = build_at(threads, &base);
            let retracted = kbt_flume::with_threads(Some(threads), || cube.retract(&keys));
            assert_cubes_identical(&retracted, &rebuilt);
            assert_eq!(retracted.source_size(SourceId::new(7)), 0);
        }
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
