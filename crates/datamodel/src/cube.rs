//! The sparse observation "data cube" of Figure 1(b).
//!
//! The cube stores one [`Cell`] per nonzero `X_{ewdv}` entry, grouped by the
//! `(w, d, v)` triple it supports. Groups are sorted item-major, by
//! `(item, source, value)` — the order in which Algorithm 1 reads them —
//! so all groups of one data item are contiguous. The cube is the groups'
//! keys ([`ObservationCube::groups`]) and a [`ChunkedCube`]
//! ([`ObservationCube::chunked`]) that holds the rest: the meta frame and
//! one item frame per item-aligned chunk, group `g` being local row
//! `g − rows.start` of its chunk's frame, with its cells. Every EM fit
//! scans those frames as they are, resident or from a chunk store.
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
//! order and counts them. The chunk partition is cut from the per-item
//! counts, then one frame writer writes each chunk's frame, one task per
//! chunk. [`ObservationCube::apply_delta`] and [`ObservationCube::retract`]
//! count and write the edited cube the same way, reading the groups of
//! items the edit does not touch straight off the old frames; a re-cut
//! ([`ChunkedCube::from_cube`]) writes the frames alone, cut from their
//! own per-item counts. Every cube is the same bytes at any worker count.

use std::cmp::Ordering;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Mutex;

use crate::chunked::{ChunkBuf, ChunkStoreMeta, ChunkedCube, ChunkingConfig, CubeChunk};
use crate::ids::{ExtractorId, ItemId, SourceId, ValueId};
use crate::triple::Observation;
use crate::wire::{self, WireError, WireReader};

/// One extraction supporting a triple group: which extractor, with what
/// confidence `p(X_ewdv = 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The extractor that produced the extraction.
    pub extractor: ExtractorId,
    /// Soft-evidence confidence in `[0, 1]`.
    pub confidence: f64,
}

/// The key of one `(w, d, v)` triple — a row `X_wdv` of the cube, whose
/// cells its frame holds ([`ObservationCube::cells_of`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TripleGroup {
    /// The web source.
    pub source: SourceId,
    /// The data item.
    pub item: ItemId,
    /// The value.
    pub value: ValueId,
}

/// Immutable storage for the observation matrix `X`: the groups' keys and
/// the item frames that hold their cells and every index.
#[derive(Debug, Clone)]
pub struct ObservationCube {
    /// The `(source, item, value)` key of every group, in cube order.
    groups: Vec<TripleGroup>,
    /// The meta frame and one item frame per chunk.
    pub(crate) chunked: ChunkedCube,
}

impl ObservationCube {
    /// Total number of nonzero cube cells (extractions).
    pub fn num_cells(&self) -> usize {
        self.chunked.meta.num_cells as usize
    }

    /// Number of distinct `(w, d, v)` triples with at least one extraction.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of sources (dense id space, including sources with no data).
    pub fn num_sources(&self) -> usize {
        self.chunked.meta.num_sources as usize
    }

    /// Number of extractors in the dense id space.
    pub fn num_extractors(&self) -> usize {
        self.chunked.meta.num_extractors as usize
    }

    /// Number of data items in the dense id space.
    pub fn num_items(&self) -> usize {
        self.chunked.meta.num_items as usize
    }

    /// Number of values in the dense id space.
    pub fn num_values(&self) -> usize {
        self.chunked.meta.num_values as usize
    }

    /// All triple groups, sorted by `(item, source, value)`.
    pub fn groups(&self) -> &[TripleGroup] {
        &self.groups
    }

    /// The meta frame and the item frames: what a fit scans.
    pub fn chunked(&self) -> &ChunkedCube {
        &self.chunked
    }

    /// The cells of group `g`, in extractor order.
    pub fn cells_of(&self, g: usize) -> impl ExactSizeIterator<Item = Cell> + '_ {
        let chunks = &self.chunked.meta.item_chunks;
        let i = chunks.partition_point(|c| c.rows.end as usize <= g);
        let frame = &self.chunked.frames[i];
        let r = frame.cells(g - chunks[i].rows.start as usize);
        cells(&frame.cell_extractor[r.clone()], &frame.cell_confidence[r])
    }

    /// The contiguous range of group indices about data item `d`, sorted
    /// by `(source, value)`.
    pub fn groups_of_item(&self, d: ItemId) -> Range<usize> {
        let (base, frame, li) = self.frame_of_item(d);
        let rows = frame.rows(li);
        base + rows.start..base + rows.end
    }

    /// Every item's range of group indices, in item order.
    pub(crate) fn item_rows(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let chunks = self
            .chunked
            .meta
            .item_chunks
            .iter()
            .zip(&self.chunked.frames);
        chunks.flat_map(|(chunk, frame)| {
            let at = move |o: u32| chunk.rows.start as usize + o as usize;
            (frame.item_offsets.windows(2)).map(move |w| at(w[0])..at(w[1]))
        })
    }

    /// Sorted distinct extractors that extracted anything from source `w` —
    /// the candidate set used for absence votes.
    pub fn extractors_on_source(
        &self,
        w: SourceId,
    ) -> impl ExactSizeIterator<Item = ExtractorId> + '_ {
        let meta = &self.chunked.meta;
        let lo = meta.source_ext_offsets[w.index()] as usize;
        let hi = meta.source_ext_offsets[w.index() + 1] as usize;
        meta.source_ext_ids[lo..hi].iter().map(|&e| ExtractorId(e))
    }

    /// Sorted distinct values observed (by any source) for item `d`. The
    /// place of a value in this list is the dense per-item "value slot"
    /// the columnar E-step indexes its accumulators with.
    pub fn observed_values(&self, d: ItemId) -> impl ExactSizeIterator<Item = ValueId> + '_ {
        let (_, frame, li) = self.frame_of_item(d);
        frame.values(li).iter().map(|&v| ValueId(v))
    }

    /// Number of triples (groups) attributed to source `w`.
    pub fn source_size(&self, w: SourceId) -> usize {
        self.chunked.meta.source_sizes[w.index()] as usize
    }

    /// Iterate `(group index, group, cells)` for all groups.
    pub fn iter_with_cells(
        &self,
    ) -> impl Iterator<Item = (usize, TripleGroup, impl ExactSizeIterator<Item = Cell> + '_)> + '_
    {
        let groups = self.group_runs(0..self.num_items()).enumerate();
        groups.map(|(g, (group, e, c))| (g, group, cells(e, c)))
    }

    /// The chunk holding item `d`: its first row, its frame, and `d`'s local index.
    fn frame_of_item(&self, d: ItemId) -> (usize, &ChunkBuf, usize) {
        let chunks = &self.chunked.meta.item_chunks;
        let i = chunks.partition_point(|c| c.items.end as usize <= d.index());
        let (rows, items) = (&chunks[i].rows, &chunks[i].items);
        (
            rows.start as usize,
            &self.chunked.frames[i],
            d.index() - items.start as usize,
        )
    }

    /// The dense id-space sizes.
    fn spaces(&self) -> Spaces {
        let m = &self.chunked.meta;
        Spaces([m.num_sources, m.num_extractors, m.num_items, m.num_values])
    }

    /// The first group of item `d` or of any later item.
    fn first_group(&self, d: usize) -> usize {
        self.groups.partition_point(|g| g.item.index() < d)
    }

    /// The groups of `items` in order, each with its cells' extractor and
    /// confidence runs.
    fn group_runs(&self, items: Range<usize>) -> impl Iterator<Item = GroupRun<'_>> + '_ {
        let (lo, hi) = (self.first_group(items.start), self.first_group(items.end));
        let (chunks, frames) = (&self.chunked.meta.item_chunks, &self.chunked.frames);
        let first = chunks.partition_point(|c| c.rows.end as usize <= lo);
        let chunks = chunks[first..].iter().zip(&frames[first..]);
        let chunks = chunks.take_while(move |(c, _)| (c.rows.start as usize) < hi);
        chunks.flat_map(move |(chunk, frame)| {
            let base = chunk.rows.start as usize;
            (lo.max(base)..hi.min(chunk.rows.end as usize)).map(move |g| {
                let cells = frame.cells(g - base);
                let extractors = &frame.cell_extractor[cells.clone()];
                (self.groups[g], extractors, &frame.cell_confidence[cells])
            })
        })
    }

    /// This cube's rows merged with `delta`'s, less the `gone` keys
    /// (sorted), written over `spaces`: from [`PARTITION_MIN_ROWS`] groups
    /// on, one item window per worker counts the edited rows, then
    /// [`write_cube`] writes the frames.
    fn rewrite(&self, spaces: Spaces, delta: Option<&Self>, gone: &[Key]) -> Self {
        let edit = Edit {
            cube: self,
            delta,
            gone,
        };
        let ([_, _, ni, _], groups) = (spaces.0, &self.groups);
        let windows = cut_items(ni as usize, groups.len(), workers_for(groups.len()), |g| {
            groups[g].item.index()
        });
        let records = kbt_flume::par_map_slice(&windows, |items| {
            let mut record = WindowIndex::new(items.clone(), spaces);
            edit.feed(items.clone(), &mut record);
            record
        });
        write_cube(spaces, records, &edit)
    }

    /// Merge `delta` into this cube **without re-sorting the existing
    /// layout**: the delta alone is built (`O(m log m)` for `m` delta
    /// rows), the items it names are merge-walked against the frames'
    /// groups and every other item's groups are copied. A delta about new items
    /// appends at the end. The result is bit-identical to rebuilding a
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
        let mut d = CubeBuilder::from(delta.to_vec());
        d.spaces = d.spaces.max(self.spaces());
        let d = d.build();
        self.rewrite(d.spaces(), Some(&d), &[])
    }

    /// Remove every triple group matching one of `retractions` — the
    /// **negative delta** of an incremental-fusion round (a source took a
    /// page down, an extractor's pattern was fixed, a value was renamed
    /// away). All cells of a matching `(source, item, value)` group are
    /// dropped; unknown triples are ignored; the groups of items no
    /// retraction names are copied.
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
        let mut gone: Vec<Key> = retractions.iter().map(|&(w, d, v)| (d, w, v)).collect();
        gone.sort_unstable();
        gone.dedup();
        self.rewrite(self.spaces(), None, &gone)
    }

    /// This cube with its frames cut per `chunking` instead of the
    /// default partition: the same groups, cells and indexes, the chunks
    /// closed at other item boundaries. A fit reads it bit for bit as it
    /// reads the cube ([`ChunkedCube::from_cube`] is its frames).
    pub fn recut(&self, chunking: &ChunkingConfig) -> ObservationCube {
        ObservationCube {
            groups: self.groups.clone(),
            chunked: ChunkedCube::from_cube(self, chunking),
        }
    }

    /// Append the cube's wire image (a checkpoint's cube section): the four
    /// id-space sizes, then its item frames behind their count, each in the
    /// chunk store's item-frame encoding. The meta frame is not written;
    /// [`Self::decode`] recounts it.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        self.spaces().0.iter().for_each(|&n| wire::put_u32(buf, n));
        wire::put_u32(buf, self.chunked.frames.len() as u32);
        self.chunked.frames.iter().for_each(|f| f.encode(buf));
    }

    /// Open the cube [`Self::encode`] wrote, as its frames: no cube is
    /// built. Each frame must pass the chunk store's shape check, the
    /// frames must tile the items, and their rows must hold every
    /// invariant a build establishes: keys strictly ascending, each item's
    /// value list its rows' distinct values, each row's extractors
    /// strictly ascending, every confidence in `[0, 1]`. The key column is
    /// read off the rows, and the meta frame is recounted from them by a
    /// build's own window count, so no stored count can disagree with the
    /// cells.
    ///
    /// # Errors
    ///
    /// The [`WireError`] of bytes that do not parse, or
    /// [`WireError::Malformed`] for frames no build writes.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let spaces = Spaces([r.u32()?, r.u32()?, r.u32()?, r.u32()?]);
        // A frame is at least its item range and eight column counts.
        let frames = r.seq(40, |r| {
            let mut frame = ChunkBuf::default();
            frame.read(r).map(|()| frame)
        })?;
        let [num_sources, num_extractors, num_items, num_values] = spaces.0;
        let bounds = ChunkStoreMeta {
            num_sources,
            num_extractors,
            num_items,
            num_values,
            // No slot bound is read: `framed` recounts it from the frames.
            max_item_values: u32::MAX,
            ..ChunkStoreMeta::default()
        };
        let item_chunks = ChunkedCube::partition_of(&frames, &bounds)
            .ok_or(WireError::Malformed("the item frames are not a cube's"))?;
        let rows = item_chunks.last().map_or(0, |c| c.rows.end as usize);
        let mut record = WindowIndex::new(0..num_items as usize, spaces);
        let mut groups = Vec::with_capacity(rows);
        for f in &frames {
            for (r, key) in f.keys().enumerate() {
                record.group(key);
                f.cells(r)
                    .for_each(|k| record.cell(f.cell_extractor[k], f.cell_confidence[k]));
                groups.push(key);
            }
        }
        let meta = source_columns(spaces, std::slice::from_mut(&mut record));
        let chunked = framed(meta, item_chunks, frames);
        Ok(Self { groups, chunked })
    }

    /// Approximate resident size of the cube in bytes (vector payloads
    /// only, no allocator overhead) — what `benchmark/` reports as
    /// `datamodel.cube_bytes`.
    pub fn approx_bytes(&self) -> usize {
        self.groups.len() * std::mem::size_of::<TripleGroup>() + self.chunked.approx_bytes()
    }
}

/// A group's cells, from their extractor and confidence runs.
fn cells<'a>(e: &'a [u32], c: &'a [f64]) -> impl ExactSizeIterator<Item = Cell> + 'a {
    let cell = |(&e, &confidence)| Cell {
        extractor: ExtractorId(e),
        confidence,
    };
    e.iter().zip(c).map(cell)
}

/// A group's key in cube order: `(item, source, value)`.
type Key = (ItemId, SourceId, ValueId);

fn key(g: &TripleGroup) -> Key {
    (g.item, g.source, g.value)
}

/// A group and its cells as extractor-sorted, distinct runs of
/// extractors and confidences.
type GroupRun<'a> = (TripleGroup, &'a [u32], &'a [f64]);

/// Size of the dense id space that holds `id`. Every axis reserves
/// `u32::MAX`: `id + 1` would wrap to an empty space in a release build
/// and index out of bounds much later (`kbt-net` refuses such a frame).
fn space_for(id: u32) -> u32 {
    id.checked_add(1)
        .expect("id u32::MAX is reserved: a dense id space holds id + 1 entries")
}

/// The sizes of the dense id spaces: sources, extractors, items, values.
#[derive(Debug, Clone, Copy, Default)]
struct Spaces([u32; 4]);

impl Spaces {
    /// Each space the larger of the two.
    fn max(self, other: Self) -> Self {
        Self(std::array::from_fn(|a| self.0[a].max(other.0[a])))
    }
}

/// What the key-ordered rows of a cube-to-be are walked into: the frame
/// writer, or a window's counts.
trait Sink {
    /// The next group opens.
    fn group(&mut self, key: TripleGroup);

    /// A cell of the open group. Extractors ascend; a repeated one (a
    /// duplicate `(e, w, d, v)`) merges into its cell by maximum.
    fn cell(&mut self, e: u32, confidence: f64);
}

/// The key-ordered rows of a cube-to-be, by item.
trait Rows: Sync {
    /// Walk the rows of `items` into `sink`, in key order.
    fn feed(&self, items: Range<usize>, sink: &mut impl Sink);
}

/// Rows already in key order, a duplicate `(e, w, d, v)` next to its
/// cell: sorted input read in place, or a build's gathered rows.
impl<R: Row> Rows for [R] {
    fn feed(&self, items: Range<usize>, sink: &mut impl Sink) {
        let first = |d: usize| self.partition_point(|r| r.packed()[0] >> 32 < d as u64);
        let mut open = None;
        for r in &self[first(items.start)..first(items.end)] {
            let [hi, lo, confidence] = r.packed();
            if open.replace([hi, lo >> 32]) != Some([hi, lo >> 32]) {
                let (source, item) = (SourceId(hi as u32), ItemId((hi >> 32) as u32));
                sink.group(TripleGroup {
                    source,
                    item,
                    value: ValueId((lo >> 32) as u32),
                });
            }
            sink.cell(lo as u32, f64::from_bits(confidence));
        }
    }
}

/// A cube's own rows, read off its frames.
impl Rows for ObservationCube {
    fn feed(&self, items: Range<usize>, sink: &mut impl Sink) {
        for (group, e, c) in self.group_runs(items) {
            sink.group(group);
            e.iter().zip(c).for_each(|(&e, &c)| sink.cell(e, c));
        }
    }
}

/// A cube's groups edited: merged with a delta cube's (a key on both
/// sides keeps the larger confidence per extractor), or with the `gone`
/// keys (sorted) left out.
struct Edit<'a> {
    cube: &'a ObservationCube,
    delta: Option<&'a ObservationCube>,
    gone: &'a [Key],
}

impl Rows for Edit<'_> {
    /// The groups of items the edit does not touch are copied as they are;
    /// a touched item's groups are merge-walked.
    fn feed(&self, items: Range<usize>, sink: &mut impl Sink) {
        let new = self.delta.map_or(&[][..], |d| d.groups());
        // The first item from `d` on that the delta or a retraction names.
        let touched = |d: usize| {
            let new = new.get(new.partition_point(|g| g.item.index() < d));
            let gone = self
                .gone
                .get(self.gone.partition_point(|k| k.0.index() < d));
            (new.map(|g| g.item).into_iter())
                .chain(gone.map(|k| k.0))
                .min()
        };
        let mut d = items.start;
        while d < items.end {
            let next = touched(d).map_or(items.end, |t| t.index().min(items.end));
            self.cube.feed(d..next, sink);
            if next < items.end {
                self.merge_item(next, sink);
            }
            d = next + 1;
        }
    }
}

impl Edit<'_> {
    /// Item `d`'s groups: the cube's and the delta's merged by key, less
    /// the retracted ones.
    fn merge_item(&self, d: usize, sink: &mut impl Sink) {
        let mut old = self.cube.group_runs(d..d + 1).peekable();
        let delta = self.delta.map(|delta| delta.group_runs(d..d + 1));
        let mut new = delta.into_iter().flatten().peekable();
        let first = |d: usize| self.gone.partition_point(|k| k.0.index() < d);
        let mut gone = self.gone[first(d)..first(d + 1)].iter().peekable();
        loop {
            // The next key in order, from either side or — equal — both.
            let order = match (old.peek(), new.peek()) {
                (Some(a), Some(b)) => key(&a.0).cmp(&key(&b.0)),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => break,
            };
            let (a, b) = (
                old.next_if(|_| order.is_le()),
                new.next_if(|_| order.is_ge()),
            );
            let (group, _, _) = a.or(b).expect("one side had a group");
            while gone.next_if(|&&k| k < key(&group)).is_some() {}
            if gone.next_if(|&&k| k == key(&group)).is_some() {
                continue;
            }
            sink.group(group);
            // Both sides' cells in extractor order; the sink merges a
            // repeated extractor.
            let (xe, xc) = a.map_or((&[][..], &[][..]), |r| (r.1, r.2));
            let (ye, yc) = b.map_or((&[][..], &[][..]), |r| (r.1, r.2));
            let (mut i, mut j) = (0, 0);
            while i < xe.len() || j < ye.len() {
                if j == ye.len() || (i < xe.len() && xe[i] <= ye[j]) {
                    sink.cell(xe[i], xc[i]);
                    i += 1;
                } else {
                    sink.cell(ye[j], yc[j]);
                    j += 1;
                }
            }
        }
    }
}

/// Extractors below this id are marked per source in one bit of a word;
/// the rest are listed as `(source, extractor)` pairs.
const MASKED_EXTRACTORS: u32 = u64::BITS;

/// What one item window counts in one walk over its rows in key order:
/// the per-item counts the chunk partition is cut from, and the window's
/// share of the per-source columns.
struct WindowIndex {
    /// The window's items.
    items: Range<usize>,
    /// Per item of the window: its groups and its cells.
    item_groups: Vec<u32>,
    item_cells: Vec<u32>,
    /// Per source: the window's groups of it, and the distinct items
    /// among them.
    source_groups: Vec<u32>,
    source_items: Vec<u32>,
    /// Per source: bit `e` set when extractor `e` below
    /// [`MASKED_EXTRACTORS`] extracted from it.
    extractor_mask: Vec<u64>,
    /// `source·2³² + extractor` for the cells of the other extractors.
    extractor_pairs: Vec<u64>,
    /// The open group's local item and source, and its last extractor.
    open: (usize, usize),
    last: Option<u32>,
}

impl WindowIndex {
    fn new(items: Range<usize>, spaces: Spaces) -> Self {
        let [ns, ..] = spaces.0.map(|n| n as usize);
        Self {
            item_groups: vec![0; items.len()],
            item_cells: vec![0; items.len()],
            source_groups: vec![0; ns],
            source_items: vec![0; ns],
            extractor_mask: vec![0; ns],
            extractor_pairs: Vec::new(),
            open: (usize::MAX, usize::MAX),
            last: None,
            items,
        }
    }

    /// Extractor `e` extracted from the open group's source.
    fn mark(&mut self, e: u32) {
        let w = self.open.1;
        match e < MASKED_EXTRACTORS {
            true => self.extractor_mask[w] |= 1 << e,
            false => self.extractor_pairs.push((w as u64) << 32 | u64::from(e)),
        }
    }
}

impl Sink for WindowIndex {
    fn group(&mut self, key: TripleGroup) {
        let open = (key.item.index() - self.items.start, key.source.index());
        self.item_groups[open.0] += 1;
        self.source_groups[open.1] += 1;
        // A source's items are its runs of equal `(item, source)`.
        if std::mem::replace(&mut self.open, open) != open {
            self.source_items[open.1] += 1;
        }
        self.last = None;
    }

    fn cell(&mut self, e: u32, _: f64) {
        if self.last.replace(e) != Some(e) {
            self.item_cells[self.open.0] += 1;
            self.mark(e);
        }
    }
}

/// Lay out a cube from its key-ordered `rows` — the layout pass of
/// [`CubeBuilder::build`], [`ObservationCube::apply_delta`] and
/// [`ObservationCube::retract`]. `records` tile the items in order with
/// what their windows counted ([`source_columns`]); [`write_frames`]
/// cuts the default partition from their per-item counts and writes the
/// frames and the key column.
fn write_cube<R: Rows + ?Sized>(
    spaces: Spaces,
    mut records: Vec<WindowIndex>,
    rows: &R,
) -> ObservationCube {
    let meta = source_columns(spaces, &mut records);
    let per_item = (records.iter()).flat_map(|r| r.item_groups.iter().zip(&r.item_cells));
    let per_item = per_item.map(|(&groups, &cells)| (groups, cells));
    let (groups, chunked) = write_frames(per_item, &ChunkingConfig::default(), rows, true, meta);
    ObservationCube { groups, chunked }
}

/// The meta frame's id spaces and per-source columns from what the item
/// windows `records` counted: the columns are their counts summed, and
/// each source's extractor set the union of their marks.
fn source_columns(spaces: Spaces, records: &mut [WindowIndex]) -> ChunkStoreMeta {
    let [ns, ..] = spaces.0.map(|n| n as usize);
    let sum = |count: fn(&WindowIndex) -> &[u32]| -> Vec<u32> {
        (0..ns)
            .map(|w| records.iter().map(|r| count(r)[w]).sum())
            .collect()
    };
    let (source_sizes, source_item_counts) = (sum(|r| &r.source_groups), sum(|r| &r.source_items));
    let mut pairs: Vec<u64> = (records.iter_mut())
        .flat_map(|r| std::mem::take(&mut r.extractor_pairs))
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut pairs = pairs.into_iter().peekable();
    let (mut source_ext_offsets, mut source_ext_ids) = (vec![0u32], Vec::new());
    for w in 0..ns {
        let mut mask = records.iter().fold(0, |m, r| m | r.extractor_mask[w]);
        while mask != 0 {
            source_ext_ids.push(mask.trailing_zeros());
            mask &= mask - 1;
        }
        while let Some(p) = pairs.next_if(|&p| (p >> 32) as usize == w) {
            source_ext_ids.push(p as u32);
        }
        source_ext_offsets.push(source_ext_ids.len() as u32);
    }

    let [num_sources, num_extractors, num_items, num_values] = spaces.0;
    ChunkStoreMeta {
        num_items,
        num_sources,
        num_extractors,
        num_values,
        source_sizes,
        source_item_counts,
        source_ext_offsets,
        source_ext_ids,
        ..ChunkStoreMeta::default()
    }
}

impl ChunkedCube {
    /// The re-cut: `cube`'s frames with the chunks closed per `cfg`
    /// ([`ObservationCube::recut`]'s frames), written from the cube's own
    /// frames. The rows, their cells and every per-source column are the
    /// cube's; at the default configuration the frames are the cube's
    /// own, bit for bit.
    pub fn from_cube(cube: &ObservationCube, cfg: &ChunkingConfig) -> Self {
        let per_item = cube.chunked.frames.iter().flat_map(|f| {
            let cells = |r: u32| f.cell_offsets[r as usize];
            (f.item_offsets.windows(2)).map(move |w| (w[1] - w[0], cells(w[1]) - cells(w[0])))
        });
        write_frames(per_item, cfg, cube, false, cube.chunked.meta.clone()).1
    }
}

/// The frames of the items whose `(groups, cells)` `per_item` yields in
/// item order, cut per `chunking` ([`ChunkingConfig::cut`]) and written
/// from their key-ordered `rows` by one frame writer ([`FrameWriter`])
/// task per chunk, so the bytes are the same at any worker count; and
/// their key column if `keys`. `meta` brings the id spaces and per-source
/// columns; the counts and the partition are set here.
fn write_frames<R: Rows + ?Sized>(
    per_item: impl Iterator<Item = (u32, u32)> + Clone,
    chunking: &ChunkingConfig,
    rows: &R,
    keys: bool,
    meta: ChunkStoreMeta,
) -> (Vec<TripleGroup>, ChunkedCube) {
    let (ng, nc) =
        (per_item.clone()).fold((0, 0), |(g, c), (n, k)| (g + n as usize, c + k as usize));
    let item_chunks = chunking.cut(per_item, nc);

    // Every buffer is sized here, on the calling thread, so the workers
    // below fill them without allocating: memory a worker allocates lands
    // in its thread's malloc arena and stays resident after the call.
    let mut groups = vec![TripleGroup::default(); if keys { ng } else { 0 }];
    let mut rest = groups.as_mut_slice();
    let slots: Vec<Mutex<(ChunkBuf, &mut [TripleGroup])>> = (item_chunks.iter())
        .map(|c| {
            let n = if keys { c.rows.len() } else { 0 };
            let keys = rest.split_off_mut(..n).expect("chunks tile the rows");
            Mutex::new((ChunkBuf::sized_for(c), keys))
        })
        .collect();
    let Ok(_) = kbt_flume::run_tasks(item_chunks.len(), &mut vec![(); workers_for(nc)], |_, i| {
        let (frame, keys) = &mut *slots[i].lock().expect("a frame is written once");
        let items = frame.items.start as usize..frame.items.end as usize;
        let mut writer = FrameWriter::new(frame, keys);
        rows.feed(items, &mut writer);
        writer.finish();
        Ok::<_, Infallible>(())
    });
    let frames: Vec<ChunkBuf> = (slots.into_iter())
        .map(|s| s.into_inner().expect("no frame writer panicked").0)
        .collect();

    (groups, framed(meta, item_chunks, frames))
}

/// `frames`, cut as `item_chunks`, under `meta`'s id spaces and
/// per-source columns; the counts and the slot bound are the frames'.
fn framed(
    mut meta: ChunkStoreMeta,
    item_chunks: Vec<CubeChunk>,
    frames: Vec<ChunkBuf>,
) -> ChunkedCube {
    let item_values = |f: &ChunkBuf| f.item_value_offsets.windows(2).map(|w| w[1] - w[0]).max();
    meta.max_item_values = frames.iter().filter_map(item_values).max().unwrap_or(0);
    meta.num_groups = item_chunks.last().map_or(0, |c| c.rows.end);
    meta.num_cells = item_chunks.iter().map(|c| c.cells).sum();
    meta.item_chunks = item_chunks;
    ChunkedCube { meta, frames }
}

/// The frame writer: one chunk's frame, written from the key-ordered rows
/// of its items, and its rows' keys into the chunk's stretch of the key
/// column (if it has one). An item's value list is its groups' values
/// sorted and deduplicated, and a row's slot is its value's place in it.
/// Until the frame is finished, `cell_offsets` holds each row's first
/// cell; until its item is sealed, `ig_slot` holds each row's value.
struct FrameWriter<'a> {
    frame: &'a mut ChunkBuf,
    keys: &'a mut [TripleGroup],
    /// The open item's values (the one buffer a worker grows).
    values: Vec<u32>,
}

impl<'a> FrameWriter<'a> {
    fn new(frame: &'a mut ChunkBuf, keys: &'a mut [TripleGroup]) -> Self {
        frame.item_offsets.push(0);
        frame.item_value_offsets.push(0);
        let values = Vec::new();
        Self {
            frame,
            keys,
            values,
        }
    }

    /// Seal the frame's open item: its rows are those written since the
    /// last sealed one, and their values make its value list.
    fn close_item(&mut self) {
        let f = &mut *self.frame;
        let first = *f.item_offsets.last().expect("starts at 0") as usize;
        let values = &mut self.values;
        values.clear();
        values.extend_from_slice(&f.ig_slot[first..]);
        values.sort_unstable();
        values.dedup();
        for slot in &mut f.ig_slot[first..] {
            let at = values.binary_search(slot);
            *slot = at.expect("a row's value is one of its item's") as u32;
        }
        f.item_values.extend_from_slice(values);
        f.item_offsets.push(f.ig_source.len() as u32);
        f.item_value_offsets.push(f.item_values.len() as u32);
    }

    /// The item whose rows come next.
    fn open_item(&self) -> u32 {
        self.frame.items.start + (self.frame.item_offsets.len() - 1) as u32
    }

    /// Seal every item left, and the last row's cells.
    fn finish(mut self) {
        while self.frame.item_offsets.len() <= self.frame.items.len() {
            self.close_item();
        }
        let cells = self.frame.cell_extractor.len() as u32;
        self.frame.cell_offsets.push(cells);
    }
}

impl Sink for FrameWriter<'_> {
    fn group(&mut self, key: TripleGroup) {
        while self.open_item() != key.item.0 {
            self.close_item();
        }
        let f = &mut *self.frame;
        if let Some(k) = self.keys.get_mut(f.ig_source.len()) {
            *k = key;
        }
        f.ig_source.push(key.source.0);
        f.ig_slot.push(key.value.0);
        f.cell_offsets.push(f.cell_extractor.len() as u32);
    }

    fn cell(&mut self, e: u32, confidence: f64) {
        let f = &mut *self.frame;
        let first = *f.cell_offsets.last().expect("a cell follows its group") as usize;
        if f.cell_extractor.len() > first && f.cell_extractor.last() == Some(&e) {
            let open = f.cell_confidence.last_mut().expect("a cell per extractor");
            *open = open.max(confidence);
            return;
        }
        f.cell_extractor.push(e);
        f.cell_confidence.push(confidence);
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
    spaces: Spaces,
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
        let ids = [o.source.0, o.extractor.0, o.item.0, o.value.0];
        for (n, id) in self.spaces.0.iter_mut().zip(ids) {
            *n = (*n).max(space_for(id));
        }
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
        self.spaces = self
            .spaces
            .max(Spaces([sources, extractors, items, values]));
        self
    }

    /// Sort, dedup, group, and lay the observations out as item frames.
    ///
    /// Input already in key order `(item, source, value, extractor)` (one
    /// linear check) is read in place: one window on the calling thread
    /// counts it, and each frame is written from its span. Anything else
    /// is cut by item into windows of about equal row count — one per
    /// worker from 2¹⁶ rows on, else one run inline — and each window's
    /// task gathers its rows from the input by item, sorts them item by
    /// item and counts them; the windows' rows tile one buffer in key
    /// order, from which each frame is written. Either way the partition is
    /// cut from the windows' per-item counts, and the frames are written
    /// one task per chunk (`write_cube`). Duplicate keys merge to their
    /// maximum confidence, so the cube is the same at any worker count and
    /// in any arrival order.
    pub fn build(self) -> ObservationCube {
        let (obs, spaces) = (self.obs, self.spaces);
        let [_, _, ni, _] = spaces.0.map(|n| n as usize);
        // The sorted check comes first on purpose: `single_layer::pair_cube`
        // hands the builder its claims in cube order, and one window reads
        // them in place on the calling thread. On unsorted input it stops
        // at the first inversion.
        if obs.is_sorted_by_key(row_key) {
            let mut record = WindowIndex::new(0..ni, spaces);
            obs.feed(0..ni, &mut record);
            return write_cube(spaces, vec![record], &obs[..]);
        }
        let starts = item_starts(&obs, ni);
        let cuts = cut_items(ni, obs.len(), workers_for(obs.len()), |p| {
            starts.partition_point(|&s| s <= p) - 1
        });
        // Each window gathers its rows into its stretch of one row buffer
        // and counts them. The buffer is allocated here, zeroed, on the
        // calling thread: the workers fault its pages in, and its memory
        // goes back where the frames come from (allocated by short-lived
        // workers, gather buffers stayed resident in their arenas: +63 MB
        // peak RSS on the 2M-row fit).
        let mut buffer = vec![[0; 3]; obs.len()];
        let mut rest = buffer.as_mut_slice();
        let mut windows: Vec<_> = (cuts.into_iter())
            .map(|items| {
                let rows = starts[items.end] - starts[items.start];
                let rows = rest.split_off_mut(..rows).expect("windows tile the rows");
                (rows, WindowIndex::new(items, spaces))
            })
            .collect();
        kbt_flume::par_ranges_mut(&mut windows, |_, ws| {
            for (rows, record) in ws {
                gather(&obs, &starts, record.items.clone(), rows);
                rows.feed(record.items.clone(), record);
            }
        });
        let records = windows.into_iter().map(|(_, record)| record).collect();
        // Free the input before the frames exist.
        drop((obs, starts));
        write_cube(spaces, records, &buffer[..])
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
/// split the items into one window per worker, and cells from which the
/// frames are written on more than one: below it, a spawn costs more
/// than a second worker saves, and one window runs inline.
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

/// A row in key order: an observation of sorted input, read in place,
/// or a gathered [`PackedRow`].
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::tests::{bits, rows};

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
        assert_eq!(cube.cells_of(0).len(), 2);
    }

    #[test]
    fn duplicates_merge_keeping_max_confidence() {
        let mut b = CubeBuilder::new();
        b.push(obs(0, 0, 0, 0, 0.3));
        b.push(obs(0, 0, 0, 0, 0.9));
        b.push(obs(0, 0, 0, 0, 0.5));
        let cube = b.build();
        assert_eq!(cube.num_cells(), 1);
        assert_eq!(cube.cells_of(0).next().unwrap().confidence, 0.9);
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
        assert_cubes_identical(&a, &b);
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
        let on = |w| {
            cube.extractors_on_source(SourceId::new(w))
                .collect::<Vec<_>>()
        };
        assert_eq!(on(0), [ExtractorId::new(0), ExtractorId::new(2)]);
        assert_eq!(on(1), [ExtractorId::new(1)]);
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
                assert!(cube.extractors_on_source(SourceId::new(w)).eq(want(w)));
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
        let values: Vec<ValueId> = cube.observed_values(ItemId::new(0)).collect();
        assert_eq!(values, [ValueId::new(2), ValueId::new(5)]);
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
        assert!((1..10).all(|w| cube.extractors_on_source(SourceId::new(w)).len() == 0));
    }

    /// The same cube, byte for byte: the key column, the meta frame and
    /// every item frame (confidences as bits). `apply_delta` and `retract`
    /// must be indistinguishable from a full rebuild this way.
    fn assert_cubes_identical(a: &ObservationCube, b: &ObservationCube) {
        assert_eq!(a.groups(), b.groups());
        assert_eq!(a.chunked.meta, b.chunked.meta);
        assert_eq!(a.chunked.frames.len(), b.chunked.frames.len());
        for (i, (fa, fb)) in a.chunked.frames.iter().zip(&b.chunked.frames).enumerate() {
            assert!(bits(fa) == bits(fb), "frame {i}");
        }
    }

    /// The frame writer's contract on `cube`: its frames are the re-cut at
    /// the default partition on one worker, bit for bit, and its key
    /// column is the frames' rows — local row `r` of a chunk's frame is
    /// group `rows.start + r`, of the frame's item, its value the row's
    /// slot in that item's value list. Its wire image decodes to it.
    fn assert_frames_hold_the_cube(cube: &ObservationCube) {
        let recut = kbt_flume::with_threads(Some(1), || cube.recut(&ChunkingConfig::default()));
        assert_cubes_identical(&recut, cube);
        let keys = rows(&cube.chunked).into_iter().map(|(key, _)| key);
        assert!(keys.eq(cube.groups().iter().copied()));
        let mut bytes = Vec::new();
        cube.encode(&mut bytes);
        let mut r = WireReader::new(&bytes);
        assert_cubes_identical(&ObservationCube::decode(&mut r).unwrap(), cube);
        assert!(r.is_empty());
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
                let cube = build_at(threads, rows);
                assert_frames_hold_the_cube(&cube);
                assert_cubes_identical(&cube, &want);
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

    /// A delta writes the frames a rebuild from the union would, below and
    /// above the parallel threshold, at 1, 2 and 8 threads (and 3 above).
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
        let cube = CubeBuilder::from(base.clone()).build();
        let full = CubeBuilder::from([&base[..], &delta[..]].concat()).build();
        for threads in [1, 2, 8] {
            let incremental = kbt_flume::with_threads(Some(threads), || cube.apply_delta(&delta));
            assert_frames_hold_the_cube(&incremental);
            assert_cubes_identical(&incremental, &full);
        }

        // Above the parallel threshold the merge is counted in windows.
        let (base, delta) = (spread(150_000, 1), spread(60_000, 2));
        let full = serial_build(&[&base[..], &delta[..]].concat());
        for threads in [1, 2, 3, 8] {
            let cube = build_at(threads, &base);
            assert!(cube.num_groups() >= PARTITION_MIN_ROWS);
            let incremental = kbt_flume::with_threads(Some(threads), || cube.apply_delta(&delta));
            assert_frames_hold_the_cube(&incremental);
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
        assert_cubes_identical(&grown, &CubeBuilder::from(delta).build());
    }

    /// `retract` must be indistinguishable from rebuilding the cube from
    /// the surviving observations (with the id spaces held fixed): the same
    /// frames, below and above the parallel threshold, at any threads.
    #[test]
    fn retract_matches_rebuild_of_survivors() {
        let base = vec![
            obs(0, 1, 0, 0, 1.0),
            obs(1, 1, 0, 0, 0.5),
            obs(0, 0, 2, 1, 0.9),
            obs(2, 3, 1, 0, 1.0),
            obs(0, 3, 1, 2, 0.8),
        ];
        let cube = CubeBuilder::from(base.clone()).build();
        // Retract one multi-cell group, one single-cell group, and one
        // triple that does not exist (ignored).
        let keys = [
            (SourceId::new(1), ItemId::new(0), ValueId::new(0)),
            (SourceId::new(3), ItemId::new(1), ValueId::new(2)),
            (SourceId::new(9), ItemId::new(9), ValueId::new(9)),
        ];
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
        let survivors = survivors.build();
        for threads in [1, 2, 8] {
            let retracted = kbt_flume::with_threads(Some(threads), || cube.retract(&keys));
            assert_frames_hold_the_cube(&retracted);
            assert_cubes_identical(&retracted, &survivors);
            assert_eq!(retracted.source_size(SourceId::new(1)), 0);
            assert_eq!(retracted.extractors_on_source(SourceId::new(1)).len(), 0);
        }

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
            assert_frames_hold_the_cube(&retracted);
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
        let cell = Cell {
            extractor: ExtractorId::new(0),
            confidence: 0.7,
        };
        assert_eq!(back.cells_of(0).collect::<Vec<_>>(), [cell]);
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
            .flat_map(|(_, _, cs)| cs.map(|c| c.confidence))
            .collect();
        assert_eq!(confs, vec![1.0, 0.0, 0.0]);
    }
}
