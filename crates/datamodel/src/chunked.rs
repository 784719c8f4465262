//! Columnar (SoA) chunked form of the observation cube — the layout the
//! EM hot loops stream at 10M-triple scale.
//!
//! At millions of triples the E-step wants to stream *columns*
//! (`source[]`, `value[]`, `confidence[]`, …) with a fixed reduction order,
//! so rustc can keep the loop bodies branch-free and auto-vectorize the
//! float accumulations, rather than chase per-group ranges into an array
//! of structs.
//!
//! [`ChunkedCube`] is that layout, and it has one shape in memory and on
//! disk: the **meta frame** ([`ChunkStoreMeta`]) plus one **item frame**
//! ([`ChunkBuf`]) per chunk — exactly what a [`FileChunkStore`] written
//! from it decodes, frame for frame. It is where an
//! [`ObservationCube`](crate::ObservationCube)'s cells live
//! ([`ObservationCube::chunked`](crate::ObservationCube::chunked)): the
//! cube's build, deltas and retractions write its frames, whose rows are
//! its groups in order, so no fit lays the cube out again.
//! [`ChunkedCube::from_cube`] is the re-cut, the same rows at another
//! chunk size written from the cube's frames, which moves no result.
//!
//! The rows are partitioned into **item-aligned chunks** ([`CubeChunk`])
//! of roughly [`ChunkingConfig::target_cells`] cells: a chunk carries
//! everything an EM round computes for its rows — correctness from its
//! cells, the value posteriors of its items — so a round is one scan that
//! hands whole frames to its workers ([`ChunkSource::scan_items`]).
//! Because chunks never split an item, per-item reductions stay local to
//! one worker.
//!
//! # Chunk sources
//!
//! An EM fit reads the cube only through a [`ChunkSource`]: one scan over
//! the item frames — the one place that decides how chunk work is
//! scheduled — and the resident integer skeleton ([`ChunkStoreMeta`]).
//! Both residencies hand the kernels a `&ChunkBuf`: a resident
//! [`ChunkedCube`] its own frames, [`StreamedChunks`] the buffer each scan
//! worker reads a [`FileChunkStore`]'s frame into, so the resident set is
//! one buffer per worker instead of the whole corpus. The v5 file format
//! (`KBTCHNK5`) is the magic followed by three families of [`wire`]
//! frames (the frame, sequence and column contracts are stated once, in
//! that module's docs):
//!
//! * a **meta frame** ([`ChunkStoreMeta`]) — the integer skeleton a
//!   streamed fit keeps resident: counts, the item-chunk partition, and
//!   the per-source columns (group counts, distinct-item counts, sorted
//!   distinct extractor ids) that the M-steps and vote tables need
//!   without touching any cell payload;
//! * **item frames** — one per [`CubeChunk`]: its items' value lists and
//!   its rows with their cells, the whole payload of a round's scan;
//! * an **index frame** + trailing 8-byte offset, so [`FileChunkStore::open`]
//!   reads only the file tail, the index, and the meta frame — never the
//!   whole file (opening a multi-GB store costs O(meta), not O(corpus)).

use std::fs;
use std::io::{self, Write as _};
use std::ops::Range;
use std::os::unix::fs::FileExt as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::wire::{self, WireError, WireReader};
use crate::{ItemId, SourceId, TripleGroup, ValueId};

/// How the columnar cube is partitioned into chunks.
#[derive(Debug, Clone)]
pub struct ChunkingConfig {
    /// Soft target for the number of cube cells per chunk. A chunk closes
    /// at the first **item boundary** at or past `min(target_cells, max(4
    /// Ki, ⌈cells / 16⌉))` cells, so a small cube still spreads over its
    /// workers (a very wide item can exceed the cap). Smaller chunks = finer
    /// load balancing and a smaller per-worker working set; larger chunks =
    /// less scheduling overhead. The default (64 Ki cells ≈ 1 MiB of
    /// confidence + id columns) keeps a chunk's hot data L2-resident; every
    /// cube is cut at it, and only a re-cut ([`ChunkedCube::from_cube`])
    /// cuts at another.
    pub target_cells: usize,
}

impl Default for ChunkingConfig {
    fn default() -> Self {
        Self {
            target_cells: 64 * 1024,
        }
    }
}

impl ChunkingConfig {
    /// The partition of the items whose `(groups, cells)` `per_item`
    /// yields in item order, `cells` in all: greedy, each chunk closed at
    /// the first item boundary at or past its cap.
    pub(crate) fn cut(
        &self,
        per_item: impl Iterator<Item = (u32, u32)>,
        cells: usize,
    ) -> Vec<CubeChunk> {
        // At most a sixteenth of the cube, and no less than 4 Ki cells.
        let cap = (cells as u64).div_ceil(16).max(4 * 1024);
        let target = (self.target_cells.max(1) as u64).min(cap);
        let mut chunks: Vec<CubeChunk> = Vec::new();
        for (d, (groups, cells)) in (0u32..).zip(per_item) {
            match chunks.last_mut() {
                Some(open) if u64::from(open.cells) < target => {
                    (open.items.end, open.rows.end, open.cells) =
                        (d + 1, open.rows.end + groups, open.cells + cells);
                }
                _ => {
                    let row = chunks.last().map_or(0, |c| c.rows.end);
                    let (items, rows) = (d..d + 1, row..row + groups);
                    chunks.push(CubeChunk { items, rows, cells });
                }
            }
        }
        chunks
    }
}

/// One item-aligned chunk of the columnar cube: a contiguous range of
/// items, the contiguous range of item-major rows (cube groups) they own,
/// and the cell mass inside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeChunk {
    /// Dense item-id range `[start, end)` the chunk covers.
    pub items: Range<u32>,
    /// The cube groups the chunk's items own, which are its frame's rows
    /// in order: local row `r` is group `rows.start + r`.
    pub rows: Range<u32>,
    /// Number of cube cells inside the chunk's rows.
    pub cells: u32,
}

/// The columnar (structure-of-arrays) chunked cube: the meta frame and
/// one decoded item frame per chunk — the same values a
/// [`FileChunkStore`] holds, in the same shapes.
///
/// Frame `i` is what [`FileChunkStore::load_chunk`]`(i)` decodes from a
/// store this cube was written to: the items of `meta.item_chunks[i]`
/// with their rows (in the cube's item-major group order, so local row
/// `r` is cube group `meta.item_chunks[i].rows.start + r`) and the rows'
/// cells, every offset local to the frame. A resident scan hands the
/// kernels `&frames[i]`, a streamed scan its worker's buffer: one type.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedCube {
    /// The integer skeleton: counts, the item-chunk partition and the
    /// per-source columns.
    pub meta: ChunkStoreMeta,
    /// One item frame per entry of `meta.item_chunks`.
    pub frames: Vec<ChunkBuf>,
}

impl ChunkedCube {
    /// Approximate payload bytes of the meta frame and the item frames.
    pub(crate) fn approx_bytes(&self) -> usize {
        let m = &self.meta;
        let words = |columns: &[&Vec<u32>]| 4 * columns.iter().map(|c| c.len()).sum::<usize>();
        let per_source = [
            &m.source_sizes,
            &m.source_item_counts,
            &m.source_ext_offsets,
        ];
        let frames = self.frames.iter().map(|f| {
            let rows = [&f.ig_source, &f.ig_slot, &f.cell_offsets, &f.cell_extractor];
            let items = [&f.item_offsets, &f.item_value_offsets, &f.item_values];
            words(&rows) + words(&items) + 8 * f.cell_confidence.len()
        });
        let chunks = m.item_chunks.len() * std::mem::size_of::<CubeChunk>();
        chunks + words(&per_source) + words(&[&m.source_ext_ids]) + frames.sum::<usize>()
    }

    /// The partition decoded `frames` were cut at, if they tile
    /// `meta.num_items` in order, their rows and cells count in `u32`, and
    /// each is a well-formed frame of its chunk under `meta`
    /// ([`ChunkBuf::fits`]) that a build could have written
    /// ([`ChunkBuf::is_canonical`]).
    pub(crate) fn partition_of(
        frames: &[ChunkBuf],
        meta: &ChunkStoreMeta,
    ) -> Option<Vec<CubeChunk>> {
        let (mut next, mut total) = (0u32, 0u32);
        let mut chunk = |f: &ChunkBuf| {
            let (items, cells) = (f.items.clone(), f.cell_extractor.len() as u32);
            let end = next.checked_add(f.num_rows().try_into().ok()?)?;
            total = total.checked_add(cells)?;
            let rows = std::mem::replace(&mut next, end)..end;
            let chunk = CubeChunk { items, rows, cells };
            (f.fits(&chunk, meta) && f.is_canonical(meta.num_values)).then_some(chunk)
        };
        let tiled = tiles(frames.iter().map(|f| &f.items), meta.num_items);
        tiled.then(|| frames.iter().map(&mut chunk).collect())?
    }
}

/// One chunk's item frame: the unit [`FileChunkStore::load_chunk`] decodes
/// into reusable buffers, an out-of-core scan worker holds, and a
/// resident [`ChunkedCube`] keeps one of per chunk — everything a round
/// computes the chunk's rows from. Local indices run `0..num_items()` and
/// `0..num_rows()`, and every offset column is local to the frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkBuf {
    /// Dense item-id range the frame covers (`items.start + li` is the
    /// global item id of local item `li`).
    pub items: Range<u32>,
    /// Row offsets (`item_offsets[0] == 0`, length `items.len() + 1`).
    pub item_offsets: Vec<u32>,
    /// Value-CSR offsets (length `items.len() + 1`).
    pub item_value_offsets: Vec<u32>,
    /// Flat per-item sorted distinct value ids.
    pub item_values: Vec<u32>,
    /// Source id per row.
    pub ig_source: Vec<u32>,
    /// Slot of the row's value inside its item's sorted distinct-value
    /// list ([`Self::values`]).
    pub ig_slot: Vec<u32>,
    /// Cell offsets per row (length `rows + 1`), strictly increasing:
    /// every row has a cell, as `retract` drops a group with its last
    /// one.
    pub cell_offsets: Vec<u32>,
    /// Extractor id per cell.
    pub cell_extractor: Vec<u32>,
    /// Confidence per cell.
    pub cell_confidence: Vec<f64>,
}

impl ChunkBuf {
    /// Number of items in the frame.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Number of rows in the frame.
    pub fn num_rows(&self) -> usize {
        self.ig_source.len()
    }

    /// Local row range of local item `li` into the `ig_*` columns.
    pub fn rows(&self, li: usize) -> Range<usize> {
        self.item_offsets[li] as usize..self.item_offsets[li + 1] as usize
    }

    /// Sorted distinct value ids of local item `li`.
    pub fn values(&self, li: usize) -> &[u32] {
        let lo = self.item_value_offsets[li] as usize;
        &self.item_values[lo..self.item_value_offsets[li + 1] as usize]
    }

    /// Local cell range of local row `r` into the cell columns.
    pub fn cells(&self, r: usize) -> Range<usize> {
        self.cell_offsets[r] as usize..self.cell_offsets[r + 1] as usize
    }

    /// An empty frame of `chunk`, its columns' capacity sized for the
    /// chunk's rows and cells (an item's values are at most its rows).
    pub(crate) fn sized_for(chunk: &CubeChunk) -> Self {
        let (items, rows, cells) = (chunk.items.len(), chunk.rows.len(), chunk.cells as usize);
        Self {
            items: chunk.items.clone(),
            item_offsets: Vec::with_capacity(items + 1),
            item_value_offsets: Vec::with_capacity(items + 1),
            item_values: Vec::with_capacity(rows),
            ig_source: Vec::with_capacity(rows),
            ig_slot: Vec::with_capacity(rows),
            cell_offsets: Vec::with_capacity(rows + 1),
            cell_extractor: Vec::with_capacity(cells),
            cell_confidence: Vec::with_capacity(cells),
        }
    }

    /// The item-frame payload [`FileChunkStore::load_chunk`] decodes (and
    /// a checkpoint's cube section holds, frame after frame).
    pub(crate) fn encode(&self, p: &mut Vec<u8>) {
        wire::put_u32(p, self.items.start);
        wire::put_u32(p, self.items.end);
        for column in [
            &self.item_offsets,
            &self.item_value_offsets,
            &self.item_values,
            &self.ig_source,
            &self.ig_slot,
            &self.cell_offsets,
            &self.cell_extractor,
        ] {
            put_u32_slice(p, column);
        }
        wire::put_column(p, &self.cell_confidence, f64::to_le_bytes);
    }

    /// Read an item frame written by [`Self::encode`] into these buffers,
    /// reusing their capacity. Every column is guarded by the bytes left;
    /// the shape is [`Self::fits`]'s to check.
    pub(crate) fn read(&mut self, r: &mut WireReader<'_>) -> Result<(), WireError> {
        self.items = r.u32()?..r.u32()?;
        for column in [
            &mut self.item_offsets,
            &mut self.item_value_offsets,
            &mut self.item_values,
            &mut self.ig_source,
            &mut self.ig_slot,
            &mut self.cell_offsets,
            &mut self.cell_extractor,
        ] {
            read_u32_vec(r, column)?;
        }
        r.column(&mut self.cell_confidence, f64::from_le_bytes)
    }

    /// Whether this well-formed frame's rows are as a build writes them,
    /// over `num_values` values: an item's value list is exactly its rows'
    /// distinct values, ascending; an item's rows strictly ascend in
    /// `(source, value)`; a row's extractors strictly ascend; and every
    /// confidence is in `[0, 1]` (no NaN).
    pub(crate) fn is_canonical(&self, num_values: u32) -> bool {
        let ascend = |ids: &[u32]| ids.windows(2).all(|w| w[0] < w[1]);
        // Every value of a frame is some row's, slot by slot.
        let mut used = vec![false; self.item_values.len()];
        let items_ok = (0..self.num_items()).all(|li| {
            let (values, first) = (self.values(li), self.item_value_offsets[li] as usize);
            (self.rows(li)).for_each(|r| used[first + self.ig_slot[r] as usize] = true);
            let keys = self.rows(li).map(|r| (self.ig_source[r], self.ig_slot[r]));
            ascend(values)
                && values.last().is_none_or(|&v| v < num_values)
                && keys.is_sorted_by(|a, b| a < b)
        });
        items_ok
            && !used.contains(&false)
            && (0..self.num_rows()).all(|r| ascend(&self.cell_extractor[self.cells(r)]))
            && self.cell_confidence.iter().all(|c| (0.0..=1.0).contains(c))
    }

    /// The `(source, item, value)` key of every row, in order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = TripleGroup> + '_ {
        (0..self.num_items()).flat_map(move |li| {
            let item = ItemId::new(self.items.start + li as u32);
            self.rows(li).map(move |r| TripleGroup {
                source: SourceId::new(self.ig_source[r]),
                item,
                value: ValueId::new(self.values(li)[self.ig_slot[r] as usize]),
            })
        })
    }

    /// Whether this frame is a well-formed frame of `chunk` under `meta`'s
    /// id spaces and slot bound: its columns delimit the chunk's items,
    /// rows and cells, every row has a cell, and no id or slot indexes out
    /// of bounds — the check every decoded frame passes before a kernel
    /// reads it.
    pub(crate) fn fits(&self, chunk: &CubeChunk, meta: &ChunkStoreMeta) -> bool {
        let (items, rows, cells) = (self.num_items(), self.num_rows(), self.cell_extractor.len());
        self.items == chunk.items
            && rows == chunk.rows.len()
            && cells == chunk.cells as usize
            && is_csr(&self.item_offsets, items, rows)
            && is_csr(&self.item_value_offsets, items, self.item_values.len())
            && is_csr(&self.cell_offsets, rows, cells)
            && self.cell_offsets.windows(2).all(|w| w[0] < w[1])
            && self.ig_slot.len() == rows
            && self.cell_confidence.len() == cells
            && all_below(&self.ig_source, meta.num_sources)
            && all_below(&self.cell_extractor, meta.num_extractors)
            // Every row's slot names one of its own item's values.
            && (0..items).all(|li| {
                let values = self.item_value_offsets[li + 1] - self.item_value_offsets[li];
                values <= meta.max_item_values && all_below(&self.ig_slot[self.rows(li)], values)
            })
    }
}

/// Where an EM fit's item frames come from — the one seam between the
/// engine and the cube's residency, and the one place that knows how
/// chunk work is scheduled. A round reads the cube through one scan (plus
/// the resident [`ChunkStoreMeta`] skeleton), so the kernels run the same
/// instructions whether a frame is a resident [`ChunkedCube`]'s or a
/// worker's buffer freshly read from a [`FileChunkStore`]
/// ([`StreamedChunks`]).
pub trait ChunkSource: Sync {
    /// The integer skeleton: counts, the item-chunk partition, and the
    /// per-source CSRs.
    fn meta(&self) -> &ChunkStoreMeta;

    /// Scan every item chunk (`meta().item_chunks`): `f(scratch, frame,
    /// out)` once per chunk, where `out` is the chunk's own entry of `out`
    /// (one per chunk), for that chunk's task alone to write. Chunks are
    /// pulled in ascending order by at most `kbt_flume::num_threads()`
    /// workers on [`kbt_flume::run_tasks`], each owning one `scratch` slot
    /// (a single slot makes the scan a serial fold).
    fn scan_items<S: Send, O: Send>(
        &self,
        scratch: &mut [S],
        out: &mut [O],
        f: impl Fn(&mut S, &ChunkBuf, &mut O) + Sync,
    ) -> io::Result<()>;
}

/// `out` (one entry per chunk), each entry behind a lock of its own: the
/// lock only hands the one task that works on the chunk its exclusive
/// borrow across the worker boundary.
fn per_chunk<O>(out: &mut [O], chunks: usize) -> Vec<Mutex<&mut O>> {
    assert_eq!(out.len(), chunks, "one output per item chunk");
    out.iter_mut().map(Mutex::new).collect()
}

/// The resident source: the cube's own frames. Never fails.
impl ChunkSource for ChunkedCube {
    fn meta(&self) -> &ChunkStoreMeta {
        &self.meta
    }

    fn scan_items<S: Send, O: Send>(
        &self,
        scratch: &mut [S],
        out: &mut [O],
        f: impl Fn(&mut S, &ChunkBuf, &mut O) + Sync,
    ) -> io::Result<()> {
        let out = per_chunk(out, self.frames.len());
        kbt_flume::run_tasks(self.frames.len(), scratch, |s, i| {
            let out = &mut out[i].lock().expect("a chunk is scanned once");
            f(s, &self.frames[i], out);
            Ok(())
        })
        .map(drop)
    }
}

/// The streamed [`ChunkSource`]: every scan reads its frames from a
/// [`FileChunkStore`], in order, each worker into its own buffer, which it
/// reuses for the scan's next frame. `max_resident_chunks` caps the
/// decoded frames in memory at once, so a scan runs on at most that many
/// workers (`0` = no cap beyond the thread count); it bounds memory and
/// parallelism and can never change a result. Read, CRC and shape
/// failures surface from the scans as typed errors.
#[derive(Debug)]
pub struct StreamedChunks {
    store: Arc<FileChunkStore>,
    max_resident_chunks: usize,
}

impl StreamedChunks {
    /// Scans of `store` holding at most `max_resident_chunks` decoded
    /// frames at once (`0` = unbounded).
    pub fn new(store: Arc<FileChunkStore>, max_resident_chunks: usize) -> Self {
        Self {
            store,
            max_resident_chunks,
        }
    }
}

impl ChunkSource for StreamedChunks {
    fn meta(&self) -> &ChunkStoreMeta {
        self.store.meta()
    }

    fn scan_items<S: Send, O: Send>(
        &self,
        scratch: &mut [S],
        out: &mut [O],
        f: impl Fn(&mut S, &ChunkBuf, &mut O) + Sync,
    ) -> io::Result<()> {
        let chunks = self.store.num_chunks();
        let out = per_chunk(out, chunks);
        let workers = match self.max_resident_chunks {
            0 => scratch.len(),
            cap => cap.min(scratch.len()),
        };
        let mut slots: Vec<(&mut S, ChunkBuf)> = (scratch.iter_mut().take(workers))
            .map(|s| (s, ChunkBuf::default()))
            .collect();
        kbt_flume::run_tasks(chunks, &mut slots, |(s, buf), i| {
            self.store.load_chunk(i, buf)?;
            f(s, buf, &mut out[i].lock().expect("a chunk is scanned once"));
            Ok(())
        })
        .map(drop)
    }
}

const CHUNK_MAGIC: &[u8; 8] = b"KBTCHNK5";

fn put_u32_slice(buf: &mut Vec<u8>, xs: &[u32]) {
    wire::put_column(buf, xs, u32::to_le_bytes);
}

fn read_u32_vec(r: &mut WireReader<'_>, out: &mut Vec<u32>) -> Result<(), WireError> {
    r.column(out, u32::from_le_bytes)
}

/// The bytes passed every [`wire`] check but do not describe a cube.
fn malformed(what: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.into())
}

/// Whether `offsets` delimits `rows` rows over `len` entries: `rows + 1`
/// long, from 0 to `len`, never decreasing.
fn is_csr(offsets: &[u32], rows: usize, len: usize) -> bool {
    offsets.len() == rows + 1
        && offsets[0] == 0
        && offsets[rows] as usize == len
        && offsets.is_sorted()
}

fn all_below(ids: &[u32], bound: u32) -> bool {
    ids.iter().all(|&id| id < bound)
}

/// Whether `ranges` tile `0..end` in order.
fn tiles<'a>(mut ranges: impl Iterator<Item = &'a Range<u32>>, end: u32) -> bool {
    let mut next = 0;
    ranges.all(|r| r.start == std::mem::replace(&mut next, r.end) && r.start <= r.end)
        && next == end
}

/// The integer skeleton of a chunk store — everything a streamed fit
/// keeps resident besides its O(groups) row state. Holds the counts, the
/// item-chunk partition, and the per-source CSRs the M-steps, the gamma
/// estimate, and the vote tables need, so no EM stage has to touch a cell
/// payload except through the streamed frames.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkStoreMeta {
    /// Number of groups in the stored cube.
    pub num_groups: u32,
    /// Number of cells.
    pub num_cells: u32,
    /// Number of items in the dense id space.
    pub num_items: u32,
    /// Number of sources in the dense id space.
    pub num_sources: u32,
    /// Number of extractors in the dense id space.
    pub num_extractors: u32,
    /// Number of values in the dense id space.
    pub num_values: u32,
    /// Largest per-item distinct-value count (slot-accumulator size).
    pub max_item_values: u32,
    /// The item-aligned chunk partition (one item frame per entry).
    pub item_chunks: Vec<CubeChunk>,
    /// Number of groups of each source (length `num_sources`).
    pub source_sizes: Vec<u32>,
    /// Distinct items claimed by each source (length `num_sources`) —
    /// the gamma estimate's slot count, precomputed so streamed fits
    /// never need a pass over the rows for it.
    pub source_item_counts: Vec<u32>,
    /// CSR offsets into `source_ext_ids` (length `num_sources + 1`).
    pub source_ext_offsets: Vec<u32>,
    /// Sorted distinct extractor ids observing each source — the
    /// scoped vote-table rebuild's input, matching
    /// `ObservationCube::extractors_on_source` order.
    pub source_ext_ids: Vec<u32>,
}

impl ChunkStoreMeta {
    fn encode(&self, p: &mut Vec<u8>) {
        for x in [
            self.num_groups,
            self.num_cells,
            self.num_items,
            self.num_sources,
            self.num_extractors,
            self.num_values,
            self.max_item_values,
        ] {
            wire::put_u32(p, x);
        }
        wire::put_seq(p, &self.item_chunks, |p, c| {
            for x in [
                c.items.start,
                c.items.end,
                c.rows.start,
                c.rows.end,
                c.cells,
            ] {
                wire::put_u32(p, x);
            }
        });
        put_u32_slice(p, &self.source_sizes);
        put_u32_slice(p, &self.source_item_counts);
        put_u32_slice(p, &self.source_ext_offsets);
        put_u32_slice(p, &self.source_ext_ids);
    }

    fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut r = WireReader::new(payload);
        let column = |r: &mut WireReader<'_>| {
            let mut column = Vec::new();
            read_u32_vec(r, &mut column).map(|()| column)
        };
        // The fields in the order they were written.
        let meta = Self {
            num_groups: r.u32()?,
            num_cells: r.u32()?,
            num_items: r.u32()?,
            num_sources: r.u32()?,
            num_extractors: r.u32()?,
            num_values: r.u32()?,
            max_item_values: r.u32()?,
            item_chunks: r.seq::<_, WireError>(20, |r| {
                Ok(CubeChunk {
                    items: r.u32()?..r.u32()?,
                    rows: r.u32()?..r.u32()?,
                    cells: r.u32()?,
                })
            })?,
            source_sizes: column(&mut r)?,
            source_item_counts: column(&mut r)?,
            source_ext_offsets: column(&mut r)?,
            source_ext_ids: column(&mut r)?,
        };
        r.finish()?;
        let (m, ns) = (&meta, meta.num_sources as usize);
        let sized: u64 = m.source_sizes.iter().map(|&n| u64::from(n)).sum();
        let meta_ok = m.source_sizes.len() == ns
            && sized == u64::from(m.num_groups)
            && m.source_item_counts.len() == ns
            && is_csr(&m.source_ext_offsets, ns, m.source_ext_ids.len())
            && all_below(&m.source_ext_ids, m.num_extractors)
            && tiles(m.item_chunks.iter().map(|c| &c.items), m.num_items)
            && tiles(m.item_chunks.iter().map(|c| &c.rows), m.num_groups);
        if !meta_ok {
            return Err(malformed("meta frame: inconsistent CSR shapes"));
        }
        Ok(meta)
    }
}

/// Write one [`wire`] frame whose payload `body` builds, at `*pos` of
/// `w`; returns the payload's byte offset and length — its index entry.
/// `frame` is the one buffer every frame of a file is built in.
fn emit_frame(
    w: &mut impl io::Write,
    pos: &mut u64,
    frame: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>),
) -> io::Result<(u64, u32)> {
    frame.clear();
    wire::put_frame(frame, body);
    w.write_all(frame)?;
    let entry = (*pos + 4, (frame.len() - 8) as u32);
    *pos += frame.len() as u64;
    Ok(entry)
}

/// Disk-backed chunk payloads: the `KBTCHNK5` format described in the
/// module docs — magic, meta frame, item frames (one per [`CubeChunk`]),
/// an index frame, and a trailing 8-byte index offset. Every load
/// re-verifies its frame's CRC, so a corrupted chunk surfaces as an
/// [`io::Error`] instead of silently wrong EM input.
/// [`FileChunkStore::open`] reads only the tail, the index, and the meta
/// frame — peak memory for opening a store is O(metadata), never
/// O(corpus).
#[derive(Debug)]
pub struct FileChunkStore {
    /// The one handle every load reads through (positioned reads).
    file: fs::File,
    /// Where the frames end (the trailing index offset starts here): no
    /// index entry can make a load read past it.
    limit: u64,
    meta: ChunkStoreMeta,
    /// Byte offset + length of each item frame's payload.
    item_frames: Vec<(u64, u32)>,
    /// Frames read by [`Self::load_chunk`].
    frames_read: AtomicU64,
}

impl FileChunkStore {
    /// Serialize every item chunk of `cube` to `path` (truncating),
    /// streaming through a [`io::BufWriter`] so peak write memory is one
    /// frame, not the whole file.
    pub fn write(cube: &ChunkedCube, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(fs::File::create(path)?);
        w.write_all(CHUNK_MAGIC)?;
        let mut pos = CHUNK_MAGIC.len() as u64;
        let mut frame = Vec::new();

        emit_frame(&mut w, &mut pos, &mut frame, |p| cube.meta.encode(p))?;

        let mut item_frames = Vec::with_capacity(cube.frames.len());
        for chunk in &cube.frames {
            item_frames.push(emit_frame(&mut w, &mut pos, &mut frame, |p| {
                chunk.encode(p)
            })?);
        }

        let index_pos = pos;
        emit_frame(&mut w, &mut pos, &mut frame, |p| {
            wire::put_seq(p, &item_frames, |p, &(off, len)| {
                wire::put_u64(p, off);
                wire::put_u32(p, len);
            });
        })?;
        w.write_all(&index_pos.to_le_bytes())?;
        w.flush()
    }

    /// Open a chunk file written by [`Self::write`]: verify the magic,
    /// follow the trailing offset to the index frame, and decode the meta
    /// frame. Reads O(metadata) bytes regardless of corpus size.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = fs::File::open(path)?;
        let limit = (file.metadata()?.len().checked_sub(8))
            .filter(|&limit| limit >= 8)
            .ok_or(WireError::Truncated)?;
        let mut word = [0u8; 8];
        file.read_exact_at(&mut word, 0)?;
        WireReader::new(&word).magic(CHUNK_MAGIC)?;
        file.read_exact_at(&mut word, limit)?;
        let index_pos = u64::from_le_bytes(word);
        if index_pos < 8 {
            return Err(malformed("index offset out of bounds"));
        }
        let index = wire::read_prefixed_frame_at(&file, index_pos, limit)?;
        let mut r = WireReader::new(&index);
        let item_frames = r.seq(12, |r| Ok::<_, WireError>((r.u64()?, r.u32()?)))?;
        r.finish()?;
        for &(off, len) in &item_frames {
            if off < 12 {
                return Err(malformed("frame entry out of bounds"));
            }
            wire::frame_fits(off, len, limit)?;
        }
        let meta = ChunkStoreMeta::decode(&wire::read_prefixed_frame_at(&file, 8, limit)?)?;
        if meta.item_chunks.len() != item_frames.len() {
            return Err(malformed("frame table / meta count mismatch"));
        }
        Ok(Self {
            file,
            limit,
            meta,
            item_frames,
            frames_read: AtomicU64::new(0),
        })
    }

    /// The store's resident metadata.
    pub fn meta(&self) -> &ChunkStoreMeta {
        &self.meta
    }

    /// Number of item frames (one per [`CubeChunk`]).
    pub fn num_chunks(&self) -> usize {
        self.item_frames.len()
    }

    /// Item frames read from the file since it was opened: a streamed fit
    /// reads each frame once per round, so this is exact.
    pub fn frames_read(&self) -> u64 {
        // ordering: Relaxed — a count for reporting; it orders no memory.
        self.frames_read.load(Ordering::Relaxed)
    }

    /// Load item frame `idx` into `buf` (cleared first, capacity
    /// reused), CRC-verifying the frame and checking its shape against
    /// the skeleton: a frame that loads indexes nothing out of bounds.
    pub fn load_chunk(&self, idx: usize, buf: &mut ChunkBuf) -> io::Result<()> {
        // ordering: Relaxed — a monotonic count for reporting; it publishes no memory.
        self.frames_read.fetch_add(1, Ordering::Relaxed);
        let (off, len) = self.item_frames[idx];
        let payload = wire::read_frame_at(&self.file, off, len, self.limit)
            .map_err(|e| io::Error::new(e.kind(), format!("chunk {idx}: {e}")))?;
        let mut r = WireReader::new(&payload);
        (buf.read(&mut r).and_then(|()| r.finish()))
            .map_err(|e| malformed(format!("chunk {idx}: {e}")))?;
        if !buf.fits(&self.meta.item_chunks[idx], &self.meta) {
            return Err(malformed(format!("chunk {idx}: malformed payload")));
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cube::{CubeBuilder, ObservationCube, TripleGroup};
    use crate::ids::{ExtractorId, ItemId, SourceId, ValueId};
    use crate::triple::Observation;

    fn obs(e: u32, w: u32, d: u32, v: u32, c: f64) -> Observation {
        Observation {
            extractor: ExtractorId::new(e),
            source: SourceId::new(w),
            item: ItemId::new(d),
            value: ValueId::new(v),
            confidence: c,
        }
    }

    fn sample_cube() -> ObservationCube {
        let mut b = CubeBuilder::new();
        for w in 0..6u32 {
            for d in 0..9u32 {
                for e in 0..(1 + (w + d) % 3) {
                    b.push(obs(e, w, d, (w + d) % 4, 0.3 + 0.1 * e as f64));
                }
            }
        }
        b.build()
    }

    /// A frame with its confidences as bits, so `==` is bitwise.
    pub(crate) fn bits(frame: &ChunkBuf) -> (ChunkBuf, Vec<u64>) {
        let mut frame = frame.clone();
        let conf = std::mem::take(&mut frame.cell_confidence);
        (frame, conf.iter().map(|c| c.to_bits()).collect())
    }

    /// Every row of `cc` in order: its key and cells (confidences as
    /// bits), read off the frames.
    pub(crate) fn rows(cc: &ChunkedCube) -> Vec<(TripleGroup, Vec<(u32, u64)>)> {
        let rows = cc.frames.iter().flat_map(|f| {
            f.keys().enumerate().map(|(r, key)| {
                let cells = f
                    .cells(r)
                    .map(|k| (f.cell_extractor[k], f.cell_confidence[k].to_bits()));
                (key, cells.collect())
            })
        });
        rows.collect()
    }

    /// A re-cut is a faithful split of the cube: the same rows, with their
    /// cells, in cube order, and the cube's counts and per-source columns.
    fn assert_matches_cube(cc: &ChunkedCube, cube: &ObservationCube) {
        let unsplit = |m: &ChunkStoreMeta| ChunkStoreMeta {
            item_chunks: Vec::new(),
            ..m.clone()
        };
        assert_eq!(unsplit(&cc.meta), unsplit(&cube.chunked().meta));
        assert_eq!(rows(cc), rows(cube.chunked()));
        let keys = rows(cc).into_iter().map(|(key, _)| key);
        assert!(keys.eq(cube.groups().iter().copied()));
    }

    /// The chunks tile the items, rows and cells in order, each frame
    /// holding its chunk's items, rows and cells, as a build writes them:
    /// a checkpoint's decode derives this very partition from the frames.
    fn assert_chunks_tile(cc: &ChunkedCube) {
        let meta = &cc.meta;
        let partition = ChunkedCube::partition_of(&cc.frames, meta);
        assert_eq!(partition.as_ref(), Some(&meta.item_chunks));
        assert_eq!(
            meta.item_chunks.last().map_or(0, |c| c.rows.end),
            meta.num_groups
        );
        let cells: u64 = meta.item_chunks.iter().map(|c| u64::from(c.cells)).sum();
        assert_eq!(cells, u64::from(meta.num_cells));
    }

    #[test]
    fn columns_match_cube_at_several_chunk_sizes() {
        let cube = sample_cube();
        for target in [1usize, 7, 64, 1 << 20] {
            let cc = ChunkedCube::from_cube(
                &cube,
                &ChunkingConfig {
                    target_cells: target,
                },
            );
            assert_matches_cube(&cc, &cube);
            assert_chunks_tile(&cc);
        }
    }

    /// A cube big enough for the parallel gather (≥ 2^15 groups) chunks
    /// to the same bytes whatever worker count the `kbt_flume` policy
    /// grants.
    #[test]
    fn large_cube_chunks_identically_at_any_thread_count() {
        let mut b = CubeBuilder::new();
        let mut x = 0x9e37_79b9u32;
        for i in 0..48_000u32 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let conf = f64::from(x >> 8) / f64::from(1u32 << 24);
            b.push(obs(x % 5, (x >> 3) % 900, i % 9_000, (x >> 13) % 4, conf));
        }
        let cube = b.build();
        assert!(cube.num_groups() >= 1 << 15, "{} groups", cube.num_groups());
        let cfg = ChunkingConfig {
            target_cells: 1_000,
        };
        let chunk_at = |n| kbt_flume::with_threads(Some(n), || ChunkedCube::from_cube(&cube, &cfg));
        let serial = chunk_at(1);
        assert_matches_cube(&serial, &cube);
        assert_chunks_tile(&serial);
        for threads in [2, 8] {
            // Every column, the chunk partition and the scratch bounds.
            assert!(chunk_at(threads) == serial, "{threads} threads");
        }
    }

    #[test]
    fn recut_survives_delta_and_retract() {
        let cube = sample_cube();
        let grown = cube.apply_delta(&[obs(7, 9, 12, 5, 0.9), obs(0, 0, 0, 3, 0.2)]);
        let cc = ChunkedCube::from_cube(&grown, &ChunkingConfig { target_cells: 16 });
        assert_matches_cube(&cc, &grown);
        assert_chunks_tile(&cc);

        let shrunk = grown.retract(&[(SourceId::new(0), ItemId::new(0), ValueId::new(0))]);
        let cc = ChunkedCube::from_cube(&shrunk, &ChunkingConfig { target_cells: 16 });
        assert_matches_cube(&cc, &shrunk);
        assert_chunks_tile(&cc);
    }

    #[test]
    fn empty_cube_has_no_chunks() {
        let cc = ChunkedCube::from_cube(&CubeBuilder::new().build(), &ChunkingConfig::default());
        assert!(cc.frames.is_empty());
        assert_eq!(cc.meta.num_groups, 0);
        assert_chunks_tile(&cc);
    }

    #[test]
    fn meta_frames_tile_and_match_cube() {
        let cube = sample_cube();
        let cc = ChunkedCube::from_cube(&cube, &ChunkingConfig { target_cells: 8 });
        let meta = &cc.meta;
        assert_eq!(meta.num_groups as usize, cube.num_groups());
        assert_eq!(meta.num_cells as usize, cube.num_cells());
        assert!(meta.item_chunks.len() > 1, "want multiple item frames");
        assert_chunks_tile(&cc);
        let most_values =
            (0..cube.num_items()).map(|d| cube.observed_values(ItemId::new(d as u32)).len());
        assert_eq!(meta.max_item_values as usize, most_values.max().unwrap());
        // Per-source extractor lists match the cube's.
        for w in 0..cube.num_sources() {
            let lo = meta.source_ext_offsets[w] as usize;
            let hi = meta.source_ext_offsets[w + 1] as usize;
            let expect: Vec<u32> = cube
                .extractors_on_source(SourceId::new(w as u32))
                .map(|e| e.0)
                .collect();
            assert_eq!(
                &meta.source_ext_ids[lo..hi],
                expect.as_slice(),
                "source {w}"
            );
        }
        // Sizes and distinct-item counts, recounted from the groups (a
        // source's items ascend with them).
        for w in 0..cube.num_sources() {
            let mut items: Vec<ItemId> = (cube.groups().iter())
                .filter(|g| g.source.index() == w)
                .map(|g| g.item)
                .collect();
            assert_eq!(meta.source_sizes[w] as usize, items.len());
            items.dedup();
            assert_eq!(meta.source_item_counts[w] as usize, items.len());
        }
    }

    /// The resident form is the stored form: a store written from a
    /// chunked cube opens to the cube's meta frame, and each of its item
    /// frames loads to the cube's frame — at one-item, small and
    /// whole-cube chunks, on a built cube and its `apply_delta` and
    /// `retract` descendants.
    #[test]
    fn file_store_round_trips_every_chunk() {
        let cube = sample_cube();
        let grown = cube.apply_delta(&[obs(7, 9, 12, 5, 0.9), obs(0, 0, 0, 3, 0.2)]);
        let shrunk = grown.retract(&[
            (SourceId::new(0), ItemId::new(0), ValueId::new(0)),
            (SourceId::new(2), ItemId::new(4), ValueId::new(2)),
        ]);
        assert!(shrunk.num_groups() < grown.num_groups());
        let path = std::env::temp_dir().join(format!("kbt_chunk_store_{}.kbt", std::process::id()));
        for (tag, cube) in [("built", &cube), ("grown", &grown), ("shrunk", &shrunk)] {
            for target_cells in [1usize, 8, 1 << 20] {
                let cc = ChunkedCube::from_cube(cube, &ChunkingConfig { target_cells });
                let tag = format!("{tag} t={target_cells}");
                FileChunkStore::write(&cc, &path).unwrap();
                let store = FileChunkStore::open(&path).unwrap();
                assert_eq!(store.meta(), &cc.meta, "{tag}");
                assert_eq!(store.num_chunks(), cc.frames.len(), "{tag}");
                let mut disk = ChunkBuf::default();
                for (i, frame) in cc.frames.iter().enumerate() {
                    store.load_chunk(i, &mut disk).unwrap();
                    assert_eq!(bits(&disk), bits(frame), "{tag} frame {i}");
                }
            }
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_store_detects_corruption() {
        let cube = sample_cube();
        let cc = ChunkedCube::from_cube(&cube, &ChunkingConfig { target_cells: 8 });
        let dir = std::env::temp_dir().join("kbt_chunk_store_corrupt");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chunks.kbt");
        FileChunkStore::write(&cc, &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        // The flip lands in some frame's payload (or its CRC): opening or
        // loading must surface at least one error, never bad data.
        match FileChunkStore::open(&path) {
            Err(_) => {}
            Ok(store) => {
                let mut buf = ChunkBuf::default();
                let any_err =
                    (0..store.num_chunks()).any(|idx| store.load_chunk(idx, &mut buf).is_err());
                assert!(any_err, "corruption must not pass CRC");

                // The same through a scan on two workers: the load error
                // comes back out as the scan's error, and nobody hangs on
                // the failed frame.
                let src = StreamedChunks::new(Arc::new(store), 2);
                let mut out = vec![(); src.meta().item_chunks.len()];
                let scanned = kbt_flume::with_threads(Some(2), || {
                    src.scan_items(&mut [(); 2], &mut out, |_, _, _| ())
                });
                assert!(
                    scanned.is_err(),
                    "corruption must not pass CRC through a scan"
                );
            }
        }
        fs::remove_file(&path).unwrap();
    }

    /// The `KBTCHNK5` bytes, pinned (length and FNV-1a): any change to
    /// the encoder is a format change. (`KBTCHNK3`, with a group-id column
    /// per row and per-source group offsets, was 3,480 bytes,
    /// `0x706b5d9f62302f31`. `KBTCHNK4` was 4 bytes longer, 3,224 bytes,
    /// `0x2d3b_9f78_5ab3_db52`: its meta frame also recorded the most rows
    /// of any chunk, `max_chunk_rows`, which nothing read.)
    #[test]
    fn file_store_bytes_are_golden() {
        let cc = ChunkedCube::from_cube(&sample_cube(), &ChunkingConfig { target_cells: 8 });
        let path = std::env::temp_dir().join("kbt_chunk_store_golden.kbt");
        FileChunkStore::write(&cc, &path).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(bytes.len(), 3220);
        assert_eq!(fnv, 0x2cbc_b003_19d7_8425);
        assert_eq!(&bytes[..8], b"KBTCHNK5");
    }

    /// A CRC-valid index frame whose first entry points at
    /// `u64::MAX - 1`: the bounds check must not overflow its way past
    /// (it panicked in debug builds and wrapped in release ones).
    #[test]
    fn hostile_index_offsets_are_rejected_at_open() {
        let cc = ChunkedCube::from_cube(&sample_cube(), &ChunkingConfig { target_cells: 8 });
        let path = std::env::temp_dir().join("kbt_chunk_store_hostile_index.kbt");
        FileChunkStore::write(&cc, &path).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let tail = bytes.len() - 8;
        let index_pos = u64::from_le_bytes(bytes[tail..].try_into().unwrap()) as usize;
        let payload = index_pos + 4..tail - 4;
        for off in [u64::MAX - 1, u64::MAX - 11, tail as u64, 11] {
            bytes[payload.start + 4..payload.start + 12].copy_from_slice(&off.to_le_bytes());
            let crc = wire::crc32(&bytes[payload.clone()]);
            bytes[payload.end..tail].copy_from_slice(&crc.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            let err = FileChunkStore::open(&path).expect_err("hostile offset must not open");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "offset {off:#x}");
        }
        fs::remove_file(&path).unwrap();
    }

    /// A frame that passes its CRC but does not fit the skeleton is a
    /// typed error at load, not an out-of-bounds index in a kernel: one
    /// `u32` of one frame's payload patched at a time (word `at`, counted
    /// from the payload's start) and the CRC re-sealed.
    #[test]
    fn checksummed_but_malformed_frames_are_refused_at_load() {
        let cc = ChunkedCube::from_cube(&sample_cube(), &ChunkingConfig { target_cells: 24 });
        let path = std::env::temp_dir().join("kbt_chunk_store_malformed.kbt");
        FileChunkStore::write(&cc, &path).unwrap();
        let clean = fs::read(&path).unwrap();
        let store = FileChunkStore::open(&path).unwrap();
        let mut chunk = ChunkBuf::default();
        store.load_chunk(1, &mut chunk).unwrap();
        let (items, rows) = (chunk.items.len() as u32, chunk.ig_source.len() as u32);
        let cells = chunk.cell_extractor.len() as u32;
        assert!(items >= 2 && rows >= 3 && cells >= 2, "patches need room");
        // Word index of each column's count: after the two range words.
        let columns = [
            items + 1,
            items + 1,
            chunk.item_values.len() as u32,
            rows,
            rows,
            rows + 1,
        ];
        let mut col = vec![2u32];
        for len in columns {
            col.push(col.last().unwrap() + 1 + len);
        }
        let meta = store.meta();
        let patches = [
            ("item range", 1, chunk.items.end + 1),
            ("item_offsets shorter", col[0], items),
            ("item_offsets start", col[0] + 1, 1),
            ("item_offsets order", col[0] + 2, u32::MAX),
            ("item_offsets end", col[0] + 1 + items, rows + 1),
            ("value offsets end", col[1] + 1 + items, 0),
            ("ig_source", col[3] + 1, meta.num_sources),
            ("ig_slot", col[4] + 1, meta.max_item_values),
            ("cell_offsets start", col[5] + 1, 1),
            ("cell_offsets order", col[5] + 2, u32::MAX),
            // Row 0 cell-less, its cells handed to row 1: no cube holds one.
            ("cell-less row", col[5] + 2, 0),
            ("cell_offsets end", col[5] + 1 + rows, cells + 1),
            ("cell_extractor", col[6] + 1, meta.num_extractors),
        ];
        let (off, len) = store.item_frames[1];
        for (what, at, value) in patches {
            let mut bytes = clean.clone();
            let payload = off as usize..off as usize + len as usize;
            let word = payload.start + 4 * at as usize;
            bytes[word..word + 4].copy_from_slice(&value.to_le_bytes());
            let crc = wire::crc32(&bytes[payload.clone()]);
            bytes[payload.end..payload.end + 4].copy_from_slice(&crc.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            let store = FileChunkStore::open(&path).expect("meta and index are intact");
            let err = store.load_chunk(1, &mut chunk).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(
                err.to_string().contains(" 1: "),
                "{what} names its frame: {err}"
            );
            // Every other frame still loads, and a scan reports the bad one.
            let src = StreamedChunks::new(Arc::new(store), 2);
            let mut out = vec![(); src.meta().item_chunks.len()];
            let scanned = kbt_flume::with_threads(Some(2), || {
                src.scan_items(&mut [(); 2], &mut out, |_, _, _| ())
            });
            let err = scanned.expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
        }
        fs::remove_file(&path).unwrap();
    }

    /// `max_resident_chunks` caps a streamed scan's workers, one decoded
    /// frame each: at cap 1 every frame runs on the calling thread, at cap
    /// `k` on at most `min(k, threads)` threads; every scan reads each
    /// frame once, and hands each chunk its own output.
    #[test]
    fn the_cap_bounds_a_streamed_scans_workers() {
        use std::collections::HashSet;
        use std::thread::{self, ThreadId};
        let cc = ChunkedCube::from_cube(&sample_cube(), &ChunkingConfig { target_cells: 4 });
        let path = std::env::temp_dir().join("kbt_chunk_store_cap.kbt");
        FileChunkStore::write(&cc, &path).unwrap();
        let store = Arc::new(FileChunkStore::open(&path).unwrap());
        fs::remove_file(&path).unwrap();
        let frames = store.num_chunks();
        assert!(frames > 4);
        let me = thread::current().id();
        for cap in [1usize, 2, 3, 4, 8, 0] {
            let src = StreamedChunks::new(Arc::clone(&store), cap);
            let before = store.frames_read();
            let mut ran: Vec<Option<(ThreadId, Range<u32>)>> = vec![None; frames];
            kbt_flume::with_threads(Some(4), || {
                src.scan_items(&mut [(); 8], &mut ran, |_, frame, out| {
                    *out = Some((thread::current().id(), frame.items.clone()));
                })
            })
            .unwrap();
            assert_eq!(store.frames_read() - before, frames as u64, "cap {cap}");
            let ran: Vec<_> = ran
                .into_iter()
                .map(|r| r.expect("every chunk ran"))
                .collect();
            for ((_, items), chunk) in ran.iter().zip(&cc.meta.item_chunks) {
                assert_eq!(*items, chunk.items, "chunk {cap}: its own output");
            }
            let bound = if cap == 0 { 4 } else { cap.min(4) };
            if cap == 1 {
                assert!(ran.iter().all(|&(id, _)| id == me), "cap 1 left the caller");
            }
            let distinct = ran.iter().map(|(id, _)| id).collect::<HashSet<_>>().len();
            assert!(distinct <= bound, "cap {cap}: {distinct} threads");
        }
    }
}
