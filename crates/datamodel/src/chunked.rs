//! Columnar (SoA) chunked view of the observation cube — the layout the
//! EM hot loops stream at 10M-triple scale.
//!
//! [`ObservationCube`] stores groups and cells as arrays of structs; the
//! inference loops chase `Range` fields and branch per group. At millions
//! of triples that layout leaves throughput on the table: the E-step wants
//! to stream *columns* (`source[]`, `value[]`, `confidence[]`, …) with a
//! fixed reduction order so rustc can keep the loop bodies branch-free and
//! auto-vectorize the float accumulations.
//!
//! [`ChunkedCube`] is that view. It is **derived** from an
//! [`ObservationCube`] (the cube stays the system of record — deltas and
//! retractions still go through [`ObservationCube::apply_delta`] /
//! [`ObservationCube::retract`], and the columnar view is rebuilt from the
//! result), and it is **row-equivalent by construction**: the cube's
//! groups are item-major already, so row `g` is group `g`, with its cells
//! in the cube's cell order, and building the view is one sequential
//! split into columns — a kernel that walks a row's cells, or an item's
//! rows, performs bit-for-bit the same float operations as one walking
//! the cube, and a fit's per-row outputs are the report's per-group ones.
//! The `columnar_cube` proptests pin that equivalence down through build,
//! `apply_delta`, and `retract`.
//!
//! The rows are partitioned into fixed-size, **item-aligned chunks**
//! ([`CubeChunk`]) of roughly [`ChunkingConfig::target_cells`] cells: a
//! chunk carries everything an EM round computes for its rows —
//! correctness from its cells, the value posteriors of its items — so a
//! round is one scan that hands whole chunks to its workers
//! ([`ChunkSource::scan_items`]). Because chunks never split an item,
//! per-item reductions stay local to one worker.
//!
//! # Chunk sources
//!
//! An EM fit reads the cube only through a [`ChunkSource`]: one scan over
//! the item-major [`ItemView`]s — the one place that decides how chunk
//! work is scheduled — and the resident integer skeleton
//! ([`ChunkStoreMeta`]). [`ResidentChunks`] serves zero-copy slices of a
//! [`ChunkedCube`]; [`StreamedChunks`] has each scan worker read a
//! [`FileChunkStore`]'s frames into its own [`ChunkBuf`], so the resident
//! set is one buffer per worker instead of the whole corpus. The v4 file
//! format (`KBTCHNK4`) is the magic followed by three families of
//! [`wire`] frames (the frame, sequence and column contracts are stated
//! once, in that module's docs):
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

use crate::cube::ObservationCube;
use crate::ids::{ItemId, SourceId};
use crate::wire::{self, WireError, WireReader};

/// How the columnar cube is partitioned into chunks.
#[derive(Debug, Clone)]
pub struct ChunkingConfig {
    /// Soft target for the number of cube cells per chunk. A chunk closes
    /// at the first **item boundary** at or past this many cells (items
    /// are never split across chunks, so a single very wide item can
    /// exceed the target). Smaller chunks = finer load balancing and a
    /// smaller per-worker working set; larger chunks = less scheduling
    /// overhead. The default (64 Ki cells ≈ 1 MiB of confidence + id
    /// columns) keeps a chunk's hot data inside the L2 cache of
    /// contemporary cores.
    pub target_cells: usize,
}

impl Default for ChunkingConfig {
    fn default() -> Self {
        Self {
            target_cells: 64 * 1024,
        }
    }
}

/// One item-aligned chunk of the columnar cube: a contiguous range of
/// items, the contiguous range of item-major rows they own, and the cell
/// mass inside — the weight the scheduler balances on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeChunk {
    /// Dense item-id range `[start, end)` the chunk covers.
    pub items: Range<u32>,
    /// The chunk's rows in the item-major (`ig_*`) columns:
    /// `item_offsets[items.start]..item_offsets[items.end]`.
    pub rows: Range<u32>,
    /// Number of cube cells inside the chunk's rows.
    pub cells: u32,
}

/// Columnar (structure-of-arrays) chunked view of an [`ObservationCube`].
///
/// One row per group, in the cube's (item-major) group order: row `g` is
/// group `g`, and the rows of item `d` are delimited by `item_offsets`.
/// Per row, `ig_source` / `ig_slot` and a cell range (`cell_offsets`) over
/// the cell columns, which hold the cube's cells in the cube's order.
/// `ig_slot` pre-resolves each group's value to its index in the item's
/// sorted distinct-value list so the hot loop does no searching.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedCube {
    /// Item-major row ranges: item `d` owns rows
    /// `item_offsets[d]..item_offsets[d+1]` (length `num_items + 1`).
    pub item_offsets: Vec<u32>,
    /// Source id of each row.
    pub ig_source: Vec<u32>,
    /// Slot of the row's value inside the item's sorted distinct-value
    /// list (`item_values_of`).
    pub ig_slot: Vec<u32>,
    /// Cell range of row `r`: `cell_offsets[r]..cell_offsets[r+1]`
    /// (length `num_groups + 1`). A row without cells (left by a
    /// retraction) claims but never votes.
    pub cell_offsets: Vec<u32>,
    /// Extractor id of each cell, rows in row order.
    pub cell_extractor: Vec<u32>,
    /// Extraction confidence of each cell.
    pub cell_confidence: Vec<f64>,

    /// CSR offsets of the per-item sorted distinct values
    /// (length `num_items + 1`).
    pub item_value_offsets: Vec<u32>,
    /// Flat per-item sorted distinct value ids.
    pub item_values: Vec<u32>,

    /// Number of groups of each source (length `num_sources`).
    pub source_sizes: Vec<u32>,

    /// CSR offsets into `source_ext_ids` (length `num_sources + 1`).
    pub source_ext_offsets: Vec<u32>,
    /// Sorted distinct extractor ids observing each source, as the row
    /// cube's `extractors_on_source` lists them.
    pub source_ext_ids: Vec<u32>,

    /// The item-aligned chunk partition.
    pub chunks: Vec<CubeChunk>,
    /// Largest per-item distinct-value count — the slot-accumulator size
    /// a value-layer scratch needs.
    pub max_item_values: usize,
    /// Most rows in any single chunk — sizes per-worker row scratch.
    pub max_chunk_rows: usize,

    num_sources: u32,
    num_extractors: u32,
    num_values: u32,
}

impl ChunkedCube {
    /// Split `cube` into columns, partitioned per `cfg`.
    ///
    /// Pure copy: no recomputation — the cube's groups are already the
    /// rows in order and its cells the cell columns, so one sequential
    /// walk per window of items fills every column, which is what makes
    /// columnar EM kernels bit-for-bit equal to the row-major ones.
    pub fn from_cube(cube: &ObservationCube, cfg: &ChunkingConfig) -> Self {
        let (ng, nc) = (cube.num_groups(), cube.num_cells());
        let ni = cube.num_items();
        let ns = cube.num_sources();
        let groups = cube.groups();

        // The windows write positions fixed by the item offsets, so they
        // parallelize over disjoint output windows without changing a
        // single byte of the result: every value and every position is
        // independent of the part count. Small cubes (unit tests, serving
        // deltas) stay in one part, which runs inline.
        let parts = if ng >= (1 << 15) {
            kbt_flume::num_threads()
        } else {
            1
        };
        fn carve<'a, T>(column: &mut &'a mut [T], len: usize) -> &'a mut [T] {
            column.split_off_mut(..len).expect("window in bounds")
        }

        let item_offsets = cube.item_offsets().to_vec();
        let (item_value_offsets, item_values) = cube.item_values();
        let item_value_offsets = item_value_offsets.to_vec();
        let item_values: Vec<u32> = item_values.iter().map(|v| v.0).collect();
        let max_item_values = item_value_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);

        // Per row its source, slot and cell end; per cell its columns. The
        // cube's cells follow its groups, so row `r`'s cells end where
        // group `r`'s do.
        let mut ig_source = vec![0u32; ng];
        let mut ig_slot = vec![0u32; ng];
        let mut cell_offsets = vec![0u32; ng + 1];
        let mut cell_extractor = vec![0u32; nc];
        let mut cell_confidence = vec![0.0f64; nc];
        struct Window<'a> {
            items: Range<usize>,
            cells: Range<usize>,
            source: &'a mut [u32],
            slot: &'a mut [u32],
            ends: &'a mut [u32],
            extractor: &'a mut [u32],
            confidence: &'a mut [f64],
        }
        let cell_at = |r: usize| groups.get(r).map_or(nc, |g| g.cell_range().start);
        let mut windows = Vec::with_capacity(parts);
        let (mut igs, mut igl) = (ig_source.as_mut_slice(), ig_slot.as_mut_slice());
        let mut ends = &mut cell_offsets[1..];
        let (mut ce, mut cf) = (
            cell_extractor.as_mut_slice(),
            cell_confidence.as_mut_slice(),
        );
        for t in 0..parts {
            let items = ni * t / parts..ni * (t + 1) / parts;
            let rows = item_offsets[items.start] as usize..item_offsets[items.end] as usize;
            let cells = cell_at(rows.start)..cell_at(rows.end);
            windows.push(Window {
                source: carve(&mut igs, rows.len()),
                slot: carve(&mut igl, rows.len()),
                ends: carve(&mut ends, rows.len()),
                extractor: carve(&mut ce, cells.len()),
                confidence: carve(&mut cf, cells.len()),
                items,
                cells,
            });
        }
        let fill = |w: &mut Window<'_>| {
            let base = item_offsets[w.items.start] as usize;
            for d in w.items.clone() {
                let id = ItemId::new(d as u32);
                let vals = cube.observed_values(id);
                for r in cube.groups_of_item(id) {
                    let grp = &groups[r];
                    let slot = vals
                        .binary_search(&grp.value)
                        .expect("group value is an observed value of its item");
                    w.source[r - base] = grp.source.0;
                    w.slot[r - base] = slot as u32;
                    w.ends[r - base] = grp.cell_range().end as u32;
                }
            }
            let out = w.extractor.iter_mut().zip(w.confidence.iter_mut());
            for (c, (e, f)) in cube.cells[w.cells.clone()].iter().zip(out) {
                (*e, *f) = (c.extractor.0, c.confidence);
            }
        };
        // One window per worker (`parts` is the worker count, or 1).
        kbt_flume::par_ranges_mut(&mut windows, |_, ws| ws.iter_mut().for_each(fill));

        let source_sizes = (0..ns)
            .map(|w| cube.source_size(SourceId::new(w as u32)) as u32)
            .collect();

        // Greedy item-aligned chunking: close a chunk at the first item
        // boundary at or past `target_cells` cells.
        let target = cfg.target_cells.max(1) as u64;
        let mut chunks = Vec::new();
        let mut max_chunk_rows = 0usize;
        let mut start_item = 0usize;
        let cells_before = |d: usize| cell_offsets[item_offsets[d] as usize];
        for d in 0..ni {
            let acc_cells = cells_before(d + 1) - cells_before(start_item);
            if acc_cells as u64 >= target || d + 1 == ni {
                let rows = item_offsets[start_item]..item_offsets[d + 1];
                max_chunk_rows = max_chunk_rows.max(rows.len());
                chunks.push(CubeChunk {
                    items: start_item as u32..(d + 1) as u32,
                    rows,
                    cells: acc_cells,
                });
                start_item = d + 1;
            }
        }

        let (source_ext_offsets, source_ext_ids) = cube.source_extractors();
        Self {
            item_offsets,
            ig_source,
            ig_slot,
            cell_offsets,
            cell_extractor,
            cell_confidence,
            item_value_offsets,
            item_values,
            source_sizes,
            source_ext_offsets: source_ext_offsets.to_vec(),
            source_ext_ids: source_ext_ids.iter().map(|e| e.0).collect(),
            chunks,
            max_item_values,
            max_chunk_rows,
            num_sources: ns as u32,
            num_extractors: cube.num_extractors() as u32,
            num_values: cube.num_values() as u32,
        }
    }

    /// Number of groups (rows).
    pub fn num_groups(&self) -> usize {
        self.ig_source.len()
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cell_extractor.len()
    }

    /// Number of item chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Number of sources in the dense id space.
    pub fn num_sources(&self) -> usize {
        self.num_sources as usize
    }

    /// Number of extractors in the dense id space.
    pub fn num_extractors(&self) -> usize {
        self.num_extractors as usize
    }

    /// Number of items in the dense id space.
    pub fn num_items(&self) -> usize {
        self.item_offsets.len().saturating_sub(1)
    }

    /// Number of values in the dense id space.
    pub fn num_values(&self) -> usize {
        self.num_values as usize
    }

    /// Sorted distinct value ids of item `d`.
    pub fn item_values_of(&self, d: usize) -> &[u32] {
        let lo = self.item_value_offsets[d] as usize;
        let hi = self.item_value_offsets[d + 1] as usize;
        &self.item_values[lo..hi]
    }

    /// Borrowed view of chunk `chunk_idx` — the same data an item frame
    /// stores, with zero copying. Resident kernels run on this; streamed
    /// kernels run on [`ChunkBuf::view`], and the two are
    /// indistinguishable to the kernel.
    pub(crate) fn item_view(&self, chunk_idx: usize) -> ItemView<'_> {
        let chunk = &self.chunks[chunk_idx];
        let ilo = chunk.items.start as usize;
        let ihi = chunk.items.end as usize;
        let rows = chunk.rows.start as usize..chunk.rows.end as usize;
        let val_lo = self.item_value_offsets[ilo] as usize;
        let val_hi = self.item_value_offsets[ihi] as usize;
        let cell_lo = self.cell_offsets[rows.start] as usize;
        let cell_hi = self.cell_offsets[rows.end] as usize;
        ItemView {
            items: chunk.items.clone(),
            row_base: chunk.rows.start,
            val_base: self.item_value_offsets[ilo],
            cell_base: self.cell_offsets[rows.start],
            item_offsets: &self.item_offsets[ilo..=ihi],
            item_value_offsets: &self.item_value_offsets[ilo..=ihi],
            item_values: &self.item_values[val_lo..val_hi],
            ig_source: &self.ig_source[rows.clone()],
            ig_slot: &self.ig_slot[rows.clone()],
            cell_offsets: &self.cell_offsets[rows.start..=rows.end],
            cell_extractor: &self.cell_extractor[cell_lo..cell_hi],
            cell_confidence: &self.cell_confidence[cell_lo..cell_hi],
        }
    }
}

/// One chunk's payload, decoded into reusable buffers — the unit
/// [`FileChunkStore::load_chunk`] yields and an out-of-core scan worker
/// holds resident (everything a round computes the chunk's rows from).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkBuf {
    /// Dense item-id range the payload covers.
    pub items: Range<u32>,
    /// Row offsets rebased to the chunk (`item_offsets[0] == 0`, length
    /// `items.len() + 1`).
    pub item_offsets: Vec<u32>,
    /// Value-CSR offsets rebased to the chunk (length `items.len() + 1`).
    pub item_value_offsets: Vec<u32>,
    /// Flat per-item sorted distinct value ids.
    pub item_values: Vec<u32>,
    /// Source id per row.
    pub ig_source: Vec<u32>,
    /// Value slot per row.
    pub ig_slot: Vec<u32>,
    /// Cell offsets per row, rebased to the chunk (length `rows + 1`).
    pub cell_offsets: Vec<u32>,
    /// Extractor id per cell.
    pub cell_extractor: Vec<u32>,
    /// Confidence per cell.
    pub cell_confidence: Vec<f64>,
}

impl ChunkBuf {
    /// Borrowed view over the decoded payload — the interface kernels
    /// consume, shared with `ChunkedCube::item_view`.
    pub fn view(&self) -> ItemView<'_> {
        ItemView {
            items: self.items.clone(),
            row_base: 0,
            val_base: 0,
            cell_base: 0,
            item_offsets: &self.item_offsets,
            item_value_offsets: &self.item_value_offsets,
            item_values: &self.item_values,
            ig_source: &self.ig_source,
            ig_slot: &self.ig_slot,
            cell_offsets: &self.cell_offsets,
            cell_extractor: &self.cell_extractor,
            cell_confidence: &self.cell_confidence,
        }
    }
}

/// Borrowed chunk view — an EM round's kernel input, backed either by
/// resident [`ChunkedCube`] columns (`ChunkedCube::item_view`) or a
/// decoded [`ChunkBuf`] ([`ChunkBuf::view`]). Local indices run
/// `0..num_items()` and `0..num_rows()`; `rows` / `values` / `cells`
/// rebase the chunk's offset columns so the kernel never sees the
/// difference between the two backings.
#[derive(Debug, Clone)]
pub struct ItemView<'a> {
    /// Dense item-id range the view covers (`items.start + li` is the
    /// global item id of local item `li`).
    pub items: Range<u32>,
    /// Offset of the view's first row in `item_offsets`' coordinate
    /// space (0 for a decoded [`ChunkBuf`]).
    pub row_base: u32,
    /// Offset of the view's first value in `item_value_offsets`'
    /// coordinate space (0 for a decoded [`ChunkBuf`]).
    pub val_base: u32,
    /// Offset of the view's first cell in `cell_offsets`' coordinate
    /// space (0 for a decoded [`ChunkBuf`]).
    pub cell_base: u32,
    /// Row offsets (length `num_items() + 1`), in `row_base` coordinates.
    pub item_offsets: &'a [u32],
    /// Value-CSR offsets (length `num_items() + 1`), in `val_base`
    /// coordinates.
    pub item_value_offsets: &'a [u32],
    /// Flat per-item sorted distinct value ids for the view's items.
    pub item_values: &'a [u32],
    /// Source id per row.
    pub ig_source: &'a [u32],
    /// Value slot per row.
    pub ig_slot: &'a [u32],
    /// Cell offsets per row (length `num_rows() + 1`), in `cell_base`
    /// coordinates.
    pub cell_offsets: &'a [u32],
    /// Extractor id per cell.
    pub cell_extractor: &'a [u32],
    /// Confidence per cell.
    pub cell_confidence: &'a [f64],
}

impl ItemView<'_> {
    /// Number of items in the view.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Number of rows in the view.
    pub fn num_rows(&self) -> usize {
        self.ig_source.len()
    }

    /// Local row range of local item `li` into the `ig_*` columns.
    pub fn rows(&self, li: usize) -> Range<usize> {
        (self.item_offsets[li] - self.row_base) as usize
            ..(self.item_offsets[li + 1] - self.row_base) as usize
    }

    /// Sorted distinct value ids of local item `li`.
    pub fn values(&self, li: usize) -> &[u32] {
        let lo = (self.item_value_offsets[li] - self.val_base) as usize;
        let hi = (self.item_value_offsets[li + 1] - self.val_base) as usize;
        &self.item_values[lo..hi]
    }

    /// Local cell range of local row `r` into the cell columns.
    pub fn cells(&self, r: usize) -> Range<usize> {
        (self.cell_offsets[r] - self.cell_base) as usize
            ..(self.cell_offsets[r + 1] - self.cell_base) as usize
    }
}

/// Where an EM fit's chunk views come from — the one seam between the
/// engine and the cube's residency, and the one place that knows how
/// chunk work is scheduled. A round reads the cube through one scan (plus
/// the resident [`ChunkStoreMeta`] skeleton), so the kernels run the same
/// instructions whether a view is a zero-copy slice of a resident
/// [`ChunkedCube`] ([`ResidentChunks`]) or a worker's buffer freshly read
/// from a [`FileChunkStore`] ([`StreamedChunks`]).
pub trait ChunkSource: Sync {
    /// The integer skeleton: counts, the item-chunk partition, and the
    /// per-source CSRs.
    fn meta(&self) -> &ChunkStoreMeta;

    /// Scan every item chunk (`meta().item_chunks`): `f(scratch, view,
    /// out)` once per chunk, where `out` is the chunk's own entry of `out`
    /// (one per chunk), for that chunk's task alone to write. Chunks are
    /// pulled in ascending order by at most `kbt_flume::num_threads()`
    /// workers on [`kbt_flume::run_tasks`], each owning one `scratch` slot
    /// (a single slot makes the scan a serial fold).
    fn scan_items<S: Send, O: Send>(
        &self,
        scratch: &mut [S],
        out: &mut [O],
        f: impl Fn(&mut S, &ItemView<'_>, &mut O) + Sync,
    ) -> io::Result<()>;
}

/// `out` (one entry per chunk), each entry behind a lock of its own: the
/// lock only hands the one task that scans the chunk its exclusive borrow
/// across the worker boundary.
fn per_chunk<O>(out: &mut [O], chunks: usize) -> Vec<Mutex<&mut O>> {
    assert_eq!(out.len(), chunks, "one output per item chunk");
    out.iter_mut().map(Mutex::new).collect()
}

/// The resident [`ChunkSource`]: zero-copy views of a [`ChunkedCube`],
/// with the skeleton derived once at construction. Never fails.
#[derive(Debug)]
pub struct ResidentChunks<'a> {
    cube: &'a ChunkedCube,
    meta: ChunkStoreMeta,
}

impl<'a> ResidentChunks<'a> {
    /// Wrap `cube`, deriving its [`ChunkStoreMeta`].
    pub fn new(cube: &'a ChunkedCube) -> Self {
        Self {
            cube,
            meta: ChunkStoreMeta::from_cube(cube),
        }
    }
}

impl ChunkSource for ResidentChunks<'_> {
    fn meta(&self) -> &ChunkStoreMeta {
        &self.meta
    }

    fn scan_items<S: Send, O: Send>(
        &self,
        scratch: &mut [S],
        out: &mut [O],
        f: impl Fn(&mut S, &ItemView<'_>, &mut O) + Sync,
    ) -> io::Result<()> {
        let out = per_chunk(out, self.cube.num_chunks());
        kbt_flume::run_tasks(self.cube.num_chunks(), scratch, |s, i| {
            f(
                s,
                &self.cube.item_view(i),
                &mut out[i].lock().expect("a chunk is scanned once"),
            );
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
        f: impl Fn(&mut S, &ItemView<'_>, &mut O) + Sync,
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
            f(
                s,
                &buf.view(),
                &mut out[i].lock().expect("a chunk is scanned once"),
            );
            Ok(())
        })
        .map(drop)
    }
}

const CHUNK_MAGIC: &[u8; 8] = b"KBTCHNK4";

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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Most rows in any single item chunk.
    pub max_chunk_rows: u32,
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
    /// Derive the metadata from a resident columnar cube.
    pub fn from_cube(cube: &ChunkedCube) -> Self {
        let ns = cube.num_sources();

        // Per-source distinct-item counts: an item's rows are sorted by
        // source, so its sources come in runs, one per (source, item)
        // pair.
        let mut source_item_counts = vec![0u32; ns];
        for rows in cube.item_offsets.windows(2) {
            let sources = &cube.ig_source[rows[0] as usize..rows[1] as usize];
            for (r, &w) in sources.iter().enumerate() {
                if r == 0 || sources[r - 1] != w {
                    source_item_counts[w as usize] += 1;
                }
            }
        }

        Self {
            num_groups: cube.num_groups() as u32,
            num_cells: cube.num_cells() as u32,
            num_items: cube.num_items() as u32,
            num_sources: ns as u32,
            num_extractors: cube.num_extractors() as u32,
            num_values: cube.num_values() as u32,
            max_item_values: cube.max_item_values as u32,
            max_chunk_rows: cube.max_chunk_rows as u32,
            item_chunks: cube.chunks.clone(),
            source_sizes: cube.source_sizes.clone(),
            source_item_counts,
            source_ext_offsets: cube.source_ext_offsets.clone(),
            source_ext_ids: cube.source_ext_ids.clone(),
        }
    }

    fn encode(&self, p: &mut Vec<u8>) {
        for x in [
            self.num_groups,
            self.num_cells,
            self.num_items,
            self.num_sources,
            self.num_extractors,
            self.num_values,
            self.max_item_values,
            self.max_chunk_rows,
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
        let num_groups = r.u32()?;
        let num_cells = r.u32()?;
        let num_items = r.u32()?;
        let num_sources = r.u32()?;
        let num_extractors = r.u32()?;
        let num_values = r.u32()?;
        let max_item_values = r.u32()?;
        let max_chunk_rows = r.u32()?;
        let item_chunks = r.seq::<_, WireError>(20, |r| {
            Ok(CubeChunk {
                items: r.u32()?..r.u32()?,
                rows: r.u32()?..r.u32()?,
                cells: r.u32()?,
            })
        })?;
        let mut source_sizes = Vec::new();
        read_u32_vec(&mut r, &mut source_sizes)?;
        let mut source_item_counts = Vec::new();
        read_u32_vec(&mut r, &mut source_item_counts)?;
        let mut source_ext_offsets = Vec::new();
        read_u32_vec(&mut r, &mut source_ext_offsets)?;
        let mut source_ext_ids = Vec::new();
        read_u32_vec(&mut r, &mut source_ext_ids)?;
        r.finish()?;
        let ns = num_sources as usize;
        let sized: u64 = source_sizes.iter().map(|&n| u64::from(n)).sum();
        let meta_ok = source_sizes.len() == ns
            && sized == u64::from(num_groups)
            && source_item_counts.len() == ns
            && is_csr(&source_ext_offsets, ns, source_ext_ids.len())
            && all_below(&source_ext_ids, num_extractors)
            && tiles(item_chunks.iter().map(|c| &c.items), num_items)
            && tiles(item_chunks.iter().map(|c| &c.rows), num_groups);
        if !meta_ok {
            return Err(malformed("meta frame: inconsistent CSR shapes"));
        }
        Ok(Self {
            num_groups,
            num_cells,
            num_items,
            num_sources,
            num_extractors,
            num_values,
            max_item_values,
            max_chunk_rows,
            item_chunks,
            source_sizes,
            source_item_counts,
            source_ext_offsets,
            source_ext_ids,
        })
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

/// Disk-backed chunk payloads: the `KBTCHNK4` format described in the
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
        let meta = ChunkStoreMeta::from_cube(cube);
        let mut w = io::BufWriter::new(fs::File::create(path)?);
        w.write_all(CHUNK_MAGIC)?;
        let mut pos = CHUNK_MAGIC.len() as u64;
        let mut frame = Vec::new();

        emit_frame(&mut w, &mut pos, &mut frame, |p| meta.encode(p))?;

        let mut rebased: Vec<u32> = Vec::new();
        let mut put_rebased = |p: &mut Vec<u8>, offsets: &[u32], base: u32| {
            rebased.clear();
            rebased.extend(offsets.iter().map(|&o| o - base));
            put_u32_slice(p, &rebased);
        };
        let mut item_frames = Vec::new();
        for idx in 0..cube.chunks.len() {
            let v = cube.item_view(idx);
            item_frames.push(emit_frame(&mut w, &mut pos, &mut frame, |p| {
                wire::put_u32(p, v.items.start);
                wire::put_u32(p, v.items.end);
                put_rebased(p, v.item_offsets, v.row_base);
                put_rebased(p, v.item_value_offsets, v.val_base);
                put_u32_slice(p, v.item_values);
                put_u32_slice(p, v.ig_source);
                put_u32_slice(p, v.ig_slot);
                put_rebased(p, v.cell_offsets, v.cell_base);
                put_u32_slice(p, v.cell_extractor);
                wire::put_column(p, v.cell_confidence, f64::to_le_bytes);
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
        let decoded = (|| {
            buf.items = r.u32()?..r.u32()?;
            read_u32_vec(&mut r, &mut buf.item_offsets)?;
            read_u32_vec(&mut r, &mut buf.item_value_offsets)?;
            read_u32_vec(&mut r, &mut buf.item_values)?;
            read_u32_vec(&mut r, &mut buf.ig_source)?;
            read_u32_vec(&mut r, &mut buf.ig_slot)?;
            read_u32_vec(&mut r, &mut buf.cell_offsets)?;
            read_u32_vec(&mut r, &mut buf.cell_extractor)?;
            r.column(&mut buf.cell_confidence, f64::from_le_bytes)?;
            r.finish()
        })();
        decoded.map_err(|e| malformed(format!("chunk {idx}: {e}")))?;
        let (meta, chunk) = (&self.meta, &self.meta.item_chunks[idx]);
        let (items, rows, cells) = (
            buf.items.len(),
            buf.ig_source.len(),
            buf.cell_extractor.len(),
        );
        let shape_ok = buf.items == chunk.items
            && rows == chunk.rows.len()
            && cells == chunk.cells as usize
            && is_csr(&buf.item_offsets, items, rows)
            && is_csr(&buf.item_value_offsets, items, buf.item_values.len())
            && is_csr(&buf.cell_offsets, rows, cells)
            && buf.ig_slot.len() == rows
            && buf.cell_confidence.len() == cells
            && all_below(&buf.ig_source, meta.num_sources)
            && all_below(&buf.cell_extractor, meta.num_extractors)
            // Every row's slot names one of its own item's values.
            && (0..items).all(|li| {
                let values = buf.item_value_offsets[li + 1] - buf.item_value_offsets[li];
                let rows = buf.item_offsets[li] as usize..buf.item_offsets[li + 1] as usize;
                values <= meta.max_item_values && all_below(&buf.ig_slot[rows], values)
            });
        if !shape_ok {
            return Err(malformed(format!("chunk {idx}: malformed payload")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::CubeBuilder;
    use crate::ids::{ExtractorId, ValueId};
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

    /// Every column must be a faithful split of the cube: row `g` is group
    /// `g`, with its cells in the cube's order.
    fn assert_matches_cube(cc: &ChunkedCube, cube: &ObservationCube) {
        assert_eq!(cc.num_groups(), cube.num_groups());
        assert_eq!(cc.num_cells(), cube.num_cells());
        assert_eq!(cc.num_sources(), cube.num_sources());
        assert_eq!(cc.num_extractors(), cube.num_extractors());
        assert_eq!(cc.num_items(), cube.num_items());
        assert_eq!(cc.num_values(), cube.num_values());
        for w in 0..cube.num_sources() {
            let size = cube.source_size(SourceId::new(w as u32));
            assert_eq!(cc.source_sizes[w] as usize, size);
        }
        assert_eq!(cc.cell_offsets.len(), cc.num_groups() + 1);
        for d in 0..cube.num_items() {
            let vals = cube.observed_values(ItemId::new(d as u32));
            assert_eq!(
                cc.item_values_of(d),
                vals.iter().map(|v| v.0).collect::<Vec<_>>().as_slice()
            );
            let rows = cube.groups_of_item(ItemId::new(d as u32));
            let lo = cc.item_offsets[d] as usize;
            let hi = cc.item_offsets[d + 1] as usize;
            assert_eq!(lo..hi, rows);
            for r in rows {
                let grp = &cube.groups()[r];
                assert_eq!(cc.ig_source[r], grp.source.0);
                assert_eq!(cc.item_values_of(d)[cc.ig_slot[r] as usize], grp.value.0);
                let cells = cube.cells_of(grp);
                let at = cc.cell_offsets[r] as usize..cc.cell_offsets[r + 1] as usize;
                assert_eq!(at.len(), cells.len());
                for (k, c) in at.zip(cells) {
                    assert_eq!(cc.cell_extractor[k], c.extractor.0);
                    assert_eq!(cc.cell_confidence[k].to_bits(), c.confidence.to_bits());
                }
            }
        }
    }

    fn assert_chunks_tile(cc: &ChunkedCube) {
        let mut next_item = 0u32;
        let mut next_row = 0u32;
        let mut cells = 0u64;
        for chunk in &cc.chunks {
            assert_eq!(chunk.items.start, next_item);
            assert_eq!(chunk.rows.start, next_row);
            assert_eq!(
                chunk.rows,
                cc.item_offsets[chunk.items.start as usize]
                    ..cc.item_offsets[chunk.items.end as usize]
            );
            let (lo, hi) = (chunk.rows.start as usize, chunk.rows.end as usize);
            assert_eq!(chunk.cells, cc.cell_offsets[hi] - cc.cell_offsets[lo]);
            next_item = chunk.items.end;
            next_row = chunk.rows.end;
            cells += chunk.cells as u64;
        }
        assert_eq!(next_item as usize, cc.num_items());
        assert_eq!(next_row as usize, cc.num_groups());
        assert_eq!(cells as usize, cc.num_cells());
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
    fn chunking_survives_delta_and_retract() {
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
        assert_eq!(cc.num_chunks(), 0);
        assert_eq!(cc.num_groups(), 0);
        assert_chunks_tile(&cc);
    }

    #[test]
    fn meta_frames_tile_and_match_cube() {
        let cube = sample_cube();
        let cc = ChunkedCube::from_cube(&cube, &ChunkingConfig { target_cells: 8 });
        let meta = ChunkStoreMeta::from_cube(&cc);
        assert_eq!(meta.num_groups as usize, cc.num_groups());
        assert_eq!(meta.num_cells as usize, cc.num_cells());
        assert!(meta.item_chunks.len() > 1, "want multiple item frames");
        assert_eq!(meta.item_chunks, cc.chunks);
        assert_eq!(meta.source_sizes, cc.source_sizes);
        // Per-source extractor lists match the cube's.
        for w in 0..cube.num_sources() {
            let lo = meta.source_ext_offsets[w] as usize;
            let hi = meta.source_ext_offsets[w + 1] as usize;
            let expect: Vec<u32> = cube
                .extractors_on_source(SourceId::new(w as u32))
                .iter()
                .map(|e| e.0)
                .collect();
            assert_eq!(
                &meta.source_ext_ids[lo..hi],
                expect.as_slice(),
                "source {w}"
            );
        }
        // Distinct-item counts.
        for w in 0..cube.num_sources() {
            let groups = cube.source_groups(SourceId::new(w as u32));
            let mut items: Vec<ItemId> = groups
                .iter()
                .map(|&g| cube.groups()[g as usize].item)
                .collect();
            items.dedup();
            assert_eq!(meta.source_item_counts[w] as usize, items.len());
        }
    }

    /// Two item views expose the same items, rows, values, cells and
    /// columns.
    fn assert_item_views_eq(a: &ItemView<'_>, b: &ItemView<'_>) {
        assert_eq!(a.items, b.items);
        for li in 0..a.num_items() {
            assert_eq!(a.rows(li), b.rows(li));
            assert_eq!(a.values(li), b.values(li));
        }
        assert_eq!(a.ig_source, b.ig_source);
        assert_eq!(a.ig_slot, b.ig_slot);
        for r in 0..a.num_rows() {
            assert_eq!(a.cells(r), b.cells(r));
        }
        assert_eq!(a.cell_extractor, b.cell_extractor);
        let bits = |v: &ItemView<'_>| {
            v.cell_confidence
                .iter()
                .map(|c| c.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(a), bits(b));
    }

    #[test]
    fn views_match_underlying_columns() {
        let cube = sample_cube();
        let cc = ChunkedCube::from_cube(&cube, &ChunkingConfig { target_cells: 8 });
        for (idx, chunk) in cc.chunks.iter().enumerate() {
            let v = cc.item_view(idx);
            assert_eq!(v.items, chunk.items);
            assert_eq!(v.num_rows(), chunk.rows.len());
            for li in 0..v.num_items() {
                let d = chunk.items.start as usize + li;
                assert_eq!(v.values(li), cc.item_values_of(d));
                let rows = cc.item_offsets[d] as usize..cc.item_offsets[d + 1] as usize;
                assert_eq!(&v.ig_source[v.rows(li)], &cc.ig_source[rows]);
            }
            for r in 0..v.num_rows() {
                let global = chunk.rows.start as usize + r;
                let cells = cc.cell_offsets[global] as usize..cc.cell_offsets[global + 1] as usize;
                assert_eq!(
                    &v.cell_extractor[v.cells(r)],
                    &cc.cell_extractor[cells.clone()]
                );
                assert_eq!(&v.cell_confidence[v.cells(r)], &cc.cell_confidence[cells]);
            }
        }
    }

    #[test]
    fn file_store_round_trips_every_chunk() {
        let cube = sample_cube();
        let cc = ChunkedCube::from_cube(&cube, &ChunkingConfig { target_cells: 8 });
        assert!(cc.num_chunks() > 1, "want a multi-chunk test corpus");
        let dir = std::env::temp_dir().join("kbt_chunk_store_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chunks.kbt");
        FileChunkStore::write(&cc, &path).unwrap();
        let store = FileChunkStore::open(&path).unwrap();
        assert_eq!(store.num_chunks(), cc.num_chunks());
        assert_eq!(store.meta(), &ChunkStoreMeta::from_cube(&cc));
        let mut disk = ChunkBuf::default();
        for idx in 0..cc.num_chunks() {
            store.load_chunk(idx, &mut disk).unwrap();
            assert_item_views_eq(&disk.view(), &cc.item_view(idx));
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

    /// The `KBTCHNK4` bytes, pinned (length and FNV-1a): any change to
    /// the encoder is a format change. (`KBTCHNK3`, with a group-id column
    /// per row and per-source group offsets, was 3,480 bytes,
    /// `0x706b5d9f62302f31`.)
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
        assert_eq!(bytes.len(), 3224);
        assert_eq!(fnv, 0x2d3b_9f78_5ab3_db52);
        assert_eq!(&bytes[..8], b"KBTCHNK4");
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
                src.scan_items(&mut [(); 8], &mut ran, |_, view, out| {
                    *out = Some((thread::current().id(), view.items.clone()));
                })
            })
            .unwrap();
            assert_eq!(store.frames_read() - before, frames as u64, "cap {cap}");
            let ran: Vec<_> = ran
                .into_iter()
                .map(|r| r.expect("every chunk ran"))
                .collect();
            for ((_, items), chunk) in ran.iter().zip(&cc.chunks) {
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
