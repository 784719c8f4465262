//! Columnar (SoA) chunked form of the observation cube — the layout the
//! EM hot loops stream at 10M-triple scale.
//!
//! [`ObservationCube`] stores groups and cells as arrays of structs; the
//! inference loops chase `Range` fields and branch per group. At millions
//! of triples that layout leaves throughput on the table: the E-step wants
//! to stream *columns* (`source[]`, `value[]`, `confidence[]`, …) with a
//! fixed reduction order so rustc can keep the loop bodies branch-free and
//! auto-vectorize the float accumulations.
//!
//! [`ChunkedCube`] is that layout, and it has one shape in memory and on
//! disk: the **meta frame** ([`ChunkStoreMeta`]) plus one **item frame**
//! ([`ChunkBuf`]) per chunk — exactly what a [`FileChunkStore`] written
//! from it decodes, frame for frame. It is **derived** from an
//! [`ObservationCube`] (the cube stays the system of record — deltas and
//! retractions still go through [`ObservationCube::apply_delta`] /
//! [`ObservationCube::retract`], and the chunked cube is rebuilt from the
//! result), and it is **row-equivalent by construction**: the cube's
//! groups are item-major already, so the frames' rows are the groups in
//! order, with their cells in the cube's cell order, and building the
//! frames is one sequential split into columns — a kernel that walks a
//! row's cells, or an item's rows, performs bit-for-bit the same float
//! operations as one walking the cube, and a fit's per-row outputs are the
//! report's per-group ones. The `columnar_cube` proptests pin that
//! equivalence down through build, `apply_delta`, and `retract`.
//!
//! The rows are partitioned into fixed-size, **item-aligned chunks**
//! ([`CubeChunk`]) of roughly [`ChunkingConfig::target_cells`] cells: a
//! chunk carries everything an EM round computes for its rows —
//! correctness from its cells, the value posteriors of its items — so a
//! round is one scan that hands whole frames to its workers
//! ([`ChunkSource::scan_items`]). Because chunks never split an item,
//! per-item reductions stay local to one worker.
//!
//! # Chunk sources
//!
//! An EM fit reads the cube only through a [`ChunkSource`]: one scan over
//! the item frames — the one place that decides how chunk work is
//! scheduled — and the resident integer skeleton ([`ChunkStoreMeta`]).
//! Both residencies hand the kernels a `&ChunkBuf`: a resident
//! [`ChunkedCube`] its own frames, [`StreamedChunks`] the buffer each scan
//! worker reads a [`FileChunkStore`]'s frame into, so the resident set is
//! one buffer per worker instead of the whole corpus. The v4 file format
//! (`KBTCHNK4`) is the magic followed by three families of [`wire`]
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

/// Cubes of at least this many groups fill their frames on up to
/// `kbt_flume::num_threads()` workers; smaller ones (unit tests, serving
/// deltas) fill them inline.
const PARALLEL_FILL_GROUPS: usize = 1 << 15;

impl ChunkedCube {
    /// Split `cube` into item frames, partitioned per `cfg`.
    ///
    /// Pure copy: no recomputation — the cube's groups are already the
    /// rows in order and its cells the cell columns, so one sequential
    /// walk per chunk fills its frame, which is what makes columnar EM
    /// kernels bit-for-bit equal to the row-major ones. Every value is
    /// independent of the worker count, which fills whole frames.
    pub fn from_cube(cube: &ObservationCube, cfg: &ChunkingConfig) -> Self {
        let (ni, ns) = (cube.num_items(), cube.num_sources());
        let (groups, item_offsets) = (cube.groups(), cube.item_offsets());
        let (value_offsets, _) = cube.item_values();
        let cell_at = |r: u32| {
            (groups.get(r as usize)).map_or(cube.num_cells(), |g| g.cell_range().start) as u32
        };

        // Greedy item-aligned chunking: close a chunk at the first item
        // boundary at or past `target_cells` cells.
        let target = cfg.target_cells.max(1) as u64;
        let mut item_chunks = Vec::new();
        let mut start = 0usize;
        for d in 0..ni {
            let rows = item_offsets[start]..item_offsets[d + 1];
            let cells = cell_at(rows.end) - cell_at(rows.start);
            if u64::from(cells) >= target || d + 1 == ni {
                let items = start as u32..(d + 1) as u32;
                item_chunks.push(CubeChunk { items, rows, cells });
                start = d + 1;
            }
        }

        // Every frame's buffers are sized here, on the calling thread, so
        // the workers below fill them without allocating: memory a worker
        // allocates lands in its thread's malloc arena and stays resident
        // after the call.
        let mut frames: Vec<ChunkBuf> = (item_chunks.iter())
            .map(|c| {
                let (items, rows) = (c.items.len(), c.rows.len());
                let values =
                    value_offsets[c.items.end as usize] - value_offsets[c.items.start as usize];
                ChunkBuf {
                    items: c.items.clone(),
                    item_offsets: Vec::with_capacity(items + 1),
                    item_value_offsets: Vec::with_capacity(items + 1),
                    item_values: Vec::with_capacity(values as usize),
                    ig_source: Vec::with_capacity(rows),
                    ig_slot: Vec::with_capacity(rows),
                    cell_offsets: Vec::with_capacity(rows + 1),
                    cell_extractor: Vec::with_capacity(c.cells as usize),
                    cell_confidence: Vec::with_capacity(c.cells as usize),
                }
            })
            .collect();
        // One per-source distinct-item count per worker, summed after.
        let workers = if groups.len() >= PARALLEL_FILL_GROUPS {
            kbt_flume::num_threads()
        } else {
            1
        };
        let mut item_counts = vec![vec![0u32; ns]; workers];
        let slots = per_chunk(&mut frames, item_chunks.len());
        let Ok(_) = kbt_flume::run_tasks(item_chunks.len(), &mut item_counts, |counts, i| {
            let mut frame = slots[i].lock().expect("a frame is filled once");
            frame.fill(cube, &item_chunks[i], counts);
            Ok::<_, std::convert::Infallible>(())
        });
        drop(slots);
        let mut item_counts = item_counts.into_iter();
        let mut source_item_counts = item_counts.next().expect("one worker at least");
        for counts in item_counts {
            (source_item_counts.iter_mut().zip(counts)).for_each(|(n, k)| *n += k);
        }

        let (source_ext_offsets, source_ext_ids) = cube.source_extractors();
        let meta = ChunkStoreMeta {
            num_groups: groups.len() as u32,
            num_cells: cube.num_cells() as u32,
            num_items: ni as u32,
            num_sources: ns as u32,
            num_extractors: cube.num_extractors() as u32,
            num_values: cube.num_values() as u32,
            max_item_values: (value_offsets.windows(2).map(|w| w[1] - w[0]))
                .max()
                .unwrap_or(0),
            max_chunk_rows: (item_chunks.iter().map(|c| c.rows.len() as u32))
                .max()
                .unwrap_or(0),
            item_chunks,
            source_sizes: (0..ns)
                .map(|w| cube.source_size(SourceId::new(w as u32)) as u32)
                .collect(),
            source_item_counts,
            source_ext_offsets: source_ext_offsets.to_vec(),
            source_ext_ids: source_ext_ids.iter().map(|e| e.0).collect(),
        };
        Self { meta, frames }
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
    /// Cell offsets per row (length `rows + 1`). A row without cells
    /// (left by a retraction) claims but never votes.
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

    /// Append `chunk`'s columns of `cube`, rebased to the chunk, and
    /// count each source's distinct items among its rows into
    /// `items_per_source`.
    fn fill(&mut self, cube: &ObservationCube, chunk: &CubeChunk, items_per_source: &mut [u32]) {
        let items = chunk.items.start as usize..chunk.items.end as usize;
        let rows = &cube.groups()[chunk.rows.start as usize..chunk.rows.end as usize];
        let (value_offsets, values) = cube.item_values();
        let item_offsets = &cube.item_offsets()[items.start..=items.end];
        let value_offsets = &value_offsets[items.start..=items.end];
        let (first_row, first_value) = (item_offsets[0], value_offsets[0]);
        let cells = rows.first().map_or(0, |g| g.cell_range().start);
        let cells = cells..cells + chunk.cells as usize;

        self.item_offsets
            .extend(item_offsets.iter().map(|&o| o - first_row));
        self.item_value_offsets
            .extend(value_offsets.iter().map(|&o| o - first_value));
        let values = &values[first_value as usize..value_offsets[items.len()] as usize];
        self.item_values.extend(values.iter().map(|v| v.0));
        self.ig_source.extend(rows.iter().map(|g| g.source.0));
        self.cell_offsets.push(0);
        (self.cell_offsets).extend(
            rows.iter()
                .map(|g| (g.cell_range().end - cells.start) as u32),
        );
        let cells = &cube.cells[cells];
        self.cell_extractor
            .extend(cells.iter().map(|c| c.extractor.0));
        self.cell_confidence
            .extend(cells.iter().map(|c| c.confidence));

        for li in 0..items.len() {
            let vals = cube.observed_values(ItemId::new(chunk.items.start + li as u32));
            let at = self.rows(li);
            self.ig_slot.extend(rows[at.clone()].iter().map(|g| {
                let slot = vals.binary_search(&g.value);
                slot.expect("group value is an observed value of its item") as u32
            }));
            // An item's rows are sorted by source, so its sources come in
            // runs, one per (source, item) pair.
            let sources = &self.ig_source[at];
            for (k, &w) in sources.iter().enumerate() {
                if k == 0 || sources[k - 1] != w {
                    items_per_source[w as usize] += 1;
                }
            }
        }
    }

    /// The item-frame payload [`FileChunkStore::load_chunk`] decodes.
    fn encode(&self, p: &mut Vec<u8>) {
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

    /// Decode an item-frame payload written by [`Self::encode`] into these
    /// buffers, reusing their capacity.
    fn decode(&mut self, payload: &[u8]) -> Result<(), WireError> {
        let mut r = WireReader::new(payload);
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
            read_u32_vec(&mut r, column)?;
        }
        r.column(&mut self.cell_confidence, f64::from_le_bytes)?;
        r.finish()
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
    /// Most rows in any single item chunk — only recorded: the frame
    /// carries it, and nothing reads it.
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
        (buf.decode(&payload)).map_err(|e| malformed(format!("chunk {idx}: {e}")))?;
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

    /// Every frame must be a faithful split of the cube: cube row `g` is
    /// local row `g − chunk.rows.start` of its frame, with its cells in the
    /// cube's order.
    fn assert_matches_cube(cc: &ChunkedCube, cube: &ObservationCube) {
        let meta = &cc.meta;
        assert_eq!(meta.num_groups as usize, cube.num_groups());
        assert_eq!(meta.num_cells as usize, cube.num_cells());
        assert_eq!(meta.num_sources as usize, cube.num_sources());
        assert_eq!(meta.num_extractors as usize, cube.num_extractors());
        assert_eq!(meta.num_items as usize, cube.num_items());
        assert_eq!(meta.num_values as usize, cube.num_values());
        for w in 0..cube.num_sources() {
            let size = cube.source_size(SourceId::new(w as u32));
            assert_eq!(meta.source_sizes[w] as usize, size);
        }
        assert_eq!(cc.frames.len(), meta.item_chunks.len());
        for (chunk, frame) in meta.item_chunks.iter().zip(&cc.frames) {
            assert_eq!(frame.cell_offsets.len(), frame.num_rows() + 1);
            let first_row = chunk.rows.start as usize;
            let first_cell = cube
                .groups()
                .get(first_row)
                .map_or(0, |g| g.cell_range().start);
            for li in 0..frame.num_items() {
                let d = ItemId::new(chunk.items.start + li as u32);
                let vals = cube.observed_values(d);
                assert_eq!(
                    frame.values(li),
                    vals.iter().map(|v| v.0).collect::<Vec<_>>().as_slice()
                );
                let rows = cube.groups_of_item(d);
                let at = frame.rows(li);
                assert_eq!(at.start + first_row..at.end + first_row, rows);
                for r in at {
                    let grp = &cube.groups()[r + first_row];
                    assert_eq!(frame.ig_source[r], grp.source.0);
                    assert_eq!(frame.values(li)[frame.ig_slot[r] as usize], grp.value.0);
                    let cells = cube.cells_of(grp);
                    let at = frame.cells(r);
                    assert_eq!(at.start + first_cell, grp.cell_range().start);
                    assert_eq!(at.len(), cells.len());
                    for (k, c) in at.zip(cells) {
                        assert_eq!(frame.cell_extractor[k], c.extractor.0);
                        assert_eq!(frame.cell_confidence[k].to_bits(), c.confidence.to_bits());
                    }
                }
            }
        }
    }

    /// The chunks tile the items, rows and cells in order, each frame
    /// holding its chunk's items, rows and cells.
    fn assert_chunks_tile(cc: &ChunkedCube) {
        let meta = &cc.meta;
        let mut next_item = 0u32;
        let mut next_row = 0u32;
        let mut cells = 0u64;
        assert_eq!(cc.frames.len(), meta.item_chunks.len());
        for (chunk, frame) in meta.item_chunks.iter().zip(&cc.frames) {
            assert_eq!(chunk.items.start, next_item);
            assert_eq!(chunk.rows.start, next_row);
            assert_eq!(frame.items, chunk.items);
            assert_eq!(
                frame.item_offsets[frame.num_items()] as usize,
                chunk.rows.len()
            );
            assert_eq!(frame.num_rows(), chunk.rows.len());
            assert_eq!(chunk.cells, frame.cell_offsets[frame.num_rows()]);
            assert_eq!(frame.cell_extractor.len(), chunk.cells as usize);
            next_item = chunk.items.end;
            next_row = chunk.rows.end;
            cells += chunk.cells as u64;
        }
        assert_eq!(next_item, meta.num_items);
        assert_eq!(next_row, meta.num_groups);
        assert_eq!(cells, u64::from(meta.num_cells));
        let most_rows = meta.item_chunks.iter().map(|c| c.rows.len());
        assert_eq!(meta.max_chunk_rows as usize, most_rows.max().unwrap_or(0));
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
                .iter()
                .map(|e| e.0)
                .collect();
            assert_eq!(
                &meta.source_ext_ids[lo..hi],
                expect.as_slice(),
                "source {w}"
            );
        }
        // Sizes and distinct-item counts.
        for w in 0..cube.num_sources() {
            let groups = cube.source_groups(SourceId::new(w as u32));
            assert_eq!(meta.source_sizes[w] as usize, groups.len());
            let mut items: Vec<ItemId> = groups
                .iter()
                .map(|&g| cube.groups()[g as usize].item)
                .collect();
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
        // A frame with its confidences as bits, so `==` is bitwise.
        let bits = |frame: &ChunkBuf| {
            let mut frame = frame.clone();
            let conf = std::mem::take(&mut frame.cell_confidence);
            (frame, conf.iter().map(|c| c.to_bits()).collect::<Vec<_>>())
        };
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
