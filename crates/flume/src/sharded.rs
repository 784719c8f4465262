//! Shard-parallel execution with per-worker reusable scratch arenas.
//!
//! The paper's pipeline runs as sharded Map-Reduce rounds (Section 5.3.4):
//! work is partitioned by key range, every worker owns its shard's state
//! for the whole round, and shard outputs are combined in a fixed order.
//! [`ShardedExecutor`] reproduces that execution model in-process and adds
//! the piece an iterative EM loop needs that one-shot Map-Reduce does not:
//! **scratch arenas that survive across rounds**. Each shard owns an
//! arbitrary scratch value `S` (buffers, accumulators, whatever the hot
//! loop needs); the executor lends it to the shard's worker on every
//! round, so steady-state execution performs no per-item — and after the
//! first round no per-round — allocation.
//!
//! ## Determinism
//!
//! Shards are **contiguous key ranges** (`len.div_ceil(shards)`-sized, in
//! key order), mirroring [`crate::par_map_slice`]. All combining APIs
//! visit shards in ascending shard order, so for a *fixed* shard count
//! every run is bit-identical. When the per-key computation is pure (no
//! cross-key accumulation inside the executor), results are additionally
//! identical across *different* shard counts — which is what lets the
//! inference engines produce bit-for-bit the same model at 1, 2, or 8
//! threads (the `sharded_engine` integration tests pin this down).

use std::ops::Range;

use crate::num_threads;

/// A fixed set of shards, each owning a reusable scratch arena of type `S`.
///
/// Construct once per (engine, dataset) and reuse across rounds; the
/// scratch arenas persist between calls. See the module docs for the
/// determinism contract.
#[derive(Debug)]
pub struct ShardedExecutor<S> {
    shards: usize,
    scratch: Vec<S>,
}

impl<S: Default> ShardedExecutor<S> {
    /// An executor with one shard per ambient worker thread
    /// (respects [`crate::with_threads`] scopes at construction time).
    pub fn new() -> Self {
        Self::with_shards(num_threads())
    }

    /// An executor with exactly `shards` shards (at least 1).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards,
            scratch: (0..shards).map(|_| S::default()).collect(),
        }
    }
}

impl<S: Default> Default for ShardedExecutor<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> ShardedExecutor<S> {
    /// Number of shards (fixed at construction).
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// The scratch arenas, one per shard. After [`Self::run_shards`]
    /// returns, shard `i`'s arena holds whatever its worker left there —
    /// this is how shard-local outputs are handed back for an ordered
    /// merge.
    pub fn scratch(&self) -> &[S] {
        &self.scratch
    }

    /// Mutable access to the scratch arenas.
    pub fn scratch_mut(&mut self) -> &mut [S] {
        &mut self.scratch
    }

    /// The contiguous key ranges the shards cover for `len` keys, in shard
    /// order. Empty trailing shards are omitted. The same plan is used by
    /// every execution method, so a merge loop can re-derive which arena
    /// holds which keys.
    pub fn shard_ranges(&self, len: usize) -> Vec<Range<usize>> {
        let (shards, chunk) = self.plan(len);
        (0..shards)
            .map(|i| (i * chunk).min(len)..((i + 1) * chunk).min(len))
            .filter(|r| !r.is_empty())
            .collect()
    }

    /// Effective shard count and chunk size for `len` keys: never more
    /// shards than keys.
    fn plan(&self, len: usize) -> (usize, usize) {
        let shards = self.shards.min(len.max(1));
        (shards, len.div_ceil(shards))
    }
}

impl<S: Send> ShardedExecutor<S> {
    /// Run one task per shard over contiguous key ranges `0..len`.
    ///
    /// `f(scratch, shard_index, keys)` runs once per (non-empty) shard,
    /// with exclusive access to that shard's arena. Outputs are typically
    /// accumulated *into* the arena and merged afterwards via
    /// [`Self::scratch_mut`] + [`Self::shard_ranges`].
    pub fn run_shards<F>(&mut self, len: usize, f: F)
    where
        F: Fn(&mut S, usize, Range<usize>) + Sync,
    {
        let (shards, chunk) = self.plan(len);
        if shards <= 1 || len < 2 {
            f(&mut self.scratch[0], 0, 0..len);
            return;
        }
        std::thread::scope(|scope| {
            let f = &f;
            for (i, s) in self.scratch.iter_mut().enumerate().take(shards) {
                let lo = (i * chunk).min(len);
                let hi = ((i + 1) * chunk).min(len);
                if lo >= hi {
                    break;
                }
                scope.spawn(move || f(s, i, lo..hi));
            }
        });
    }

    /// Keyed parallel map into a reusable output buffer:
    /// `out[k] = f(scratch, k)` for `k in 0..len`.
    ///
    /// `out` is cleared and resized (capacity is retained across rounds),
    /// so at steady state the call allocates nothing. Results are written
    /// in key order regardless of the shard count.
    pub fn map_keys<U, F>(&mut self, len: usize, out: &mut Vec<U>, f: F)
    where
        U: Send + Default,
        F: Fn(&mut S, usize) -> U + Sync,
    {
        out.clear();
        out.resize_with(len, U::default);
        let (shards, chunk) = self.plan(len);
        if shards <= 1 || len < 2 {
            let s = &mut self.scratch[0];
            for (k, slot) in out.iter_mut().enumerate() {
                *slot = f(s, k);
            }
            return;
        }
        std::thread::scope(|scope| {
            let f = &f;
            for ((i, s), slots) in self
                .scratch
                .iter_mut()
                .enumerate()
                .take(shards)
                .zip(out.chunks_mut(chunk))
            {
                let base = i * chunk;
                scope.spawn(move || {
                    for (j, slot) in slots.iter_mut().enumerate() {
                        *slot = f(s, base + j);
                    }
                });
            }
        });
    }

    /// Pull-based chunk execution with a background prefetcher — the
    /// out-of-core scheduling mode: workers *pull* chunk indices from a
    /// shared cursor (`work(scratch, idx)` runs once per chunk with that
    /// worker's arena), while a dedicated prefetcher thread warms the
    /// chunks just ahead of the cursor (`prefetch(idx)`, e.g.
    /// `ChunkCache::prefetch`), overlapping the next chunk's disk read +
    /// decode with the current chunk's compute. The prefetcher stays at
    /// most `prefetch_depth` chunks ahead of the dispatch cursor
    /// (`0` disables it).
    ///
    /// Results come back **in chunk order**, regardless of which worker
    /// ran which chunk or in what real-time order chunks finished — so a
    /// caller that merges `Vec<T>` sequentially is bit-for-bit
    /// reproducible at any worker count. On error the first failure by
    /// **lowest chunk index** (among chunks that failed before the early
    /// stop) is returned and remaining chunks are abandoned.
    pub fn map_chunks<T, E, P, F>(
        &mut self,
        num_chunks: usize,
        prefetch_depth: usize,
        prefetch: P,
        work: F,
    ) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        P: Fn(usize) + Sync,
        F: Fn(&mut S, usize) -> Result<T, E> + Sync,
    {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::Mutex;

        if num_chunks == 0 {
            return Ok(Vec::new());
        }
        let workers = self.shards.min(num_chunks).max(1);
        if workers <= 1 && prefetch_depth == 0 {
            let s = &mut self.scratch[0];
            let mut out = Vec::with_capacity(num_chunks);
            for idx in 0..num_chunks {
                out.push(work(s, idx)?);
            }
            return Ok(out);
        }

        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let error: Mutex<Option<(usize, E)>> = Mutex::new(None);
        let slots: Vec<Mutex<Option<T>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            let (cursor, failed, error, slots) = (&cursor, &failed, &error, &slots);
            let (prefetch, work) = (&prefetch, &work);
            if prefetch_depth > 0 {
                scope.spawn(move || {
                    let mut next = 0usize;
                    // ordering: Relaxed — `failed` is an advisory
                    // early-abort hint and `cursor` only paces the
                    // prefetcher; neither publishes data (results and
                    // errors travel under their own mutexes, and
                    // `thread::scope` joins order everything at exit).
                    while next < num_chunks && !failed.load(Ordering::Relaxed) {
                        let cur = cursor.load(Ordering::Relaxed);
                        if next < cur {
                            // Workers overtook us; skip to the frontier.
                            next = cur;
                            continue;
                        }
                        if next >= cur.saturating_add(prefetch_depth) {
                            std::thread::sleep(std::time::Duration::from_micros(100));
                            continue;
                        }
                        prefetch(next);
                        next += 1;
                    }
                });
            }
            for s in self.scratch.iter_mut().take(workers) {
                scope.spawn(move || loop {
                    // ordering: Relaxed — advisory abort hint; the
                    // authoritative error is under the `error` mutex.
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    // ordering: Relaxed — the RMW itself is atomic, so
                    // every worker still draws a unique index; chunk
                    // results are handed over via the per-slot mutexes.
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= num_chunks {
                        break;
                    }
                    match work(s, idx) {
                        Ok(t) => *slots[idx].lock().unwrap() = Some(t),
                        Err(e) => {
                            // ordering: Relaxed — see the loads above;
                            // the error value itself is mutex-guarded.
                            failed.store(true, Ordering::Relaxed);
                            let mut guard = error.lock().unwrap();
                            if guard.as_ref().is_none_or(|(i, _)| idx < *i) {
                                *guard = Some((idx, e));
                            }
                            break;
                        }
                    }
                });
            }
        });
        if let Some((_, e)) = error.into_inner().unwrap() {
            return Err(e);
        }
        Ok(slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap()
                    .expect("every chunk completed without error")
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;

    #[derive(Default)]
    struct Buf {
        tmp: Vec<u64>,
        out: Vec<u64>,
    }

    #[test]
    fn map_keys_matches_serial_for_any_shard_count() {
        let serial: Vec<u64> = (0..10_000u64).map(|k| k * 3 + 1).collect();
        for shards in [1usize, 2, 3, 8, 33] {
            let mut exec: ShardedExecutor<()> = ShardedExecutor::with_shards(shards);
            let mut out = Vec::new();
            exec.map_keys(10_000, &mut out, |_, k| k as u64 * 3 + 1);
            assert_eq!(out, serial, "shards = {shards}");
        }
    }

    #[test]
    fn map_keys_reuses_output_capacity() {
        let mut exec: ShardedExecutor<()> = ShardedExecutor::with_shards(4);
        let mut out: Vec<u64> = Vec::new();
        exec.map_keys(5_000, &mut out, |_, k| k as u64);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        exec.map_keys(5_000, &mut out, |_, k| k as u64 + 1);
        assert_eq!(out.capacity(), cap);
        assert_eq!(out.as_ptr(), ptr, "steady state must not reallocate");
        assert_eq!(out[17], 18);
    }

    #[test]
    fn scratch_arenas_persist_across_rounds() {
        let mut exec: ShardedExecutor<Buf> = ShardedExecutor::with_shards(3);
        // Round 1: grow each arena's tmp buffer.
        exec.run_shards(300, |s, _, range| {
            s.tmp.clear();
            s.tmp.extend(range.map(|k| k as u64));
        });
        let caps: Vec<usize> = exec.scratch().iter().map(|s| s.tmp.capacity()).collect();
        assert!(caps.iter().all(|&c| c >= 100));
        // Round 2 with the same sizes: capacity (and thus the allocation)
        // is retained.
        exec.run_shards(300, |s, _, range| {
            s.tmp.clear();
            s.tmp.extend(range.map(|k| k as u64 * 2));
        });
        for (s, cap) in exec.scratch().iter().zip(caps) {
            assert_eq!(s.tmp.capacity(), cap);
        }
    }

    #[test]
    fn run_shards_covers_all_keys_exactly_once() {
        let mut exec: ShardedExecutor<Buf> = ShardedExecutor::with_shards(7);
        exec.run_shards(1_003, |s, _, range| {
            s.out.clear();
            s.out.extend(range.map(|k| k as u64));
        });
        let mut all: Vec<u64> = Vec::new();
        for (s, range) in exec.scratch().iter().zip(exec.shard_ranges(1_003)) {
            assert_eq!(s.out.len(), range.len());
            all.extend(&s.out);
        }
        assert_eq!(all, (0..1_003u64).collect::<Vec<_>>());
    }

    #[test]
    fn shard_ranges_are_contiguous_and_complete() {
        for (shards, len) in [(1usize, 10usize), (4, 10), (8, 3), (3, 0), (5, 5)] {
            let exec: ShardedExecutor<()> = ShardedExecutor::with_shards(shards);
            let ranges = exec.shard_ranges(len);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, len, "shards={shards} len={len}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let mut exec: ShardedExecutor<()> = ShardedExecutor::with_shards(4);
        let mut out: Vec<u32> = vec![1, 2, 3];
        exec.map_keys(0, &mut out, |_, _| 9u32);
        assert!(out.is_empty());
        exec.map_keys(1, &mut out, |_, k| k as u32 + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn new_respects_scoped_thread_override() {
        let exec: ShardedExecutor<()> = with_threads(Some(3), ShardedExecutor::new);
        assert_eq!(exec.num_shards(), 3);
    }

    #[test]
    fn map_chunks_returns_chunk_order_at_any_worker_count() {
        let expect: Vec<u64> = (0..97u64).map(|i| i * i + 7).collect();
        for shards in [1usize, 2, 3, 8] {
            for depth in [0usize, 1, 4] {
                let mut exec: ShardedExecutor<()> = ShardedExecutor::with_shards(shards);
                let got: Result<Vec<u64>, ()> =
                    exec.map_chunks(97, depth, |_| {}, |_, idx| Ok(idx as u64 * idx as u64 + 7));
                assert_eq!(got.unwrap(), expect, "shards={shards} depth={depth}");
            }
        }
    }

    #[test]
    fn map_chunks_surfaces_errors_and_stops() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for shards in [1usize, 4] {
            let mut exec: ShardedExecutor<()> = ShardedExecutor::with_shards(shards);
            let ran = AtomicUsize::new(0);
            let got: Result<Vec<u64>, String> = exec.map_chunks(
                1_000,
                2,
                |_| {},
                |_, idx| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if idx == 5 {
                        Err(format!("chunk {idx} failed"))
                    } else {
                        Ok(idx as u64)
                    }
                },
            );
            assert_eq!(got.unwrap_err(), "chunk 5 failed", "shards={shards}");
            assert!(
                ran.load(Ordering::SeqCst) < 1_000,
                "failure must stop the run early (shards={shards})"
            );
        }
    }

    #[test]
    fn map_chunks_prefetches_each_chunk_at_most_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut exec: ShardedExecutor<()> = ShardedExecutor::with_shards(2);
        let prefetched = AtomicUsize::new(0);
        let got: Result<Vec<usize>, ()> = exec.map_chunks(
            50,
            4,
            |_| {
                prefetched.fetch_add(1, Ordering::SeqCst);
            },
            |_, idx| {
                std::thread::sleep(std::time::Duration::from_micros(50));
                Ok(idx)
            },
        );
        assert_eq!(got.unwrap(), (0..50).collect::<Vec<_>>());
        let n = prefetched.load(Ordering::SeqCst);
        assert!(n <= 50, "each chunk prefetched at most once, got {n}");
        assert!(n > 0, "prefetcher must run when depth > 0");
    }

    #[test]
    fn map_chunks_empty_input() {
        let mut exec: ShardedExecutor<()> = ShardedExecutor::with_shards(4);
        let got: Result<Vec<u8>, ()> = exec.map_chunks(0, 4, |_| {}, |_, _| Ok(0));
        assert!(got.unwrap().is_empty());
    }
}
