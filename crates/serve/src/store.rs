//! [`SnapshotStore`]: epoch-swapped publication of immutable
//! [`TrustSnapshot`]s.
//!
//! One writer publishes; any number of readers load. The protocol is the
//! classic read-copy-publish arrangement:
//!
//! * the snapshot itself is **immutable** behind an `Arc`, so a reader
//!   can never observe a torn value — the only shared mutable state is
//!   the pointer to the current snapshot and the published-epoch counter;
//! * [`SnapshotStore::publish`] installs the new `Arc` first, then
//!   releases the epoch counter, so any reader that observes epoch `E`
//!   is guaranteed to load a snapshot with epoch ≥ `E`;
//! * steady-state reads go through a [`SnapshotReader`], which caches the
//!   `Arc` and revalidates with **one atomic load** of the epoch counter
//!   per query — no lock and no `Arc` refcount traffic on the hot path,
//!   so read throughput scales with cores instead of serializing on a
//!   shared refcount cache line.
//!
//! Epochs are strictly monotone: a publish with a non-increasing epoch is
//! rejected (the background refitter can never roll trust scores back).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::TrustSnapshot;

/// The single-writer / many-reader publication cell.
///
/// Shared as `Arc<SnapshotStore>`; hand read paths a
/// [`SnapshotReader`] (via [`Self::reader`]) rather than calling
/// [`Self::load`] per query.
///
/// # Memory ordering
///
/// The store's correctness rests on one `Release`/`Acquire` pair:
///
/// * [`publish`](Self::publish) swaps the `Arc` under the `current`
///   mutex, **then** stores the new epoch into the `epoch` counter with
///   [`Ordering::Release`]. The release makes the mutex-guarded swap —
///   and the fully built snapshot behind it — happen-before the store.
/// * [`epoch`](Self::epoch) (and [`SnapshotReader::current`]'s
///   revalidation) load the counter with [`Ordering::Acquire`]. A
///   reader that observes epoch `E` therefore synchronizes-with the
///   publish that wrote `E`, and the subsequent mutex lock in
///   [`load`](Self::load) is guaranteed to see a snapshot with epoch
///   ≥ `E` — never a stale pointer paired with a fresh counter.
///
/// No other ordering is needed: the snapshot itself is immutable behind
/// the `Arc`, so once the pointer is visible every field is.
#[derive(Debug)]
pub struct SnapshotStore {
    /// Epoch of the currently published snapshot. Written with `Release`
    /// *after* the swap; read with `Acquire` to revalidate caches.
    epoch: AtomicU64,
    /// The published snapshot. The mutex guards only the pointer swap
    /// and the `Arc` clone (nanoseconds) — never a refit and never a
    /// query.
    current: Mutex<Arc<TrustSnapshot>>,
}

impl SnapshotStore {
    /// Create a store serving `initial`.
    pub fn new(initial: TrustSnapshot) -> Self {
        Self {
            epoch: AtomicU64::new(initial.epoch()),
            current: Mutex::new(Arc::new(initial)),
        }
    }

    /// The epoch of the currently published snapshot (one atomic load).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Load the current snapshot (locks briefly to clone the `Arc`).
    /// Prefer a cached [`SnapshotReader`] on hot read paths.
    pub fn load(&self) -> Arc<TrustSnapshot> {
        // Poison recovery: the guarded state is a single `Arc` assignment
        // that cannot be observed half-done, so a publisher that panicked
        // elsewhere leaves a fully valid (merely older) snapshot behind.
        self.current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Publish a new snapshot, replacing the current one. Returns the
    /// `Arc` just installed — exactly what readers will now load.
    ///
    /// # Panics
    ///
    /// If `next.epoch()` does not strictly increase — published trust
    /// must never roll back.
    pub fn publish(&self, next: TrustSnapshot) -> Arc<TrustSnapshot> {
        let e = next.epoch();
        let installed = Arc::new(next);
        // Poison recovery: see `load` — the guard protects one
        // untearable `Arc` swap.
        let mut cur = self
            .current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // lint: allow(panic) — documented contract (see the `# Panics`
        // section): serving a rolled-back trust epoch is strictly worse
        // than dropping the refit thread that tried to.
        assert!(
            e > cur.epoch(),
            "snapshot epochs must be strictly monotone: {} -> {e}",
            cur.epoch()
        );
        *cur = Arc::clone(&installed);
        drop(cur);
        // Release after the swap: a reader observing epoch e will find a
        // snapshot at least that new behind the mutex.
        self.epoch.store(e, Ordering::Release);
        installed
    }

    /// A new epoch-cached reader handle, primed with the current
    /// snapshot.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            cached: self.load(),
            store: Arc::clone(self),
        }
    }
}

/// A per-thread read handle: caches the current snapshot and revalidates
/// it with a single atomic epoch load per query.
///
/// ```
/// # use kbt_serve::{SnapshotReader, SnapshotStore, TrustSnapshot};
/// # fn serve_queries(mut reader: SnapshotReader) {
/// let snap = reader.current(); // one atomic load on the steady state
/// let _ = snap.top_k_sources(10);
/// # }
/// ```
///
/// Cheap to clone (clones the cached `Arc`); create one per reader
/// thread.
#[derive(Debug, Clone)]
pub struct SnapshotReader {
    store: Arc<SnapshotStore>,
    cached: Arc<TrustSnapshot>,
}

impl SnapshotReader {
    /// The current snapshot: revalidates the cache against the published
    /// epoch (one `Acquire` load) and re-fetches only when a newer epoch
    /// is out. The returned reference is stable until the next
    /// `current()` call on this reader, and epochs observed through one
    /// reader are monotone.
    pub fn current(&mut self) -> &TrustSnapshot {
        let published = self.store.epoch();
        if published != self.cached.epoch() {
            let fresh = self.store.load();
            // The store's epoch counter trails the swap: never replace a
            // cached snapshot with an older one.
            if fresh.epoch() >= self.cached.epoch() {
                self.cached = fresh;
            }
        }
        &self.cached
    }

    /// The store this reader was created from.
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{RefitMode, SnapshotProvenance};
    use kbt_core::{FusionModel, ModelConfig, MultiLayerModel, QualityInit};
    use kbt_datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId};

    fn snapshot(epoch: u64) -> TrustSnapshot {
        let mut b = CubeBuilder::new();
        for w in 0..3u32 {
            b.push(Observation::certain(
                ExtractorId::new(0),
                SourceId::new(w),
                ItemId::new(0),
                ValueId::new(0),
            ));
        }
        let cube = b.build();
        let report = MultiLayerModel::new(ModelConfig {
            threads: Some(1),
            ..ModelConfig::default()
        })
        .fit(&cube, &QualityInit::Default);
        let triples = cube
            .groups()
            .iter()
            .map(|g| (g.source, g.item, g.value))
            .collect();
        TrustSnapshot::from_report(
            &report,
            triples,
            epoch,
            SnapshotProvenance {
                refit_mode: RefitMode::Cold,
                deltas_applied: epoch as usize,
                iterations: report.iterations(),
                converged: report.converged(),
                coverage: report.coverage(),
            },
        )
    }

    #[test]
    fn publish_swaps_and_readers_revalidate() {
        let store = Arc::new(SnapshotStore::new(snapshot(0)));
        let mut reader = store.reader();
        assert_eq!(reader.current().epoch(), 0);
        assert_eq!(store.epoch(), 0);
        store.publish(snapshot(1));
        assert_eq!(store.epoch(), 1);
        assert_eq!(reader.current().epoch(), 1, "reader picks up the swap");
        // A reader created after the swap starts on the new epoch.
        assert_eq!(store.reader().current().epoch(), 1);
        // Loads hand out the same snapshot the readers see.
        assert_eq!(store.load().epoch(), 1);
    }

    #[test]
    #[should_panic(expected = "strictly monotone")]
    fn non_monotone_publish_is_rejected() {
        let store = SnapshotStore::new(snapshot(3));
        store.publish(snapshot(3));
    }

    #[test]
    fn reader_epochs_are_monotone_across_publishes() {
        let store = Arc::new(SnapshotStore::new(snapshot(0)));
        let mut reader = store.reader();
        let mut last = reader.current().epoch();
        for e in 1..=5 {
            store.publish(snapshot(e));
            let seen = reader.current().epoch();
            assert!(seen >= last, "epoch went backwards: {last} -> {seen}");
            assert!(reader.current().verify_integrity());
            last = seen;
        }
        assert_eq!(last, 5);
    }
}
