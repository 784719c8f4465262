//! Per-item value posteriors `p(V_d = v | X)` under the single-truth model.
//!
//! For each data item the posterior is stored over its *observed* values;
//! the remaining probability mass is spread uniformly over the unobserved
//! domain values (Example 3.2: "the missing mass is assigned uniformly to
//! the other values in the domain").

use kbt_datamodel::{ItemId, ValueId};

/// Columnar storage of all item posteriors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ItemPosteriors {
    /// `offsets[d]..offsets[d+1]` indexes `entries` for item `d`.
    offsets: Vec<u32>,
    /// `(value, probability)` pairs, sorted by value within each item.
    entries: Vec<(ValueId, f64)>,
    /// Per item: probability of *each* unobserved domain value.
    unobserved: Vec<f64>,
}

impl ItemPosteriors {
    /// Assemble from per-item slices. `per_item[d]` lists the observed
    /// values of item `d` with their probabilities; `unobserved[d]` is the
    /// probability of each unobserved domain value.
    pub fn from_parts(per_item: Vec<Vec<(ValueId, f64)>>, unobserved: Vec<f64>) -> Self {
        assert_eq!(per_item.len(), unobserved.len());
        let mut offsets = Vec::with_capacity(per_item.len() + 1);
        offsets.push(0u32);
        let total: usize = per_item.iter().map(Vec::len).sum();
        let mut entries = Vec::with_capacity(total);
        for mut vs in per_item {
            vs.sort_unstable_by_key(|(v, _)| *v);
            entries.extend(vs);
            offsets.push(entries.len() as u32);
        }
        Self {
            offsets,
            entries,
            unobserved,
        }
    }

    /// Assemble from already-flat columnar parts: `offsets` has one entry
    /// per item plus a trailing total, `entries` holds each item's
    /// `(value, probability)` pairs **already sorted by value**, and
    /// `unobserved[d]` is the per-unobserved-value mass of item `d`.
    ///
    /// This is the zero-copy constructor the sharded E-step uses — shard
    /// workers append entry runs in item order, so no per-item `Vec`
    /// ever exists.
    pub fn from_flat_parts(
        offsets: Vec<u32>,
        entries: Vec<(ValueId, f64)>,
        unobserved: Vec<f64>,
    ) -> Self {
        assert_eq!(offsets.len(), unobserved.len() + 1);
        assert_eq!(*offsets.last().unwrap_or(&0) as usize, entries.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!((0..unobserved.len()).all(|d| {
            let run = &entries[offsets[d] as usize..offsets[d + 1] as usize];
            run.windows(2).all(|w| w[0].0 < w[1].0)
        }));
        Self {
            offsets,
            entries,
            unobserved,
        }
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Observed `(value, probability)` pairs of item `d`, sorted by value.
    pub fn observed(&self, d: ItemId) -> &[(ValueId, f64)] {
        let lo = self.offsets[d.index()] as usize;
        let hi = self.offsets[d.index() + 1] as usize;
        &self.entries[lo..hi]
    }

    /// `p(V_d = v | X)`; unobserved values get the item's uniform
    /// leftover mass.
    pub fn prob(&self, d: ItemId, v: ValueId) -> f64 {
        let obs = self.observed(d);
        match obs.binary_search_by_key(&v, |(val, _)| *val) {
            Ok(i) => obs[i].1,
            Err(_) => self.unobserved[d.index()],
        }
    }

    /// The MAP value `V̂_d = argmax p(V_d | X)` among observed values, with
    /// its probability; `None` if the item has no observed value, or if
    /// every observed value is less probable than an unobserved one.
    pub fn map_value(&self, d: ItemId) -> Option<(ValueId, f64)> {
        let obs = self.observed(d);
        let best = obs.iter().max_by(|a, b| a.1.total_cmp(&b.1))?;
        if best.1 < self.unobserved[d.index()] {
            return None;
        }
        Some(*best)
    }

    /// Sum of observed probabilities of item `d` (≤ 1; the remainder is
    /// unobserved mass).
    pub fn observed_mass(&self, d: ItemId) -> f64 {
        self.observed(d).iter().map(|(_, p)| p).sum()
    }

    /// Probability of *each* unobserved domain value of item `d` — the
    /// uniform leftover mass [`Self::prob`] answers with for values
    /// outside [`Self::observed`]. Exposed so exports (e.g. a serving
    /// snapshot's integrity digest) can cover the full posterior payload.
    pub fn unobserved_mass_per_value(&self, d: ItemId) -> f64 {
        self.unobserved[d.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u32) -> ValueId {
        ValueId::new(x)
    }

    #[test]
    fn probabilities_are_retrievable_by_value() {
        let p = ItemPosteriors::from_parts(
            vec![vec![(v(5), 0.7), (v(2), 0.2)], vec![(v(0), 1.0)]],
            vec![0.01, 0.0],
        );
        assert_eq!(p.num_items(), 2);
        assert_eq!(p.prob(ItemId::new(0), v(5)), 0.7);
        assert_eq!(p.prob(ItemId::new(0), v(2)), 0.2);
        assert_eq!(p.prob(ItemId::new(0), v(9)), 0.01); // unobserved
        assert_eq!(p.prob(ItemId::new(1), v(0)), 1.0);
    }

    #[test]
    fn observed_entries_are_sorted_by_value() {
        let p = ItemPosteriors::from_parts(vec![vec![(v(9), 0.1), (v(1), 0.9)]], vec![0.0]);
        let obs = p.observed(ItemId::new(0));
        assert_eq!(obs[0].0, v(1));
        assert_eq!(obs[1].0, v(9));
    }

    #[test]
    fn map_value_prefers_highest_probability() {
        let p = ItemPosteriors::from_parts(vec![vec![(v(1), 0.3), (v(2), 0.6)]], vec![0.01]);
        assert_eq!(p.map_value(ItemId::new(0)), Some((v(2), 0.6)));
    }

    #[test]
    fn map_value_yields_none_when_unobserved_dominates() {
        // All observed values have anti-votes; an unobserved value is the
        // single-truth MAP.
        let p = ItemPosteriors::from_parts(vec![vec![(v(1), 0.05)]], vec![0.09]);
        assert_eq!(p.map_value(ItemId::new(0)), None);
        let empty = ItemPosteriors::from_parts(vec![vec![]], vec![0.1]);
        assert_eq!(empty.map_value(ItemId::new(0)), None);
    }

    #[test]
    fn observed_mass_sums_entries() {
        let p = ItemPosteriors::from_parts(vec![vec![(v(1), 0.3), (v(2), 0.6)]], vec![0.01]);
        assert!((p.observed_mass(ItemId::new(0)) - 0.9).abs() < 1e-12);
    }
}
