//! Throughput-scale corpus generator for the `em_scale` benchmark.
//!
//! Unlike [`crate::paper`] and [`crate::web`], this generator does not
//! model extraction semantics — it exists to mass-produce observation
//! cubes with realistic *shape* (many sources, conflicting claims,
//! multi-extractor cells, mixed confidences) at the 1M–10M-triple scale
//! the columnar EM engine is benchmarked at. It is allocation-lean
//! (observations stream straight into a [`CubeBuilder`]) and fully
//! deterministic: the same [`ScaleConfig`] always produces the same cube
//! bit for bit, on every platform, because all randomness comes from a
//! hand-rolled SplitMix64 stream.

use kbt_datamodel::{
    CubeBuilder, ExtractorId, ItemId, Observation, ObservationCube, SourceId, ValueId,
};

/// SplitMix64 — tiny, seedable, and stable across platforms. Used instead
/// of `StdRng` so the 10M-triple stream costs a few ns per draw and never
/// changes under `rand` upgrades.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    fn next_below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Parameters for the scale generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Total number of `(source, item, value)` claims (cube groups) to
    /// generate. Cells ≈ 2× this (each claim is seen by 1–3 extractors).
    pub triples: usize,
    /// Number of distinct web sources claims are spread over.
    pub num_sources: usize,
    /// Number of distinct extractors observing the claims.
    pub num_extractors: usize,
    /// Claims per data item (the number of items is
    /// `triples / claims_per_item`, at least 1).
    pub claims_per_item: usize,
    /// Seed for the deterministic SplitMix64 stream.
    pub seed: u64,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        Self {
            triples: 1_000_000,
            num_sources: 10_000,
            num_extractors: 16,
            claims_per_item: 5,
            seed: 42,
        }
    }
}

/// Generate the cube described by `cfg`.
///
/// Shape: items each receive [`ScaleConfig::claims_per_item`] claims from
/// distinct-ish sources. Each source has a latent accuracy drawn once in
/// `[0.3, 0.95)`; a claim is the item's true value (`ValueId 0` within the
/// item's slot space) with that probability, otherwise one of 7 false
/// values. Each claim is extracted by 1–3 extractors (2 on average); 80%
/// of extractions are full-confidence, the rest carry a confidence in
/// `[0.5, 1.0)` to exercise the confidence-weighted vote path.
pub fn generate(cfg: &ScaleConfig) -> ObservationCube {
    observations(cfg).build()
}

/// The observations of [`generate`], not yet built into a cube — for a
/// caller that wants to time the build on its own.
pub fn observations(cfg: &ScaleConfig) -> CubeBuilder {
    let num_items = (cfg.triples / cfg.claims_per_item.max(1)).max(1);
    let num_sources = cfg.num_sources.max(1);
    let num_extractors = cfg.num_extractors.max(1);

    let mut rng = SplitMix64(
        cfg.seed
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(11),
    );

    // Latent per-source accuracy: what the EM rounds have to recover.
    let accuracy: Vec<f64> = (0..num_sources)
        .map(|_| 0.3 + 0.65 * rng.next_f64())
        .collect();

    let mut builder = CubeBuilder::new();
    let mut emitted = 0usize;
    'items: for d in 0..num_items {
        let item = ItemId::new(d as u32);
        // Per-item value ids live in a small global band so the distinct
        // value domain per item stays realistic (≤ 8).
        let value_base = (d as u32) % 7919 * 8;
        for _ in 0..cfg.claims_per_item.max(1) {
            if emitted >= cfg.triples {
                break 'items;
            }
            let w = rng.next_below(num_sources);
            let correct = rng.next_f64() < accuracy[w];
            let slot = if correct {
                0
            } else {
                1 + rng.next_below(7) as u32
            };
            let value = ValueId::new(value_base + slot);
            let source = SourceId::new(w as u32);
            let n_ext = 1 + rng.next_below(3);
            for _ in 0..n_ext {
                let e = ExtractorId::new(rng.next_below(num_extractors) as u32);
                let confidence = if rng.next_f64() < 0.8 {
                    1.0
                } else {
                    0.5 + 0.5 * rng.next_f64()
                };
                builder.push(Observation {
                    extractor: e,
                    source,
                    item,
                    value,
                    confidence,
                });
            }
            emitted += 1;
        }
    }
    builder
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_runs() {
        let cfg = ScaleConfig {
            triples: 2_000,
            num_sources: 50,
            num_extractors: 4,
            claims_per_item: 5,
            seed: 7,
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.num_groups(), b.num_groups());
        assert_eq!(a.num_cells(), b.num_cells());
        for (ga, gb) in a.groups().iter().zip(b.groups()) {
            assert_eq!(
                (ga.source, ga.item, ga.value),
                (gb.source, gb.item, gb.value)
            );
        }
    }

    #[test]
    fn respects_triple_budget_and_cell_ratio() {
        let cfg = ScaleConfig {
            triples: 10_000,
            ..ScaleConfig::default()
        };
        let cube = generate(&cfg);
        // Groups can be slightly below `triples` when two claims collide
        // on the same (source, item, value); never above.
        assert!(cube.num_groups() <= 10_000);
        assert!(cube.num_groups() > 9_000);
        let ratio = cube.num_cells() as f64 / 10_000.0;
        assert!((1.5..=2.5).contains(&ratio), "cells/triple = {ratio}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&ScaleConfig {
            triples: 500,
            seed: 1,
            ..ScaleConfig::default()
        });
        let b = generate(&ScaleConfig {
            triples: 500,
            seed: 2,
            ..ScaleConfig::default()
        });
        assert!(a.num_cells() != b.num_cells() || a.num_groups() != b.num_groups());
    }
}
