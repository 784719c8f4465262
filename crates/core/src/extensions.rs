//! Extensions sketched in the paper's discussion (Section 5.4.2).
//!
//! The paper closes with concrete improvements to KBT; this module
//! implements the two that are purely endogenous:
//!
//! 1. **IDF-weighted trust** (item 2): "associate triples with an IDF
//!    (inverse document frequency), such that low-IDF triples get less
//!    weight in KBT computation" — e.g. a Hindi-movie site stating that
//!    every movie's language is Hindi should not earn trust for those
//!    trivial triples.
//! 2. **Weighted source accuracy** — the shared machinery: recompute the
//!    Eq. 28 average with an arbitrary per-triple weight (IDF, topic
//!    relevance, or any downstream signal).

use kbt_datamodel::ObservationCube;

use crate::math::clamp_quality;
use crate::model::ExtractionLayer;

/// Per-group IDF weights: `idf(g) = ln(G / freq(value(g)))`, normalized
/// to a maximum of 1. Triples whose value dominates the corpus (the
/// "language = Hindi" pattern) approach weight 0; rare, informative
/// values approach 1.
pub fn idf_weights(cube: &ObservationCube) -> Vec<f64> {
    let mut freq = vec![0u32; cube.num_values()];
    for g in cube.groups() {
        freq[g.value.index()] += 1;
    }
    let total = cube.num_groups().max(1) as f64;
    let max_idf = total.ln().max(f64::MIN_POSITIVE);
    cube.groups()
        .iter()
        .map(|g| {
            let f = freq[g.value.index()].max(1) as f64;
            ((total / f).ln() / max_idf).clamp(0.0, 1.0)
        })
        .collect()
}

/// Recompute the KBT scores with a per-group weight folded into Eq. 28:
///
/// ```text
/// A_w = Σ_g weight_g · p(C_g) · p(V = v_g | X, C_g = 1)
///       ─────────────────────────────────────────────── ,
///       Σ_g weight_g · p(C_g)
/// ```
///
/// Sources whose *entire* weighted mass falls below `min_mass` are
/// returned as `None` — trust cannot be assessed from triples the weight
/// function considers uninformative (the paper's motivation for flagging
/// trivia farms). `layer` is the extraction layer of a multi-layer fit of
/// `cube`.
pub fn weighted_kbt(
    cube: &ObservationCube,
    layer: &ExtractionLayer,
    weights: &[f64],
    min_mass: f64,
) -> Vec<Option<f64>> {
    assert_eq!(weights.len(), cube.num_groups());
    let mut num = vec![0.0; cube.num_sources()];
    let mut den = num.clone();
    for (g, grp) in cube.groups().iter().enumerate() {
        let x = weights[g] * layer.correctness[g];
        num[grp.source.index()] += x * layer.truth_given_provided[g];
        den[grp.source.index()] += x;
    }
    (num.iter().zip(den))
        .map(|(num, den)| (den >= min_mass).then(|| clamp_quality(num / den)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, MultiLayerModel, QualityInit};
    use kbt_datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId};

    /// A trivia farm states the same value for every item; a real source
    /// states distinct values. IDF must weight the farm's triples near 0
    /// and the informative ones near 1.
    fn trivia_cube() -> kbt_datamodel::ObservationCube {
        let mut b = CubeBuilder::new();
        // Source 0: 30 items, all with value 0 ("Hindi").
        for d in 0..30u32 {
            for e in 0..2u32 {
                b.push(Observation::certain(
                    ExtractorId::new(e),
                    SourceId::new(0),
                    ItemId::new(d),
                    ValueId::new(0),
                ));
            }
        }
        // Source 1: 30 items with varied values.
        for d in 30..60u32 {
            for e in 0..2u32 {
                b.push(Observation::certain(
                    ExtractorId::new(e),
                    SourceId::new(1),
                    ItemId::new(d),
                    ValueId::new(1 + d % 9),
                ));
            }
        }
        b.build()
    }

    #[test]
    fn idf_downweights_dominant_values() {
        let cube = trivia_cube();
        let w = idf_weights(&cube);
        let (mut farm, mut nf, mut real, mut nr) = (0.0, 0, 0.0, 0);
        for (g, grp) in cube.groups().iter().enumerate() {
            if grp.source == SourceId::new(0) {
                farm += w[g];
                nf += 1;
            } else {
                real += w[g];
                nr += 1;
            }
        }
        let farm = farm / nf as f64;
        let real = real / nr as f64;
        assert!(
            farm < real / 2.0,
            "trivia triples {farm:.3} must weigh far less than informative ones {real:.3}"
        );
        for &x in &w {
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn weighted_kbt_flags_sources_with_no_informative_mass() {
        let cube = trivia_cube();
        let model = MultiLayerModel::new(ModelConfig::default());
        let result = model.run_traced(&cube, &QualityInit::Default).unwrap();
        let weights = idf_weights(&cube);
        // Farm: 30 triples × idf ≈ 0.17 ≈ 5 mass; informative source:
        // 30 × ≈ 0.5 ≈ 15. A threshold between the two flags the farm.
        let layer = result.extraction.as_ref().unwrap();
        let kbt = weighted_kbt(&cube, layer, &weights, 8.0);
        // The trivia farm's whole mass is low-IDF → unassessable; the
        // informative source keeps a score.
        assert!(kbt[0].is_none(), "farm should be flagged, got {:?}", kbt[0]);
        assert!(kbt[1].is_some());
    }

    #[test]
    fn unit_weights_recover_plain_kbt() {
        let cube = trivia_cube();
        let model = MultiLayerModel::new(ModelConfig::default());
        let result = model.run_traced(&cube, &QualityInit::Default).unwrap();
        let ones = vec![1.0; cube.num_groups()];
        let layer = result.extraction.as_ref().unwrap();
        let kbt = weighted_kbt(&cube, layer, &ones, 0.0);
        for (w, weighted) in kbt.iter().enumerate() {
            if result.active_source[w] {
                let plain = result.kbt(SourceId::new(w as u32));
                let weighted = weighted.unwrap();
                assert!(
                    (plain - weighted).abs() < 1e-9,
                    "unit weights must reproduce Eq. 28: {plain} vs {weighted}"
                );
            }
        }
    }
}
