//! Raw observations.
//!
//! The paper represents a (subject, predicate, object) knowledge triple as a
//! (data item, value) pair where the data item is (subject, predicate)
//! (Section 2.1). An [`Observation`] is one cell of the observation matrix
//! `X_{ewdv}`: extractor `e` extracted value `v` for item `d` on source `w`,
//! with a confidence in `[0, 1]` (Section 3.5 treats confidences as soft
//! evidence `p(X_ewdv = 1)`).

use crate::ids::{ExtractorId, ItemId, SourceId, ValueId};

/// One cell of the observation matrix `X_{ewdv}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// The extractor that produced this extraction.
    pub extractor: ExtractorId,
    /// The web source the extraction came from.
    pub source: SourceId,
    /// The data item.
    pub item: ItemId,
    /// The extracted value.
    pub value: ValueId,
    /// Extraction confidence `p(X_ewdv = 1) ∈ [0, 1]`. Extractors that do
    /// not report confidence use `1.0` (Section 5.1.2).
    pub confidence: f64,
}

impl Observation {
    /// A full-confidence observation.
    pub fn certain(extractor: ExtractorId, source: SourceId, item: ItemId, value: ValueId) -> Self {
        Self {
            extractor,
            source,
            item,
            value,
            confidence: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certain_observation_has_unit_confidence() {
        let o = Observation::certain(
            ExtractorId::new(0),
            SourceId::new(1),
            ItemId::new(2),
            ValueId::new(3),
        );
        assert_eq!(o.confidence, 1.0);
        assert_eq!(
            (o.source, o.item, o.value),
            (SourceId::new(1), ItemId::new(2), ValueId::new(3))
        );
    }
}
