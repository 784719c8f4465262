//! Compact integer identifiers for the four axes of the observation cube.
//!
//! All identifiers are `u32` newtypes: the paper's largest corpus has 2B+
//! webpages, but any single inference shard works on far fewer objects, and
//! 32-bit ids halve index memory versus `usize` (see the type-size guidance
//! in the Rust perf book). Each id is an index into the corresponding
//! dense table.

use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Construct from a dense index.
            #[inline]
            pub fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// The underlying dense index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }
    };
}

define_id!(
    /// A web source `w ∈ W`: a webpage, website, or any granularity chosen
    /// by the split-and-merge algorithm of Section 4.
    SourceId,
    "W"
);
define_id!(
    /// An extractor `e ∈ E`: one of the systems (or
    /// 〈extractor, pattern, predicate, website〉 provenance vectors) that
    /// produce (subject, predicate, object) triples from webpages.
    ExtractorId,
    "E"
);
define_id!(
    /// A data item `d`: a (subject, predicate) pair such as
    /// (Barack Obama, nationality).
    ItemId,
    "D"
);
define_id!(
    /// A value `v`: the object slot of a triple; an entity, string, number,
    /// or date.
    ValueId,
    "V"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_raw_index() {
        let s = SourceId::new(42);
        assert_eq!(s.index(), 42);
        assert_eq!(s, SourceId::from(42));
    }

    #[test]
    fn ids_format_with_axis_prefix() {
        assert_eq!(format!("{}", SourceId::new(1)), "W1");
        assert_eq!(format!("{}", ExtractorId::new(2)), "E2");
        assert_eq!(format!("{}", ItemId::new(3)), "D3");
        assert_eq!(format!("{:?}", ValueId::new(4)), "V4");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(SourceId::new(1) < SourceId::new(2));
        let mut v = vec![ItemId::new(5), ItemId::new(1), ItemId::new(3)];
        v.sort();
        assert_eq!(v, vec![ItemId::new(1), ItemId::new(3), ItemId::new(5)]);
    }

    #[test]
    fn ids_are_four_bytes() {
        assert_eq!(std::mem::size_of::<SourceId>(), 4);
        assert_eq!(std::mem::size_of::<Option<ExtractorId>>(), 8);
    }
}
