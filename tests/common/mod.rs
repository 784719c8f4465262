//! The scalar oracle for source-pair co-claim statistics, shared by the
//! `copydetect_engine` and `coclaim_census` suites: the detector's
//! original serial pass — expand every claim pair of every item into one
//! global map, threshold afterwards. Obviously correct, quadratic, and
//! independent of the production kernel (`kbt::datamodel::pair_counts`).

use std::collections::HashMap;

use kbt::core::CopyEvidence;
use kbt::datamodel::{ItemId, ObservationCube, PairCounts, SourceId, ValueId};

/// Every source pair with claim-pair overlap ≥ `min_overlap`, sorted by
/// `(a, b)`, by brute-force expansion.
pub fn expand_claim_pairs(cube: &ObservationCube, min_overlap: usize) -> Vec<PairCounts> {
    let mut stats: HashMap<(SourceId, SourceId), [u64; 3]> = HashMap::new();
    for d in 0..cube.num_items() {
        let claims: Vec<(SourceId, ValueId)> = cube
            .groups_of_item(ItemId::new(d as u32))
            .map(|g| (cube.groups()[g].source, cube.groups()[g].value))
            .collect();
        let mut backers: HashMap<ValueId, usize> = HashMap::new();
        for (_, v) in &claims {
            *backers.entry(*v).or_insert(0) += 1;
        }
        for i in 0..claims.len() {
            for j in i + 1..claims.len() {
                let (wa, va) = claims[i];
                let (wb, vb) = claims[j];
                if wa == wb {
                    continue;
                }
                let e = stats.entry((wa.min(wb), wa.max(wb))).or_default();
                e[0] += 1;
                if va == vb {
                    e[1] += 1;
                    // Exclusive to the pair — counted on the claims, not
                    // on the value posterior.
                    e[2] += u64::from(backers[&va] == 2);
                }
            }
        }
    }
    let mut out: Vec<PairCounts> = stats
        .into_iter()
        .filter(|(_, s)| s[0] >= min_overlap as u64)
        .map(|((a, b), [overlap, agree, agree_exclusive])| PairCounts {
            a,
            b,
            overlap,
            agree,
            agree_exclusive,
        })
        .collect();
    out.sort_unstable_by_key(|p| (p.a, p.b));
    out
}

/// The count columns of detector evidence, re-sorted by `(a, b)` — what
/// [`expand_claim_pairs`] must equal row for row.
pub fn evidence_counts(evidence: &[CopyEvidence]) -> Vec<PairCounts> {
    let mut out: Vec<PairCounts> = evidence
        .iter()
        .map(|e| PairCounts {
            a: e.a,
            b: e.b,
            overlap: e.overlap as u64,
            agree: e.agree as u64,
            agree_exclusive: e.agree_exclusive as u64,
        })
        .collect();
    out.sort_unstable_by_key(|p| (p.a, p.b));
    out
}
