//! The benchmark's own seeded corpus generator.
//!
//! Self-contained on purpose (no `kbt-synth`, no `rand`): the program
//! under test receives only the generated observations, and the same
//! `--seed` yields the same bytes on every machine.
//!
//! Shape — a long-tail web: the source of each claim is `⌊S·u³⌋` for a
//! uniform `u`, so a head of large sources co-claims heavily above a
//! long tail of small ones; every item carries [`CLAIMS_PER_ITEM`]
//! claims from distinct sources, each extracted by 1–3 extractors with
//! 80% of confidences at 1.0; each source has a planted accuracy in
//! `[0.3, 0.95)`; and a small clique of tail sources each copies its own
//! mid-sized origin source, mistakes included, so copy detection has
//! something to find. (One origin per copier: the detector's signal is a
//! value shared by exactly two sources, which a shared origin would blur.)

use kbt_datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};

/// Claims (distinct sources) generated per data item.
pub const CLAIMS_PER_ITEM: u32 = 5;
/// Values in every item's domain: one true, [`DOMAIN`]` - 1` false — the
/// `n = 10` false values the model's default configuration assumes.
pub const DOMAIN: u32 = 11;
/// Size of the planted copier clique.
pub const COPIERS: u32 = 4;
/// Planted accuracy of a copied source: low enough that its mistakes,
/// which its copier repeats, are plentiful.
const ORIGIN_ACCURACY: f64 = 0.6;
/// Probability that a copier repeats one of the origin's claims.
const COPY_RATE: f64 = 0.9;

/// SplitMix64: the whole generator's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream `stream` of `seed`, so that e.g. delta
    /// batch 17 does not depend on how many batches were drawn before.
    pub fn fork(seed: u64, stream: u64) -> Self {
        Self(mix(seed ^ mix(stream.wrapping_add(0x9e37_79b9_7f4a_7c15))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * n as u64) >> 32) as u32
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Size of a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Target number of `(source, item, value)` triples; the item count
    /// is `triples / CLAIMS_PER_ITEM`, and the copier clique adds a few
    /// triples on top ([`Corpus::triples`] is the exact count).
    pub triples: usize,
    /// Number of web sources `S`.
    pub sources: u32,
    /// Number of extractors (at least 3).
    pub extractors: u32,
}

/// A generated corpus and the facts planted in it.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The size it was generated at.
    pub spec: CorpusSpec,
    /// The seed it was generated from.
    pub seed: u64,
    /// The input of the system under test.
    pub observations: Vec<Observation>,
    /// Exact number of distinct `(source, item, value)` triples.
    pub triples: usize,
    /// Number of items (ids `0..items`); delta batches continue above.
    pub items: u32,
    /// Planted accuracy per source.
    pub accuracy: Vec<f64>,
    /// The planted `(origin, copier)` pairs: origins at ranks `S/50 + i`,
    /// copiers the last [`COPIERS`] source ids.
    pub copier_pairs: Vec<(SourceId, SourceId)>,
}

/// The true value of `item` under `seed` — a pure function, so base
/// corpus and delta batches agree without sharing state.
pub fn truth(seed: u64, item: u32) -> ValueId {
    ValueId::new(
        (mix(seed ^ (item as u64).wrapping_mul(0xd6e8_feb8_6659_fd93)) % DOMAIN as u64) as u32,
    )
}

fn planted_accuracies(seed: u64, spec: &CorpusSpec) -> Vec<f64> {
    let mut rng = SplitMix64::fork(seed, 1);
    let mut accuracy: Vec<f64> = (0..spec.sources).map(|_| 0.3 + 0.65 * rng.unit()).collect();
    for (origin, _) in copier_pairs(spec) {
        accuracy[origin.index()] = ORIGIN_ACCURACY;
    }
    accuracy
}

/// Origins sit at ranks `S/50 + i`: large enough to share hundreds of
/// claims with their copier, small enough not to be hubs.
fn copier_pairs(spec: &CorpusSpec) -> Vec<(SourceId, SourceId)> {
    (0..COPIERS)
        .map(|i| {
            (
                SourceId::new(spec.sources / 50 + i),
                SourceId::new(spec.sources - COPIERS + i),
            )
        })
        .collect()
}

/// Draw the claims of one item into `out`. Each copier in `copiers`
/// repeats its origin's claim when the origin is among the item's
/// sources.
fn item_claims(
    rng: &mut SplitMix64,
    seed: u64,
    spec: &CorpusSpec,
    accuracy: &[f64],
    item: u32,
    copiers: &[(SourceId, SourceId)],
    out: &mut Vec<Observation>,
) -> usize {
    let truth = truth(seed, item);
    let mut sources = [u32::MAX; CLAIMS_PER_ITEM as usize];
    let mut values = [truth; CLAIMS_PER_ITEM as usize];
    let mut claims = 0usize;
    for slot in 0..CLAIMS_PER_ITEM as usize {
        // Distinct sources per item; a handful of redraws is enough at
        // any size but the tiniest, where the claim is simply dropped.
        let mut source = None;
        for _ in 0..8 {
            let u = rng.unit();
            let w = ((spec.sources as f64 * u * u * u) as u32).min(spec.sources - 1);
            if !sources[..slot].contains(&w) {
                source = Some(w);
                break;
            }
        }
        let Some(w) = source else { continue };
        sources[slot] = w;
        let value = if rng.unit() < accuracy[w as usize] {
            truth
        } else {
            // One of the DOMAIN - 1 false values, uniformly.
            ValueId::new((truth.0 + 1 + rng.below(DOMAIN - 1)) % DOMAIN)
        };
        let extractors = 1 + rng.below(3);
        push_extractions(rng, spec, SourceId::new(w), item, value, extractors, out);
        values[slot] = value;
        claims += 1;
    }
    for &(origin, copier) in copiers {
        let Some(slot) = sources.iter().position(|&w| w == origin.0) else {
            continue;
        };
        if rng.unit() < COPY_RATE && !sources.contains(&copier.0) {
            push_extractions(rng, spec, copier, item, values[slot], 1, out);
            claims += 1;
        }
    }
    claims
}

/// `k` distinct extractors extract `(source, item, value)`.
fn push_extractions(
    rng: &mut SplitMix64,
    spec: &CorpusSpec,
    source: SourceId,
    item: u32,
    value: ValueId,
    k: u32,
    out: &mut Vec<Observation>,
) {
    let first = rng.below(spec.extractors);
    // Consecutive ids from a random start are distinct for k ≤ extractors.
    for j in 0..k {
        let confidence = if rng.unit() < 0.8 {
            1.0
        } else {
            0.5 + 0.5 * rng.unit()
        };
        out.push(Observation {
            extractor: ExtractorId::new((first + j) % spec.extractors),
            source,
            item: ItemId::new(item),
            value,
            confidence,
        });
    }
}

/// Generate the base corpus of `spec` from `seed`.
pub fn corpus(seed: u64, spec: CorpusSpec) -> Corpus {
    corpus_into(
        seed,
        spec,
        Vec::with_capacity(spec.triples * 2 + spec.triples / 64),
    )
}

/// [`corpus`] into a buffer the caller already owns (cleared first). The
/// repeated set-ups of the fit workloads reuse one buffer, so that what
/// they time is the generator and not the kernel handing out 64 MB of
/// fresh pages, which on this host swings by 20% with the state of the
/// machine.
pub fn corpus_into(seed: u64, spec: CorpusSpec, mut observations: Vec<Observation>) -> Corpus {
    assert!(
        spec.extractors >= 3 && spec.sources > COPIERS + 50,
        "corpus spec too small"
    );
    observations.clear();
    let accuracy = planted_accuracies(seed, &spec);
    let copier_pairs = copier_pairs(&spec);
    let items = (spec.triples / CLAIMS_PER_ITEM as usize) as u32;
    let mut rng = SplitMix64::fork(seed, 2);
    let mut triples = 0usize;
    for item in 0..items {
        triples += item_claims(
            &mut rng,
            seed,
            &spec,
            &accuracy,
            item,
            &copier_pairs,
            &mut observations,
        );
    }
    Corpus {
        spec,
        seed,
        observations,
        triples,
        items,
        accuracy,
        copier_pairs,
    }
}

impl Corpus {
    /// Delta batch `index`: `claims` claims about `claims /
    /// CLAIMS_PER_ITEM` items nobody has mentioned yet. Batches own
    /// disjoint item ranges above the base corpus, so no batch can
    /// collide with another or with a retraction.
    pub fn delta_batch(&self, index: u32, claims: u32) -> Vec<Observation> {
        let per_batch = claims / CLAIMS_PER_ITEM;
        let first = self.items + index * per_batch;
        let mut rng = SplitMix64::fork(self.seed, 1000 + index as u64);
        let mut out = Vec::with_capacity(claims as usize * 2);
        for item in first..first + per_batch {
            item_claims(
                &mut rng,
                self.seed,
                &self.spec,
                &self.accuracy,
                item,
                &[],
                &mut out,
            );
        }
        out
    }
}

/// The first `n` distinct triples of a delta batch — what a retraction
/// of that batch removes. A claim's extractions are adjacent in a batch,
/// so adjacent dedup is exact.
pub fn retraction_of(batch: &[Observation], n: usize) -> Vec<(SourceId, ItemId, ValueId)> {
    let mut keys: Vec<(SourceId, ItemId, ValueId)> =
        batch.iter().map(|o| (o.source, o.item, o.value)).collect();
    keys.dedup();
    keys.truncate(n);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbt_datamodel::{CoClaimIndex, CubeBuilder};

    const SPEC: CorpusSpec = CorpusSpec {
        triples: 100_000,
        sources: 5_000,
        extractors: 16,
    };

    fn bits(obs: &[Observation]) -> Vec<(u32, u32, u32, u32, u64)> {
        obs.iter()
            .map(|o| {
                (
                    o.extractor.0,
                    o.source.0,
                    o.item.0,
                    o.value.0,
                    o.confidence.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_bits_other_seed_other_bits() {
        let a = corpus(42, SPEC);
        let b = corpus(42, SPEC);
        assert_eq!(bits(&a.observations), bits(&b.observations));
        assert_eq!(a.triples, b.triples);
        assert_eq!(bits(&a.delta_batch(17, 500)), bits(&b.delta_batch(17, 500)));
        let c = corpus(7, SPEC);
        assert_ne!(bits(&a.observations), bits(&c.observations));
    }

    #[test]
    fn delta_batches_do_not_depend_on_draw_order() {
        let a = corpus(42, SPEC);
        let late = a.delta_batch(9, 500);
        let _ = a.delta_batch(3, 500);
        assert_eq!(bits(&late), bits(&a.delta_batch(9, 500)));
    }

    #[test]
    fn delta_and_retraction_item_ranges_are_disjoint() {
        let a = corpus(42, SPEC);
        let mut last = a.items;
        for index in 0..20 {
            let batch = a.delta_batch(index, 500);
            let lo = batch.iter().map(|o| o.item.0).min().unwrap();
            let hi = batch.iter().map(|o| o.item.0).max().unwrap();
            assert!(lo >= last, "batch {index} overlaps an earlier item range");
            last = hi + 1;
            let keys = retraction_of(&batch, 100);
            assert_eq!(keys.len(), 100);
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 100, "retraction keys are distinct triples");
        }
    }

    #[test]
    fn claims_per_item_come_from_distinct_sources() {
        let a = corpus(42, SPEC);
        let mut claims: Vec<(u32, u32)> = a
            .observations
            .iter()
            .map(|o| (o.item.0, o.source.0))
            .collect();
        claims.sort_unstable();
        claims.dedup();
        assert_eq!(claims.len(), a.triples, "one value per (source, item)");
        assert!(a.triples >= SPEC.triples);
    }

    /// The shape facts the fit workloads rely on, at their size: a heavy
    /// head over a long tail, enough co-claiming pairs to make copy
    /// detection work, and copiers that really share their origin's
    /// claims.
    #[test]
    fn long_tail_shape_and_copier_clique() {
        const SPEC: CorpusSpec = CorpusSpec {
            triples: 1_000_000,
            sources: 10_000,
            extractors: 16,
        };
        let a = corpus(42, SPEC);
        let mut b = CubeBuilder::with_capacity(a.observations.len());
        for o in &a.observations {
            b.push(*o);
        }
        let cube = b.build();
        assert_eq!(cube.num_groups(), a.triples);
        let sizes: Vec<usize> = (0..SPEC.sources)
            .map(|w| cube.source_size(SourceId::new(w)))
            .collect();
        let largest = *sizes.iter().max().unwrap();
        let smallest = sizes.iter().copied().filter(|&n| n > 0).min().unwrap();
        assert!(
            largest >= 100 * smallest,
            "largest {largest} vs smallest {smallest}"
        );
        let pairs = CoClaimIndex::build(&cube).candidate_pairs(5);
        assert!(
            pairs.len() >= 10_000,
            "only {} candidate pairs",
            pairs.len()
        );
        for (origin, copier) in &a.copier_pairs {
            let shared = pairs
                .iter()
                .find(|p| p.a == *origin && p.b == *copier)
                .map_or(0, |p| p.overlap);
            assert!(
                shared >= 20,
                "copier {copier:?} shares only {shared} claims with {origin:?}"
            );
        }
    }
}
