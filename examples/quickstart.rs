//! Quickstart: estimate Knowledge-Based Trust for a handful of sources.
//!
//! Builds the paper's own worked example (Table 2: eight webpages and
//! five extractors disagreeing about Barack Obama's nationality), runs
//! the multi-layer model through `TrustPipeline`, and prints the KBT
//! score of every source along with what the model believes about the
//! fact itself.
//!
//! Run with: `cargo run --release --example quickstart`

use kbt::datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt::{Model, TrustPipeline};

const VALUES: [&str; 3] = ["USA", "Kenya", "N.America"];

fn main() -> Result<(), kbt::PipelineError> {
    // The extraction matrix of Table 2: (extractor, webpage, value).
    // W1–W4 truly provide USA; W5–W6 provide Kenya; W7–W8 provide
    // nothing (every extraction from them is an extractor hallucination).
    #[rustfmt::skip]
    let extractions = [
        (0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (4, 0, 1), // W1
        (0, 1, 0), (1, 1, 0), (2, 1, 0), (4, 1, 2),            // W2
        (0, 2, 0), (2, 2, 0), (3, 2, 2),                       // W3
        (0, 3, 0), (2, 3, 0), (3, 3, 1),                       // W4
        (0, 4, 1), (1, 4, 1), (2, 4, 1), (3, 4, 1), (4, 4, 1), // W5
        (0, 5, 1), (2, 5, 1), (3, 5, 0),                       // W6
        (2, 6, 1), (3, 6, 1),                                  // W7
        (4, 7, 1),                                             // W8
    ];

    let item = ItemId::new(0); // (Barack Obama, nationality)
    let result = TrustPipeline::new()
        .observations(
            extractions
                .iter()
                .map(|&(e, w, v)| {
                    Observation::certain(
                        ExtractorId::new(e),
                        SourceId::new(w),
                        item,
                        ValueId::new(v),
                    )
                })
                .collect(),
        )
        .reserve_ids(8, 5, 1, 11)
        .model(Model::multi_layer())
        .try_run()?;

    println!("What is Barack Obama's nationality?");
    for (v, name) in VALUES.iter().enumerate() {
        println!(
            "  p(V = {name:9}) = {:.3}",
            result.posteriors.prob(item, ValueId::new(v as u32))
        );
    }

    println!("\nKnowledge-Based Trust per webpage:");
    for w in 0..8u32 {
        println!(
            "  W{}: KBT = {:.3}{}",
            w + 1,
            result.kbt(SourceId::new(w)),
            if result.active_source[w as usize] {
                ""
            } else {
                "  (too little data; default)"
            }
        );
    }

    let (precision, recall) = (
        result.extractor_precision().unwrap(),
        result.extractor_recall().unwrap(),
    );
    println!("\nExtractor quality estimates (precision / recall):");
    for e in 0..5 {
        println!(
            "  E{}: P = {:.2}, R = {:.2}",
            e + 1,
            precision[e],
            recall[e]
        );
    }
    println!(
        "\nConverged after {} iteration(s): {} (final Δ = {:.2e})",
        result.iterations(),
        result.converged(),
        result.trace.final_delta().unwrap_or(0.0)
    );
    Ok(())
}
