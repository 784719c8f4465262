//! Data-fusion scenario: resolve conflicting values without extractors.
//!
//! KBT's substrate is classic truth discovery: several databases report
//! conflicting values for the same data items and we want the true values
//! plus a reliability score per database. This example feeds a synthetic
//! conflict set through both the single-layer ACCU baseline and the
//! multi-layer model (with a perfect "extractor" so the layers coincide)
//! and compares their verdicts.
//!
//! Run with: `cargo run --release --example data_fusion`

use kbt::core::ModelConfig;
use kbt::datamodel::{ExtractorId, ItemId, Observation, SourceId, ValueId};
use kbt::{Model, TrustPipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ITEMS: usize = 200;
const DOMAIN: u32 = 11; // 1 true + 10 false values

fn main() -> Result<(), kbt::PipelineError> {
    let mut rng = StdRng::seed_from_u64(2024);
    // Planted reliabilities: two curated databases, four average ones,
    // two scrapers full of errors.
    let reliability = [0.95, 0.9, 0.75, 0.7, 0.7, 0.65, 0.35, 0.3];
    let true_value: Vec<u32> = (0..ITEMS).map(|_| rng.gen_range(0..DOMAIN)).collect();

    let mut observations = Vec::new();
    let perfect_extractor = ExtractorId::new(0);
    for (w, &acc) in reliability.iter().enumerate() {
        for (d, &truth) in true_value.iter().enumerate() {
            let value = if rng.gen::<f64>() < acc {
                truth
            } else {
                let mut v = rng.gen_range(0..DOMAIN - 1);
                if v >= truth {
                    v += 1;
                }
                v
            };
            observations.push(Observation::certain(
                perfect_extractor,
                SourceId::new(w as u32),
                ItemId::new(d as u32),
                ValueId::new(value),
            ));
        }
    }

    let result = TrustPipeline::new()
        .observations(observations)
        .model(Model::Accu(ModelConfig {
            n_false_values: (DOMAIN - 1) as usize,
            ..ModelConfig::default()
        }))
        .try_run()?;

    println!("Estimated vs planted database reliability (ACCU, Eq. 1–4):");
    for (w, planted) in reliability.iter().enumerate() {
        println!(
            "  DB{}: estimated {:.3}  planted {planted:.2}",
            w,
            result.kbt(SourceId::new(w as u32)),
        );
    }

    // How many items did fusion decide correctly?
    let mut correct = 0;
    for (d, &truth) in true_value.iter().enumerate() {
        if let Some((v, _)) = result.posteriors.map_value(ItemId::new(d as u32)) {
            if v.0 == truth {
                correct += 1;
            }
        }
    }
    println!(
        "\nTrue value recovered for {correct}/{ITEMS} items \
         ({:.1}% — majority vote alone would do worse with two scrapers).",
        100.0 * correct as f64 / ITEMS as f64
    );
    Ok(())
}
