//! Tables 2–4: the worked Obama-nationality example.
//!
//! Reconstructs Table 2's extraction matrix, derives the extractor votes
//! of Table 3 from the stated qualities, and reproduces the extraction
//! correctness posteriors and value distribution of Table 4.

use kbt_bench::table::{f3, TableWriter};
use kbt_core::math::logit;
use kbt_core::reference::{estimate_correctness, estimate_values, vote_counter};
use kbt_core::{ModelConfig, Params};
use kbt_datamodel::{CubeBuilder, ExtractorId, ItemId, Observation, SourceId, ValueId};

const USA: u32 = 0;
const KENYA: u32 = 1;
const NAMER: u32 = 2;

/// Table 2 extractions: (extractor 0-4, source 0-7, value).
fn table2_extractions() -> Vec<(u32, u32, u32)> {
    vec![
        (0, 0, USA),
        (1, 0, USA),
        (2, 0, USA),
        (3, 0, USA),
        (4, 0, KENYA), // W1
        (0, 1, USA),
        (1, 1, USA),
        (2, 1, USA),
        (4, 1, NAMER), // W2
        (0, 2, USA),
        (2, 2, USA),
        (3, 2, NAMER), // W3
        (0, 3, USA),
        (2, 3, USA),
        (3, 3, KENYA), // W4
        (0, 4, KENYA),
        (1, 4, KENYA),
        (2, 4, KENYA),
        (3, 4, KENYA),
        (4, 4, KENYA), // W5
        (0, 5, KENYA),
        (2, 5, KENYA),
        (3, 5, USA), // W6
        (2, 6, KENYA),
        (3, 6, KENYA), // W7
        (4, 7, KENYA), // W8
    ]
}

fn main() {
    let mut b = CubeBuilder::new();
    for (e, w, v) in table2_extractions() {
        b.push(Observation::certain(
            ExtractorId::new(e),
            SourceId::new(w),
            ItemId::new(0),
            ValueId::new(v),
        ));
    }
    b.reserve_ids(8, 5, 1, 11);
    let cube = b.build();

    // Table 3's stated qualities (γ = 0.25; the paper rounds Q up to .01
    // for E1/E2).
    let params = Params {
        source_accuracy: vec![0.6; 8],
        precision: vec![0.99, 0.99, 0.85, 0.33, 0.25],
        recall: vec![0.99, 0.5, 0.99, 0.33, 0.17],
        q: vec![0.01, 0.01, 0.06, 0.22, 0.17],
    };
    let cfg = ModelConfig::default();

    println!("== Table 3: extractor votes (Pre_e, Abs_e) ==");
    let votes = vote_counter(&cube, &params, &cfg);
    let mut t3 = TableWriter::new(&["", "E1", "E2", "E3", "E4", "E5"]);
    t3.row(
        std::iter::once("Pre".to_string())
            .chain(votes.presence.iter().map(|x| format!("{x:.1}")))
            .collect(),
    );
    t3.row(
        std::iter::once("Abs".to_string())
            .chain(votes.absence.iter().map(|x| format!("{x:.2}")))
            .collect(),
    );
    println!("{}", t3.render());
    println!("Paper: Pre = 4.6 3.9 2.8 .4 0 ; Abs = -4.6 -.7 -4.5 -.15 0\n");

    println!("== Table 4: extraction correctness p(Cwdv=1|X) ==");
    let alpha = vec![logit(0.5); cube.num_groups()];
    let correctness = estimate_correctness(&cube, &votes, &alpha, &cfg);
    let names = ["USA", "Kenya", "N.Amer"];
    let mut t4 = TableWriter::new(&["source", "USA", "Kenya", "N.Amer"]);
    for w in 0..8u32 {
        let mut row = vec![format!("W{}", w + 1)];
        for v in 0..3u32 {
            let cell = cube
                .groups()
                .iter()
                .enumerate()
                .find(|(_, g)| g.source == SourceId::new(w) && g.value == ValueId::new(v))
                .map(|(g, _)| f3(correctness[g]))
                .unwrap_or_else(|| "-".into());
            row.push(cell);
        }
        t4.row(row);
    }
    println!("{}", t4.render());
    println!("Paper row W1: 1 / 0 / - ; W7 Kenya ≈ .07 ; W8 Kenya ≈ 0\n");

    println!("== Table 4 (last row): value posterior p(Vd|C) ==");
    // Use the paper's idealized correctness (the true 'Value' column of
    // Table 2): W1–W4 provide USA, W5–W6 provide Kenya.
    let mut ideal = vec![0.0; cube.num_groups()];
    for (g, grp) in cube.groups().iter().enumerate() {
        let provides = match grp.source.0 {
            0..=3 => USA,
            4 | 5 => KENYA,
            _ => u32::MAX,
        };
        ideal[g] = if grp.value.0 == provides { 1.0 } else { 0.0 };
    }
    let active = vec![true; 8];
    let out = estimate_values(&cube, &ideal, &params, &cfg, &active, None);
    for v in 0..3u32 {
        println!(
            "p(Vd = {:6}) = {}",
            names[v as usize],
            f3(out.posteriors.prob(ItemId::new(0), ValueId::new(v)))
        );
    }
    println!("Paper: USA .995, Kenya .004, N.Amer 0");
}
