//! A checkpoint of a cube of several item frames decodes to the cube it
//! was written from, which edits the same way.

use kbt_core::ModelConfig;
use kbt_datamodel::{
    CubeBuilder, ExtractorId, ItemId, Observation, ObservationCube, SourceId, ValueId,
};
use kbt_pipeline::{Model, TrustPipeline};
use kbt_serve::{RefitMode, TrustServer};
use kbt_store::{decode_checkpoint, encode_checkpoint};

fn obs(e: u32, w: u32, d: u32, v: u32, confidence: f64) -> Observation {
    Observation {
        extractor: ExtractorId::new(e),
        source: SourceId::new(w),
        item: ItemId::new(d),
        value: ValueId::new(v),
        confidence,
    }
}

/// A cold single-threaded multi-layer fit of `corpus`, served.
fn fitted_server(corpus: Vec<Observation>) -> TrustServer {
    let model = Model::MultiLayer(ModelConfig {
        threads: Some(1),
        ..ModelConfig::default()
    });
    TrustServer::from_pipeline(
        TrustPipeline::new().observations(corpus).model(model),
        RefitMode::Cold,
    )
    .unwrap()
}

/// The same cube, bit for bit: the key column, the meta frame and every
/// item frame, confidences compared as bits.
fn assert_same_cube(a: &ObservationCube, b: &ObservationCube, what: &str) {
    assert_eq!(a.groups(), b.groups(), "{what}: groups");
    assert_eq!(a.chunked().meta, b.chunked().meta, "{what}: meta");
    let frames = |c: &ObservationCube| {
        let frames = c.chunked().frames.iter().cloned().map(|mut f| {
            let confidence = std::mem::take(&mut f.cell_confidence);
            (
                f,
                confidence.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
            )
        });
        frames.collect::<Vec<_>>()
    };
    assert!(frames(a) == frames(b), "{what}: frames");
}

/// A cube of more than 8 Ki cells spans several frames of the default
/// partition. Its checkpoint decodes to the same key column, meta and
/// frames; to the cube `CubeBuilder` builds from the cube's own cells (an
/// oracle that shares no code with the frame codec); and a delta and a
/// retraction of the decoded cube write the same bits as of the original.
#[test]
fn a_multi_frame_cube_decodes_to_itself() {
    let mut corpus = Vec::new();
    for w in 0..240u32 {
        for d in 0..60u32 {
            let v = (w * 7 + d * 3) % 5;
            for e in (0..3u32).filter(|e| (w + d + e) % 3 != 0) {
                corpus.push(obs(e, w, d, v, f64::from((w + d * e) % 9) / 8.0));
            }
        }
    }
    let server = fitted_server(corpus);
    let cube = server.session().cube();
    assert!(cube.num_cells() > 8 * 1024, "{} cells", cube.num_cells());
    // 28,800 cells: chunks of nine 480-cell items, the first past 4 Ki.
    let frames = cube.chunked().frames.len();
    assert_eq!(frames, 7);
    let bytes = encode_checkpoint(&server.handle().snapshot(), cube, 7);
    let decoded = decode_checkpoint(&bytes, 7).unwrap().cube;
    assert_eq!(decoded.chunked().frames.len(), frames);
    assert_same_cube(&decoded, cube, "decoded");

    let mut b = CubeBuilder::new();
    for (_, group, cells) in cube.iter_with_cells() {
        for c in cells {
            b.push(Observation {
                extractor: c.extractor,
                source: group.source,
                item: group.item,
                value: group.value,
                confidence: c.confidence,
            });
        }
    }
    let spaces = [
        cube.num_sources(),
        cube.num_extractors(),
        cube.num_items(),
        cube.num_values(),
    ];
    let [w, e, d, v] = spaces.map(|n| n as u32);
    b.reserve_ids(w, e, d, v);
    assert_same_cube(&decoded, &b.build(), "rebuilt from its cells");

    let delta = [obs(1, 3, 5, 9, 0.75), obs(2, 250, 70, 1, 0.5)];
    let gone = [cube.groups()[0], cube.groups()[cube.num_groups() / 2]];
    let gone = gone.map(|g| (g.source, g.item, g.value));
    assert_same_cube(
        &decoded.apply_delta(&delta),
        &cube.apply_delta(&delta),
        "delta",
    );
    assert_same_cube(&decoded.retract(&gone), &cube.retract(&gone), "retract");
}
