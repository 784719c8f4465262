//! `fit_resident` and `fit_streamed`: the paper's batch job.
//!
//! One rep is observations → `CubeBuilder` → `TrustPipeline` →
//! `FusionReport`, timed from outside. The resident workload follows
//! each fit with post-hoc copy detection (its second operation); the
//! streamed one runs the same pipeline call with
//! `CubeResidency::Streamed` (4 resident chunks), and its second
//! operation is the cube build alone — the part of the job residency
//! does not touch, which must stay flat when chunk I/O changes. Same
//! corpus, same kernels, different chunk source: a kernel gain shows on
//! both workloads, a chunk-I/O gain on the streamed one only, and
//! neither on the serving workloads.
//!
//! (Store preparation — chunk → write → open — would be the natural
//! second operation of the streamed workload, but a 60 MB write into the
//! page cache ranged 243–310 ms from run to run; it is a traced per-layer
//! number instead.)

use std::cell::RefCell;
use std::path::Path;
use std::time::Instant;

use kbt_core::{
    detect_copies_from_accuracy, CopyDetectConfig, CopyEvidence, FusionModel, FusionReport,
    ModelConfig, MultiLayerModel, QualityInit,
};
use kbt_datamodel::{
    ChunkedCube, ChunkingConfig, CoClaimIndex, FileChunkStore, ObservationCube, SourceId,
};
use kbt_pipeline::{CubeResidency, Model, PipelineRun, TrustPipeline};

use super::{
    build_cube, checksum, record_peak_rss, RunConfig, SetupClock, ENGINE_THREADS, KBT_MAE_BOUND,
    MAE_MIN_CLAIMS,
};
use crate::gen::{self, Corpus, COPIERS};
use crate::probes;
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stats::median;

/// Resident chunks per cache in the streamed fit.
const RESIDENT_CHUNKS: usize = 4;
/// A window never closes on fewer reps than this.
const MIN_REPS: usize = 3;

/// The two bit-exact digests of a fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sums {
    trust: u64,
    truth: u64,
}

impl Sums {
    fn of(report: &FusionReport) -> Self {
        Self {
            trust: checksum(report.source_trust()),
            truth: checksum(report.truth_of_group()),
        }
    }
}

fn pipeline(cube: ObservationCube, store: Option<&Path>) -> TrustPipeline {
    let p = TrustPipeline::new()
        .cube(cube)
        .model(Model::multi_layer())
        .threads(ENGINE_THREADS);
    match store {
        None => p,
        Some(path) => p.residency(CubeResidency::Streamed {
            path: path.to_path_buf(),
            max_resident_chunks: RESIDENT_CHUNKS,
        }),
    }
}

fn detect(run: &PipelineRun) -> Vec<CopyEvidence> {
    kbt_flume::with_threads(Some(ENGINE_THREADS), || {
        detect_copies_from_accuracy(
            &run.cube,
            run.report.source_trust(),
            &CopyDetectConfig::default(),
        )
    })
}

/// Mean |KBT − planted accuracy| over the sources with enough claims to
/// estimate one (the copiers excluded: their claims are not their own).
fn kbt_mae(corpus: &Corpus, run: &PipelineRun) -> (f64, usize) {
    let honest = corpus.spec.sources - COPIERS;
    let errors: Vec<f64> = (0..honest)
        .map(SourceId::new)
        .filter(|&w| run.cube.source_size(w) >= MAE_MIN_CLAIMS)
        .map(|w| (run.report.kbt(w) - corpus.accuracy[w.index()]).abs())
        .collect();
    (
        errors.iter().sum::<f64>() / errors.len().max(1) as f64,
        errors.len(),
    )
}

/// Every planted `(origin, copier)` pair ranks inside the top
/// `2 · COPIERS` of the evidence.
fn copiers_on_top(corpus: &Corpus, evidence: &[CopyEvidence]) -> bool {
    let top = &evidence[..evidence.len().min(2 * COPIERS as usize)];
    corpus
        .copier_pairs
        .iter()
        .all(|&(origin, copier)| top.iter().any(|e| e.a == origin && e.b == copier))
}

/// What one window measured.
#[derive(Default)]
struct Window {
    fit_wall: Vec<f64>,
    aux_wall: Vec<f64>,
    read_bytes: Vec<f64>,
    pairs_scored: usize,
}

struct Fit<'a> {
    corpus: &'a Corpus,
    store: Option<&'a Path>,
    /// A second store file for the traced run's store preparation, so it
    /// never touches the one the pipeline wrote.
    prepared: &'a Path,
    want: Sums,
}

impl Fit<'_> {
    fn window(&self, seconds: f64, tr: &mut Tracer, out: &mut Outcome) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        while w.fit_wall.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
            tr.next_op();
            let rep = tr.enter("bench.rep");
            let read_before = if tr.is_on() {
                crate::sys::read_bytes()
            } else {
                0
            };
            let t = Instant::now();
            let cube = tr.time("datamodel.cube_build", || {
                build_cube(&self.corpus.observations)
            });
            let build_wall = t.elapsed().as_secs_f64();
            let run = tr.time("pipeline.try_run_detailed", || {
                pipeline(cube, self.store).try_run_detailed()
            });
            let fit_wall = t.elapsed().as_secs_f64();
            let run = match run {
                Ok(run) => run,
                Err(e) => {
                    out.check("fit", false, e.to_string());
                    tr.exit(rep);
                    break;
                }
            };
            if tr.is_on() {
                w.read_bytes
                    .push((crate::sys::read_bytes() - read_before) as f64);
            }
            out.ops(1, u64::from(Sums::of(&run.report) != self.want));
            w.fit_wall.push(fit_wall);

            match self.store {
                None => {
                    let t = Instant::now();
                    let evidence = tr.time("core.detect_copies_from_accuracy", || detect(&run));
                    w.aux_wall.push(t.elapsed().as_secs_f64());
                    w.pairs_scored = evidence.len();
                    out.ops(1, u64::from(!copiers_on_top(self.corpus, &evidence)));
                }
                Some(_) => {
                    w.aux_wall.push(build_wall);
                    if tr.is_on() {
                        out.ops(1, u64::from(self.prepare_store(&run.cube, tr).is_err()));
                    }
                }
            }
            tr.exit(rep);
        }
        w
    }

    /// Chunk → write → open: what has to happen before a streamed fit
    /// can read its first chunk.
    fn prepare_store(
        &self,
        cube: &ObservationCube,
        tr: &mut Tracer,
    ) -> std::io::Result<FileChunkStore> {
        let chunked = tr.time("datamodel.chunk", || {
            ChunkedCube::from_cube(cube, &ChunkingConfig::default())
        });
        tr.time("datamodel.chunk_store_write", || {
            FileChunkStore::write(&chunked, self.prepared)
        })?;
        tr.time("datamodel.chunk_store_open", || {
            FileChunkStore::open(self.prepared)
        })
    }
}

pub fn run(cfg: &RunConfig, streamed: bool, out: &mut Outcome, tr: &mut Tracer) {
    let spec = cfg.fit_spec();
    let (corpus, clock) = SetupClock::first(|| gen::corpus(cfg.seed, spec));
    measure(cfg, streamed, &corpus, out, tr);
    // The repeats hand one observation buffer round (see `corpus_into`).
    let spare = RefCell::new(corpus.observations);
    clock.finish(
        out,
        |_| gen::corpus_into(cfg.seed, spec, spare.take()),
        |again| drop(spare.replace(again.observations)),
    );
}

fn measure(cfg: &RunConfig, streamed: bool, corpus: &Corpus, out: &mut Outcome, tr: &mut Tracer) {
    let spec = corpus.spec;
    out.note(format!(
        "corpus: {} triples, {} observations, {} sources, {} extractors, {} items; engine threads {ENGINE_THREADS}; \
         timed from observations in to FusionReport out",
        corpus.triples,
        corpus.observations.len(),
        spec.sources,
        spec.extractors,
        corpus.items
    ));

    // One untimed resident rep: the warm-up, the reference digests every
    // timed rep must reproduce, and the streamed workload's oracle.
    let t = Instant::now();
    let reference = match pipeline(build_cube(&corpus.observations), None).try_run_detailed() {
        Ok(run) => run,
        Err(e) => return out.check("reference_fit", false, e.to_string()),
    };
    let evidence = detect(&reference);
    out.set("bench.warmup_s", t.elapsed().as_secs_f64(), 1);
    let want = Sums::of(&reference.report);
    out.note(format!(
        "seed {}: trust_checksum={:#018x} truth_checksum={:#018x} (informational; every rep must reproduce them{})",
        cfg.seed,
        want.trust,
        want.truth,
        if streamed { ", streamed fits included, bit for bit" } else { "" }
    ));
    let (mae, sources) = kbt_mae(corpus, &reference);
    out.set("core.kbt_mae", mae, sources);
    out.check(
        "kbt_mae",
        mae < KBT_MAE_BOUND,
        format!(
            "{mae:.4} < {KBT_MAE_BOUND} over {sources} sources with >= {MAE_MIN_CLAIMS} claims"
        ),
    );
    out.check(
        "planted_copiers",
        copiers_on_top(corpus, &evidence),
        format!(
            "{COPIERS} planted pairs inside the top {} of {} scored pairs",
            2 * COPIERS,
            evidence.len()
        ),
    );

    let store = cfg.workdir.join("fit.chnk");
    let prepared = cfg.workdir.join("prepared.chnk");
    let fit = Fit {
        corpus,
        store: streamed.then_some(store.as_path()),
        prepared: &prepared,
        want,
    };

    if !cfg.trace {
        let w = fit.window(cfg.seconds, &mut Tracer::off(), out);
        record_peak_rss(out);
        report_end_to_end(corpus, streamed, &w, out);
        return;
    }

    let plain = fit.window(cfg.seconds / 2.0, &mut Tracer::off(), out);
    record_peak_rss(out);
    let traced = fit.window(cfg.seconds / 2.0, tr, out);
    report_end_to_end(corpus, streamed, &plain, out);
    let (mut a, mut b) = (plain.fit_wall.clone(), traced.fit_wall.clone());
    out.set(
        "bench.trace_overhead_pct",
        (median(&mut b) / median(&mut a) - 1.0) * 100.0,
        traced.fit_wall.len(),
    );

    let rounds = if streamed {
        0
    } else {
        probe_resident_layers(&reference.cube, want, tr, out)
    };
    let names = tr.by_name();
    let med = |name: &str| names.get(name).map_or(0.0, |s| s.median_s());
    let n = |name: &str| names.get(name).map_or(0, |s| s.self_ns.len());
    out.set(
        "datamodel.cube_bytes",
        reference.cube.approx_bytes() as f64,
        1,
    );
    probes::set_medians(
        &names,
        out,
        1.0,
        &[
            ("datamodel.cube_build_s", "datamodel.cube_build"),
            ("datamodel.chunk_s", "datamodel.chunk"),
        ],
    );
    let pipeline_s = med("pipeline.try_run_detailed");
    let reps = n("pipeline.try_run_detailed");
    if streamed {
        probes::set_medians(
            &names,
            out,
            1.0,
            &[
                (
                    "datamodel.chunk_store_write_s",
                    "datamodel.chunk_store_write",
                ),
                ("datamodel.chunk_store_open_s", "datamodel.chunk_store_open"),
            ],
        );
        let store_bytes = std::fs::metadata(&store).map_or(0, |m| m.len()) as f64;
        out.set("datamodel.chunk_store_bytes", store_bytes, 1);
        let mut reads = traced.read_bytes.clone();
        let read = median(&mut reads);
        out.set("datamodel.chunk_store_read_bytes", read, reads.len());
        out.set(
            "datamodel.chunk_store_read_amp",
            read / store_bytes.max(1.0),
            reads.len(),
        );
        let prepare_s = med("datamodel.chunk")
            + med("datamodel.chunk_store_write")
            + med("datamodel.chunk_store_open");
        out.set("core.streamed_fit_s", pipeline_s - prepare_s, reps);
    } else {
        probes::set_medians(
            &names,
            out,
            1.0,
            &[
                ("core.fit_s", "core.fit"),
                ("core.fit_1t_s", "core.fit_1t"),
                ("datamodel.coclaim_index_s", "datamodel.coclaim_index"),
            ],
        );
        let (fit_s, fit_1t_s) = (med("core.fit"), med("core.fit_1t"));
        out.set("core.fit_speedup_2t", fit_1t_s / fit_s, n("core.fit_1t"));
        out.note(format!(
            "core.fit_speedup_2t = core.fit_1t_s / core.fit_s, base {fit_1t_s:.4} s"
        ));
        out.set("core.em_rounds", rounds as f64, 1);
        out.set(
            "core.round_ms",
            fit_s / rounds.max(1) as f64 * 1e3,
            n("core.fit"),
        );
        out.set("pipeline.overhead_s", pipeline_s - fit_s, reps);
        out.set(
            "core.copydetect_score_s",
            med("core.detect_copies_from_accuracy") - med("datamodel.coclaim_index"),
            n("core.detect_copies_from_accuracy"),
        );
        out.set("core.copy_pairs_scored", traced.pairs_scored as f64, 1);
        probes::report_flume(&names, out);
    }
}

/// The resident workload's layer probes, each under its own span on the
/// reference cube: the bare engine at 2 threads and at 1, the co-claim
/// census, the columnar re-layout, and the thread-scope cost. Returns
/// the EM rounds of a fit.
fn probe_resident_layers(
    cube: &ObservationCube,
    want: Sums,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> usize {
    let mut rounds = 0;
    for (span, threads, reps) in [("core.fit", ENGINE_THREADS, 3), ("core.fit_1t", 1, 2)] {
        let config = ModelConfig {
            threads: Some(threads),
            ..ModelConfig::default()
        };
        for _ in 0..reps {
            tr.next_op();
            let report = tr.time(span, || {
                MultiLayerModel::new(config.clone()).fit(cube, &QualityInit::Default)
            });
            rounds = report.iterations();
            out.ops(1, u64::from(Sums::of(&report) != want));
        }
    }
    let mut candidates = 0;
    for _ in 0..3 {
        tr.next_op();
        candidates = tr.time("datamodel.coclaim_index", || {
            CoClaimIndex::build(cube)
                .candidate_pairs(CopyDetectConfig::default().min_overlap)
                .len()
        });
        tr.time("datamodel.chunk", || {
            ChunkedCube::from_cube(cube, &ChunkingConfig::default())
        });
    }
    out.set("datamodel.coclaim_candidate_pairs", candidates as f64, 1);
    probes::flume_dispatch(tr);
    rounds
}

fn report_end_to_end(corpus: &Corpus, streamed: bool, w: &Window, out: &mut Outcome) {
    let reps = w.fit_wall.len();
    let total: f64 = w.fit_wall.iter().sum();
    let fit_s = median(&mut w.fit_wall.clone());
    let aux_s = median(&mut w.aux_wall.clone());
    let triples_per_s = corpus.triples as f64 * reps as f64 / total;
    out.set("op_p50_ms", fit_s * 1e3, reps);
    out.set("work_per_s", triples_per_s, reps);
    out.set("aux_p50_ms", aux_s * 1e3, w.aux_wall.len());
    out.detail("fit_wall_s", fit_s, "s", reps);
    out.detail("triples_per_s", triples_per_s, "1/s", reps);
    if streamed {
        out.detail("cube_build_s", aux_s, "s", w.aux_wall.len());
    } else {
        out.detail("copydetect_wall_s", aux_s, "s", w.aux_wall.len());
        out.detail("copy_pairs_scored", w.pairs_scored as f64, "count", 1);
    }
}
