//! The scale drill: the one check that has no test-sized equivalent.
//! The chunk-view EM engine on a 1M- or 10M-triple synthetic corpus,
//! gated bit for bit against the scalar oracle (`kbt_core::reference`).
//!
//! ```text
//! cargo run --release -p kbt-bench --bin em_scale [-- [--smoke] [--streamed]]
//! ```
//!
//! Runs the full 10M triples by default; `--smoke` runs 1M so CI finishes
//! in minutes. The engine and `reference::fit` run the same fixed number of
//! EM rounds (`convergence_eps = 0`) on the same cube and the binary
//! **hard-asserts bitwise equality** of their source-trust scores,
//! per-group truth posteriors and every round's Δ and log-likelihood,
//! then prints the cube-build wall and the fit's per-stage wall breakdown
//! (`StageWall`: vote rebuild, the round's one scan, the M-steps'
//! finish; the build lays out the frames the fit scans) — a profile to
//! read, not a gate: how fast the fit runs is measured by `benchmark/`
//! alone. Before the fit it builds the corpus a second time on one worker
//! and hard-asserts that the two builds are the same cube, key column,
//! meta frame and item frames byte for byte: a slip in how the build cuts
//! its items into windows, or its chunks, shows here. After the fit it
//! refits the cube re-cut at `PARTITION_TARGET_CELLS` cells per chunk —
//! some sixteen times the item chunks, so the rows fold into the workers'
//! sums in another order — and hard-asserts the same trust, truth and
//! per-round Δ and log-likelihood bits: the M-step and log-likelihood
//! sums are exact, so no partition can move a bit.
//!
//! It prints two truth digests: the checksum of the per-group truth in
//! cube order (item-major), and the same posteriors taken in
//! `(source, item, value)` key order. In smoke mode it hard-asserts the
//! second against [`SOURCE_MAJOR_TRUTH_PIN`], the cube-order checksum from
//! before the groups were renumbered item-major: the renumbering was a
//! pure relabeling, so every posterior must still be there, bit for bit.
//!
//! With `--streamed` the drill instead checks the out-of-core residency:
//! the corpus's own frames are written to a `KBTCHNK5` store on disk,
//! then two *child
//! processes* run the same fixed-round fit — one resident (regenerating
//! the corpus), one streaming from the store with at most
//! `MAX_RESIDENT_CHUNKS` decoded frames in memory — so each fit's `VmHWM`
//! is measured in isolation. The
//! parent hard-asserts bitwise-equal checksums between the two children
//! and a streamed `VmHWM` well below the resident one, and in smoke mode
//! that the streamed fit keeps at least half the resident throughput. It
//! also hard-asserts that a round reads each item frame once (one scan of
//! the store) and reports how many bytes the fit read per byte stored.
//!
//! The resident drill also takes the co-claim census of copy detection
//! (`kbt_datamodel::pair_counts` at `CopyDetectConfig::default()`'s
//! `min_overlap`, and again over every co-claiming pair: the uniform
//! sources of this corpus leave no pair at that threshold) on 1 worker
//! and on 2, hard-asserts the two give the same rows, and reports their
//! count and an FNV-1a checksum over every row's `(a, b, overlap, agree,
//! agree_exclusive)`: the baseline pins the census exactly.
//!
//! Emits `BENCH_em_scale.json` (or `BENCH_em_scale_streamed.json`) with
//! the exact facts only — corpus and round counts, the checksums, the
//! assert outcomes — for `bench_compare`.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kbt_bench::BenchReport;
use kbt_core::{
    reference, CopyDetectConfig, EmState, FusionModel, FusionReport, ModelConfig, MultiLayerModel,
    QualityInit,
};
use kbt_datamodel::{
    pair_counts, ChunkBuf, ChunkingConfig, CubeBuilder, FileChunkStore, ObservationCube, PairCounts,
};
use kbt_synth::scale::{observations, ScaleConfig};

/// EM rounds every fit runs, with no convergence early-out: the engine,
/// the oracle and both children do the same arithmetic volume, so their
/// results are comparable bit for bit and the children's walls as a ratio.
const ROUNDS: usize = 3;

/// Chunk size of the partition drill's refit: ≈ 470 item chunks on the
/// smoke corpus, against ≈ 30 at the default 64 Ki cells.
const PARTITION_TARGET_CELLS: usize = 4_096;

/// Decoded frames the streamed fit may hold at once (one per scan worker).
const MAX_RESIDENT_CHUNKS: usize = 4;

/// The smoke corpus's truth checksum in `(source, item, value)` key order
/// — the cube order before the groups were renumbered item-major.
const SOURCE_MAJOR_TRUTH_PIN: &str = "0x3c5caec4f25bed91";

fn fixed_round_cfg() -> ModelConfig {
    ModelConfig {
        max_iterations: ROUNDS,
        convergence_eps: 0.0,
        ..ModelConfig::default()
    }
}

/// The corpus's observations, not yet built.
fn rows(triples: usize) -> CubeBuilder {
    observations(&ScaleConfig {
        triples,
        ..ScaleConfig::default()
    })
}

/// The corpus and the wall of `CubeBuilder::build` alone.
fn timed_corpus(triples: usize) -> (ObservationCube, Duration) {
    let rows = rows(triples);
    let t0 = Instant::now();
    (rows.build(), t0.elapsed())
}

/// Hard-assert that two cubes are the same, bit for bit: the key column,
/// the meta frame (shapes, chunk partition, per-source columns) and every
/// item frame, confidences compared as bits.
fn assert_same_cube(a: &ObservationCube, b: &ObservationCube) {
    assert!(a.groups() == b.groups(), "groups differ");
    let (x, y) = (a.chunked(), b.chunked());
    assert!(x.meta == y.meta, "meta frames differ");
    let bits = |f: &ChunkBuf| {
        f.cell_confidence
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>()
    };
    for (i, (f, g)) in x.frames.iter().zip(&y.frames).enumerate() {
        assert!(f == g && bits(f) == bits(g), "item frame {i} differs");
    }
}

fn corpus(triples: usize) -> ObservationCube {
    timed_corpus(triples).0
}

/// Deterministic checksum of an f64 slice's exact bit patterns.
fn bits_checksum(xs: &[f64]) -> u64 {
    xs.iter().fold(0u64, |acc, x| {
        acc.wrapping_mul(31).wrapping_add(x.to_bits())
    })
}

/// The checksum of `truth` (one entry per group of `cube`) taken in
/// `(source, item, value)` key order: source by source (a stable sort of
/// the item-major groups), each source's groups ascending.
fn source_major_checksum(cube: &ObservationCube, truth: &[f64]) -> String {
    let mut groups: Vec<usize> = (0..cube.num_groups()).collect();
    groups.sort_by_key(|&g| cube.groups()[g].source);
    let truth: Vec<f64> = groups.into_iter().map(|g| truth[g]).collect();
    format!("{:#018x}", bits_checksum(&truth))
}

/// FNV-1a over every row's `(a, b, overlap, agree, agree_exclusive)`,
/// each field little-endian.
fn census_checksum(rows: &[PairCounts]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in rows {
        let ids = [r.a.0, r.b.0].map(u32::to_le_bytes);
        let counts = [r.overlap, r.agree, r.agree_exclusive].map(u64::to_le_bytes);
        for byte in ids.iter().flatten().chain(counts.iter().flatten()) {
            h = (h ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:#018x}")
}

/// Every round's Δ and log-likelihood, as bits.
fn trace_bits(report: &FusionReport) -> Vec<(u64, u64)> {
    let rounds = report.trace.rounds.iter();
    rounds
        .map(|r| (r.delta.to_bits(), r.log_likelihood.to_bits()))
        .collect()
}

/// In smoke mode, hard-assert the key-order truth against the pin.
fn assert_source_major_pin(mode: &str, key_order: &str) {
    assert!(
        mode != "smoke" || key_order == SOURCE_MAJOR_TRUTH_PIN,
        "truth in (source, item, value) order {key_order}, pinned {SOURCE_MAJOR_TRUTH_PIN}: \
         the item-major cube is not a relabeling of the source-major one"
    );
}

/// Measured peak resident set size of this process, from the kernel's
/// `VmHWM` accounting — what the corpus actually cost, not an estimate.
/// Returns 0 on platforms without `/proc/self/status`.
fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        });
    kb.unwrap_or(0) * 1024
}

// ---------------------------------------------------------------------
// Child modes (hidden): run exactly one fit in a fresh process and end
// with one line of `key=value` tokens, so the parent can read each fit's
// VmHWM without the other fit's allocations polluting the high-water
// mark.
// ---------------------------------------------------------------------

/// Bytes this process has asked the kernel to read so far (`rchar` of
/// `/proc/self/io`); 0 where there is no `/proc`.
fn read_chars() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    io.lines()
        .find_map(|line| line.strip_prefix("rchar:")?.trim().parse().ok())
        .unwrap_or(0)
}

/// `extra` is the child's own ` key=value` tokens.
fn print_child_line(report: &FusionReport, wall_s: f64, extra: &str) {
    println!(
        "child: trust={:#018x} truth={:#018x} wall_s={wall_s} vm_hwm_bytes={}{extra}",
        bits_checksum(report.source_trust()),
        bits_checksum(report.truth_of_group()),
        vm_hwm_bytes(),
    );
}

fn child_resident(triples: usize) {
    let cube = corpus(triples);
    let model = MultiLayerModel::new(fixed_round_cfg());
    let t0 = Instant::now();
    let report = model.fit(&cube, &QualityInit::Default);
    let wall = t0.elapsed().as_secs_f64();
    let key_order = source_major_checksum(&cube, report.truth_of_group());
    print_child_line(&report, wall, &format!(" key_truth={key_order}"));
}

fn child_streamed(path: &str) {
    let read_before = read_chars();
    let store = Arc::new(FileChunkStore::open(Path::new(path)).expect("open chunk store"));
    let model = MultiLayerModel::new(fixed_round_cfg());
    let t0 = Instant::now();
    let report = model
        .run_streamed(&store, MAX_RESIDENT_CHUNKS, &QualityInit::Default)
        .expect("streamed fit");
    let wall = t0.elapsed().as_secs_f64();
    // A round is one scan: it reads every item frame once.
    let frames = store.frames_read();
    assert_eq!(
        frames,
        ROUNDS as u64 * store.num_chunks() as u64,
        "a round did not read each item frame exactly once"
    );
    let extra = format!(
        " frames_read_per_round={} store_read_bytes={}",
        frames / ROUNDS as u64,
        read_chars() - read_before
    );
    print_child_line(&report, wall, &extra);
}

/// Run this binary again with `args`, echo what it printed, and return
/// its final `child:` line.
fn spawn_child(args: &[&str]) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args(args)
        .output()
        .expect("spawn child fit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child fit {args:?} failed:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (echo, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    assert!(
        line.starts_with("child:"),
        "child fit {args:?} printed no report line:\n{stdout}"
    );
    if !echo.is_empty() {
        println!("{echo}");
    }
    line.to_string()
}

/// The value of `key` in a child's report line.
fn child_field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("child report missing {key}: {line}"))
}

fn child_num(line: &str, key: &str) -> f64 {
    let raw = child_field(line, key);
    raw.parse()
        .unwrap_or_else(|_| panic!("child report: {key} is not a number: {raw}"))
}

// ---------------------------------------------------------------------
// Streamed drill: resident child vs streamed child over one store.
// ---------------------------------------------------------------------

fn run_streamed(mode: &str, triples: usize) {
    println!(
        "em_scale --streamed ({mode}): {triples} triples, at most {MAX_RESIDENT_CHUNKS} decoded frames at once"
    );

    // Write the corpus's frames to disk once; both children fit the same
    // data.
    let cube = corpus(triples);
    let (groups, chunks) = (cube.num_groups(), cube.chunked().frames.len());
    let store_path = std::env::temp_dir().join(format!(
        "kbt-em-scale-streamed-{}.chunks",
        std::process::id()
    ));
    FileChunkStore::write(cube.chunked(), &store_path).expect("write chunk store");
    drop(cube);
    let store_bytes = std::fs::metadata(&store_path).map_or(0, |m| m.len()) as f64;
    println!(
        "  chunk store: {chunks} item chunks, {:.1} MiB on disk",
        store_bytes / (1 << 20) as f64,
    );

    let resident = spawn_child(&["--child-resident", &triples.to_string()]);
    let streamed = spawn_child(&["--child-streamed", &store_path.display().to_string()]);
    let _ = std::fs::remove_file(&store_path);

    // Bitwise gate: streaming must change I/O volume, never results.
    let trust = child_field(&resident, "trust");
    let truth = child_field(&resident, "truth");
    assert_eq!(
        trust,
        child_field(&streamed, "trust"),
        "source trust diverged between resident and streamed fits"
    );
    assert_eq!(
        truth,
        child_field(&streamed, "truth"),
        "truth posteriors diverged between resident and streamed fits"
    );
    println!("  bitwise equality: OK (trust checksum {trust}, truth checksum {truth})");
    let key_order = child_field(&resident, "key_truth");
    assert_source_major_pin(mode, key_order);
    println!("  truth checksum in (source, item, value) order: {key_order}");

    let resident_wall = child_num(&resident, "wall_s");
    let streamed_wall = child_num(&streamed, "wall_s");
    let resident_hwm = child_num(&resident, "vm_hwm_bytes");
    let streamed_hwm = child_num(&streamed, "vm_hwm_bytes");
    // Same corpus, same rounds: the throughput ratio is the wall ratio.
    let tput_ratio = resident_wall / streamed_wall;
    let rss_ratio = streamed_hwm / resident_hwm;
    // The acceptance bar: at full scale the streamed fit must run in
    // under 40% of the resident footprint (the corpus dwarfs the
    // O(groups) EM state). At smoke scale the EM state is a larger share
    // of both fits, so the bar relaxes to 60% — still proof the corpus
    // itself stayed on disk. (No `/proc`: 0/0 is NaN and fails the bar.)
    let rss_bar = if mode == "full" { 0.4 } else { 0.6 };
    let rss_ok = rss_ratio < rss_bar;
    let mib = |bytes: f64| bytes / (1 << 20) as f64;
    println!(
        "  resident: {resident_wall:.2} s, VmHWM {:.1} MiB",
        mib(resident_hwm)
    );
    println!(
        "  streamed: {streamed_wall:.2} s, VmHWM {:.1} MiB",
        mib(streamed_hwm)
    );
    // One scan per round: the store is read `ROUNDS` times over (plus the
    // open).
    let frames = child_num(&streamed, "frames_read_per_round") as u64;
    let read_amp = child_num(&streamed, "store_read_bytes") / store_bytes;
    println!(
        "  streamed/resident: RSS x{rss_ratio:.2} ({}), throughput x{tput_ratio:.2}; \
         store reads / store bytes x{read_amp:.2} over {ROUNDS} rounds, {frames} frames read a round",
        if rss_ok { "ok" } else { "TOO HIGH" }
    );
    assert!(
        rss_ok,
        "streamed VmHWM not below {:.0}% of resident VmHWM",
        rss_bar * 100.0
    );
    // The streamed fit runs the resident kernels; what it adds is chunk
    // I/O, which costs well under half the fit (measured x0.8-0.9). Under
    // x0.5 the I/O layer has regressed, whatever the runner's speed.
    assert!(
        mode != "smoke" || tput_ratio >= 0.5,
        "streamed throughput x{tput_ratio:.2} of resident, below the x0.5 floor"
    );

    let mut report = BenchReport::new("em_scale_streamed", mode);
    report
        .count("triples", triples as u64)
        .count("groups", groups as u64)
        .count("em_rounds", ROUNDS as u64)
        .count("max_resident_chunks", MAX_RESIDENT_CHUNKS as u64)
        .count("frames_read_per_round", frames)
        .flag("bitwise_equal", true)
        .flag("streamed_rss_ok", rss_ok)
        .text("trust_checksum", trust)
        .text("truth_checksum", truth)
        .text("truth_checksum_source_major", key_order);
    let path = report.write().expect("write bench report");
    println!("report: {}", path.display());
}

// ---------------------------------------------------------------------
// Resident drill: the engine against the oracle.
// ---------------------------------------------------------------------

fn run_resident(mode: &str, triples: usize) {
    println!("em_scale ({mode}): {triples} triples");
    let (cube, build_wall) = timed_corpus(triples);
    let (groups, cells, items) = (cube.num_groups(), cube.num_cells(), cube.num_items());
    println!("  generated cube: {groups} groups, {cells} cells, {items} items");

    // The build cuts the items into one window per worker: on one
    // worker it must build the same cube.
    let serial = kbt_flume::with_threads(Some(1), || rows(triples).build());
    assert_same_cube(&cube, &serial);
    drop(serial);
    println!("  cube built on one worker: the same, bit for bit");

    let cfg = fixed_round_cfg();
    let init = QualityInit::Default;
    let report = MultiLayerModel::new(cfg.clone()).fit(&cube, &init);

    // The engine must be the paper's equations in a faster layout, not a
    // different model.
    let oracle = reference::fit(&cube, &cfg, EmState::start(&cube, &cfg, &init));
    let trust = bits_checksum(report.source_trust());
    let truth = bits_checksum(report.truth_of_group());
    assert_eq!(
        report.iterations(),
        oracle.iterations(),
        "engine and reference ran different round counts"
    );
    assert_eq!(
        trust,
        bits_checksum(&oracle.params.source_accuracy),
        "source trust diverged between the engine and reference::fit"
    );
    assert_eq!(
        truth,
        bits_checksum(&oracle.truth_of_group),
        "truth posteriors diverged between the engine and reference::fit"
    );
    assert_eq!(
        trace_bits(&report),
        trace_bits(&oracle),
        "a round's Δ or log-likelihood diverged between the engine and reference::fit"
    );
    println!(
        "bitwise equality with reference::fit over {} rounds, every round's Δ and \
         log-likelihood included: OK (trust checksum {trust:#018x}, truth checksum {truth:#018x})",
        report.iterations()
    );
    let key_order = source_major_checksum(&cube, report.truth_of_group());
    assert_source_major_pin(mode, &key_order);
    println!("  truth checksum in (source, item, value) order: {key_order}");

    // The same cube re-cut: more, smaller chunks, so the rows fold into
    // the workers' sums in another order — and the same bits.
    let recut = cube.recut(&ChunkingConfig {
        target_cells: PARTITION_TARGET_CELLS,
    });
    let chunks = |cube: &ObservationCube| cube.chunked().frames.len();
    let fine = MultiLayerModel::new(cfg.clone()).fit(&recut, &init);
    assert_eq!(
        (
            bits_checksum(fine.source_trust()),
            bits_checksum(fine.truth_of_group())
        ),
        (trust, truth),
        "a finer chunk partition moved the fit's bits"
    );
    assert_eq!(
        trace_bits(&fine),
        trace_bits(&report),
        "a finer chunk partition moved a round's Δ or log-likelihood"
    );
    println!(
        "  refit at {PARTITION_TARGET_CELLS} cells per chunk ({} item chunks, not {}): \
         the same bits",
        chunks(&recut),
        chunks(&cube)
    );
    drop(recut);

    // The co-claim census: the same rows on one worker and on two, at the
    // detector's threshold and over every co-claiming pair.
    let census = |min_overlap: usize| {
        let on =
            |threads| kbt_flume::with_threads(Some(threads), || pair_counts(&cube, min_overlap));
        let rows = on(1);
        assert!(
            rows == on(2),
            "the co-claim census at min_overlap {min_overlap} differs between 1 and 2 workers"
        );
        let sum = census_checksum(&rows);
        println!(
            "  co-claim census at min_overlap {min_overlap}: {} pairs, checksum {sum}, \
             the same on 1 and 2 workers",
            rows.len()
        );
        (rows.len() as u64, sum)
    };
    let (census_pairs, census_sum) = census(CopyDetectConfig::default().min_overlap);
    let (census_pairs_all, census_sum_all) = census(0);

    // Where the rounds go, for the reader; nothing gates on it.
    let sw = &report.trace.stage_wall;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "cube build {:.1} ms; stages (ms, all rounds): votes {:.1}, scan {:.1}, M-step {:.1}",
        ms(build_wall),
        ms(sw.votes),
        ms(sw.scan),
        ms(sw.mstep),
    );

    let mut bench = BenchReport::new("em_scale", mode);
    bench
        .count("triples", triples as u64)
        .count("groups", groups as u64)
        .count("cells", cells as u64)
        .count("em_rounds", report.iterations() as u64)
        .flag("bitwise_equal", true)
        .flag("build_bitwise_equal", true)
        .flag("partition_bitwise_equal", true)
        .text("trust_checksum", &format!("{trust:#018x}"))
        .text("truth_checksum", &format!("{truth:#018x}"))
        .text("truth_checksum_source_major", &key_order)
        .count("census_pairs", census_pairs)
        .text("census_checksum", &census_sum)
        .count("census_pairs_all", census_pairs_all)
        .text("census_checksum_all", &census_sum_all);
    let path = bench.write().expect("write bench report");
    println!("report: {}", path.display());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    match argv[..] {
        ["--child-resident", triples] => {
            return child_resident(triples.parse().expect("triples is an integer"))
        }
        ["--child-streamed", store_path] => return child_streamed(store_path),
        _ => {}
    }
    let (mut mode, mut triples, mut streamed) = ("full", 10_000_000, false);
    for arg in argv {
        match arg {
            "--smoke" => (mode, triples) = ("smoke", 1_000_000),
            "--streamed" => streamed = true,
            other => panic!("unknown argument {other}"),
        }
    }
    if streamed {
        run_streamed(mode, triples);
    } else {
        run_resident(mode, triples);
    }
}
