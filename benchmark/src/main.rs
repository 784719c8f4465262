//! `kbt-benchmark`: the layered KBT benchmark.
//!
//! A load generator and a stopwatch, nothing more: it owns its seeded
//! corpus generator, drives the system only through public functions,
//! checks the outputs, and reports what a user would see (end to end)
//! and what each layer did (traced run). It claims no gain; it is the
//! referee later claims use. See `README.md` beside this crate.
//!
//! ```text
//! kbt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! kbt-benchmark run    [--seed n] [--seconds s] [--workload name]...       every workload, a fresh process each
//! kbt-benchmark trace  [same options]                                      the same with spans on
//! kbt-benchmark repeat [--sets 2] [--runs 5] [same options]                do two sets of runs agree?
//! ```

mod gen;
mod probes;
mod report;
mod span;
mod stats;
mod sys;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{MetricSpec, END_TO_END, PER_LAYER};
use workloads::{RunConfig, Workload};

/// Window length when none is given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 42;

/// Scratch and trace files go under the crate's own `out/` directory
/// (ignored by git) unless `--workdir` says otherwise: the benchmark
/// reads and writes only inside its checkout.
fn default_workdir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    workdir: PathBuf,
    out: Option<PathBuf>,
    sets: usize,
    runs: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        tiny: false,
        workdir: default_workdir(),
        out: None,
        sets: 2,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            o.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => o.workloads.push(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|_| bad())?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--workdir" => o.workdir = PathBuf::from(value),
            "--out" => o.out = Some(PathBuf::from(value)),
            "--sets" => o.sets = value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?,
            "--runs" => o.runs = value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(o)
}

/// A private scratch directory, removed when the run ends however it
/// ends (a panic included).
struct Scratch(PathBuf);

impl Scratch {
    fn create(base: &Path) -> std::io::Result<Self> {
        let dir = base.join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn specs(trace: bool) -> &'static [MetricSpec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Run one workload in this process and print its report; the last line
/// of standard output is the driver's JSON object.
fn run_one(o: &Options) -> Result<(), String> {
    let [workload] = o.workloads[..] else {
        return Err("name exactly one --workload".into());
    };
    let scratch =
        Scratch::create(&o.workdir).map_err(|e| format!("workdir {}: {e}", o.workdir.display()))?;
    let cfg = RunConfig {
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        tiny: o.tiny,
        workdir: scratch.0.clone(),
    };
    let host = sys::Host::probe(&cfg.workdir);
    let (mut outcome, tracer) = workloads::run(workload, &cfg);
    if o.trace {
        let path = o.workdir.join(format!("trace-{}.json", workload.name()));
        match tracer.write_json(&path, workload.name()) {
            Ok(()) => outcome.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => outcome.check("trace_file", false, format!("{}: {e}", path.display())),
        }
    } else {
        // Every workload owes every end-to-end metric, and none may be 0.
        for spec in END_TO_END {
            let set = outcome.values.get(spec.name).is_some_and(|v| v.value > 0.0);
            if !set {
                outcome.check(
                    "metric_reported",
                    false,
                    format!("{} missing or not positive", spec.name),
                );
            }
        }
    }
    print!("{}", outcome.text(workload.name(), specs(o.trace), &host));
    println!("{}", outcome.json_line(specs(o.trace)));
    Ok(())
}

/// What a child process reported.
struct ChildReport {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    json: String,
}

/// Run one workload in a fresh child process (so its peak RSS is its
/// own), pass its report through, and collect its metrics.
fn run_child(
    o: &Options,
    workload: Workload,
    seed: u64,
    quiet: bool,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .arg("--workdir")
        .arg(&o.workdir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.tiny {
        cmd.arg("--tiny");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !quiet {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!("{} exited with {}", workload.name(), output.status));
    }
    let json = stdout.lines().last().unwrap_or_default().to_string();
    let metrics = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            Some((f.next()?.to_string(), f.next()?.parse().ok()?))
        })
        .collect();
    Ok(ChildReport {
        correct: json.starts_with("{\"correct\": true"),
        metrics,
        json,
    })
}

fn chosen(o: &Options) -> Vec<Workload> {
    if o.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        o.workloads.clone()
    }
}

/// `run` / `trace`: every workload once, each in a fresh process.
fn run_suite(o: &Options) -> Result<bool, String> {
    let mut all_correct = true;
    let mut lines = Vec::new();
    for workload in chosen(o) {
        let report = run_child(o, workload, o.seed, false)?;
        all_correct &= report.correct;
        lines.push(format!(
            "{{\"workload\": \"{}\", \"result\": {}}}",
            workload.name(),
            report.json
        ));
        println!();
    }
    if let Some(path) = &o.out {
        std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("report written to {}", path.display());
    }
    println!(
        "{}",
        if all_correct {
            "all output checks passed"
        } else {
            "OUTPUT CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

/// `repeat`: `sets` sets of `runs` runs (run `i` of every set uses seed
/// `seed + i`, as the acceptance check does). Prints each end-to-end
/// metric's quartiles per set and fails when a later set's median is
/// worse than the first's by more than the metric's bound (the
/// acceptance rule), or a run was incorrect.
fn repeat(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    for workload in chosen(o) {
        // values[set][metric] = one value per run
        let mut values: Vec<BTreeMap<&str, Vec<f64>>> = vec![BTreeMap::new(); o.sets];
        for set in values.iter_mut() {
            for run in 0..o.runs {
                let report = run_child(o, workload, o.seed + run as u64, true)?;
                ok &= report.correct;
                for spec in END_TO_END {
                    let v = report.metrics.get(spec.name).copied().unwrap_or(0.0);
                    set.entry(spec.name).or_default().push(v);
                }
            }
        }
        println!("workload {}", workload.name());
        for spec in END_TO_END {
            let bound = spec.bound.expect("end-to-end metrics carry a bound");
            let medians: Vec<f64> = values
                .iter()
                .enumerate()
                .map(|(i, set)| {
                    let [q1, q2, q3] = stats::quartiles(&set[spec.name]);
                    println!(
                        "  {:<12} set {i}: q1 {q1:.6} median {q2:.6} q3 {q3:.6} {} spread {:.2}%",
                        spec.name,
                        spec.unit,
                        stats::relative_spread(&set[spec.name]) * 100.0
                    );
                    q2
                })
                .collect();
            // How much worse a later set's median is than the first's.
            let worst_drift = medians[1..]
                .iter()
                .map(|&later| match spec.better {
                    "lower" => later / medians[0] - 1.0,
                    _ => medians[0] / later - 1.0,
                })
                .fold(0.0, f64::max);
            let within = worst_drift <= bound;
            ok &= within;
            println!(
                "  {:<12} later sets worse than the first by at most {:.2}% (bound {:.0}%) {}",
                spec.name,
                worst_drift * 100.0,
                bound * 100.0,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "sets agree within every bound"
        } else {
            "SETS DISAGREE OR A RUN FAILED"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "repeat")) => (c, &args[1..]),
        _ => ("one", &args[..]),
    };
    let result = parse_options(rest).and_then(|mut o| match command {
        "one" => run_one(&o).map(|()| true),
        "run" => run_suite(&o),
        "trace" => {
            o.trace = true;
            run_suite(&o)
        }
        _ => repeat(&o),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("kbt-benchmark: {message}");
            eprintln!("usage: kbt-benchmark [run|trace|repeat] [--workload name] [--seed n] [--seconds s] [--trace 0|1] [--workdir dir] [--out file] [--sets n] [--runs n] [--tiny]");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o =
            parse_options(&args("--workload query_net --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(o.workloads, vec![Workload::QueryNet]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--trace 2")).is_err());
        assert!(parse_options(&args("--seconds 0")).is_err());
        assert!(parse_options(&args("--seed")).is_err());
    }

    /// All five workloads end to end on shrunken corpora, untraced and
    /// traced: every output check passes, every end-to-end metric is
    /// positive, and the traced run fills the layers it exercises.
    #[test]
    fn tiny_pass_of_all_five_workloads() {
        let started = std::time::Instant::now();
        let base = std::env::temp_dir().join(format!("kbt-benchmark-test-{}", std::process::id()));
        for trace in [false, true] {
            for workload in Workload::ALL {
                let scratch = Scratch::create(&base.join(workload.name())).unwrap();
                let cfg = RunConfig {
                    seed: 42,
                    seconds: 0.2,
                    trace,
                    tiny: true,
                    workdir: scratch.0.clone(),
                };
                let (outcome, tracer) = workloads::run(workload, &cfg);
                let failed: Vec<_> = outcome.checks.iter().filter(|c| !c.ok).collect();
                assert!(
                    outcome.correct(),
                    "{} trace={trace}: {failed:?} failed={}",
                    workload.name(),
                    outcome.failed
                );
                assert!(outcome.attempted > 0);
                for spec in END_TO_END {
                    let v = outcome.values.get(spec.name).map_or(0.0, |v| v.value);
                    assert!(
                        v > 0.0,
                        "{} trace={trace}: {} = {v}",
                        workload.name(),
                        spec.name
                    );
                }
                assert_eq!(tracer.spans().is_empty(), !trace);
                if trace {
                    let layer = match workload {
                        Workload::FitResident => "core.fit_s",
                        Workload::FitStreamed => "datamodel.chunk_store_read_bytes",
                        Workload::QueryNet => "net.point_p50_us",
                        Workload::IngestDurable => "store.wal_sync_us",
                        Workload::MixedNet => "net.ingest_ack_us",
                    };
                    assert!(
                        outcome.values[layer].value > 0.0,
                        "{}: {layer}",
                        workload.name()
                    );
                    assert!(outcome.values.contains_key("bench.trace_overhead_pct"));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&base);
        assert!(
            started.elapsed().as_secs() < 60,
            "tiny pass took {:?}",
            started.elapsed()
        );
    }
}
