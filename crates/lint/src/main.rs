//! The `kbt-lint` CLI: scan the workspace, print diagnostics, write the
//! machine-readable reports, exit non-zero on unwaived violations.
//!
//! ```text
//! cargo run -p kbt-lint -- --workspace [--root <dir>] [--json <path>] [--bench-report]
//! ```
//!
//! * `--workspace`   scan every member crate's `src/` (plus the facade's)
//! * `--root <dir>`  workspace root (default: current directory)
//! * `--json <path>` write the full diagnostic report as JSON
//! * `--bench-report` write `BENCH_lint.json` (rule counts, waiver
//!   counts, and the source line count and bare-`pub` count of each
//!   system crate — the ROADMAP's tracked metrics) through
//!   [`kbt_bench::BenchReport`], for the `bench_compare` budget gate:
//!   none of them may go up
//! * `--list-waivers` print every waived finding (the escape-hatch audit)

use std::path::PathBuf;
use std::process::ExitCode;

use kbt_bench::BenchReport;
use kbt_lint::scan::rule_slug;
use kbt_lint::{render, scan_workspace, sort_diagnostics, ALL_RULES};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let mut workspace = false;
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut bench_report = false;
    let mut list_waivers = false;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--workspace" => workspace = true,
            "--root" => {
                i += 1;
                root = PathBuf::from(argv.get(i).map(String::as_str).unwrap_or("."));
            }
            "--json" => {
                i += 1;
                json_path = argv.get(i).map(PathBuf::from);
            }
            "--bench-report" => bench_report = true,
            "--list-waivers" => list_waivers = true,
            other => {
                eprintln!("kbt-lint: unknown argument {other}");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    if !workspace {
        eprintln!("kbt-lint: pass --workspace to scan the workspace");
        return ExitCode::FAILURE;
    }

    let mut outcome = match scan_workspace(&root) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("kbt-lint: scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    sort_diagnostics(&mut outcome.diagnostics);

    for d in outcome.unwaived() {
        println!("{}", render(d));
    }
    if list_waivers {
        for d in outcome.diagnostics.iter().filter(|d| d.waived) {
            println!("{}", render(d));
        }
    }

    let violations = outcome.violations_by_rule();
    let waived = outcome.waived_by_rule();
    let total_violations: u64 = violations.values().sum();
    println!(
        "kbt-lint: {} files, {} lines in {:.1} ms — {} violation(s), {} waiver(s)",
        outcome.files_scanned,
        outcome.lines_scanned,
        outcome.scan_wall_ms,
        total_violations,
        outcome.waiver_count()
    );
    for rule in ALL_RULES {
        let key = rule.key();
        println!(
            "  {:<12} {:>3} violation(s) {:>3} waived",
            key,
            violations.get(key).copied().unwrap_or(0),
            waived.get(key).copied().unwrap_or(0)
        );
    }

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, outcome.to_json()) {
            eprintln!("kbt-lint: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("kbt-lint: wrote {}", path.display());
    }

    if bench_report {
        let mut report = BenchReport::new("lint", "workspace");
        for rule in ALL_RULES {
            let key = rule.key();
            let slug = rule_slug(rule);
            report.count(
                &format!("violations_{slug}"),
                violations.get(key).copied().unwrap_or(0),
            );
            report.count(
                &format!("waivers_{slug}"),
                waived.get(key).copied().unwrap_or(0),
            );
        }
        for dir in [
            "core",
            "datamodel",
            "flume",
            "pipeline",
            "net",
            "store",
            "serve",
        ] {
            let name = format!("kbt-{dir}");
            let lines = outcome.lines_by_crate.get(&name).copied().unwrap_or(0);
            let public = outcome.pub_by_crate.get(&name).copied().unwrap_or(0);
            report
                .count(&format!("lines_{dir}"), lines)
                .count(&format!("pub_{dir}"), public);
        }
        report
            .count("waivers_total", outcome.waiver_count())
            .flag("zero_unwaived_violations", total_violations == 0);
        match report.write() {
            Ok(path) => println!("kbt-lint: wrote {}", path.display()),
            Err(e) => {
                eprintln!("kbt-lint: cannot write BENCH_lint.json: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if total_violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
