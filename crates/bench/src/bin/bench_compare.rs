//! CI gate over the exact fields of `BENCH_*.json` reports.
//!
//! ```text
//! cargo run --release -p kbt-bench --bin bench_compare -- \
//!     --baseline bench/baselines/BENCH_em_scale.json --current BENCH_em_scale.json
//! ```
//!
//! Compares a freshly produced report against the committed baseline,
//! field by field, and exits non-zero on any difference that is not an
//! improvement:
//!
//! * **strings and integers** (checksums, corpus sizes, round counts)
//!   must be **equal**;
//! * **budget keys** (`*waiver*`, `violations_*`, `lines_*`, `pub_*` —
//!   the `kbt-lint` report) may only go **down**; widening one takes a
//!   deliberate baseline bump in the same PR, in review;
//! * **booleans** that are `true` in the baseline must stay `true`;
//! * a key present on one side only fails, as does a missing current
//!   file or a report that lists a key twice.
//!
//! Nothing here reads a clock: the reports carry no timings (a float is
//! rejected at parse), and how fast the system runs is `benchmark/`'s
//! question alone.

use std::process::ExitCode;

/// Parse the flat single-level JSON objects `BenchReport` emits into
/// `(key, value token)` pairs. Not a general JSON parser: one
/// `"key": value` per line, comma-terminated, where a value is `true`,
/// `false`, a quoted string or an unsigned integer — exactly what the
/// reports use. Anything else is rejected loudly, a float (a timing is
/// not an exact field) and a key that appears twice included: which of
/// its values would be gated is anyone's guess.
fn parse_flat_json(text: &str, origin: &str) -> Vec<(String, String)> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .unwrap_or_else(|| panic!("{origin}: not a JSON object"));
    let mut out: Vec<(String, String)> = Vec::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .strip_prefix('"')
            .and_then(|rest| rest.split_once("\": "))
            .unwrap_or_else(|| panic!("{origin}: not a `\"key\": value` line: {line}"));
        let quoted = value.len() >= 2 && value.starts_with('"') && value.ends_with('"');
        assert!(
            quoted || matches!(value, "true" | "false") || value.parse::<u64>().is_ok(),
            "{origin}: {key} is not an exact field (integer, string or bool): {value}"
        );
        assert!(
            out.iter().all(|(k, _)| k != key),
            "{origin}: duplicate key {key}"
        );
        out.push((key.to_string(), value.to_string()));
    }
    out
}

/// Budget keys are count ceilings: the count may only go down.
fn is_budget_key(key: &str) -> bool {
    key.contains("waiver")
        || ["violations_", "lines_", "pub_"]
            .iter()
            .any(|prefix| key.starts_with(prefix))
}

/// One line per baseline field (`ok` or `FAIL`), then one `FAIL` per
/// current-only key. The gate passes when no line starts with `FAIL`.
fn compare(baseline: &[(String, String)], current: &[(String, String)]) -> Vec<String> {
    let mut lines = Vec::new();
    for (key, base) in baseline {
        let cur = current.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let (ok, rule) = match cur {
            None => (false, "missing from the current report".to_string()),
            Some(cur) if is_budget_key(key) => (
                matches!((cur.parse::<u64>(), base.parse::<u64>()), (Ok(c), Ok(b)) if c <= b),
                format!("{cur} vs budget {base} (bump the baseline to widen)"),
            ),
            Some(cur) => (
                cur == base || (base == "false" && cur == "true"),
                format!("{cur} vs baseline {base} (exact)"),
            ),
        };
        lines.push(format!(
            "{} {key}: {rule}",
            if ok { "ok  " } else { "FAIL" }
        ));
    }
    for (key, _) in current {
        if baseline.iter().all(|(k, _)| k != key) {
            lines.push(format!(
                "FAIL {key}: not in the baseline (add it there in the same PR)"
            ));
        }
    }
    lines
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, current_path) = match &argv[..] {
        [b, baseline, c, current] if b == "--baseline" && c == "--current" => (baseline, current),
        _ => panic!("usage: bench_compare --baseline <file> --current <file>, got {argv:?}"),
    };

    let baseline_text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let current_text = match std::fs::read_to_string(current_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: current report {current_path} missing: {e}");
            return ExitCode::FAILURE;
        }
    };
    let lines = compare(
        &parse_flat_json(&baseline_text, baseline_path),
        &parse_flat_json(&current_text, current_path),
    );
    for line in &lines {
        println!("  {line}");
    }
    let failures = lines.iter().filter(|l| l.starts_with("FAIL")).count();
    println!(
        "bench_compare: {} fields, {failures} failures (baseline {baseline_path})",
        lines.len()
    );
    ExitCode::from(u8::from(failures > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = "{\n  \"bench\": \"em_scale\",\n  \"em_rounds\": 3,\n  \
        \"waivers_total\": 3,\n  \"lines_core\": 5351,\n  \"pub_core\": 200,\n  \
        \"bitwise_equal\": true,\n  \
        \"trust_checksum\": \"0x12563b294393137f\"\n}\n";

    fn failures(current: &str) -> Vec<String> {
        compare(
            &parse_flat_json(BASELINE, "baseline.json"),
            &parse_flat_json(current, "current.json"),
        )
        .into_iter()
        .filter(|l| l.starts_with("FAIL"))
        .collect()
    }

    #[test]
    #[should_panic(expected = "duplicate key em_rounds")]
    fn rejects_a_report_with_duplicate_keys() {
        parse_flat_json(
            "{\n  \"em_rounds\": 3,\n  \"em_rounds\": 4\n}\n",
            "dup.json",
        );
    }

    #[test]
    #[should_panic(expected = "fit_ms is not an exact field")]
    fn rejects_a_timing() {
        parse_flat_json("{\n  \"fit_ms\": 365.5\n}\n", "timed.json");
    }

    #[test]
    fn an_identical_report_passes_and_budgets_may_shrink() {
        assert!(failures(BASELINE).is_empty());
        let shrunk = BASELINE
            .replace("\"waivers_total\": 3", "\"waivers_total\": 2")
            .replace("\"lines_core\": 5351", "\"lines_core\": 5000");
        assert!(failures(&shrunk).is_empty());
    }

    #[test]
    fn the_pub_budget_may_fall_but_never_rise() {
        let fewer = BASELINE.replace("\"pub_core\": 200", "\"pub_core\": 180");
        assert!(failures(&fewer).is_empty());
        let more = BASELINE.replace("\"pub_core\": 200", "\"pub_core\": 201");
        let failed = failures(&more);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].starts_with("FAIL pub_core"), "{failed:?}");
    }

    #[test]
    fn a_checksum_off_by_one_hex_digit_fails() {
        let moved = BASELINE.replace("0x12563b294393137f", "0x12563b294393137e");
        let failed = failures(&moved);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].starts_with("FAIL trust_checksum"), "{failed:?}");
    }

    #[test]
    fn every_other_drift_fails() {
        for (from, to) in [
            ("\"em_rounds\": 3", "\"em_rounds\": 2"),
            ("\"waivers_total\": 3", "\"waivers_total\": 4"),
            ("\"lines_core\": 5351", "\"lines_core\": 5352"),
            ("\"bitwise_equal\": true", "\"bitwise_equal\": false"),
            ("\"em_rounds\": 3", "\"em_rounds\": \"3\""),
            ("  \"em_rounds\": 3,\n", ""),
            (
                "  \"em_rounds\": 3,\n",
                "  \"em_rounds\": 3,\n  \"extra\": 1,\n",
            ),
        ] {
            assert!(BASELINE.contains(from));
            assert_eq!(
                failures(&BASELINE.replace(from, to)).len(),
                1,
                "{from} → {to}"
            );
        }
    }
}
