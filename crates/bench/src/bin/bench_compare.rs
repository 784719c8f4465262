//! CI regression gate over `BENCH_*.json` reports.
//!
//! ```text
//! cargo run --release -p kbt-bench --bin bench_compare -- \
//!     --baseline bench/baselines/BENCH_em_scale.json --current BENCH_em_scale.json \
//!     [--tolerance 0.2]
//! ```
//!
//! Compares a freshly produced report against the committed baseline and
//! exits non-zero when performance regressed beyond the tolerance band:
//!
//! * **throughput keys** (`*per_s`, `*per_sec`, `*qps`, `*throughput`,
//!   `*speedup`, `*ops*`): current must be ≥ `tolerance × baseline`;
//! * **latency/wall keys** (`*_ms`, `*_ns`, `*wall*`, `*latency*`,
//!   `*p50*`/`*p95*`/`*p99*`): current must be ≤ `baseline / tolerance`;
//! * **booleans** that are `true` in the baseline must stay `true`
//!   (e.g. `bitwise_equal`);
//! * **budget keys** (`*waiver*`, `violations_*` — the `kbt-lint`
//!   report): current must be ≤ baseline **exactly**, no tolerance band.
//!   A new waiver requires a deliberate baseline bump in the same PR,
//!   so the escape hatch can only be widened on purpose, in review;
//! * strings and other numeric fields (corpus sizes, round counts,
//!   checksums) are informational and skipped.
//!
//! The default tolerance of `0.2` is a deliberately wide 5× band: CI
//! machines differ in core count and libm, so only order-of-magnitude
//! regressions (an accidentally quadratic loop, a dead parallel path)
//! should trip the gate — not scheduler noise. Keys present in the
//! baseline but missing from the current report fail the gate; a missing
//! current file fails immediately, and a report (either side) that lists
//! a key twice is rejected outright.

use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Num(f64),
    Bool(bool),
    Str(String),
    Null,
}

/// Parse the flat single-level JSON objects `BenchReport` emits. Not a
/// general JSON parser: no nesting, no arrays — exactly the subset the
/// reports use (and it rejects anything else loudly, a key that appears
/// twice included: which of its values would be gated is anyone's guess).
fn parse_flat_json(text: &str, origin: &str) -> Vec<(String, Value)> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .unwrap_or_else(|| panic!("{origin}: not a JSON object"));
    let mut out = Vec::new();
    // One `"key": value` per line, comma-terminated — the exact shape
    // `BenchReport::to_json` produces.
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix('"')
            .unwrap_or_else(|| panic!("{origin}: field does not start with a quoted key: {line}"));
        let (key, rest) = rest
            .split_once('"')
            .unwrap_or_else(|| panic!("{origin}: unterminated key: {line}"));
        let raw = rest
            .trim()
            .strip_prefix(':')
            .unwrap_or_else(|| panic!("{origin}: missing ':' after key {key}"))
            .trim();
        let value = if raw == "true" {
            Value::Bool(true)
        } else if raw == "false" {
            Value::Bool(false)
        } else if raw == "null" {
            Value::Null
        } else if let Some(s) = raw.strip_prefix('"') {
            let s = s
                .strip_suffix('"')
                .unwrap_or_else(|| panic!("{origin}: unterminated string for {key}"));
            // The emitter only escapes control characters, quotes and
            // backslashes; unescape the two that can round-trip here.
            Value::Str(s.replace("\\\"", "\"").replace("\\\\", "\\"))
        } else {
            Value::Num(
                raw.parse::<f64>()
                    .unwrap_or_else(|_| panic!("{origin}: unparseable value for {key}: {raw}")),
            )
        };
        assert!(
            out.iter().all(|(k, _)| k != key),
            "{origin}: duplicate key {key}"
        );
        out.push((key.to_string(), value));
    }
    out
}

/// Budget keys are count ceilings, not performance: checked first (so a
/// name like `waivers_total` is never misread as throughput) and gated
/// with no tolerance — the count may only go down.
fn is_budget_key(key: &str) -> bool {
    let k = key.to_ascii_lowercase();
    k.contains("waiver") || k.starts_with("violations_")
}

fn is_throughput_key(key: &str) -> bool {
    let k = key.to_ascii_lowercase();
    ["per_s", "per_sec", "qps", "throughput", "speedup", "ops"]
        .iter()
        .any(|pat| k.contains(pat))
}

fn is_latency_key(key: &str) -> bool {
    let k = key.to_ascii_lowercase();
    k.ends_with("_ms")
        || k.ends_with("_ns")
        || k.ends_with("_us")
        || ["_ms_", "_ns_", "wall", "latency", "p50", "p95", "p99"]
            .iter()
            .any(|pat| k.contains(pat))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let mut baseline_path = None;
    let mut current_path = None;
    let mut tolerance = 0.2f64;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--baseline" => {
                i += 1;
                baseline_path = argv.get(i).cloned();
            }
            "--current" => {
                i += 1;
                current_path = argv.get(i).cloned();
            }
            "--tolerance" => {
                i += 1;
                tolerance = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--tolerance needs a number in (0, 1]");
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    let baseline_path = baseline_path.expect("--baseline <file> is required");
    let current_path = current_path.expect("--current <file> is required");
    assert!(
        tolerance > 0.0 && tolerance <= 1.0,
        "tolerance must be in (0, 1], got {tolerance}"
    );

    let baseline_text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let current_text = match std::fs::read_to_string(&current_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: current report {current_path} missing: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = parse_flat_json(&baseline_text, &baseline_path);
    let current = parse_flat_json(&current_text, &current_path);
    let lookup = |key: &str| current.iter().find(|(k, _)| k == key).map(|(_, v)| v);

    let mut failures = 0usize;
    let mut checked = 0usize;
    for (key, base) in &baseline {
        match base {
            Value::Num(b) if is_budget_key(key) => {
                checked += 1;
                match lookup(key) {
                    Some(Value::Num(c)) => {
                        let ok = *c <= *b;
                        println!(
                            "  {} {key}: {c:.0} vs budget {b:.0} (exact — bump the baseline to widen)",
                            if ok { "ok  " } else { "FAIL" }
                        );
                        if !ok {
                            failures += 1;
                        }
                    }
                    other => {
                        println!("  FAIL {key}: expected a number, current has {other:?}");
                        failures += 1;
                    }
                }
            }
            Value::Num(b) if is_throughput_key(key) => {
                checked += 1;
                match lookup(key) {
                    Some(Value::Num(c)) => {
                        let floor = tolerance * b;
                        let ok = *c >= floor;
                        println!(
                            "  {} {key}: {c:.3} vs baseline {b:.3} (floor {floor:.3})",
                            if ok { "ok  " } else { "FAIL" }
                        );
                        if !ok {
                            failures += 1;
                        }
                    }
                    other => {
                        println!("  FAIL {key}: expected a number, current has {other:?}");
                        failures += 1;
                    }
                }
            }
            Value::Num(b) if is_latency_key(key) => {
                checked += 1;
                match lookup(key) {
                    Some(Value::Num(c)) => {
                        let ceiling = b / tolerance;
                        let ok = *c <= ceiling;
                        println!(
                            "  {} {key}: {c:.3} vs baseline {b:.3} (ceiling {ceiling:.3})",
                            if ok { "ok  " } else { "FAIL" }
                        );
                        if !ok {
                            failures += 1;
                        }
                    }
                    other => {
                        println!("  FAIL {key}: expected a number, current has {other:?}");
                        failures += 1;
                    }
                }
            }
            Value::Bool(true) => {
                checked += 1;
                let ok = matches!(lookup(key), Some(Value::Bool(true)));
                println!(
                    "  {} {key}: must stay true",
                    if ok { "ok  " } else { "FAIL" }
                );
                if !ok {
                    failures += 1;
                }
            }
            _ => {} // informational: sizes, checksums, strings, false flags
        }
    }

    println!(
        "bench_compare: {checked} gated fields, {failures} failures (tolerance {tolerance}, baseline {baseline_path})"
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_flat_report_shape() {
        let parsed = parse_flat_json(
            "{\n  \"bench\": \"demo\",\n  \"detect_ms_1t\": 1.5,\n  \"ok\": true,\n  \"bad\": null\n}\n",
            "demo.json",
        );
        assert_eq!(
            parsed,
            vec![
                ("bench".to_string(), Value::Str("demo".into())),
                ("detect_ms_1t".to_string(), Value::Num(1.5)),
                ("ok".to_string(), Value::Bool(true)),
                ("bad".to_string(), Value::Null),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "duplicate key estep_flat_ms_1t")]
    fn rejects_a_report_with_duplicate_keys() {
        parse_flat_json(
            "{\n  \"estep_flat_ms_1t\": 0.65,\n  \"estep_flat_ms_1t\": 0.66\n}\n",
            "dup.json",
        );
    }

    #[test]
    fn copydetect_keys_are_classified() {
        for key in ["detect_claim_pairs_per_s_1t", "web_detect_speedup_2t"] {
            assert!(is_throughput_key(key) && !is_budget_key(key), "{key}");
        }
        for key in ["detect_ms_1t", "web_detect_ms_1t"] {
            assert!(is_latency_key(key) && !is_throughput_key(key), "{key}");
        }
        for key in [
            "web_accumulator_bytes",
            "web_claim_pairs",
            "candidate_pairs",
        ] {
            assert!(
                !is_latency_key(key) && !is_throughput_key(key) && !is_budget_key(key),
                "{key} is informational"
            );
        }
    }
}
