//! Machine-readable reports of exact facts.
//!
//! `em_scale` and `kbt-lint` emit a flat `BENCH_<name>.json` next to
//! their stdout report, so CI can gate the fields that must not drift
//! (checksums, corpus and round counts, waiver and line budgets) with
//! `bench_compare` without scraping text output. No timings: those are
//! `benchmark/`'s.
//!
//! The emitter is deliberately dependency-free: a flat string →
//! integer/string/bool map, written with stable field order (insertion
//! order), no serde.

use std::fs;
use std::io;
use std::path::PathBuf;

/// Builder for one `BENCH_<name>.json` file.
///
/// Fields appear in the output in insertion order; `bench` and `mode`
/// are always first.
#[derive(Debug)]
pub struct BenchReport {
    name: String,
    fields: Vec<(String, String)>,
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl BenchReport {
    /// Start a report for the scenario `name` running at `mode`
    /// (e.g. `"smoke"` or `"full"`).
    pub fn new(name: &str, mode: &str) -> Self {
        Self {
            name: name.to_string(),
            fields: vec![
                ("bench".into(), json_string(name)),
                ("mode".into(), json_string(mode)),
            ],
        }
    }

    /// Append one rendered field. A repeated key is a bug in the scenario
    /// binary (a JSON reader would silently keep one of the two values),
    /// so it panics instead of writing an ambiguous report.
    fn push(&mut self, key: &str, rendered: String) -> &mut Self {
        assert!(
            self.fields.iter().all(|(k, _)| k != key),
            "BENCH_{}.json: key {key:?} recorded twice",
            self.name
        );
        self.fields.push((key.into(), rendered));
        self
    }

    /// Record an integer field. Panics if `key` was already recorded.
    pub fn count(&mut self, key: &str, value: u64) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// Record a string field (e.g. a hex checksum). Panics if `key` was
    /// already recorded.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.push(key, json_string(value))
    }

    /// Record a boolean field (e.g. an assertion outcome). Panics if
    /// `key` was already recorded.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.push(key, value.to_string())
    }

    /// The serialized JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&json_string(key));
            out.push_str(": ");
            out.push_str(value);
            if i + 1 < self.fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push('}');
        out.push('\n');
        out
    }

    /// Write `BENCH_<name>.json` into the current working directory (the
    /// workspace root under `cargo run`) and return its path.
    pub fn write(&self) -> io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{}.json", self.name));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_json_in_insertion_order() {
        let mut r = BenchReport::new("demo", "smoke");
        r.count("em_rounds", 17)
            .text("checksum", "0xdead\"beef")
            .flag("ok", true);
        let json = r.to_json();
        assert_eq!(
            json,
            "{\n  \"bench\": \"demo\",\n  \"mode\": \"smoke\",\n  \"em_rounds\": 17,\n  \"checksum\": \"0xdead\\\"beef\",\n  \"ok\": true\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn refuses_a_repeated_key() {
        let mut r = BenchReport::new("demo", "smoke");
        r.count("em_rounds", 1).count("em_rounds", 2);
    }
}
