//! The metric tables (`BENCHMARK.json` lists exactly these names) and
//! the result of one workload run, printed as text lines for people and
//! one final JSON line for the driver.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::sys::Host;

/// One metric of the benchmark's contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may get worse before a change is a regression.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        better: "higher",
        ..lower(name, unit)
    }
}

const fn bounded(spec: MetricSpec, bound: f64) -> MetricSpec {
    MetricSpec {
        bound: Some(bound),
        ..spec
    }
}

/// What a user of the system sees. Every workload reports every one:
/// `op` is the workload's unit of work (one fit, one query round trip,
/// one ingest committed), `aux` its second user-visible operation
/// (copy detection, the cube build, a 64-source batch query, crash
/// recovery, an ingest beside queries) — README.md has the table.
pub const END_TO_END: &[MetricSpec] = &[
    bounded(lower("setup_s", "s"), 0.25),
    bounded(lower("op_p50_ms", "ms"), 0.25),
    bounded(higher("work_per_s", "1/s"), 0.25),
    bounded(lower("aux_p50_ms", "ms"), 0.25),
];

/// What single layers do, from the traced run. A layer that does no
/// work in a workload reads 0 there with 0 samples.
pub const PER_LAYER: &[MetricSpec] = &[
    lower("datamodel.cube_build_s", "s"),
    lower("datamodel.cube_bytes", "B"),
    lower("datamodel.chunk_s", "s"),
    lower("datamodel.chunk_store_write_s", "s"),
    lower("datamodel.chunk_store_open_s", "s"),
    lower("datamodel.chunk_store_bytes", "B"),
    lower("datamodel.chunk_store_read_bytes", "B"),
    lower("datamodel.chunk_store_read_amp", "x"),
    lower("datamodel.apply_delta_ms", "ms"),
    lower("datamodel.retract_ms", "ms"),
    lower("datamodel.coclaim_index_s", "s"),
    lower("datamodel.coclaim_candidate_pairs", "count"),
    lower("core.fit_s", "s"),
    lower("core.fit_1t_s", "s"),
    higher("core.fit_speedup_2t", "x"),
    lower("core.em_rounds", "count"),
    lower("core.round_ms", "ms"),
    lower("core.streamed_fit_s", "s"),
    lower("core.copydetect_score_s", "s"),
    lower("core.copy_pairs_scored", "count"),
    lower("core.kbt_mae", "abs"),
    lower("flume.dispatch_us", "us"),
    lower("pipeline.overhead_s", "s"),
    lower("pipeline.session_update_ms", "ms"),
    lower("pipeline.session_run_ms", "ms"),
    lower("pipeline.warm_rounds", "count"),
    lower("serve.snapshot_build_ms", "ms"),
    lower("serve.publish_us", "us"),
    lower("serve.refit_ms", "ms"),
    lower("serve.read_trust_ns", "ns"),
    lower("serve.read_posterior_ns", "ns"),
    lower("serve.read_batch64_ns", "ns"),
    lower("serve.read_topk100_ns", "ns"),
    higher("serve.mixed_ingest_obs_per_s", "1/s"),
    lower("store.wal_append_us", "us"),
    lower("store.wal_sync_us", "us"),
    lower("store.wal_bytes_per_obs", "B"),
    lower("store.checkpoint_ms", "ms"),
    lower("store.checkpoint_bytes", "B"),
    lower("store.checkpoint_decode_ms", "ms"),
    lower("store.wal_read_ms", "ms"),
    lower("store.durable_overhead_ms", "ms"),
    lower("store.dir_bytes_per_obs", "B"),
    lower("store.publish_tail_ms", "ms"),
    lower("net.req_encode_ns", "ns"),
    lower("net.req_decode_ns", "ns"),
    lower("net.reply_encode_ns", "ns"),
    lower("net.reply_decode_ns", "ns"),
    lower("net.batch64_req_encode_ns", "ns"),
    lower("net.batch64_req_decode_ns", "ns"),
    lower("net.batch64_reply_encode_ns", "ns"),
    lower("net.batch64_reply_decode_ns", "ns"),
    lower("net.frame_ns", "ns"),
    lower("net.bytes_per_query", "B"),
    lower("net.ping_rtt_us", "us"),
    lower("net.connect_us", "us"),
    lower("net.point_p50_us", "us"),
    lower("net.posterior_p50_us", "us"),
    lower("net.topk100_p50_us", "us"),
    lower("net.rtt_unaccounted_us", "us"),
    lower("net.ingest_ack_us", "us"),
    lower("net.query_tail_us", "us"),
    // Demoted from the end-to-end metrics: glibc's thread-to-arena
    // assignment and seed-dependent buffer growth move VmHWM by up to
    // 19% (interquartile, ten seeds) on the thread-heavy workloads.
    lower("bench.peak_rss_mb", "MB"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.warmup_s", "s"),
    lower("bench.error_rate", "ratio"),
];

/// One measured value and how many samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// A line of the text report that is not part of the contract: the
/// workload's own name for a number (`fit_wall_s`, `query_qps`, …).
#[derive(Debug, Clone)]
pub struct Detail {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// One output check. A failed check is a failed operation.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, Value>,
    pub details: Vec<Detail>,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
    /// Operations attempted, output checks included.
    pub attempted: u64,
    /// Operations that failed, failed output checks included.
    pub failed: u64,
}

impl Outcome {
    /// Set a contract metric. Panics on a name the tables do not list:
    /// the program and `BENCHMARK.json` must not drift apart.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the contract tables"
        );
        self.values.insert(name, Value { value, samples });
    }

    pub fn detail(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.details.push(Detail {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Record an output check; it counts as one operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.ops(1, u64::from(!ok));
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// No operation failed, and every contract value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.values.values().all(|v| v.value.is_finite())
    }

    /// The text report: one line per metric with unit and sample count,
    /// every check, every note.
    pub fn text(&self, workload: &str, specs: &[MetricSpec], host: &Host) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {workload}: nproc={} cpu=\"{}\" workdir_fs={}",
            host.nproc, host.cpu_model, host.workdir_fs
        );
        for note in &self.notes {
            let _ = writeln!(s, "note {note}");
        }
        for spec in specs {
            let v = self.value_of(spec.name);
            let _ = writeln!(
                s,
                "metric {} {} {} n={}",
                spec.name, v.value, spec.unit, v.samples
            );
        }
        for d in &self.details {
            let _ = writeln!(
                s,
                "detail {} {} {} n={}",
                d.name, d.value, d.unit, d.samples
            );
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(s, "check {} {verdict} {}", c.name, c.detail);
        }
        let _ = writeln!(
            s,
            "operations attempted={} failed={} error_rate={}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        s
    }

    fn value_of(&self, name: &str) -> Value {
        self.values.get(name).copied().unwrap_or(Value {
            value: 0.0,
            samples: 0,
        })
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `specs`.
    pub fn json_line(&self, specs: &[MetricSpec]) -> String {
        let metrics: Vec<String> = specs
            .iter()
            .map(|spec| {
                let v = self.value_of(spec.name).value;
                // JSON has no NaN or infinity; `correct` is already false then.
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    spec.name, spec.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// of the two tables, with the same unit and direction.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.set("setup_s", 0.25, 3);
        o.set("op_p50_ms", 1.5, 10);
        o.ops(10, 0);
        o.check("shape", true, "fine");
        let line = o.json_line(END_TO_END);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 11, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"aux_p50_ms\": {\"value\": 0, \"unit\": \"ms\"}"));
        assert!(!line.contains('\n'));

        o.check("broken", false, "nope");
        assert!(!o.correct());
        assert!(o
            .json_line(END_TO_END)
            .starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1,"));
    }

    #[test]
    #[should_panic(expected = "not in the contract tables")]
    fn unknown_metric_names_are_rejected() {
        Outcome::default().set("made_up", 1.0, 1);
    }
}
