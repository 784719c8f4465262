//! Workspace traversal: find every `src/**/*.rs` of every member crate,
//! lint it, and aggregate the outcome.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{count_pub, lint_file, Diagnostic, FileCtx, RuleId, ALL_RULES};

/// Aggregated result of a workspace scan.
#[derive(Debug)]
pub struct ScanOutcome {
    pub files_scanned: u64,
    pub lines_scanned: u64,
    /// Source lines per package (`kbt-core`, …) — the ROADMAP's tracked
    /// line-count metric.
    pub lines_by_crate: BTreeMap<String, u64>,
    /// Bare `pub` declarations per package ([`count_pub`]) — the `pub`
    /// budget.
    pub pub_by_crate: BTreeMap<String, u64>,
    pub diagnostics: Vec<Diagnostic>,
    /// Wall time of the scan, in milliseconds.
    pub scan_wall_ms: f64,
}

impl ScanOutcome {
    /// Unwaived violations per rule key.
    pub fn violations_by_rule(&self) -> BTreeMap<&'static str, u64> {
        let mut map: BTreeMap<&'static str, u64> = ALL_RULES.iter().map(|r| (r.key(), 0)).collect();
        for d in self.diagnostics.iter().filter(|d| !d.waived) {
            *map.entry(d.rule.key()).or_insert(0) += 1;
        }
        map
    }

    /// Waived (escape-hatched) findings per rule key.
    pub fn waived_by_rule(&self) -> BTreeMap<&'static str, u64> {
        let mut map: BTreeMap<&'static str, u64> = ALL_RULES.iter().map(|r| (r.key(), 0)).collect();
        for d in self.diagnostics.iter().filter(|d| d.waived) {
            *map.entry(d.rule.key()).or_insert(0) += 1;
        }
        map
    }

    pub fn unwaived(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| !d.waived)
    }

    pub fn waiver_count(&self) -> u64 {
        self.diagnostics.iter().filter(|d| d.waived).count() as u64
    }

    /// The machine-readable report: schema header, per-rule counts, and
    /// every diagnostic (waived ones included, so the escape hatch is
    /// auditable). Hand-rolled flat JSON in the house style — no serde.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
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
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"kbt-lint-v1\",\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"lines_scanned\": {},\n", self.lines_scanned));
        out.push_str(&format!("  \"scan_wall_ms\": {:.3},\n", self.scan_wall_ms));
        out.push_str("  \"rules\": {\n");
        let violations = self.violations_by_rule();
        let waived = self.waived_by_rule();
        for (i, rule) in ALL_RULES.iter().enumerate() {
            let key = rule.key();
            out.push_str(&format!(
                "    {}: {{\"violations\": {}, \"waived\": {}}}{}\n",
                esc(key),
                violations.get(key).copied().unwrap_or(0),
                waived.get(key).copied().unwrap_or(0),
                if i + 1 < ALL_RULES.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n");
        out.push_str("  \"diagnostics\": [\n");
        for (i, d) in self.diagnostics.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"waived\": {}, \"message\": {}}}{}\n",
                esc(&d.file),
                d.line,
                esc(d.rule.key()),
                d.waived,
                esc(&d.message),
                if i + 1 < self.diagnostics.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Map a workspace-relative source root to its package name. Crate
/// directories follow the `crates/<dir>` → `kbt-<dir>` convention; the
/// root `src/` belongs to the `kbt` facade.
fn crate_name_for(root: &Path, src_dir: &Path) -> String {
    let rel = src_dir.strip_prefix(root).unwrap_or(src_dir);
    let mut parts = rel.components().map(|c| c.as_os_str().to_string_lossy());
    match (parts.next().as_deref(), parts.next()) {
        (Some("crates"), Some(dir)) => format!("kbt-{dir}"),
        _ => "kbt".to_string(),
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan the workspace rooted at `root`: the facade's `src/` plus every
/// `crates/*/src/`. Vendored shims (`vendor/`), integration tests
/// (`tests/`), examples, and fixtures are outside the policy and are
/// not visited.
pub fn scan_workspace(root: &Path) -> io::Result<ScanOutcome> {
    let started = std::time::Instant::now();
    let mut src_dirs: Vec<PathBuf> = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        src_dirs.push(facade);
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path().join("src"))
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        src_dirs.extend(members);
    }

    let mut outcome = ScanOutcome {
        files_scanned: 0,
        lines_scanned: 0,
        lines_by_crate: BTreeMap::new(),
        pub_by_crate: BTreeMap::new(),
        diagnostics: Vec::new(),
        scan_wall_ms: 0.0,
    };
    for src_dir in &src_dirs {
        let crate_name = crate_name_for(root, src_dir);
        let mut files = Vec::new();
        collect_rs(src_dir, &mut files)?;
        files.sort();
        for path in files {
            let source = fs::read_to_string(&path)?;
            let display = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .into_owned();
            let ctx = FileCtx {
                crate_name: crate_name.clone(),
                file_name: path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default(),
                display_path: display,
            };
            let lines = source.lines().count() as u64;
            outcome.files_scanned += 1;
            outcome.lines_scanned += lines;
            *outcome
                .lines_by_crate
                .entry(crate_name.clone())
                .or_insert(0) += lines;
            *outcome.pub_by_crate.entry(crate_name.clone()).or_insert(0) += count_pub(&source);
            outcome.diagnostics.extend(lint_file(&ctx, &source));
        }
    }
    outcome.scan_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(outcome)
}

/// Order diagnostics for display: by file, then line, then rule key.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.key()).cmp(&(b.file.as_str(), b.line, b.rule.key()))
    });
}

/// Render one diagnostic in the `file:line: rule: message` shape.
pub fn render(d: &Diagnostic) -> String {
    format!(
        "{}:{}: {}{}: {}",
        d.file,
        d.line,
        d.rule.key(),
        if d.waived { " (waived)" } else { "" },
        d.message
    )
}

// Re-exported for the CLI's per-rule summary table.
pub use crate::rules::ALL_RULES as RULES;

/// A stable slug for a rule, used in `BENCH_lint.json` field names
/// (`-` is awkward in flat keys).
pub fn rule_slug(rule: RuleId) -> &'static str {
    match rule {
        RuleId::Panic => "panic",
        RuleId::Atomics => "atomics",
        RuleId::Safety => "safety",
        RuleId::HostileLen => "hostile_len",
        RuleId::AllowAttr => "allow_attr",
        RuleId::Layering => "layering",
    }
}
