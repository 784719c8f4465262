//! The rule engine: per-crate policy over the lexed token stream.
//!
//! Six rules, each with file:line diagnostics and an inline escape
//! hatch. A violation is **waived** by a comment on the same line or
//! within the three lines above it of the form
//!
//! ```text
//! // lint: allow(<rule>) — <reason>
//! ```
//!
//! where `<rule>` is one of `panic`, `atomics`, `safety`, `hostile-len`,
//! `allow-attr`, `layering`. Waivers are counted in the report (and
//! budget-gated in CI: the count can only go down without a baseline
//! bump).
//!
//! | rule         | scope                                           | requirement |
//! |--------------|-------------------------------------------------|-------------|
//! | `panic`      | `kbt-serve`, `kbt-net`, `kbt-store`, `kbt-datamodel::wire` | no `unwrap()` / `expect()` / `panic!` / `unreachable!` / `todo!` / `unimplemented!` / `assert!`-family in non-test code |
//! | `atomics`    | every crate except `kbt-bench`                  | `Ordering::Relaxed` / `Ordering::SeqCst` need an adjacent `ordering:` justification comment |
//! | `safety`     | whole workspace                                 | every `unsafe` needs an adjacent `SAFETY:` comment |
//! | `hostile-len`| `wire.rs` / `proto.rs` / `wal.rs` / `codec.rs` / `chunked.rs` | in a function that reads bytes, length-derived allocations (`with_capacity`, `vec![`, `read_exact`) must follow a cap check (`MAX_*`, `frame_fits`, `.count(`, `.remaining(`, or a guarded `wire` reader: `.seq(`, `.seq_n(`, `.vec_for(`) in the same function |
//! | `allow-attr` | whole workspace                                 | every `#[allow(...)]` needs an adjacent justification comment |
//! | `layering`   | whole workspace                                 | no architecture-inverting imports (see [`layering_violation`]); thread fan-out only in the crate that owns it (see [`threading_violation`]) |
//!
//! Test code is exempt everywhere: `#[cfg(test)]`-gated items and
//! `#[test]` functions are skipped token-for-token, so fixtures like a
//! `Ordering::Relaxed` inside a test module in a `src/` file produce no
//! findings.

use crate::lexer::{lex, Tok, TokKind};

/// The rule that produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    Panic,
    Atomics,
    Safety,
    HostileLen,
    AllowAttr,
    Layering,
}

/// Every rule, in report order.
pub const ALL_RULES: [RuleId; 6] = [
    RuleId::Panic,
    RuleId::Atomics,
    RuleId::Safety,
    RuleId::HostileLen,
    RuleId::AllowAttr,
    RuleId::Layering,
];

impl RuleId {
    /// The key used in escape-hatch comments and the JSON report.
    pub fn key(self) -> &'static str {
        match self {
            Self::Panic => "panic",
            Self::Atomics => "atomics",
            Self::Safety => "safety",
            Self::HostileLen => "hostile-len",
            Self::AllowAttr => "allow-attr",
            Self::Layering => "layering",
        }
    }
}

/// One finding: where, which rule, what — and whether an inline waiver
/// covers it.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: String,
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
    pub waived: bool,
}

/// Which file of which crate is being linted.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Package name, e.g. `kbt-serve` (the facade crate is `kbt`).
    pub crate_name: String,
    /// Bare file name, e.g. `proto.rs`.
    pub file_name: String,
    /// Path as shown in diagnostics, e.g. `crates/net/src/proto.rs`.
    pub display_path: String,
}

/// The serving-path crates under the panic-freedom rule. In
/// `kbt-datamodel` only the wire codec (`wire.rs`) is serving-path; the
/// cube builders legitimately assert model invariants.
fn panic_rule_applies(ctx: &FileCtx) -> bool {
    matches!(
        ctx.crate_name.as_str(),
        "kbt-serve" | "kbt-net" | "kbt-store"
    ) || (ctx.crate_name == "kbt-datamodel" && ctx.file_name == "wire.rs")
}

/// The wire-shaped modules under the hostile-length rule: anything that
/// decodes length prefixes from bytes it did not produce.
fn hostile_len_applies(ctx: &FileCtx) -> bool {
    matches!(
        ctx.file_name.as_str(),
        "wire.rs" | "proto.rs" | "wal.rs" | "codec.rs" | "chunked.rs"
    )
}

/// Layering policy: `Some(reason)` when `crate_name` must not mention
/// `dep` (an identifier like `kbt_serve`).
///
/// * `kbt-datamodel` and `kbt-flume` are the foundation — importing the
///   engine or serving layers from them inverts the architecture;
/// * the write path has one seam, `kbt_serve::DurabilityHook`: the
///   server owns its store through it, so `kbt-serve` knows neither
///   `kbt_store` nor `kbt_net`, and the store and the network front end
///   do not know each other (a durable network service is composed by
///   whoever holds both — `DurableTrustServer::into_server` into
///   `NetServer::spawn`);
/// * `kbt-synth` is bench-only scaffolding: only `kbt-bench` and the
///   `kbt` facade (which re-exports everything) may depend on it;
/// * `kbt-bench` is a leaf: only `kbt-lint` (for the report shape) may
///   import it.
pub fn layering_violation(crate_name: &str, dep: &str) -> Option<String> {
    let inverted = [
        "kbt_core",
        "kbt_pipeline",
        "kbt_serve",
        "kbt_net",
        "kbt_store",
        "kbt_bench",
    ];
    if matches!(crate_name, "kbt-datamodel" | "kbt-flume") && inverted.contains(&dep) {
        return Some(format!(
            "{crate_name} is a foundation crate and must not import {dep} (architecture inversion)"
        ));
    }
    if matches!(
        (crate_name, dep),
        ("kbt-serve", "kbt_store" | "kbt_net")
            | ("kbt-net", "kbt_store")
            | ("kbt-store", "kbt_net")
    ) {
        return Some(format!(
            "{crate_name} must not import {dep}: the write path composes through kbt_serve::DurabilityHook"
        ));
    }
    if dep == "kbt_synth" && !matches!(crate_name, "kbt-synth" | "kbt-bench" | "kbt") {
        return Some(format!(
            "{crate_name} must not import kbt_synth (bench-only scaffolding)"
        ));
    }
    if dep == "kbt_bench" && !matches!(crate_name, "kbt-bench" | "kbt-lint") {
        return Some(format!(
            "{crate_name} must not import kbt_bench (leaf crate)"
        ));
    }
    None
}

/// Threading policy, the other half of `layering`: `Some(reason)` when
/// `crate_name` must not make `call` in non-test code.
///
/// * `thread::scope` and `available_parallelism` belong to `kbt-flume`
///   alone — one scoped-worker primitive, one worker-count policy; every
///   data-parallel loop elsewhere goes through them, so a thread budget
///   set with `kbt_flume::with_threads` governs all of it;
/// * `thread::spawn` (detached, long-lived threads) belongs to `kbt-net`
///   (connection and writer threads) and `kbt-bench`.
pub fn threading_violation(crate_name: &str, call: &str) -> Option<String> {
    let (owners, instead): (&[&str], &str) = match call {
        "thread::spawn" => (
            &["kbt-net", "kbt-bench"],
            "run data-parallel work on kbt_flume::run_tasks or its adapters",
        ),
        "thread::scope" => (
            &["kbt-flume"],
            "run on kbt_flume::run_tasks or its adapters",
        ),
        _ => (&["kbt-flume"], "ask kbt_flume::num_threads"),
    };
    (!owners.contains(&crate_name))
        .then(|| format!("{call} outside {} — {instead}", owners.join(" / ")))
}

/// Token-index spans computed once per file, driving every rule.
struct FileMap {
    toks: Vec<Tok>,
    /// `true` for tokens inside `#[cfg(test)]` items or `#[test]` fns.
    in_test: Vec<bool>,
    /// `true` for tokens inside any `#[...]` attribute.
    in_attr: Vec<bool>,
    /// Contiguous comment blocks: (first line, last line, concatenated
    /// text, contains a plain non-doc comment). A block ending within
    /// three lines above a use site counts as adjacent **in full**, so a
    /// multi-line justification reaches the code it annotates.
    comment_blocks: Vec<(u32, u32, String, bool)>,
}

impl FileMap {
    fn build(source: &str) -> Self {
        let toks = lex(source);
        let n = toks.len();
        let mut comment_blocks: Vec<(u32, u32, String, bool)> = Vec::new();
        for t in &toks {
            if t.kind != TokKind::Comment {
                continue;
            }
            let is_doc = t.text.starts_with("///")
                || t.text.starts_with("//!")
                || t.text.starts_with("/**")
                || t.text.starts_with("/*!");
            let end = t.line + t.text.matches('\n').count() as u32;
            match comment_blocks.last_mut() {
                // Same or next line: extend the running block.
                Some((_, last_end, text, plain)) if t.line <= *last_end + 1 => {
                    *last_end = end;
                    text.push_str(&t.text);
                    text.push('\n');
                    *plain |= !is_doc;
                }
                _ => comment_blocks.push((t.line, end, format!("{}\n", t.text), !is_doc)),
            }
        }
        let code: Vec<usize> = (0..n)
            .filter(|&i| toks[i].kind != TokKind::Comment)
            .collect();

        // Attribute spans: `#` `[` … matching `]` (brackets nest inside
        // attribute arguments, e.g. `#[cfg(any(test, feature = "x"))]`).
        let mut in_attr = vec![false; n];
        let mut attrs: Vec<(usize, usize)> = Vec::new(); // code-index spans
        let mut ci = 0usize;
        while ci < code.len() {
            let i = code[ci];
            if toks[i].is_punct('#') {
                let mut cj = ci + 1;
                // `#![...]` inner attributes.
                if cj < code.len() && toks[code[cj]].is_punct('!') {
                    cj += 1;
                }
                if cj < code.len() && toks[code[cj]].is_punct('[') {
                    let mut depth = 0i32;
                    let mut ck = cj;
                    while ck < code.len() {
                        let t = &toks[code[ck]];
                        if t.is_punct('[') {
                            depth += 1;
                        } else if t.is_punct(']') {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        ck += 1;
                    }
                    for &idx in &code[ci..=ck.min(code.len() - 1)] {
                        in_attr[idx] = true;
                    }
                    attrs.push((ci, ck.min(code.len() - 1)));
                    ci = ck + 1;
                    continue;
                }
            }
            ci += 1;
        }

        // Test spans: a `#[cfg(test)]` or `#[test]` attribute gates the
        // item that follows (through its `{…}` body or terminating `;`).
        let mut in_test = vec![false; n];
        for &(a_start, a_end) in &attrs {
            let attr_idents: Vec<&str> = code[a_start..=a_end]
                .iter()
                .filter(|&&i| toks[i].kind == TokKind::Ident)
                .map(|&i| toks[i].text.as_str())
                .collect();
            let is_test_attr = attr_idents.first() == Some(&"test")
                || (attr_idents.contains(&"cfg")
                    && attr_idents.contains(&"test")
                    // `#[cfg(not(test))]` gates production code.
                    && !attr_idents.contains(&"not"));
            if !is_test_attr {
                continue;
            }
            // Find the gated item's extent: skip further attributes,
            // then run to the matching `}` of its first body (or `;`).
            let mut cj = a_end + 1;
            while cj + 1 < code.len()
                && toks[code[cj]].is_punct('#')
                && toks[code[cj + 1]].is_punct('[')
            {
                // Another attribute: skip its span.
                if let Some(&(_, e)) = attrs.iter().find(|&&(s, _)| s == cj) {
                    cj = e + 1;
                } else {
                    break;
                }
            }
            let item_start = cj;
            let mut depth = 0i32;
            let mut item_end = code.len().saturating_sub(1);
            while cj < code.len() {
                let t = &toks[code[cj]];
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        item_end = cj;
                        break;
                    }
                } else if t.is_punct(';') && depth == 0 {
                    item_end = cj;
                    break;
                }
                cj += 1;
            }
            if item_start < code.len() {
                for &idx in &code[a_start..=item_end.min(code.len() - 1)] {
                    in_test[idx] = true;
                }
            }
        }

        Self {
            toks,
            in_test,
            in_attr,
            comment_blocks,
        }
    }

    /// The comment text adjacent to `line`: every comment block that
    /// ends on the line itself (a trailing comment) or within the three
    /// lines above it. Whole blocks count, so a multi-line
    /// justification's marker may sit on any of its lines.
    fn adjacent_comments(&self, line: u32) -> String {
        let lo = line.saturating_sub(3);
        let mut out = String::new();
        for (_, end, text, _) in &self.comment_blocks {
            if *end >= lo && *end <= line {
                out.push_str(text);
            }
        }
        out
    }

    fn waived(&self, rule: RuleId, line: u32) -> bool {
        let needle = format!("lint: allow({})", rule.key());
        self.adjacent_comments(line).contains(&needle)
    }

    /// True when a **plain** (non-doc) comment block ends on `line` or
    /// within the three lines above. Doc comments (`///`, `//!`, `/**`,
    /// `/*!`) describe the item, not the decision — they do not justify
    /// an `#[allow]`.
    fn has_plain_comment_near(&self, line: u32) -> bool {
        let lo = line.saturating_sub(3);
        self.comment_blocks
            .iter()
            .any(|(_, end, _, plain)| *plain && *end >= lo && *end <= line)
    }
}

/// The `pub` budget's count for one file: every bare `pub` in non-test
/// code — items, fields and re-exports alike. `pub(crate)`, `pub(super)`
/// and `pub(in …)` are not public and do not count, nor does anything in
/// a `#[cfg(test)]` item or a `#[test]` function.
pub fn count_pub(source: &str) -> u64 {
    let map = FileMap::build(source);
    let code: Vec<&Tok> = (map.toks.iter().zip(&map.in_test))
        .filter(|(t, &test)| t.kind != TokKind::Comment && !test)
        .map(|(t, _)| t)
        .collect();
    let restricted = |i: usize| code.get(i + 1).is_some_and(|t| t.is_punct('('));
    (0..code.len())
        .filter(|&i| code[i].is_ident("pub") && !restricted(i))
        .count() as u64
}

/// Lint one file's source. The entry point for both the workspace scan
/// and the fixture tests.
pub fn lint_file(ctx: &FileCtx, source: &str) -> Vec<Diagnostic> {
    let map = FileMap::build(source);
    let mut diags = Vec::new();
    let mut emit = |rule: RuleId, line: u32, message: String| {
        diags.push(Diagnostic {
            file: ctx.display_path.clone(),
            line,
            rule,
            message,
            waived: map.waived(rule, line),
        });
    };

    let toks = &map.toks;
    let code: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let at = |ci: usize| -> Option<&Tok> { code.get(ci).map(|&i| &toks[i]) };

    // ---- panic-freedom ----
    if panic_rule_applies(ctx) {
        for (ci, &i) in code.iter().enumerate() {
            if map.in_test[i] || map.in_attr[i] || toks[i].kind != TokKind::Ident {
                continue;
            }
            let name = toks[i].text.as_str();
            let line = toks[i].line;
            let prev_dot = ci > 0 && at(ci - 1).is_some_and(|t| t.is_punct('.'));
            let next_paren = at(ci + 1).is_some_and(|t| t.is_punct('('));
            let next_bang = at(ci + 1).is_some_and(|t| t.is_punct('!'));
            match name {
                "unwrap" | "expect" if prev_dot && next_paren => emit(
                    RuleId::Panic,
                    line,
                    format!(".{name}() can panic in serving-path code"),
                ),
                "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
                | "assert_ne"
                    if next_bang =>
                {
                    emit(
                        RuleId::Panic,
                        line,
                        format!("{name}! can abort the serving path"),
                    )
                }
                _ => {}
            }
        }
    }

    // ---- atomic-ordering policy ----
    if ctx.crate_name != "kbt-bench" {
        for (ci, &i) in code.iter().enumerate() {
            if map.in_test[i] || map.in_attr[i] || !toks[i].is_ident("Ordering") {
                continue;
            }
            let colons = at(ci + 1).is_some_and(|t| t.is_punct(':'))
                && at(ci + 2).is_some_and(|t| t.is_punct(':'));
            if !colons {
                continue;
            }
            let Some(variant) = at(ci + 3) else { continue };
            if variant.is_ident("Relaxed") || variant.is_ident("SeqCst") {
                let line = variant.line;
                if !map.adjacent_comments(line).contains("ordering:") {
                    emit(
                        RuleId::Atomics,
                        line,
                        format!(
                            "Ordering::{} without an adjacent `ordering:` justification comment{}",
                            variant.text,
                            if variant.text == "SeqCst" {
                                " (SeqCst as a shrug — justify or downgrade to Release/Acquire)"
                            } else {
                                ""
                            }
                        ),
                    );
                }
            }
        }
    }

    // ---- unsafe hygiene ----
    for &i in &code {
        if map.in_test[i] || map.in_attr[i] || !toks[i].is_ident("unsafe") {
            continue;
        }
        let line = toks[i].line;
        if !map.adjacent_comments(line).contains("SAFETY:") {
            emit(
                RuleId::Safety,
                line,
                "unsafe without an adjacent SAFETY: comment".into(),
            );
        }
    }

    // ---- hostile-length discipline ----
    if hostile_len_applies(ctx) {
        lint_hostile_len(ctx, &map, &code, &mut emit);
    }

    // ---- allow-attribute budget ----
    {
        let mut ci = 0usize;
        while ci < code.len() {
            let i = code[ci];
            if map.in_test[i] || !toks[i].is_punct('#') {
                ci += 1;
                continue;
            }
            let mut cj = ci + 1;
            if at(cj).is_some_and(|t| t.is_punct('!')) {
                cj += 1;
            }
            if !(at(cj).is_some_and(|t| t.is_punct('['))
                && at(cj + 1).is_some_and(|t| t.is_ident("allow")))
            {
                ci += 1;
                continue;
            }
            let line = toks[i].line;
            // A plain comment nearby is the justification; doc comments
            // do not count — an unexplained `#[allow]` silently waives a
            // real warning.
            if !map.has_plain_comment_near(line) {
                emit(
                    RuleId::AllowAttr,
                    line,
                    "#[allow(...)] without a justification comment".into(),
                );
            }
            ci += 1;
        }
    }

    // ---- crate layering ----
    for (ci, &i) in code.iter().enumerate() {
        if map.in_test[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if let Some(dep) = name.strip_prefix("kbt_") {
            let dep_full = format!("kbt_{dep}");
            if let Some(reason) = layering_violation(&ctx.crate_name, &dep_full) {
                emit(RuleId::Layering, toks[i].line, reason);
            }
        }
        // `thread::scope` / `thread::spawn` as paths (a `scope.spawn(..)`
        // method call is the primitive's own business), and
        // `available_parallelism` wherever it is named.
        let on_thread = ci >= 3
            && toks[code[ci - 1]].is_punct(':')
            && toks[code[ci - 2]].is_punct(':')
            && toks[code[ci - 3]].is_ident("thread");
        let call = match name {
            "scope" | "spawn" if on_thread => format!("thread::{name}"),
            "available_parallelism" => name.to_string(),
            _ => continue,
        };
        if let Some(reason) = threading_violation(&ctx.crate_name, &call) {
            emit(RuleId::Layering, toks[i].line, reason);
        }
    }

    diags
}

/// Flag length-derived allocations not preceded by a cap check in the
/// same function. Only a function that reads bytes can hold a decoded
/// length, so only functions mentioning a byte reader (`WireReader`,
/// `read_exact*`, `from_le_bytes`) are checked — encoders and cube
/// builders size their buffers from structures already in memory. An
/// allocation site counts when its size argument mentions any lowercase
/// identifier (a runtime value — decoded lengths always are);
/// all-constant sizes (`with_capacity(PREAMBLE_BYTES)`,
/// `with_capacity(24)`) are safe by construction. A cap check is a
/// mention of a `MAX_*` constant, `wire::frame_fits`, a
/// `.count(` / `.remaining(` guard, or one of `kbt_datamodel::wire`'s
/// guarded sequence readers (`.seq(` / `.seq_n(` / `.vec_for(`) earlier in
/// the same function body — a decoded count validated against the bytes
/// actually present.
fn lint_hostile_len(
    _ctx: &FileCtx,
    map: &FileMap,
    code: &[usize],
    emit: &mut impl FnMut(RuleId, u32, String),
) {
    let toks = &map.toks;
    // Function extents: `fn` … first `{` at paren-depth 0 … matching `}`.
    let mut ci = 0usize;
    while ci < code.len() {
        if map.in_test[code[ci]] || !toks[code[ci]].is_ident("fn") {
            ci += 1;
            continue;
        }
        let mut cj = ci + 1;
        let mut paren = 0i32;
        let mut body_start = None;
        while cj < code.len() {
            let t = &toks[code[cj]];
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
            } else if t.is_punct('{') && paren == 0 {
                body_start = Some(cj);
                break;
            } else if t.is_punct(';') && paren == 0 {
                break; // trait method declaration, no body
            }
            cj += 1;
        }
        let Some(body_start) = body_start else {
            ci = cj + 1;
            continue;
        };
        let mut depth = 0i32;
        let mut body_end = code.len() - 1;
        let mut ck = body_start;
        while ck < code.len() {
            let t = &toks[code[ck]];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    body_end = ck;
                    break;
                }
            }
            ck += 1;
        }

        let reads_bytes = code[ci..=body_end].iter().any(|&i| {
            let t = &toks[i];
            t.kind == TokKind::Ident
                && (t.text == "WireReader"
                    || t.text == "from_le_bytes"
                    || t.text.starts_with("read_exact"))
        });
        if !reads_bytes {
            ci = body_end + 1;
            continue;
        }

        // One pass over the body: remember whether a cap check has been
        // seen, flag uncapped length-derived allocations after it.
        let mut capped = false;
        let mut cb = body_start;
        while cb <= body_end {
            let t = &toks[code[cb]];
            if t.kind == TokKind::Ident {
                let name = t.text.as_str();
                let cap_call = matches!(name, "count" | "remaining" | "seq" | "seq_n" | "vec_for")
                    && cb > 0
                    && toks[code[cb - 1]].is_punct('.')
                    && code.get(cb + 1).is_some_and(|&i| toks[i].is_punct('('));
                if name.starts_with("MAX_") || name == "frame_fits" || cap_call {
                    capped = true;
                } else if (name == "with_capacity" || name == "read_exact")
                    && code.get(cb + 1).is_some_and(|&i| toks[i].is_punct('('))
                {
                    if !capped && arg_mentions_runtime_value(toks, code, cb + 1) {
                        emit(
                            RuleId::HostileLen,
                            t.line,
                            format!(
                                "{name} sized from a runtime value with no earlier cap check \
                                 (MAX_* / frame_fits / .count() / .remaining() / .seq()) in this function"
                            ),
                        );
                    }
                } else if name == "vec"
                    && code.get(cb + 1).is_some_and(|&i| toks[i].is_punct('!'))
                    && !capped
                    && arg_mentions_runtime_value(toks, code, cb + 2)
                {
                    emit(
                        RuleId::HostileLen,
                        t.line,
                        "vec! sized from a runtime value with no earlier cap check \
                         (MAX_* / frame_fits / .count() / .remaining() / .seq()) in this function"
                            .into(),
                    );
                }
            }
            cb += 1;
        }
        ci = body_end + 1;
    }
}

/// True when the bracketed argument list starting at code-index `open`
/// mentions a lowercase identifier — a runtime value rather than a
/// literal/`CONST` size.
fn arg_mentions_runtime_value(toks: &[Tok], code: &[usize], open: usize) -> bool {
    let Some(&oi) = code.get(open) else {
        return false;
    };
    let (open_c, close_c) = if toks[oi].is_punct('(') {
        ('(', ')')
    } else if toks[oi].is_punct('[') {
        ('[', ']')
    } else {
        return false;
    };
    let mut depth = 0i32;
    let mut cb = open;
    while let Some(&i) = code.get(cb) {
        let t = &toks[i];
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident
            && t.text.chars().next().is_some_and(|c| c.is_lowercase())
        {
            return true;
        }
        cb += 1;
    }
    false
}
