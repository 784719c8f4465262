//! Fixture tests: every rule must catch its seeded violation, and the
//! clean twin of each fixture must pass — plus the lexer edge cases
//! that historically produce false positives in surface linters (raw
//! strings, nested block comments, test modules in `src/` files,
//! multi-line attributes).

use kbt_lint::{count_pub, lint_file, Diagnostic, FileCtx, RuleId};

fn ctx(crate_name: &str, file_name: &str) -> FileCtx {
    FileCtx {
        crate_name: crate_name.to_string(),
        file_name: file_name.to_string(),
        display_path: format!("fixtures/{file_name}"),
    }
}

fn unwaived(diags: &[Diagnostic], rule: RuleId) -> Vec<&Diagnostic> {
    diags
        .iter()
        .filter(|d| d.rule == rule && !d.waived)
        .collect()
}

// ---- one seeded-violation + clean-twin pair per rule ----

#[test]
fn panic_rule_catches_seeded_violations() {
    let diags = lint_file(
        &ctx("kbt-serve", "store.rs"),
        include_str!("fixtures/panic_violation.rs"),
    );
    let hits = unwaived(&diags, RuleId::Panic);
    assert_eq!(hits.len(), 3, "unwrap, expect, and assert!: {diags:?}");
    assert!(hits.iter().any(|d| d.message.contains("unwrap")));
    assert!(hits.iter().any(|d| d.message.contains("expect")));
    assert!(hits.iter().any(|d| d.message.contains("assert!")));
}

#[test]
fn panic_clean_twin_passes_with_one_waiver() {
    let diags = lint_file(
        &ctx("kbt-serve", "store.rs"),
        include_str!("fixtures/panic_clean.rs"),
    );
    assert!(unwaived(&diags, RuleId::Panic).is_empty(), "{diags:?}");
    let waived: Vec<_> = diags.iter().filter(|d| d.waived).collect();
    assert_eq!(waived.len(), 1, "exactly the waived assert: {diags:?}");
}

#[test]
fn panic_rule_only_applies_to_serving_path_crates() {
    // The same panicking source linted as an engine crate: no findings —
    // the engine legitimately asserts model invariants.
    let diags = lint_file(
        &ctx("kbt-core", "mstep.rs"),
        include_str!("fixtures/panic_violation.rs"),
    );
    assert!(unwaived(&diags, RuleId::Panic).is_empty(), "{diags:?}");
}

#[test]
fn atomics_rule_catches_seeded_violations() {
    let diags = lint_file(
        &ctx("kbt-net", "server.rs"),
        include_str!("fixtures/atomics_violation.rs"),
    );
    let hits = unwaived(&diags, RuleId::Atomics);
    assert_eq!(hits.len(), 2, "one Relaxed, one SeqCst: {diags:?}");
    assert!(hits.iter().any(|d| d.message.contains("SeqCst")));
}

#[test]
fn atomics_clean_twin_passes() {
    let diags = lint_file(
        &ctx("kbt-net", "server.rs"),
        include_str!("fixtures/atomics_clean.rs"),
    );
    assert!(unwaived(&diags, RuleId::Atomics).is_empty(), "{diags:?}");
}

#[test]
fn safety_rule_catches_seeded_violation() {
    let diags = lint_file(
        &ctx("kbt-core", "math.rs"),
        include_str!("fixtures/safety_violation.rs"),
    );
    assert_eq!(unwaived(&diags, RuleId::Safety).len(), 1, "{diags:?}");
}

#[test]
fn safety_clean_twin_passes() {
    let diags = lint_file(
        &ctx("kbt-core", "math.rs"),
        include_str!("fixtures/safety_clean.rs"),
    );
    assert!(unwaived(&diags, RuleId::Safety).is_empty(), "{diags:?}");
}

#[test]
fn hostile_len_rule_catches_seeded_violations() {
    for scope in [
        ctx("kbt-store", "codec.rs"),
        ctx("kbt-datamodel", "chunked.rs"),
    ] {
        let diags = lint_file(&scope, include_str!("fixtures/hostile_len_violation.rs"));
        let hits = unwaived(&diags, RuleId::HostileLen);
        assert_eq!(hits.len(), 2, "with_capacity and vec!: {diags:?}");
    }
}

#[test]
fn hostile_len_clean_twin_passes() {
    let diags = lint_file(
        &ctx("kbt-store", "codec.rs"),
        include_str!("fixtures/hostile_len_clean.rs"),
    );
    assert!(unwaived(&diags, RuleId::HostileLen).is_empty(), "{diags:?}");
}

#[test]
fn hostile_len_rule_only_applies_to_wire_shaped_files() {
    let diags = lint_file(
        &ctx("kbt-store", "lib.rs"),
        include_str!("fixtures/hostile_len_violation.rs"),
    );
    assert!(unwaived(&diags, RuleId::HostileLen).is_empty(), "{diags:?}");
}

#[test]
fn allow_attr_rule_catches_seeded_violations() {
    let diags = lint_file(
        &ctx("kbt-core", "value.rs"),
        include_str!("fixtures/allow_attr_violation.rs"),
    );
    // Both the bare allow and the doc-comment-only allow: docs describe
    // the item, not the decision.
    assert_eq!(unwaived(&diags, RuleId::AllowAttr).len(), 2, "{diags:?}");
}

#[test]
fn allow_attr_clean_twin_passes() {
    let diags = lint_file(
        &ctx("kbt-core", "value.rs"),
        include_str!("fixtures/allow_attr_clean.rs"),
    );
    assert!(unwaived(&diags, RuleId::AllowAttr).is_empty(), "{diags:?}");
}

#[test]
fn layering_rule_catches_seeded_violation() {
    let diags = lint_file(
        &ctx("kbt-datamodel", "lib.rs"),
        include_str!("fixtures/layering_violation.rs"),
    );
    let hits = unwaived(&diags, RuleId::Layering);
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert!(hits[0].message.contains("kbt_serve"), "{diags:?}");
}

#[test]
fn layering_clean_twin_passes() {
    let diags = lint_file(
        &ctx("kbt-datamodel", "lib.rs"),
        include_str!("fixtures/layering_clean.rs"),
    );
    assert!(unwaived(&diags, RuleId::Layering).is_empty(), "{diags:?}");
}

#[test]
fn layering_rule_is_per_crate() {
    // The same import linted as the facade crate is legitimate.
    let diags = lint_file(
        &ctx("kbt", "lib.rs"),
        include_str!("fixtures/layering_violation.rs"),
    );
    assert!(unwaived(&diags, RuleId::Layering).is_empty(), "{diags:?}");
}

#[test]
fn layering_rule_keeps_the_write_path_on_its_seam() {
    let hits_as = |crate_name: &str, src: &str| -> Vec<u32> {
        let diags = lint_file(&ctx(crate_name, "server.rs"), src);
        let hits = unwaived(&diags, RuleId::Layering);
        assert!(
            hits.iter().all(|d| d.message.contains("DurabilityHook")),
            "{diags:?}"
        );
        hits.iter().map(|d| d.line).collect()
    };
    let violation = include_str!("fixtures/layering_seam_violation.rs");
    // `use kbt_net` (line 5) and `use kbt_store` (line 6); test code exempt.
    assert_eq!(hits_as("kbt-serve", violation), [5, 6]);
    assert_eq!(hits_as("kbt-net", violation), [6]);
    assert_eq!(hits_as("kbt-store", violation), [5]);
    // Whoever holds both may compose them.
    assert!(hits_as("kbt", violation).is_empty());
    assert!(hits_as("kbt-bench", violation).is_empty());

    let clean = include_str!("fixtures/layering_seam_clean.rs");
    for crate_name in ["kbt-serve", "kbt-net", "kbt-store"] {
        assert!(hits_as(crate_name, clean).is_empty());
    }
}

#[test]
fn layering_rule_catches_thread_fan_out_outside_its_owner() {
    let src = include_str!("fixtures/layering_threads_violation.rs");
    let hits_as = |crate_name: &str| -> Vec<String> {
        let diags = lint_file(&ctx(crate_name, "mstep.rs"), src);
        unwaived(&diags, RuleId::Layering)
            .iter()
            .map(|d| d.message.split(' ').next().unwrap().to_string())
            .collect()
    };
    assert_eq!(
        hits_as("kbt-core"),
        ["available_parallelism", "thread::scope", "thread::spawn"]
    );
    assert_eq!(
        hits_as("kbt-datamodel"),
        ["available_parallelism", "thread::scope", "thread::spawn"]
    );
    // Each call has exactly one home (plus the bench leaf for `spawn`).
    assert_eq!(hits_as("kbt-flume"), ["thread::spawn"]);
    assert_eq!(
        hits_as("kbt-net"),
        ["available_parallelism", "thread::scope"]
    );
    assert_eq!(
        hits_as("kbt-bench"),
        ["available_parallelism", "thread::scope"]
    );
}

#[test]
fn layering_threads_clean_twin_passes() {
    // `kbt_flume` calls from a foundation crate, raw threads in tests.
    for crate_name in ["kbt-datamodel", "kbt-core", "kbt-pipeline"] {
        let diags = lint_file(
            &ctx(crate_name, "chunked.rs"),
            include_str!("fixtures/layering_threads_clean.rs"),
        );
        assert!(unwaived(&diags, RuleId::Layering).is_empty(), "{diags:?}");
    }
}

// ---- lexer edge cases: no false positives ----

#[test]
fn raw_strings_containing_unwrap_do_not_fire() {
    let src = r##"
pub fn help() -> &'static str {
    r#"call .unwrap() at your peril; COUNTER.load(Ordering::SeqCst)"#
}

pub fn doc() -> String {
    "x.expect(\"boom\") and vec![0; n]".to_string()
}
"##;
    let diags = lint_file(&ctx("kbt-serve", "wire.rs"), src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn nested_block_comments_containing_panics_do_not_fire() {
    let src = "
/* outer /* nested: x.unwrap(); assert!(false) */ still a comment:
   Ordering::SeqCst */
pub fn quiet() {}
";
    let diags = lint_file(&ctx("kbt-serve", "server.rs"), src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn test_module_in_src_file_is_exempt() {
    let src = "
pub fn shipped() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn anything_goes_here() {
        let c = AtomicU64::new(0);
        c.store(1, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::SeqCst), Some(1).unwrap());
        let v = vec![0u8; c.load(Ordering::Relaxed) as usize];
        assert!(unsafe { v.as_ptr() }.is_null() || true);
    }
}
";
    let diags = lint_file(&ctx("kbt-net", "proto.rs"), src);
    assert!(diags.is_empty(), "{diags:?}");
}

/// The `pub` budget counts bare `pub` items, fields and re-exports in
/// shipped code; restricted visibility, comments, strings and test code
/// do not count.
#[test]
fn pub_count_takes_bare_pub_in_shipped_code_only() {
    let src = r#"
pub use inner::Thing;
pub mod inner {
    pub struct Thing {
        pub field: u32,
        pub(crate) hidden: u32,
    }
    pub(super) fn helper() {}
    pub(in crate::inner) fn scoped() {}
}
// pub fn commented_out() {}
/// pub in a doc comment
pub const NAME: &str = "pub fn in a string";
fn private() {}

#[cfg(test)]
mod tests {
    pub fn fixture() {}
}

#[test]
pub fn a_test() {}
"#;
    // `pub use`, `pub mod`, `pub struct`, `pub field`, `pub const`.
    assert_eq!(count_pub(src), 5);
    assert_eq!(count_pub("pub(crate) struct Private;"), 0);
}

#[test]
fn cfg_not_test_is_not_exempt() {
    let src = "
#[cfg(not(test))]
pub fn shipped(v: Option<u32>) -> u32 {
    v.unwrap()
}
";
    let diags = lint_file(&ctx("kbt-net", "proto.rs"), src);
    assert_eq!(unwaived(&diags, RuleId::Panic).len(), 1, "{diags:?}");
}

#[test]
fn char_literals_and_lifetimes_do_not_confuse_the_rules() {
    let src = "
pub fn first<'a>(s: &'a str) -> char {
    s.chars().next().unwrap_or('u')
}
";
    // `unwrap_or` is not `unwrap`, and `'a` / `'u'` must not derail the
    // lexer into treating the rest of the file as a string.
    let diags = lint_file(&ctx("kbt-serve", "store.rs"), src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn waiver_for_a_different_rule_does_not_waive() {
    let src = "
pub fn decode(v: Option<u32>) -> u32 {
    // lint: allow(atomics) — wrong rule on purpose.
    v.unwrap()
}
";
    let diags = lint_file(&ctx("kbt-serve", "store.rs"), src);
    assert_eq!(unwaived(&diags, RuleId::Panic).len(), 1, "{diags:?}");
}

#[test]
fn multi_line_attributes_are_still_scanned() {
    let src = "
#[allow(
    dead_code
)]
fn bare_multi_line() {}
";
    let diags = lint_file(&ctx("kbt-core", "value.rs"), src);
    assert_eq!(unwaived(&diags, RuleId::AllowAttr).len(), 1, "{diags:?}");
}

#[test]
fn multi_line_justification_blocks_reach_their_use_site() {
    // The `ordering:` marker sits on the first line of a five-line
    // comment; the whole block is adjacent to the load below it.
    let src = "
use std::sync::atomic::{AtomicU64, Ordering};

pub fn read(c: &AtomicU64) -> u64 {
    // ordering: Relaxed — this is a long justification that keeps
    // going for several lines, explaining in detail why no memory
    // is published through this counter and why the reporting-only
    // read below therefore does not need any synchronization at
    // all.
    c.load(Ordering::Relaxed)
}
";
    let diags = lint_file(&ctx("kbt-net", "server.rs"), src);
    assert!(unwaived(&diags, RuleId::Atomics).is_empty(), "{diags:?}");
}
