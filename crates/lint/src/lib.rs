//! `kbt-lint`: the workspace invariant checker.
//!
//! The serving path is exactly the code where a single `unwrap()`, a
//! too-weak atomic ordering, or an uncapped length-prefixed allocation
//! silently undoes the hostile-input hardening the next time someone
//! edits a hot loop. Review discipline does not scale; this crate turns
//! the invariants into code:
//!
//! * a self-contained, offline **lexer** ([`lexer`]) that classifies
//!   comments, string/char literals, and attributes correctly (nested
//!   block comments, raw-string fences, lifetime vs char literal), so
//!   rules never fire on a `unwrap()` inside a doc example;
//! * a **rule engine** ([`rules`]) with per-crate policy — six rules:
//!   panic-freedom on the serving path, atomic-ordering justification,
//!   `unsafe` hygiene, hostile-length discipline in wire-shaped
//!   modules, an `#[allow]` budget, and crate layering;
//! * a **workspace scanner** ([`scan`]) producing file:line
//!   diagnostics, a machine-readable JSON report, and the
//!   `BENCH_lint.json` metrics CI budget-gates (waiver counts can only
//!   go down without a baseline bump), among them two size budgets per
//!   system crate: its source lines (`lines_<crate>`) and its bare `pub`
//!   declarations in non-test code (`pub_<crate>`, [`count_pub`]) —
//!   `pub(crate)` / `pub(super)` do not count.
//!
//! Run it locally:
//!
//! ```text
//! cargo run -p kbt-lint -- --workspace
//! ```
//!
//! Escape hatch, counted and budget-gated:
//!
//! ```text
//! // lint: allow(panic) — <why this call site cannot actually panic>
//! ```

pub mod lexer;
pub mod rules;
pub mod scan;

pub use rules::{count_pub, lint_file, Diagnostic, FileCtx, RuleId, ALL_RULES};
pub use scan::{render, scan_workspace, sort_diagnostics, ScanOutcome};
