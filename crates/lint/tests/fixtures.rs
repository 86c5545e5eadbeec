//! Fixture-driven tests for the rule engine.
//!
//! Positive fixtures mark each offending line with a trailing `//~ rule-id`
//! comment (rustc UI-test style); the harness asserts the engine reports
//! exactly that set of `(line, rule)` pairs. Negative fixtures carry no
//! markers and must produce no findings. On top of the corpus there are
//! applicability tests (crate scoping, binary targets, the `num` module
//! exemption), the escape-justification meta-rule, the PR 3 regression
//! gate, and a self-check that lints the real workspace against the
//! committed baseline.

// Test-only helper functions; `allow-expect-in-tests` covers `#[test]`
// bodies but not the helpers they call.
#![allow(clippy::expect_used)]

use std::path::{Path, PathBuf};

use nashdb_lint::{lint_source, lint_sources, lint_workspace, Baseline, Finding};

/// `(line, rule)` pairs a fixture's `//~` markers promise.
fn expected(src: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = src
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            l.split("//~")
                .nth(1)
                .map(|rule| (i + 1, rule.trim().to_owned()))
        })
        .collect();
    out.sort();
    out
}

fn reported(findings: &[Finding]) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = findings
        .iter()
        .map(|f| (f.line, f.rule.to_owned()))
        .collect();
    out.sort();
    out
}

/// Lints a fixture under a deterministic, non-exempt crate path and checks
/// the reported `(line, rule)` set against the fixture's own markers.
fn check_fixture(name: &str, src: &str) {
    let path = format!("crates/core/src/{name}.rs");
    let want = expected(src);
    let got = reported(&lint_source(&path, src));
    assert_eq!(got, want, "fixture {name}: findings do not match markers");
}

macro_rules! fixture_test {
    ($name:ident) => {
        #[test]
        fn $name() {
            check_fixture(
                stringify!($name),
                include_str!(concat!("fixtures/", stringify!($name), ".rs")),
            );
        }
    };
}

fixture_test!(map_iter_positive);
fixture_test!(map_iter_negative);
fixture_test!(unchecked_arith_positive);
fixture_test!(unchecked_arith_negative);
fixture_test!(arith_alias_escape);
fixture_test!(taint_helper_positive);
fixture_test!(taint_sanitized_negative);
fixture_test!(taint_time_positive);
fixture_test!(taint_allow_escape);
fixture_test!(error_drop_positive);
fixture_test!(error_drop_negative);
fixture_test!(obs_name_positive);
fixture_test!(obs_name_negative);
fixture_test!(panic_positive);
fixture_test!(panic_negative);
fixture_test!(panic_allow_file);

/// The acceptance scenario for the semantic layer: a `HashMap` iteration
/// moved behind a one-call helper *in another crate*. The token rule
/// cannot fire in the helper's crate (not deterministic) nor at the call
/// site (no hash-typed receiver); the taint rule reports the frontier
/// call with provenance.
#[test]
fn taint_crosses_crates_through_a_helper() {
    let helper = "\
use std::collections::HashMap;
pub fn chunk_ids(m: &HashMap<u64, u64>) -> Vec<u64> {
    m.keys().copied().collect()
}
";
    let caller = "\
pub fn plan(m: &std::collections::HashMap<u64, u64>) -> Vec<u64> {
    nashdb_workload::helpers::chunk_ids(m)
}

pub fn plan_sorted(m: &std::collections::HashMap<u64, u64>) -> Vec<u64> {
    let ids: std::collections::BTreeSet<u64> =
        nashdb_workload::helpers::chunk_ids(m).into_iter().collect();
    ids.into_iter().collect()
}
";
    let findings = lint_sources(&[
        (
            "crates/workload/src/helpers.rs".to_owned(),
            helper.to_owned(),
        ),
        ("crates/core/src/plan.rs".to_owned(), caller.to_owned()),
    ]);
    // Exactly one finding: the unsanitized frontier call in `plan`. The
    // helper itself is out of scope, `map-iter-order` never fires, and
    // `plan_sorted` sanitizes in the call statement.
    assert_eq!(
        reported(&findings),
        vec![(2, "determinism-taint".to_owned())],
        "got: {findings:?}"
    );
    assert_eq!(findings[0].file, "crates/core/src/plan.rs");
    assert!(
        findings[0].message.contains("chunk_ids")
            && findings[0]
                .message
                .contains("crates/workload/src/helpers.rs"),
        "provenance chain names the helper: {}",
        findings[0].message
    );
}

#[test]
fn map_iter_only_applies_to_deterministic_crates() {
    let src = include_str!("fixtures/map_iter_positive.rs");
    assert!(
        lint_source("crates/baselines/src/demo.rs", src).is_empty(),
        "baselines crate outputs are compared, not replayed; hash order is fine there"
    );
}

#[test]
fn binaries_may_panic() {
    let src = include_str!("fixtures/panic_positive.rs");
    assert!(lint_source("crates/core/src/main.rs", src).is_empty());
    assert!(lint_source("crates/bench/src/bin/nashdb_bench.rs", src).is_empty());
}

#[test]
fn num_module_owns_its_arithmetic() {
    let src = include_str!("fixtures/unchecked_arith_positive.rs");
    assert!(lint_source("crates/core/src/num.rs", src).is_empty());
    assert!(lint_source("crates/core/src/num/wide.rs", src).is_empty());
}

#[test]
fn unjustified_escape_is_a_finding_and_does_not_silence() {
    let src = "\
pub fn contract(x: u64) -> u64 {
    // nashdb-lint: allow(panic-in-lib)
    assert!(x < 10);
    x
}
";
    let got = reported(&lint_source("crates/core/src/demo.rs", src));
    assert_eq!(
        got,
        vec![
            (2, "escape-needs-justification".to_owned()),
            (3, "panic-in-lib".to_owned()),
        ]
    );
}

/// The workspace root, from this crate's manifest dir.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

fn committed_baseline() -> Baseline {
    let raw = std::fs::read_to_string(workspace_root().join("lint-baseline.json"))
        .expect("lint-baseline.json is committed at the workspace root");
    Baseline::from_json_str(&raw).expect("committed baseline parses")
}

/// PR 3 regression gate: the `economic_config()` bug — iterating a
/// `HashMap` of per-table weights straight into an output vector — must be
/// reported in `crates/core/src/replication/mod.rs`, and the committed
/// baseline must hold **zero** `map-iter-order` allowance for that file, so
/// reintroducing the bug fails CI rather than being absorbed as debt.
#[test]
fn reintroduced_economic_config_bug_fails_the_gate() {
    let src = "\
use std::collections::HashMap;

pub fn economic_config(weights: &HashMap<String, f64>) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (table, w) in weights {
        out.push((table.clone(), *w));
    }
    out
}
";
    let findings = lint_source("crates/core/src/replication/mod.rs", src);
    let map_iter: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "map-iter-order")
        .collect();
    assert_eq!(map_iter.len(), 1, "the hash-ordered loop must be reported");
    assert_eq!(map_iter[0].line, 5);

    let outcome = committed_baseline().check(&findings.clone());
    assert!(
        outcome.over.iter().any(|f| f.rule == "map-iter-order"),
        "baseline must hold no map-iter-order allowance for replication/mod.rs"
    );
}

/// Self-check: the real workspace lints clean modulo the committed
/// baseline, and the baseline carries no stale (over-generous) groups.
#[test]
fn workspace_is_clean_modulo_baseline() {
    let root = workspace_root();
    let findings = lint_workspace(&root).expect("workspace walk succeeds");
    let outcome = committed_baseline().check(&findings);
    assert!(
        outcome.over.is_empty(),
        "findings beyond the baseline:\n{}",
        outcome
            .over
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.stale.is_empty(),
        "stale baseline groups (regenerate with --write-baseline): {:?}",
        outcome.stale
    );
}
