//! The token-level rule engine: project-specific determinism & safety
//! rules that clippy cannot express, each born from a concrete bug class
//! (see DESIGN.md §11 for the postmortems).
//!
//! | rule id                | catches                                          |
//! |------------------------|--------------------------------------------------|
//! | `map-iter-order`       | hash-order nondeterminism leaking into outputs   |
//! | `obs-name-prefix`      | metric/span names outside the stage registry     |
//! | `panic-in-lib`         | `panic!`/`assert!` in non-test library paths     |
//!
//! The semantic rules (`determinism-taint`, `unchecked-arith-expr`,
//! `error-drop`) live in [`crate::taint`] and [`crate::semantic`] on top of
//! the AST/call-graph layer (DESIGN.md §14); this module keeps the
//! token-stream rules and the shared vocabulary constants they draw on.
//!
//! Token rules work on the stream from [`crate::lexer`] — heuristic by
//! design. False positives are handled by the escape contract
//! (`// nashdb-lint: allow(rule-id) -- why`), never by weakening a rule.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;

/// Every rule id the engine can emit, including the meta-rule for escapes
/// lacking a justification.
pub const RULE_IDS: &[&str] = &[
    "map-iter-order",
    "determinism-taint",
    "unchecked-arith-expr",
    "error-drop",
    "obs-name-prefix",
    "panic-in-lib",
    "escape-needs-justification",
];

/// Maps deprecated rule ids to their current spelling. `unchecked-arith`
/// (token-stream, name-heuristic) was superseded by the expression-level
/// `unchecked-arith-expr`; old escapes and baseline entries keep working
/// through this alias.
#[must_use]
pub fn canonical_rule(id: &str) -> &str {
    match id {
        "unchecked-arith" => "unchecked-arith-expr",
        other => other,
    }
}

/// Crates whose outputs must be a deterministic function of the scan
/// window; `map-iter-order` applies only to these (crate directory names).
pub const DETERMINISTIC_CRATES: &[&str] = &["core", "nashdb", "sim", "cluster"];

/// The registered pipeline stage-name prefixes every obs metric literal
/// must carry. `nashdb-bench smoke`'s coverage gate checks the same list
/// (a `nashdb-bench` test asserts the two registries agree), so a metric
/// that passes the linter is also a metric the coverage check can see.
pub const STAGE_PREFIXES: &[&str] = &[
    "value_tree.",
    "fragment.",
    "replication.",
    "packing.",
    "transition.",
    "routing.",
    "cluster.",
    "distributor.",
    "perf.",
];

/// The registered span path segments (`nashdb_obs::span` nests these into
/// slash-joined paths like `pipeline/reconfigure/scheme`).
pub const SPAN_SEGMENTS: &[&str] = &[
    "pipeline",
    "provision",
    "reconfigure",
    "query",
    "scheme",
    "fragment",
    "replication",
    "value_chunks",
    "route",
    "place",
    "transition",
    "retry",
];

/// Crates exempt from `obs-name-prefix`: the obs crate itself (its docs and
/// internals use toy names by design) and the linter.
const OBS_NAME_EXEMPT_CRATES: &[&str] = &["obs", "lint"];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id from [`RULE_IDS`].
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation with the offending construct.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Runs every applicable rule over one file, applies the escape contract,
/// and returns the surviving findings in line order.
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    if DETERMINISTIC_CRATES.contains(&file.crate_name.as_str()) {
        map_iter_order(file, &mut findings);
    }
    if !OBS_NAME_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
        obs_name_prefix(file, &mut findings);
    }
    panic_in_lib(file, &mut findings);

    // Escape contract: drop findings covered by a *justified* escape; an
    // unjustified escape is itself a finding (whether or not it covers
    // anything) so "allow with no reason" can never land silently.
    findings.retain(|f| {
        !file.escapes.iter().any(|e| {
            e.justified
                && canonical_rule(&e.rule) == f.rule
                && (e.file_wide || e.line == f.line || e.line + 1 == f.line)
        })
    });
    for e in &file.escapes {
        if !e.justified {
            findings.push(Finding {
                rule: "escape-needs-justification",
                file: file.path.clone(),
                line: e.line,
                message: format!(
                    "escape for `{}` has no justification; write `-- <reason>` after the directive",
                    e.rule
                ),
            });
        }
    }
    findings.sort_by_key(|f| (f.line, f.rule));
    findings
}

/// True for lines the rules must ignore (inside `#[cfg(test)]` items).
fn in_test(file: &SourceFile, line: usize) -> bool {
    file.test_lines.contains(line)
}

// ---------------------------------------------------------------------------
// Shared token-stream helpers
// ---------------------------------------------------------------------------

/// Collects names whose declared type mentions one of `type_names`:
/// `name: HashMap<…>`, `name: u64`, struct fields, fn params — anything of
/// the shape `name` `:` …type tokens… terminated by `=`, `,`, `;`, `)`,
/// `{`, or `>` at nesting level 0 — plus `name = TypeName::…` initializers
/// and (for numeric types) `name = 0u64`-style suffixed literals.
fn typed_names(toks: &[Token], type_names: &[&str], suffixes: &[&str]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Ident && i + 1 < toks.len() && toks[i + 1].is_punct(":") {
            let name = &toks[i].text;
            let mut j = i + 2;
            let mut angle = 0i32;
            let mut hit = false;
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct("<") {
                    angle += 1;
                } else if t.is_punct(">") {
                    if angle == 0 {
                        break;
                    }
                    angle -= 1;
                } else if angle == 0
                    && (t.is_punct("=")
                        || t.is_punct(",")
                        || t.is_punct(";")
                        || t.is_punct(")")
                        || t.is_punct("{"))
                {
                    break;
                } else if t.kind == TokenKind::Ident && type_names.contains(&t.text.as_str()) {
                    hit = true;
                }
                j += 1;
            }
            if hit && !out.contains(name) {
                out.push(name.clone());
            }
        }
        // `let [mut] name = HashMap::new()` / `let mut acc = 0u64`.
        if toks[i].kind == TokenKind::Ident && i + 1 < toks.len() && toks[i + 1].is_punct("=") {
            let name = &toks[i].text;
            if let Some(t) = toks.get(i + 2) {
                let init_type = t.kind == TokenKind::Ident && type_names.contains(&t.text.as_str());
                let init_suffix =
                    t.kind == TokenKind::Number && suffixes.iter().any(|s| t.text.ends_with(s));
                if (init_type || init_suffix) && !out.contains(name) {
                    out.push(name.clone());
                }
            }
        }
        i += 1;
    }
    out
}

/// Scans forward from token `start` to the end of the enclosing statement
/// (a `;`, or a `{`/`}` that leaves the expression) and returns true if any
/// identifier along the way is in `sinks`.
fn statement_mentions(toks: &[Token], start: usize, sinks: &[&str]) -> bool {
    let mut depth = 0i32;
    for t in &toks[start..] {
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        return false;
                    }
                    depth -= 1;
                }
                ";" | "{" | "}" if depth == 0 => return false,
                _ => {}
            },
            TokenKind::Ident if sinks.contains(&t.text.as_str()) => return true,
            _ => {}
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Rule: map-iter-order
// ---------------------------------------------------------------------------

/// Iteration methods whose order is the hash map's internal order.
pub const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Order-insensitive (or re-ordering) sinks that sanction an iteration:
/// sorting, collecting into an ordered container, or a commutative
/// reduction. (Floating-point `sum` is order-sensitive in the last bits;
/// value-critical float folds should iterate sorted inputs regardless —
/// the escape contract is the pressure valve, not a weaker rule.)
pub const SANCTIONED_SINKS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "sum",
    "count",
    "len",
    "min",
    "max",
    "min_by_key",
    "max_by_key",
    "all",
    "any",
    "is_empty",
    "contains",
    "contains_key",
];

/// PR 3's `economic_config()` bug class: `HashMap`/`HashSet` iteration
/// order leaking into deterministic outputs. Flags `.iter()`-family calls
/// and `for … in` loops over hash-typed bindings unless the statement
/// immediately re-orders or order-insensitively reduces the result.
fn map_iter_order(file: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    let hash_named = typed_names(toks, &["HashMap", "HashSet"], &[]);
    let is_hash = |name: &str| hash_named.iter().any(|n| n == name);

    let mut i = 0;
    while i < toks.len() {
        let line = toks[i].line;
        if in_test(file, line) {
            i += 1;
            continue;
        }
        // `name.iter()` / `self.name.keys()` — receiver is the ident right
        // before the dot (possibly behind `self.`).
        if toks[i].is_punct(".")
            && i + 1 < toks.len()
            && toks[i + 1].kind == TokenKind::Ident
            && ITER_METHODS.contains(&toks[i + 1].text.as_str())
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
        {
            if let Some(recv) = toks[..i].last() {
                if recv.kind == TokenKind::Ident && recv.text != "self" && is_hash(&recv.text) {
                    // Start at the call's `(` so the paren depth carries the
                    // scan past it to the rest of the statement.
                    if !statement_mentions(toks, i + 2, SANCTIONED_SINKS) {
                        findings.push(Finding {
                            rule: "map-iter-order",
                            file: file.path.clone(),
                            line,
                            message: format!(
                                "iteration over hash-ordered `{}` via `.{}()`; sort the result, reduce \
                                 order-insensitively, use a BTree container, or escape with a justification",
                                recv.text, toks[i + 1].text
                            ),
                        });
                    }
                }
            }
        }
        // `for pat in [&[mut]] [self.]name {` over a hash-typed binding.
        if toks[i].is_ident("for") {
            if let Some(in_idx) = toks[i..]
                .iter()
                .take(24)
                .position(|t| t.is_ident("in"))
                .map(|off| i + off)
            {
                let mut j = in_idx + 1;
                while toks
                    .get(j)
                    .is_some_and(|t| t.is_punct("&") || t.is_ident("mut"))
                {
                    j += 1;
                }
                if toks.get(j).is_some_and(|t| t.is_ident("self"))
                    && toks.get(j + 1).is_some_and(|t| t.is_punct("."))
                {
                    j += 2;
                }
                if let (Some(name_tok), Some(open)) = (toks.get(j), toks.get(j + 1)) {
                    if name_tok.kind == TokenKind::Ident
                        && open.is_punct("{")
                        && is_hash(&name_tok.text)
                    {
                        findings.push(Finding {
                            rule: "map-iter-order",
                            file: file.path.clone(),
                            line: name_tok.line,
                            message: format!(
                                "`for` loop over hash-ordered `{}`; iterate a sorted copy or escape \
                                 with a justification if the body is order-independent",
                                name_tok.text
                            ),
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Shared arithmetic vocabulary (used by `unchecked-arith-expr`)
// ---------------------------------------------------------------------------

/// Evidence in the same statement that the arithmetic is overflow-aware.
pub const CHECKED_MARKERS: &[&str] = &[
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "checked_add",
    "checked_mul",
    "checked_sub",
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "checked_cast",
    "usize_from",
    "saturating_u64",
];

// ---------------------------------------------------------------------------
// Rule: obs-name-prefix
// ---------------------------------------------------------------------------

/// Obs recording functions whose first argument is a metric name.
const METRIC_FNS: &[&str] = &["counter_add", "gauge_set", "record", "record_duration"];

/// Metric/span name literals must come from the stage registry, so the
/// bench-smoke coverage gate can actually see every stage: a metric named
/// outside the registry is invisible to `missing_stages` and would rot
/// silently.
fn obs_name_prefix(file: &SourceFile, findings: &mut Vec<Finding>) {
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || in_test(file, t.line) {
            continue;
        }
        let Some(lit) = toks
            .get(i + 1)
            .filter(|n| n.is_punct("("))
            .and_then(|_| toks.get(i + 2))
            .filter(|l| l.kind == TokenKind::Str)
        else {
            continue;
        };
        if METRIC_FNS.contains(&t.text.as_str()) {
            if !STAGE_PREFIXES.iter().any(|p| lit.text.starts_with(p)) {
                findings.push(Finding {
                    rule: "obs-name-prefix",
                    file: file.path.clone(),
                    line: lit.line,
                    message: format!(
                        "metric name {:?} does not start with a registered stage prefix \
                         ({}); the bench-smoke coverage gate cannot account for it",
                        lit.text,
                        STAGE_PREFIXES.join(" ")
                    ),
                });
            }
        } else if t.is_ident("span")
            && !SPAN_SEGMENTS.contains(&lit.text.as_str())
            // Snapshot lookups take full slash-joined paths; only creation
            // sites (bare segments) are registry-checked.
            && !lit.text.contains('/')
        {
            findings.push(Finding {
                rule: "obs-name-prefix",
                file: file.path.clone(),
                line: lit.line,
                message: format!(
                    "span segment {:?} is not in the registered span registry ({})",
                    lit.text,
                    SPAN_SEGMENTS.join(" ")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: panic-in-lib
// ---------------------------------------------------------------------------

/// Panicking macros clippy's restriction lints miss behind `cfg` or inside
/// other macros.
const PANIC_MACROS: &[&str] = &[
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// Library code surfaces failures as typed errors; panics are for tests,
/// binaries, and audit modules (which escape file-wide with justification).
/// `debug_assert*` is exempt — it vanishes in release builds.
fn panic_in_lib(file: &SourceFile, findings: &mut Vec<Finding>) {
    if file.is_bin {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            && !in_test(file, t.line)
        {
            findings.push(Finding {
                rule: "panic-in-lib",
                file: file.path.clone(),
                line: t.line,
                message: format!(
                    "`{}!` in non-test library code; return a typed error, or escape with a \
                     justification if this is a documented contract violation",
                    t.text
                ),
            });
        }
    }
}
