//! Rule `determinism-taint`: cross-function nondeterminism dataflow.
//!
//! The token-stream rule `map-iter-order` sees a hash iteration only when
//! the receiver is a plainly-named binding right before the dot. Moving the
//! map behind a one-call getter (`self.map().keys()`) or a helper in
//! another crate makes it invisible. This rule closes that hole with the
//! AST + call graph:
//!
//! * **Sources**: `.iter()`-family calls and `for` loops whose receiver is
//!   hash-typed (by parameter/let/field/return-type evidence),
//!   `RandomState`, `Instant::now`/`SystemTime::now`, and raw
//!   `thread::spawn`.
//! * **Sanitizers**: the same statement mentioning a sorting/ordering/
//!   order-insensitive sink sanitizes an *iteration* source; time, RNG, and
//!   spawn sources cannot be sanitized, only escaped.
//! * **Propagation**: a function containing an unsanitized source taints
//!   every caller whose call statement is not itself sanitized, transitively
//!   across files and crates.
//!
//! Findings are confined to non-test functions in the deterministic crates
//! ([`crate::rules::DETERMINISTIC_CRATES`]). A source inside those crates is
//! reported at the source line; taint flowing in from *outside* them (or
//! from test-gated code) is reported at the frontier call site with a
//! provenance chain. The escape ids `determinism-taint` and (for
//! compatibility at iteration sites) `map-iter-order` both silence a line.

use std::collections::BTreeSet;

use crate::ast::{Expr, Stmt, Type};
use crate::callgraph::Workspace;
use crate::rules::{Finding, DETERMINISTIC_CRATES, ITER_METHODS, SANCTIONED_SINKS};

/// Methods that return (a view of) their receiver unchanged for typing
/// purposes.
const IDENTITY_METHODS: &[&str] = &["clone", "as_ref", "as_mut", "borrow", "borrow_mut"];

/// One nondeterminism source found in a function body.
#[derive(Debug, Clone)]
struct Source {
    line: usize,
    desc: String,
}

/// One resolved call site.
#[derive(Debug, Clone, Copy)]
struct CallSite {
    line: usize,
    callee: usize,
    /// The call statement mentions a sanctioned sink.
    sanitized: bool,
}

#[derive(Debug, Default)]
struct FnFacts {
    sources: Vec<Source>,
    calls: Vec<CallSite>,
}

/// Why a function is tainted.
#[derive(Debug, Clone)]
enum Cause {
    /// Contains a source itself.
    Own(Source),
    /// Calls a tainted function at this line.
    Via(usize, usize),
}

/// Runs the rule over the whole parsed workspace. Escape filtering is the
/// caller's job (it is shared across the semantic rules).
pub fn determinism_taint(ws: &Workspace<'_>) -> Vec<Finding> {
    let facts: Vec<FnFacts> = (0..ws.fns.len()).map(|i| analyze_fn(ws, i)).collect();

    // Fixpoint: taint flows callee → caller through unsanitized calls.
    let mut tainted: Vec<Option<Cause>> = facts
        .iter()
        .map(|f| f.sources.first().map(|s| Cause::Own(s.clone())))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (i, f) in facts.iter().enumerate() {
            if tainted[i].is_some() {
                continue;
            }
            if let Some(c) = f
                .calls
                .iter()
                .find(|c| !c.sanitized && tainted[c.callee].is_some())
            {
                tainted[i] = Some(Cause::Via(c.line, c.callee));
                changed = true;
            }
        }
    }

    let mut findings = Vec::new();
    for (i, f) in facts.iter().enumerate() {
        let node = &ws.fns[i];
        let file = &ws.files[node.file].0;
        let in_scope = DETERMINISTIC_CRATES.contains(&file.crate_name.as_str()) && !node.in_test;
        if !in_scope {
            continue;
        }
        for s in &f.sources {
            if file.test_lines.contains(s.line) {
                continue;
            }
            findings.push(Finding {
                rule: "determinism-taint",
                file: file.path.clone(),
                line: s.line,
                message: format!(
                    "`{}` {}; sort the result, reduce order-insensitively, use a BTree \
                     container, or escape with a justification",
                    node.def.name, s.desc
                ),
            });
        }
        // Frontier: taint arriving from functions whose own report cannot
        // fire (outside the deterministic crates, or test-gated).
        for c in f.calls.iter().filter(|c| !c.sanitized) {
            let Some(_) = tainted[c.callee] else { continue };
            let callee = &ws.fns[c.callee];
            let callee_reported =
                DETERMINISTIC_CRATES.contains(&ws.crate_of(c.callee)) && !callee.in_test;
            if callee_reported || file.test_lines.contains(c.line) {
                continue;
            }
            findings.push(Finding {
                rule: "determinism-taint",
                file: file.path.clone(),
                line: c.line,
                message: format!(
                    "`{}` calls nondeterministic `{}`: {}; sanitize the result in this \
                     statement or escape with a justification",
                    node.def.name,
                    callee.def.name,
                    provenance(ws, &tainted, c.callee)
                ),
            });
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    findings
}

/// Formats the taint chain from `start` to its source, at most 3 hops.
fn provenance(ws: &Workspace<'_>, tainted: &[Option<Cause>], start: usize) -> String {
    let mut parts = Vec::new();
    let mut cur = start;
    for hop in 0..3 {
        match &tainted[cur] {
            Some(Cause::Own(s)) => {
                parts.push(format!(
                    "`{}` {} ({}:{})",
                    ws.fns[cur].def.name,
                    s.desc,
                    ws.path_of(cur),
                    s.line
                ));
                return parts.join(", ");
            }
            Some(Cause::Via(line, next)) => {
                parts.push(format!(
                    "`{}` calls `{}` ({}:{})",
                    ws.fns[cur].def.name,
                    ws.fns[*next].def.name,
                    ws.path_of(cur),
                    line
                ));
                cur = *next;
                if hop == 2 {
                    parts.push("…".to_owned());
                }
            }
            None => break,
        }
    }
    parts.join(", ")
}

/// Per-function analysis: typing environment, sources, resolved calls.
fn analyze_fn(ws: &Workspace<'_>, idx: usize) -> FnFacts {
    let node = &ws.fns[idx];
    let Some(body) = &node.def.body else {
        return FnFacts::default();
    };
    let file = &ws.files[node.file].0;

    // Typing environment, flow-insensitive: parameter and let-binding
    // types by name. Two passes so `let m = self.map();` can use the
    // resolved return type of `map`.
    let mut env = Env {
        ws,
        from: idx,
        impl_ty: node.impl_ty,
        names: node
            .def
            .params
            .iter()
            .map(|(n, t)| (n.clone(), t.clone()))
            .collect(),
    };
    for _pass in 0..2 {
        let mut additions: Vec<(String, Type)> = Vec::new();
        body.for_each_stmt(&mut |s| {
            if let Stmt::Let {
                name: Some(n),
                ty,
                init,
                ..
            } = s
            {
                let t = match (ty, init) {
                    (Some(t), _) => Some(t.clone()),
                    (None, Some(e)) => env.type_of(e),
                    (None, None) => None,
                };
                if let Some(t) = t {
                    if !env.names.iter().any(|(en, _)| en == n) {
                        additions.push((n.clone(), t));
                    }
                }
            }
        });
        env.names.extend(additions);
    }

    let mut facts = FnFacts::default();
    body.for_each_stmt(&mut |s| {
        let (expr, let_ty): (&Expr, Option<&Type>) = match s {
            Stmt::Let {
                init: Some(e), ty, ..
            } => (e, ty.as_ref()),
            Stmt::Expr { expr, .. } => (expr, None),
            _ => return,
        };
        // Statement vocabulary for the sanitizer check.
        let mut vocab: BTreeSet<String> = BTreeSet::new();
        if let Some(t) = let_ty {
            vocab.extend(t.toks.iter().cloned());
        }
        expr.shallow_walk(&mut |e| match e {
            Expr::MethodCall {
                name, turbofish, ..
            } => {
                vocab.insert(name.clone());
                vocab.extend(turbofish.iter().cloned());
            }
            Expr::Path { segs, .. } => vocab.extend(segs.iter().cloned()),
            Expr::Cast { ty, .. } => vocab.extend(ty.toks.iter().cloned()),
            Expr::MacroCall { inner_idents, .. } => vocab.extend(inner_idents.iter().cloned()),
            _ => {}
        });
        let sanitized = vocab.iter().any(|v| SANCTIONED_SINKS.contains(&v.as_str()));

        // Escapes on the source line are honored here so an escaped source
        // does not taint callers either.
        let escaped = |line: usize| {
            file.escapes.iter().any(|e| {
                e.justified
                    && (e.rule == "determinism-taint" || e.rule == "map-iter-order")
                    && (e.file_wide || e.line == line || e.line + 1 == line)
            })
        };

        expr.shallow_walk(&mut |e| {
            match e {
                // `recv.iter()` on a hash-typed receiver.
                Expr::MethodCall {
                    recv, name, line, ..
                } if ITER_METHODS.contains(&name.as_str())
                    && env.is_hash(recv)
                    && !sanitized
                    && !escaped(*line) =>
                {
                    facts.sources.push(Source {
                        line: *line,
                        desc: format!("iterates hash-ordered {} via `.{name}()`", describe(recv)),
                    });
                }
                // `for x in hash_typed { … }`.
                Expr::ForLoop { iter, line, .. }
                    if env.is_hash(iter) && !sanitized && !escaped(*line) =>
                {
                    facts.sources.push(Source {
                        line: *line,
                        desc: format!("loops over hash-ordered {}", describe(iter)),
                    });
                }
                // RandomState, time, raw spawn.
                Expr::Path { segs, line }
                    if segs.iter().any(|s| s == "RandomState") && !escaped(*line) =>
                {
                    facts.sources.push(Source {
                        line: *line,
                        desc: "constructs a `RandomState` (per-process random hashing)".to_owned(),
                    });
                }
                Expr::Call { callee, line, .. } => {
                    if let Expr::Path { segs, .. } = callee.as_ref() {
                        let tail2 = segs.len().checked_sub(2).map(|i| &segs[i..]);
                        if let Some([ty, m]) = tail2.map(|s| [s[0].as_str(), s[1].as_str()]) {
                            if (ty == "Instant" || ty == "SystemTime") && m == "now" {
                                if !escaped(*line) {
                                    facts.sources.push(Source {
                                        line: *line,
                                        desc: format!("reads the wall clock via `{ty}::now()`"),
                                    });
                                }
                            } else if ty == "thread" && m == "spawn" && !escaped(*line) {
                                facts.sources.push(Source {
                                    line: *line,
                                    desc: "spawns a raw `std::thread` (scheduling order is \
                                           nondeterministic)"
                                        .to_owned(),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
            // Calls, for propagation.
            match e {
                Expr::Call { callee, line, .. } => {
                    if let Expr::Path { segs, .. } = callee.as_ref() {
                        if let Some(callee_idx) = ws.resolve_call(segs, idx) {
                            facts.calls.push(CallSite {
                                line: *line,
                                callee: callee_idx,
                                sanitized: sanitized || escaped(*line),
                            });
                        }
                    }
                }
                Expr::MethodCall {
                    recv, name, line, ..
                } => {
                    let recv_ty = env.type_head(recv);
                    if let Some(callee_idx) = ws.resolve_method(name, recv_ty.as_deref(), idx) {
                        facts.calls.push(CallSite {
                            line: *line,
                            callee: callee_idx,
                            sanitized: sanitized || escaped(*line),
                        });
                    }
                }
                Expr::MacroCall { inner_calls, .. } => {
                    for (name, line) in inner_calls {
                        if let Some(callee_idx) = ws.resolve_call(std::slice::from_ref(name), idx) {
                            facts.calls.push(CallSite {
                                line: *line,
                                callee: callee_idx,
                                sanitized: sanitized || escaped(*line),
                            });
                        }
                    }
                }
                _ => {}
            }
        });
    });
    facts
}

/// A short human description of a receiver expression.
fn describe(e: &Expr) -> String {
    match e {
        Expr::Path { segs, .. } => format!("`{}`", segs.join("::")),
        Expr::Field { base, name, .. } => {
            if matches!(base.as_ref(), Expr::Path { segs, .. } if segs == &["self"]) {
                format!("`self.{name}`")
            } else {
                format!("field `{name}`")
            }
        }
        Expr::MethodCall { name, .. } => format!("the result of `.{name}()`"),
        Expr::Call { callee, .. } => match callee.as_ref() {
            Expr::Path { segs, .. } => format!("the result of `{}()`", segs.join("::")),
            _ => "a call result".to_owned(),
        },
        Expr::Unary { expr, .. } => describe(expr),
        _ => "a hash container".to_owned(),
    }
}

/// The per-function typing environment.
struct Env<'w, 'a> {
    ws: &'w Workspace<'a>,
    from: usize,
    impl_ty: Option<&'a str>,
    names: Vec<(String, Type)>,
}

impl Env<'_, '_> {
    fn lookup(&self, name: &str) -> Option<&Type> {
        self.names.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Best-effort declared type of an expression.
    fn type_of(&self, e: &Expr) -> Option<Type> {
        match e {
            Expr::Path { segs, .. } if segs.len() == 1 => self.lookup(&segs[0]).cloned(),
            Expr::Field { base, name, .. } if matches!(base.as_ref(), Expr::Path { segs, .. } if segs == &["self"]) => {
                self.impl_ty
                    .and_then(|ty| self.ws.field_type(ty, name))
                    .cloned()
            }
            Expr::Unary { op, expr, .. } if op == "&" || op == "*" => self.type_of(expr),
            Expr::Seq { exprs, .. } if exprs.len() == 1 => self.type_of(&exprs[0]),
            Expr::Cast { ty, .. } => Some(ty.clone()),
            Expr::MethodCall { recv, name, .. } if IDENTITY_METHODS.contains(&name.as_str()) => {
                self.type_of(recv)
            }
            Expr::MethodCall { recv, name, .. } => {
                let recv_ty = self.type_head(recv);
                let callee = self
                    .ws
                    .resolve_method(name, recv_ty.as_deref(), self.from)?;
                self.ws.fns[callee].def.ret.clone()
            }
            Expr::Call { callee, .. } => {
                let Expr::Path { segs, .. } = callee.as_ref() else {
                    return None;
                };
                let callee = self.ws.resolve_call(segs, self.from)?;
                self.ws.fns[callee].def.ret.clone()
            }
            _ => None,
        }
    }

    /// The head type name of an expression, for method resolution.
    fn type_head(&self, e: &Expr) -> Option<String> {
        self.type_of(e)
            .and_then(|t| t.head().map(str::to_owned))
            // `self` receivers type as the impl type.
            .or_else(|| match e {
                Expr::Path { segs, .. } if segs == &["self"] => self.impl_ty.map(str::to_owned),
                _ => None,
            })
    }

    /// True when the expression is hash-container-typed.
    fn is_hash(&self, e: &Expr) -> bool {
        self.type_of(e)
            .is_some_and(|t| t.mentions("HashMap") || t.mentions("HashSet"))
    }
}
