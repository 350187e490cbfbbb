//! `lock-order`: the static lock-ordering graph must be acyclic, and no
//! guard may be held across a blocking call.
//!
//! Every `Mutex`/`RwLock` acquisition site (`.lock()`, `.read()`,
//! `.write()` with no arguments) is extracted per function. While a
//! guard is live, three things are recorded:
//!
//! * an **ordering edge** to any lock acquired under it — the global
//!   graph over lock names must stay acyclic, or two threads taking the
//!   locks in opposite orders can deadlock;
//! * any **blocking call** (`send`/`recv`/`recv_timeout`/`wait*`/`join`/
//!   `sleep`/`accept`/`connect`/`park`) made under it — a guard held
//!   across a block is how the destination ends up waiting forever on a
//!   pulled block (the paper's §IV-A-3 liveness argument);
//! * any call to a **same-crate helper that itself acquires locks** —
//!   the interprocedural (single-hop) extension. A per-crate summary
//!   maps each `fn` to the locks its body acquires directly; a call to
//!   `helper(…)`, `self.helper(…)`, or `Self::helper(…)` under a guard
//!   contributes the summary's acquisitions as ordering edges (labelled
//!   `via`), closing the "wrap the lock in a function" blind spot.
//!
//! Deliberate limits, documented in DESIGN.md §11: propagation is one
//! hop (helper-of-helper chains are not chased), call targets resolve by
//! bare name within the crate (same-named functions merge into one
//! conservative summary; method calls on receivers other than `self`
//! are skipped — without types, `guard.flush()` vs `disk.flush()` is
//! guesswork), locks are identified by field/binding name (distinct
//! locks sharing a name merge into one conservative node), edges where
//! **both** ends are shared (`.read()`) acquisitions are
//! non-conflicting, and `wait*` calls that take a live guard as an
//! argument are exempt — the condvar pattern releases the lock while
//! parked.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{TokKind, Token};
use crate::report::Violation;
use crate::source::{at_statement_start, functions_in, is_zero_arg_call, match_paren, SourceFile};
use crate::Workspace;

const BLOCKING: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_while",
    "join",
    "sleep",
    "accept",
    "connect",
    "park",
];

/// How a lock was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `.read()` — shared; two shared holds cannot deadlock each other.
    Shared,
    /// `.lock()` / `.write()` — exclusive.
    Exclusive,
}

#[derive(Debug, Clone)]
struct Guard {
    /// Graph-node identity: the lock's receiver name (`ledger` in
    /// `self.ledger.lock()`), so the same lock matches across functions.
    node: String,
    /// Local binding name (`g` in `let g = ...`), what `drop(g)` and
    /// `cv.wait(&mut g)` mention. Falls back to the node name.
    binding: String,
    mode: Mode,
    /// Token index after which the guard is dead.
    end: usize,
}

/// An ordering edge `from` → `to` with one example site.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    from_mode: Mode,
    to: String,
    to_mode: Mode,
    path: String,
    line: usize,
    /// Helper function the `to` acquisition happens inside, when the
    /// edge came from the interprocedural extension.
    via: Option<String>,
}

/// Per-crate, per-function summary: locks a function's body acquires
/// directly, as `(node, mode)` pairs.
type CrateSummaries = BTreeMap<String, BTreeMap<String, Vec<(String, Mode)>>>;

/// Check the workspace; findings come back unsorted.
pub fn check(ws: &Workspace) -> Vec<Violation> {
    let summaries = build_summaries(ws);
    let mut out = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    for file in &ws.files {
        let crate_fns = summaries.get(crate_of(&file.rel));
        scan_file(file, crate_fns, &mut edges, &mut out);
    }
    violations_from_edges(&edges, &mut out);
    out
}

/// The workspace crate a path belongs to: `crates/<name>/…` → `<name>`,
/// the root package's `src/…` → `<root>`.
fn crate_of(rel: &str) -> &str {
    match rel.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(rest),
        None => "<root>",
    }
}

/// Pre-pass: which locks does each function acquire directly?
fn build_summaries(ws: &Workspace) -> CrateSummaries {
    let mut out: CrateSummaries = BTreeMap::new();
    for file in &ws.files {
        let per_crate = out.entry(crate_of(&file.rel).to_string()).or_default();
        let toks = &file.tokens;
        for def in functions_in(file) {
            let acquisitions = per_crate.entry(def.name).or_default();
            let (open, close) = def.body;
            for i in open..close {
                let Some(mode) = acquisition_mode(&toks[i]) else {
                    continue;
                };
                if i > 0 && toks[i - 1].is_punct(".") && is_zero_arg_call(toks, i) {
                    if let Some(node) = receiver_name(toks, i - 1) {
                        if !acquisitions.iter().any(|(n, m)| *n == node && *m == mode) {
                            acquisitions.push((node, mode));
                        }
                    }
                }
            }
        }
    }
    out
}

fn acquisition_mode(t: &Token) -> Option<Mode> {
    match t.text.as_str() {
        "lock" | "write" => Some(Mode::Exclusive),
        "read" => Some(Mode::Shared),
        _ => None,
    }
}

/// One guard-tracking walk over a file: collects ordering edges (direct
/// and via same-crate helpers) and reports blocking calls under guards.
fn scan_file(
    file: &SourceFile,
    crate_fns: Option<&BTreeMap<String, Vec<(String, Mode)>>>,
    edges: &mut Vec<Edge>,
    out: &mut Vec<Violation>,
) {
    let toks = &file.tokens;
    let mut guards: Vec<Guard> = Vec::new();
    // Innermost-open-brace stack, to scope `let`-bound guards.
    let mut braces: Vec<usize> = Vec::new();

    for i in 0..toks.len() {
        guards.retain(|g| g.end > i);
        let t = &toks[i];
        if t.is_punct("{") {
            braces.push(i);
            continue;
        }
        if t.is_punct("}") {
            braces.pop();
            continue;
        }
        if file.in_test[i] || t.kind != TokKind::Ident {
            continue;
        }

        // Explicit early release: drop(guard) / mem::drop(guard).
        if t.is_ident("drop") && matches!(toks.get(i + 1), Some(n) if n.is_punct("(")) {
            if let Some(close) = match_paren(toks, i + 1) {
                let args = &toks[i + 2..close];
                guards.retain(|g| !args.iter().any(|a| a.is_ident(&g.binding)));
            }
            continue;
        }

        // Lock acquisition: `recv . lock ( )` with zero args.
        if let Some(mode) = acquisition_mode(t) {
            if i > 0 && toks[i - 1].is_punct(".") && is_zero_arg_call(toks, i) {
                let recv_name = receiver_name(toks, i - 1);
                let (binding, end) = guard_extent(file, toks, i, &braces, recv_name.clone());
                let node = recv_name.unwrap_or_else(|| binding.clone());
                for g in &guards {
                    if !(g.mode == Mode::Shared && mode == Mode::Shared) {
                        edges.push(Edge {
                            from: g.node.clone(),
                            from_mode: g.mode,
                            to: node.clone(),
                            to_mode: mode,
                            path: file.rel.clone(),
                            line: file.line_of_token(i),
                            via: None,
                        });
                    }
                }
                guards.push(Guard {
                    node,
                    binding,
                    mode,
                    end,
                });
                continue;
            }
        }

        // Interprocedural hop: a same-crate helper called under a live
        // guard contributes the locks its body acquires.
        if !guards.is_empty() && matches!(toks.get(i + 1), Some(n) if n.is_punct("(")) {
            if let Some(fns) = crate_fns {
                if is_propagatable_call(toks, i) {
                    if let Some(acquired) = fns.get(t.text.as_str()) {
                        for (node, mode) in acquired {
                            for g in &guards {
                                if !(g.mode == Mode::Shared && *mode == Mode::Shared) {
                                    edges.push(Edge {
                                        from: g.node.clone(),
                                        from_mode: g.mode,
                                        to: node.clone(),
                                        to_mode: *mode,
                                        path: file.rel.clone(),
                                        line: file.line_of_token(i),
                                        via: Some(t.text.clone()),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        // Blocking call under a live guard.
        if BLOCKING.contains(&t.text.as_str())
            && !guards.is_empty()
            && i > 0
            && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("::"))
            && matches!(toks.get(i + 1), Some(n) if n.is_punct("("))
        {
            let args: &[Token] = match match_paren(toks, i + 1) {
                Some(close) => &toks[i + 2..close],
                None => &[],
            };
            // Condvar pattern: `cv.wait(&mut guard)` hands the guard to
            // the wait, which releases the lock while parked.
            let consumes_guard = t.text.starts_with("wait")
                && guards
                    .iter()
                    .any(|g| args.iter().any(|a| a.is_ident(&g.binding)));
            if !consumes_guard {
                let held: Vec<&str> = guards.iter().map(|g| g.node.as_str()).collect();
                out.push(Violation {
                    path: file.rel.clone(),
                    line: file.line_of_token(i),
                    message: format!(
                        "guard on `{}` held across blocking `{}` call — release the \
                         lock before blocking",
                        held.join("`, `"),
                        t.text
                    ),
                });
            }
        }
    }
}

/// Call shapes the single-hop extension resolves: a bare `helper(…)`,
/// `self.helper(…)`, or `Self::helper(…)`. Method calls on any other
/// receiver are skipped — without type information the callee is
/// guesswork (`guard.write_block(…)` must not hit `Disk::write_block`'s
/// summary).
fn is_propagatable_call(toks: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
        return true;
    };
    if prev.is_punct(".") {
        return i >= 2 && toks[i - 2].is_ident("self");
    }
    if prev.is_punct("::") {
        return i >= 2 && toks[i - 2].is_ident("Self");
    }
    // `fn helper(` is a definition; `match x` etc. never precede `(`
    // with an ident in call position we care about.
    !prev.is_ident("fn")
}

/// The receiver identifier of a method call whose `.` sits at `dot`:
/// `self.shared.pending.lock()` → `pending`.
fn receiver_name(toks: &[Token], dot: usize) -> Option<String> {
    if dot == 0 {
        return None;
    }
    let r = &toks[dot - 1];
    if r.kind == TokKind::Ident {
        return Some(r.text.clone());
    }
    // Tuple-field receivers like `self.0.lock()` — use the ident before
    // the numeric field: `self`.
    if r.kind == TokKind::Literal && dot >= 3 && toks[dot - 2].is_punct(".") {
        let rr = &toks[dot - 3];
        if rr.kind == TokKind::Ident {
            return Some(rr.text.clone());
        }
    }
    None
}

/// Binding name and end-of-life token index for a guard acquired at
/// method token `m`. A `let`-bound guard lives to the end of the
/// enclosing block; a temporary lives to the end of its statement —
/// where a statement that opens a block before `;` (a `for`/`while`/
/// `match` header) extends through that block.
fn guard_extent(
    file: &SourceFile,
    toks: &[Token],
    m: usize,
    braces: &[usize],
    recv_name: Option<String>,
) -> (String, usize) {
    // Walk back to the statement start looking for `let [mut] name =`.
    let mut s = m;
    while s > 0 && !at_statement_start(toks, s) {
        s -= 1;
    }
    let mut let_name = None;
    if toks.get(s).is_some_and(|t| t.is_ident("let")) {
        let mut j = s + 1;
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        if let (Some(name_tok), Some(eq_tok)) = (toks.get(j), toks.get(j + 1)) {
            if name_tok.kind == TokKind::Ident && eq_tok.is_punct("=") {
                let_name = Some(name_tok.text.clone());
            }
        }
    }
    let name = let_name
        .clone()
        .or(recv_name)
        .unwrap_or_else(|| "<expr>".to_string());
    if let_name.is_some() || toks.get(s).is_some_and(|t| t.is_ident("let")) {
        // Let-bound (even into a pattern): enclosing block scope.
        let end = braces
            .last()
            .and_then(|&open| file.brace_match[open])
            .unwrap_or(toks.len());
        return (name, end);
    }
    // Temporary: end of statement, extended through a header-opened block.
    let mut depth = 0i32;
    let mut k = m + 1;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth <= 0 && (t.is_punct(";") || t.is_punct("}")) {
            // `;` ends the statement; `}` ends the enclosing block (the
            // tail-expression case, which has no `;`).
            return (name, k);
        } else if depth <= 0 && t.is_punct("{") {
            return (name, file.brace_match[k].unwrap_or(toks.len()));
        }
        k += 1;
    }
    (name, toks.len())
}

/// Report self-edges and directed cycles in the ordering graph.
fn violations_from_edges(edges: &[Edge], out: &mut Vec<Violation>) {
    let mut adj: BTreeMap<&str, BTreeMap<&str, &Edge>> = BTreeMap::new();
    for e in edges {
        if e.from == e.to {
            // Same lock name re-acquired while held. Shared→Shared pairs
            // were never recorded; anything here can deadlock (or is two
            // same-named locks, which the naming scheme conservatively
            // refuses to tell apart).
            let via = e
                .via
                .as_ref()
                .map(|f| format!(" via call to `{f}()`"))
                .unwrap_or_default();
            out.push(Violation {
                path: e.path.clone(),
                line: e.line,
                message: format!(
                    "lock `{}` acquired again while already held{via} ({:?} under {:?})",
                    e.to, e.to_mode, e.from_mode
                ),
            });
            continue;
        }
        adj.entry(&e.from).or_default().entry(&e.to).or_insert(e);
    }
    // DFS cycle detection; report each cycle once by its node set.
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut stack = vec![start];
        dfs(start, &adj, &mut stack, &mut |cycle| {
            let mut key: Vec<String> = cycle.iter().map(|s| s.to_string()).collect();
            key.sort();
            if reported.insert(key) {
                let edge = adj[cycle[cycle.len() - 1]][cycle[0]];
                let via = edge
                    .via
                    .as_ref()
                    .map(|f| format!(" (closing edge via call to `{f}()`)"))
                    .unwrap_or_default();
                out.push(Violation {
                    path: edge.path.clone(),
                    line: edge.line,
                    message: format!(
                        "lock-order cycle: {}{via} — acquisition order must be \
                         globally consistent",
                        cycle.join(" -> "),
                    ),
                });
            }
        });
    }
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, BTreeMap<&'a str, &'a Edge>>,
    stack: &mut Vec<&'a str>,
    report: &mut impl FnMut(&[&'a str]),
) {
    let Some(next) = adj.get(node) else { return };
    for &n in next.keys() {
        if let Some(pos) = stack.iter().position(|&s| s == n) {
            report(&stack[pos..]);
            continue;
        }
        stack.push(n);
        dfs(n, adj, stack, report);
        stack.pop();
    }
}
