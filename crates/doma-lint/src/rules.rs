//! The rule catalog, implemented over token trees.
//!
//! Per-file rules take a file label plus the parsed (and, where the rule
//! demands it, `#[cfg(test)]`-stripped) token trees. Cross-file rules
//! (`lock-order`, `message-flow`, `obs-catalog`) take the whole file set
//! of the crates they audit, because their facts — lock acquisition
//! edges, enum variants vs. use sites, metric registrations vs. the
//! DESIGN catalog — only exist across files.

use crate::lex::{Delim, TokKind, Token};
use crate::tree::{walk_levels, Tree};
use crate::Finding;
use std::collections::{BTreeMap, BTreeSet};

fn finding(file: &str, tok: &Token<'_>, rule: &'static str, message: String) -> Finding {
    Finding {
        file: file.to_string(),
        line: tok.line as usize,
        col: tok.col as usize,
        rule,
        message,
    }
}

/// Whether `level[i]`/`level[i+1]` are the glued two-char operator `ab`.
fn glued2(level: &[Tree<'_>], i: usize, a: char, b: char) -> bool {
    let (Some(x), Some(y)) = (level.get(i), level.get(i + 1)) else {
        return false;
    };
    x.is_punct(a) && y.is_punct(b) && x.anchor().glued_to(y.anchor())
}

/// Whether `level[i..]` is the path separator `::`.
fn path_sep(level: &[Tree<'_>], i: usize) -> bool {
    glued2(level, i, ':', ':')
}

// ---------------------------------------------------------------------------
// no-panic
// ---------------------------------------------------------------------------

/// The `no-panic` rule: flags `.unwrap()`, `.expect(…)` and `panic!` in
/// non-test code. `debug_assert!` is deliberately allowed (compiled out
/// of release protocol builds), as are identifiers that merely *contain*
/// the words (`unwrap_or`, `foo_panic`).
pub fn check_no_panics(file: &str, trees: &[Tree<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    walk_levels(trees, &mut |level| {
        for i in 0..level.len() {
            if level[i].is_punct('.') {
                let Some(name) = level.get(i + 1).and_then(|t| t.leaf()) else {
                    continue;
                };
                let args = level.get(i + 2).and_then(|t| t.group_with(Delim::Paren));
                let hit = match name.text {
                    "unwrap" => args.is_some_and(|g| g.children.is_empty()),
                    "expect" => args.is_some(),
                    _ => false,
                };
                if hit {
                    out.push(finding(
                        file,
                        name,
                        "no-panic",
                        format!("`.{}(…)` in protocol code", name.text),
                    ));
                }
            }
            if level[i].is_ident("panic")
                && level.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && !level.get(i.wrapping_sub(1)).is_some_and(|t| {
                    // `core::panic!` et al. still count; only a macro
                    // *definition's* name position would differ, which
                    // this workspace forbids anyway.
                    t.is_punct('.')
                })
            {
                out.push(finding(
                    file,
                    level[i].anchor(),
                    "no-panic",
                    "`panic!` in protocol code".to_string(),
                ));
            }
        }
    });
    out
}

// ---------------------------------------------------------------------------
// exhaustive-dispatch
// ---------------------------------------------------------------------------

/// Splits a match body into `(pattern, body)` arm slices. The pattern
/// slice includes any guard; a brace-bodied arm's body slice is the
/// single group tree.
fn match_arms<'a, 'b>(children: &'b [Tree<'a>]) -> Vec<(&'b [Tree<'a>], &'b [Tree<'a>])> {
    let mut arms = Vec::new();
    let mut i = 0;
    while i < children.len() {
        // Pattern: trees until `=>`.
        let start = i;
        while i < children.len() && !glued2(children, i, '=', '>') {
            i += 1;
        }
        let pattern = &children[start..i];
        if i >= children.len() {
            if !pattern.is_empty() {
                arms.push((pattern, &children[i..i]));
            }
            break;
        }
        i += 2; // consume `=>`
        if children
            .get(i)
            .is_some_and(|t| t.group_with(Delim::Brace).is_some())
        {
            arms.push((pattern, &children[i..i + 1]));
            i += 1;
            if children.get(i).is_some_and(|t| t.is_punct(',')) {
                i += 1;
            }
        } else {
            let start = i;
            while i < children.len() && !children[i].is_punct(',') {
                i += 1;
            }
            arms.push((pattern, &children[start..i]));
            i += 1; // consume `,`
        }
    }
    arms
}

/// The `exhaustive-dispatch` rule: flags a wildcard `_` arm (guarded or
/// not) at the top level of any `match msg { … }` block. Nested matches
/// over other scrutinees and `_` bindings inside patterns are untouched.
pub fn check_dispatch_exhaustive(file: &str, trees: &[Tree<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    walk_levels(trees, &mut |level| {
        for i in 0..level.len() {
            if !level[i].is_ident("match") || !level.get(i + 1).is_some_and(|t| t.is_ident("msg")) {
                continue;
            }
            let Some(body) = level.get(i + 2).and_then(|t| t.group_with(Delim::Brace)) else {
                continue;
            };
            for (pattern, _) in match_arms(&body.children) {
                let wildcard = pattern.first().is_some_and(|t| t.is_ident("_"))
                    && (pattern.len() == 1 || pattern[1].is_ident("if"));
                if wildcard {
                    out.push(finding(
                        file,
                        pattern[0].anchor(),
                        "exhaustive-dispatch",
                        "wildcard `_` arm in message dispatch — name every message variant"
                            .to_string(),
                    ));
                }
            }
        }
    });
    out
}

// ---------------------------------------------------------------------------
// no-adhoc-print
// ---------------------------------------------------------------------------

/// The `no-adhoc-print` rule: flags `println!`, `eprintln!`, `print!`
/// and `eprint!` in instrumented library code, which must report through
/// `doma-obs` instead (events, metrics, or `console::debug_line`).
pub fn check_no_adhoc_prints(file: &str, trees: &[Tree<'_>]) -> Vec<Finding> {
    const FORBIDDEN: &[&str] = &["println", "eprintln", "print", "eprint"];
    let mut out = Vec::new();
    walk_levels(trees, &mut |level| {
        for i in 0..level.len() {
            let Some(tok) = level[i].leaf() else { continue };
            if tok.kind == TokKind::Ident
                && FORBIDDEN.contains(&tok.text)
                && level.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                out.push(finding(
                    file,
                    tok,
                    "no-adhoc-print",
                    format!(
                        "`{}!` in instrumented library code — use doma-obs \
                         (events/metrics or console::debug_line)",
                        tok.text
                    ),
                ));
            }
        }
    });
    out
}

// ---------------------------------------------------------------------------
// thread-containment
// ---------------------------------------------------------------------------

/// The `thread-containment` rule: flags `std::thread` outside the
/// approved fan-out modules. `std::thread::available_parallelism` is
/// allowed anywhere: core-count introspection spawns nothing.
pub fn check_thread_containment(file: &str, trees: &[Tree<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    walk_levels(trees, &mut |level| {
        for i in 0..level.len() {
            if level[i].is_ident("std")
                && path_sep(level, i + 1)
                && level.get(i + 3).is_some_and(|t| t.is_ident("thread"))
            {
                let allowed = path_sep(level, i + 4)
                    && level
                        .get(i + 6)
                        .is_some_and(|t| t.is_ident("available_parallelism"));
                if !allowed {
                    out.push(finding(
                        file,
                        level[i].anchor(),
                        "thread-containment",
                        "`std::thread` outside the approved fan-out modules — route \
                         parallelism through doma_sim::shard::run_shards (or the \
                         sweep/torture harnesses)"
                            .to_string(),
                    ));
                }
            }
        }
    });
    out
}

// ---------------------------------------------------------------------------
// net-containment
// ---------------------------------------------------------------------------

/// Socket type names that must not appear outside `doma-net`: naming one
/// is either a direct use or an aliased import of a real socket.
const SOCKET_TYPES: &[&str] = &[
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "UnixListener",
    "UnixStream",
];

/// The `net-containment` rule: flags `std::net`, `std::os::unix::net`
/// and the socket type names outside `doma-net`. Real I/O lives behind
/// the [`Transport`] abstraction in exactly one crate — anywhere else,
/// a socket breaks deterministic replay and escapes the sim's fault
/// injection, so the protocol/sim/analysis layers must stay socket-free
/// (tests and benches included).
///
/// [`Transport`]: ../doma_protocol/trait.Transport.html
pub fn check_net_containment(file: &str, trees: &[Tree<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    walk_levels(trees, &mut |level| {
        for i in 0..level.len() {
            let std_net = level[i].is_ident("std")
                && path_sep(level, i + 1)
                && (level.get(i + 3).is_some_and(|t| t.is_ident("net"))
                    || (level.get(i + 3).is_some_and(|t| t.is_ident("os"))
                        && path_sep(level, i + 4)
                        && level.get(i + 6).is_some_and(|t| t.is_ident("unix"))
                        && path_sep(level, i + 7)
                        && level.get(i + 9).is_some_and(|t| t.is_ident("net"))));
            let socket_type = level[i]
                .leaf()
                .is_some_and(|tok| tok.kind == TokKind::Ident && SOCKET_TYPES.contains(&tok.text));
            if std_net || socket_type {
                out.push(finding(
                    file,
                    level[i].anchor(),
                    "net-containment",
                    "socket API outside doma-net — real I/O is confined to the \
                     doma-net runtime; everything else talks through the \
                     doma_protocol::Transport abstraction"
                        .to_string(),
                ));
            }
        }
    });
    out
}

// ---------------------------------------------------------------------------
// determinism
// ---------------------------------------------------------------------------

/// The `determinism` rule: in the deterministic crates' non-test code,
/// flags the hazard classes that silently break byte-identical replay
/// (the fourth, wall-clock, has a wider scope — see
/// [`check_wall_clock`]):
///
/// * **hash-iteration** — `HashMap`/`HashSet` (iteration order is
///   randomized per process; the deterministic crates use `BTreeMap`/
///   `BTreeSet` exclusively);
/// * **env-branch** — `env::var*` (environment-dependent behavior
///   invisible to a seed; sanctioned overrides go in the allowlist);
/// * **fp-ordering** — `.partial_cmp(…)` calls (NaN-partial float
///   ordering; use exact-integer keys or `total_cmp` at a sanctioned,
///   allowlisted site).
pub fn check_determinism(file: &str, trees: &[Tree<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    walk_levels(trees, &mut |level| {
        for i in 0..level.len() {
            let Some(tok) = level[i].leaf() else { continue };
            if tok.kind != TokKind::Ident {
                continue;
            }
            match tok.text {
                "HashMap" | "HashSet" => out.push(finding(
                    file,
                    tok,
                    "determinism",
                    format!(
                        "[hash-iteration] `{}` in a deterministic crate — iteration \
                         order is process-random; use the BTree equivalent",
                        tok.text
                    ),
                )),
                "env"
                    if path_sep(level, i + 1)
                        && level
                            .get(i + 3)
                            .and_then(|t| t.leaf())
                            .is_some_and(|t| t.text.starts_with("var")) =>
                {
                    out.push(finding(
                        file,
                        tok,
                        "determinism",
                        "[env-branch] `env::var` in a deterministic crate — behavior \
                         must be a function of the seed, not the environment"
                            .to_string(),
                    ))
                }
                "partial_cmp"
                    if level
                        .get(i.wrapping_sub(1))
                        .is_some_and(|t| t.is_punct('.'))
                        && level
                            .get(i + 1)
                            .is_some_and(|t| t.group_with(Delim::Paren).is_some()) =>
                {
                    out.push(finding(
                        file,
                        tok,
                        "determinism",
                        "[fp-ordering] `.partial_cmp(…)` call in a deterministic crate \
                         — NaN-partial float ordering; key on exact integers instead"
                            .to_string(),
                    ))
                }
                _ => {}
            }
        }
    });
    out
}

/// The **wall-clock** half of the `determinism` rule: `Instant`/
/// `SystemTime` in non-test code. Unlike the other sub-rules it covers
/// every crate but the socket runtime — the cost-denominated artefacts
/// are byte-stable only if no stopwatch reaches them, and wall-clock
/// measurement has one home, `benchmark/`.
pub fn check_wall_clock(file: &str, trees: &[Tree<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();
    walk_levels(trees, &mut |level| {
        for tok in level.iter().filter_map(|t| t.leaf()) {
            if tok.kind == TokKind::Ident && matches!(tok.text, "Instant" | "SystemTime") {
                out.push(finding(
                    file,
                    tok,
                    "determinism",
                    format!(
                        "[wall-clock] `{}` under crates/ — real time must not \
                         influence results; the one stopwatch lives in benchmark/",
                        tok.text
                    ),
                ));
            }
        }
    });
    out
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// One lock-acquisition-while-holding edge in the static graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct LockEdge {
    from: String,
    to: String,
    file: String,
    line: usize,
    col: usize,
}

#[derive(Debug)]
struct LockScan {
    edges: Vec<LockEdge>,
    findings: Vec<Finding>,
}

/// A live guard: the binding name (if `let`-bound) and the lock identity.
#[derive(Debug, Clone)]
struct Held {
    name: Option<String>,
    lock: String,
}

/// Renders the receiver path of a postfix `.lock()` chain, walking left
/// from the `.`: identifier/field/`::`-path segments and call results.
fn receiver_of(level: &[Tree<'_>], dot: usize) -> String {
    let mut j = dot;
    // Walk left while the previous trees continue a postfix expression.
    while j > 0 {
        let prev = &level[j - 1];
        let continues = match prev {
            Tree::Leaf(t) => {
                (t.kind == TokKind::Ident && t.text != "let" && t.text != "mut")
                    || t.kind == TokKind::Num
                    || t.is_punct('.')
                    || t.is_punct(':')
            }
            Tree::Group(g) => {
                // A call/index result continues the chain only if it is
                // itself preceded by an identifier (its callee).
                g.delim != Delim::Brace
            }
        };
        if !continues {
            break;
        }
        j -= 1;
    }
    let mut parts = Vec::new();
    for t in &level[j..dot] {
        match t {
            Tree::Leaf(tok) => parts.push(tok.text.to_string()),
            Tree::Group(g) => parts.push(match g.delim {
                Delim::Paren => "()".to_string(),
                Delim::Bracket => "[]".to_string(),
                Delim::Brace => "{}".to_string(),
            }),
        }
    }
    parts.concat()
}

/// Whether `level[i..]` is a lock acquisition: `.lock()`, `.read()` or
/// `.write()` with *empty* parentheses (the `Mutex`/`RwLock` signatures;
/// `io::Read::read(buf)` and friends take arguments).
fn acquisition_at<'a>(level: &[Tree<'a>], i: usize) -> Option<&'a str> {
    if !level[i].is_punct('.') {
        return None;
    }
    let name = level.get(i + 1).and_then(|t| t.leaf())?;
    if !matches!(name.text, "lock" | "read" | "write") {
        return None;
    }
    let args = level.get(i + 2).and_then(|t| t.group_with(Delim::Paren))?;
    args.children.is_empty().then_some(name.text)
}

/// Scans one block's children as statements, tracking live guards.
fn scan_lock_block(
    file: &str,
    level: &[Tree<'_>],
    impl_ty: Option<&str>,
    held: &mut Vec<Held>,
    scan: &mut LockScan,
) {
    let base = held.len();
    let mut i = 0;
    while i < level.len() {
        // Statement: trees until a top-level `;`.
        let start = i;
        while i < level.len() && !level[i].is_punct(';') {
            i += 1;
        }
        let stmt = &level[start..i];
        i += 1; // past the `;` (or end)

        let let_bound = stmt.first().is_some_and(|t| t.is_ident("let"));
        let bind_name = if let_bound {
            let mut k = 1;
            if stmt.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
            stmt.get(k)
                .and_then(|t| t.leaf())
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.to_string())
        } else {
            None
        };

        // `drop(name)` releases a guard early.
        for (k, t) in stmt.iter().enumerate() {
            if t.is_ident("drop") {
                if let Some(args) = stmt.get(k + 1).and_then(|t| t.group_with(Delim::Paren)) {
                    if let [only] = args.children.as_slice() {
                        if let Some(tok) = only.leaf() {
                            held.retain(|h| h.name.as_deref() != Some(tok.text));
                        }
                    }
                }
            }
        }

        // Acquisitions in this statement (tracking temporaries so that
        // `f(a.lock(), b.lock())` still yields an a→b edge), recursing
        // into nested non-brace groups inline and brace groups as
        // sub-blocks.
        let mut stmt_acqs: Vec<String> = Vec::new();
        scan_lock_stmt(file, stmt, impl_ty, held, &mut stmt_acqs, scan);
        if let Some(name) = bind_name {
            for lock in stmt_acqs {
                held.push(Held {
                    name: Some(name.clone()),
                    lock,
                });
            }
        }
    }
    held.truncate(base);
}

fn scan_lock_stmt(
    file: &str,
    stmt: &[Tree<'_>],
    impl_ty: Option<&str>,
    held: &mut Vec<Held>,
    stmt_acqs: &mut Vec<String>,
    scan: &mut LockScan,
) {
    let mut k = 0;
    while k < stmt.len() {
        if let Some(method) = acquisition_at(stmt, k) {
            let recv = receiver_of(stmt, k);
            let lock = match impl_ty {
                Some(t) => format!("{t}.{recv}"),
                None => recv,
            };
            let site = stmt[k + 1].anchor();
            for h in held.iter().map(|h| &h.lock).chain(stmt_acqs.iter()) {
                if *h == lock {
                    scan.findings.push(finding(
                        file,
                        site,
                        "lock-order",
                        format!(
                            "re-entrant `.{method}()` on `{lock}` while its guard is \
                             live in the same scope — self-deadlock"
                        ),
                    ));
                } else {
                    scan.edges.push(LockEdge {
                        from: h.clone(),
                        to: lock.clone(),
                        file: file.to_string(),
                        line: site.line as usize,
                        col: site.col as usize,
                    });
                }
            }
            stmt_acqs.push(lock);
            k += 3;
            continue;
        }
        if let Some(g) = stmt[k].group() {
            if g.delim == Delim::Brace {
                // A nested block scopes its own guards.
                scan_lock_block(file, &g.children, impl_ty, held, scan);
            } else {
                scan_lock_stmt(file, &g.children, impl_ty, held, stmt_acqs, scan);
            }
        }
        k += 1;
    }
}

/// Finds `impl` headers and `fn` bodies, scanning each body for lock
/// acquisitions under the enclosing type's name.
fn scan_lock_items(file: &str, level: &[Tree<'_>], impl_ty: Option<&str>, scan: &mut LockScan) {
    let mut i = 0;
    while i < level.len() {
        if level[i].is_ident("impl") {
            // Type name: the last depth-0 path identifier before the
            // body, preferring the path after `for` and stopping at
            // `where`. Angle-bracket depth is tracked over `<`/`>`.
            let mut depth = 0i32;
            let mut name: Option<String> = None;
            let mut j = i + 1;
            let body = loop {
                match level.get(j) {
                    None => break None,
                    Some(Tree::Group(g)) if g.delim == Delim::Brace && depth <= 0 => {
                        break Some(g);
                    }
                    Some(t) => {
                        if t.is_punct('<') {
                            depth += 1;
                        } else if t.is_punct('>') {
                            depth -= 1;
                        } else if depth <= 0 {
                            if t.is_ident("where") {
                                // Skip ahead to the body.
                            } else if t.is_ident("for") {
                                name = None;
                            } else if let Some(tok) = t.leaf() {
                                if tok.kind == TokKind::Ident && name.is_none() {
                                    name = Some(tok.text.to_string());
                                }
                            }
                        }
                        j += 1;
                    }
                }
            };
            if let Some(body) = body {
                scan_lock_items(file, &body.children, name.as_deref().or(impl_ty), scan);
                i = j + 1;
                continue;
            }
        }
        if level[i].is_ident("fn") {
            // Find the first brace group at this level after the header.
            let mut j = i + 1;
            while j < level.len() {
                if let Some(g) = level[j].group_with(Delim::Brace) {
                    let mut held = Vec::new();
                    scan_lock_block(file, &g.children, impl_ty, &mut held, scan);
                    break;
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if let Some(g) = level[i].group() {
            scan_lock_items(file, &g.children, impl_ty, scan);
        }
        i += 1;
    }
}

/// The `lock-order` rule, across the audited crates: builds the static
/// lock-acquisition graph (an edge A→B for every `.lock()`/`.read()`/
/// `.write()` on B while a guard of A is live in the same scope), flags
/// re-entrant acquisition of the same lock immediately, and rejects any
/// cycle in the graph — the static shape of a deadlock.
pub fn check_lock_order(files: &[(&str, &[Tree<'_>])]) -> Vec<Finding> {
    let mut scan = LockScan {
        edges: Vec::new(),
        findings: Vec::new(),
    };
    for (file, trees) in files {
        scan_lock_items(file, trees, None, &mut scan);
    }
    let mut edges = scan.edges;
    edges.sort();
    edges.dedup();

    // Cycle detection over the deduped edge set: adjacency + DFS from
    // every node in sorted order; each distinct cycle is reported once,
    // canonicalized by its minimal rotation.
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut findings = scan.findings;
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut path: Vec<&LockEdge> = Vec::new();
        let mut on_path: Vec<&str> = vec![start];
        dfs_cycles(
            start,
            &adj,
            &mut path,
            &mut on_path,
            &mut seen_cycles,
            &mut findings,
        );
    }
    findings
}

fn dfs_cycles<'e>(
    node: &'e str,
    adj: &BTreeMap<&'e str, Vec<&'e LockEdge>>,
    path: &mut Vec<&'e LockEdge>,
    on_path: &mut Vec<&'e str>,
    seen: &mut BTreeSet<Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    let Some(nexts) = adj.get(node) else { return };
    for edge in nexts {
        if let Some(pos) = on_path.iter().position(|n| *n == edge.to) {
            // A cycle: nodes on_path[pos..] + closing edge.
            let cycle_edges: Vec<&LockEdge> = path[pos..].iter().copied().chain([*edge]).collect();
            let mut nodes: Vec<String> = cycle_edges.iter().map(|e| e.from.clone()).collect();
            // Canonical rotation: start at the minimal node.
            let min = (0..nodes.len())
                .min_by_key(|&i| nodes[i].as_str())
                .unwrap_or(0);
            nodes.rotate_left(min);
            if seen.insert(nodes.clone()) {
                let site = cycle_edges
                    .iter()
                    .min_by_key(|e| (&e.file, e.line, e.col))
                    .copied();
                if let Some(site) = site {
                    let mut chain = nodes.clone();
                    chain.push(nodes[0].clone());
                    findings.push(Finding {
                        file: site.file.clone(),
                        line: site.line,
                        col: site.col,
                        rule: "lock-order",
                        message: format!(
                            "lock acquisition cycle {} — acquire locks in one global order",
                            chain.join(" -> ")
                        ),
                    });
                }
            }
            continue;
        }
        path.push(edge);
        on_path.push(&edge.to);
        dfs_cycles(&edge.to, adj, path, on_path, seen, findings);
        on_path.pop();
        path.pop();
    }
}

// ---------------------------------------------------------------------------
// message-flow
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MsgCounts {
    constructed: BTreeMap<String, usize>,
    dispatched: BTreeMap<String, usize>,
}

fn msg_path_at(level: &[Tree<'_>], i: usize, enum_name: &str) -> Option<String> {
    if !level[i].is_ident(enum_name) || !path_sep(level, i + 1) {
        return None;
    }
    let v = level.get(i + 3)?.leaf()?;
    (v.kind == TokKind::Ident).then(|| v.text.to_string())
}

fn scan_msg_exprs(level: &[Tree<'_>], enum_name: &str, counts: &mut MsgCounts) {
    let mut i = 0;
    while i < level.len() {
        // `match scrutinee { arms }`
        if level[i].is_ident("match") {
            let mut j = i + 1;
            while j < level.len() && level[j].group_with(Delim::Brace).is_none() {
                j += 1;
            }
            scan_msg_exprs(&level[i + 1..j], enum_name, counts);
            if let Some(body) = level.get(j).and_then(|t| t.group_with(Delim::Brace)) {
                for (pattern, arm_body) in match_arms(&body.children) {
                    scan_msg_patterns(pattern, enum_name, counts);
                    scan_msg_exprs(arm_body, enum_name, counts);
                }
            }
            i = j + 1;
            continue;
        }
        // `matches!(expr, pattern)`
        if level[i].is_ident("matches") && level.get(i + 1).is_some_and(|t| t.is_punct('!')) {
            if let Some(g) = level.get(i + 2).and_then(|t| t.group_with(Delim::Paren)) {
                let split = g
                    .children
                    .iter()
                    .position(|t| t.is_punct(','))
                    .unwrap_or(g.children.len());
                scan_msg_exprs(&g.children[..split], enum_name, counts);
                if split < g.children.len() {
                    scan_msg_patterns(&g.children[split + 1..], enum_name, counts);
                }
                i += 3;
                continue;
            }
        }
        // `if let` / `while let` / plain `let`: the left of `=` is a
        // pattern.
        if level[i].is_ident("let") {
            let mut j = i + 1;
            while j < level.len() {
                let single_eq = level[j].is_punct('=')
                    && !glued2(level, j, '=', '=')
                    && !glued2(level, j, '=', '>')
                    && !level.get(j.wrapping_sub(1)).is_some_and(|t| {
                        t.is_punct('=') || t.is_punct('!') || t.is_punct('<') || t.is_punct('>')
                    });
                if single_eq || level[j].is_punct(';') {
                    break;
                }
                j += 1;
            }
            scan_msg_patterns(&level[i + 1..j.min(level.len())], enum_name, counts);
            i = j + 1;
            continue;
        }
        if let Some(v) = msg_path_at(level, i, enum_name) {
            *counts.constructed.entry(v).or_default() += 1;
            i += 4;
            continue;
        }
        if let Some(g) = level[i].group() {
            scan_msg_exprs(&g.children, enum_name, counts);
        }
        i += 1;
    }
}

fn scan_msg_patterns(level: &[Tree<'_>], enum_name: &str, counts: &mut MsgCounts) {
    let mut i = 0;
    while i < level.len() {
        // A guard switches back to expression context.
        if level[i].is_ident("if") {
            scan_msg_exprs(&level[i + 1..], enum_name, counts);
            return;
        }
        if let Some(v) = msg_path_at(level, i, enum_name) {
            *counts.dispatched.entry(v).or_default() += 1;
            i += 4;
            continue;
        }
        if let Some(g) = level[i].group() {
            scan_msg_patterns(&g.children, enum_name, counts);
        }
        i += 1;
    }
}

/// The `message-flow` rule: parses the `enum DomMsg` definition, then
/// cross-checks every variant against all non-test sources of the
/// protocol crate. A variant no site constructs is unsendable; a variant
/// no `match`/`matches!`/`let`-pattern dispatches is dead on arrival —
/// both are protocol-surface rot the type system cannot see.
pub fn check_message_flow(enum_name: &str, files: &[(&str, &[Tree<'_>])]) -> Vec<Finding> {
    // 1. Find the enum definition and its variants.
    let mut variants: Vec<(String, String, usize, usize)> = Vec::new(); // (name, file, line, col)
    for (file, trees) in files {
        walk_levels(trees, &mut |level| {
            for i in 0..level.len() {
                if !level[i].is_ident("enum")
                    || !level.get(i + 1).is_some_and(|t| t.is_ident(enum_name))
                {
                    continue;
                }
                let Some(body) = level.get(i + 2).and_then(|t| t.group_with(Delim::Brace)) else {
                    continue;
                };
                let kids = &body.children;
                let mut j = 0;
                while j < kids.len() {
                    // Skip attributes on the variant.
                    if kids[j].is_punct('#')
                        && kids
                            .get(j + 1)
                            .is_some_and(|t| t.group_with(Delim::Bracket).is_some())
                    {
                        j += 2;
                        continue;
                    }
                    if let Some(tok) = kids[j].leaf().filter(|t| t.kind == TokKind::Ident) {
                        variants.push((
                            tok.text.to_string(),
                            file.to_string(),
                            tok.line as usize,
                            tok.col as usize,
                        ));
                    }
                    // Skip to the variant's trailing comma.
                    while j < kids.len() && !kids[j].is_punct(',') {
                        j += 1;
                    }
                    j += 1;
                }
            }
        });
    }
    if variants.is_empty() {
        return Vec::new();
    }

    // 2. Tally construction and dispatch sites across all files.
    let mut counts = MsgCounts::default();
    for (_, trees) in files {
        scan_msg_exprs(trees, enum_name, &mut counts);
    }

    let mut out = Vec::new();
    for (name, file, line, col) in variants {
        if counts.constructed.get(&name).copied().unwrap_or(0) == 0 {
            out.push(Finding {
                file: file.clone(),
                line,
                col,
                rule: "message-flow",
                message: format!(
                    "`{enum_name}::{name}` is never constructed in non-test code — \
                     an unsendable protocol message"
                ),
            });
        }
        if counts.dispatched.get(&name).copied().unwrap_or(0) == 0 {
            out.push(Finding {
                file,
                line,
                col,
                rule: "message-flow",
                message: format!(
                    "`{enum_name}::{name}` is never matched by any dispatch — \
                     a dead protocol message"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// obs-catalog
// ---------------------------------------------------------------------------

/// Extracts the metric catalog from DESIGN.md §8: every backticked
/// `component.name` token (lowercase identifiers joined by dots) between
/// the `## 8.` heading and the next `## ` heading.
pub fn design_metric_catalog(design: &str) -> BTreeSet<String> {
    let mut catalog = BTreeSet::new();
    let mut in_section = false;
    for line in design.lines() {
        if line.starts_with("## ") {
            in_section = line.starts_with("## 8");
            continue;
        }
        if !in_section {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let ok = span.contains('.')
                && span.starts_with(|c: char| c.is_ascii_lowercase())
                && span
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.');
            if ok {
                catalog.insert(span.to_string());
            }
        }
    }
    catalog
}

fn str_leaf<'a>(tree: &Tree<'a>) -> Option<&'a str> {
    let tok = tree.leaf()?;
    if tok.kind != TokKind::Str {
        return None;
    }
    // Strip the quotes (plain `"…"` literals only — metric names never
    // need raw strings or escapes).
    tok.text.strip_prefix('"')?.strip_suffix('"')
}

fn split_args<'a, 'b>(children: &'b [Tree<'a>]) -> Vec<&'b [Tree<'a>]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, t) in children.iter().enumerate() {
        if t.is_punct(',') {
            out.push(&children[start..i]);
            start = i + 1;
        }
    }
    if start < children.len() {
        out.push(&children[start..]);
    }
    out
}

/// The `obs-catalog` rule: every metric registered through the
/// `doma-obs` registry with literal `(component, name)` arguments —
/// `.counter(…)`, `.gauge(…)`, `.histogram(…)` and registry `.add(…)` —
/// must appear as `component.name` in the DESIGN §8 catalog, and literal
/// label keys must be sorted (the registry sorts labels for key
/// identity; unsorted call sites drift apart under grep and diff).
pub fn check_obs_catalog(
    files: &[(&str, &[Tree<'_>])],
    catalog: &BTreeSet<String>,
) -> Vec<Finding> {
    const METHODS: &[&str] = &["counter", "gauge", "histogram", "add"];
    let mut out = Vec::new();
    for (file, trees) in files {
        walk_levels(trees, &mut |level| {
            for i in 0..level.len() {
                if !level[i].is_punct('.') {
                    continue;
                }
                let Some(name_tok) = level.get(i + 1).and_then(|t| t.leaf()) else {
                    continue;
                };
                if !METHODS.contains(&name_tok.text) {
                    continue;
                }
                let Some(args) = level.get(i + 2).and_then(|t| t.group_with(Delim::Paren)) else {
                    continue;
                };
                let args = split_args(&args.children);
                let (Some(comp), Some(metric)) = (
                    args.first()
                        .filter(|a| a.len() == 1)
                        .and_then(|a| str_leaf(&a[0])),
                    args.get(1)
                        .filter(|a| a.len() == 1)
                        .and_then(|a| str_leaf(&a[0])),
                ) else {
                    continue;
                };
                let full = format!("{comp}.{metric}");
                if !catalog.contains(&full) {
                    out.push(finding(
                        file,
                        args[1][0].anchor(),
                        "obs-catalog",
                        format!(
                            "metric `{full}` is not in the DESIGN §8 catalog — name \
                             drift breaks obs JSON diffing; add it to the table or fix \
                             the call site"
                        ),
                    ));
                }
                // Label keys: a literal `&[("k", v), …]` third argument.
                if let Some(labels) = args.get(2) {
                    let bracket = match labels {
                        [amp, group] if amp.is_punct('&') => group.group_with(Delim::Bracket),
                        _ => None,
                    };
                    if let Some(list) = bracket {
                        let mut prev: Option<(&str, &Token<'_>)> = None;
                        for tuple in &list.children {
                            let Some(g) = tuple.group_with(Delim::Paren) else {
                                continue;
                            };
                            let Some(key) = g.children.first().and_then(str_leaf) else {
                                continue;
                            };
                            let key_tok = g.children[0].anchor();
                            if let Some((p, _)) = prev {
                                if p > key {
                                    out.push(finding(
                                        file,
                                        key_tok,
                                        "obs-catalog",
                                        format!(
                                            "label keys not sorted: `{key}` after `{p}` \
                                             — the registry keys metrics by sorted \
                                             labels; sort them at the call site"
                                        ),
                                    ));
                                }
                            }
                            prev = Some((key, key_tok));
                        }
                    }
                }
            }
        });
    }
    out
}

// ---------------------------------------------------------------------------
// span-catalog
// ---------------------------------------------------------------------------

/// Extracts the span catalog from DESIGN.md §13: every backticked
/// `component.name` token (lowercase identifiers joined by dots) between
/// the `## 13.` heading and the next `## ` heading.
pub fn design_span_catalog(design: &str) -> BTreeSet<String> {
    let mut catalog = BTreeSet::new();
    let mut in_section = false;
    for line in design.lines() {
        if line.starts_with("## ") {
            in_section = line.starts_with("## 13");
            continue;
        }
        if !in_section {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let ok = span.contains('.')
                && span.starts_with(|c: char| c.is_ascii_lowercase())
                && span
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.');
            if ok {
                catalog.insert(span.to_string());
            }
        }
    }
    catalog
}

/// The `span-catalog` rule: every span opened with a literal name —
/// `.span_enter(time, "name", …)` call sites and `span!(log, time,
/// "name", …)` macro invocations — must appear backticked in the DESIGN
/// §13 span catalog, mirroring `obs-catalog`'s §8 discipline. The
/// Chrome trace exporter, the critical-path report and perfetto queries
/// all key on span names, so an undocumented name drifts silently.
pub fn check_span_catalog(
    files: &[(&str, &[Tree<'_>])],
    catalog: &BTreeSet<String>,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (file, trees) in files {
        walk_levels(trees, &mut |level| {
            for i in 0..level.len() {
                // `.span_enter(time, "name", fields)` method calls: the
                // name is the second argument.
                let method = level[i].is_punct('.')
                    && level
                        .get(i + 1)
                        .and_then(|t| t.leaf())
                        .is_some_and(|t| t.text == "span_enter");
                // `span!(log, time, "name", k = v, …)` macro
                // invocations: the name is the third operand.
                let mac =
                    level[i].is_ident("span") && level.get(i + 1).is_some_and(|t| t.is_punct('!'));
                let (group_at, name_arg) = if method {
                    (i + 2, 1)
                } else if mac {
                    (i + 2, 2)
                } else {
                    continue;
                };
                let Some(args) = level.get(group_at).and_then(|t| t.group_with(Delim::Paren))
                else {
                    continue;
                };
                let args = split_args(&args.children);
                let Some(name) = args
                    .get(name_arg)
                    .filter(|a| a.len() == 1)
                    .and_then(|a| str_leaf(&a[0]))
                else {
                    continue;
                };
                if !catalog.contains(name) {
                    out.push(finding(
                        file,
                        args[name_arg][0].anchor(),
                        "span-catalog",
                        format!(
                            "span `{name}` is not in the DESIGN §13 span catalog — the \
                             trace exporter and critical-path report key on span names; \
                             add it to the table or fix the call site"
                        ),
                    ));
                }
            }
        });
    }
    out
}

// ---------------------------------------------------------------------------
// lint-headers (text-level)
// ---------------------------------------------------------------------------

/// The `lint-headers` rule: every crate root must opt into the
/// workspace's documentation and idiom lints.
pub fn check_lint_headers(file: &str, src: &str) -> Vec<Finding> {
    ["#![warn(missing_docs)]", "#![warn(rust_2018_idioms)]"]
        .iter()
        .filter(|pragma| !src.contains(*pragma))
        .map(|pragma| Finding {
            file: file.to_string(),
            line: 1,
            col: 1,
            rule: "lint-headers",
            message: format!("crate root missing `{pragma}`"),
        })
        .collect()
}
