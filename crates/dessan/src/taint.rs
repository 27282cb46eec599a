//! Nondeterminism taint analysis.
//!
//! Sources are the values the token rules already distrust — the read
//! patterns of the shared hazard table (`lint::HAZARDS`: clock
//! reads, ad-hoc RNG, env reads) and hash-ordered iteration — plus any
//! function armed with a `// dessan::taint-source` marker. Taint flows
//! through `let` bindings, reassignments, compound assignments,
//! destructuring binds (`for`/`match`/`if let`), and function calls whose
//! resolved callee returns a tainted value (an under-approximate
//! interprocedural step over [`crate::callgraph::CallIndex`]). Sinks are
//! the places a nondeterministic value would corrupt the suite's
//! byte-identical guarantee or its cache:
//!
//! * a **rendered table cell** — any argument of `push_row(...)`;
//! * an **FNV digest** (a cache key) — any argument of `fnv1a64(...)` or
//!   `fnv1a_fmt(...)`.
//!
//! A tainted sink is one `nondet-taint` finding carrying the full
//! source→sink chain. Unlike the token rules, a *waived* source still
//! seeds taint: the waiver excused the read (e.g. native wall-clock
//! measurement), not the flow of its value into deterministic outputs —
//! sinks need their own waiver if the flow is intended.
//!
//! Sanitizers: sorting a hash-ordered value (`.sort()` family) removes
//! hash-order taint, since order is then deterministic again.
//!
//! Deliberate approximations: field assignments (`self.x = …`) are not
//! tracked; `#[cold]` fns are outside the call index (they inherit the
//! hot-path walk's under-approximation); taint through collections is
//! only modeled for the variable as a whole. Test code is skipped.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{body_calls, Call, CallIndex, Node, WsFile};
use crate::cfg::{self, LoopShape, Step};
use crate::dataflow::{solve, Lattice};
use crate::lex::TokKind;
use crate::lint::{is_hash_container, LintFinding, Rule, HAZARDS};

/// Longest chain narrated in a finding; hops beyond it are elided.
const MAX_CHAIN: usize = 8;

/// One tainted value's provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Taint {
    /// Source class: `wall-clock`, `ad-hoc-rng`, `env-read`,
    /// `hash-order`, or `taint-source`.
    origin: &'static str,
    /// Human description of the original source.
    desc: String,
    /// Line of the original source.
    line: usize,
    /// Propagation hops, source first.
    chain: Vec<String>,
}

impl Taint {
    fn hop(&self, hop: String) -> Taint {
        let mut t = self.clone();
        if t.chain.len() < MAX_CHAIN {
            t.chain.push(hop);
        }
        t
    }
}

/// Per-program-point facts: which variables hold tainted values, and
/// which hold hash containers (whose iteration order is a source).
#[derive(Clone, Debug, PartialEq, Default)]
struct Facts {
    vars: BTreeMap<String, Taint>,
    hash_containers: BTreeSet<String>,
}

impl Lattice for Facts {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, t) in &other.vars {
            match self.vars.get(k) {
                None => {
                    self.vars.insert(k.clone(), t.clone());
                    changed = true;
                }
                // Ties broken deterministically: keep the earliest source.
                Some(cur) if (t.line, &t.desc) < (cur.line, &cur.desc) => {
                    self.vars.insert(k.clone(), t.clone());
                    changed = true;
                }
                Some(_) => {}
            }
        }
        for h in &other.hash_containers {
            changed |= self.hash_containers.insert(h.clone());
        }
        changed
    }
}

/// Methods whose call on a hash container yields hash-ordered values.
const HASH_ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// Identifiers that can appear in patterns but are never variables.
const PATTERN_NOISE: [&str; 9] = [
    "mut", "ref", "box", "self", "Some", "Ok", "Err", "None", "_",
];

/// The analysis context for one function body.
struct FnCtx<'a> {
    file: &'a WsFile,
    /// Call sites in this body, for summary lookup by (name, line).
    calls: Vec<Call>,
    node: Node,
}

impl<'a> FnCtx<'a> {
    fn text(&self, tok: usize) -> &'a str {
        self.file.tokens[tok].text(&self.file.src)
    }

    fn line(&self, tok: usize) -> usize {
        self.file.tokens[tok].line
    }

    fn is_ident(&self, tok: usize) -> bool {
        matches!(
            self.file.tokens[tok].kind,
            TokKind::Ident | TokKind::RawIdent
        )
    }

    /// Does `toks[i..]` start the given text sequence?
    fn seq_at(&self, toks: &[usize], i: usize, pat: &[&str]) -> bool {
        toks.len() >= i + pat.len() && (0..pat.len()).all(|j| self.text(toks[i + j]) == pat[j])
    }

    /// A direct nondeterminism source inside an expression: the first
    /// read pattern of the hazard table.
    fn direct_source(&self, toks: &[usize]) -> Option<Taint> {
        for i in 0..toks.len() {
            let Some(&(rule, desc, _, _)) = HAZARDS
                .iter()
                .find(|&&(_, _, pattern, reads)| reads && self.seq_at(toks, i, pattern))
            else {
                continue;
            };
            let origin = rule.id();
            let line = self.line(toks[i]);
            return Some(Taint {
                origin,
                desc: desc.to_string(),
                line,
                chain: vec![format!(
                    "{}:{line}: {origin} source `{desc}`",
                    self.file.path
                )],
            });
        }
        None
    }

    /// Does the expression construct a hash container?
    fn constructs_hash_container(&self, toks: &[usize]) -> bool {
        (0..toks.len()).any(|i| {
            is_hash_container(self.text(toks[i]))
                && self.is_ident(toks[i])
                && self.seq_at(toks, i + 1, &[":", ":"])
        })
    }

    /// The taint carried by an expression, if any: a direct source, a
    /// tainted variable read, hash-ordered iteration, or a call to a fn
    /// whose return is tainted per `summaries`.
    fn expr_taint(
        &self,
        toks: &[usize],
        facts: &Facts,
        files: &[WsFile],
        index: &CallIndex,
        summaries: &BTreeMap<Node, Taint>,
    ) -> Option<Taint> {
        let mut best: Option<Taint> = None;
        let mut consider = |t: Taint| {
            if best
                .as_ref()
                .is_none_or(|b| (t.line, &t.desc) < (b.line, &b.desc))
            {
                best = Some(t);
            }
        };
        if let Some(t) = self.direct_source(toks) {
            consider(t);
        }
        // A format string reads the identifiers it captures inline. The
        // expression's tokens are code tokens only, so its string literals
        // are the ones lexed between its first and last token.
        if let (Some(&lo), Some(&hi)) = (toks.first(), toks.last()) {
            for tok in &self.file.tokens[lo..=hi] {
                if matches!(tok.kind, TokKind::Str | TokKind::RawStr) {
                    for name in inline_captures(tok.text(&self.file.src)) {
                        if let Some(t) = facts.vars.get(name) {
                            consider(t.clone());
                        }
                    }
                }
            }
        }
        for i in 0..toks.len() {
            if !self.is_ident(toks[i]) {
                continue;
            }
            let name = self.text(toks[i]);
            let after_dot = i > 0 && self.text(toks[i - 1]) == ".";
            let is_call = toks.get(i + 1).is_some_and(|&n| self.text(n) == "(");
            // Hash-ordered iteration: `container.iter()` etc.
            if !after_dot && facts.hash_containers.contains(name) {
                let iterated = self.seq_at(toks, i + 1, &["."])
                    && toks
                        .get(i + 2)
                        .is_some_and(|&m| HASH_ITER_METHODS.contains(&self.text(m)));
                if iterated {
                    let line = self.line(toks[i]);
                    consider(Taint {
                        origin: "hash-order",
                        desc: format!("hash-ordered iteration of `{name}`"),
                        line,
                        chain: vec![format!(
                            "{}:{line}: hash-ordered iteration of `{name}`",
                            self.file.path
                        )],
                    });
                }
                continue;
            }
            // Tainted variable read.
            if !after_dot && !is_call {
                if let Some(t) = facts.vars.get(name) {
                    consider(t.clone());
                }
            }
            // Call to a fn whose return value is tainted.
            if is_call && !summaries.is_empty() {
                let line = self.line(toks[i]);
                if let Some(call) = self.calls.iter().find(|c| c.line == line && c.name == name) {
                    for target in index.resolve(call, self.node, files) {
                        if let Some(t) = summaries.get(&target) {
                            consider(t.hop(format!(
                                "{}:{line}: via call to `{name}` (returns tainted value)",
                                self.file.path
                            )));
                        }
                    }
                }
            }
        }
        best
    }

    /// Variable names bound by a pattern (`(a, b)`, `Some(x)`; path
    /// segments like `E::V` skipped; stops at a `:` type ascription).
    fn pattern_vars(&self, pattern: &[usize]) -> Vec<String> {
        let mut out = Vec::new();
        for (j, &p) in pattern.iter().enumerate() {
            if !self.is_ident(p) {
                continue;
            }
            let name = self.text(p);
            if PATTERN_NOISE.contains(&name)
                || !name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_')
            {
                continue;
            }
            // Skip enum/struct path segments: the `b` of `a::b`.
            if j > 0 && self.text(pattern[j - 1]) == ":" {
                continue;
            }
            out.push(name.to_string());
            // `name:` starts a type ascription — stop collecting there.
            if pattern.get(j + 1).is_some_and(|&n| self.text(n) == ":")
                && pattern.get(j + 2).is_none_or(|&n| self.text(n) != ":")
            {
                break;
            }
        }
        out
    }
}

/// The identifiers a string literal would capture inline as a format
/// string: the argument of each `{v}`, `{v:?}` or `{v:>8}`, skipping the
/// escaped `{{` and positional or empty arguments.
fn inline_captures(lit: &str) -> impl Iterator<Item = &str> {
    let mut rest = lit;
    std::iter::from_fn(move || loop {
        let open = rest.find('{')?;
        rest = &rest[open + 1..];
        if let Some(after) = rest.strip_prefix('{') {
            rest = after;
            continue;
        }
        let end = rest.find(['}', ':']).unwrap_or(rest.len());
        let arg = &rest[..end];
        rest = &rest[end..];
        let ident = arg
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
            && arg.chars().all(|c| c.is_alphanumeric() || c == '_');
        if ident {
            return Some(arg);
        }
    })
}

/// An assignment parsed out of one straight-code step.
struct Assign {
    /// Bound names (strong update unless `compound`).
    lhs: Vec<String>,
    /// Right-hand-side token indices.
    rhs: Vec<usize>,
    /// `+=`-style: the old value survives, taint joins instead of kills.
    compound: bool,
    line: usize,
}

/// Split `toks` into an assignment, if it is one.
fn parse_assign(ctx: &FnCtx, toks: &[usize]) -> Option<Assign> {
    let texts: Vec<&str> = toks.iter().map(|&t| ctx.text(t)).collect();
    if texts.first() == Some(&"let") {
        // `let <pattern>[: ty] = rhs`
        let mut depth = 0usize;
        for i in 1..toks.len() {
            match texts[i] {
                "(" | "[" | "{" | "<" => depth += 1,
                ")" | "]" | "}" | ">" => depth = depth.saturating_sub(1),
                "=" if depth == 0 && texts.get(i + 1) != Some(&"=") => {
                    // The pattern ends at a top-level `:` (type ascription)
                    // when one precedes the `=`.
                    let pat_end = (1..i)
                        .find(|&j| {
                            texts[j] == ":"
                                && texts.get(j + 1) != Some(&":")
                                && (j == 1 || texts[j - 1] != ":")
                        })
                        .unwrap_or(i);
                    let lhs = ctx.pattern_vars(&toks[1..pat_end]);
                    return Some(Assign {
                        lhs,
                        rhs: toks[i + 1..].to_vec(),
                        compound: false,
                        line: ctx.line(toks[0]),
                    });
                }
                _ => {}
            }
        }
        return None;
    }
    // `x = rhs`, `x += rhs`: single-ident lhs only (fields not tracked).
    if toks.len() >= 3 && ctx.is_ident(toks[0]) {
        if texts[1] == "=" && texts.get(2) != Some(&"=") {
            return Some(Assign {
                lhs: vec![texts[0].to_string()],
                rhs: toks[2..].to_vec(),
                compound: false,
                line: ctx.line(toks[0]),
            });
        }
        if matches!(texts[1], "+" | "-" | "*" | "/" | "%" | "&" | "|" | "^")
            && texts.get(2) == Some(&"=")
        {
            return Some(Assign {
                lhs: vec![texts[0].to_string()],
                rhs: toks[3..].to_vec(),
                compound: true,
                line: ctx.line(toks[0]),
            });
        }
    }
    None
}

/// Sinks in one step: `(what, via, line, argument tokens)`.
fn sinks_in(ctx: &FnCtx, toks: &[usize]) -> Vec<(&'static str, &'static str, usize, Vec<usize>)> {
    let texts: Vec<&str> = toks.iter().map(|&t| ctx.text(t)).collect();
    let mut out = Vec::new();
    for i in 0..toks.len() {
        // Every argument of a sink call is rendered or digested.
        for (name, what, via) in [
            ("push_row", "a rendered table cell", "push_row(…)"),
            ("fnv1a64", "an FNV digest", "fnv1a64(…)"),
            ("fnv1a_fmt", "an FNV digest", "fnv1a_fmt(…)"),
        ] {
            if texts[i] == name && ctx.is_ident(toks[i]) && texts.get(i + 1) == Some(&"(") {
                let mut depth = 1usize;
                let mut args = Vec::new();
                for j in i + 2..toks.len() {
                    match texts[j] {
                        "(" | "[" => depth += 1,
                        ")" | "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    args.push(toks[j]);
                }
                out.push((what, via, ctx.line(toks[i]), args));
            }
        }
    }
    out
}

/// Apply one step's effect to `facts`; when `sink_findings` is set, also
/// check sinks (against the facts *before* the step's assignment) and
/// record return-value taint for steps listed in `return_steps`.
#[allow(clippy::too_many_arguments)]
fn apply_step(
    ctx: &FnCtx,
    step: &Step,
    facts: &mut Facts,
    files: &[WsFile],
    index: &CallIndex,
    summaries: &BTreeMap<Node, Taint>,
    return_steps: &BTreeSet<usize>,
    mut sink_findings: Option<&mut Vec<LintFinding>>,
    ret_taint: &mut Option<Taint>,
) {
    match step {
        Step::Bind { pattern, source } => {
            let mut taint = ctx.expr_taint(source, facts, files, index, summaries);
            // Iterating a hash container directly (`for k in map`) is
            // hash-ordered even without an explicit `.iter()`.
            if taint.is_none() {
                if let Some(&h) = source
                    .iter()
                    .find(|&&t| ctx.is_ident(t) && facts.hash_containers.contains(ctx.text(t)))
                {
                    let name = ctx.text(h);
                    let line = ctx.line(h);
                    taint = Some(Taint {
                        origin: "hash-order",
                        desc: format!("hash-ordered iteration of `{name}`"),
                        line,
                        chain: vec![format!(
                            "{}:{line}: hash-ordered iteration of `{name}`",
                            ctx.file.path
                        )],
                    });
                }
            }
            if let Some(t) = taint {
                for v in ctx.pattern_vars(pattern) {
                    let hop = t.hop(format!(
                        "{}:{}: bound to `{v}`",
                        ctx.file.path,
                        pattern.first().map_or(t.line, |&p| ctx.line(p))
                    ));
                    facts.vars.insert(v, hop);
                }
            } else {
                for v in ctx.pattern_vars(pattern) {
                    facts.vars.remove(&v);
                }
            }
        }
        Step::Code(toks) => {
            // Sinks see the facts *before* this statement's assignment.
            if let Some(findings) = sink_findings.as_mut() {
                for (what, via, line, args) in sinks_in(ctx, toks) {
                    if let Some(t) = ctx.expr_taint(&args, facts, files, index, summaries) {
                        if !ctx.file.items.waived(Rule::NondetTaint.id(), line) {
                            let mut chain = t.chain.clone();
                            chain.push(format!("{}:{line}: sink {via}", ctx.file.path));
                            findings.push(LintFinding {
                                rule: Rule::NondetTaint,
                                path: ctx.file.path.clone(),
                                line,
                                message: format!(
                                    "nondeterministic value ({} from line {}) reaches {what} via {via}; chain: {}",
                                    t.desc,
                                    t.line,
                                    chain.join(" -> "),
                                ),
                                chain,
                            });
                        }
                    }
                }
            }
            // Return-value taint for the interprocedural summary.
            if let Some(&first) = toks.first() {
                if return_steps.contains(&first) {
                    if let Some(t) = ctx.expr_taint(toks, facts, files, index, summaries) {
                        if ret_taint
                            .as_ref()
                            .is_none_or(|r| (t.line, &t.desc) < (r.line, &r.desc))
                        {
                            *ret_taint = Some(t);
                        }
                    }
                }
            }
            // Sanitizer: sorting makes hash-ordered data deterministic.
            for i in 0..toks.len() {
                if ctx.is_ident(toks[i])
                    && ctx.seq_at(toks, i + 1, &["."])
                    && toks
                        .get(i + 2)
                        .is_some_and(|&m| ctx.text(m).starts_with("sort"))
                {
                    let name = ctx.text(toks[i]).to_string();
                    if facts
                        .vars
                        .get(&name)
                        .is_some_and(|t| t.origin == "hash-order")
                    {
                        facts.vars.remove(&name);
                    }
                }
            }
            if let Some(a) = parse_assign(ctx, toks) {
                if ctx.constructs_hash_container(&a.rhs) {
                    for v in a.lhs {
                        facts.vars.remove(&v);
                        facts.hash_containers.insert(v);
                    }
                    return;
                }
                let taint = ctx.expr_taint(&a.rhs, facts, files, index, summaries);
                for v in a.lhs {
                    match (&taint, a.compound) {
                        (Some(t), _) => {
                            let hop =
                                t.hop(format!("{}:{}: assigned to `{v}`", ctx.file.path, a.line));
                            let keep_current = a.compound
                                && facts.vars.get(&v).is_some_and(|cur| {
                                    (cur.line, &cur.desc) <= (hop.line, &hop.desc)
                                });
                            if !keep_current {
                                facts.vars.insert(v, hop);
                            }
                        }
                        (None, false) => {
                            facts.vars.remove(&v);
                            facts.hash_containers.remove(&v);
                        }
                        (None, true) => {}
                    }
                }
            }
        }
    }
}

/// Analyze one function: fixpoint its facts, optionally collect sink
/// findings, and return its return value's taint (for summaries).
fn analyze_fn(
    files: &[WsFile],
    node: Node,
    index: &CallIndex,
    summaries: &BTreeMap<Node, Taint>,
    findings: Option<&mut Vec<LintFinding>>,
) -> Option<Taint> {
    let file = &files[node.0];
    let f = &file.items.fns[node.1];
    let cfg = cfg::build(
        &file.src,
        &file.tokens,
        f.body_tokens.clone(),
        LoopShape::Natural,
    );
    let ctx = FnCtx {
        file,
        calls: body_calls(&file.src, &file.tokens, f.body_tokens.clone()),
        node,
    };
    let mut sink_scratch = None;
    let inputs = solve(&cfg, Facts::default(), Facts::default(), |b, i| {
        let mut facts = i.clone();
        for step in &cfg.blocks[b].steps {
            apply_step(
                &ctx,
                step,
                &mut facts,
                files,
                index,
                summaries,
                &cfg.return_steps,
                None,
                &mut sink_scratch,
            );
        }
        facts
    });

    // Replay each block once with its solved input: collect sinks and the
    // return taint.
    let mut ret: Option<Taint> = None;
    let mut sink_acc = Vec::new();
    let want_findings = findings.is_some();
    for (b, input) in inputs.iter().enumerate() {
        let mut facts = input.clone();
        for step in &cfg.blocks[b].steps {
            apply_step(
                &ctx,
                step,
                &mut facts,
                files,
                index,
                summaries,
                &cfg.return_steps,
                want_findings.then_some(&mut sink_acc),
                &mut ret,
            );
        }
    }
    if let Some(out) = findings {
        out.extend(sink_acc);
    }
    ret
}

/// Run the taint analysis over `files` (pass a single-file slice for the
/// per-file entry point, the whole workspace for `dessan-lint`).
pub fn findings(files: &[WsFile]) -> Vec<LintFinding> {
    let index = CallIndex::build(files);
    let mut nodes: Vec<Node> = Vec::new();
    let mut summaries: BTreeMap<Node, Taint> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.items.fns.iter().enumerate() {
            if f.in_test || f.body_tokens.is_empty() {
                continue;
            }
            nodes.push((fi, gi));
            if f.taint_source {
                summaries.insert(
                    (fi, gi),
                    Taint {
                        origin: "taint-source",
                        desc: format!("`{}` (dessan::taint-source)", f.name),
                        line: f.sig_line,
                        chain: vec![format!(
                            "{}:{}: marked taint source `{}`",
                            file.path, f.sig_line, f.name
                        )],
                    },
                );
            }
        }
    }

    // Interprocedural fixpoint: summaries only grow, so this terminates;
    // 10 rounds bounds pathological call-chain depth.
    for _ in 0..10 {
        let mut changed = false;
        for &node in &nodes {
            if summaries.contains_key(&node) {
                continue;
            }
            if let Some(t) = analyze_fn(files, node, &index, &summaries, None) {
                let f = &files[node.0].items.fns[node.1];
                summaries.insert(
                    node,
                    t.hop(format!(
                        "{}:{}: returned from `{}`",
                        files[node.0].path, f.sig_line, f.name
                    )),
                );
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    for &node in &nodes {
        analyze_fn(files, node, &index, &summaries, Some(&mut out));
    }
    // One finding per (path, line, message); loops can replay a sink.
    out.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::ws_file;

    fn taint_findings(src: &str) -> Vec<LintFinding> {
        let file = ws_file("crates/simtime/src/fake.rs", src);
        findings(std::slice::from_ref(&file))
    }

    #[test]
    fn wall_clock_to_cache_key_digest_is_flagged() {
        let src = "\
fn f() -> u64 {
    let t = Instant::now().elapsed().as_nanos() as u64;
    fnv1a64(&t.to_le_bytes())
}
";
        let f = taint_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::NondetTaint);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("Instant::now"));
        assert!(f[0].chain.len() >= 3, "{:?}", f[0].chain);
    }

    #[test]
    fn taint_propagates_through_reassignment_chains() {
        let src = "\
fn f(rows: &mut T) {
    let a = rand::random::<u64>();
    let b = a + 1;
    let c = b * 2;
    rows.push_row(c);
}
";
        let f = taint_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("rand::random"));
    }

    #[test]
    fn reassignment_kills_taint() {
        let src = "\
fn f(rows: &mut T) {
    let mut a = rand::random::<u64>();
    a = 7;
    rows.push_row(a);
}
";
        assert!(taint_findings(src).is_empty());
    }

    #[test]
    fn compound_assignment_joins_instead_of_killing() {
        let src = "\
fn f(rows: &mut T) {
    let mut a = 0u64;
    a += rand::random::<u64>();
    rows.push_row(a);
}
";
        assert_eq!(taint_findings(src).len(), 1);
    }

    #[test]
    fn branch_taint_survives_the_join() {
        let src = "\
fn f(rows: &mut T, c: bool) {
    let mut t = 0u64;
    if c {
        t = Instant::now().elapsed().as_nanos() as u64;
    }
    rows.push_row(t);
}
";
        assert_eq!(taint_findings(src).len(), 1);
    }

    #[test]
    fn loop_carried_taint_reaches_a_sink_scheduled_before_the_source() {
        // The sink textually precedes the source; only the loop's back
        // edge carries the taint to it.
        let src = "\
fn f(rows: &mut T) {
    let mut t = 0u64;
    loop {
        rows.push_row(t);
        t = Instant::now().elapsed().as_nanos() as u64;
    }
}
";
        let f = taint_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn hash_iteration_taints_and_sort_sanitizes() {
        let tainted = "\
fn f(rows: &mut T) {
    let m = HashMap::new();
    for k in m.keys() {
        rows.push_row(k);
    }
}
";
        assert_eq!(taint_findings(tainted).len(), 1);
        let sorted = "\
fn f(rows: &mut T) {
    let m = HashMap::new();
    let mut ks = m.keys().collect::<Vec<_>>();
    ks.sort();
    rows.push_row(ks);
}
";
        assert!(taint_findings(sorted).is_empty());
    }

    #[test]
    fn fnv_digest_of_env_value_is_flagged() {
        let src = "\
fn f() -> u64 {
    let v = std::env::var(\"X\").ok();
    fnv1a_fmt(format_args!(\"{:?}\", v))
}
";
        let f = taint_findings(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("FNV digest"));
    }

    #[test]
    fn fnv_digest_of_inline_captured_env_value_is_flagged() {
        let src = "\
fn f() -> u64 {
    let v = std::env::var(\"X\").ok();
    fnv1a_fmt(format_args!(\"{v:?}\"))
}
";
        let f = taint_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("FNV digest"));
        // An escaped brace captures nothing.
        let escaped = src.replace("{v:?}", "{{v:?}}");
        assert!(taint_findings(&escaped).is_empty());
    }

    #[test]
    fn inline_captures_skip_escapes_and_positional_arguments() {
        let got: Vec<&str> = inline_captures("{a} {{b}} {c:?} {} {0} {_d:>8} {e.f} }}").collect();
        assert_eq!(got, ["a", "c", "_d"]);
    }

    #[test]
    fn marked_taint_source_flows_through_calls() {
        let src = "\
// dessan::taint-source
fn platform_entropy() -> u64 {
    0
}
fn g(rows: &mut T) {
    let t = platform_entropy();
    rows.push_row(t);
}
";
        let f = taint_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("platform_entropy"));
    }

    #[test]
    fn interprocedural_return_taint_flows_to_caller_sink() {
        let src = "\
fn read_clock() -> u64 {
    let t = Instant::now().elapsed().as_nanos() as u64;
    t
}
fn g(rows: &mut T) {
    let when = read_clock();
    rows.push_row(when);
}
";
        let f = taint_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].chain.iter().any(|h| h.contains("read_clock")));
    }

    #[test]
    fn sink_waiver_suppresses_the_finding() {
        let src = "\
fn f(rows: &mut T) {
    let t = Instant::now().elapsed().as_nanos() as u64;
    // dessan::allow(nondet-taint): native backend reports real time by design.
    rows.push_row(t);
}
";
        assert!(taint_findings(src).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "\
#[cfg(test)]
mod tests {
    fn f(rows: &mut T) {
        let t = Instant::now().elapsed().as_nanos() as u64;
        rows.push_row(t);
    }
}
";
        assert!(taint_findings(src).is_empty());
    }
}
