//! A workspace-wide, heuristically name-resolved call graph: the call
//! and allocation scanners plus the name index that the effect summaries
//! ([`crate::effects`]) resolve over.
//!
//! Resolution is deliberately conservative — the goal is a useful gate
//! with near-zero false positives, not a compiler:
//!
//! * `self.m(...)` resolves within the caller's own impl (same file
//!   first, then same-named impls elsewhere).
//! * `Type::f(...)` (including `Self::f`) resolves to fns in `impl Type`
//!   blocks anywhere in the workspace.
//! * bare `f(...)` resolves to free functions: same file, then same
//!   crate, then a workspace-unique name.
//! * `expr.m(...)` with an unknown receiver resolves only when exactly
//!   one workspace fn bears the name and the name is not a common std
//!   method (`push`, `get`, `iter`, ...).
//!
//! Unresolved calls produce no edge. Edges are cut by a
//! `// doebench::cold-call` marker at the call site and never enter
//! `#[cold]` or test functions.

use std::collections::BTreeMap;

use crate::items::FileItems;
use crate::lex::{TokKind, Token};
use crate::lint::crate_of;

/// One allocation site inside a function body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Alloc {
    /// The offending token, as findings spell it.
    pub token: &'static str,
    /// 1-based line.
    pub line: usize,
}

/// How a call site names its callee.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recv {
    /// `f(...)`
    Bare,
    /// `self.f(...)`
    SelfDot,
    /// `expr.f(...)` with any other receiver.
    OtherDot,
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    /// Callee name as written.
    pub name: String,
    /// `Type` of a `Type::name(...)` path call (`Self` not yet resolved).
    pub qual: Option<String>,
    /// Receiver shape.
    pub recv: Recv,
    /// 1-based line of the callee name.
    pub line: usize,
}

/// Common std/core method names that the unique-name fallback must never
/// resolve to a workspace fn: `q.push(x)` is a Vec, not our `push`.
const STD_METHODS: [&str; 64] = [
    "abs",
    "all",
    "and_then",
    "any",
    "as_mut",
    "as_ref",
    "as_str",
    "borrow",
    "borrow_mut",
    "ceil",
    "chain",
    "clear",
    "clone",
    "clone_from",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "find",
    "first",
    "floor",
    "fold",
    "for_each",
    "fract",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "map",
    "max",
    "min",
    "next",
    "parse",
    "pop",
    "position",
    "powf",
    "powi",
    "push",
    "remove",
    "resize",
    "rev",
    "round",
    "skip",
    "sort",
    "split",
    "sqrt",
    "sum",
    "take",
    "to_vec",
    "zip",
];

/// Path qualifiers that name std/core modules: `mem::swap(..)` must not
/// resolve to a workspace fn that happens to be called `swap`.
const STD_MODULES: [&str; 22] = [
    "std",
    "core",
    "alloc",
    "mem",
    "ptr",
    "slice",
    "str",
    "cmp",
    "fmt",
    "iter",
    "process",
    "thread",
    "fs",
    "io",
    "env",
    "time",
    "collections",
    "hint",
    "f32",
    "f64",
    "char",
    "array",
];

/// Keywords and constructors that look like `name(...)` but are not calls
/// worth an edge.
const NON_CALLEES: [&str; 36] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "let", "fn",
    "impl", "mod", "use", "pub", "struct", "enum", "trait", "type", "const", "static", "unsafe",
    "move", "ref", "mut", "in", "as", "where", "dyn", "extern", "Some", "Ok", "Err", "None",
    "true", "false",
];

/// Scan a body's token range for per-call allocation sites. The token
/// spellings match the direct `hot-path-alloc` rule's vocabulary.
pub fn body_allocs(src: &str, tokens: &[Token], range: std::ops::Range<usize>) -> Vec<Alloc> {
    let code: Vec<usize> = range.filter(|&i| tokens[i].kind.is_code()).collect();
    let tk = |k: usize| -> (&TokKind, &str) { (&tokens[code[k]].kind, tokens[code[k]].text(src)) };
    let mut out = Vec::new();
    for k in 0..code.len() {
        let (kind, txt) = tk(k);
        let line = tokens[code[k]].line;
        match (kind, txt) {
            (TokKind::Ident, "Box")
                if k + 3 < code.len()
                    && tk(k + 1).1 == ":"
                    && tk(k + 2).1 == ":"
                    && tk(k + 3).1 == "new" =>
            {
                out.push(Alloc {
                    token: "Box::new",
                    line,
                });
            }
            (TokKind::Ident, "vec") if k + 1 < code.len() && tk(k + 1).1 == "!" => {
                out.push(Alloc {
                    token: "vec!",
                    line,
                });
            }
            (TokKind::Ident, "format") if k + 1 < code.len() && tk(k + 1).1 == "!" => {
                out.push(Alloc {
                    token: "format!",
                    line,
                });
            }
            (TokKind::Punct, ".") if k + 3 < code.len() && tk(k + 2).1 == "(" => {
                let (nk, name) = tk(k + 1);
                if *nk == TokKind::Ident && tk(k + 3).1 == ")" {
                    let token = match name {
                        "to_string" => Some(".to_string()"),
                        "to_owned" => Some(".to_owned()"),
                        "clone" => Some(".clone()"),
                        _ => None,
                    };
                    if let Some(token) = token {
                        out.push(Alloc { token, line });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Scan a body's token range for call sites.
pub fn body_calls(src: &str, tokens: &[Token], range: std::ops::Range<usize>) -> Vec<Call> {
    let code: Vec<usize> = range.filter(|&i| tokens[i].kind.is_code()).collect();
    let txt = |k: usize| tokens[code[k]].text(src);
    let kind = |k: usize| tokens[code[k]].kind;
    let mut out = Vec::new();
    for k in 0..code.len() {
        if !matches!(kind(k), TokKind::Ident | TokKind::RawIdent) {
            continue;
        }
        let name = txt(k).strip_prefix("r#").unwrap_or(txt(k));
        if NON_CALLEES.contains(&name) {
            continue;
        }
        // Callee names are directly followed by `(`; a following `!` is a
        // macro, a following `::` a longer path (its last segment will be
        // visited in its own turn).
        if k + 1 >= code.len() || txt(k + 1) != "(" {
            continue;
        }
        let (recv, qual) = if k >= 1 && txt(k - 1) == "." {
            if k >= 2 && kind(k - 2) == TokKind::Ident && txt(k - 2) == "self" {
                (Recv::SelfDot, None)
            } else {
                (Recv::OtherDot, None)
            }
        } else if k >= 2 && txt(k - 1) == ":" && txt(k - 2) == ":" {
            let qual =
                (k >= 3 && matches!(kind(k - 3), TokKind::Ident | TokKind::RawIdent)).then(|| {
                    txt(k - 3)
                        .strip_prefix("r#")
                        .unwrap_or(txt(k - 3))
                        .to_string()
                });
            (Recv::Bare, qual)
        } else {
            (Recv::Bare, None)
        };
        out.push(Call {
            name: name.to_string(),
            qual,
            recv,
            line: tokens[code[k]].line,
        });
    }
    out
}

/// One analyzed file of the workspace.
pub struct WsFile {
    /// Workspace-relative path (`crates/<crate>/src/...`).
    pub path: String,
    /// Source text.
    pub src: String,
    /// Its token stream.
    pub tokens: Vec<Token>,
    /// Its parsed items.
    pub items: FileItems,
}

/// `(file index, fn index)` node id.
pub type Node = (usize, usize);

/// Name indices over a workspace's non-test, non-cold fns with bodies —
/// the resolution substrate for the effect summaries and the lock-order
/// analysis. Deliberately under-approximate:
/// a call that cannot be resolved confidently resolves to nothing.
pub struct CallIndex<'a> {
    by_name: BTreeMap<&'a str, Vec<Node>>,
    by_qual: BTreeMap<(&'a str, &'a str), Vec<Node>>,
}

impl<'a> CallIndex<'a> {
    /// Index every candidate callee in `files`.
    pub fn build(files: &'a [WsFile]) -> Self {
        let mut by_name: BTreeMap<&str, Vec<Node>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(&str, &str), Vec<Node>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.items.fns.iter().enumerate() {
                if f.in_test || f.cold || f.body_tokens.is_empty() {
                    continue;
                }
                by_name.entry(&f.name).or_default().push((fi, gi));
                if let Some(q) = &f.qual {
                    by_qual.entry((q, &f.name)).or_default().push((fi, gi));
                }
            }
        }
        CallIndex { by_name, by_qual }
    }

    /// Resolve one call site to candidate workspace fns (possibly empty).
    pub fn resolve(&self, call: &Call, caller: Node, files: &[WsFile]) -> Vec<Node> {
        let caller_fn = &files[caller.0].items.fns[caller.1];
        let name = call.name.as_str();
        let named = || self.by_name.get(name).cloned().unwrap_or_default();
        // Free fns bearing the name: the caller's own file first (bare
        // calls only), then its crate, then a workspace-unique fn unless
        // the name is a common std method.
        let free = |same_file_first: bool| -> Vec<Node> {
            let free: Vec<Node> = named()
                .into_iter()
                .filter(|&(fi, gi)| files[fi].items.fns[gi].qual.is_none())
                .collect();
            let pick = |keep: &dyn Fn(Node) -> bool| -> Vec<Node> {
                free.iter().copied().filter(|&n| keep(n)).collect()
            };
            if same_file_first {
                let same_file = pick(&|n| n.0 == caller.0);
                if !same_file.is_empty() {
                    return same_file;
                }
            }
            let same_crate =
                pick(&|n| crate_of(&files[n.0].path) == crate_of(&files[caller.0].path));
            if !same_crate.is_empty() {
                return same_crate;
            }
            if free.len() == 1 && !STD_METHODS.contains(&name) {
                return free;
            }
            Vec::new()
        };
        let typed = |q: &str| self.by_qual.get(&(q, name)).cloned().unwrap_or_default();
        match (&call.qual, call.recv) {
            (Some(q), _) => {
                let q = if q == "Self" {
                    match &caller_fn.qual {
                        Some(t) => t.as_str(),
                        None => return Vec::new(),
                    }
                } else {
                    q.as_str()
                };
                let typed = typed(q);
                if !typed.is_empty() {
                    return typed;
                }
                // A module-style path (`helpers::grow(...)`): fall back to
                // free fns, unless the qualifier is a std module (then the
                // callee lives outside the workspace).
                if STD_MODULES.contains(&q) {
                    return Vec::new();
                }
                free(false)
            }
            (None, Recv::SelfDot) => {
                let Some(q) = &caller_fn.qual else {
                    return Vec::new();
                };
                let all = typed(q);
                let same_file: Vec<Node> =
                    all.iter().copied().filter(|n| n.0 == caller.0).collect();
                if same_file.is_empty() {
                    all
                } else {
                    same_file
                }
            }
            (None, Recv::Bare) => free(true),
            (None, Recv::OtherDot) => {
                let all = named();
                if all.len() == 1 && !STD_METHODS.contains(&name) {
                    all
                } else {
                    Vec::new()
                }
            }
        }
    }
}

/// Build a [`WsFile`] from a path and source text.
pub fn ws_file(path: &str, src: &str) -> WsFile {
    let (tokens, items) = crate::items::parse_source(src);
    WsFile {
        path: path.to_string(),
        src: src.to_string(),
        tokens,
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::{hot_alloc_findings, summaries};
    use crate::lint::{LintFinding, Rule};

    fn single(path: &str, src: &str) -> Vec<LintFinding> {
        let files = [ws_file(path, src)];
        hot_alloc_findings(&files, &summaries(&files))
    }

    #[test]
    fn allocs_detected_with_clone_from_exempt() {
        let src = "fn f() {\n    let a = x.clone();\n    b.clone_from(&x);\n    let v = vec![1];\n    let s = format!(\"x\");\n    let bx = Box::new(1);\n    let t = y.to_string();\n}\n";
        let (tokens, items) = crate::items::parse_source(src);
        let allocs = body_allocs(src, &tokens, items.fns[0].body_tokens.clone());
        let toks: Vec<_> = allocs.iter().map(|a| a.token).collect();
        assert_eq!(
            toks,
            vec![".clone()", "vec!", "format!", "Box::new", ".to_string()"]
        );
    }

    #[test]
    fn two_level_transitive_alloc_is_caught() {
        let src = "\
// doebench::hot
fn pump() {
    step();
}
fn step() {
    grow();
}
fn grow() {
    let v = vec![0u8; 64];
    let _ = v;
}
";
        // The call-graph walk reaches the allocation two levels down.
        let f = single("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::HotPathAlloc);
        assert_eq!(f[0].line, 3);
        assert!(
            f[0].message.contains("pump -> step -> grow"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn cold_call_marker_cuts_the_edge() {
        let src = "\
// doebench::hot
fn pump() {
    // doebench::cold-call
    slow_path();
}
fn slow_path() {
    let v = vec![0u8; 64];
    let _ = v;
}
";
        assert!(single("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cold_attribute_cuts_the_node() {
        let src = "\
// doebench::hot
fn pump() {
    slow_path();
}
#[cold]
fn slow_path() {
    let v = vec![0u8; 64];
    let _ = v;
}
";
        assert!(single("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn self_method_calls_resolve_within_the_impl() {
        let src = "\
struct Q;
impl Q {
    // doebench::hot
    fn pump(&mut self) {
        self.refill();
    }
    fn refill(&mut self) {
        let s = String::new();
        let owned = s.to_owned();
        let _ = owned;
    }
}
";
        let f = single("crates/x/src/lib.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("pump -> refill"), "{}", f[0].message);
    }

    #[test]
    fn qualified_calls_resolve_across_files() {
        let a = "// doebench::hot\nfn pump() {\n    Pool::acquire();\n}\n";
        let b = "struct Pool;\nimpl Pool {\n    fn acquire() {\n        let v = vec![1];\n        let _ = v;\n    }\n}\n";
        let files = [
            ws_file("crates/x/src/a.rs", a),
            ws_file("crates/y/src/b.rs", b),
        ];
        let f = hot_alloc_findings(&files, &summaries(&files));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].path, "crates/x/src/a.rs");
    }

    #[test]
    fn std_method_names_do_not_resolve_to_workspace_fns() {
        let src = "\
// doebench::hot
fn pump(q: &mut Vec<u8>) {
    q.push(1);
}
fn push() {
    let v = vec![1];
    let _ = v;
}
";
        assert!(single("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn allocs_in_test_fns_are_not_roots_or_targets() {
        let src = "\
#[cfg(test)]
mod tests {
    // doebench::hot
    fn pump() {
        grow();
    }
    fn grow() {
        let v = vec![1];
        let _ = v;
    }
}
";
        assert!(single("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn waiver_at_call_site_suppresses_finding() {
        let src = "\
// doebench::hot
fn pump() {
    // dessan::allow(hot-path-alloc): warmup only, measured region excluded.
    grow();
}
fn grow() {
    let v = vec![1];
    let _ = v;
}
";
        assert!(single("crates/x/src/lib.rs", src).is_empty());
    }
}
