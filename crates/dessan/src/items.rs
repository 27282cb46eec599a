//! Item-level parsing: functions, impl blocks, test regions, and dessan's
//! in-source markers, extracted from the token stream with line spans.
//!
//! This replaces the old per-line brace-counting latches in the lint: a
//! function's hot/test status is a property of its *span*, so one-line
//! bodies, nested closures, and `fn` keywords buried in strings or comment
//! tails cannot desynchronize the region tracking.
//!
//! Markers recognized in comments:
//!
//! * `// doebench::hot` — arms the next `fn` as a hot function (the
//!   `#[doebench::hot]` attribute spelling also works).
//! * `// doebench::cold-call` — calls on this line (or the next) are
//!   exempt from the hot-path-alloc walk.
//! * `// doebench::effects(pure)` / `// doebench::effects(no-block)` —
//!   declares an effect contract on the next `fn`, checked by the
//!   interprocedural effect-summary engine (`effect-contract` rule):
//!   `pure` forbids every observable effect except allocation,
//!   `no-block` forbids OS-level blocking (condvar waits, thread joins,
//!   channel receives, sleeps) anywhere in the fn's call closure.
//! * `// dessan::allow(<rule>): <reason>` — waives `<rule>` on this line
//!   and the next. As an inner doc comment (`//! dessan::allow(...)`) it
//!   applies to the whole file. The reason is mandatory: a waiver without
//!   one suppresses nothing. Like every marker, it must lead its comment.

use crate::lex::{lex, TokKind, Token};

/// One `fn` item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name (`r#` prefix stripped).
    pub name: String,
    /// The enclosing impl's self-type name, when inside an `impl` block.
    pub qual: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 1-based line of the body's closing brace (== `sig_line` for
    /// one-liners and bodyless declarations).
    pub end_line: usize,
    /// Token-index range of the body, braces included; empty when the
    /// declaration has no body.
    pub body_tokens: std::ops::Range<usize>,
    /// Armed by a `doebench::hot` marker.
    pub hot: bool,
    /// Carries a `#[cold]` attribute — never part of a hot path.
    pub cold: bool,
    /// Declared effect contract from a `doebench::effects(...)` marker
    /// (`"pure"` or `"no-block"`), checked by [`crate::effects`].
    pub effects: Option<String>,
    /// Inside a `#[cfg(test)]` region or itself `#[test]`/`#[cfg(test)]`.
    pub in_test: bool,
}

/// Everything the rules need to know about one file's structure.
#[derive(Debug, Default)]
pub struct FileItems {
    /// All `fn` items in source order (nested fns included).
    pub fns: Vec<FnItem>,
    /// Per-line flags (index = line − 1): inside a `#[cfg(test)]` region,
    /// attribute line included.
    pub test_lines: Vec<bool>,
    /// `(line, rule)` waivers: suppress `rule` on `line` and `line + 1`.
    pub line_allows: Vec<(usize, String)>,
    /// Rules waived file-wide by `//! dessan::allow(...)` doc comments.
    pub file_allows: Vec<String>,
    /// Per-line flags: a `doebench::cold-call` marker on this line.
    pub cold_call_lines: Vec<bool>,
}

impl FileItems {
    /// The innermost function whose span covers `line`, if any.
    pub fn fn_at_line(&self, line: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.sig_line <= line && line <= f.end_line)
            .min_by_key(|f| f.end_line - f.sig_line)
    }

    /// Is `rule` waived at `line`, either file-wide or by a waiver comment
    /// on the line itself / the line above?
    pub fn waived(&self, rule: &str, line: usize) -> bool {
        self.file_allows.iter().any(|r| r == rule)
            || self
                .line_allows
                .iter()
                .any(|(l, r)| r == rule && (*l == line || l + 1 == line))
    }

    /// Is there a `cold-call` marker on `line` or the line above it?
    pub fn cold_call_at(&self, line: usize) -> bool {
        let at = |l: usize| l >= 1 && self.cold_call_lines.get(l - 1).copied() == Some(true);
        at(line) || at(line.wrapping_sub(1))
    }
}

/// Does `comment`, stripped of its `//`/`/*` furniture, start with
/// `marker` followed by a word boundary? Distinguishes an actual marker
/// comment from prose that merely mentions one.
fn comment_leads_with(comment: &str, marker: &str) -> bool {
    let body = comment.trim_start_matches(['/', '*', '!']).trim_start();
    body.strip_prefix(marker).is_some_and(|rest| {
        !rest
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == ':' || c == '-')
    })
}

/// Parse a `doebench::effects(<contract>)` marker out of comment text.
/// Only the known contracts (`pure`, `no-block`) arm anything, so prose
/// about the marker grammar never declares a contract by accident.
fn parse_effects(comment: &str) -> Option<String> {
    let body = comment.trim_start_matches(['/', '*', '!']).trim_start();
    let rest = body.strip_prefix("doebench::effects(")?;
    let (contract, _) = rest.split_once(')')?;
    let contract = contract.trim();
    matches!(contract, "pure" | "no-block").then(|| contract.to_string())
}

/// Parse a `dessan::allow(<rule>): <reason>` waiver out of comment text.
/// The marker must lead the comment, so prose that mentions a waiver
/// waives nothing. Returns the rule only when a non-empty reason follows
/// the colon.
fn parse_allow(comment: &str) -> Option<String> {
    let body = comment.trim_start_matches(['/', '*', '!']).trim_start();
    let rest = body.strip_prefix("dessan::allow(")?;
    let (rule, tail) = rest.split_once(')')?;
    let reason = tail.strip_prefix(':')?.trim();
    if rule.trim().is_empty() || reason.is_empty() {
        return None;
    }
    Some(rule.trim().to_string())
}

/// A scope on the parser's stack: opened by `{`, closed by its `}`.
struct Scope {
    /// Index into `fns` when this brace pair is a function body.
    fn_idx: Option<usize>,
    /// Inside a `#[cfg(test)]` region (inherited by nested scopes).
    test: bool,
    /// First line of the region when this scope is a test-region *root*
    /// (its parent was not a test region): the attribute's own line.
    test_root_line: Option<usize>,
}

/// Parse `src` (with its tokens from [`lex`]) into [`FileItems`].
pub fn parse(src: &str, tokens: &[Token]) -> FileItems {
    let line_count = src.lines().count().max(1);
    let mut items = FileItems {
        test_lines: vec![false; line_count],
        cold_call_lines: vec![false; line_count],
        ..FileItems::default()
    };

    // Comment pass: markers and waivers. Only real comment tokens count,
    // so prose in string literals can never arm a marker; and a marker
    // must *lead* its comment, so prose about markers (like this module's
    // docs) never arms either.
    let mut marker_lines: Vec<usize> = Vec::new();
    let mut effects_marker_lines: Vec<(usize, String)> = Vec::new();
    for t in tokens {
        if !t.kind.is_comment() {
            continue;
        }
        let text = t.text(src);
        if comment_leads_with(text, "doebench::hot") {
            marker_lines.push(t.line);
        }
        if let Some(contract) = parse_effects(text) {
            effects_marker_lines.push((t.line, contract));
        }
        if comment_leads_with(text, "doebench::cold-call") {
            if let Some(flag) = items.cold_call_lines.get_mut(t.line - 1) {
                *flag = true;
            }
        }
        if let Some(rule) = parse_allow(text) {
            if text.starts_with("//!") || text.starts_with("/*!") {
                items.file_allows.push(rule);
            } else {
                items.line_allows.push((t.line, rule));
            }
        }
    }

    // Structural pass over code tokens.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind.is_code())
        .collect();
    let text_of = |ci: usize| tokens[code[ci]].text(src);
    let is_punct =
        |ci: usize, c: char| tokens[code[ci]].kind == TokKind::Punct && text_of(ci).starts_with(c);

    let mut stack: Vec<Scope> = Vec::new();
    // Attributes (text, first line) since the last statement boundary.
    let mut pending_attrs: Vec<(String, usize)> = Vec::new();
    // A parsed item waiting for its `{` (or a `;` that cancels it).
    enum Pending {
        Fn(usize),
        Other,
    }
    let mut pending: Option<Pending> = None;

    let mut ci = 0;
    while ci < code.len() {
        let tok = &tokens[code[ci]];
        match tok.kind {
            TokKind::Punct => match text_of(ci) {
                "#" if ci + 1 < code.len() && is_punct(ci + 1, '[') => {
                    // Outer attribute: slice the source between brackets.
                    let attr_line = tok.line;
                    let start = tok.start;
                    let mut end = tok.end;
                    let mut depth = 0i32;
                    let mut j = ci + 1;
                    while j < code.len() {
                        if is_punct(j, '[') {
                            depth += 1;
                        } else if is_punct(j, ']') {
                            depth -= 1;
                            if depth == 0 {
                                end = tokens[code[j]].end;
                                break;
                            }
                        }
                        j += 1;
                    }
                    pending_attrs.push((src[start..end].to_string(), attr_line));
                    ci = j + 1;
                    continue;
                }
                "{" => {
                    let parent_test = stack.last().is_some_and(|s| s.test);
                    let attr_test = pending_attrs
                        .iter()
                        .any(|(a, _)| a.contains("cfg(test)") || a.contains("#[test]"));
                    let attr_line = pending_attrs.first().map(|&(_, l)| l);
                    let (fn_idx, test) = match pending.take() {
                        Some(Pending::Fn(idx)) => {
                            items.fns[idx].body_tokens = code[ci]..code[ci];
                            (Some(idx), parent_test || items.fns[idx].in_test)
                        }
                        _ => (None, parent_test || attr_test),
                    };
                    let test_root_line = if test && !parent_test {
                        Some(match fn_idx {
                            Some(idx) => items.fns[idx].sig_line,
                            None => attr_line.unwrap_or(tok.line),
                        })
                    } else {
                        None
                    };
                    stack.push(Scope {
                        fn_idx,
                        test,
                        test_root_line,
                    });
                    pending_attrs.clear();
                }
                "}" => {
                    if let Some(scope) = stack.pop() {
                        let close_line = tok.line;
                        if let Some(idx) = scope.fn_idx {
                            let f = &mut items.fns[idx];
                            f.end_line = close_line;
                            f.body_tokens.end = code[ci] + 1;
                        }
                        if let Some(from) = scope.test_root_line {
                            for l in from..=close_line {
                                if let Some(flag) = items.test_lines.get_mut(l - 1) {
                                    *flag = true;
                                }
                            }
                        }
                    }
                    pending = None;
                }
                ";" => {
                    pending = None;
                    pending_attrs.clear();
                }
                _ => {}
            },
            TokKind::Ident | TokKind::RawIdent => match text_of(ci) {
                "fn" if !matches!(pending, Some(Pending::Fn(_))) => {
                    // A definition has a name right after the keyword;
                    // `fn(…)` pointer types do not.
                    let name = (ci + 1 < code.len()
                        && matches!(
                            tokens[code[ci + 1]].kind,
                            TokKind::Ident | TokKind::RawIdent
                        ))
                    .then(|| {
                        let t = text_of(ci + 1);
                        t.strip_prefix("r#").unwrap_or(t).to_string()
                    });
                    if let Some(name) = name {
                        let sig_line = tok.line;
                        let attr =
                            |needle: &str| pending_attrs.iter().any(|(a, _)| a.contains(needle));
                        let attr_test = attr("cfg(test)")
                            || pending_attrs
                                .iter()
                                .any(|(a, _)| a.trim_start_matches(['#', '[']).starts_with("test"));
                        let in_test = stack.last().is_some_and(|s| s.test) || attr_test;
                        // `#[cfg(test)]` on the fn itself flags its lines
                        // via the scope machinery above.
                        let test_attr_line = attr_test
                            .then(|| pending_attrs.first().map(|&(_, l)| l))
                            .flatten();
                        items.fns.push(FnItem {
                            name,
                            qual: None, // attributed after the pass
                            sig_line: test_attr_line.unwrap_or(sig_line).min(sig_line),
                            end_line: sig_line,
                            body_tokens: code[ci]..code[ci],
                            hot: attr("doebench::hot"),
                            cold: attr("#[cold]") || attr("[cold]"),
                            effects: None, // attributed after the pass
                            in_test,
                        });
                        pending = Some(Pending::Fn(items.fns.len() - 1));
                        pending_attrs.clear();
                        ci += 2;
                        continue;
                    }
                }
                "impl" | "mod" | "trait" | "struct" | "enum" | "union" if pending.is_none() => {
                    pending = Some(Pending::Other);
                }
                _ => {}
            },
            _ => {}
        }
        ci += 1;
    }

    // Fix up sig_line: the attribute-line clamp above may have pulled a
    // fn's start up to its `#[cfg(test)]` attribute so the attribute line
    // counts as test region; that is fine for flags but the signature line
    // itself is what rules report, so keep spans as recorded.

    attribute_impl_quals(&mut items, tokens, &code, src);

    // Marker assignment: each `doebench::hot` comment arms the first `fn`
    // at or after its line (the old "marker on the line before or on the
    // `fn` line" contract, minus its brace-latch fragility).
    marker_lines.sort_unstable();
    for m in marker_lines {
        if let Some(f) = items.fns.iter_mut().find(|f| f.sig_line >= m) {
            f.hot = true;
        }
    }
    effects_marker_lines.sort_unstable();
    for (m, contract) in effects_marker_lines {
        if let Some(f) = items.fns.iter_mut().find(|f| f.sig_line >= m) {
            f.effects = Some(contract);
        }
    }

    items
}

/// Attribute each fn's `qual` by finding the innermost `impl` block whose
/// brace span contains the fn's signature.
fn attribute_impl_quals(items: &mut FileItems, tokens: &[Token], code: &[usize], src: &str) {
    // Collect impl spans as code-index ranges with their self-type.
    let mut spans: Vec<(usize, usize, String)> = Vec::new();
    let mut stack: Vec<(usize, Option<String>)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    for (ci, &ti) in code.iter().enumerate() {
        let t = &tokens[ti];
        match (t.kind, t.text(src)) {
            (TokKind::Ident, "impl") if pending_impl.is_none() => {
                pending_impl = Some(impl_self_type(code, tokens, src, ci));
            }
            (TokKind::Punct, "{") => {
                stack.push((ci, pending_impl.take()));
            }
            (TokKind::Punct, "}") => {
                if let Some((open, Some(ty))) = stack.pop() {
                    spans.push((open, ci, ty));
                }
            }
            (TokKind::Punct, ";") => {
                pending_impl = None;
            }
            _ => {}
        }
    }
    for f in &mut items.fns {
        // The fn keyword's position in the code-index sequence.
        let fn_ci = code.partition_point(|&ti| ti < f.body_tokens.start);
        let innermost = spans
            .iter()
            .filter(|(open, close, _)| *open < fn_ci && fn_ci <= *close)
            .min_by_key(|(open, close, _)| close - open);
        f.qual = innermost.map(|(_, _, ty)| ty.clone());
    }
}

/// Heuristic self-type of an `impl` block: the first path identifier after
/// `for` when present, otherwise the first identifier outside the generic
/// parameter list.
fn impl_self_type(code: &[usize], tokens: &[Token], src: &str, impl_ci: usize) -> String {
    let mut angle = 0i32;
    let mut after_for = false;
    let mut first: Option<String> = None;
    let mut j = impl_ci + 1;
    while j < code.len() {
        let t = &tokens[code[j]];
        let txt = t.text(src);
        match (t.kind, txt) {
            (TokKind::Punct, "<") => angle += 1,
            (TokKind::Punct, ">") => angle = (angle - 1).max(0),
            (TokKind::Punct, "{") | (TokKind::Punct, ";") => break,
            (TokKind::Ident, "for") if angle == 0 => {
                after_for = true;
                first = None;
            }
            (TokKind::Ident, "where") if angle == 0 => break,
            (TokKind::Ident, name) if angle == 0 => {
                if first.is_none() {
                    first = Some(name.to_string());
                }
                if after_for {
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    first.unwrap_or_default()
}

/// Convenience: lex and parse in one call.
pub fn parse_source(src: &str) -> (Vec<Token>, FileItems) {
    let tokens = lex(src);
    let items = parse(src, &tokens);
    (tokens, items)
}

/// One named field of a struct definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructField {
    /// Field name.
    pub name: String,
    /// Type text, tokens joined by spaces (`Mutex < HashMap < … > >`).
    pub ty: String,
    /// 1-based line of the field name.
    pub line: usize,
}

/// One `struct` definition with named fields (tuple and unit structs are
/// skipped — the key-coverage and lock-order analyses only reason about
/// named fields).
#[derive(Clone, Debug)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// Concatenated text of its `#[derive(...)]` attributes (empty when
    /// none) — the key-coverage analysis checks for `Debug` here.
    pub derives: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Named fields in declaration order.
    pub fields: Vec<StructField>,
}

/// Extract every named-field `struct` definition from a token stream.
/// Purely structural (no type resolution): generics are skipped, field
/// types are recorded as their token text.
pub fn struct_defs(src: &str, tokens: &[Token]) -> Vec<StructDef> {
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| tokens[i].kind.is_code())
        .collect();
    let txt = |k: usize| tokens[code[k]].text(src);
    let is_ident = |k: usize| matches!(tokens[code[k]].kind, TokKind::Ident | TokKind::RawIdent);
    let mut out = Vec::new();
    // Attribute text accumulated since the last item boundary.
    let mut attrs = String::new();
    let mut k = 0usize;
    while k < code.len() {
        if txt(k) == "#" && k + 1 < code.len() && txt(k + 1) == "[" {
            // Slice the attribute's source text between the brackets.
            let start = tokens[code[k]].start;
            let mut depth = 0i32;
            let mut j = k + 1;
            let mut end = tokens[code[k]].end;
            while j < code.len() {
                match txt(j) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            end = tokens[code[j]].end;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            attrs.push_str(&src[start..end]);
            k = j + 1;
            continue;
        }
        if is_ident(k) && txt(k) == "struct" && k + 1 < code.len() && is_ident(k + 1) {
            let name = txt(k + 1)
                .strip_prefix("r#")
                .unwrap_or(txt(k + 1))
                .to_string();
            let line = tokens[code[k]].line;
            let derives: String = if attrs.contains("derive") {
                attrs.clone()
            } else {
                String::new()
            };
            // Scan past generics / where-clause to the body opener.
            let mut j = k + 2;
            let mut angle = 0i32;
            let mut body = None;
            while j < code.len() {
                match txt(j) {
                    "<" => angle += 1,
                    ">" => angle = (angle - 1).max(0),
                    "(" if angle == 0 => break, // tuple struct
                    ";" if angle == 0 => break, // unit struct
                    "{" if angle == 0 => {
                        body = Some(j + 1);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(mut p) = body {
                let mut fields = Vec::new();
                // Fields at depth 0 inside the body braces:
                // `[pub [(...)]] name : <ty tokens> ,`
                let mut depth = 0i32;
                while p < code.len() {
                    let t = txt(p);
                    match t {
                        "}" if depth == 0 => break,
                        "{" | "(" | "[" => {
                            depth += 1;
                            p += 1;
                            continue;
                        }
                        "}" | ")" | "]" => {
                            depth -= 1;
                            p += 1;
                            continue;
                        }
                        _ => {}
                    }
                    if depth == 0 && is_ident(p) && p + 1 < code.len() && txt(p + 1) == ":" {
                        let fname = txt(p).strip_prefix("r#").unwrap_or(txt(p)).to_string();
                        let fline = tokens[code[p]].line;
                        // Type tokens up to a `,` or `}` at depth 0
                        // (angle depth tracked separately).
                        let mut ty = Vec::new();
                        let mut q = p + 2;
                        let mut tangle = 0i32;
                        let mut tdepth = 0i32;
                        while q < code.len() {
                            let u = txt(q);
                            if tangle == 0 && tdepth == 0 && u == "," {
                                break;
                            }
                            if tdepth == 0 && u == "}" {
                                break;
                            }
                            match u {
                                "<" => tangle += 1,
                                ">" => tangle = (tangle - 1).max(0),
                                "(" | "[" | "{" => tdepth += 1,
                                ")" | "]" | "}" => tdepth -= 1,
                                _ => {}
                            }
                            ty.push(u.to_string());
                            q += 1;
                        }
                        fields.push(StructField {
                            name: fname,
                            ty: ty.join(" "),
                            line: fline,
                        });
                        p = q;
                        continue;
                    }
                    p += 1;
                }
                out.push(StructDef {
                    name,
                    derives,
                    line,
                    fields,
                });
            }
            attrs.clear();
            k = j;
            continue;
        }
        if matches!(txt(k), ";" | "{" | "}") {
            attrs.clear();
        }
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items_of(src: &str) -> FileItems {
        parse_source(src).1
    }

    #[test]
    fn fn_spans_and_names() {
        let src = "fn one() { 1 }\n\nfn two() {\n    2\n}\n";
        let it = items_of(src);
        assert_eq!(it.fns.len(), 2);
        assert_eq!(it.fns[0].name, "one");
        assert_eq!((it.fns[0].sig_line, it.fns[0].end_line), (1, 1));
        assert_eq!(it.fns[1].name, "two");
        assert_eq!((it.fns[1].sig_line, it.fns[1].end_line), (3, 5));
    }

    #[test]
    fn impl_qual_is_attributed() {
        let src = "struct S;\nimpl S {\n    fn m(&self) {}\n}\nimpl Clone for S {\n    fn clone(&self) -> S { S }\n}\nfn free() {}\n";
        let it = items_of(src);
        let m = it.fns.iter().find(|f| f.name == "m").unwrap();
        assert_eq!(m.qual.as_deref(), Some("S"));
        let c = it.fns.iter().find(|f| f.name == "clone").unwrap();
        assert_eq!(c.qual.as_deref(), Some("S"));
        let free = it.fns.iter().find(|f| f.name == "free").unwrap();
        assert_eq!(free.qual, None);
    }

    #[test]
    fn hot_marker_arms_next_fn_only() {
        let src = "// doebench::hot\nfn fast() {}\nfn slow() {}\n";
        let it = items_of(src);
        assert!(it.fns[0].hot);
        assert!(!it.fns[1].hot);
    }

    #[test]
    fn one_line_hot_fn_is_hot() {
        let src = "// doebench::hot\nfn fast() { helper() }\n";
        let it = items_of(src);
        assert_eq!(it.fns.len(), 1);
        assert!(it.fns[0].hot);
        assert_eq!((it.fns[0].sig_line, it.fns[0].end_line), (2, 2));
    }

    #[test]
    fn fn_keyword_in_string_does_not_open_an_item() {
        let src = "fn real() {\n    let s = \"fn fake() {\";\n    let _ = s;\n}\n";
        let it = items_of(src);
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].end_line, 4);
    }

    #[test]
    fn test_region_lines_cover_attr_to_close() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn g() {}\n";
        let it = items_of(src);
        assert_eq!(it.test_lines, vec![false, true, true, true, true, false]);
        assert!(it.fns.iter().find(|f| f.name == "t").unwrap().in_test);
        assert!(!it.fns.iter().find(|f| f.name == "g").unwrap().in_test);
    }

    #[test]
    fn cold_attr_and_test_attr_are_detected() {
        let src = "#[cold]\nfn rare() {}\n#[test]\nfn check() {}\n";
        let it = items_of(src);
        assert!(it.fns[0].cold);
        assert!(it.fns[1].in_test);
    }

    #[test]
    fn waivers_need_reasons() {
        assert_eq!(
            parse_allow("// dessan::allow(wall-clock): native timing"),
            Some("wall-clock".to_string())
        );
        assert_eq!(parse_allow("// dessan::allow(wall-clock):"), None);
        assert_eq!(parse_allow("// dessan::allow(wall-clock)"), None);
    }

    #[test]
    fn file_level_waiver_from_inner_doc_comment() {
        let src =
            "//! dessan::allow(unwrap-in-sim): panics are the documented contract.\nfn f() {}\n";
        let it = items_of(src);
        assert_eq!(it.file_allows, vec!["unwrap-in-sim"]);
        assert!(it.waived("unwrap-in-sim", 2));
    }

    #[test]
    fn line_waiver_covers_its_line_and_the_next() {
        let src =
            "// dessan::allow(env-read): one ambient knob, documented.\nfn f() {}\nfn g() {}\n";
        let it = items_of(src);
        assert!(it.waived("env-read", 1));
        assert!(it.waived("env-read", 2));
        assert!(!it.waived("env-read", 3));
    }

    #[test]
    fn cold_call_marker_lines() {
        let src = "fn f() {\n    // doebench::cold-call\n    helper();\n}\n";
        let it = items_of(src);
        assert!(it.cold_call_at(2));
        assert!(it.cold_call_at(3));
        assert!(!it.cold_call_at(4));
    }

    #[test]
    fn nested_fns_are_recorded() {
        let src = "fn outer() {\n    fn inner() {}\n    inner();\n}\n";
        let it = items_of(src);
        assert_eq!(it.fns.len(), 2);
        assert_eq!(it.fn_at_line(2).unwrap().name, "inner");
        assert_eq!(it.fn_at_line(3).unwrap().name, "outer");
    }

    #[test]
    fn closures_inside_hot_fns_stay_hot() {
        let src = "// doebench::hot\nfn pump(xs: &[u32]) {\n    xs.iter().for_each(|x| {\n        touch(*x);\n    });\n}\n";
        let it = items_of(src);
        // The closure is part of the hot fn's span, not an item of its own.
        assert_eq!(it.fns.len(), 1);
        assert!(it.fns[0].hot);
        assert_eq!((it.fns[0].sig_line, it.fns[0].end_line), (2, 6));
    }

    #[test]
    fn effects_marker_arms_next_fn_only() {
        let src = "// doebench::effects(pure)\nfn digest() -> u64 { 7 }\nfn other() {}\n// doebench::effects(no-block)\nfn drain() {}\n";
        let it = items_of(src);
        assert_eq!(it.fns[0].effects.as_deref(), Some("pure"));
        assert_eq!(it.fns[1].effects, None);
        assert_eq!(it.fns[2].effects.as_deref(), Some("no-block"));
    }

    #[test]
    fn effects_marker_rejects_unknown_contracts_and_prose() {
        // Unknown contract names never arm anything; neither does prose
        // that merely mentions the grammar without the exact spelling.
        let src = "// doebench::effects(fast)\nfn a() {}\n// the doebench::effects(pure) marker is documented in CONTRIBUTING\nfn b() {}\n";
        let it = items_of(src);
        assert_eq!(it.fns[0].effects, None);
        assert_eq!(it.fns[1].effects, None);
    }

    #[test]
    fn struct_defs_extract_fields_types_and_derives() {
        let src = "#[derive(Clone, Debug)]\npub struct Flight<V> {\n    state: Mutex<FlightState<V>>,\n    pub done: Condvar,\n}\nstruct Unit;\nstruct Tup(u32, u32);\n";
        let (tokens, _) = parse_source(src);
        let defs = struct_defs(src, &tokens);
        assert_eq!(defs.len(), 1, "tuple and unit structs are skipped");
        let f = &defs[0];
        assert_eq!(f.name, "Flight");
        assert!(f.derives.contains("Debug"));
        assert_eq!(f.line, 2);
        assert_eq!(f.fields.len(), 2);
        assert_eq!(f.fields[0].name, "state");
        assert!(f.fields[0].ty.contains("Mutex"));
        assert_eq!(f.fields[1].name, "done");
        assert_eq!(f.fields[1].ty, "Condvar");
        assert_eq!(f.fields[1].line, 4);
    }

    #[test]
    fn struct_defs_skip_nested_braces_and_generic_commas() {
        let src = "struct S {\n    map: HashMap<Arc<str>, Slot<V>>,\n    cb: Box<dyn Fn(u32, u32) -> u32>,\n    n: usize,\n}\n";
        let (tokens, _) = parse_source(src);
        let defs = struct_defs(src, &tokens);
        let names: Vec<&str> = defs[0].fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["map", "cb", "n"]);
        assert!(defs[0].fields[0].ty.contains("HashMap"));
        assert!(defs[0].derives.is_empty());
    }
}
