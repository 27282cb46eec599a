//! Control flow of one function body, for the lock-order must-analysis.
//!
//! dessan has no type information and no real parser, so control flow is
//! read the same way the rest of the static half works: structurally, from
//! the code tokens of one function body ([`crate::items::FnItem::body_tokens`]).
//! A small recursive-descent pass groups the tokens into a statement tree
//! (`if`/`else`, `match` arms with guards, `while`/`for`/`loop`, `return`/
//! `break`/`continue`, nested blocks), and [`walk`] runs over that tree
//! once, carrying the facts that hold on every path:
//!
//! * `if` and `match` branches meet by intersection;
//! * `return` ends its path, and so does a `break`/`continue` outside any
//!   loop;
//! * `let PAT = e else { … };` is a branch: the else block starts after
//!   `e` and must diverge, so only the bound path continues;
//! * every loop body runs exactly once — no back edge, no zero-trip
//!   bypass — and the code after the loop starts from the meet of the
//!   body's fall-through and every `break`/`continue` inside it.
//!
//! The walk's one client, the lock-order analysis ([`crate::locks`]),
//! needs the run-once loop: a guard bound inside a loop body is released
//! at the end of each iteration, which its facts do not model, so a
//! second trip would report the next iteration's acquisition as a
//! double-lock. This trades a class of false positives for a (documented)
//! class of false negatives — dessan's usual stance. A `?` is part of its
//! statement: nothing is checked on the early-error path.
//!
//! Known approximations, all deliberate: struct literals and block
//! expressions inside a statement are walked as inline blocks (no false
//! paths, some lost assignment structure); `let x = if … { a } else { b };`
//! loses the binding of `x` (the branches are still walked); nested
//! `fn`/`struct`/`impl` items inside a body are skipped entirely (they are
//! parsed as their own [`crate::items::FnItem`]s).

use std::collections::BTreeMap;
use std::ops::Range;

use crate::lex::{TokKind, Token};

/// One step of a body, in execution order. Token indices point into the
/// *file* token stream the body was parsed from.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Step<'a> {
    /// A run of plain code tokens — one statement or statement fragment.
    Code(&'a [usize]),
    /// A destructuring bind: the pattern's identifiers receive the source
    /// expression's value (`match` arm, `for pat in expr`, `if let`,
    /// `while let`).
    Bind {
        /// Pattern tokens (guard excluded).
        pattern: &'a [usize],
        /// Source expression tokens (scrutinee / iterated expression).
        source: &'a [usize],
    },
}

/// Name → value bindings that hold on every path to a point.
pub(crate) type Facts = BTreeMap<String, String>;

/// The parsed statement tree.
enum Stmt {
    Straight(Vec<usize>),
    If {
        bind: Option<Vec<usize>>,
        cond: Vec<usize>,
        then_b: Vec<Stmt>,
        else_b: Option<Vec<Stmt>>,
    },
    Match {
        scrutinee: Vec<usize>,
        arms: Vec<Arm>,
    },
    Loop {
        header: LoopHeader,
        body: Vec<Stmt>,
    },
    Return(Vec<usize>),
    /// `break` or `continue`: either leaves the once-run body for the code
    /// after the loop.
    Break,
    /// `let PAT = SRC else { … };`: the else block diverges.
    LetElse {
        pattern: Vec<usize>,
        source: Vec<usize>,
        else_b: Vec<Stmt>,
    },
    Block(Vec<Stmt>),
}

struct Arm {
    pattern: Vec<usize>,
    guard: Vec<usize>,
    body: Vec<Stmt>,
}

enum LoopHeader {
    Infinite,
    While(Vec<usize>),
    /// `while let PAT = SRC` or `for PAT in SRC`.
    Bind {
        pattern: Vec<usize>,
        source: Vec<usize>,
    },
}

/// Keywords that terminate a straight token run at depth 0.
const STMT_KEYWORDS: [&str; 8] = [
    "if", "match", "while", "for", "loop", "return", "break", "continue",
];

/// Item keywords that can open a nested item inside a body.
const ITEM_KEYWORDS: [&str; 7] = ["fn", "struct", "enum", "trait", "impl", "mod", "union"];

struct Parser<'a> {
    src: &'a str,
    tokens: &'a [Token],
    /// Indices (into `tokens`) of the body's code tokens, outer braces
    /// stripped.
    code: Vec<usize>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn len(&self) -> usize {
        self.code.len()
    }

    fn txt(&self, i: usize) -> &'a str {
        self.tokens[self.code[i]].text(self.src)
    }

    fn is_ident(&self, i: usize) -> bool {
        matches!(
            self.tokens[self.code[i]].kind,
            TokKind::Ident | TokKind::RawIdent
        )
    }

    fn at(&self, s: &str) -> bool {
        self.pos < self.len() && self.txt(self.pos) == s
    }

    fn at_kw(&self, s: &str) -> bool {
        self.pos < self.len() && self.is_ident(self.pos) && self.txt(self.pos) == s
    }

    /// Parse statements until a `}` at this level (consumed) or EOF.
    fn parse_stmts(&mut self) -> Vec<Stmt> {
        let mut out = Vec::new();
        while self.pos < self.len() {
            if self.at("}") {
                self.pos += 1;
                return out;
            }
            if self.at_kw("if") {
                out.push(self.parse_if());
            } else if self.at_kw("match") {
                out.push(self.parse_match());
            } else if self.at_kw("while") || self.at_kw("for") || self.at_kw("loop") {
                out.push(self.parse_loop());
            } else if self.at_kw("return") {
                self.pos += 1;
                let (toks, _) = self.scan_straight();
                out.push(Stmt::Return(toks));
            } else if self.at_kw("break") || self.at_kw("continue") {
                self.pos += 1;
                let _ = self.scan_straight();
                out.push(Stmt::Break);
            } else if self.at_kw("unsafe")
                && self.pos + 1 < self.len()
                && self.txt(self.pos + 1) == "{"
            {
                self.pos += 2;
                out.push(Stmt::Block(self.parse_stmts()));
            } else if self.at("{") {
                self.pos += 1;
                out.push(Stmt::Block(self.parse_stmts()));
            } else if ITEM_KEYWORDS.iter().any(|k| self.at_kw(k)) {
                self.skip_item();
            } else {
                let start = self.pos;
                let (toks, semi) = self.scan_straight();
                if self.at("{") && self.is_let_else(&toks) {
                    self.pos = start + 1; // past `let`
                    out.push(self.parse_let_else());
                } else if !toks.is_empty() {
                    out.push(Stmt::Straight(toks));
                } else if !semi {
                    // Defensive: never loop on a token we cannot consume.
                    self.pos += 1;
                }
            }
        }
        out
    }

    /// Collect a straight statement: tokens up to a `;` (consumed) or, at
    /// paren/bracket depth 0, a `{`, `}`, or statement keyword (left for
    /// the caller).
    fn scan_straight(&mut self) -> (Vec<usize>, bool) {
        let mut toks = Vec::new();
        let mut depth = 0usize;
        while self.pos < self.len() {
            let t = self.txt(self.pos);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => {
                    self.pos += 1;
                    return (toks, true);
                }
                "{" | "}" if depth == 0 => return (toks, false),
                _ if depth == 0
                    && self.is_ident(self.pos)
                    && STMT_KEYWORDS.contains(&t)
                    && !toks.is_empty() =>
                {
                    return (toks, false);
                }
                _ => {}
            }
            toks.push(self.code[self.pos]);
            self.pos += 1;
        }
        (toks, false)
    }

    /// Collect a condition / scrutinee / iterated expression: tokens up to
    /// a `{` at depth 0 (left for the caller).
    fn scan_cond(&mut self) -> Vec<usize> {
        let mut toks = Vec::new();
        let mut depth = 0usize;
        while self.pos < self.len() {
            match self.txt(self.pos) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => return toks,
                _ => {}
            }
            toks.push(self.code[self.pos]);
            self.pos += 1;
        }
        toks
    }

    /// Collect a pattern up to a bare `=` at depth 0 (consumed).
    fn scan_pattern_to_eq(&mut self) -> Vec<usize> {
        let mut toks = Vec::new();
        let mut depth = 0usize;
        while self.pos < self.len() {
            let t = self.txt(self.pos);
            match t {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "=" if depth == 0
                    && !(self.pos + 1 < self.len() && self.txt(self.pos + 1) == "=") =>
                {
                    self.pos += 1;
                    return toks;
                }
                "{" if depth == 0 => return toks,
                _ => {}
            }
            toks.push(self.code[self.pos]);
            self.pos += 1;
        }
        toks
    }

    /// Does a straight run that stopped at a `{` open a `let … else`?
    fn is_let_else(&self, toks: &[usize]) -> bool {
        let kw = |t: Option<&usize>, kw: &str| {
            t.is_some_and(|&t| {
                matches!(self.tokens[t].kind, TokKind::Ident | TokKind::RawIdent)
                    && self.tokens[t].text(self.src) == kw
            })
        };
        kw(toks.first(), "let") && kw(toks.last(), "else")
    }

    /// `PAT = SRC else { … };`, from just past the `let`.
    fn parse_let_else(&mut self) -> Stmt {
        let pattern = self.scan_pattern_to_eq();
        let mut source = self.scan_cond();
        source.pop(); // `else`
        self.expect_open_brace();
        let else_b = self.parse_stmts();
        if self.at(";") {
            self.pos += 1;
        }
        Stmt::LetElse {
            pattern,
            source,
            else_b,
        }
    }

    fn expect_open_brace(&mut self) {
        if self.at("{") {
            self.pos += 1;
        }
    }

    fn parse_if(&mut self) -> Stmt {
        self.pos += 1; // `if`
        let bind = if self.at_kw("let") {
            self.pos += 1;
            Some(self.scan_pattern_to_eq())
        } else {
            None
        };
        let cond = self.scan_cond();
        self.expect_open_brace();
        let then_b = self.parse_stmts();
        let else_b = if self.at_kw("else") {
            self.pos += 1;
            if self.at_kw("if") {
                Some(vec![self.parse_if()])
            } else {
                self.expect_open_brace();
                Some(self.parse_stmts())
            }
        } else {
            None
        };
        Stmt::If {
            bind,
            cond,
            then_b,
            else_b,
        }
    }

    fn parse_match(&mut self) -> Stmt {
        self.pos += 1; // `match`
        let scrutinee = self.scan_cond();
        self.expect_open_brace();
        let mut arms = Vec::new();
        while self.pos < self.len() && !self.at("}") {
            let (pattern, guard) = self.scan_arm_pattern();
            if self.pos >= self.len() || self.at("}") {
                break;
            }
            let body = self.parse_arm_body();
            arms.push(Arm {
                pattern,
                guard,
                body,
            });
        }
        if self.at("}") {
            self.pos += 1;
        }
        Stmt::Match { scrutinee, arms }
    }

    /// Pattern (and optional `if` guard) up to `=>` (consumed).
    fn scan_arm_pattern(&mut self) -> (Vec<usize>, Vec<usize>) {
        let mut pattern = Vec::new();
        let mut guard = Vec::new();
        let mut in_guard = false;
        let mut depth = 0usize;
        while self.pos < self.len() {
            let t = self.txt(self.pos);
            if depth == 0 && t == "=" && self.pos + 1 < self.len() && self.txt(self.pos + 1) == ">"
            {
                self.pos += 2;
                return (pattern, guard);
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                "}" if depth == 0 => return (pattern, guard),
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                _ => {}
            }
            if depth == 0 && t == "if" && self.is_ident(self.pos) {
                in_guard = true;
                self.pos += 1;
                continue;
            }
            if in_guard {
                guard.push(self.code[self.pos]);
            } else {
                pattern.push(self.code[self.pos]);
            }
            self.pos += 1;
        }
        (pattern, guard)
    }

    fn parse_arm_body(&mut self) -> Vec<Stmt> {
        let body = if self.at("{") {
            self.pos += 1;
            self.parse_stmts()
        } else if self.at_kw("if") {
            vec![self.parse_if()]
        } else if self.at_kw("match") {
            vec![self.parse_match()]
        } else if self.at_kw("while") || self.at_kw("for") || self.at_kw("loop") {
            vec![self.parse_loop()]
        } else if self.at_kw("return") {
            self.pos += 1;
            vec![Stmt::Return(self.scan_arm_expr())]
        } else if self.at_kw("break") || self.at_kw("continue") {
            self.pos += 1;
            let _ = self.scan_arm_expr();
            vec![Stmt::Break]
        } else {
            let toks = self.scan_arm_expr();
            if toks.is_empty() {
                vec![]
            } else {
                vec![Stmt::Straight(toks)]
            }
        };
        if self.at(",") {
            self.pos += 1;
        }
        body
    }

    /// A braceless arm expression: up to `,` at depth 0 (left for
    /// [`Self::parse_arm_body`]) or the match's closing `}`.
    fn scan_arm_expr(&mut self) -> Vec<usize> {
        let mut toks = Vec::new();
        let mut depth = 0usize;
        while self.pos < self.len() {
            let t = self.txt(self.pos);
            match t {
                "(" | "[" | "{" => depth += 1,
                "}" if depth == 0 => return toks,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "," if depth == 0 => return toks,
                _ => {}
            }
            toks.push(self.code[self.pos]);
            self.pos += 1;
        }
        toks
    }

    fn parse_loop(&mut self) -> Stmt {
        let header = if self.at_kw("loop") {
            self.pos += 1;
            LoopHeader::Infinite
        } else if self.at_kw("while") {
            self.pos += 1;
            if self.at_kw("let") {
                self.pos += 1;
                let pattern = self.scan_pattern_to_eq();
                let source = self.scan_cond();
                LoopHeader::Bind { pattern, source }
            } else {
                LoopHeader::While(self.scan_cond())
            }
        } else {
            // `for`
            self.pos += 1;
            let mut pattern = Vec::new();
            let mut depth = 0usize;
            while self.pos < self.len() {
                let t = self.txt(self.pos);
                match t {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "in" if depth == 0 && self.is_ident(self.pos) => break,
                    "{" if depth == 0 => break,
                    _ => {}
                }
                pattern.push(self.code[self.pos]);
                self.pos += 1;
            }
            if self.at_kw("in") {
                self.pos += 1;
            }
            let source = self.scan_cond();
            LoopHeader::Bind { pattern, source }
        };
        self.expect_open_brace();
        let body = self.parse_stmts();
        Stmt::Loop { header, body }
    }

    /// Skip a nested item (`fn`, `struct`, `impl`, …): everything up to a
    /// `;` at depth 0 or through its balanced brace block.
    fn skip_item(&mut self) {
        let mut depth = 0usize;
        while self.pos < self.len() {
            match self.txt(self.pos) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                ";" if depth == 0 => {
                    self.pos += 1;
                    return;
                }
                "{" if depth == 0 => {
                    let mut braces = 0usize;
                    while self.pos < self.len() {
                        match self.txt(self.pos) {
                            "{" => braces += 1,
                            "}" => {
                                braces -= 1;
                                if braces == 0 {
                                    self.pos += 1;
                                    return;
                                }
                            }
                            _ => {}
                        }
                        self.pos += 1;
                    }
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }
}

/// Walk one function body once, calling `exec` on every step that some
/// path reaches, in source order, with the facts that hold on every path
/// to it. `exec` updates the facts in place. `body` is the token-index
/// range of the body *braces included* ([`crate::items::FnItem::body_tokens`]);
/// pass the file's full source and token stream.
pub(crate) fn walk(
    src: &str,
    tokens: &[Token],
    body: Range<usize>,
    exec: impl FnMut(Step<'_>, &mut Facts),
) {
    let mut code: Vec<usize> = body.filter(|&i| tokens[i].kind.is_code()).collect();
    if code.first().is_some_and(|&i| tokens[i].text(src) == "{") {
        code.remove(0);
    }
    if code.last().is_some_and(|&i| tokens[i].text(src) == "}") {
        code.pop();
    }
    let mut parser = Parser {
        src,
        tokens,
        code,
        pos: 0,
    };
    let stmts = parser.parse_stmts();
    let mut walker = Walker {
        exec,
        loop_exits: Vec::new(),
    };
    walker.stmts(&stmts, Some(Facts::new()));
}

/// The facts on two paths into one point; `None` is a path that has
/// diverged (returned, broken out) and constrains nothing.
fn meet(a: Option<Facts>, b: Option<Facts>) -> Option<Facts> {
    match (a, b) {
        (Some(mut a), Some(b)) => {
            a.retain(|k, v| b.get(k) == Some(v));
            Some(a)
        }
        (a, b) => a.or(b),
    }
}

struct Walker<F> {
    exec: F,
    /// Per enclosing loop, innermost last: the meet of every
    /// `break`/`continue` state seen so far in its body.
    loop_exits: Vec<Option<Facts>>,
}

impl<F: FnMut(Step<'_>, &mut Facts)> Walker<F> {
    /// Walk a statement list from `at`; returns the facts on its
    /// fall-through (`None` once every path has diverged).
    fn stmts(&mut self, stmts: &[Stmt], mut at: Option<Facts>) -> Option<Facts> {
        for s in stmts {
            at = self.stmt(s, at?);
        }
        at
    }

    fn code(&mut self, toks: &[usize], facts: &mut Facts) {
        if !toks.is_empty() {
            (self.exec)(Step::Code(toks), facts);
        }
    }

    fn bind(&mut self, pattern: &[usize], source: &[usize], facts: &mut Facts) {
        (self.exec)(Step::Bind { pattern, source }, facts);
    }

    fn stmt(&mut self, s: &Stmt, mut facts: Facts) -> Option<Facts> {
        match s {
            Stmt::Straight(toks) => {
                self.code(toks, &mut facts);
                Some(facts)
            }
            Stmt::Return(toks) => {
                self.code(toks, &mut facts);
                None
            }
            Stmt::Break => {
                if let Some(exit) = self.loop_exits.last_mut() {
                    *exit = meet(exit.take(), Some(facts));
                }
                None
            }
            Stmt::Block(b) => self.stmts(b, Some(facts)),
            Stmt::LetElse {
                pattern,
                source,
                else_b,
            } => {
                self.code(source, &mut facts);
                // The else block must diverge, so its end joins nothing.
                self.stmts(else_b, Some(facts.clone()));
                self.bind(pattern, source, &mut facts);
                Some(facts)
            }
            Stmt::If {
                bind,
                cond,
                then_b,
                else_b,
            } => {
                self.code(cond, &mut facts);
                let mut then_facts = facts.clone();
                if let Some(pattern) = bind {
                    self.bind(pattern, cond, &mut then_facts);
                }
                let then_end = self.stmts(then_b, Some(then_facts));
                let else_end = match else_b {
                    Some(e) => self.stmts(e, Some(facts)),
                    None => Some(facts),
                };
                meet(then_end, else_end)
            }
            Stmt::Match { scrutinee, arms } => {
                self.code(scrutinee, &mut facts);
                if arms.is_empty() {
                    return Some(facts);
                }
                let mut end = None;
                for arm in arms {
                    let mut arm_facts = facts.clone();
                    self.bind(&arm.pattern, scrutinee, &mut arm_facts);
                    self.code(&arm.guard, &mut arm_facts);
                    end = meet(end, self.stmts(&arm.body, Some(arm_facts)));
                }
                end
            }
            Stmt::Loop { header, body } => {
                match header {
                    LoopHeader::Infinite => {}
                    LoopHeader::While(cond) => self.code(cond, &mut facts),
                    LoopHeader::Bind { pattern, source } => self.bind(pattern, source, &mut facts),
                }
                self.loop_exits.push(None);
                let end = self.stmts(body, Some(facts));
                let exits = self.loop_exits.pop().flatten();
                meet(end, exits)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_source;

    /// Walk the first fn of `src`. Every step adds its own text as a
    /// fact; returns each step's text with the facts held when it ran.
    fn trace(src: &str) -> Vec<(String, Vec<String>)> {
        let (tokens, items) = parse_source(src);
        let text = |ts: &[usize]| {
            ts.iter()
                .map(|&t| tokens[t].text(src))
                .collect::<Vec<_>>()
                .join(" ")
        };
        let mut out = Vec::new();
        walk(
            src,
            &tokens,
            items.fns[0].body_tokens.clone(),
            |step, facts| {
                let s = match step {
                    Step::Code(ts) => text(ts),
                    Step::Bind { pattern, source } => {
                        format!("bind[{}]<-[{}]", text(pattern), text(source))
                    }
                };
                out.push((s.clone(), facts.keys().cloned().collect()));
                facts.insert(s.clone(), s);
            },
        );
        out
    }

    fn steps(trace: &[(String, Vec<String>)]) -> Vec<&str> {
        trace.iter().map(|(s, _)| s.as_str()).collect()
    }

    /// The facts held when the step with text `step` ran.
    fn held_at<'t>(trace: &'t [(String, Vec<String>)], step: &str) -> &'t [String] {
        let found = trace.iter().find(|(s, _)| s == step);
        &found
            .unwrap_or_else(|| panic!("no step `{step}` in {trace:?}"))
            .1
    }

    #[test]
    fn straight_line_fn_is_one_block() {
        let t = trace("fn f() { let a = 1; let b = a + 1; }");
        assert_eq!(steps(&t), ["let a = 1", "let b = a + 1"]);
        assert_eq!(held_at(&t, "let b = a + 1"), ["let a = 1"]);
    }

    #[test]
    fn if_else_diamond() {
        let t = trace("fn f(c: bool) { before(); if c { t(); } else { e(); } after(); }");
        assert_eq!(
            steps(&t),
            ["before ( )", "c", "t ( )", "e ( )", "after ( )"]
        );
        // Both branches start from the condition and meet at `after()`,
        // which keeps only what both established.
        assert_eq!(held_at(&t, "e ( )"), ["before ( )", "c"]);
        assert_eq!(held_at(&t, "after ( )"), ["before ( )", "c"]);
    }

    #[test]
    fn if_without_else_bypasses() {
        let t = trace("fn f(c: bool) { if c { t(); } done(); }");
        assert_eq!(held_at(&t, "done ( )"), ["c"]);
    }

    #[test]
    fn early_return_edges_to_exit() {
        let t = trace("fn f(c: bool) -> u32 { if c { t(); return 1; } else { e(); } after(); 2 }");
        assert_eq!(steps(&t), ["c", "t ( )", "1", "e ( )", "after ( )", "2"]);
        // The returning branch constrains nothing after the `if`.
        assert_eq!(held_at(&t, "after ( )"), ["c", "e ( )"]);
    }

    #[test]
    fn question_mark_stays_in_its_statement() {
        let t = trace("fn f() -> Result<(), E> { step()?; done(); Ok(()) }");
        assert_eq!(steps(&t), ["step ( ) ?", "done ( )", "Ok ( ( ) )"]);
        assert_eq!(held_at(&t, "done ( )"), ["step ( ) ?"]);
    }

    #[test]
    fn exactly_once_loop_has_no_back_edge() {
        let t = trace("fn f(xs: &[u32]) { for x in xs { use_it(x); } done(); }");
        // Each step runs once, and the body never sees its own facts.
        assert_eq!(steps(&t), ["bind[x]<-[xs]", "use_it ( x )", "done ( )"]);
        assert_eq!(held_at(&t, "use_it ( x )"), ["bind[x]<-[xs]"]);
        assert_eq!(held_at(&t, "done ( )"), ["bind[x]<-[xs]", "use_it ( x )"]);
    }

    #[test]
    fn for_pattern_becomes_a_bind_step() {
        let t = trace("fn f(m: &M) { for (k, v) in m.items { use_it(k, v); } }");
        assert_eq!(steps(&t)[0], "bind[( k , v )]<-[m . items]");
    }

    #[test]
    fn match_arms_bind_the_scrutinee_and_keep_guards() {
        let t = trace("fn f(x: Option<u32>) -> u32 { match x { Some(v) if v > 2 => v, Some(v) => 0, None => 1, } after() }");
        assert_eq!(
            steps(&t),
            [
                "x",
                "bind[Some ( v )]<-[x]",
                "v > 2",
                "v",
                "bind[Some ( v )]<-[x]",
                "0",
                "bind[None]<-[x]",
                "1",
                "after ( )",
            ]
        );
        // Each arm starts from the scrutinee alone; the arms meet after.
        assert_eq!(held_at(&t, "bind[None]<-[x]"), ["x"]);
        assert_eq!(held_at(&t, "after ( )"), ["x"]);
    }

    #[test]
    fn one_line_fn_parses() {
        assert_eq!(steps(&trace("fn f() -> u32 { g() }")), ["g ( )"]);
    }

    #[test]
    fn break_and_continue_edges() {
        let t =
            trace("fn f(c: bool) { loop { a(); if c { b(); break; } d(); continue; } after(); }");
        // `after()` starts from the meet of the `break` and `continue`
        // states; the body's fall-through after `continue` is dead.
        assert_eq!(held_at(&t, "after ( )"), ["a ( )", "c"]);
    }

    #[test]
    fn while_let_binds_each_iteration() {
        let t = trace("fn f(it: &mut I) { while let Some(x) = it.next() { use_it(x); } }");
        assert_eq!(steps(&t)[0], "bind[Some ( x )]<-[it . next ( )]");
    }

    #[test]
    fn nested_fn_items_are_skipped() {
        let t = trace("fn outer() { fn inner() { hidden(); } visible(); }");
        assert_eq!(steps(&t), ["visible ( )"]);
    }

    #[test]
    fn struct_literal_brace_does_not_derail() {
        let t = trace("fn f() { let p = Point { x: 1, y: 2 }; use_it(p); }");
        assert!(steps(&t).contains(&"use_it ( p )"), "{t:?}");
    }

    #[test]
    fn closure_bodies_stay_inline() {
        let t = trace("fn f(xs: &[u32]) -> u32 { xs.iter().map(|x| x + 1).sum() }");
        assert_eq!(t.len(), 1, "{t:?}");
    }

    #[test]
    fn let_else_keeps_divergent_block() {
        let t = trace("fn f(x: Option<u32>) -> u32 { let Some(v) = x else { return 0; }; v }");
        // The else block branches off after the source and ends with its
        // `return`; the bound path goes on to the tail `v`.
        assert_eq!(steps(&t), ["x", "0", "bind[Some ( v )]<-[x]", "v"]);
        assert_eq!(held_at(&t, "0"), ["x"]);
        assert_eq!(held_at(&t, "v"), ["bind[Some ( v )]<-[x]", "x"]);
    }
}
