//! Intraprocedural control-flow graphs over the lexed token stream.
//!
//! dessan has no type information and no real parser, so the CFG is built
//! the same way the rest of the static half works: structurally, from the
//! code tokens of one function body ([`crate::items::FnItem::body_tokens`]).
//! A small recursive-descent pass groups the tokens into a statement tree
//! (`if`/`else`, `match` arms with guards, `while`/`for`/`loop`, `return`/
//! `break`/`continue`, nested blocks), which is then lowered to basic
//! blocks:
//!
//! * **entry** — block 0, where execution starts.
//! * **exit** — the normal-return node; `return` statements and the body's
//!   fall-through both edge here.
//! * **abort** — the early-error node; every statement containing a `?`
//!   operator gets an edge here, so the facts at exit describe normal
//!   returns only.
//!
//! Every loop body is modelled as executing exactly once: no back edge,
//! no zero-trip bypass, and `continue` edges to the block after the loop.
//! The CFG's one client, the lock-order must-analysis ([`crate::locks`]),
//! needs this shape: a guard bound inside a loop body is released at the
//! end of each iteration, which its held-set facts do not model, so a back
//! edge would report the next iteration's acquisition as a double-lock.
//! This trades a class of false positives for a (documented) class of
//! false negatives — dessan's usual stance.
//!
//! Known approximations, all deliberate: struct literals and block
//! expressions inside a statement are lowered as inline blocks (no false
//! edges, some lost assignment structure); `let x = if … { a } else { b };`
//! loses the binding of `x` (the branches are still analyzed); nested
//! `fn`/`struct`/`impl` items inside a body are skipped entirely (they are
//! parsed as their own [`crate::items::FnItem`]s).

use std::ops::Range;

use crate::lex::{TokKind, Token};

/// One step inside a basic block, in execution order. Token indices point
/// into the *file* token stream the CFG was built from.
#[derive(Clone, Debug)]
pub enum Step {
    /// A run of plain code tokens — one statement or statement fragment.
    Code(Vec<usize>),
    /// A destructuring bind: the pattern's identifiers receive the source
    /// expression's value (`match` arm, `for pat in expr`, `if let`).
    Bind {
        /// Pattern tokens (guard excluded).
        pattern: Vec<usize>,
        /// Source expression tokens (scrutinee / iterated expression).
        source: Vec<usize>,
    },
}

/// A basic block: straight-line steps plus successor edges.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Steps in execution order.
    pub steps: Vec<Step>,
    /// Successor block ids (deduplicated).
    pub succs: Vec<usize>,
}

/// An intraprocedural control-flow graph.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// All blocks; `blocks[entry]` is where execution starts.
    pub blocks: Vec<Block>,
    /// Entry block id (always 0).
    pub entry: usize,
    /// Normal-exit block id (no steps, no successors).
    pub exit: usize,
    /// Early-error exit (`?` paths) block id.
    pub abort: usize,
}

/// The parsed statement tree, internal to the builder.
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
    Break,
    Continue,
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
    WhileLet {
        pattern: Vec<usize>,
        source: Vec<usize>,
    },
    For {
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
            } else if self.at_kw("break") {
                self.pos += 1;
                let _ = self.scan_straight();
                out.push(Stmt::Break);
            } else if self.at_kw("continue") {
                self.pos += 1;
                let _ = self.scan_straight();
                out.push(Stmt::Continue);
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
                let (toks, semi) = self.scan_straight();
                if !toks.is_empty() {
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
        } else if self.at_kw("break") {
            self.pos += 1;
            let _ = self.scan_arm_expr();
            vec![Stmt::Break]
        } else if self.at_kw("continue") {
            self.pos += 1;
            let _ = self.scan_arm_expr();
            vec![Stmt::Continue]
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
                LoopHeader::WhileLet { pattern, source }
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
            LoopHeader::For { pattern, source }
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

struct Lower<'a> {
    src: &'a str,
    tokens: &'a [Token],
    blocks: Vec<Block>,
    exit: usize,
    abort: usize,
}

impl<'a> Lower<'a> {
    fn nb(&mut self) -> usize {
        self.blocks.push(Block::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
        }
    }

    fn has_try(&self, toks: &[usize]) -> bool {
        toks.iter()
            .any(|&t| self.tokens[t].kind == TokKind::Punct && self.tokens[t].text(self.src) == "?")
    }

    /// Lower a statement list starting in `cur`; returns the block where
    /// control continues.
    fn stmts(&mut self, stmts: &[Stmt], mut cur: usize, loops: &mut Vec<usize>) -> usize {
        for s in stmts {
            cur = self.stmt(s, cur, loops);
        }
        cur
    }

    fn stmt(&mut self, s: &Stmt, cur: usize, loops: &mut Vec<usize>) -> usize {
        match s {
            Stmt::Straight(toks) => {
                let has_try = self.has_try(toks);
                self.blocks[cur].steps.push(Step::Code(toks.clone()));
                if has_try {
                    self.edge(cur, self.abort);
                    let n = self.nb();
                    self.edge(cur, n);
                    n
                } else {
                    cur
                }
            }
            Stmt::Return(toks) => {
                if !toks.is_empty() {
                    if self.has_try(toks) {
                        self.edge(cur, self.abort);
                    }
                    self.blocks[cur].steps.push(Step::Code(toks.clone()));
                }
                self.edge(cur, self.exit);
                self.nb()
            }
            Stmt::Break | Stmt::Continue => {
                let to = loops.last().copied().unwrap_or(self.exit);
                self.edge(cur, to);
                self.nb()
            }
            Stmt::Block(b) => self.stmts(b, cur, loops),
            Stmt::If {
                bind,
                cond,
                then_b,
                else_b,
            } => {
                if !cond.is_empty() {
                    if self.has_try(cond) {
                        self.edge(cur, self.abort);
                    }
                    self.blocks[cur].steps.push(Step::Code(cond.clone()));
                }
                let then0 = self.nb();
                self.edge(cur, then0);
                if let Some(pat) = bind {
                    self.blocks[then0].steps.push(Step::Bind {
                        pattern: pat.clone(),
                        source: cond.clone(),
                    });
                }
                let t_end = self.stmts(then_b, then0, loops);
                let join = self.nb();
                self.edge(t_end, join);
                match else_b {
                    Some(e) => {
                        let e0 = self.nb();
                        self.edge(cur, e0);
                        let e_end = self.stmts(e, e0, loops);
                        self.edge(e_end, join);
                    }
                    None => self.edge(cur, join),
                }
                join
            }
            Stmt::Match { scrutinee, arms } => {
                if !scrutinee.is_empty() {
                    if self.has_try(scrutinee) {
                        self.edge(cur, self.abort);
                    }
                    self.blocks[cur].steps.push(Step::Code(scrutinee.clone()));
                }
                let join = self.nb();
                if arms.is_empty() {
                    self.edge(cur, join);
                }
                for arm in arms {
                    let a0 = self.nb();
                    self.edge(cur, a0);
                    self.blocks[a0].steps.push(Step::Bind {
                        pattern: arm.pattern.clone(),
                        source: scrutinee.clone(),
                    });
                    if !arm.guard.is_empty() {
                        self.blocks[a0].steps.push(Step::Code(arm.guard.clone()));
                    }
                    let end = self.stmts(&arm.body, a0, loops);
                    self.edge(end, join);
                }
                join
            }
            Stmt::Loop { header, body } => {
                let head = self.nb();
                self.edge(cur, head);
                let after = self.nb();
                let body0 = self.nb();
                self.edge(head, body0);
                match header {
                    LoopHeader::Infinite => {}
                    LoopHeader::While(cond) => {
                        if !cond.is_empty() {
                            if self.has_try(cond) {
                                self.edge(head, self.abort);
                            }
                            self.blocks[head].steps.push(Step::Code(cond.clone()));
                        }
                    }
                    LoopHeader::WhileLet { pattern, source }
                    | LoopHeader::For { pattern, source } => {
                        if self.has_try(source) {
                            self.edge(head, self.abort);
                        }
                        self.blocks[body0].steps.push(Step::Bind {
                            pattern: pattern.clone(),
                            source: source.clone(),
                        });
                    }
                }
                loops.push(after);
                let end = self.stmts(body, body0, loops);
                loops.pop();
                self.edge(end, after);
                after
            }
        }
    }
}

/// Build the CFG of one function body. `body` is the token-index range of
/// the body *braces included* ([`crate::items::FnItem::body_tokens`]);
/// pass the file's full source and token stream.
pub fn build(src: &str, tokens: &[Token], body: Range<usize>) -> Cfg {
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

    let mut lw = Lower {
        src,
        tokens,
        blocks: vec![Block::default(), Block::default(), Block::default()],
        exit: 1,
        abort: 2,
    };
    let end = lw.stmts(&stmts, 0, &mut Vec::new());
    lw.edge(end, 1);
    Cfg {
        blocks: lw.blocks,
        entry: 0,
        exit: 1,
        abort: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_source;

    fn cfg_of(src: &str) -> (Cfg, String, Vec<Token>) {
        let (tokens, items) = parse_source(src);
        let f = &items.fns[0];
        let cfg = build(src, &tokens, f.body_tokens.clone());
        (cfg, src.to_string(), tokens)
    }

    /// Render each block's steps as text for assertions.
    fn step_texts(cfg: &Cfg, src: &str, tokens: &[Token]) -> Vec<Vec<String>> {
        cfg.blocks
            .iter()
            .map(|b| {
                b.steps
                    .iter()
                    .map(|s| match s {
                        Step::Code(ts) => ts
                            .iter()
                            .map(|&t| tokens[t].text(src))
                            .collect::<Vec<_>>()
                            .join(" "),
                        Step::Bind { pattern, source } => format!(
                            "bind[{}]<-[{}]",
                            pattern
                                .iter()
                                .map(|&t| tokens[t].text(src))
                                .collect::<Vec<_>>()
                                .join(" "),
                            source
                                .iter()
                                .map(|&t| tokens[t].text(src))
                                .collect::<Vec<_>>()
                                .join(" ")
                        ),
                    })
                    .collect()
            })
            .collect()
    }

    /// Every block reachable from entry can reach exit or abort.
    fn check_well_formed(cfg: &Cfg) {
        assert!(cfg.entry < cfg.blocks.len());
        for b in &cfg.blocks {
            for &s in &b.succs {
                assert!(s < cfg.blocks.len());
            }
        }
        assert!(cfg.blocks[cfg.exit].succs.is_empty());
        assert!(cfg.blocks[cfg.abort].succs.is_empty());
    }

    #[test]
    fn straight_line_fn_is_one_block() {
        let (cfg, src, toks) = cfg_of("fn f() { let a = 1; let b = a + 1; }");
        check_well_formed(&cfg);
        let steps = step_texts(&cfg, &src, &toks);
        assert_eq!(steps[cfg.entry], vec!["let a = 1", "let b = a + 1"]);
        assert_eq!(cfg.blocks[cfg.entry].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_else_diamond() {
        let (cfg, src, toks) =
            cfg_of("fn f(c: bool) { before(); if c { t(); } else { e(); } after(); }");
        check_well_formed(&cfg);
        let steps = step_texts(&cfg, &src, &toks);
        // entry: before + cond, two succs.
        assert_eq!(steps[cfg.entry], vec!["before ( )", "c"]);
        assert_eq!(cfg.blocks[cfg.entry].succs.len(), 2);
        // Both branches converge on a join that runs `after()`.
        let join = cfg.blocks[cfg.blocks[cfg.entry].succs[0]].succs[0];
        assert_eq!(steps[join], vec!["after ( )"]);
        assert_eq!(cfg.blocks[join].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_without_else_bypasses() {
        let (cfg, _, _) = cfg_of("fn f(c: bool) { if c { t(); } done(); }");
        check_well_formed(&cfg);
        // Entry branches to then-block and directly to join.
        assert_eq!(cfg.blocks[cfg.entry].succs.len(), 2);
    }

    #[test]
    fn early_return_edges_to_exit() {
        let (cfg, src, toks) = cfg_of("fn f(c: bool) -> u32 { if c { return 1; } 2 }");
        check_well_formed(&cfg);
        let steps = step_texts(&cfg, &src, &toks);
        // The then-branch edges straight to exit.
        let then0 = cfg.blocks[cfg.entry].succs[0];
        assert!(cfg.blocks[then0].succs.contains(&cfg.exit));
        assert_eq!(steps[then0], vec!["1"]);
    }

    #[test]
    fn question_mark_edges_to_abort() {
        let (cfg, _, _) = cfg_of("fn f() -> Result<(), E> { step()?; done(); Ok(()) }");
        check_well_formed(&cfg);
        assert!(cfg.blocks[cfg.entry].succs.contains(&cfg.abort));
        // Fall-through continues to a successor that reaches exit.
        assert!(cfg.blocks[cfg.entry].succs.len() == 2);
    }

    #[test]
    fn exactly_once_loop_has_no_back_edge() {
        let (cfg, _, _) = cfg_of("fn f(xs: &[u32]) { for x in xs { use_it(x); } done(); }");
        check_well_formed(&cfg);
        let head = cfg.blocks[cfg.entry].succs[0];
        // Head has exactly one successor: the body; the body flows to
        // after, never back.
        assert_eq!(cfg.blocks[head].succs.len(), 1);
        let body0 = cfg.blocks[head].succs[0];
        assert!(!cfg.blocks[body0].succs.contains(&head));
    }

    #[test]
    fn for_pattern_becomes_a_bind_step() {
        let (cfg, src, toks) = cfg_of("fn f(m: &M) { for (k, v) in m.items { use_it(k, v); } }");
        let steps = step_texts(&cfg, &src, &toks);
        assert!(
            steps
                .iter()
                .flatten()
                .any(|s| s == "bind[( k , v )]<-[m . items]"),
            "{steps:?}"
        );
    }

    #[test]
    fn match_arms_bind_the_scrutinee_and_keep_guards() {
        let (cfg, src, toks) = cfg_of("fn f(x: Option<u32>) -> u32 { match x { Some(v) if v > 2 => v, Some(v) => 0, None => 1, } }");
        check_well_formed(&cfg);
        let steps = step_texts(&cfg, &src, &toks);
        assert!(steps.iter().flatten().any(|s| s == "bind[Some ( v )]<-[x]"));
        assert!(steps.iter().flatten().any(|s| s == "v > 2"));
        // Three arms -> entry has three successors.
        assert_eq!(cfg.blocks[cfg.entry].succs.len(), 3);
    }

    #[test]
    fn one_line_fn_parses() {
        let (cfg, src, toks) = cfg_of("fn f() -> u32 { g() }");
        check_well_formed(&cfg);
        let steps = step_texts(&cfg, &src, &toks);
        assert_eq!(steps[cfg.entry], vec!["g ( )"]);
    }

    #[test]
    fn break_and_continue_edges() {
        let (cfg, _, _) = cfg_of("fn f() { loop { if done() { break; } continue; } after(); }");
        check_well_formed(&cfg);
        // `loop` has no zero-trip edge: `after()` is only reachable via
        // the break edge.
        let after_blk = (0..cfg.blocks.len())
            .find(|&b| !cfg.blocks[b].steps.is_empty() && cfg.blocks[b].succs == vec![cfg.exit])
            .unwrap();
        assert!(cfg.blocks.iter().any(|b| b.succs.contains(&after_blk)));
    }

    #[test]
    fn while_let_binds_each_iteration() {
        let (cfg, src, toks) =
            cfg_of("fn f(it: &mut I) { while let Some(x) = it.next() { use_it(x); } }");
        let steps = step_texts(&cfg, &src, &toks);
        assert!(steps
            .iter()
            .flatten()
            .any(|s| s == "bind[Some ( x )]<-[it . next ( )]"));
    }

    #[test]
    fn nested_fn_items_are_skipped() {
        let (cfg, src, toks) = cfg_of("fn outer() { fn inner() { hidden(); } visible(); }");
        let steps = step_texts(&cfg, &src, &toks);
        let all: Vec<_> = steps.iter().flatten().collect();
        assert!(all.iter().any(|s| s.contains("visible")));
        assert!(!all.iter().any(|s| s.contains("hidden")), "{all:?}");
    }

    #[test]
    fn struct_literal_brace_does_not_derail() {
        let (cfg, src, toks) = cfg_of("fn f() { let p = Point { x: 1, y: 2 }; use_it(p); }");
        check_well_formed(&cfg);
        let steps = step_texts(&cfg, &src, &toks);
        let all: Vec<_> = steps.iter().flatten().collect();
        assert!(all.iter().any(|s| s.contains("use_it")), "{all:?}");
    }

    #[test]
    fn closure_bodies_stay_inline() {
        let (cfg, src, toks) = cfg_of("fn f(xs: &[u32]) -> u32 { xs.iter().map(|x| x + 1).sum() }");
        check_well_formed(&cfg);
        let steps = step_texts(&cfg, &src, &toks);
        assert_eq!(steps[cfg.entry].len(), 1);
    }

    #[test]
    fn let_else_keeps_divergent_block() {
        let (cfg, src, toks) =
            cfg_of("fn f(x: Option<u32>) -> u32 { let Some(v) = x else { return 0; }; v }");
        check_well_formed(&cfg);
        let steps = step_texts(&cfg, &src, &toks);
        let all: Vec<_> = steps.iter().flatten().collect();
        assert!(all.iter().any(|s| s.contains("0")), "{all:?}");
    }
}
