//! Protocol / typestate analysis: API call-order contracts on the
//! simulation runtimes, checked intraprocedurally over the CFG.
//!
//! Three rules, all dataflow problems over small local lattices:
//!
//! * `protocol-send-wait` — every `send_nb(from, to)` must reach a
//!   matching completion (`recv(to, from)`, `wait`, `wait_all`, or
//!   `barrier`) on **all** paths from the send to function exit. This is
//!   a backward must-analysis; the fact at a program point is the set of
//!   completions guaranteed downstream. Solved over the `ExactlyOnce`
//!   loop shape: benchmark drivers post sends in one loop and collect
//!   them in a sibling loop, and a zero-trip edge on the collection loop
//!   would make every such driver a false positive. The cost is that a
//!   send posted strictly more times than it is completed can escape —
//!   documented soundness trade (DESIGN.md §13).
//! * `protocol-event-order` — `stream_wait_event(s, e)` requires
//!   `event_record` to have produced `e` on all incoming paths (forward
//!   must). Only events recorded *somewhere in the same fn* are
//!   candidates; events passed in as parameters are assumed ordered by
//!   the caller.
//! * `protocol-buffer-annotate` — between a kernel launch and a
//!   `memcpy_async` there must be an `annotate_kernel_buffers` (or a
//!   full synchronize). Forward may-analysis over outstanding launch
//!   lines: a `memcpy_async` reachable from any un-annotated launch is
//!   flagged.
//!
//! All three rules skip `#[test]` regions: tests exercise half-protocols
//! on purpose (e.g. asserting that an unwaited send is detected by the
//! runtime itself).

use std::collections::BTreeSet;

use crate::callgraph::WsFile;
use crate::cfg::{self, Cfg, LoopShape, Step};
use crate::dataflow::{solve, Dir, Lattice};
use crate::lex::TokKind;
use crate::lint::{LintFinding, Rule};

/// May-set lattice: union join, bottom = empty.
#[derive(Clone, Debug, PartialEq)]
struct MaySet<T: Ord + Clone + PartialEq>(BTreeSet<T>);

impl<T: Ord + Clone + PartialEq> Lattice for MaySet<T> {
    fn join(&mut self, other: &Self) -> bool {
        let before = self.0.len();
        self.0.extend(other.0.iter().cloned());
        self.0.len() != before
    }
}

/// Must-set lattice: `None` = ⊤ (unreached), join intersects.
#[derive(Clone, Debug, PartialEq)]
struct MustSet<T: Ord + Clone + PartialEq>(Option<BTreeSet<T>>);

impl<T: Ord + Clone + PartialEq> Lattice for MustSet<T> {
    fn join(&mut self, other: &Self) -> bool {
        match (&mut self.0, &other.0) {
            (_, None) => false,
            (slot @ None, Some(o)) => {
                *slot = Some(o.clone());
                true
            }
            (Some(s), Some(o)) => {
                let before = s.len();
                s.retain(|x| o.contains(x));
                s.len() != before
            }
        }
    }
}

struct Ctx<'a> {
    file: &'a WsFile,
}

impl<'a> Ctx<'a> {
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

    /// Call sites of `name(` within a token run: returns the index (into
    /// `toks`) of each `name` token followed by `(`.
    fn calls_of(&self, toks: &[usize], name: &str) -> Vec<usize> {
        let mut out = Vec::new();
        for j in 0..toks.len().saturating_sub(1) {
            if self.is_ident(toks[j]) && self.text(toks[j]) == name && self.text(toks[j + 1]) == "("
            {
                out.push(j);
            }
        }
        out
    }

    /// Split the argument list starting at the `(` right after `toks[j]`
    /// into top-level comma-separated argument token runs.
    fn args_of(&self, toks: &[usize], j: usize) -> Vec<Vec<usize>> {
        let mut args: Vec<Vec<usize>> = vec![Vec::new()];
        let mut depth = 0usize;
        for &t in &toks[j + 1..] {
            match self.text(t) {
                "(" | "[" | "{" => {
                    depth += 1;
                    if depth == 1 {
                        continue; // the opening paren itself
                    }
                }
                ")" | "]" | "}" => {
                    if depth == 1 {
                        break;
                    }
                    depth = depth.saturating_sub(1);
                }
                "," if depth == 1 => {
                    args.push(Vec::new());
                    continue;
                }
                _ => {}
            }
            if depth >= 1 {
                args.last_mut().expect("nonempty").push(t);
            }
        }
        if args.len() == 1 && args[0].is_empty() {
            args.clear();
        }
        args
    }

    /// The single bare identifier of an argument, `&`-stripped; `None`
    /// for anything more complex.
    fn bare_ident(&self, arg: &[usize]) -> Option<&'a str> {
        let arg: Vec<usize> = arg
            .iter()
            .copied()
            .filter(|&t| self.text(t) != "&")
            .collect();
        match arg.as_slice() {
            [t] if self.is_ident(*t) => Some(self.text(*t)),
            _ => None,
        }
    }
}

fn mk_finding(
    ctx: &Ctx,
    rule: Rule,
    line: usize,
    message: String,
    chain: Vec<String>,
) -> Option<LintFinding> {
    if ctx.file.items.waived(rule.id(), line) {
        return None;
    }
    Some(LintFinding {
        rule,
        path: ctx.file.path.clone(),
        line,
        message,
        chain,
    })
}

// ---------------------------------------------------------------------------
// Rule (a): send_nb must reach a matching completion on all paths.
// ---------------------------------------------------------------------------

/// Completions guaranteed on every path downstream of a point, closed
/// under subsumption: `wait`/`wait_all`/`barrier` (and a `recv` whose
/// arguments we can't resolve) cover *every* send, so they set
/// `covers_all` rather than a concrete pair. The must-join then keeps a
/// pair when each side either names it or covers everything — so one
/// branch ending in `recv(b, a)` and the other in `wait_all()` still
/// guarantees completion of `send_nb(a, b)`.
#[derive(Clone, Debug, PartialEq, Default)]
struct Completions {
    covers_all: bool,
    /// `recv(at, from)` with bare idents completes `send_nb(from, at)`.
    pairs: BTreeSet<(String, String)>,
}

impl Completions {
    fn covers(&self, pair: &(String, String)) -> bool {
        self.covers_all || self.pairs.contains(pair)
    }

    fn covers_something(&self) -> bool {
        self.covers_all || !self.pairs.is_empty()
    }

    /// Must-meet with subsumption.
    fn meet(&self, other: &Self) -> Self {
        let mut pairs = BTreeSet::new();
        for p in self.pairs.union(&other.pairs) {
            if self.covers(p) && other.covers(p) {
                pairs.insert(p.clone());
            }
        }
        Completions {
            covers_all: self.covers_all && other.covers_all,
            pairs,
        }
    }
}

/// `None` = ⊤ (unreached / vacuous).
#[derive(Clone, Debug, PartialEq)]
struct MustCompletions(Option<Completions>);

impl Lattice for MustCompletions {
    fn join(&mut self, other: &Self) -> bool {
        match (&mut self.0, &other.0) {
            (_, None) => false,
            (slot @ None, Some(o)) => {
                *slot = Some(o.clone());
                true
            }
            (Some(s), Some(o)) => {
                let met = s.meet(o);
                let changed = met != *s;
                *s = met;
                changed
            }
        }
    }
}

fn gen_completions(ctx: &Ctx, toks: &[usize], set: &mut Completions) {
    for name in ["wait", "wait_all", "barrier"] {
        if !ctx.calls_of(toks, name).is_empty() {
            set.covers_all = true;
        }
    }
    for j in ctx.calls_of(toks, "recv") {
        let args = ctx.args_of(toks, j);
        match (
            args.first().and_then(|a| ctx.bare_ident(a)),
            args.get(1).and_then(|a| ctx.bare_ident(a)),
        ) {
            (Some(at), Some(from)) => {
                set.pairs.insert((at.to_string(), from.to_string()));
            }
            _ => set.covers_all = true,
        }
    }
}

fn check_send_wait(ctx: &Ctx, cfg: &Cfg, out: &mut Vec<LintFinding>) {
    // Backward must-analysis: fact = completions guaranteed downstream.
    let inputs = solve(
        cfg,
        Dir::Backward,
        MustCompletions(Some(Completions::default())),
        MustCompletions(None),
        |b, input: &MustCompletions| {
            let mut fact = input.clone();
            for step in cfg.blocks[b].steps.iter().rev() {
                if let Step::Code(toks) = step {
                    if let Some(set) = fact.0.as_mut() {
                        gen_completions(ctx, toks, set);
                    }
                }
            }
            fact
        },
    );
    // Abort-edge targets keep ⊤: a send followed by `?`-bail is vacuous
    // (the runtime unwinds). `solve` handles this because abort has no
    // outgoing edges and backward boundary applies only at `exit`.
    for (b, input) in inputs.iter().enumerate() {
        // `inputs` for Backward are exit-side facts; replay in reverse.
        let mut fact = input.clone();
        for step in cfg.blocks[b].steps.iter().rev() {
            let Step::Code(toks) = step else { continue };
            // Gen first (reverse order: completions later in the step
            // text already applied), then check sends in this step.
            // Within one statement a send and its completion co-occur
            // rarely; treat the whole step as atomic: gen then check.
            if let Some(set) = fact.0.as_mut() {
                gen_completions(ctx, toks, set);
            }
            for j in ctx.calls_of(toks, "send_nb") {
                let line = ctx.line(toks[j]);
                let args = ctx.args_of(toks, j);
                let satisfied = match &fact.0 {
                    None => true, // unreachable-from-exit: vacuous
                    Some(set) => match (
                        args.first().and_then(|a| ctx.bare_ident(a)),
                        args.get(1).and_then(|a| ctx.bare_ident(a)),
                    ) {
                        (Some(from), Some(to)) => set.covers(&(to.to_string(), from.to_string())),
                        // Complex send args: any completion at all
                        // downstream satisfies it.
                        _ => set.covers_something(),
                    },
                };
                if !satisfied {
                    let desc = match (
                        args.first().and_then(|a| ctx.bare_ident(a)),
                        args.get(1).and_then(|a| ctx.bare_ident(a)),
                    ) {
                        (Some(f), Some(t)) => format!("send_nb({f}, {t})"),
                        _ => "send_nb(..)".to_string(),
                    };
                    out.extend(mk_finding(
                        ctx,
                        Rule::ProtocolSendWait,
                        line,
                        format!(
                            "{desc} is not matched by a recv/wait/barrier on every path to function exit; an unwaited nonblocking send leaks the in-flight message"
                        ),
                        vec![format!("{desc} at line {line}"), "no completion on some exit path".to_string()],
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule (b): event_record happens-before stream_wait_event.
// ---------------------------------------------------------------------------

fn check_event_order(ctx: &Ctx, cfg: &Cfg, out: &mut Vec<LintFinding>) {
    // Prepass: events recorded anywhere in this fn. Only these are
    // candidates — an event parameter is the caller's responsibility.
    let mut recorded_somewhere: BTreeSet<String> = BTreeSet::new();
    let mut record_line: std::collections::BTreeMap<String, usize> = Default::default();
    for block in &cfg.blocks {
        for step in &block.steps {
            let Step::Code(toks) = step else { continue };
            for j in ctx.calls_of(toks, "event_record") {
                // Look left for `let <e> =` / `<e> =`.
                let texts: Vec<&str> = toks.iter().map(|&t| ctx.text(t)).collect();
                for k in (0..j).rev() {
                    if texts[k] == "=" && k >= 1 && ctx.is_ident(toks[k - 1]) {
                        let name = texts[k - 1].to_string();
                        record_line.entry(name.clone()).or_insert(ctx.line(toks[j]));
                        recorded_somewhere.insert(name);
                        break;
                    }
                }
            }
        }
    }
    if recorded_somewhere.is_empty() {
        return;
    }
    let inputs = solve(
        cfg,
        Dir::Forward,
        MustSet(Some(BTreeSet::new())),
        MustSet(None),
        |b, input: &MustSet<String>| {
            let mut fact = input.clone();
            for step in &cfg.blocks[b].steps {
                if let Step::Code(toks) = step {
                    apply_event_step(ctx, toks, &mut fact, &recorded_somewhere);
                }
            }
            fact
        },
    );
    for (b, input) in inputs.iter().enumerate() {
        let mut fact = input.clone();
        for step in &cfg.blocks[b].steps {
            let Step::Code(toks) = step else { continue };
            for j in ctx.calls_of(toks, "stream_wait_event") {
                let args = ctx.args_of(toks, j);
                let Some(ev) = args.get(1).and_then(|a| ctx.bare_ident(a)) else {
                    continue;
                };
                if !recorded_somewhere.contains(ev) {
                    continue;
                }
                let guaranteed = match &fact.0 {
                    None => true, // unreachable
                    Some(set) => set.contains(ev),
                };
                if !guaranteed {
                    let line = ctx.line(toks[j]);
                    let rl = record_line.get(ev).copied().unwrap_or(line);
                    out.extend(mk_finding(
                        ctx,
                        Rule::ProtocolEventOrder,
                        line,
                        format!(
                            "stream_wait_event waits on `{ev}` before event_record(`{ev}`) is guaranteed to have run (recorded at line {rl}); the wait observes an unrecorded event"
                        ),
                        vec![
                            format!("event_record(`{ev}`) at line {rl}"),
                            format!("stream_wait_event at line {line} not dominated by it"),
                        ],
                    ));
                }
            }
            apply_event_step(ctx, toks, &mut fact, &recorded_somewhere);
        }
    }
}

fn apply_event_step(
    ctx: &Ctx,
    toks: &[usize],
    fact: &mut MustSet<String>,
    candidates: &BTreeSet<String>,
) {
    let Some(set) = fact.0.as_mut() else { return };
    let texts: Vec<&str> = toks.iter().map(|&t| ctx.text(t)).collect();
    for j in ctx.calls_of(toks, "event_record") {
        for k in (0..j).rev() {
            if texts[k] == "=" && k >= 1 && ctx.is_ident(toks[k - 1]) {
                let name = texts[k - 1];
                if candidates.contains(name) {
                    set.insert(name.to_string());
                }
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule (c): annotate_kernel_buffers precedes instrumented memcpy_async.
// ---------------------------------------------------------------------------

fn check_buffer_annotate(ctx: &Ctx, cfg: &Cfg, out: &mut Vec<LintFinding>) {
    let gen_kill = |toks: &[usize], fact: &mut MaySet<usize>| {
        for name in [
            "annotate_kernel_buffers",
            "stream_synchronize",
            "device_synchronize",
        ] {
            if !ctx.calls_of(toks, name).is_empty() {
                fact.0.clear();
            }
        }
        for name in ["launch_kernel", "launch_stream_op"] {
            for j in ctx.calls_of(toks, name) {
                fact.0.insert(ctx.line(toks[j]));
            }
        }
    };
    let inputs = solve(
        cfg,
        Dir::Forward,
        MaySet(BTreeSet::new()),
        MaySet(BTreeSet::new()),
        |b, input: &MaySet<usize>| {
            let mut fact = input.clone();
            for step in &cfg.blocks[b].steps {
                if let Step::Code(toks) = step {
                    gen_kill(toks, &mut fact);
                }
            }
            fact
        },
    );
    for (b, input) in inputs.iter().enumerate() {
        let mut fact = input.clone();
        for step in &cfg.blocks[b].steps {
            let Step::Code(toks) = step else { continue };
            for j in ctx.calls_of(toks, "memcpy_async") {
                if let Some(&launch) = fact.0.iter().next() {
                    let line = ctx.line(toks[j]);
                    out.extend(mk_finding(
                        ctx,
                        Rule::ProtocolBufferAnnotate,
                        line,
                        format!(
                            "memcpy_async may overlap the kernel launched at line {launch} without annotate_kernel_buffers (or a synchronize) in between; the race detector cannot attribute the copy's buffers"
                        ),
                        vec![
                            format!("kernel launch at line {launch}"),
                            format!("memcpy_async at line {line} with no annotation between"),
                        ],
                    ));
                }
            }
            gen_kill(toks, &mut fact);
        }
    }
}

// ---------------------------------------------------------------------------

/// Run all three protocol rules over one file.
pub fn findings(file: &WsFile) -> Vec<LintFinding> {
    let ctx = Ctx { file };
    let mut out = Vec::new();
    for f in &file.items.fns {
        if f.in_test || f.body_tokens.is_empty() {
            continue;
        }
        let natural = cfg::build(
            &file.src,
            &file.tokens,
            f.body_tokens.clone(),
            LoopShape::Natural,
        );
        let exactly_once = cfg::build(
            &file.src,
            &file.tokens,
            f.body_tokens.clone(),
            LoopShape::ExactlyOnce,
        );
        check_send_wait(&ctx, &exactly_once, &mut out);
        check_event_order(&ctx, &natural, &mut out);
        check_buffer_annotate(&ctx, &natural, &mut out);
    }
    out.sort_by(|a, b| {
        (a.line, a.rule.order(), &a.message).cmp(&(b.line, b.rule.order(), &b.message))
    });
    out.dedup_by(|a, b| a.line == b.line && a.message == b.message);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::ws_file;

    fn proto_findings(src: &str) -> Vec<LintFinding> {
        let file = ws_file("crates/mpisim/src/fake.rs", src);
        findings(&file)
    }

    #[test]
    fn unmatched_send_is_flagged() {
        let src = "\
fn f(w: &mut W, a: usize, b: usize) {
    w.send_nb(a, b, 64);
}
";
        let f = proto_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ProtocolSendWait);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn paired_send_recv_is_clean() {
        let src = "\
fn f(w: &mut W, a: usize, b: usize) {
    w.send_nb(a, b, 64);
    w.recv(b, a, 64);
}
";
        assert!(proto_findings(src).is_empty());
    }

    #[test]
    fn reversed_recv_does_not_pair() {
        // recv(a, b) completes send_nb(b, a); send_nb(a, b) stays open.
        let src = "\
fn f(w: &mut W, a: usize, b: usize) {
    w.send_nb(a, b, 64);
    w.recv(a, b, 64);
}
";
        assert_eq!(proto_findings(src).len(), 1);
    }

    #[test]
    fn wait_all_completes_everything() {
        let src = "\
fn f(w: &mut W, a: usize, b: usize) {
    w.send_nb(a, b, 64);
    w.send_nb(b, a, 64);
    w.wait_all();
}
";
        assert!(proto_findings(src).is_empty());
    }

    #[test]
    fn recv_on_one_branch_only_is_flagged() {
        let src = "\
fn f(w: &mut W, a: usize, b: usize, fast: bool) {
    w.send_nb(a, b, 64);
    if fast {
        w.recv(b, a, 64);
    }
}
";
        assert_eq!(proto_findings(src).len(), 1);
    }

    #[test]
    fn send_loop_then_recv_loop_is_clean() {
        // The osu ring pattern: loops are ExactlyOnce for this rule, so
        // the collection loop's body is guaranteed downstream.
        let src = "\
fn ring(w: &mut W, ranks: &[usize]) {
    for r in 0..ranks.len() {
        w.send_nb(ranks[r], ranks[(r + 1) % ranks.len()], 64);
    }
    for r in 0..ranks.len() {
        w.recv(ranks[(r + 1) % ranks.len()], ranks[r], 64);
    }
}
";
        assert!(proto_findings(src).is_empty());
    }

    #[test]
    fn send_then_question_mark_bail_is_vacuous() {
        let src = "\
fn f(w: &mut W, a: usize, b: usize) -> Result<(), E> {
    w.send_nb(a, b, 64);
    w.step()?;
    w.recv(b, a, 64);
    Ok(())
}
";
        assert!(proto_findings(src).is_empty());
    }

    #[test]
    fn wait_on_unrecorded_event_is_flagged() {
        let src = "\
fn f(rt: &mut Rt, s1: &S, s2: &S, go: bool) {
    let done;
    if go {
        done = rt.event_record(s1);
    } else {
        done = E::null();
    }
    rt.stream_wait_event(s2, &done);
}
";
        let f = proto_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ProtocolEventOrder);
    }

    #[test]
    fn recorded_event_then_wait_is_clean() {
        let src = "\
fn f(rt: &mut Rt, s1: &S, s2: &S) {
    let done = rt.event_record(s1);
    rt.stream_wait_event(s2, &done);
}
";
        assert!(proto_findings(src).is_empty());
    }

    #[test]
    fn event_parameters_are_callers_responsibility() {
        let src = "\
fn f(rt: &mut Rt, s: &S, done: &E) {
    rt.stream_wait_event(s, done);
}
";
        assert!(proto_findings(src).is_empty());
    }

    #[test]
    fn launch_then_memcpy_without_annotate_is_flagged() {
        let src = "\
fn f(rt: &mut Rt, s1: &S, s2: &S, buf: B) {
    rt.launch_kernel(s1, k, 1);
    rt.memcpy_async(s2, buf, 64);
}
";
        let f = proto_findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ProtocolBufferAnnotate);
        assert!(f[0].message.contains("line 2"));
    }

    #[test]
    fn annotate_between_launch_and_memcpy_is_clean() {
        let src = "\
fn f(rt: &mut Rt, s1: &S, s2: &S, buf: B) {
    rt.launch_kernel(s1, k, 1);
    rt.annotate_kernel_buffers(s1, &[], &[buf]);
    rt.memcpy_async(s2, buf, 64);
}
";
        assert!(proto_findings(src).is_empty());
    }

    #[test]
    fn synchronize_also_clears_launches() {
        let src = "\
fn f(rt: &mut Rt, s1: &S, s2: &S, buf: B) {
    rt.launch_kernel(s1, k, 1);
    rt.stream_synchronize(s1);
    rt.memcpy_async(s2, buf, 64);
}
";
        assert!(proto_findings(src).is_empty());
    }

    #[test]
    fn memcpy_before_any_launch_is_clean() {
        let src = "\
fn f(rt: &mut Rt, s: &S, buf: B) {
    rt.memcpy_async(s, buf, 64);
    rt.launch_kernel(s, k, 1);
    rt.device_synchronize();
}
";
        assert!(proto_findings(src).is_empty());
    }

    #[test]
    fn test_regions_are_skipped() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn half_protocol_on_purpose() {
        let mut w = W::new();
        w.send_nb(0, 1, 64);
    }
}
";
        assert!(proto_findings(src).is_empty());
    }

    #[test]
    fn waivers_suppress_protocol_findings() {
        let src = "\
fn f(w: &mut W, a: usize, b: usize) {
    // dessan::allow(protocol-send-wait): completion happens in the caller's epilogue.
    w.send_nb(a, b, 64);
}
";
        assert!(proto_findings(src).is_empty());
    }
}
