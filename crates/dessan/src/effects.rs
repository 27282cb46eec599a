//! Interprocedural effect summaries and declared effect contracts.
//!
//! A bottom-up fixpoint over the workspace call graph ([`crate::callgraph`])
//! computes, for every function, the set of *observable effects* its
//! transitive call closure can exhibit:
//!
//! | effect        | detected from                                           |
//! |---------------|---------------------------------------------------------|
//! | `alloc`       | the hot-path-alloc vocabulary (`Box::new`, `vec!`, …)   |
//! | `wall-clock`  | `Instant::now` / `SystemTime::now`                      |
//! | `rng`         | `thread_rng` / `rand::random`                           |
//! | `env-read`    | `env::var` / `env::vars`                                |
//! | `hash-iter`   | iteration methods in a body that names `HashMap`/`HashSet` |
//! | `locks`       | `.lock(` — mutex acquisition                            |
//! | `blocks`      | `Condvar::wait` on a lock guard, `.join()`, `.recv()`, `thread::sleep` |
//! | `io`          | `fs::` / `Command::` / socket and stdio handles         |
//!
//! Detection is token-level and deliberately conservative: the clock,
//! RNG, env and hash-container names come from the lint's shared hazard
//! table (`lint::HAZARDS`). Resolution reuses the call graph's
//! under-approximate name resolution, and a `// doebench::cold-call`
//! marker cuts the walk at a call site (the marked call is off the
//! measured path).
//!
//! The summaries drive two rules. `hot-path-alloc` reports every
//! `// doebench::hot` fn whose own summary has `alloc`: an allocation in
//! its body or in any fn it reaches. An allocation site or a call line
//! waived with `// dessan::allow(hot-path-alloc): <reason>` adds no
//! `alloc`. The other rule checks *declared contracts*: a
//! `// doebench::effects(pure)` marker before a `fn` forbids every
//! effect except allocation in the fn's whole call closure (allocation
//! is deterministic — it cannot change a result, only its cost, and the
//! hot-path rules already police cost), and
//! `// doebench::effects(no-block)` forbids OS-level blocking (`blocks`)
//! — the contract the daemon cache lookups and the query cells rely
//! on. A violation reports the full call chain from the contract fn to
//! the effect site and is waived with
//! `// dessan::allow(effect-contract): <reason>` at the contract fn.
//!
//! The `blocks` effect discriminates a `Condvar::wait(guard)` from the
//! simulated `world.wait(req)` of the MPI runtime by requiring the
//! argument to be a guard variable bound from a `.lock()` in the same
//! body — simulated waits advance virtual time and are exactly what
//! `no-block` code is supposed to do instead of parking the OS thread.

use std::collections::BTreeMap;

use crate::callgraph::{body_allocs, body_calls, Alloc, CallIndex, Node, WsFile};
use crate::lex::TokKind;
use crate::lint::{is_hash_container, LintFinding, Rule, HAZARDS};

/// One observable effect class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Heap allocation (permitted under `pure`; the hot-path rules own it).
    Alloc,
    /// Host wall-clock read.
    WallClock,
    /// Unseeded randomness.
    Rng,
    /// Environment-variable read.
    EnvRead,
    /// Iteration in unspecified hash order.
    HashIter,
    /// Mutex acquisition.
    Locks,
    /// OS-level blocking: condvar wait, thread join, channel recv, sleep.
    Blocks,
    /// Filesystem / process / socket / stdio I/O.
    Io,
}

impl Effect {
    /// The effect a read pattern of the hazard table exhibits.
    fn of_hazard(rule: Rule) -> Option<Effect> {
        match rule {
            Rule::WallClock => Some(Effect::WallClock),
            Rule::AdHocRng => Some(Effect::Rng),
            Rule::EnvRead => Some(Effect::EnvRead),
            _ => None,
        }
    }

    /// Human-readable effect name used in messages.
    pub fn name(self) -> &'static str {
        match self {
            Effect::Alloc => "allocation",
            Effect::WallClock => "wall-clock read",
            Effect::Rng => "unseeded randomness",
            Effect::EnvRead => "environment read",
            Effect::HashIter => "hash-order iteration",
            Effect::Locks => "lock acquisition",
            Effect::Blocks => "OS-level blocking",
            Effect::Io => "I/O",
        }
    }
}

/// Where an effect in a summary comes from: a description of the concrete
/// site and the call chain from the summary's owner down to it.
#[derive(Clone, Debug)]
pub struct Origin {
    /// The concrete site, e.g. "`Instant::now` at crates/x/src/y.rs:12".
    pub desc: String,
    /// Line in the owner's body where the effect enters: the site itself,
    /// or the call that reaches it.
    pub line: usize,
    /// Function names from the summary owner down to the effect site.
    /// Capped at [`CHAIN_CAP`] entries.
    pub chain: Vec<String>,
}

/// Longest chain kept in an [`Origin`]; deeper chains are truncated with
/// the site description still exact.
pub const CHAIN_CAP: usize = 12;

/// A function's effect summary: each effect present maps to the first
/// (deterministically chosen) origin that introduced it.
pub type EffectSet = BTreeMap<Effect, Origin>;

/// The workspace's effect summaries: the effect set of every non-test fn
/// with a body.
pub type Summaries = BTreeMap<Node, EffectSet>;

/// Guard variables bound from a `.lock(` in one body's code-token stream:
/// every `X` in `let [mut] X = … .lock( …` up to the statement's `;`.
/// Shared with [`crate::locks`], which uses the same discrimination.
pub(crate) fn guard_vars(texts: &[&str], kinds: &[TokKind]) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < texts.len() {
        if texts[k] == "let" {
            let mut n = k + 1;
            if texts.get(n).copied() == Some("mut") {
                n += 1;
            }
            if n + 1 < texts.len()
                && matches!(kinds[n], TokKind::Ident | TokKind::RawIdent)
                && texts[n + 1] == "="
            {
                let name = texts[n];
                let mut j = n + 2;
                while j < texts.len() && texts[j] != ";" {
                    if texts[j] == "."
                        && texts.get(j + 1).copied() == Some("lock")
                        && texts.get(j + 2).copied() == Some("(")
                    {
                        out.push(name.to_string());
                        break;
                    }
                    j += 1;
                }
                k = n + 1;
                continue;
            }
        }
        k += 1;
    }
    out
}

/// The effects a single body exhibits directly, with their sites.
/// `sig_line` widens only the hash-container name scan to the signature,
/// where the container type usually appears (`m: &HashMap<..>`).
fn direct_effects(
    file: &WsFile,
    sig_line: usize,
    body: std::ops::Range<usize>,
) -> Vec<(Effect, String, usize)> {
    let src = &file.src;
    let tokens = &file.tokens;
    let code: Vec<usize> = body.clone().filter(|&i| tokens[i].kind.is_code()).collect();
    let texts: Vec<&str> = code.iter().map(|&i| tokens[i].text(src)).collect();
    let kinds: Vec<TokKind> = code.iter().map(|&i| tokens[i].kind).collect();
    let line_of = |k: usize| tokens[code[k]].line;
    let seq_at = |k: usize, pat: &[&str]| {
        k + pat.len() <= texts.len() && (0..pat.len()).all(|j| texts[k + j] == pat[j])
    };
    let mut out: Vec<(Effect, String, usize)> = Vec::new();
    let mut push = |eff: Effect, what: &str, line: usize| {
        // First site per effect wins; later duplicates add nothing.
        if !out.iter().any(|(e, _, _)| *e == eff) {
            out.push((eff, format!("`{what}` at {}:{line}", file.path), line));
        }
    };

    let waived = |a: &Alloc| file.items.waived(Rule::HotPathAlloc.id(), a.line);
    if let Some(a) = body_allocs(src, tokens, body.clone())
        .iter()
        .find(|a| !waived(a))
    {
        push(Effect::Alloc, a.token, a.line);
    }

    let guards = guard_vars(&texts, &kinds);
    let has_hash = (0..tokens.len()).any(|i| {
        tokens[i].line >= sig_line
            && i < body.end
            && matches!(tokens[i].kind, TokKind::Ident)
            && is_hash_container(tokens[i].text(src))
    });

    for k in 0..texts.len() {
        let line = line_of(k);
        // wall-clock, rng, env-read: the read patterns of the hazard table.
        for &(rule, display, pattern, reads) in &HAZARDS {
            if let Some(eff) = Effect::of_hazard(rule).filter(|_| reads && seq_at(k, pattern)) {
                push(eff, display, line);
            }
        }
        // hash-iter: iteration methods only count in a body that names a
        // hash container at all — cheap and quiet on BTree-only code.
        if has_hash
            && texts[k] == "."
            && texts.get(k + 2).copied() == Some("(")
            && matches!(
                texts.get(k + 1).copied(),
                Some("iter" | "iter_mut" | "keys" | "values" | "drain")
            )
        {
            push(
                Effect::HashIter,
                &format!(".{}( over a hash container", texts[k + 1]),
                line,
            );
        }
        // locks
        if seq_at(k, &[".", "lock", "("]) {
            push(Effect::Locks, ".lock(", line);
        }
        // blocks
        if texts[k] == "."
            && matches!(
                texts.get(k + 1).copied(),
                Some("wait" | "wait_timeout" | "wait_while")
            )
            && texts.get(k + 2).copied() == Some("(")
        {
            if let Some(arg) = texts.get(k + 3) {
                if guards.iter().any(|g| g == arg) {
                    push(Effect::Blocks, &format!("Condvar::{}", texts[k + 1]), line);
                }
            }
        }
        // The code-token stream drops literals, so `ids.join(",")` would
        // read as `.join()` here; demand the parens be literally adjacent
        // (trivia only between them) in the raw token stream.
        let empty_parens = |k: usize| {
            seq_at(k, &["(", ")"])
                && tokens[code[k] + 1..code[k + 1]].iter().all(|t| {
                    matches!(
                        t.kind,
                        TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment
                    )
                })
        };
        if seq_at(k, &[".", "join"]) && empty_parens(k + 2) {
            push(Effect::Blocks, ".join()", line);
        }
        if (seq_at(k, &[".", "recv"]) && empty_parens(k + 2))
            || seq_at(k, &[".", "recv_timeout", "("])
        {
            push(Effect::Blocks, ".recv()", line);
        }
        if seq_at(k, &["thread", ":", ":", "sleep"]) {
            push(Effect::Blocks, "thread::sleep", line);
        }
        // io
        if seq_at(k, &["fs", ":", ":"]) {
            push(Effect::Io, "fs::", line);
        }
        if seq_at(k, &["Command", ":", ":"]) {
            push(Effect::Io, "Command::", line);
        }
        if matches!(texts[k], "File" | "TcpListener" | "TcpStream" | "UdpSocket") {
            push(Effect::Io, texts[k], line);
        }
        if matches!(texts[k], "stdin" | "stdout" | "stderr")
            && texts.get(k + 1).copied() == Some("(")
        {
            push(Effect::Io, &format!("{}(", texts[k]), line);
        }
    }
    out
}

/// Compute the effect summary of every non-test function with a body.
/// Deterministic: nodes are iterated in `(file, fn)` order, calls in line
/// order, and the first origin recorded for an effect is kept.
pub fn summaries(files: &[WsFile]) -> Summaries {
    let index = CallIndex::build(files);
    let mut sets = Summaries::new();
    let mut calls: BTreeMap<Node, Vec<(Node, usize)>> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.items.fns.iter().enumerate() {
            if f.in_test || f.body_tokens.is_empty() {
                continue;
            }
            let node = (fi, gi);
            let mut set = EffectSet::new();
            for (eff, desc, line) in direct_effects(file, f.sig_line, f.body_tokens.clone()) {
                set.insert(
                    eff,
                    Origin {
                        desc,
                        line,
                        chain: vec![f.name.clone()],
                    },
                );
            }
            sets.insert(node, set);
            let mut es = Vec::new();
            for call in body_calls(&file.src, &file.tokens, f.body_tokens.clone()) {
                if file.items.cold_call_at(call.line) {
                    continue;
                }
                for target in index.resolve(&call, node, files) {
                    if target != node && !es.contains(&(target, call.line)) {
                        es.push((target, call.line));
                    }
                }
            }
            calls.insert(node, es);
        }
    }
    // Monotone fixpoint: effects only accumulate, so this terminates.
    loop {
        let mut pending: Vec<(Node, Effect, Origin)> = Vec::new();
        for (&node, es) in &calls {
            let have = &sets[&node];
            let caller = &files[node.0].items;
            for &(callee, line) in es {
                let Some(cs) = sets.get(&callee) else {
                    continue;
                };
                let alloc_waived = caller.waived(Rule::HotPathAlloc.id(), line);
                for (&eff, origin) in cs {
                    let cut = eff == Effect::Alloc && alloc_waived;
                    if cut
                        || have.contains_key(&eff)
                        || pending.iter().any(|(n, e, _)| *n == node && *e == eff)
                    {
                        continue;
                    }
                    let mut chain = vec![caller.fns[node.1].name.clone()];
                    chain.extend(origin.chain.iter().take(CHAIN_CAP - 1).cloned());
                    pending.push((
                        node,
                        eff,
                        Origin {
                            desc: origin.desc.clone(),
                            line,
                            chain,
                        },
                    ));
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        for (node, eff, origin) in pending {
            sets.get_mut(&node).unwrap().entry(eff).or_insert(origin);
        }
    }
    sets
}

/// `hot-path-alloc`: every `// doebench::hot` fn whose summary has
/// [`Effect::Alloc`], reported at the allocation in its own body or at
/// the call that reaches one, with the chain from the hot fn down to it.
pub fn hot_alloc_findings(files: &[WsFile], sums: &Summaries) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for (&(fi, gi), set) in sums {
        let f = &files[fi].items.fns[gi];
        let Some(origin) = set.get(&Effect::Alloc).filter(|_| f.hot) else {
            continue;
        };
        let via = if origin.chain.len() > 1 {
            format!(" via {}", origin.chain.join(" -> "))
        } else {
            String::new()
        };
        out.push(LintFinding {
            rule: Rule::HotPathAlloc,
            path: files[fi].path.clone(),
            line: origin.line,
            message: format!(
                "hot fn `{}` allocates per call: {}{via}; hoist it into an arena, pool or scratch buffer, or behind a `#[cold]` fn or a `// doebench::cold-call` call",
                f.name, origin.desc,
            ),
            chain: origin.chain.clone(),
        });
    }
    out
}

/// Effects a contract forbids.
fn forbidden(contract: &str) -> &'static [Effect] {
    match contract {
        "pure" => &[
            Effect::WallClock,
            Effect::Rng,
            Effect::EnvRead,
            Effect::HashIter,
            Effect::Locks,
            Effect::Blocks,
            Effect::Io,
        ],
        "no-block" => &[Effect::Blocks],
        _ => &[],
    }
}

/// Check every declared `doebench::effects(...)` contract against the
/// computed summaries. Findings report at the contract fn's signature
/// line with the full call chain to the offending site.
pub fn contract_findings(files: &[WsFile], sums: &Summaries) -> Vec<LintFinding> {
    let mut out = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        for (gi, f) in file.items.fns.iter().enumerate() {
            let Some(contract) = &f.effects else {
                continue;
            };
            let Some(set) = sums.get(&(fi, gi)) else {
                continue;
            };
            if file.items.waived(Rule::EffectContract.id(), f.sig_line) {
                continue;
            }
            for &eff in forbidden(contract) {
                let Some(origin) = set.get(&eff) else {
                    continue;
                };
                let via = if origin.chain.len() > 1 {
                    format!(" via {}", origin.chain.join(" -> "))
                } else {
                    String::new()
                };
                out.push(LintFinding {
                    rule: Rule::EffectContract,
                    path: file.path.clone(),
                    line: f.sig_line,
                    message: format!(
                        "fn `{}` declares `doebench::effects({contract})` but its call closure has {}: {}{via}",
                        f.name,
                        eff.name(),
                        origin.desc,
                    ),
                    chain: origin.chain.clone(),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::ws_file;

    fn single(src: &str) -> Vec<LintFinding> {
        let files = [ws_file("crates/x/src/lib.rs", src)];
        contract_findings(&files, &summaries(&files))
    }

    #[test]
    fn direct_blocking_violates_no_block() {
        let src = "\
// doebench::effects(no-block)
fn lane() {
    std::thread::sleep(std::time::Duration::from_millis(1));
}
";
        let f = single(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::EffectContract);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("thread::sleep"), "{}", f[0].message);
    }

    #[test]
    fn two_hop_chain_is_reported() {
        let src = "\
// doebench::effects(no-block)
fn entry() {
    step();
}
fn step() {
    park();
}
fn park(h: std::thread::JoinHandle<()>) {
    h.join();
}
";
        let f = single(src);
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("entry -> step -> park"),
            "{}",
            f[0].message
        );
        assert_eq!(f[0].chain, vec!["entry", "step", "park"]);
    }

    #[test]
    fn pure_permits_alloc_but_not_io_or_clock() {
        let clean = "\
// doebench::effects(pure)
fn digest(s: &str) -> String {
    format!(\"{s}\")
}
";
        assert!(single(clean).is_empty());
        let dirty = "\
// doebench::effects(pure)
fn digest(s: &str) -> u64 {
    let t = Instant::now();
    0
}
";
        let f = single(dirty);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("wall-clock"), "{}", f[0].message);
    }

    #[test]
    fn condvar_wait_needs_a_guard_argument() {
        // A guard-typed wait blocks; a simulated wait on a request does not.
        let real = "\
// doebench::effects(no-block)
fn w(&self) {
    let mut st = self.state.lock().unwrap();
    st = self.done.wait(st).unwrap();
}
";
        let f = single(real);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("Condvar::wait"), "{}", f[0].message);
        let simulated = "\
// doebench::effects(no-block)
fn w(world: &mut World, req: Req) {
    world.wait(req);
}
";
        assert!(single(simulated).is_empty());
    }

    #[test]
    fn cold_call_cuts_the_effect_walk() {
        let src = "\
// doebench::effects(no-block)
fn entry() {
    // doebench::cold-call
    diagnostics();
}
fn diagnostics(h: std::thread::JoinHandle<()>) {
    h.join();
}
";
        assert!(single(src).is_empty());
    }

    #[test]
    fn waiver_at_the_contract_fn_suppresses() {
        let src = "\
// doebench::effects(no-block)
// dessan::allow(effect-contract): startup-only path, measured region excluded.
fn entry(h: std::thread::JoinHandle<()>) {
    h.join();
}
";
        assert!(single(src).is_empty());
    }

    #[test]
    fn summaries_subsume_transitive_hot_alloc() {
        // The rule reads the hot root's own summary: the finding sits at
        // the call and carries the chain down to the allocation.
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
        let files = [ws_file("crates/x/src/lib.rs", src)];
        let trans = hot_alloc_findings(&files, &summaries(&files));
        assert_eq!(trans.len(), 1);
        assert_eq!(trans[0].line, 3);
        assert_eq!(trans[0].chain, vec!["pump", "step", "grow"]);
        assert!(
            trans[0].message.contains("`vec!` at crates/x/src/lib.rs:9"),
            "{}",
            trans[0].message
        );
    }

    #[test]
    fn hot_alloc_waivers_cover_the_site_and_the_call() {
        let src = "\
// doebench::hot
fn pump(&mut self) {
    // dessan::allow(hot-path-alloc): grows once, then reused.
    self.buf = vec![0u8; 64];
    let s = format!(\"x\");
    // dessan::allow(hot-path-alloc): warm-up only.
    grow();
}
fn grow() {
    let v = vec![0u8; 64];
}
";
        let files = [ws_file("crates/x/src/lib.rs", src)];
        let f = hot_alloc_findings(&files, &summaries(&files));
        assert_eq!(f.len(), 1);
        assert_eq!(
            (f[0].line, f[0].chain.clone()),
            (5, vec!["pump".to_string()])
        );
        assert!(f[0].message.contains("`format!`"), "{}", f[0].message);
    }

    #[test]
    fn recursion_terminates_and_keeps_effects() {
        let src = "\
// doebench::effects(no-block)
fn a() { b(); }
fn b(rx: std::sync::mpsc::Receiver<u32>) { a(); rx.recv(); }
";
        let f = single(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains(".recv()"), "{}", f[0].message);
    }

    #[test]
    fn hash_iter_only_with_hash_container_in_body() {
        let pure_btree = "\
// doebench::effects(pure)
fn render(m: &std::collections::BTreeMap<u32, u32>) -> u32 {
    m.values().sum()
}
";
        assert!(single(pure_btree).is_empty());
        let hashy = "\
// doebench::effects(pure)
fn render(m: &HashMap<u32, u32>) -> u32 {
    m.values().sum()
}
";
        let f = single(hashy);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("hash-order"), "{}", f[0].message);
    }
}
