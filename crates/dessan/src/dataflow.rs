//! A small forward worklist dataflow solver over [`crate::cfg::Cfg`].
//!
//! Analyses define a join-semilattice of facts ([`Lattice`]) and a
//! per-block transfer function; [`solve`] iterates to a fixpoint and
//! returns the fact on entry to each block. The caller then replays the
//! transfer function inside interesting blocks to get per-step facts —
//! this keeps the solver oblivious to step structure.
//!
//! The lattice is expressed as a destructive join (`join(&mut self, other)
//! -> changed`) so may-analyses (set union) and must-analyses
//! (`Option<Set>` with `None` = ⊤, intersection otherwise) both fit
//! without allocation churn.

use crate::cfg::Cfg;

/// A join-semilattice fact. `join` merges `other` into `self` and reports
/// whether `self` changed — the solver's termination signal. Joins must be
/// monotone (repeated joins eventually stop changing).
pub trait Lattice: Clone + PartialEq {
    fn join(&mut self, other: &Self) -> bool;
}

/// Solve a forward dataflow problem to fixpoint.
///
/// * `boundary` — the fact on entry to the entry block.
/// * `init` — the optimistic initial fact for every other block (⊥ for
///   may-analyses, ⊤ for must-analyses).
/// * `transfer(block, input) -> output` — the per-block transfer function.
///
/// Returns the fact on entry to every block, joined over its incoming
/// edges. Blocks unreachable from entry keep `init`.
pub fn solve<F, T>(cfg: &Cfg, boundary: F, init: F, mut transfer: T) -> Vec<F>
where
    F: Lattice,
    T: FnMut(usize, &F) -> F,
{
    let n = cfg.blocks.len();
    let mut input: Vec<F> = vec![init; n];
    input[cfg.entry] = boundary;

    let mut on_list = vec![false; n];
    let mut worklist: Vec<usize> = (0..n).collect();
    for w in &worklist {
        on_list[*w] = true;
    }
    // Belt over monotonicity bugs: cap total iterations far above what a
    // well-behaved analysis needs; bail silently (facts stay sound-ish,
    // the analyses only ever *report*, never rewrite).
    let mut fuel = n * 64 + 256;

    while let Some(b) = worklist.pop() {
        on_list[b] = false;
        if fuel == 0 {
            break;
        }
        fuel -= 1;
        let out = transfer(b, &input[b]);
        for &next in &cfg.blocks[b].succs {
            if input[next].join(&out) && !on_list[next] {
                on_list[next] = true;
                worklist.push(next);
            }
        }
    }
    input
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build, Block, Cfg};
    use crate::items::parse_source;
    use std::collections::BTreeSet;

    /// May-analysis fact: a set with union join.
    #[derive(Clone, PartialEq, Default, Debug)]
    struct Union(BTreeSet<&'static str>);

    impl Lattice for Union {
        fn join(&mut self, other: &Self) -> bool {
            let before = self.0.len();
            self.0.extend(other.0.iter().copied());
            self.0.len() != before
        }
    }

    /// Must-analysis fact: `None` = ⊤ (unvisited), otherwise intersect.
    #[derive(Clone, PartialEq, Debug)]
    struct Must(Option<BTreeSet<&'static str>>);

    impl Lattice for Must {
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

    fn diamond() -> crate::cfg::Cfg {
        let src = "fn f(c: bool) { if c { t(); } else { e(); } after(); }";
        let (tokens, items) = parse_source(src);
        build(src, &tokens, items.fns[0].body_tokens.clone())
    }

    #[test]
    fn forward_union_reaches_join_from_both_branches() {
        let cfg = diamond();
        // Mark each non-empty block with its own label; union them forward.
        let facts = solve(
            &cfg,
            Union(BTreeSet::from(["start"])),
            Union::default(),
            |b, input| {
                let mut out = input.clone();
                if b != 0 && !cfg.blocks[b].steps.is_empty() {
                    out.0.insert(if b % 2 == 0 { "even" } else { "odd" });
                }
                out
            },
        );
        // Exit sees "start" plus whatever the branches added.
        assert!(facts[cfg.exit].0.contains("start"));
        assert!(facts[cfg.exit].0.len() >= 2);
    }

    #[test]
    fn forward_must_intersects_at_joins() {
        let cfg = diamond();
        // Gen a branch-specific fact in each branch block; the join keeps
        // only what BOTH paths establish.
        let branch_blocks: Vec<usize> = cfg.blocks[cfg.entry].succs.clone();
        let facts = solve(&cfg, Must(Some(BTreeSet::new())), Must(None), |b, input| {
            let mut out = input.clone();
            if let Some(s) = &mut out.0 {
                s.insert("always");
                if b == branch_blocks[0] {
                    s.insert("left-only");
                }
            }
            out
        });
        let at_exit = facts[cfg.exit].0.as_ref().unwrap();
        assert!(at_exit.contains("always"));
        assert!(!at_exit.contains("left-only"));
    }

    #[test]
    fn loop_fixpoint_terminates_and_propagates_around_back_edge() {
        // The builder lowers loops without back edges, but the solver must
        // still reach a fixpoint on any graph: entry 0 -> head 3 -> body 4
        // -> head 3, and head 3 -> exit 1 (abort 2 unreachable).
        let block = |succs: Vec<usize>| Block {
            steps: Vec::new(),
            succs,
        };
        let cfg = Cfg {
            blocks: vec![
                block(vec![3]),
                block(vec![]),
                block(vec![]),
                block(vec![4, 1]),
                block(vec![3]),
            ],
            entry: 0,
            exit: 1,
            abort: 2,
        };
        // Gen "looped" inside the loop body; forward-union: it must reach
        // the loop head via the back edge and the exit.
        let facts = solve(
            &cfg,
            Union(BTreeSet::new()),
            Union::default(),
            |b, input| {
                let mut out = input.clone();
                if b == 4 {
                    out.0.insert("looped");
                }
                out
            },
        );
        assert!(facts[cfg.exit].0.contains("looped"));
        assert!(facts[3].0.contains("looped"));
        assert!(facts[cfg.abort].0.is_empty());
    }

    #[test]
    fn unreachable_blocks_keep_init() {
        let src = "fn f() { return; }";
        let (tokens, items) = parse_source(src);
        let cfg = build(src, &tokens, items.fns[0].body_tokens.clone());
        let facts = solve(
            &cfg,
            Union(BTreeSet::from(["live"])),
            Union::default(),
            |_, input| input.clone(),
        );
        // The abort block is unreachable here and keeps the init fact.
        assert!(facts[cfg.abort].0.is_empty());
        assert!(facts[cfg.exit].0.contains("live"));
    }
}
