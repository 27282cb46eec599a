//@ path: crates/simtime/src/fx_early_return_taint.rs
// CFG edge case: a function with an early `return` on one branch and a
// tainted tail expression on the other. The taint summary must join both
// exit paths, and the caller's sink (reached only on the fallthrough)
// must still be reported with the full source -> sink chain.

fn pick_seed(fast: bool) -> u64 {
    if fast {
        return 42;
    }
    let t = Instant::now().elapsed().as_nanos() as u64; //~ wall-clock
    t
}

fn drive(rows: &mut T, fast: bool) {
    let seed = pick_seed(fast);
    rows.push_row(seed); //~ nondet-taint
}
