//@ path: crates/simtime/src/fx_loop_carried_taint.rs
// CFG edge case: loop-carried taint. `t` is clean on the first
// iteration and tainted on every later one; the may-analysis must carry
// the fact around the back edge and flag the sink inside the loop.

fn storm(n: u64) -> u64 {
    let mut t = 0u64;
    let mut key = 0u64;
    for _ in 0..n {
        key ^= fnv1a64(&t.to_le_bytes()); //~ nondet-taint
        t = seed_from_clock();
    }
    key
}

fn seed_from_clock() -> u64 {
    Instant::now().elapsed().as_nanos() as u64 //~ wall-clock
}
