//@ path: crates/mpisim/src/fx_hot_alloc.rs
//! `hot-path-alloc` at every depth: an allocation in the hot body itself
//! (depth 0), one two calls away (reported at the call), and the three
//! ways out — a waiver at the site, a waiver at the call, and a
//! `doebench::cold-call` mark. One finding per hot fn: its first
//! allocation that nothing excuses.

struct World {
    scratch: Vec<u8>,
}

impl World {
    // doebench::hot
    fn step(&mut self, n: usize) {
        // dessan::allow(hot-path-alloc): grows once, then reused.
        self.scratch = vec![0u8; n];
        let label = format!("{n}"); //~ hot-path-alloc
        let _ = label;
    }

    // doebench::hot
    fn pump(&mut self) {
        self.advance(); //~ hot-path-alloc
    }

    fn advance(&mut self) {
        self.grow();
    }

    fn grow(&mut self) {
        self.scratch = self.scratch.clone();
    }

    // doebench::hot
    fn drain(&mut self) {
        // dessan::allow(hot-path-alloc): runs once per world, before the timed loop.
        self.advance();
        // doebench::cold-call
        self.report();
    }

    fn report(&self) -> String {
        self.scratch.len().to_string()
    }
}
