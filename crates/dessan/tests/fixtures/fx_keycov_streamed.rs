//@ path: crates/core/src/fx_keycov_streamed.rs
//! A machine digest that streams the whole-struct `Debug` rendering into
//! an FNV-1a `fmt::Write` sink instead of hashing a `format!` string.
//! The `{m:?}` literal still walks every field of the derived `Debug`,
//! so every field of `Machine` is covered and nothing is reported.

use std::fmt::{self, Write as _};

#[derive(Clone, Debug)]
pub struct Machine {
    pub name: &'static str,
    pub top500_rank: u32,
    pub shm_latency_us: f64,
}

struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

pub fn machine_digest(m: &Machine) -> u64 {
    let mut sink = Fnv1a(0xCBF2_9CE4_8422_2325);
    write!(sink, "{m:?}").expect("hashing sink never fails");
    sink.0
}
