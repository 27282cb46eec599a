//@ path: crates/core/src/fx_keycov_streamed_fields.rs
//! A machine digest that streams chosen fields into an FNV-1a sink. With
//! no derived `Debug` to walk the struct, each field must be named in
//! the digest; `shm_latency_us` is not, so two machines differing only
//! in it would share one cache key.

use std::fmt::{self, Write as _};

pub struct Machine {
    pub name: &'static str,
    pub top500_rank: u32,
    pub shm_latency_us: f64, //~ key-coverage
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
    write!(sink, "{}/{}", m.name, m.top500_rank).expect("hashing sink never fails");
    sink.0
}
