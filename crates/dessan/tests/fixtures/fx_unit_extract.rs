//@ path: crates/machines/src/fx_unit_extract.rs
// `unit-extract`: a bare f64 pulled out of a typed quantity in ns or s.
// Every f64 time in the unit-bearing crates is µs, so `.as_us()` is
// clean and mixing typed values does not compile; what is left to catch
// is the extraction itself — in a let binding, in a match-arm guard, and
// in test code. A waived output site stays clean.

fn carried(m: &M) -> f64 {
    let send = m.send.as_us();
    let recv = m.recv.as_ns(); //~ unit-extract
    send + recv
}

fn pick(ms: &[M], budget_us: f64) -> usize {
    let mut best = 0;
    for (i, m) in ms.iter().enumerate() {
        match m.class {
            Class::Cpu if m.lat.as_ns() < budget_us => best = i, //~ unit-extract
            Class::Gpu if m.lat.as_us() < budget_us => best = i,
            _ => {}
        }
    }
    best
}

fn render(d: SimDuration) -> String {
    // dessan::allow(unit-extract): renders seconds for a human reader.
    format!("{:.3}s", d.as_secs())
}

fn norm(a: f64, b: f64) -> SimDuration {
    SimDuration::from_us(a) + SimDuration::from_ns(b)
}

#[cfg(test)]
mod tests {
    #[test]
    fn calibration() {
        assert!(lat().as_secs() < 1e-6); //~ unit-extract
    }
}
