//! Steady-state fast-forward over loops of identical iterations.
//!
//! A simulated runtime draws every cost once, and every step of an
//! iteration is a `max` or a `+` of integer picoseconds over its clocks
//! and its in-order [`Engine`] tails. So once two consecutive iteration
//! boundaries are equal up to a shift `Δ` (clocks taken relative to the
//! earliest one, tails clamped up to it), every later iteration repeats
//! the last one `Δ` later, and [`repeat`] replaces the remaining `k` by
//! one shift of `k·Δ` (DESIGN.md §3).

use crate::engine::Engine;
use crate::time::{SimDuration, SimTime};

/// A runtime's state as the fast-forward sees it, borrowed at once.
pub struct Parts<'a> {
    /// Every clock: one per rank, or the single host clock.
    pub clocks: &'a mut [SimTime],
    /// Every in-order engine, in an order that only ever appends.
    pub engines: [&'a mut [Engine]; 2],
    /// Any other state the next iteration depends on, compared for
    /// equality (a GPU runtime's current device).
    pub mode: usize,
    /// The recorded boundary, kept in the runtime for its buffer.
    pub boundary: &'a mut Boundary,
}

/// The clocks, then the engine tails, and the mode at one iteration
/// boundary.
#[derive(Debug, Default)]
pub struct Boundary {
    times: Vec<SimTime>,
    nclocks: usize,
    mode: usize,
}

/// The earliest of `clocks`: no later operation starts before it.
fn earliest(clocks: &[SimTime]) -> SimTime {
    clocks.iter().copied().min().unwrap_or(SimTime::ZERO)
}

/// Every engine tail, in engine order.
fn tails<'e>(engines: &'e [&mut [Engine]; 2]) -> impl Iterator<Item = SimTime> + 'e {
    let [a, b] = engines;
    a.iter().chain(b.iter()).map(Engine::busy_until)
}

impl Parts<'_> {
    /// Overwrite the boundary with the current state (allocation-free
    /// once its buffer is sized).
    fn record(&mut self) {
        let b = &mut *self.boundary;
        b.times.clear();
        b.times
            .extend(self.clocks.iter().copied().chain(tails(&self.engines)));
        b.nclocks = self.clocks.len();
        b.mode = self.mode;
    }

    /// `Some(Δ)` when the state is the recorded boundary shifted by `Δ`,
    /// and every engine the last iteration wrote can be told from one it
    /// left alone.
    fn shift(&self) -> Option<SimDuration> {
        let b = &*self.boundary;
        if self.mode != b.mode || self.clocks.len() != b.nclocks {
            return None;
        }
        let (clocks, tails0) = b.times.split_at(b.nclocks);
        let (m0, m1) = (earliest(clocks), earliest(self.clocks));
        let delta = m1.since(m0);
        let clocks_match = clocks
            .iter()
            .zip(self.clocks.iter())
            .all(|(&c0, &c1)| c0.since(m0) == c1.since(m1));
        if !clocks_match {
            return None;
        }
        let mut now = tails(&self.engines);
        for &e0 in tails0 {
            let e1 = now.next()?;
            // A write never lands before the iteration began, so an engine
            // that kept its tail either sat idle or was rewritten with the
            // same instant, and the latter needs the tail to be exactly
            // `m0`. With `Δ > 0` that case is ambiguous: wait for a
            // boundary where the two differ.
            let ambiguous = !delta.is_zero() && e1 == e0 && e0 == m0;
            if ambiguous || e0.max(m0).since(m0) != e1.max(m1).since(m1) {
                return None;
            }
        }
        // Engines are only ever added, so equal counts mean the same set.
        now.next().is_none().then_some(delta)
    }

    /// Move every clock, and every engine that moved since the recorded
    /// boundary, `shift` later. In steady state each iteration writes the
    /// same engines, every write moves its engine forward and an engine it
    /// leaves alone stays put, so these are exactly the engines the
    /// skipped iterations would have moved.
    fn fast_forward(&mut self, shift: SimDuration) {
        for c in self.clocks.iter_mut() {
            *c += shift;
        }
        let [a, b] = &mut self.engines;
        let before = &self.boundary.times[self.boundary.nclocks..];
        for (e, &before) in a.iter_mut().chain(b.iter_mut()).zip(before) {
            if e.busy_until() != before {
                e.occupy_until(e.busy_until() + shift);
            }
        }
    }
}

/// Run `step` `iters` times on `rt`, leaving `rt` bit-identical to a plain
/// loop. With `fast` (the runtime's own preconditions hold), the boundary
/// after the first iteration is recorded through `parts` and each later
/// one compared with its predecessor; the first match ends the loop with
/// one shift. `step` must depend on `rt` only through `parts`' state.
// doebench::hot
pub fn repeat<R, E>(
    rt: &mut R,
    iters: u64,
    fast: bool,
    parts: fn(&mut R) -> Parts<'_>,
    mut step: impl FnMut(&mut R) -> Result<(), E>,
) -> Result<(), E> {
    for done in 1..=iters {
        step(rt)?;
        // Compare only with iterations left to skip, and record only
        // with a comparison still to come.
        let left = iters - done;
        if !fast || left == 0 {
            continue;
        }
        let mut p = parts(rt);
        if done > 1 {
            if let Some(delta) = p.shift() {
                p.fast_forward(delta * left);
                break;
            }
        }
        if left > 1 {
            p.record();
        }
    }
    Ok(())
}

/// Run `step` twice on `rt` and return the loop's period: `Some(P)` when
/// the first iteration moved the earliest clock by `P` and the second
/// boundary is the first shifted by `P`. Every later iteration then
/// repeats the one before it `P` later, so any `n` iterations run back to
/// back from `rt`'s starting state, whether in one call or in batches,
/// move the earliest clock by exactly `n·P`, and a caller that reads only
/// those times can compute them instead of running the loop. Without
/// `fast` both iterations still run and the answer is `None`.
pub fn period<R, E>(
    rt: &mut R,
    fast: bool,
    parts: fn(&mut R) -> Parts<'_>,
    mut step: impl FnMut(&mut R) -> Result<(), E>,
) -> Result<Option<SimDuration>, E> {
    let m0 = earliest(parts(rt).clocks);
    step(rt)?;
    let mut p = parts(rt);
    let first = earliest(p.clocks).since(m0);
    if fast {
        p.record();
    }
    step(rt)?;
    Ok(if fast {
        parts(rt).shift().filter(|&delta| delta == first)
    } else {
        None
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Clocks, engines and a mode: every part the compare step reads.
    #[derive(Default)]
    struct Toy {
        clocks: Vec<SimTime>,
        engines: Vec<Engine>,
        mode: usize,
        boundary: Boundary,
    }

    fn toy_parts(t: &mut Toy) -> Parts<'_> {
        Parts {
            clocks: &mut t.clocks,
            engines: [&mut t.engines, &mut []],
            mode: t.mode,
            boundary: &mut t.boundary,
        }
    }

    fn ps(x: u64) -> SimDuration {
        SimDuration::from_ps(x)
    }

    /// One rank copies through engine 0, the other receives 5 ps after
    /// the copy ends; both clocks then meet. Engine 1 stays idle.
    fn round(t: &mut Toy) -> Result<(), ()> {
        let (_, end) = t.engines[0].enqueue(t.clocks[0] + ps(2), ps(3));
        let done = t.clocks[1].max(end + ps(5));
        t.clocks.fill(done);
        Ok(())
    }

    #[test]
    fn skipped_iterations_land_where_the_plain_loop_does() {
        let start = || Toy {
            clocks: vec![SimTime::ZERO, SimTime::from_ps(4)],
            engines: vec![Engine::new(), Engine::new()],
            ..Toy::default()
        };
        let (mut plain, mut fast) = (start(), start());
        let mut ran = 0;
        for _ in 0..1_000 {
            round(&mut plain).unwrap();
        }
        repeat(&mut fast, 1_000, true, toy_parts, |t| {
            ran += 1;
            round(t)
        })
        .unwrap();
        assert_eq!(ran, 2);
        assert_eq!(fast.clocks, plain.clocks);
        let tails = |t: &Toy| t.engines.iter().map(Engine::busy_until).collect::<Vec<_>>();
        assert_eq!(tails(&fast), tails(&plain));
    }

    #[test]
    fn a_period_holds_only_from_the_first_iteration() {
        let start = |c1: u64| Toy {
            clocks: vec![SimTime::ZERO, SimTime::from_ps(c1)],
            engines: vec![Engine::new(), Engine::new()],
            ..Toy::default()
        };
        // Both clocks start together: every round takes 10 ps.
        let mut t = start(0);
        assert_eq!(period(&mut t, true, toy_parts, round), Ok(Some(ps(10))));
        assert_eq!(t.clocks, vec![SimTime::from_ps(20); 2]);
        // Rank 1 starts late, so the first round is longer than the
        // period the second boundary shows.
        let mut t = start(40);
        assert_eq!(period(&mut t, true, toy_parts, round), Ok(None));
        // Without `fast` nothing is compared, but both rounds run.
        let mut t = start(0);
        assert_eq!(period(&mut t, false, toy_parts, round), Ok(None));
        assert_eq!(t.clocks, vec![SimTime::from_ps(20); 2]);
    }

    #[test]
    fn a_mode_change_is_never_skipped() {
        let mut t = Toy {
            clocks: vec![SimTime::ZERO],
            ..Toy::default()
        };
        let mut ran = 0;
        repeat(&mut t, 100, true, toy_parts, |t| {
            ran += 1;
            t.mode ^= 1;
            t.clocks[0] += ps(1);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(ran, 100);
        assert_eq!(t.clocks[0], SimTime::from_ps(100));
    }
}
