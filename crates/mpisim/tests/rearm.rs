//! Differential test of [`MpiSim::rearm`] against a fresh world.
//!
//! A world is built with one seed, dirtied by a random op sequence, then
//! re-armed with a second seed; a twin is built fresh with the second seed
//! and the same ranks. A second random op sequence must then give the two
//! the same result from every op and the same rank clocks after every op,
//! to the picosecond, on catalog machines, with host and device buffers on
//! both sides of the eager threshold.

use std::sync::Arc;

use doe_machines::all_machines;
use doe_mpi::{MpiConfig, MpiSim, Rank};
use doe_simtime::{SimDuration, SimTime};
use doe_topo::NodeTopology;
use proptest::prelude::*;

/// One operation, with raw rank picks reduced modulo the rank count.
#[derive(Debug, Clone)]
enum Op {
    /// A blocking send from `a` to `b` and its receive.
    Message(usize, usize, u64),
    /// `MpiSim::pingpong` between `a` and `b`.
    PingPong(usize, usize, u64, u32),
    /// Both directions posted with `send_nb` before either receive.
    Exchange(usize, usize, u64),
    Barrier,
    /// Local compute on one rank, in picoseconds.
    Advance(usize, u64),
}

/// Raw size picks: 0 = eager threshold ± 2, 1 = uniform in [0, 4 MiB],
/// 2 = 0 B.
fn size(kind: u8, raw: u64, cfg: &MpiConfig) -> u64 {
    match kind {
        0 => (cfg.eager_threshold + raw % 5).saturating_sub(2),
        1 => raw,
        _ => 0,
    }
}

/// Raw op picks: (kind, a, b, (size kind, size), count).
type RawOp = (u8, usize, usize, (u8, u64), u32);

fn ops() -> impl Strategy<Value = Vec<RawOp>> {
    collection::vec(
        (
            0u8..5,
            any::<usize>(),
            any::<usize>(),
            (0u8..3, 0u64..(4 << 20) + 1),
            1u32..300,
        ),
        0..12,
    )
}

fn decode(raw: &[RawOp], cfg: &MpiConfig) -> Vec<Op> {
    raw.iter()
        .map(|&(kind, a, b, (sk, sv), n)| {
            let bytes = size(sk, sv, cfg);
            match kind {
                0 => Op::Message(a, b, bytes),
                1 => Op::PingPong(a, b, bytes, n),
                2 => Op::Exchange(a, b, bytes),
                3 => Op::Barrier,
                _ => Op::Advance(a, u64::from(n) * 1_000_003),
            }
        })
        .collect()
}

/// A world on `topo` with one rank per placement pick: (core, buffer),
/// buffer `None` for host memory, else a raw device pick.
fn build(
    topo: &Arc<NodeTopology>,
    cfg: &MpiConfig,
    placements: &[(usize, Option<usize>)],
    seed: u64,
) -> (MpiSim, Vec<Rank>) {
    let mut w = MpiSim::new(Arc::clone(topo), cfg.clone(), seed);
    let ndev = topo.devices.len();
    let ranks = placements
        .iter()
        .map(|&(core, dev)| {
            let core = topo.cores[core % topo.cores.len()].id;
            match dev.filter(|_| ndev > 0) {
                Some(d) => w.add_device_rank(core, topo.devices[d % ndev].id),
                None => w.add_host_rank(core),
            }
            .expect("catalog core and device")
        })
        .collect();
    (w, ranks)
}

/// Run `ops` on `w`, returning every op's result and the rank clocks
/// after it.
fn run(w: &mut MpiSim, ranks: &[Rank], ops: &[Op]) -> Vec<SimDuration> {
    let pick = |i: usize| ranks[i % ranks.len()];
    let pair = |a: usize, b: usize| {
        let (ra, mut rb) = (pick(a), pick(b));
        if ra == rb {
            rb = pick(a + 1);
        }
        (ra, rb)
    };
    let since = |t: SimTime| t.since(SimTime::ZERO);
    let mut seen = Vec::new();
    for op in ops {
        match *op {
            Op::Message(a, b, bytes) => {
                let (a, b) = pair(a, b);
                w.send(a, b, bytes).expect("send");
                seen.push(since(w.recv(b, a, bytes).expect("recv")));
            }
            Op::PingPong(a, b, bytes, iters) => {
                let (a, b) = pair(a, b);
                seen.push(w.pingpong(a, b, bytes, iters).expect("pingpong"));
            }
            Op::Exchange(a, b, bytes) => {
                let (a, b) = pair(a, b);
                w.send_nb(a, b, bytes).expect("send a");
                w.send_nb(b, a, bytes).expect("send b");
                seen.push(since(w.recv(b, a, bytes).expect("recv b")));
                seen.push(since(w.recv(a, b, bytes).expect("recv a")));
            }
            Op::Barrier => w.barrier(),
            Op::Advance(r, ps) => w
                .advance(pick(r), SimDuration::from_ns(ps as f64 / 1e3))
                .expect("advance"),
        }
        seen.extend(ranks.iter().map(|&r| since(w.time(r).expect("rank"))));
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rearm_then_ops_equals_new_then_ops(
        machine in 0usize..13,
        raw_placements in collection::vec((any::<usize>(), any::<bool>(), any::<usize>()), 2..5),
        (first_seed, seed) in (any::<u64>(), any::<u64>()),
        dirty in ops(),
        probe in ops(),
    ) {
        let machines = all_machines();
        let m = &machines[machine % machines.len()];
        let placements: Vec<(usize, Option<usize>)> = raw_placements
            .iter()
            .map(|&(core, on_device, dev)| (core, on_device.then_some(dev)))
            .collect();
        let (mut rearmed, ranks) = build(&m.topo, &m.mpi, &placements, first_seed);
        run(&mut rearmed, &ranks, &decode(&dirty, &m.mpi));
        prop_assert!(rearmed.rearm(seed), "a quiescent unchecked world re-arms");
        let (mut fresh, fresh_ranks) = build(&m.topo, &m.mpi, &placements, seed);
        prop_assert_eq!(&ranks, &fresh_ranks);

        let probe = decode(&probe, &m.mpi);
        let want = run(&mut fresh, &ranks, &probe);
        let got = run(&mut rearmed, &ranks, &probe);
        prop_assert_eq!(got, want, "{} {:?}", m.name, probe);
    }
}

#[test]
fn rearm_declines_with_a_message_pending_or_checks_on() {
    let m = &all_machines()[0];
    let (mut w, ranks) = build(&m.topo, &m.mpi, &[(0, None), (1, None)], 1);
    let (a, b) = (ranks[0], ranks[1]);
    w.send(a, b, 8).expect("send");
    let before = w.time(a).expect("rank");
    assert!(!w.rearm(2), "a pending message must not be dropped");
    assert_eq!(
        w.time(a).expect("rank"),
        before,
        "a declined rearm changes nothing"
    );
    w.recv(b, a, 8).expect("recv");
    assert!(w.rearm(2));
    assert_eq!(w.time(a).expect("rank"), SimTime::ZERO);

    w.enable_checks();
    assert!(!w.rearm(3), "a checked world is rebuilt, not re-armed");
}
