//! Fuzzing a fabric world: random schedules over random placements keep
//! clocks monotone, stay deterministic, and respect the fabric's
//! contention invariants.

use doe_mpi::{Fabric, FabricConfig, MpiConfig, MpiSim, NodeId};
use doe_osu::{allreduce_ring, pingpong_once};
use doe_simtime::{Jitter, SimTime};
use proptest::prelude::*;

fn world(jitter: f64, seed: u64) -> MpiSim {
    let mut nic = MpiConfig::default_fabric();
    nic.jitter = if jitter == 0.0 {
        Jitter::NONE
    } else {
        Jitter::relative(jitter)
    };
    MpiSim::on_fabric(Fabric::new(FabricConfig::slingshot_like()), nic, seed).expect("config")
}

#[derive(Debug, Clone)]
struct Step {
    from_first: bool,
    bytes: u64,
}

fn schedule() -> impl Strategy<Value = (u32, u32, Vec<Step>)> {
    (
        0u32..128,
        0u32..128,
        prop::collection::vec(
            (any::<bool>(), 0u64..500_000)
                .prop_map(|(from_first, bytes)| Step { from_first, bytes }),
            1..60,
        ),
    )
}

fn run(
    node_a: u32,
    node_b: u32,
    steps: &[Step],
    seed: u64,
    jitter: f64,
) -> Option<(SimTime, SimTime)> {
    let mut w = world(jitter, seed);
    let a = w.add_node_rank(NodeId(node_a)).ok()?;
    let b = w.add_node_rank(NodeId(node_b)).ok()?;
    for s in steps {
        let (src, dst) = if s.from_first { (a, b) } else { (b, a) };
        w.send(src, dst, s.bytes).ok()?;
        w.recv(dst, src, s.bytes).ok()?;
    }
    Some((w.time(a).ok()?, w.time(b).ok()?))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Clocks advance monotonically through any schedule.
    #[test]
    fn clocks_are_monotone((na, nb, steps) in schedule(), seed in any::<u64>()) {
        prop_assume!(na != nb);
        let mut w = world(0.01, seed);
        let a = w.add_node_rank(NodeId(na)).expect("valid node");
        let b = w.add_node_rank(NodeId(nb)).expect("valid node");
        let (mut ta, mut tb) = (SimTime::ZERO, SimTime::ZERO);
        for s in &steps {
            let (src, dst) = if s.from_first { (a, b) } else { (b, a) };
            w.send(src, dst, s.bytes).expect("send");
            w.recv(dst, src, s.bytes).expect("recv");
            let (na_t, nb_t) = (w.time(a).expect("a"), w.time(b).expect("b"));
            prop_assert!(na_t >= ta && nb_t >= tb);
            ta = na_t;
            tb = nb_t;
        }
    }

    /// Identical (seed, schedule) runs are bit-identical.
    #[test]
    fn runs_are_deterministic((na, nb, steps) in schedule(), seed in any::<u64>()) {
        prop_assume!(na != nb);
        let r1 = run(na, nb, &steps, seed, 0.02);
        let r2 = run(na, nb, &steps, seed, 0.02);
        prop_assert_eq!(r1, r2);
    }

    /// Background flows never *reduce* a transfer's completion time.
    #[test]
    fn contention_never_helps(bytes in 1u64..4_000_000, flows in 1u32..16) {
        let quiet = {
            let mut w = world(0.0, 1);
            let a = w.add_node_rank(NodeId(0)).expect("node");
            let b = w.add_node_rank(NodeId(16)).expect("node");
            pingpong_once(&mut w, a, b, bytes, 0, 5)
        };
        let noisy = {
            let mut w = world(0.0, 1);
            let a = w.add_node_rank(NodeId(0)).expect("node");
            let b = w.add_node_rank(NodeId(16)).expect("node");
            w.fabric_mut().expect("fabric").add_background_flows(0, flows);
            pingpong_once(&mut w, a, b, bytes, 0, 5)
        };
        prop_assert!(noisy >= quiet * 0.999, "noisy {noisy} < quiet {quiet}");
    }

    /// Ring allreduce completion grows with message size, and with rank
    /// count *when both runs use the same protocol*. (Crossing the eager
    /// threshold can legitimately make a larger ring faster: smaller
    /// chunks skip the rendezvous handshake — a real MPI crossover.)
    #[test]
    fn allreduce_scales_monotonically(p1 in 2u32..8, p2 in 2u32..8, shift in 10u32..22) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let time_for = |p: u32, bytes: u64| {
            let mut w = world(0.0, 1);
            let ranks: Vec<_> = (0..p).map(|i| w.add_node_rank(NodeId(i)).expect("node")).collect();
            w.barrier();
            allreduce_ring(&mut w, &ranks, bytes).expect("allreduce")
        };
        let bytes = 1u64 << shift;
        let threshold = MpiConfig::default_fabric().eager_threshold;
        let same_protocol =
            (bytes / lo as u64 <= threshold) == (bytes / hi as u64 <= threshold);
        if same_protocol {
            prop_assert!(time_for(hi, bytes) >= time_for(lo, bytes));
        }
        prop_assert!(time_for(lo, bytes * 4) >= time_for(lo, bytes));
    }
}
