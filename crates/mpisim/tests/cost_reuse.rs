//! Differential tests of the per-message cost reuse in [`MpiSim`].
//!
//! A world prices a `(from, to, bytes)` message once and reuses its scaled
//! latency and serialization for the next identical send. The reuse must
//! end wherever the costs can change: at a re-arm (a new run factor) and
//! when the fabric changes under a fabric world (a new contended
//! bandwidth). Each test compares a world that reused costs across such a
//! change with a fresh world that never saw the old costs.

use std::sync::Arc;

use doe_machines::all_machines;
use doe_mpi::{Fabric, FabricConfig, MpiConfig, MpiSim, NodeId, Rank};
use doe_simtime::SimDuration;

/// Eager, at the threshold, rendezvous and large sizes.
fn sizes(cfg: &MpiConfig) -> [u64; 4] {
    [8, cfg.eager_threshold, cfg.eager_threshold + 1, 1 << 22]
}

/// One message from `a` to `b` after a barrier: its time on the
/// receiver's clock from the barrier to the receive.
fn message(w: &mut MpiSim, a: Rank, b: Rank, bytes: u64) -> SimDuration {
    w.barrier();
    let t0 = w.time(b).expect("rank");
    w.send(a, b, bytes).expect("send");
    w.recv(b, a, bytes).expect("recv").since(t0)
}

/// A world on a Slingshot-like fabric with ranks on nodes 0 and 16
/// (different groups), and background flows on group 0 when `flows > 0`.
fn fabric_world(flows: u32, seed: u64) -> (MpiSim, Rank, Rank) {
    let mut fabric = Fabric::new(FabricConfig::slingshot_like());
    if flows > 0 {
        fabric.add_background_flows(0, flows);
    }
    let mut w = MpiSim::on_fabric(fabric, MpiConfig::default_fabric(), seed).expect("fabric");
    let a = w.add_node_rank(NodeId(0)).expect("node");
    let b = w.add_node_rank(NodeId(16)).expect("node");
    (w, a, b)
}

#[test]
fn a_flow_added_between_two_equal_sends_prices_the_second_on_the_new_fabric() {
    let cfg = MpiConfig::default_fabric();
    for seed in [1, 2, 3] {
        for bytes in sizes(&cfg) {
            let (mut w, a, b) = fabric_world(0, seed);
            let quiet = message(&mut w, a, b, bytes);
            w.fabric_mut()
                .expect("fabric world")
                .add_background_flows(0, 3);
            let after = message(&mut w, a, b, bytes);

            let (mut fresh, fa, fb) = fabric_world(3, seed);
            let want = message(&mut fresh, fa, fb, bytes);
            assert_eq!(after, want, "seed {seed}, {bytes} B");
            assert_ne!(quiet, want, "seed {seed}, {bytes} B: the flow must matter");

            // And back: removing the flow restores the quiet costs.
            w.fabric_mut()
                .expect("fabric world")
                .remove_background_flows(0, 3);
            assert_eq!(
                message(&mut w, a, b, bytes),
                quiet,
                "seed {seed}, {bytes} B"
            );
        }
    }
}

/// Two host ranks, on a node's first and last cores, of a world on `m`.
fn node_world(m: &doe_machines::Machine, seed: u64) -> (MpiSim, Rank, Rank) {
    let mut w = MpiSim::new(Arc::clone(&m.topo), m.mpi.clone(), seed);
    let cores = &m.topo.cores;
    let a = w.add_host_rank(cores[0].id).expect("core");
    let b = w.add_host_rank(cores[cores.len() - 1].id).expect("core");
    (w, a, b)
}

#[test]
fn a_rearmed_world_reprices_the_messages_it_sent_before() {
    for m in all_machines() {
        for bytes in sizes(&m.mpi) {
            let (mut w, a, b) = node_world(&m, 11);
            let before = w.pingpong(a, b, bytes, 3).expect("pingpong");
            for seed in [12, 13] {
                assert!(w.rearm(seed));
                let got = w.pingpong(a, b, bytes, 3).expect("pingpong");
                let (mut fresh, fa, fb) = node_world(&m, seed);
                let want = fresh.pingpong(fa, fb, bytes, 3).expect("pingpong");
                assert_eq!(got, want, "{} seed {seed}, {bytes} B", m.name);
                assert_eq!(w.time(a), fresh.time(fa), "{}", m.name);
                assert_ne!(
                    got, before,
                    "{} seed {seed}: the run factor must matter",
                    m.name
                );
            }
        }
    }
}

#[test]
fn more_distinct_messages_than_the_reuse_keeps_price_as_a_fresh_world() {
    // Six distinct (from, to, bytes) keys in rotation evict every entry
    // before its next use, so each send is priced again; a world that
    // sends each key once, fresh, must agree with every round.
    let m = &all_machines()[0];
    let (mut w, a, b) = node_world(m, 5);
    let keys = [
        (a, b, 8),
        (b, a, 8),
        (a, b, 64),
        (b, a, 64),
        (a, b, 1 << 20),
        (b, a, 1 << 20),
    ];
    for round in 0..3 {
        for &(x, y, bytes) in &keys {
            let got = message(&mut w, x, y, bytes);
            let (mut fresh, fa, fb) = node_world(m, 5);
            let (fx, fy) = if x == a { (fa, fb) } else { (fb, fa) };
            assert_eq!(got, message(&mut fresh, fx, fy, bytes), "round {round}");
        }
    }
}
