//! The OSU collectives under the `--check` sanitizer: every nonblocking
//! send they post is received before its world drops, on a node and on a
//! fabric.
//!
//! `exchange` and `allreduce_ring` are the only callers of
//! `MpiSim::send_nb`. An unanswered send changes no timing the benchmark
//! reads, so only the sanitizer's leak check on world drop sees it:
//! deleting one `recv` from `exchange` leaves a 1 MiB `msg-leak` finding
//! here.

use doe_machines::cpu::sawtooth;
use doe_mpi::{Fabric, FabricConfig, MpiConfig, MpiSim, NodeId, Rank};
use doe_osu::{node_world, osu_allreduce, osu_barrier, AllreduceAlgo, OsuConfig};
use doe_topo::SocketId;

/// Runs both allreduces at a small and a rendezvous-sized message, and
/// the barrier, on worlds from `world` with the sanitizer on.
fn run_checked(world: impl Fn(u64) -> (MpiSim, Vec<Rank>)) -> Vec<String> {
    dessan::set_checks_enabled(true);
    dessan::take_global_findings(); // start from a drained sink
    let cfg = OsuConfig {
        small_iters: 4,
        large_iters: 2,
        reps: 2,
        ..OsuConfig::quick()
    };
    for bytes in [64, 1 << 20] {
        for algo in [AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::Ring] {
            let s = osu_allreduce(&world, bytes, algo, &cfg, 1);
            assert!(s.mean > 0.0, "{algo:?} at {bytes} B");
        }
    }
    let b = osu_barrier(&world, &cfg, 1);
    assert!(b.mean > 0.0);
    dessan::take_global_findings()
}

/// The inter-node table's world: one rank on each of the Slingshot-like
/// fabric's first 64 nodes, four switch groups, so ring and exchange
/// messages cross global links as well as edge links.
fn fabric_world(seed: u64) -> (MpiSim, Vec<Rank>) {
    let fabric = Fabric::new(FabricConfig::slingshot_like());
    let mut w = MpiSim::on_fabric(fabric, MpiConfig::default_fabric(), seed).expect("valid config");
    let ranks = (0..64)
        .map(|n| w.add_node_rank(NodeId(n)).expect("node"))
        .collect();
    (w, ranks)
}

/// One test, not two: the sanitizer's switch and findings sink are
/// process-global, so a second test draining the sink at its start could
/// swallow this one's findings.
#[test]
fn collectives_leave_no_sanitizer_findings() {
    let m = sawtooth();
    // Four ranks per socket: eight is a power of two, as recursive
    // doubling needs, and half of every exchange crosses the sockets.
    let cores: Vec<_> = [SocketId(0), SocketId(1)]
        .into_iter()
        .flat_map(|s| m.topo.cores_of_socket(s).into_iter().take(4))
        .collect();
    assert_eq!(cores.len(), 8);
    let findings = run_checked(node_world(&m.topo, &m.mpi, &cores));
    assert!(findings.is_empty(), "node findings: {findings:#?}");
    let findings = run_checked(fabric_world);
    assert!(findings.is_empty(), "fabric findings: {findings:#?}");
}
