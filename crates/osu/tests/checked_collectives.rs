//! The OSU collectives under the `--check` sanitizer: every nonblocking
//! send they post is received before its world drops.
//!
//! `exchange` and `run_ring` are the only callers of `MpiSim::send_nb`.
//! An unanswered send changes no timing the benchmark reads, so only the
//! sanitizer's leak check on world drop sees it: deleting one `recv`
//! from `exchange` leaves a 1 MiB `msg-leak` finding here.

use doe_machines::cpu::sawtooth;
use doe_osu::{osu_allreduce, osu_barrier, AllreduceAlgo, OsuConfig};
use doe_topo::SocketId;

#[test]
fn collectives_leave_no_sanitizer_findings() {
    dessan::set_checks_enabled(true);
    dessan::take_global_findings(); // start from a drained sink

    let m = sawtooth();
    // Four ranks per socket: eight is a power of two, as recursive
    // doubling needs, and half of every exchange crosses the sockets.
    let cores: Vec<_> = [SocketId(0), SocketId(1)]
        .into_iter()
        .flat_map(|s| m.topo.cores_of_socket(s).into_iter().take(4))
        .collect();
    assert_eq!(cores.len(), 8);
    let cfg = OsuConfig {
        small_iters: 4,
        large_iters: 2,
        reps: 2,
        ..OsuConfig::quick()
    };

    for bytes in [64, 1 << 20] {
        for algo in [AllreduceAlgo::RecursiveDoubling, AllreduceAlgo::Ring] {
            let s = osu_allreduce(&m.topo, &m.mpi, &cores, bytes, algo, &cfg, 1);
            assert!(s.mean > 0.0, "{algo:?} at {bytes} B");
        }
    }
    let b = osu_barrier(&m.topo, &m.mpi, &cores, &cfg, 1);
    assert!(b.mean > 0.0);

    let findings = dessan::take_global_findings();
    assert!(findings.is_empty(), "sanitizer findings: {findings:#?}");
}
