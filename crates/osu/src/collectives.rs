//! OSU-style collective benchmarks (`osu_barrier`, `osu_allreduce`)
//! executed over the MPI runtime.
//!
//! Unlike `doe_mpi::collectives` (closed-form LogGP-style models), these
//! run the *actual algorithms* — every round is real `send`/`recv` calls
//! through the protocol state machine, so placement, eager/rendezvous
//! crossover, and socket boundaries all shape the result.

use std::sync::Arc;

use doe_benchlib::{run_reps, Summary};
use doe_mpi::{MpiConfig, MpiError, MpiSim, Rank};
use doe_simtime::SimTime;
use doe_topo::{CoreId, NodeTopology};

use crate::config::OsuConfig;

/// Allreduce algorithm to execute.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllreduceAlgo {
    /// log₂ P exchange rounds of the full vector (P must be a power of 2).
    RecursiveDoubling,
    /// 2(P−1) ring steps of `bytes/P` (any P ≥ 2).
    Ring,
}

fn finish_time(world: &MpiSim, ranks: &[Rank]) -> SimTime {
    ranks
        .iter()
        .map(|&r| world.time(r).expect("rank"))
        .max()
        .expect("nonempty")
}

/// Pairwise exchange between two ranks (both directions in flight).
///
/// Uses nonblocking sends, as real `MPI_Sendrecv`/allreduce internals do —
/// with blocking standard-mode sends this head-to-head pattern deadlocks
/// in the rendezvous regime (and `--check` would flag it).
fn exchange(world: &mut MpiSim, a: Rank, b: Rank, bytes: u64) {
    world.send_nb(a, b, bytes).expect("send");
    world.send_nb(b, a, bytes).expect("send");
    world.recv(a, b, bytes).expect("recv");
    world.recv(b, a, bytes).expect("recv");
}

fn run_recursive_doubling(world: &mut MpiSim, ranks: &[Rank], bytes: u64) {
    let p = ranks.len();
    assert!(
        p.is_power_of_two(),
        "recursive doubling needs a power of two"
    );
    let mut stride = 1;
    while stride < p {
        // Each pair (r, r ^ stride) exchanges the full vector.
        for r in 0..p {
            let partner = r ^ stride;
            if r < partner {
                exchange(world, ranks[r], ranks[partner], bytes);
            }
        }
        stride <<= 1;
    }
}

/// One ring allreduce of `bytes` across `ranks`, on any world, node or
/// fabric; returns the clock of the slowest rank. Ring neighbours follow
/// the order of `ranks`, so placement (packed in one switch group, spread
/// across groups) shapes the result.
pub fn allreduce_ring(world: &mut MpiSim, ranks: &[Rank], bytes: u64) -> Result<SimTime, MpiError> {
    let p = ranks.len();
    if p < 2 {
        return Err(MpiError::InvalidRank(p));
    }
    let chunk = (bytes / p as u64).max(1);
    // Reduce-scatter then allgather: 2(P-1) steps; in each step every rank
    // sends a chunk to its successor and receives from its predecessor.
    // Nonblocking sends: a ring of blocking rendezvous sends is a classic
    // deadlock cycle, which is why real ring allreduces use Isend/Irecv.
    for _ in 0..(2 * (p - 1)) {
        for r in 0..p {
            let next = (r + 1) % p;
            world.send_nb(ranks[r], ranks[next], chunk)?;
        }
        for r in 0..p {
            let prev = (r + p - 1) % p;
            world.recv(ranks[r], ranks[prev], chunk)?;
        }
    }
    Ok(finish_time(world, ranks))
}

fn run_binomial_barrier(world: &mut MpiSim, ranks: &[Rank]) {
    let p = ranks.len();
    // Gather to rank 0 (binomial tree), then broadcast back down.
    let mut stride = 1;
    while stride < p {
        for r in (0..p).step_by(stride * 2) {
            let partner = r + stride;
            if partner < p {
                world.send(ranks[partner], ranks[r], 0).expect("send");
                world.recv(ranks[r], ranks[partner], 0).expect("recv");
            }
        }
        stride <<= 1;
    }
    while stride > 1 {
        stride >>= 1;
        for r in (0..p).step_by(stride * 2) {
            let partner = r + stride;
            if partner < p {
                world.send(ranks[r], ranks[partner], 0).expect("send");
                world.recv(ranks[partner], ranks[r], 0).expect("recv");
            }
        }
    }
}

/// Mean ± σ (µs) over the configured repetitions of one run of `op`
/// across ranks pinned to `cores`, averaged over `iters` runs that each
/// end at a barrier.
fn time_collective(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    cores: &[CoreId],
    cfg: &OsuConfig,
    seed: u64,
    iters: u32,
    mut op: impl FnMut(&mut MpiSim, &[Rank]),
) -> Summary {
    run_reps(cfg.reps, |rep| {
        let rep_seed = seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut world = MpiSim::new(Arc::clone(topo), mpi.clone(), rep_seed);
        let ranks: Vec<Rank> = cores
            .iter()
            .map(|&c| world.add_host_rank(c).expect("valid core"))
            .collect();
        world.barrier();
        let t0 = finish_time(&world, &ranks);
        for _ in 0..iters {
            op(&mut world, &ranks);
            world.barrier();
        }
        finish_time(&world, &ranks).since(t0).as_us() / iters as f64
    })
    .summary()
}

/// Time one allreduce of `bytes` across ranks pinned to `cores`,
/// mean ± σ (µs) over the configured repetitions.
pub fn osu_allreduce(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    cores: &[CoreId],
    bytes: u64,
    algo: AllreduceAlgo,
    cfg: &OsuConfig,
    seed: u64,
) -> Summary {
    assert!(cores.len() >= 2, "allreduce needs at least two ranks");
    let iters = cfg.iters_for(bytes).min(100);
    time_collective(
        topo,
        mpi,
        cores,
        cfg,
        seed,
        iters,
        |world, ranks| match algo {
            AllreduceAlgo::RecursiveDoubling => run_recursive_doubling(world, ranks, bytes),
            AllreduceAlgo::Ring => {
                allreduce_ring(world, ranks, bytes).expect("ring allreduce");
            }
        },
    )
}

/// Time one barrier across ranks pinned to `cores`, mean ± σ (µs).
pub fn osu_barrier(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    cores: &[CoreId],
    cfg: &OsuConfig,
    seed: u64,
) -> Summary {
    assert!(cores.len() >= 2, "barrier needs at least two ranks");
    let iters = cfg.small_iters.min(200);
    time_collective(topo, mpi, cores, cfg, seed, iters, run_binomial_barrier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::windowed_bandwidth;
    use doe_mpi::{Fabric, FabricConfig, NodeId};
    use doe_simtime::{Jitter, SimDuration};
    use doe_topo::{LinkKind, NodeBuilder, NumaId, SocketId, Vertex};

    fn topo() -> Arc<NodeTopology> {
        Arc::new(
            NodeBuilder::new("coll")
                .socket("A")
                .socket("B")
                .numa(SocketId(0))
                .numa(SocketId(1))
                .cores(NumaId(0), 8, 1)
                .cores(NumaId(1), 8, 1)
                .link(
                    Vertex::Numa(NumaId(0)),
                    Vertex::Numa(NumaId(1)),
                    LinkKind::Upi,
                    SimDuration::from_ns(200.0),
                    40.0,
                )
                .build()
                .expect("valid"),
        )
    }

    fn mpi() -> MpiConfig {
        let mut c = MpiConfig::default_host();
        c.jitter = Jitter::NONE;
        c
    }

    fn cores(n: u32) -> Vec<CoreId> {
        (0..n).map(CoreId).collect()
    }

    fn cfg() -> OsuConfig {
        let mut c = OsuConfig::quick();
        c.reps = 3;
        c.small_iters = 20;
        c.large_iters = 5;
        c
    }

    #[test]
    fn barrier_is_cheaper_than_any_allreduce() {
        let t = topo();
        let b = osu_barrier(&t, &mpi(), &cores(8), &cfg(), 1);
        let a = osu_allreduce(
            &t,
            &mpi(),
            &cores(8),
            4096,
            AllreduceAlgo::RecursiveDoubling,
            &cfg(),
            1,
        );
        assert!(b.mean > 0.0);
        assert!(a.mean > b.mean, "barrier={} allreduce={}", b.mean, a.mean);
    }

    #[test]
    fn small_messages_favor_recursive_doubling() {
        let t = topo();
        let rd = osu_allreduce(
            &t,
            &mpi(),
            &cores(8),
            64,
            AllreduceAlgo::RecursiveDoubling,
            &cfg(),
            1,
        );
        let ring = osu_allreduce(&t, &mpi(), &cores(8), 64, AllreduceAlgo::Ring, &cfg(), 1);
        assert!(rd.mean < ring.mean, "rd={} ring={}", rd.mean, ring.mean);
    }

    #[test]
    fn large_messages_favor_ring() {
        let t = topo();
        let bytes = 4 << 20;
        let rd = osu_allreduce(
            &t,
            &mpi(),
            &cores(8),
            bytes,
            AllreduceAlgo::RecursiveDoubling,
            &cfg(),
            1,
        );
        let ring = osu_allreduce(&t, &mpi(), &cores(8), bytes, AllreduceAlgo::Ring, &cfg(), 1);
        assert!(ring.mean < rd.mean, "rd={} ring={}", rd.mean, ring.mean);
    }

    #[test]
    fn allreduce_grows_with_rank_count() {
        let t = topo();
        let small = osu_allreduce(
            &t,
            &mpi(),
            &cores(2),
            1024,
            AllreduceAlgo::RecursiveDoubling,
            &cfg(),
            1,
        );
        let large = osu_allreduce(
            &t,
            &mpi(),
            &cores(16),
            1024,
            AllreduceAlgo::RecursiveDoubling,
            &cfg(),
            1,
        );
        assert!(large.mean > small.mean);
    }

    #[test]
    fn cross_socket_ranks_pay_the_upi_hop() {
        let t = topo();
        let same_socket: Vec<CoreId> = (0..4).map(CoreId).collect();
        let cross: Vec<CoreId> = vec![CoreId(0), CoreId(1), CoreId(8), CoreId(9)];
        let near = osu_barrier(&t, &mpi(), &same_socket, &cfg(), 1);
        let far = osu_barrier(&t, &mpi(), &cross, &cfg(), 1);
        assert!(far.mean > near.mean, "near={} far={}", near.mean, far.mean);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn recursive_doubling_rejects_odd_rank_counts() {
        let t = topo();
        osu_allreduce(
            &t,
            &mpi(),
            &[CoreId(0), CoreId(1), CoreId(2)],
            64,
            AllreduceAlgo::RecursiveDoubling,
            &cfg(),
            1,
        );
    }

    /// A jitter-free world on the Slingshot-like fabric, one rank on each
    /// of `nodes`, after a barrier.
    fn fabric_world(nodes: impl IntoIterator<Item = u32>) -> (MpiSim, Vec<Rank>) {
        let mut nic = MpiConfig::default_fabric();
        nic.jitter = Jitter::NONE;
        let fabric = Fabric::new(FabricConfig::slingshot_like());
        let mut w = MpiSim::on_fabric(fabric, nic, 1).expect("valid config");
        let ranks = nodes
            .into_iter()
            .map(|n| w.add_node_rank(NodeId(n)).expect("node"));
        let ranks = ranks.collect();
        w.barrier();
        (w, ranks)
    }

    #[test]
    fn packed_allreduce_beats_spread_allreduce() {
        // 8 ranks packed in one group, or spread one per group so that
        // every ring hop crosses a global link.
        let (mut packed, packed_ranks) = fabric_world(0..8);
        let (mut spread, spread_ranks) = fabric_world((0..8).map(|i| i * 16));
        let t_packed = allreduce_ring(&mut packed, &packed_ranks, 1 << 20).expect("allreduce");
        let t_spread = allreduce_ring(&mut spread, &spread_ranks, 1 << 20).expect("allreduce");
        assert!(
            t_spread > t_packed,
            "spread {t_spread:?} packed {t_packed:?}"
        );
    }

    #[test]
    fn allreduce_needs_two_ranks() {
        let (mut w, ranks) = fabric_world([0]);
        assert!(allreduce_ring(&mut w, &ranks, 1024).is_err());
    }

    /// The ring's 256 KiB chunks would close a wait cycle of rendezvous
    /// sends if the ring posted blocking sends; `send_nb` keeps the
    /// sanitizer quiet, as it keeps real MPI from hanging.
    #[test]
    fn checked_collectives_run_clean() {
        let (mut w, ranks) = fabric_world(0..4);
        w.enable_checks();
        allreduce_ring(&mut w, &ranks, 1 << 20).expect("allreduce");
        windowed_bandwidth(&mut w, ranks[0], ranks[1], 1 << 16, 2).expect("bw");
        assert!(w.check_findings().is_empty(), "{:?}", w.check_findings());
    }

    #[test]
    fn ring_handles_odd_rank_counts() {
        let t = topo();
        let s = osu_allreduce(
            &t,
            &mpi(),
            &[CoreId(0), CoreId(1), CoreId(2)],
            4096,
            AllreduceAlgo::Ring,
            &cfg(),
            1,
        );
        assert!(s.mean > 0.0);
    }
}
