//! OSU-style collective benchmarks (`osu_barrier`, `osu_allreduce`)
//! executed over the MPI runtime.
//!
//! These run the *actual algorithms*: every round is real `send`/`recv`
//! calls through the protocol state machine, so placement, the
//! eager/rendezvous crossover and socket or switch-group boundaries all
//! shape the result. The timing loop takes a world source, so the same
//! loop times ranks pinned to one node's cores ([`node_world`]) and ranks
//! on the nodes of a fabric (`MpiSim::on_fabric`).

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

/// A world source for ranks pinned to `cores` of one node: given a
/// repetition's seed, a fresh world and its ranks in `cores` order.
pub fn node_world<'a>(
    topo: &'a Arc<NodeTopology>,
    mpi: &'a MpiConfig,
    cores: &'a [CoreId],
) -> impl Fn(u64) -> (MpiSim, Vec<Rank>) + 'a {
    move |seed| {
        let mut world = MpiSim::new(Arc::clone(topo), mpi.clone(), seed);
        let ranks = cores
            .iter()
            .map(|&c| world.add_host_rank(c).expect("valid core"))
            .collect();
        (world, ranks)
    }
}

/// Mean ± σ (µs) over the configured repetitions of one run of `op`
/// across the ranks of a fresh world from `world` per repetition,
/// averaged over `iters` runs that each end at a barrier.
fn time_collective(
    world: impl Fn(u64) -> (MpiSim, Vec<Rank>),
    cfg: &OsuConfig,
    seed: u64,
    iters: u32,
    mut op: impl FnMut(&mut MpiSim, &[Rank]),
) -> Summary {
    run_reps(cfg.reps, |rep| {
        let rep_seed = seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (mut world, ranks) = world(rep_seed);
        assert!(ranks.len() >= 2, "a collective needs at least two ranks");
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

/// Time one allreduce of `bytes` across the ranks of a fresh world from
/// `world` per repetition, mean ± σ (µs) over the repetitions.
pub fn osu_allreduce(
    world: impl Fn(u64) -> (MpiSim, Vec<Rank>),
    bytes: u64,
    algo: AllreduceAlgo,
    cfg: &OsuConfig,
    seed: u64,
) -> Summary {
    let iters = cfg.iters_for(bytes).min(100);
    time_collective(world, cfg, seed, iters, |world, ranks| match algo {
        AllreduceAlgo::RecursiveDoubling => run_recursive_doubling(world, ranks, bytes),
        AllreduceAlgo::Ring => {
            allreduce_ring(world, ranks, bytes).expect("ring allreduce");
        }
    })
}

/// Time one barrier across the ranks of a fresh world from `world` per
/// repetition, mean ± σ (µs).
pub fn osu_barrier(
    world: impl Fn(u64) -> (MpiSim, Vec<Rank>),
    cfg: &OsuConfig,
    seed: u64,
) -> Summary {
    let iters = cfg.small_iters.min(200);
    time_collective(world, cfg, seed, iters, run_binomial_barrier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::windowed_bandwidth;
    use doe_mpi::{Fabric, FabricConfig, NodeId};
    use doe_simtime::{Jitter, SimDuration};
    use doe_topo::{LinkKind, NodeBuilder, NumaId, SocketId, Vertex};
    use AllreduceAlgo::{RecursiveDoubling, Ring};

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

    /// Mean µs of `algo` at `bytes` on ranks pinned to `cores`.
    fn node_allreduce(cores: &[CoreId], bytes: u64, algo: AllreduceAlgo) -> f64 {
        osu_allreduce(node_world(&topo(), &mpi(), cores), bytes, algo, &cfg(), 1).mean
    }

    /// Mean µs of the barrier on ranks pinned to `cores`.
    fn node_barrier(cores: &[CoreId]) -> f64 {
        osu_barrier(node_world(&topo(), &mpi(), cores), &cfg(), 1).mean
    }

    #[test]
    fn barrier_is_cheaper_than_any_allreduce() {
        let b = node_barrier(&cores(8));
        let a = node_allreduce(&cores(8), 4096, RecursiveDoubling);
        assert!(b > 0.0);
        assert!(a > b, "barrier={b} allreduce={a}");
    }

    #[test]
    fn small_messages_favor_recursive_doubling() {
        let rd = node_allreduce(&cores(8), 64, RecursiveDoubling);
        let ring = node_allreduce(&cores(8), 64, Ring);
        assert!(rd < ring, "rd={rd} ring={ring}");
    }

    #[test]
    fn large_messages_favor_ring() {
        let rd = node_allreduce(&cores(8), 4 << 20, RecursiveDoubling);
        let ring = node_allreduce(&cores(8), 4 << 20, Ring);
        assert!(ring < rd, "rd={rd} ring={ring}");
    }

    #[test]
    fn allreduce_grows_with_rank_count() {
        let small = node_allreduce(&cores(2), 1024, RecursiveDoubling);
        let large = node_allreduce(&cores(16), 1024, RecursiveDoubling);
        assert!(large > small);
    }

    #[test]
    fn cross_socket_ranks_pay_the_upi_hop() {
        let near = node_barrier(&cores(4));
        let far = node_barrier(&[CoreId(0), CoreId(1), CoreId(8), CoreId(9)]);
        assert!(far > near, "near={near} far={far}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn recursive_doubling_rejects_odd_rank_counts() {
        node_allreduce(&cores(3), 64, RecursiveDoubling);
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

    /// One jitter-free run of `algo` at `bytes` across the first `p`
    /// fabric nodes, µs.
    fn fabric_allreduce(p: u32, bytes: u64, algo: AllreduceAlgo) -> f64 {
        osu_allreduce(|_| fabric_world(0..p), bytes, algo, &once(), 1).mean
    }

    /// One repetition of one timed run.
    fn once() -> OsuConfig {
        OsuConfig {
            reps: 1,
            small_iters: 1,
            large_iters: 1,
            ..OsuConfig::quick()
        }
    }

    #[test]
    fn barrier_grows_logarithmically() {
        // 2·3 rounds at 8 nodes, 2·6 at 64: eight times the ranks costs
        // about twice the time, not eight times.
        let b8 = osu_barrier(|_| fabric_world(0..8), &once(), 1).mean;
        let b64 = osu_barrier(|_| fabric_world(0..64), &once(), 1).mean;
        assert!(b8 < b64 && b64 < 3.0 * b8, "8: {b8} 64: {b64}");
    }

    #[test]
    fn small_messages_prefer_recursive_doubling() {
        let rd = fabric_allreduce(64, 8, RecursiveDoubling);
        let ring = fabric_allreduce(64, 8, Ring);
        assert!(rd < ring, "rd={rd} ring={ring}");
    }

    #[test]
    fn large_messages_prefer_ring() {
        let rd = fabric_allreduce(64, 128 << 20, RecursiveDoubling);
        let ring = fabric_allreduce(64, 128 << 20, Ring);
        assert!(ring < rd, "rd={rd} ring={ring}");
    }

    /// Recursive doubling wins small vectors and the ring large ones, but
    /// the winner is monotone in size only within one protocol regime of
    /// the ring's chunks: at 32 nodes the ring wins at 256 KiB (8 KiB
    /// chunks, the last eager size) and loses at 512 KiB and 1 MiB, where
    /// every chunk pays the rendezvous handshake, before winning again.
    #[test]
    fn crossover_is_monotone_within_each_protocol() {
        let (p, eager) = (32, MpiConfig::default_fabric().eager_threshold);
        let mut regimes: [Vec<bool>; 2] = Default::default();
        for shift in 3..28 {
            let bytes = 1u64 << shift;
            let rd = fabric_allreduce(p, bytes, RecursiveDoubling);
            let ring = fabric_allreduce(p, bytes, Ring);
            regimes[usize::from(bytes / u64::from(p) > eager)].push(ring < rd);
        }
        // Each regime opens with recursive doubling ahead and closes with
        // the ring ahead; once the ring wins, it keeps winning.
        for winners in &regimes {
            assert!(!winners[0], "{regimes:?}");
            let first = winners.iter().position(|&w| w).expect("ring wins");
            assert!(winners[first..].iter().all(|&w| w), "{regimes:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Both executed allreduces take longer for a larger vector, on
        /// any rank count the algorithm accepts.
        #[test]
        fn prop_allreduce_monotone(
            log_p in 1u32..7,
            odd in 0u32..2,
            s1 in 1u64..1 << 24,
            s2 in 1u64..1 << 24,
        ) {
            let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
            let p = 1 << log_p;
            let rd = |b| fabric_allreduce(p, b, RecursiveDoubling);
            proptest::prop_assert!(rd(lo) <= rd(hi));
            let ring = |b| fabric_allreduce(p + odd, b, Ring);
            proptest::prop_assert!(ring(lo) <= ring(hi));
        }
    }

    #[test]
    fn ring_handles_odd_rank_counts() {
        assert!(node_allreduce(&cores(3), 4096, Ring) > 0.0);
    }
}
