//! `osu_multi_lat`: point-to-point latency with many concurrent pairs.
//!
//! The paper's stated DOE convention is one MPI rank per core; under that
//! loading, point-to-point latency differs from the quiet two-rank figure
//! because co-located pairs share the socket's memory ports. This
//! benchmark drives `pairs` simultaneous ping-pongs and reports the
//! average one-way latency per pair.

use std::sync::Arc;

use doe_benchlib::{rep_seed, run_reps, Samples, Summary};
use doe_mpi::{MpiConfig, MpiSim, Rank};
use doe_topo::NodeTopology;

use crate::config::OsuConfig;

/// Result of a multi-pair campaign at one message size.
#[derive(Clone, Debug)]
pub struct MultiLatPoint {
    /// Number of concurrent pairs.
    pub pairs: usize,
    /// Average one-way latency per pair, µs.
    pub one_way_us: Summary,
}

/// Build `pairs` rank pairs: pair *i* is (core 2i, core 2i+1) — adjacent
/// cores, the multi-pair layout osu_multi_lat uses.
fn build_pairs(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    pairs: usize,
    seed: u64,
) -> Option<(MpiSim, Vec<(Rank, Rank)>)> {
    if topo.core_count() < pairs * 2 {
        return None;
    }
    let mut world = MpiSim::new(Arc::clone(topo), mpi.clone(), seed);
    let mut out = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let a = world
            .add_host_rank(topo.cores[2 * i].id)
            .expect("core exists");
        let b = world
            .add_host_rank(topo.cores[2 * i + 1].id)
            .expect("core exists");
        out.push((a, b));
    }
    Some((world, out))
}

/// Run the multi-pair latency benchmark at `bytes` for each pair count.
///
/// Returns `None` if the machine lacks cores for the largest pair count.
pub fn osu_multi_lat(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    pair_counts: &[usize],
    bytes: u64,
    cfg: &OsuConfig,
    seed: u64,
) -> Option<Vec<MultiLatPoint>> {
    let max_pairs = *pair_counts.iter().max()?;
    if topo.core_count() < max_pairs * 2 {
        return None;
    }
    let iters = cfg.iters_for(bytes);
    Some(
        pair_counts
            .iter()
            .map(|&pairs| {
                // Each rep builds its own sim world from the rep index.
                let samples = run_reps(cfg.reps, |rep| {
                    let (mut world, rank_pairs) =
                        build_pairs(topo, mpi, pairs, rep_seed(seed, rep))
                            .expect("checked core count");
                    world.barrier();
                    let start = world.time(rank_pairs[0].0).expect("rank");
                    for _ in 0..iters {
                        // All pairs send together, then all receive — the
                        // concurrent phase structure of osu_multi_lat.
                        for &(a, b) in &rank_pairs {
                            world.send(a, b, bytes).expect("send");
                        }
                        for &(a, b) in &rank_pairs {
                            world.recv(b, a, bytes).expect("recv");
                        }
                        for &(a, b) in &rank_pairs {
                            world.send(b, a, bytes).expect("send");
                        }
                        for &(a, b) in &rank_pairs {
                            world.recv(a, b, bytes).expect("recv");
                        }
                    }
                    // Average completion over pairs.
                    let total: f64 = rank_pairs
                        .iter()
                        .map(|&(a, _)| world.time(a).expect("rank").since(start).as_us())
                        .sum();
                    total / rank_pairs.len() as f64 / (2.0 * iters as f64)
                });
                MultiLatPoint {
                    pairs,
                    one_way_us: samples.summary(),
                }
            })
            .collect(),
    )
}

/// Result of a multi-pair bandwidth campaign at one message size.
#[derive(Clone, Debug)]
pub struct MbwMrPoint {
    /// Number of concurrent pairs.
    pub pairs: usize,
    /// Aggregate bandwidth across all pairs, GB/s.
    pub aggregate_gb_s: Summary,
    /// Aggregate message rate, million messages per second.
    pub msg_rate_m_per_s: Summary,
}

/// `osu_mbw_mr`: aggregate multi-pair bandwidth and message rate. Every
/// pair streams a 64-message window concurrently; aggregate throughput is
/// `pairs × window × bytes / elapsed`.
pub fn osu_mbw_mr(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    pair_counts: &[usize],
    bytes: u64,
    cfg: &OsuConfig,
    seed: u64,
) -> Option<Vec<MbwMrPoint>> {
    const WINDOW: u32 = 64;
    let max_pairs = *pair_counts.iter().max()?;
    if topo.core_count() < max_pairs * 2 || bytes == 0 {
        return None;
    }
    let iters = cfg.iters_for(bytes).min(64);
    Some(
        pair_counts
            .iter()
            .map(|&pairs| {
                // One (bandwidth, message-rate) pair per rep, in rep order.
                let mut bw = Samples::new();
                let mut rate = Samples::new();
                for rep in 0..cfg.reps {
                    let (mut world, rank_pairs) =
                        build_pairs(topo, mpi, pairs, rep_seed(seed, rep))
                            .expect("checked core count");
                    world.barrier();
                    let start = world.time(rank_pairs[0].0).expect("rank");
                    for _ in 0..iters {
                        for _ in 0..WINDOW {
                            for &(a, b) in &rank_pairs {
                                world.send(a, b, bytes).expect("send");
                            }
                        }
                        for _ in 0..WINDOW {
                            for &(a, b) in &rank_pairs {
                                world.recv(b, a, bytes).expect("recv");
                            }
                        }
                        for &(a, b) in &rank_pairs {
                            world.send(b, a, 4).expect("ack");
                            world.recv(a, b, 4).expect("ack recv");
                        }
                    }
                    world.barrier();
                    let elapsed = world.time(rank_pairs[0].0).expect("rank").since(start);
                    let messages = pairs as u64 * WINDOW as u64 * iters as u64;
                    bw.push(elapsed.bandwidth_gb_s(messages * bytes));
                    rate.push(messages as f64 / elapsed.as_secs() / 1e6);
                }
                MbwMrPoint {
                    pairs,
                    aggregate_gb_s: bw.summary(),
                    msg_rate_m_per_s: rate.summary(),
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe_simtime::Jitter;
    use doe_topo::{NodeBuilder, NumaId, SocketId};

    fn topo() -> Arc<NodeTopology> {
        Arc::new(
            NodeBuilder::new("multi")
                .socket("A")
                .numa(SocketId(0))
                .cores(NumaId(0), 16, 1)
                .build()
                .expect("valid"),
        )
    }

    fn mpi() -> MpiConfig {
        let mut c = MpiConfig::default_host();
        c.jitter = Jitter::NONE;
        c
    }

    fn cfg() -> OsuConfig {
        let mut c = OsuConfig::quick();
        c.reps = 3;
        c.small_iters = 30;
        c.large_iters = 5;
        c
    }

    #[test]
    fn zero_byte_latency_is_load_insensitive() {
        // Tiny messages barely touch the copy port: latency stays flat.
        let t = topo();
        let pts = osu_multi_lat(&t, &mpi(), &[1, 4, 8], 0, &cfg(), 1).expect("fits");
        let lats: Vec<f64> = pts.iter().map(|p| p.one_way_us.mean).collect();
        assert!(
            (lats[2] - lats[0]).abs() / lats[0] < 0.05,
            "0-byte latency should not degrade: {lats:?}"
        );
    }

    #[test]
    fn large_messages_degrade_with_pair_count() {
        let t = topo();
        let pts = osu_multi_lat(&t, &mpi(), &[1, 4, 8], 64 * 1024, &cfg(), 1).expect("fits");
        let lats: Vec<f64> = pts.iter().map(|p| p.one_way_us.mean).collect();
        assert!(
            lats[2] > lats[0] * 2.0,
            "8 pairs should contend on the copy port: {lats:?}"
        );
        assert!(lats[1] > lats[0], "{lats:?}");
    }

    #[test]
    fn too_many_pairs_is_none() {
        let t = topo();
        assert!(osu_multi_lat(&t, &mpi(), &[100], 0, &cfg(), 1).is_none());
    }

    #[test]
    fn single_pair_matches_osu_latency_scale() {
        let t = topo();
        let pts = osu_multi_lat(&t, &mpi(), &[1], 0, &cfg(), 1).expect("fits");
        // o_s + shm + o_r ~= 0.31 us with the default config.
        assert!(
            (pts[0].one_way_us.mean - 0.31).abs() < 0.05,
            "{}",
            pts[0].one_way_us.mean
        );
    }

    #[test]
    fn message_rate_is_bounded_by_overheads_and_port() {
        let t = topo();
        let pts = osu_mbw_mr(&t, &mpi(), &[1, 4], 8, &cfg(), 1).expect("fits");
        // Small messages: rate limited by per-message software overhead
        // (~0.08 us/msg -> ~12 M msg/s per pair) but pairs run currently.
        assert!(pts[0].msg_rate_m_per_s.mean > 1.0);
        assert!(
            pts[1].msg_rate_m_per_s.mean > pts[0].msg_rate_m_per_s.mean,
            "more pairs should raise the aggregate small-message rate"
        );
    }

    #[test]
    fn aggregate_bandwidth_saturates_at_the_port() {
        let t = topo();
        let pts = osu_mbw_mr(&t, &mpi(), &[1, 4, 8], 64 * 1024, &cfg(), 1).expect("fits");
        let cap = mpi().shm_bandwidth;
        for p in &pts {
            assert!(
                p.aggregate_gb_s.mean <= cap * 1.05,
                "{} pairs exceed the shared port: {}",
                p.pairs,
                p.aggregate_gb_s.mean
            );
        }
        // One pair already fills most of the port for large messages.
        assert!(pts[0].aggregate_gb_s.mean > cap * 0.5);
    }

    #[test]
    fn zero_bytes_is_none() {
        let t = topo();
        assert!(osu_mbw_mr(&t, &mpi(), &[1], 0, &cfg(), 1).is_none());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn results_are_per_pair_count_sorted_as_requested() {
        let t = topo();
        let req = [4usize, 1, 2];
        let pts = osu_multi_lat(&t, &mpi(), &req, 1024, &cfg(), 1).expect("fits");
        for i in 0..req.len() {
            assert_eq!(pts[i].pairs, req[i]);
        }
    }
}
