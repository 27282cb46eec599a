//! `osu_bw`: windowed streaming bandwidth.
//!
//! The sender pushes a window of back-to-back messages; the receiver posts
//! matching receives and returns a small acknowledgment; bandwidth is
//! `window × bytes × iters / elapsed`. (The paper's tables report only
//! latency, but the bandwidth benchmark is part of the OSU suite the
//! artifact describes; it exposes the same eager/rendezvous crossover that
//! `examples/ablations.rs` shows in latency.)

use std::sync::Arc;

use doe_benchlib::{run_reps_par, Summary};
use doe_mpi::{MpiConfig, MpiError, MpiSim, Rank};
use doe_topo::{CoreId, NodeTopology};

use crate::config::OsuConfig;

/// OSU's default window size.
pub const WINDOW: u32 = 64;
/// Size of the acknowledgment message.
const ACK_BYTES: u64 = 4;

/// One point of the bandwidth curve.
#[derive(Clone, Debug)]
pub struct BwPoint {
    /// Message size in bytes.
    pub bytes: u64,
    /// Achieved bandwidth in GB/s (decimal), mean ± σ over runs.
    pub gb_s: Summary,
}

/// Host-buffer streaming bandwidth between ranks pinned to `cores`.
pub fn osu_bw(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    cores: (CoreId, CoreId),
    cfg: &OsuConfig,
    seed: u64,
) -> Vec<BwPoint> {
    cfg.sizes
        .iter()
        .filter(|&&b| b > 0)
        .map(|&bytes| {
            let iters = cfg.iters_for(bytes);
            // Each rep builds its own sim world from the rep index, so
            // reps can run on any pool worker in any order.
            let samples = run_reps_par(cfg.reps, |rep| {
                let mut world = MpiSim::new(
                    Arc::clone(topo),
                    mpi.clone(),
                    seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let a = world.add_host_rank(cores.0).expect("core a");
                let b = world.add_host_rank(cores.1).expect("core b");
                // Warmup window.
                for _ in 0..cfg.warmup.min(4) {
                    world.send(a, b, bytes).expect("send");
                    world.recv(b, a, bytes).expect("recv");
                }
                world.send(b, a, ACK_BYTES).expect("ack");
                world.recv(a, b, ACK_BYTES).expect("ack recv");
                windowed_bandwidth(&mut world, a, b, bytes, iters).expect("timed windows")
            });
            BwPoint {
                bytes,
                gb_s: samples.summary(),
            }
        })
        .collect()
}

/// The timed part of `osu_bw` on any world, node or fabric: after a
/// barrier, `iters` windows of [`WINDOW`] back-to-back `bytes` messages
/// from `a` to `b`, each window closed by an acknowledgment. Returns the
/// achieved bandwidth in GB/s on `a`'s clock.
pub fn windowed_bandwidth(
    world: &mut MpiSim,
    a: Rank,
    b: Rank,
    bytes: u64,
    iters: u32,
) -> Result<f64, MpiError> {
    world.barrier();
    let t0 = world.time(a)?;
    for _ in 0..iters {
        for _ in 0..WINDOW {
            world.send(a, b, bytes)?;
        }
        for _ in 0..WINDOW {
            world.recv(b, a, bytes)?;
        }
        world.send(b, a, ACK_BYTES)?;
        world.recv(a, b, ACK_BYTES)?;
    }
    let dt = world.time(a)?.since(t0);
    Ok(dt.bandwidth_gb_s(bytes * WINDOW as u64 * iters as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::on_socket_pair;
    use doe_simtime::Jitter;
    use doe_topo::{NodeBuilder, NumaId, SocketId};

    fn topo() -> Arc<NodeTopology> {
        Arc::new(
            NodeBuilder::new("bw-test")
                .socket("A")
                .numa(SocketId(0))
                .cores(NumaId(0), 4, 1)
                .build()
                .expect("valid"),
        )
    }

    fn mpi() -> MpiConfig {
        let mut c = MpiConfig::default_host();
        c.jitter = Jitter::NONE;
        c
    }

    #[test]
    fn bandwidth_rises_with_message_size() {
        let t = topo();
        let cores = on_socket_pair(&t).unwrap();
        let pts = osu_bw(&t, &mpi(), cores, &OsuConfig::quick(), 1);
        assert!(pts.len() >= 3);
        let first = pts.first().unwrap().gb_s.mean;
        let last = pts.last().unwrap().gb_s.mean;
        assert!(last > first * 5.0, "first={first} last={last}");
    }

    #[test]
    fn large_message_bandwidth_approaches_shm_bandwidth() {
        let t = topo();
        let cores = on_socket_pair(&t).unwrap();
        let cfg = OsuConfig {
            sizes: vec![1 << 22],
            ..OsuConfig::quick()
        };
        let pts = osu_bw(&t, &mpi(), cores, &cfg, 1);
        let bw = pts[0].gb_s.mean;
        let cap = mpi().shm_bandwidth;
        assert!(bw > cap * 0.5 && bw <= cap * 1.01, "bw={bw}, cap={cap}");
    }

    #[test]
    fn zero_size_is_skipped() {
        let t = topo();
        let cores = on_socket_pair(&t).unwrap();
        let cfg = OsuConfig {
            sizes: vec![0, 1024],
            ..OsuConfig::quick()
        };
        let pts = osu_bw(&t, &mpi(), cores, &cfg, 1);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].bytes, 1024);
    }
}
