//! `osu_latency`: blocking ping-pong, one-way latency = round-trip / 2.

use std::sync::Arc;

use doe_benchlib::{parallel_map_init, Samples, Summary};
use doe_mpi::{MpiConfig, MpiSim, Rank};
use doe_topo::{CoreId, DeviceId, NodeTopology};

use crate::config::OsuConfig;

/// One point of the latency curve.
#[derive(Clone, Debug)]
pub struct LatencyPoint {
    /// Message size in bytes.
    pub bytes: u64,
    /// One-way latency in µs, mean ± σ over the outer runs.
    pub one_way_us: Summary,
}

/// Where each rank's message buffer lives.
#[derive(Clone, Copy, Debug)]
enum BufKind {
    Host,
    Device(DeviceId),
}

fn build_pair(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    cores: (CoreId, CoreId),
    bufs: (BufKind, BufKind),
    seed: u64,
) -> (MpiSim, Rank, Rank) {
    let mut world = MpiSim::new(Arc::clone(topo), mpi.clone(), seed);
    let add = |w: &mut MpiSim, core, buf| match buf {
        BufKind::Host => w.add_host_rank(core).expect("valid core"),
        BufKind::Device(d) => w.add_device_rank(core, d).expect("valid core/device"),
    };
    let a = add(&mut world, cores.0, bufs.0);
    let b = add(&mut world, cores.1, bufs.1);
    (world, a, b)
}

/// One binary run of the ping-pong for one size on any world, node or
/// fabric: returns one-way µs.
///
/// The timed loop starts after a barrier, which leaves every clock equal
/// and every port at or below that clock: a fresh world shifted in time.
/// So the warm-up before that barrier cannot change the timed result, and
/// a world that fast-forwards skips it. Under `--check` it runs, so the
/// sanitizer sees every round trip.
pub fn pingpong_once(w: &mut MpiSim, a: Rank, b: Rank, bytes: u64, warmup: u32, iters: u32) -> f64 {
    w.barrier();
    if !w.fast_forwards() {
        w.pingpong(a, b, bytes, warmup).expect("warmup");
        w.barrier();
    }
    let dt = w.pingpong(a, b, bytes, iters).expect("timed loop");
    dt.as_us() / (2.0 * iters as f64)
}

fn run_campaign(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    cores: (CoreId, CoreId),
    bufs: (BufKind, BufKind),
    cfg: &OsuConfig,
    seed: u64,
) -> Vec<LatencyPoint> {
    assert!(cfg.reps > 0, "need at least one repetition");
    // One world per rep, armed from the rep index, so reps can run on any
    // pool worker in any order. A worker re-arms the world its last rep
    // left, which makes it a fresh one (DESIGN.md §3). The world's only
    // draw is its run factor, and the barrier that opens each size leaves
    // every port horizon at or below the common clock: each size then
    // runs on a fresh world shifted in time, with the same
    // integer-picosecond result.
    let per_rep = parallel_map_init(
        cfg.reps,
        || None,
        |slot: &mut Option<(MpiSim, Rank, Rank)>, rep| {
            let seed = seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let kept = slot
                .take()
                .and_then(|mut pair| pair.0.rearm(seed).then_some(pair));
            let (world, a, b) =
                slot.insert(kept.unwrap_or_else(|| build_pair(topo, mpi, cores, bufs, seed)));
            let (a, b) = (*a, *b);
            cfg.sizes
                .iter()
                .map(|&bytes| pingpong_once(world, a, b, bytes, cfg.warmup, cfg.iters_for(bytes)))
                .collect::<Vec<f64>>()
        },
    );
    cfg.sizes
        .iter()
        .enumerate()
        .map(|(i, &bytes)| LatencyPoint {
            bytes,
            one_way_us: per_rep
                .iter()
                .map(|row| row[i])
                .collect::<Samples>()
                .summary(),
        })
        .collect()
}

/// Host-buffer latency between ranks pinned to `cores`.
pub fn osu_latency(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    cores: (CoreId, CoreId),
    cfg: &OsuConfig,
    seed: u64,
) -> Vec<LatencyPoint> {
    run_campaign(topo, mpi, cores, (BufKind::Host, BufKind::Host), cfg, seed)
}

/// Device-buffer latency: ranks pinned to `cores`, buffers on `devices`.
pub fn osu_latency_device(
    topo: &Arc<NodeTopology>,
    mpi: &MpiConfig,
    cores: (CoreId, CoreId),
    devices: (DeviceId, DeviceId),
    cfg: &OsuConfig,
    seed: u64,
) -> Vec<LatencyPoint> {
    run_campaign(
        topo,
        mpi,
        cores,
        (BufKind::Device(devices.0), BufKind::Device(devices.1)),
        cfg,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::{on_node_pair, on_socket_pair};
    use doe_mpi::DevicePath;
    use doe_simtime::{Jitter, SimDuration};
    use doe_topo::{LinkKind, NodeBuilder, NumaId, SocketId, Vertex};

    fn topo() -> Arc<NodeTopology> {
        Arc::new(
            NodeBuilder::new("osu-test")
                .socket("A")
                .socket("B")
                .numa(SocketId(0))
                .numa(SocketId(1))
                .cores(NumaId(0), 4, 1)
                .cores(NumaId(1), 4, 1)
                .devices("G", NumaId(0), 2)
                .link(
                    Vertex::Numa(NumaId(0)),
                    Vertex::Numa(NumaId(1)),
                    LinkKind::Upi,
                    SimDuration::from_ns(210.0),
                    40.0,
                )
                .link(
                    Vertex::Numa(NumaId(0)),
                    Vertex::Device(DeviceId(0)),
                    LinkKind::InfinityFabric { links: 1 },
                    SimDuration::from_ns(400.0),
                    36.0,
                )
                .link(
                    Vertex::Numa(NumaId(0)),
                    Vertex::Device(DeviceId(1)),
                    LinkKind::InfinityFabric { links: 1 },
                    SimDuration::from_ns(400.0),
                    36.0,
                )
                .link(
                    Vertex::Device(DeviceId(0)),
                    Vertex::Device(DeviceId(1)),
                    LinkKind::InfinityFabric { links: 4 },
                    SimDuration::from_ns(120.0),
                    200.0,
                )
                .build()
                .expect("valid"),
        )
    }

    fn mpi() -> MpiConfig {
        let mut c = MpiConfig::default_host();
        c.jitter = Jitter::relative(0.01);
        c
    }

    #[test]
    fn zero_byte_latency_is_submicrosecond_on_socket() {
        let t = topo();
        let cores = on_socket_pair(&t).expect("pair");
        let pts = osu_latency(&t, &mpi(), cores, &OsuConfig::quick(), 1);
        let head = &pts[0];
        assert_eq!(head.bytes, 0);
        assert!(head.one_way_us.mean < 1.0, "lat={}", head.one_way_us.mean);
        assert!(head.one_way_us.std > 0.0);
    }

    #[test]
    fn on_node_is_slower_than_on_socket() {
        let t = topo();
        let cfg = OsuConfig::quick();
        let s = osu_latency(&t, &mpi(), on_socket_pair(&t).unwrap(), &cfg, 1);
        let n = osu_latency(&t, &mpi(), on_node_pair(&t).unwrap(), &cfg, 1);
        assert!(n[0].one_way_us.mean > s[0].one_way_us.mean);
    }

    #[test]
    fn latency_curve_is_monotone_in_size() {
        let t = topo();
        let pts = osu_latency(
            &t,
            &mpi(),
            on_socket_pair(&t).unwrap(),
            &OsuConfig::quick(),
            1,
        );
        for w in pts.windows(2) {
            assert!(
                w[1].one_way_us.mean >= w[0].one_way_us.mean * 0.95,
                "{} B: {} then {} B: {}",
                w[0].bytes,
                w[0].one_way_us.mean,
                w[1].bytes,
                w[1].one_way_us.mean
            );
        }
    }

    #[test]
    fn rma_device_latency_is_submicrosecond() {
        let t = topo();
        let mut cfg_mpi = mpi();
        cfg_mpi.device_path = DevicePath::Rma {
            extra_overhead: SimDuration::from_ns(100.0),
        };
        let cores = on_socket_pair(&t).unwrap();
        let pts = osu_latency_device(
            &t,
            &cfg_mpi,
            cores,
            (DeviceId(0), DeviceId(1)),
            &OsuConfig::quick(),
            2,
        );
        assert!(
            pts[0].one_way_us.mean < 1.0,
            "lat={}",
            pts[0].one_way_us.mean
        );
    }

    #[test]
    fn staged_device_latency_is_many_microseconds() {
        let t = topo();
        let cfg_mpi = mpi(); // default Staged 4 us/stage
        let cores = on_socket_pair(&t).unwrap();
        let pts = osu_latency_device(
            &t,
            &cfg_mpi,
            cores,
            (DeviceId(0), DeviceId(1)),
            &OsuConfig::quick(),
            2,
        );
        assert!(
            pts[0].one_way_us.mean > 10.0,
            "lat={}",
            pts[0].one_way_us.mean
        );
    }

    #[test]
    fn reproducible_per_seed() {
        let t = topo();
        let cores = on_socket_pair(&t).unwrap();
        let a = osu_latency(&t, &mpi(), cores, &OsuConfig::quick(), 5);
        let b = osu_latency(&t, &mpi(), cores, &OsuConfig::quick(), 5);
        assert_eq!(a[0].one_way_us.mean, b[0].one_way_us.mean);
        assert_eq!(a[0].one_way_us.std, b[0].one_way_us.std);
    }
}
