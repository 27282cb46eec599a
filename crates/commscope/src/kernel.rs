//! Kernel launch latency and empty-queue wait latency.

use std::sync::Arc;

use doe_benchlib::{adaptive_iterations, rep_seed, run_reps, Summary};
use doe_gpurt::GpuRuntime;
use doe_gpusim::GpuModel;
use doe_topo::{DeviceId, NodeTopology};

use crate::config::CommScopeConfig;
use crate::search::per_iteration;

/// `Comm_cudart_kernel`: wall time to *launch* (not complete) empty,
/// zero-argument kernels. Returns µs, mean ± σ over the outer runs.
pub fn launch_latency(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    dev: DeviceId,
    cfg: &CommScopeConfig,
    seed: u64,
) -> Summary {
    // Each rep arms its runtime from the rep index, re-arming the one the
    // last rep left.
    let mut slot = None;
    run_reps(cfg.reps, |rep| {
        let rt = GpuRuntime::rearmed(&mut slot, topo, models, rep_seed(seed, rep));
        rt.set_device(dev).expect("device exists");
        let stream = rt.default_stream(dev).expect("stream");
        let per = if rt.fast_forwards() {
            // A train of n launches moves the host clock by exactly n·L
            // in either form (DESIGN.md §3), so every batch takes n·L:
            // the search runs on those times once a launch shows L.
            let launch = rt.launch_empty_train(&stream, 1).expect("launch");
            adaptive_iterations(cfg.adaptive, |n| launch * n).1
        } else {
            adaptive_iterations(cfg.adaptive, |n| {
                // Drain the queue before each batch so queue pressure
                // from a previous (shorter) probe batch never bleeds
                // into this one.
                rt.device_synchronize().expect("sync");
                rt.launch_empty_train(&stream, n).expect("launch")
            })
            .1
        };
        per.as_us()
    })
    .summary()
}

/// `Comm_cudaDeviceSynchronize`: wall time of a device synchronize against
/// an empty work queue. Returns µs, mean ± σ over the outer runs.
pub fn wait_latency(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    dev: DeviceId,
    cfg: &CommScopeConfig,
    seed: u64,
) -> Summary {
    let mut slot = None;
    run_reps(cfg.reps, |rep| {
        let rt = GpuRuntime::rearmed(&mut slot, topo, models, rep_seed(seed, rep));
        rt.set_device(dev).expect("device exists");
        per_iteration(rt, cfg.adaptive, GpuRuntime::device_synchronize).as_us()
    })
    .summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe_memmodel::MemDomainModel;
    use doe_simtime::SimDuration;
    use doe_topo::{LinkKind, NodeBuilder, NumaId, SocketId, Vertex};

    fn node() -> (Arc<NodeTopology>, Arc<[GpuModel]>) {
        let topo = NodeBuilder::new("cs-test")
            .socket("CPU")
            .numa(SocketId(0))
            .cores(NumaId(0), 8, 2)
            .device("G", NumaId(0))
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .build()
            .expect("valid");
        let mut m = GpuModel::new("G", MemDomainModel::new("HBM", 1555.2, 30.0));
        m.launch_overhead = SimDuration::from_us(1.77);
        m.sync_overhead = SimDuration::from_us(0.98);
        (Arc::new(topo), [m].into())
    }

    #[test]
    fn launch_latency_matches_configured_overhead() {
        let (topo, models) = node();
        let s = launch_latency(&topo, &models, DeviceId(0), &CommScopeConfig::quick(), 1);
        assert!((s.mean - 1.77).abs() < 0.05, "mean={}", s.mean);
        assert!(s.rel_std() < 0.05);
    }

    #[test]
    fn wait_latency_matches_configured_overhead() {
        let (topo, models) = node();
        let s = wait_latency(&topo, &models, DeviceId(0), &CommScopeConfig::quick(), 1);
        assert!((s.mean - 0.98).abs() < 0.05, "mean={}", s.mean);
    }

    #[test]
    fn results_reproducible_per_seed() {
        let (topo, models) = node();
        let a = launch_latency(&topo, &models, DeviceId(0), &CommScopeConfig::quick(), 7);
        let b = launch_latency(&topo, &models, DeviceId(0), &CommScopeConfig::quick(), 7);
        assert_eq!(a.mean, b.mean);
    }
}
