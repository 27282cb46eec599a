//! The full Comm|Scope suite for one machine: everything Table 6 reports.

use std::collections::BTreeMap;
use std::sync::Arc;

use doe_benchlib::Summary;
use doe_gpusim::GpuModel;
use doe_topo::{LinkClass, NodeTopology};

use crate::config::CommScopeConfig;
use crate::kernel::{launch_latency, wait_latency};
use crate::memcpy::{d2d_latency_by_class, d2h_transfer, h2d_transfer};

/// All Comm|Scope results for one machine — one row of Table 6.
#[derive(Clone, Debug)]
pub struct CommScopeReport {
    /// Kernel launch latency, µs.
    pub launch_us: Summary,
    /// Empty-queue device-synchronize latency, µs.
    pub wait_us: Summary,
    /// `(H→D + D→H)/2` small-transfer latency, µs.
    pub hd_latency_us: Summary,
    /// `(H→D + D→H)/2` large-transfer bandwidth, GB/s.
    pub hd_bandwidth_gb_s: Summary,
    /// Device-to-device small-transfer latency per link class, µs.
    pub d2d_latency_us: BTreeMap<LinkClass, Summary>,
}

/// Average two summaries element-wise over their paired runs: the paper
/// reports `(H→D + D→H)/2` as a single figure.
fn average_pairwise(a: &Summary, b: &Summary) -> Summary {
    // Means average exactly; for σ of the per-run average of two equal-n
    // series we combine conservatively as the mean of the two σs (the
    // per-run pairing is unavailable after summarization; the difference
    // is far below the reporting precision).
    Summary {
        n: a.n.min(b.n),
        mean: (a.mean + b.mean) / 2.0,
        std: (a.std + b.std) / 2.0,
        min: a.min.min(b.min),
        max: a.max.max(b.max),
        median: (a.median + b.median) / 2.0,
        ci95_half_width: (a.ci95_half_width + b.ci95_half_width) / 2.0,
    }
}

/// Run the full suite on device 0 of the node (plus every device pair
/// class for the GPU-to-GPU tests).
pub fn run_commscope(
    topo: &Arc<NodeTopology>,
    models: &[GpuModel],
    cfg: &CommScopeConfig,
    seed: u64,
) -> CommScopeReport {
    assert!(
        topo.has_accelerators(),
        "Comm|Scope requires an accelerator node"
    );
    let dev = topo.devices[0].id;
    // Each rep of each Comm|Scope test builds a runtime; all of them
    // share one copy of the models.
    let models: Arc<[GpuModel]> = models.into();
    let launch_us = launch_latency(topo, &models, dev, cfg, seed);
    let wait_us = wait_latency(topo, &models, dev, cfg, seed ^ 0x57);
    let h2d = h2d_transfer(topo, &models, dev, cfg, seed ^ 0x1234);
    let d2h = d2h_transfer(topo, &models, dev, cfg, seed ^ 0x4321);
    let d2d_latency_us = d2d_latency_by_class(topo, &models, cfg, seed ^ 0xD2D);
    CommScopeReport {
        launch_us,
        wait_us,
        hd_latency_us: average_pairwise(&h2d.latency_us, &d2h.latency_us),
        hd_bandwidth_gb_s: average_pairwise(&h2d.bandwidth_gb_s, &d2h.bandwidth_gb_s),
        d2d_latency_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe_memmodel::MemDomainModel;
    use doe_simtime::SimDuration;
    use doe_topo::{DeviceId, LinkKind, NodeBuilder, NumaId, SocketId, Vertex};

    fn node() -> (Arc<NodeTopology>, Vec<GpuModel>) {
        let topo = NodeBuilder::new("suite-test")
            .socket("CPU")
            .numa(SocketId(0))
            .cores(NumaId(0), 8, 2)
            .devices("G", NumaId(0), 2)
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .link(
                Vertex::Device(DeviceId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::NvLink { gen: 3, bricks: 4 },
                SimDuration::from_ns(700.0),
                100.0,
            )
            .build()
            .expect("valid");
        let m = GpuModel::new("G", MemDomainModel::new("HBM", 1555.2, 30.0));
        (Arc::new(topo), vec![m.clone(), m])
    }

    #[test]
    fn full_suite_produces_all_columns() {
        let (topo, models) = node();
        let rep = run_commscope(&topo, &models, &CommScopeConfig::quick(), 1);
        assert!(rep.launch_us.mean > 0.0);
        assert!(rep.wait_us.mean > 0.0);
        assert!(rep.hd_latency_us.mean > rep.launch_us.mean);
        assert!(rep.hd_bandwidth_gb_s.mean > 1.0);
        assert!(rep.d2d_latency_us.contains_key(&LinkClass::A));
    }

    #[test]
    fn suite_is_reproducible() {
        let (topo, models) = node();
        let a = run_commscope(&topo, &models, &CommScopeConfig::quick(), 9);
        let b = run_commscope(&topo, &models, &CommScopeConfig::quick(), 9);
        assert_eq!(a.launch_us.mean, b.launch_us.mean);
        assert_eq!(a.hd_latency_us.mean, b.hd_latency_us.mean);
    }

    #[test]
    #[should_panic(expected = "requires an accelerator")]
    fn cpu_node_rejected() {
        let topo = Arc::new(
            NodeBuilder::new("cpu")
                .socket("C")
                .numa(SocketId(0))
                .cores(NumaId(0), 2, 1)
                .build()
                .expect("valid"),
        );
        run_commscope(&topo, &[], &CommScopeConfig::quick(), 1);
    }
}
