//! The full Comm|Scope suite for one machine: everything Table 6 reports.

use std::collections::BTreeMap;
use std::sync::Arc;

use doe_benchlib::Summary;
use doe_gpusim::GpuModel;
use doe_topo::{LinkClass, NodeTopology};

use crate::config::CommScopeConfig;
use crate::kernel::{launch_latency, wait_latency};
use crate::memcpy::{d2d_latency_by_class, d2h_transfer, h2d_transfer, Transfer};

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

/// One of the five Comm|Scope tests behind a Table 6 row. Each is
/// independent of the others, so a caller may run them in any order or
/// at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Test {
    /// [`launch_latency`].
    Launch,
    /// [`wait_latency`].
    Wait,
    /// [`h2d_transfer`].
    H2d,
    /// [`d2h_transfer`].
    D2h,
    /// [`d2d_latency_by_class`].
    D2d,
}

impl Test {
    /// Every test, in the order [`CommScopeReport::from_results`] takes
    /// their results.
    pub const ALL: [Test; 5] = [Test::Launch, Test::Wait, Test::H2d, Test::D2h, Test::D2d];
}

/// What one [`Test`] measured.
#[derive(Clone, Debug)]
pub enum TestResult {
    /// Launch or wait latency, µs.
    Latency(Summary),
    /// A host↔device transfer.
    Transfer(Transfer),
    /// Device-to-device latency per link class, µs.
    ByClass(BTreeMap<LinkClass, Summary>),
}

/// Run one test of the suite on device 0 of the node, seeded as
/// [`run_commscope`] seeds it.
pub fn run_test(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    cfg: &CommScopeConfig,
    seed: u64,
    test: Test,
) -> TestResult {
    assert!(
        topo.has_accelerators(),
        "Comm|Scope requires an accelerator node"
    );
    let dev = topo.devices[0].id;
    match test {
        Test::Launch => TestResult::Latency(launch_latency(topo, models, dev, cfg, seed)),
        Test::Wait => TestResult::Latency(wait_latency(topo, models, dev, cfg, seed ^ 0x57)),
        Test::H2d => TestResult::Transfer(h2d_transfer(topo, models, dev, cfg, seed ^ 0x1234)),
        Test::D2h => TestResult::Transfer(d2h_transfer(topo, models, dev, cfg, seed ^ 0x4321)),
        Test::D2d => TestResult::ByClass(d2d_latency_by_class(topo, models, cfg, seed ^ 0xD2D)),
    }
}

impl CommScopeReport {
    /// The row the results of [`Test::ALL`], in that order, make.
    pub fn from_results(results: impl IntoIterator<Item = TestResult>) -> CommScopeReport {
        let mut results = results.into_iter();
        let (
            Some(TestResult::Latency(launch_us)),
            Some(TestResult::Latency(wait_us)),
            Some(TestResult::Transfer(h2d)),
            Some(TestResult::Transfer(d2h)),
            Some(TestResult::ByClass(d2d_latency_us)),
        ) = (
            results.next(),
            results.next(),
            results.next(),
            results.next(),
            results.next(),
        )
        else {
            panic!("one result per test, in Test::ALL order");
        };
        CommScopeReport {
            launch_us,
            wait_us,
            hd_latency_us: average_pairwise(&h2d.latency_us, &d2h.latency_us),
            hd_bandwidth_gb_s: average_pairwise(&h2d.bandwidth_gb_s, &d2h.bandwidth_gb_s),
            d2d_latency_us,
        }
    }
}

/// Run the full suite on device 0 of the node (plus every device pair
/// class for the GPU-to-GPU tests), one test after another.
pub fn run_commscope(
    topo: &Arc<NodeTopology>,
    models: &[GpuModel],
    cfg: &CommScopeConfig,
    seed: u64,
) -> CommScopeReport {
    // Each rep of each Comm|Scope test builds a runtime; all of them
    // share one copy of the models.
    let models: Arc<[GpuModel]> = models.into();
    CommScopeReport::from_results(Test::ALL.map(|test| run_test(topo, &models, cfg, seed, test)))
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
