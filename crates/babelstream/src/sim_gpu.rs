//! The simulated-GPU backend: Table 5's "Device" bandwidth column.
//!
//! The campaign allocates three device arrays, launches `inner_iters`
//! repetitions of each kernel into a stream, synchronizes, and derives the
//! bandwidth from virtual elapsed time — the same structure as
//! BabelStream's CUDA/HIP backends. Per the paper, only device 0 is used
//! ("BabelStream only uses one of the two GCDs" on MI250X).

use std::sync::Arc;

use doe_benchlib::{rep_seed, run_reps, Summary};
use doe_gpurt::GpuRuntime;
use doe_gpusim::GpuModel;
use doe_memmodel::StreamOp;
use doe_topo::NodeTopology;

use crate::config::SweepConfig;

/// Results of a simulated GPU BabelStream campaign.
#[derive(Clone, Debug)]
pub struct GpuStreamReport {
    /// Best-kernel device bandwidth (GB/s) at the largest size, mean ± σ
    /// over runs.
    pub device: Summary,
}

/// Run the GPU campaign on device 0 of the node.
pub fn run_sim_gpu(
    topo: Arc<NodeTopology>,
    models: &[GpuModel],
    seed: u64,
    cfg: &SweepConfig,
) -> GpuStreamReport {
    assert!(
        topo.has_accelerators(),
        "GPU BabelStream requires an accelerator node"
    );
    assert!(cfg.reps > 0, "need at least one repetition");
    let n = *cfg.sizes().last().expect("nonempty sizes");
    let dev = topo.devices[0].id;
    // Unjittered kernel times on device 0 at the largest size: they
    // depend on the cell, not the rep. The runtime applies the rep's run
    // factor to each train, exactly as `launch_stream_op` would.
    let model = models.get(dev.index()).expect("one GpuModel per device");
    let kernel_times = StreamOp::ALL.map(|op| model.stream_kernel_time(op, n));
    let models: Arc<[GpuModel]> = models.into();

    // A rep arms only its runtime, from the rep index: the seed fixes its
    // run factor, and the models and kernel times are the cell's. Each rep
    // re-arms the runtime the last one left. Only the largest size is
    // reported, so it is the only size run: each size starts
    // synchronized, and a synchronized runtime shifted in time times a
    // size exactly as a fresh one does (DESIGN.md §3).
    let mut slot = None;
    let samples = run_reps(cfg.reps, |rep| {
        let rt = GpuRuntime::rearmed(&mut slot, &topo, &models, rep_seed(seed, rep));
        let stream = rt.default_stream(dev).expect("device 0 exists");
        let mut best = 0.0f64;
        for (&op, &t) in StreamOp::ALL.iter().zip(&kernel_times) {
            let t0 = rt.now();
            rt.launch_train(&stream, t, u64::from(cfg.inner_iters))
                .expect("launch");
            rt.stream_synchronize(&stream).expect("sync");
            let elapsed = rt.now().since(t0);
            let bytes = op.reported_bytes(n) * cfg.inner_iters as u64;
            let bw = elapsed.bandwidth_gb_s(bytes);
            if bw > best {
                best = bw;
            }
        }
        best
    });

    GpuStreamReport {
        device: samples.summary(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe_memmodel::MemDomainModel;
    use doe_simtime::SimDuration;
    use doe_topo::{DeviceId, LinkKind, NodeBuilder, NumaId, SocketId, Vertex};

    fn gpu_node() -> (Arc<NodeTopology>, Vec<GpuModel>) {
        let topo = NodeBuilder::new("gpu-node")
            .socket("CPU")
            .numa(SocketId(0))
            .cores(NumaId(0), 16, 2)
            .device("SimGPU", NumaId(0))
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .build()
            .expect("valid");
        let mut hbm = MemDomainModel::new("HBM2e", 1555.2, 30.0);
        hbm.sustained_efficiency = 0.877;
        let model = GpuModel::new("SimGPU", hbm);
        (Arc::new(topo), vec![model])
    }

    #[test]
    fn device_bandwidth_lands_near_model() {
        let (topo, models) = gpu_node();
        let mut cfg = SweepConfig::quick();
        cfg.max_elems = 16 * 1024 * 1024;
        let rep = run_sim_gpu(topo, &models, 3, &cfg);
        let want = 1555.2 * 0.877;
        let got = rep.device.mean;
        assert!(
            (got - want).abs() / want < 0.1,
            "got {got}, want about {want}"
        );
    }

    #[test]
    fn launch_overhead_depresses_small_sizes() {
        let (topo, models) = gpu_node();
        // The largest-size bandwidth of a sweep ending at each end of the
        // quick schedule.
        let at = |n: u64| {
            let cfg = SweepConfig {
                max_elems: n,
                ..SweepConfig::quick()
            };
            run_sim_gpu(Arc::clone(&topo), &models, 3, &cfg).device.mean
        };
        let sizes = SweepConfig::quick().sizes();
        let first = at(sizes[0]);
        let last = at(sizes[sizes.len() - 1]);
        assert!(last > first * 1.5, "{first} vs {last}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (topo, models) = gpu_node();
        let a = run_sim_gpu(Arc::clone(&topo), &models, 5, &SweepConfig::quick());
        let b = run_sim_gpu(topo, &models, 5, &SweepConfig::quick());
        assert_eq!(a.device.mean, b.device.mean);
        assert_eq!(a.device.std, b.device.std);
    }

    #[test]
    #[should_panic(expected = "requires an accelerator")]
    fn cpu_only_node_rejected() {
        let topo = NodeBuilder::new("cpu-only")
            .socket("CPU")
            .numa(SocketId(0))
            .cores(NumaId(0), 4, 1)
            .build()
            .expect("valid");
        run_sim_gpu(Arc::new(topo), &[], 1, &SweepConfig::quick());
    }
}
