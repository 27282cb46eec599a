//! The simulated-GPU backend: Table 5's "Device" bandwidth column.
//!
//! The campaign allocates three device arrays, launches `inner_iters`
//! repetitions of each kernel into a stream, synchronizes, and derives the
//! bandwidth from virtual elapsed time — the same structure as
//! BabelStream's CUDA/HIP backends. Per the paper, only device 0 is used
//! ("BabelStream only uses one of the two GCDs" on MI250X).

use std::sync::Arc;

use doe_benchlib::{parallel_map_init, Samples, Summary};
use doe_gpurt::GpuRuntime;
use doe_gpusim::GpuModel;
use doe_memmodel::StreamOp;
use doe_simtime::SimDuration;
use doe_topo::NodeTopology;

use crate::config::SweepConfig;

/// Results of a simulated GPU BabelStream campaign.
#[derive(Clone, Debug)]
pub struct GpuStreamReport {
    /// Best-kernel device bandwidth (GB/s), mean ± σ over runs.
    pub device: Summary,
    /// The winning kernel (final run).
    pub best_op: StreamOp,
    /// Best bandwidth per vector size (final run).
    pub curve: Vec<(u64, f64)>,
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
    let sizes = cfg.sizes();
    let dev = topo.devices[0].id;
    // Unjittered kernel times on device 0, one row of ops per size: they
    // depend on the cell, not the rep. The runtime applies the rep's run
    // factor to each train, exactly as `launch_stream_op` would.
    let model = models.get(dev.index()).expect("one GpuModel per device");
    let kernel_times: Vec<[SimDuration; StreamOp::ALL.len()]> = sizes
        .iter()
        .map(|&n| StreamOp::ALL.map(|op| model.stream_kernel_time(op, n)))
        .collect();
    let models: Arc<[GpuModel]> = models.into();

    // A rep arms only its runtime, from the rep index: the seed fixes its
    // run factor, and the models and kernel times are the cell's. So reps
    // are independent and can run on any pool worker in any order; a
    // worker re-arms the runtime its last rep left. Only the last rep's
    // curve is reported, so every other rep runs only the largest size:
    // each size starts synchronized, and a synchronized runtime shifted in
    // time times a size exactly as a fresh one does (DESIGN.md §3).
    let per_rep = parallel_map_init(
        cfg.reps,
        || None,
        |slot, rep| {
            let rep_seed = seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let rt = GpuRuntime::rearmed(slot, &topo, &models, rep_seed);
            let stream = rt.default_stream(dev).expect("device 0 exists");
            let mut best = 0.0f64;
            let mut best_op = StreamOp::Copy;
            let first = if rep + 1 == cfg.reps {
                0
            } else {
                sizes.len() - 1
            };
            let mut curve: Vec<(u64, f64)> = Vec::with_capacity(sizes.len() - first);
            for (&n, times) in sizes.iter().zip(&kernel_times).skip(first) {
                let mut best_at_size = 0.0f64;
                for (&op, &t) in StreamOp::ALL.iter().zip(times) {
                    let t0 = rt.now();
                    rt.launch_train(&stream, t, u64::from(cfg.inner_iters))
                        .expect("launch");
                    rt.stream_synchronize(&stream).expect("sync");
                    let elapsed = rt.now().since(t0);
                    let bytes = op.reported_bytes(n) * cfg.inner_iters as u64;
                    let bw = elapsed.bandwidth_gb_s(bytes);
                    if bw > best_at_size {
                        best_at_size = bw;
                    }
                    if n == *sizes.last().expect("nonempty") && bw > best {
                        best = bw;
                        best_op = op;
                    }
                }
                curve.push((n, best_at_size));
            }
            (best, best_op, curve)
        },
    );

    let samples: Samples = per_rep.iter().map(|(best, _, _)| *best).collect();
    let (_, best_op, curve) = per_rep.into_iter().next_back().expect("at least one rep");
    GpuStreamReport {
        device: samples.summary(),
        best_op,
        curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe_memmodel::MemDomainModel;
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
        let rep = run_sim_gpu(topo, &models, 3, &SweepConfig::quick());
        let first = rep.curve.first().expect("curve").1;
        let last = rep.curve.last().expect("curve").1;
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
