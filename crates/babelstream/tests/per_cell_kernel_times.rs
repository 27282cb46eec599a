//! Differential test of the simulated BabelStream campaigns against the
//! loops they replaced. The campaigns derive kernel times once per cell,
//! re-arm one GPU runtime for each rep, and time only the largest
//! size, the one they report; the reference loops re-derive kernel times,
//! build a fresh GPU runtime and run every size in every rep.
//!
//! A kernel's unjittered time depends on the machine, the size, the
//! placement and the op, never on the rep; the rep contributes only its
//! run factor. A re-armed runtime is a fresh one, and each GPU size starts
//! synchronized, so it times the same from a fresh runtime as after the
//! smaller sizes. So the reports must agree to the bit on every catalog
//! machine, at random seeds and worker counts, for the quick profile,
//! paper-shaped sweeps (the paper's sizes and inner iterations, fewer
//! reps) and random ones.

use std::sync::Arc;

use doe_babelstream::{run_sim_cpu, run_sim_gpu, CpuStreamReport, GpuStreamReport, SweepConfig};
use doe_benchlib::{parallel_map_indexed, set_jobs, Samples, Summary};
use doe_gpurt::GpuRuntime;
use doe_machines::{all_machines, gpu_machines, Machine};
use doe_memmodel::StreamOp;
use doe_omp::{resolve_placement, EnvCombo};
use doe_simtime::{SimDuration, SimRng};
use proptest::prelude::*;

/// The replaced CPU campaign: placements and kernel times per rep, every
/// size in every rep.
fn cpu_per_rep(m: &Machine, seed: u64, cfg: &SweepConfig) -> CpuStreamReport {
    let (topo, mem) = (&m.topo, &m.host_mem);
    let sizes = cfg.sizes();
    let combos = EnvCombo::table1();
    let per_rep = parallel_map_indexed(cfg.reps, |rep| {
        let label = format!("babelstream-cpu/{}", topo.name);
        let mut rng = SimRng::stream(seed, &[&label], rep as u64);
        let factor = m.host_stream_jitter.sample_scalar(1.0, &mut rng).max(0.05);
        let mut best_single = 0.0f64;
        let mut best_all = 0.0f64;
        for &n in &sizes {
            for combo in &combos {
                let placement = resolve_placement(topo, combo);
                for &op in &StreamOp::ALL {
                    let t_kernel = mem.kernel_time(op, n, placement) * (1.0 / factor)
                        + cfg.overhead_per_kernel;
                    let bw = t_kernel.bandwidth_gb_s(op.reported_bytes(n));
                    if n == *sizes.last().expect("nonempty sizes") {
                        let single = placement.threads == 1;
                        if single && bw > best_single {
                            best_single = bw;
                        }
                        if !single && bw > best_all {
                            best_all = bw;
                        }
                    }
                }
            }
        }
        (best_single, best_all)
    });
    let single: Samples = per_rep.iter().map(|r| r.0).collect();
    let all: Samples = per_rep.iter().map(|r| r.1).collect();
    CpuStreamReport {
        single: single.summary(),
        all: all.summary(),
    }
}

/// The replaced GPU campaign: a fresh runtime, a model copy and
/// `launch_stream_op` per rep, every size in every rep.
fn gpu_per_rep(m: &Machine, seed: u64, cfg: &SweepConfig) -> GpuStreamReport {
    let sizes = cfg.sizes();
    let per_rep = parallel_map_indexed(cfg.reps, |rep| {
        let mut rt = GpuRuntime::new(
            Arc::clone(&m.topo),
            m.gpu_models.to_vec().into(),
            seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let dev = rt.current_device();
        let stream = rt.default_stream(dev).expect("device 0 exists");
        let mut best = 0.0f64;
        for &n in &sizes {
            for &op in &StreamOp::ALL {
                let t0 = rt.now();
                for _ in 0..cfg.inner_iters {
                    rt.launch_stream_op(&stream, op, n).expect("launch");
                }
                rt.stream_synchronize(&stream).expect("sync");
                let bytes = op.reported_bytes(n) * cfg.inner_iters as u64;
                let bw = rt.now().since(t0).bandwidth_gb_s(bytes);
                if n == *sizes.last().expect("nonempty") && bw > best {
                    best = bw;
                }
            }
        }
        best
    });
    let samples: Samples = per_rep.into_iter().collect();
    GpuStreamReport {
        device: samples.summary(),
    }
}

fn bits(s: &Summary) -> [u64; 7] {
    [
        s.n as u64,
        s.mean.to_bits(),
        s.std.to_bits(),
        s.min.to_bits(),
        s.max.to_bits(),
        s.median.to_bits(),
        s.ci95_half_width.to_bits(),
    ]
}

/// Shape 0 = quick, 1 = the paper's sizes and inner iterations with 1–3
/// reps, 2 = a random sweep.
fn sweep(paper: SweepConfig, shape: u8, raw: (u64, u32, u32, usize, u64)) -> SweepConfig {
    let (min_elems, doublings, inner_iters, reps, overhead_ns) = raw;
    match shape {
        0 => SweepConfig::quick(),
        1 => SweepConfig {
            reps: reps % 3 + 1,
            ..paper
        },
        _ => SweepConfig {
            min_elems,
            max_elems: min_elems << doublings,
            inner_iters,
            reps,
            overhead_per_kernel: SimDuration::from_ns(overhead_ns as f64),
        },
    }
}

fn raw_sweep() -> impl Strategy<Value = (u64, u32, u32, usize, u64)> {
    (1u64..1 << 20, 0u32..8, 1u32..40, 1usize..6, 0u64..10_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cpu_kernel_times_once_per_cell_match_per_rep(
        machine in 0usize..13,
        seed in any::<u64>(),
        shape in 0u8..3,
        raw in raw_sweep(),
        jobs in 1usize..4,
    ) {
        let machines = all_machines();
        let m = &machines[machine % machines.len()];
        let cfg = sweep(SweepConfig::paper_cpu(), shape, raw);
        set_jobs(jobs);
        let got = run_sim_cpu(&m.topo, &m.host_mem, m.host_stream_jitter, seed, &cfg);
        let want = cpu_per_rep(m, seed, &cfg);
        prop_assert_eq!(bits(&got.single), bits(&want.single), "{} {:?}", m.name, cfg);
        prop_assert_eq!(bits(&got.all), bits(&want.all), "{} {:?}", m.name, cfg);
    }

    #[test]
    fn gpu_kernel_times_once_per_cell_match_per_rep(
        machine in 0usize..8,
        seed in any::<u64>(),
        shape in 0u8..3,
        raw in raw_sweep(),
        jobs in 1usize..4,
    ) {
        let machines = gpu_machines();
        let m = &machines[machine % machines.len()];
        let cfg = sweep(SweepConfig::paper_gpu(), shape, raw);
        set_jobs(jobs);
        let got = run_sim_gpu(Arc::clone(&m.topo), &m.gpu_models, seed, &cfg);
        let want = gpu_per_rep(m, seed, &cfg);
        prop_assert_eq!(bits(&got.device), bits(&want.device), "{} {:?}", m.name, cfg);
    }
}
