//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Eager threshold** — move the eager/rendezvous crossover and watch
//!    the latency knee move.
//! 2. **GPU-RMA vs host-staged device MPI** — the structural cause of the
//!    MI250X (sub-µs) vs V100 (~18 µs) gap, toggled on one topology.
//! 3. **Write-allocate accounting** — reported vs achieved bandwidth under
//!    BabelStream's numerator convention.
//! 4. **Placement policy** — the Table 1 combos on a dual-socket model.
//! 5. **Pinning and duplex** — pinned vs pageable H2D and the bidirectional
//!    aggregate on one PCIe4 link.
//!
//! ```text
//! cargo run --release --example ablations
//! ```

use doebench::memmodel::{MemDomainModel, PlacementQuality, StreamOp};
use doebench::mpi::DevicePath;
use doebench::omp::{resolve_placement, EnvCombo};
use doebench::osu::{on_socket_pair, osu_latency, osu_latency_device, OsuConfig};
use doebench::simtime::SimDuration;
use doebench::topo::DeviceId;

fn ablation_eager_threshold() {
    let m = doebench::machines::by_name("Eagle").expect("machine");
    let cores = on_socket_pair(&m.topo).expect("pair");
    let mut cfg = OsuConfig::quick();
    cfg.sizes = vec![1024, 4096, 8192, 16384, 65536, 262144];
    cfg.reps = 5;
    println!("\nAblation 1: eager threshold moves the latency knee (Eagle, on-socket)");
    println!(
        "{:>12} | {:>10} | {:>10} | {:>10}",
        "bytes", "thr=1KiB", "thr=8KiB", "thr=64KiB"
    );
    let curves: Vec<Vec<f64>> = [1024u64, 8192, 65536]
        .iter()
        .map(|&thr| {
            let mut mpi = m.mpi.clone();
            mpi.eager_threshold = thr;
            osu_latency(&m.topo, &mpi, cores, &cfg, 7)
                .into_iter()
                .map(|p| p.one_way_us.mean)
                .collect()
        })
        .collect();
    for (i, &bytes) in cfg.sizes.iter().enumerate() {
        println!(
            "{:>12} | {:>10.3} | {:>10.3} | {:>10.3}",
            bytes, curves[0][i], curves[1][i], curves[2][i]
        );
    }
}

fn ablation_device_path() {
    // Same Frontier topology; device MPI toggled between the real RMA
    // configuration and a hypothetical staged pipeline.
    let m = doebench::machines::by_name("Frontier").expect("machine");
    let cores = (
        m.topo.cores_of_numa(m.topo.devices[0].local_numa)[0],
        m.topo.cores_of_numa(m.topo.devices[1].local_numa)[1],
    );
    let cfg = OsuConfig::quick();
    let rma = osu_latency_device(&m.topo, &m.mpi, cores, (DeviceId(0), DeviceId(1)), &cfg, 9);
    let mut staged_mpi = m.mpi.clone();
    staged_mpi.device_path = DevicePath::Staged {
        per_stage_overhead: SimDuration::from_us(5.5),
        pipeline_efficiency: 0.8,
    };
    let staged = osu_latency_device(
        &m.topo,
        &staged_mpi,
        cores,
        (DeviceId(0), DeviceId(1)),
        &cfg,
        9,
    );
    println!("\nAblation 2: device MPI path on Frontier's topology (0-byte, us)");
    println!("  GPU-aware RMA : {:>7.2}", rma[0].one_way_us.mean);
    println!("  host-staged   : {:>7.2}", staged[0].one_way_us.mean);
    println!("  (the paper's MI250X-vs-V100 gap is this switch)");
}

fn ablation_write_allocate() {
    let mut mem = MemDomainModel::new("DDR4 (write-allocate)", 281.5, 13.0);
    mem.sustained_efficiency = 0.85;
    mem.nt_stores = false;
    let mut nt = mem.clone();
    nt.nt_stores = true;
    nt.name = "DDR4 (non-temporal stores)".into();
    let p = PlacementQuality::all_cores(48);
    println!("\nAblation 3: write-allocate vs non-temporal stores (reported GB/s)");
    println!(
        "{:>8} | {:>12} | {:>12} | {:>8}",
        "kernel", "write-alloc", "nt-stores", "ratio"
    );
    for op in StreamOp::ALL {
        let wa = mem.reported_bw(op, p);
        let ns = nt.reported_bw(op, p);
        println!(
            "{:>8} | {:>12.2} | {:>12.2} | {:>8.3}",
            op.name(),
            wa,
            ns,
            wa / ns
        );
    }
}

fn ablation_placement() {
    let m = doebench::machines::by_name("Sawtooth").expect("machine");
    println!("\nAblation 4: Table 1 combos on Sawtooth (modelled GB/s, best op)");
    for combo in EnvCombo::table1() {
        let placement = resolve_placement(&m.topo, &combo);
        let (op, bw) = m.host_mem.best_reported_bw(placement);
        println!("  {:>10.2} GB/s  ({op})  {combo}", bw);
    }
}

fn ablation_duplex_and_pinning() {
    use doebench::commscope::{
        duplex_bandwidth, h2d_pageable_transfer, h2d_transfer, CommScopeConfig,
    };
    let m = doebench::machines::by_name("Perlmutter").expect("machine");
    let cfg = CommScopeConfig::quick();
    let dev = m.topo.devices[0].id;
    let models = m.gpu_models.into();
    let pinned = h2d_transfer(&m.topo, &models, dev, &cfg, 5);
    let pageable = h2d_pageable_transfer(&m.topo, &models, dev, &cfg, 5);
    let duplex = duplex_bandwidth(&m.topo, &models, dev, &cfg, 5);
    println!("\nAblation 5: pinning and duplex on Perlmutter's PCIe4 link");
    println!(
        "  pinned H2D   : {:>7.2} us, {:>6.2} GB/s",
        pinned.latency_us.mean, pinned.bandwidth_gb_s.mean
    );
    println!(
        "  pageable H2D : {:>7.2} us, {:>6.2} GB/s",
        pageable.latency_us.mean, pageable.bandwidth_gb_s.mean
    );
    println!("  duplex agg   : {:>17.2} GB/s", duplex.mean);
}

fn main() {
    ablation_eager_threshold();
    ablation_device_path();
    ablation_write_allocate();
    ablation_placement();
    ablation_duplex_and_pinning();
}
