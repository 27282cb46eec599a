//! Differential test of the OSU latency campaign, which re-arms one
//! world per worker thread for each rep and runs every message size on
//! it, against the loops it replaced: a fresh world per rep running every
//! size, and a fresh world for every (rep, size).
//!
//! Reuse is exact: a world's only draw is its run factor, a re-armed
//! world is a fresh one, and a barrier before each size leaves a fresh
//! world shifted in time (DESIGN.md §3). So every field of every point's
//! summary must agree to the bit, for host and device buffers, on both
//! sides of the eager threshold, on every sweepable catalog machine, with
//! one worker (one world for the whole campaign) or several.

use std::sync::Arc;

use doe_benchlib::{parallel_map_indexed, run_reps_par, set_jobs, Samples, Summary};
use doe_machines::{all_machines, Machine};
use doe_mpi::{MpiSim, Rank};
use doe_osu::{on_node_pair, on_socket_pair, osu_latency, osu_latency_device, OsuConfig};
use doe_topo::{CoreId, DeviceId};
use proptest::prelude::*;

/// One generated campaign.
#[derive(Debug, Clone)]
struct Case {
    machine: usize,
    /// Cross-socket pair instead of the on-socket one.
    on_node: bool,
    /// Device buffers on two distinct devices (where the node has two),
    /// as raw picks reduced modulo the device count.
    devices: Option<(usize, usize)>,
    /// Raw size picks: (kind, value). Kind 0 = eager threshold ± 2,
    /// 1 = uniform in [0, 4 MiB], 2 = 0 B, 3 = the large-iteration
    /// threshold ± 1.
    sizes: Vec<(u8, u64)>,
    warmup: u32,
    small_iters: u32,
    large_iters: u32,
    reps: usize,
    seed: u64,
    /// Worker count for the campaign under test.
    jobs: usize,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        (
            0usize..13,
            any::<bool>(),
            any::<bool>(),
            (any::<usize>(), any::<usize>()),
        ),
        collection::vec((0u8..4, 0u64..(4 << 20) + 1), 1..6),
        (0u32..4, 1u32..60, 1u32..12, 1usize..7, any::<u64>()),
        1usize..4,
    )
        .prop_map(
            |(
                (machine, on_node, device_buffers, devices),
                sizes,
                (warmup, small_iters, large_iters, reps, seed),
                jobs,
            )| Case {
                machine,
                on_node,
                devices: device_buffers.then_some(devices),
                sizes,
                warmup,
                small_iters,
                large_iters,
                reps,
                seed,
                jobs,
            },
        )
}

fn sweepable() -> Vec<Machine> {
    all_machines()
        .into_iter()
        .filter(|m| on_socket_pair(&m.topo).is_some() && on_node_pair(&m.topo).is_some())
        .collect()
}

/// The campaign the case describes on machine `m`.
fn config(m: &Machine, case: &Case) -> OsuConfig {
    let large_threshold = 8 * 1024;
    let sizes = case
        .sizes
        .iter()
        .map(|&(kind, v)| match kind {
            0 => (m.mpi.eager_threshold + v % 5).saturating_sub(2),
            1 => v,
            2 => 0,
            _ => large_threshold + v % 3 - 1,
        })
        .collect();
    OsuConfig {
        sizes,
        small_iters: case.small_iters,
        large_iters: case.large_iters,
        large_threshold,
        warmup: case.warmup,
        reps: case.reps,
    }
}

/// A fresh world for `rep` with the campaign's two ranks.
fn fresh_world(
    m: &Machine,
    cores: (CoreId, CoreId),
    devices: Option<(DeviceId, DeviceId)>,
    seed: u64,
    rep: usize,
) -> (MpiSim, Rank, Rank) {
    let mut world = MpiSim::new(
        Arc::clone(&m.topo),
        m.mpi.clone(),
        seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let (a, b) = match devices {
        None => (
            world.add_host_rank(cores.0).expect("core"),
            world.add_host_rank(cores.1).expect("core"),
        ),
        Some((da, db)) => (
            world.add_device_rank(cores.0, da).expect("core"),
            world.add_device_rank(cores.1, db).expect("core"),
        ),
    };
    (world, a, b)
}

/// One size's warm-up and timed loop: one-way µs.
fn one_way_us(world: &mut MpiSim, a: Rank, b: Rank, bytes: u64, cfg: &OsuConfig) -> f64 {
    let iters = cfg.iters_for(bytes);
    world.pingpong(a, b, bytes, cfg.warmup).expect("warmup");
    world.barrier();
    let dt = world.pingpong(a, b, bytes, iters).expect("timed loop");
    dt.as_us() / (2.0 * iters as f64)
}

/// A replaced campaign: a fresh world per (rep, size).
fn fresh_world_per_size(
    m: &Machine,
    cores: (CoreId, CoreId),
    devices: Option<(DeviceId, DeviceId)>,
    cfg: &OsuConfig,
    seed: u64,
) -> Vec<(u64, Summary)> {
    cfg.sizes
        .iter()
        .map(|&bytes| {
            let samples = run_reps_par(cfg.reps, |rep| {
                let (mut world, a, b) = fresh_world(m, cores, devices, seed, rep);
                one_way_us(&mut world, a, b, bytes, cfg)
            });
            (bytes, samples.summary())
        })
        .collect()
}

/// A replaced campaign: a fresh world per rep, running every size.
fn fresh_world_per_rep(
    m: &Machine,
    cores: (CoreId, CoreId),
    devices: Option<(DeviceId, DeviceId)>,
    cfg: &OsuConfig,
    seed: u64,
) -> Vec<(u64, Summary)> {
    let per_rep = parallel_map_indexed(cfg.reps, |rep| {
        let (mut world, a, b) = fresh_world(m, cores, devices, seed, rep);
        cfg.sizes
            .iter()
            .map(|&bytes| {
                world.barrier();
                one_way_us(&mut world, a, b, bytes, cfg)
            })
            .collect::<Vec<f64>>()
    });
    cfg.sizes
        .iter()
        .enumerate()
        .map(|(i, &bytes)| {
            let samples: Samples = per_rep.iter().map(|row| row[i]).collect();
            (bytes, samples.summary())
        })
        .collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_world_per_rep_matches_a_fresh_world_per_size(case in cases()) {
        let machines = sweepable();
        let m = &machines[case.machine % machines.len()];
        let cores = if case.on_node {
            on_node_pair(&m.topo)
        } else {
            on_socket_pair(&m.topo)
        }
        .expect("sweepable machine");
        let ndev = m.topo.devices.len();
        let devices = case.devices.filter(|_| ndev >= 2).map(|(x, y)| {
            let x = x % ndev;
            let y = (x + 1 + y % (ndev - 1)) % ndev;
            (m.topo.devices[x].id, m.topo.devices[y].id)
        });
        let cfg = config(m, &case);

        set_jobs(case.jobs);
        let got = match devices {
            None => osu_latency(&m.topo, &m.mpi, cores, &cfg, case.seed),
            Some(d) => osu_latency_device(&m.topo, &m.mpi, cores, d, &cfg, case.seed),
        };
        for want in [
            fresh_world_per_size(m, cores, devices, &cfg, case.seed),
            fresh_world_per_rep(m, cores, devices, &cfg, case.seed),
        ] {
            prop_assert_eq!(got.len(), want.len());
            for (g, (bytes, w)) in got.iter().zip(&want) {
                prop_assert_eq!(g.bytes, *bytes);
                prop_assert_eq!(
                    bits(&g.one_way_us),
                    bits(w),
                    "{} {:?} {} B: {:?} vs {:?}",
                    m.name,
                    devices,
                    bytes,
                    g.one_way_us,
                    w
                );
            }
        }
    }
}
