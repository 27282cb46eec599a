//! Differential test of the OSU latency campaign, which re-arms one
//! world per worker thread for each rep, runs every message size on it
//! and skips the warm-ups, against the loops it replaced: a fresh world
//! per rep running every size, and a fresh world for every (rep, size),
//! both running every warm-up round trip op by op.
//!
//! Reuse is exact: a world's only draw is its run factor, a re-armed
//! world is a fresh one, and the barrier before each timed loop leaves a
//! fresh world shifted in time (DESIGN.md §3), whatever ran before it. So
//! every field of every point's summary must agree to the bit, for host
//! and device buffers, on both sides of the eager threshold, with up to
//! OSU's 10 warm-ups, on every sweepable catalog machine, with one worker
//! (one world for the whole campaign) or several. Under `--check` the
//! warm-ups run, and the summaries agree too.

use std::sync::{Arc, Mutex, MutexGuard};

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
        (0u32..11, 1u32..60, 1u32..12, 1usize..7, any::<u64>()),
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

/// One size's warm-up, round trip by round trip, and timed loop: one-way
/// µs.
fn one_way_us(world: &mut MpiSim, a: Rank, b: Rank, bytes: u64, cfg: &OsuConfig) -> f64 {
    let iters = cfg.iters_for(bytes);
    for _ in 0..cfg.warmup {
        world.send(a, b, bytes).expect("send");
        world.recv(b, a, bytes).expect("recv");
        world.send(b, a, bytes).expect("send");
        world.recv(a, b, bytes).expect("recv");
    }
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

/// The `--check` switch is global: tests that read it take turns.
fn serial() -> MutexGuard<'static, ()> {
    static CHECKS: Mutex<()> = Mutex::new(());
    CHECKS.lock().unwrap_or_else(|e| e.into_inner())
}

type Points = Vec<(u64, Summary)>;

/// The campaign under test, then both references, on `m`'s `cores`.
fn campaign_and_references(
    m: &Machine,
    cores: (CoreId, CoreId),
    devices: Option<(DeviceId, DeviceId)>,
    cfg: &OsuConfig,
    seed: u64,
) -> (Points, [Points; 2]) {
    let got = match devices {
        None => osu_latency(&m.topo, &m.mpi, cores, cfg, seed),
        Some(d) => osu_latency_device(&m.topo, &m.mpi, cores, d, cfg, seed),
    };
    let got = got.into_iter().map(|p| (p.bytes, p.one_way_us)).collect();
    let want = [
        fresh_world_per_size(m, cores, devices, cfg, seed),
        fresh_world_per_rep(m, cores, devices, cfg, seed),
    ];
    (got, want)
}

fn assert_same_bits(got: &Points, want: &Points, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}");
    for ((gb, g), (wb, w)) in got.iter().zip(want) {
        assert_eq!(gb, wb, "{ctx}");
        assert_eq!(bits(g), bits(w), "{ctx} {gb} B: {g:?} vs {w:?}");
    }
}

/// The quick sweep's campaign: OSU's full size ladder, 0 B to 4 MiB, and
/// its 10 warm-ups, at the quick profile's iterations and reps.
fn quick_sweep() -> OsuConfig {
    OsuConfig {
        small_iters: 100,
        large_iters: 10,
        reps: 10,
        ..OsuConfig::paper()
    }
}

#[test]
fn the_quick_sweep_ladder_matches_on_every_sweepable_machine() {
    let _serial = serial();
    let cfg = quick_sweep();
    assert_eq!((cfg.sizes.len(), cfg.warmup), (24, 10));
    for m in sweepable() {
        for (pair, cores) in [
            ("socket", on_socket_pair(&m.topo)),
            ("node", on_node_pair(&m.topo)),
        ] {
            let cores = cores.expect("sweepable machine");
            for jobs in [1, 2] {
                set_jobs(jobs);
                let (got, want) = campaign_and_references(&m, cores, None, &cfg, 0x5EE9);
                for w in &want {
                    assert_same_bits(&got, w, &format!("{} {pair} jobs={jobs}", m.name));
                }
            }
        }
    }
}

/// Under `--check` no world fast-forwards, so every warm-up round trip
/// runs and the sanitizer sees it; the summaries are the unchecked
/// campaign's, bit for bit, and the sanitizer finds nothing.
#[test]
fn checked_campaigns_run_the_warmups_and_match() {
    let _serial = serial();
    let cfg = OsuConfig {
        sizes: vec![0, 8, 64 << 10, 1 << 20],
        reps: 3,
        ..quick_sweep()
    };
    let machines = sweepable();
    let cases = machines.iter().map(|m| {
        let cores = on_node_pair(&m.topo).expect("sweepable machine");
        let ndev = m.topo.devices.len();
        let devices = (ndev >= 2).then(|| (m.topo.devices[0].id, m.topo.devices[1].id));
        (m, cores, devices)
    });
    for (m, cores, devices) in cases {
        set_jobs(2);
        let (unchecked, _) = campaign_and_references(m, cores, devices, &cfg, 11);
        dessan::set_checks_enabled(true);
        dessan::take_global_findings();
        let (world, _, _) = fresh_world(m, cores, devices, 11, 0);
        let fast = world.fast_forwards();
        drop(world);
        let (got, want) = campaign_and_references(m, cores, devices, &cfg, 11);
        let findings = dessan::take_global_findings();
        dessan::set_checks_enabled(false);
        assert!(!fast, "{}: a checked world must run its warm-ups", m.name);
        assert!(findings.is_empty(), "{}: {findings:#?}", m.name);
        for w in want.iter().chain([&unchecked]) {
            assert_same_bits(&got, w, &format!("{} {devices:?} under --check", m.name));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_world_per_rep_matches_a_fresh_world_per_size(case in cases()) {
        let _serial = serial();
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
        let (got, want) = campaign_and_references(m, cores, devices, &cfg, case.seed);
        for w in &want {
            assert_same_bits(&got, w, &format!("{} {devices:?} {case:?}", m.name));
        }
    }
}
