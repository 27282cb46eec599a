//! Studies beyond the paper's tables — its §5 future-work list, made
//! runnable.
//!
//! 1. [`internode_latency_table`] / [`contention_series`] /
//!    [`placement_study`] / [`internode_collectives_table`] — inter-node
//!    measurements over a `doe-mpi` fabric world.
//! 2. [`cpu_vendor_table`] — the Intel/AMD/Arm comparison on the
//!    hypothetical extension machines.
//! 3. [`mpi_variant_table`] — the same machine under different MPI
//!    implementation models.

use doe_benchlib::{rep_seed, Samples};
use doe_machines::extensions::extension_machines;
use doe_mpi::{apply_variant, Fabric, FabricConfig, MpiConfig, MpiSim, MpiVariant, NodeId, Rank};
use doe_osu::{
    node_world, on_socket_pair, osu_allreduce, osu_barrier, osu_latency, osu_latency_device,
    pingpong_once, windowed_bandwidth, AllreduceAlgo, OsuConfig,
};
use doe_report::Table;
use doe_topo::DeviceId;

use crate::campaign::Campaign;
use crate::sched::run_cells;
use crate::table5::device_pair_cores;

/// A world on the Slingshot-like fabric with an HPC NIC stack, one rank on
/// each of `nodes`.
fn fabric_world(seed: u64, nodes: impl IntoIterator<Item = u32>) -> (MpiSim, Vec<Rank>) {
    let fabric = Fabric::new(FabricConfig::slingshot_like());
    let mut w = MpiSim::on_fabric(fabric, MpiConfig::default_fabric(), seed).expect("valid config");
    let ranks = nodes
        .into_iter()
        .map(|n| w.add_node_rank(NodeId(n)).expect("node"))
        .collect();
    (w, ranks)
}

/// Inter-node OSU-style latency/bandwidth: intra-group and inter-group
/// placements, several message sizes.
pub fn internode_latency_table(seed: u64) -> Table {
    let mut t = Table::new(
        "Inter-node point-to-point (future work 1): latency (us) and bandwidth (GB/s)",
        &[
            "Bytes",
            "Intra-group lat",
            "Inter-group lat",
            "Inter-group BW",
        ],
    );
    for bytes in [0u64, 1024, 8 * 1024, 64 * 1024, 1 << 20, 1 << 24] {
        let mut near = Samples::new();
        let mut far = Samples::new();
        let mut bw = Samples::new();
        for rep in 0..10 {
            let (mut w, r) = fabric_world(rep_seed(seed, rep), [0, 1, 16]);
            near.push(pingpong_once(&mut w, r[0], r[1], bytes, 0, 50));
            far.push(pingpong_once(&mut w, r[0], r[2], bytes, 0, 50));
            if bytes > 0 {
                bw.push(windowed_bandwidth(&mut w, r[0], r[2], bytes, 3).expect("bw"));
            }
        }
        t.push_row(vec![
            bytes.to_string(),
            format!("{:.3}", near.summary().mean),
            format!("{:.3}", far.summary().mean),
            if bytes > 0 {
                format!("{:.2}", bw.summary().mean)
            } else {
                "-".to_string()
            },
        ]);
    }
    t
}

/// The "there goes the neighborhood" experiment: inter-group bandwidth as
/// background flows pile onto the global uplink. Returns `(flows, GB/s)`.
pub fn contention_series(seed: u64, max_flows: u32) -> Vec<(u32, f64)> {
    (0..=max_flows)
        .map(|flows| {
            let (mut w, r) = fabric_world(seed, [0, 16]);
            w.fabric_mut()
                .expect("fabric")
                .add_background_flows(0, flows);
            let bw = windowed_bandwidth(&mut w, r[0], r[1], 1 << 22, 3).expect("bandwidth");
            (flows, bw)
        })
        .collect()
}

/// Job-placement study on the fabric: a ring allreduce with ranks packed
/// into one switch group vs spread one-per-group, quiet and with noisy
/// neighbours — the scheduling question behind "there goes the
/// neighborhood". Returns rows `(placement, quiet µs, noisy µs)`.
pub fn placement_study(seed: u64, ranks: u32, bytes: u64) -> Vec<(String, f64, f64)> {
    let run = |spread: bool, noisy: bool| -> f64 {
        let stride = if spread { 16 } else { 1 };
        let (mut w, rs) = fabric_world(seed, (0..ranks).map(|i| i * stride));
        if noisy {
            let fabric = w.fabric_mut().expect("fabric");
            for g in 0..8 {
                fabric.add_background_flows(g, 3);
            }
        }
        w.barrier();
        let done = doe_osu::allreduce_ring(&mut w, &rs, bytes).expect("allreduce");
        done.as_us()
    };
    vec![
        (
            "packed (one group)".to_string(),
            run(false, false),
            run(false, true),
        ),
        (
            "spread (one per group)".to_string(),
            run(true, false),
            run(true, true),
        ),
    ]
}

/// The inter-node collectives table's protocol: ten repetitions of one
/// timed run each. Every cost is fixed within a fabric world, so more
/// runs per repetition average equal numbers.
fn internode_collectives_osu() -> OsuConfig {
    OsuConfig {
        small_iters: 1,
        large_iters: 1,
        reps: 10,
        ..OsuConfig::quick()
    }
}

/// Both allreduce algorithms executed across 64 nodes of the fabric, one
/// rank per node, from 8 B to 128 MiB, plus the barrier.
pub fn internode_collectives_table(seed: u64) -> Table {
    let sizes = [3u32, 10, 14, 17, 20, 24, 27].map(|shift| 1u64 << shift);
    collectives_table(
        "Inter-node collectives, 64 nodes (one rank per node, executed; future work 1)",
        |rep_seed| fabric_world(rep_seed, 0..64),
        &sizes,
        &internode_collectives_osu(),
        |_| seed,
    )
}

/// Barrier plus both allreduce algorithms executed on the worlds of
/// `world` across `sizes`; "Winner" is the algorithm with the lower mean.
/// `seed` maps a benchmark label to its seed.
fn collectives_table(
    title: impl Into<String>,
    world: impl Fn(u64) -> (MpiSim, Vec<Rank>),
    sizes: &[u64],
    cfg: &OsuConfig,
    seed: impl Fn(&str) -> u64,
) -> Table {
    let mut t = Table::new(
        title,
        &["Bytes", "Recursive-doubling (us)", "Ring (us)", "Winner"],
    );
    let barrier = osu_barrier(&world, cfg, seed("barrier"));
    for &bytes in sizes {
        let rd = osu_allreduce(
            &world,
            bytes,
            AllreduceAlgo::RecursiveDoubling,
            cfg,
            seed("allreduce-rd"),
        );
        let ring = osu_allreduce(
            &world,
            bytes,
            AllreduceAlgo::Ring,
            cfg,
            seed("allreduce-ring"),
        );
        let winner = if rd.mean <= ring.mean {
            "recursive-doubling"
        } else {
            "ring"
        };
        t.push_row(vec![
            bytes.to_string(),
            format!("{:.2}", rd.mean),
            format!("{:.2}", ring.mean),
            winner.to_string(),
        ]);
    }
    t.push_row(vec![
        "barrier".to_string(),
        format!("{:.2}", barrier.mean),
        String::new(),
        String::new(),
    ]);
    t
}

/// Table 4's columns on the hypothetical AMD/Arm/HBM machines (future
/// work 3). Clearly labelled: these rows are not paper results.
pub fn cpu_vendor_table(c: &Campaign) -> Table {
    let mut t = Table::new(
        "CPU vendor comparison on hypothetical machines (future work 3; NOT paper data)",
        &[
            "Machine",
            "CPU",
            "Single",
            "All",
            "Peak",
            "On-Socket",
            "On-Node",
        ],
    );
    for m in extension_machines() {
        let row = crate::table4::run_machine(&m, c);
        t.push_row(vec![
            m.name.to_string(),
            m.cpu_model.to_string(),
            doe_report::pm_summary(&row.single),
            doe_report::pm_summary(&row.all),
            m.host_peak_citation.to_string(),
            doe_report::pm_summary(&row.on_socket),
            doe_report::pm_summary(&row.on_node),
        ]);
    }
    t
}

/// Intra-node collectives *executed* over the MPI runtime on one machine:
/// barrier plus both allreduce algorithms across a size sweep, with eight
/// ranks on the machine's first cores (the paper's "one MPI rank per
/// core" convention).
pub fn intranode_collectives_table(machine: &str, c: &Campaign) -> Option<Table> {
    let m = doe_machines::by_name(machine)?;
    let cores: Vec<_> = m.topo.cores.iter().take(8).map(|core| core.id).collect();
    if cores.len() < 8 {
        return None;
    }
    let mut cfg = c.osu.clone();
    cfg.reps = cfg.reps.min(10);
    cfg.small_iters = cfg.small_iters.min(100);
    cfg.large_iters = cfg.large_iters.min(10);
    Some(collectives_table(
        format!("Intra-node collectives on {} (8 ranks, executed)", m.name),
        node_world(&m.topo, &m.mpi, &cores),
        &[8, 1024, 65_536, 1 << 20, 4 << 20],
        &cfg,
        |bench| c.seed_for(m.name, bench),
    ))
}

/// One machine's host and device MPI latency under each implementation
/// model (future work 4).
pub fn mpi_variant_table(machine: &str, c: &Campaign) -> Option<Table> {
    let m = doe_machines::by_name(machine)?;
    let mut t = Table::new(
        format!(
            "MPI implementation comparison on {} (future work 4; cf. [26])",
            m.name
        ),
        &[
            "Implementation",
            "Host-to-Host (us)",
            "Device-to-Device (us)",
        ],
    );
    let socket_pair = on_socket_pair(&m.topo)?;
    // The variants are independent runs: they fan out over the worker
    // pool.
    let rows = run_cells(&MpiVariant::ALL, |&variant| {
        let mpi = apply_variant(&m.mpi, variant);
        let h2h = osu_latency(
            &m.topo,
            &mpi,
            socket_pair,
            &c.osu,
            c.seed_for(m.name, variant.name()),
        )
        .remove(0)
        .one_way_us;
        let d2d_cell = if m.is_accelerated() && m.topo.device_count() >= 2 {
            let (da, db) = (DeviceId(0), DeviceId(1));
            let cores = device_pair_cores(&m.topo, da, db);
            let lat = osu_latency_device(
                &m.topo,
                &mpi,
                cores,
                (da, db),
                &c.osu,
                c.seed_for(m.name, variant.name()) ^ 0xD2D,
            )
            .remove(0)
            .one_way_us;
            doe_report::pm_summary(&lat)
        } else {
            "-".to_string()
        };
        vec![
            variant.name().to_string(),
            doe_report::pm_summary(&h2h),
            d2d_cell,
        ]
    });
    for row in rows {
        t.push_row(row);
    }
    Some(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internode_table_has_monotone_latency() {
        let t = internode_latency_table(1);
        assert_eq!(t.rows.len(), 6);
        let lats: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[2].parse::<f64>().expect("latency cell"))
            .collect();
        for w in lats.windows(2) {
            assert!(w[1] >= w[0] * 0.95, "{lats:?}");
        }
    }

    #[test]
    fn contention_series_degrades_monotonically() {
        let series = contention_series(2, 6);
        assert_eq!(series.len(), 7);
        for w in series.windows(2) {
            assert!(w[1].1 <= w[0].1 * 1.01, "{series:?}");
        }
        // Meaningful degradation by 6 background flows.
        assert!(series[6].1 < series[0].1 / 3.0);
    }

    #[test]
    fn placement_study_orders_as_expected() {
        let rows = placement_study(3, 8, 1 << 20);
        assert_eq!(rows.len(), 2);
        let (packed_quiet, packed_noisy) = (rows[0].1, rows[0].2);
        let (spread_quiet, spread_noisy) = (rows[1].1, rows[1].2);
        // Spread costs more than packed, quiet or noisy.
        assert!(spread_quiet > packed_quiet);
        // Noise hurts the spread job (global links) far more than the
        // packed one (intra-group links are unaffected).
        assert!(spread_noisy > spread_quiet * 1.5);
        assert!(packed_noisy < packed_quiet * 1.1);
    }

    #[test]
    fn collectives_table_shows_a_crossover() {
        let t = internode_collectives_table(4);
        let winners: Vec<&str> = t
            .rows
            .iter()
            .filter(|r| r.len() == 4 && !r[3].is_empty())
            .map(|r| r[3].as_str())
            .collect();
        assert!(winners.contains(&"recursive-doubling"));
        assert!(winners.contains(&"ring"));
    }

    /// The table's ring cell is the executed ring: the same fabric worlds
    /// (8 nodes here, the table's seed and protocol), each timed by a
    /// direct `allreduce_ring` after the opening barrier.
    #[test]
    fn internode_ring_cell_is_the_executed_ring() {
        let (seed, bytes, nodes) = (4, 1 << 20, 0..8);
        let cfg = internode_collectives_osu();
        let t = collectives_table(
            "",
            |rep_seed| fabric_world(rep_seed, nodes.clone()),
            &[bytes],
            &cfg,
            |_| seed,
        );
        let direct = doe_benchlib::run_reps(cfg.reps, |rep| {
            let (mut w, ranks) = fabric_world(rep_seed(seed, rep), nodes.clone());
            w.barrier();
            let t0 = w.time(ranks[0]).expect("rank");
            let done = doe_osu::allreduce_ring(&mut w, &ranks, bytes).expect("allreduce");
            done.since(t0).as_us()
        })
        .summary();
        assert_eq!(t.rows[0][2], format!("{:.2}", direct.mean));
    }

    #[test]
    fn intranode_collectives_cross_over() {
        let t = intranode_collectives_table("Manzano", &Campaign::quick()).expect("machine");
        let winners: Vec<&str> = t
            .rows
            .iter()
            .filter(|r| !r[3].is_empty())
            .map(|r| r[3].as_str())
            .collect();
        assert!(winners.contains(&"recursive-doubling"), "{winners:?}");
        assert!(winners.contains(&"ring"), "{winners:?}");
    }

    #[test]
    fn vendor_table_covers_the_three_extensions() {
        let t = cpu_vendor_table(&Campaign::quick());
        assert_eq!(t.rows.len(), 3);
        assert!(t.to_ascii().contains("A64FX"));
        assert!(t.title.contains("NOT paper data"));
    }

    #[test]
    fn variant_table_separates_rma_from_staged_on_summit() {
        let t = mpi_variant_table("Summit", &Campaign::quick()).expect("machine");
        assert_eq!(t.rows.len(), 4);
        let cell = |impl_name: &str| -> f64 {
            let row = t
                .rows
                .iter()
                .find(|r| r[0].contains(impl_name))
                .expect("row");
            row[2]
                .split_whitespace()
                .next()
                .expect("mean")
                .parse()
                .expect("numeric")
        };
        // GDR-style stacks beat the staged stacks by several x on device
        // latency — the [26] observation.
        assert!(cell("mvapich2-gdr") * 2.0 < cell("spectrum-mpi"));
        assert!(cell("cray-mpich") < cell("openmpi+ucx"));
    }
}
