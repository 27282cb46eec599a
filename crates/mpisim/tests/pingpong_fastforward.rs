//! Differential test of [`MpiSim::pingpong`]'s steady-state fast-forward
//! against the op-by-op loop it replaces.
//!
//! Two worlds are built identically on a catalog machine; one runs the
//! round trips as explicit `send`/`recv` calls, the other through
//! `pingpong`. Both ranks' clocks must agree afterwards, `pingpong` must
//! return the reference's elapsed time on the initiating rank, one more
//! explicit round trip must give identical results in both, and fresh
//! probe ranks must find every NUMA copy port at the same horizon. A
//! world on a fabric gets the same comparison.

use std::sync::Arc;

use doe_machines::all_machines;
use doe_mpi::{Fabric, FabricConfig, MpiConfig, MpiSim, NodeId, Rank};
use doe_simtime::{SimDuration, SimTime};
use doe_topo::NodeTopology;
use proptest::prelude::*;

/// One generated scenario.
#[derive(Debug, Clone)]
struct Case {
    machine: usize,
    /// Raw picks, reduced modulo the machine's core and device counts.
    cores: (usize, usize),
    devices: (usize, usize),
    /// 0 = host/host, 1 = device/device, 2 = host/device.
    buffers: u8,
    /// 0 = uniform in [0, 4 MiB], 1 = the eager threshold ± 2, 2 = 0 B,
    /// 3 = 4 MiB.
    size_kind: u8,
    raw_size: u64,
    warmup: u32,
    iters: u32,
    seed: u64,
    /// A third rank that takes no part in the ping-pong, its clock set
    /// `bystander_lead` ps ahead of (or behind, when negative) the pair.
    bystander: bool,
    bystander_lead: i64,
    /// `b` leaves one message of the ping-pong's size pending at `a`
    /// first, so every round trip receives the previous one's reply: the
    /// world is never quiescent, which rules the fast path out.
    pending: bool,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        (
            0usize..13,
            (any::<usize>(), any::<usize>()),
            (any::<usize>(), any::<usize>()),
            0u8..3,
        ),
        (
            0u8..4,
            0u64..(4 << 20) + 1,
            0u32..4,
            1u32..2001,
            any::<u64>(),
        ),
        (any::<bool>(), -5_000_000i64..5_000_000, any::<bool>()),
    )
        .prop_map(
            |(
                (machine, cores, devices, buffers),
                (size_kind, raw_size, warmup, iters, seed),
                (bystander, bystander_lead, pending),
            )| Case {
                machine,
                cores,
                devices,
                buffers,
                size_kind,
                raw_size,
                warmup,
                iters,
                seed,
                bystander,
                bystander_lead,
                pending,
            },
        )
}

fn message_bytes(case: &Case, cfg: &MpiConfig) -> u64 {
    let thr = cfg.eager_threshold;
    match case.size_kind {
        0 => case.raw_size,
        1 => (thr + case.raw_size % 5).saturating_sub(2),
        2 => 0,
        _ => 4 << 20,
    }
}

/// A world with the case's ranks, or `None` when the machine cannot host
/// the requested buffer placement.
fn build(
    topo: &Arc<NodeTopology>,
    cfg: &MpiConfig,
    case: &Case,
    checks: bool,
) -> Option<(MpiSim, Rank, Rank)> {
    let mut w = MpiSim::new(Arc::clone(topo), cfg.clone(), case.seed);
    let ncores = topo.cores.len();
    let ndev = topo.devices.len();
    let core_a = topo.cores[case.cores.0 % ncores].id;
    let mut core_b = topo.cores[case.cores.1 % ncores].id;
    if core_b == core_a {
        core_b = topo.cores[(case.cores.0 + 1) % ncores].id;
    }
    let dev = |pick: usize| topo.devices[pick % ndev].id;
    let (a, b) = match case.buffers {
        0 => (w.add_host_rank(core_a).ok()?, w.add_host_rank(core_b).ok()?),
        _ if ndev == 0 => return None,
        1 => {
            let (da, mut db) = (dev(case.devices.0), dev(case.devices.1));
            if db == da && ndev > 1 {
                db = dev(case.devices.0 + 1);
            }
            (
                w.add_device_rank(core_a, da).ok()?,
                w.add_device_rank(core_b, db).ok()?,
            )
        }
        _ => (
            w.add_host_rank(core_a).ok()?,
            w.add_device_rank(core_b, dev(case.devices.1)).ok()?,
        ),
    };
    if checks {
        w.enable_checks();
    }
    if case.bystander {
        let c = w.add_host_rank(topo.cores[0].id).ok()?;
        let lead = SimDuration::from_ps(case.bystander_lead.unsigned_abs());
        if case.bystander_lead >= 0 {
            w.advance(c, lead).ok()?;
        } else {
            w.advance(a, lead).ok()?;
            w.advance(b, lead).ok()?;
        }
    }
    Some((w, a, b))
}

/// The op-by-op reference: `iters` explicit round trips.
fn round_trips(w: &mut MpiSim, a: Rank, b: Rank, bytes: u64, iters: u32) -> SimDuration {
    let t0 = w.time(a).expect("rank a");
    for _ in 0..iters {
        w.send(a, b, bytes).expect("send");
        w.recv(b, a, bytes).expect("recv");
        w.send(b, a, bytes).expect("send");
        w.recv(a, b, bytes).expect("recv");
    }
    w.time(a).expect("rank a").since(t0)
}

/// The receive instants of one explicit round trip.
fn probe(w: &mut MpiSim, a: Rank, b: Rank, bytes: u64) -> (SimTime, SimTime) {
    w.send(a, b, bytes).expect("send");
    let at_b = w.recv(b, a, bytes).expect("recv");
    w.send(b, a, bytes).expect("send");
    let at_a = w.recv(a, b, bytes).expect("recv");
    (at_b, at_a)
}

/// Each NUMA domain's copy-port horizon, read by a fresh rank (clock 0)
/// whose eager send queues behind it. The ping-pong pair itself never
/// waits on a port it used, so only a newcomer can see one.
fn port_horizons(w: &mut MpiSim, topo: &NodeTopology, to: Rank) -> Vec<SimTime> {
    let bytes = w.config().eager_threshold.min(4096);
    topo.numa_domains
        .iter()
        .filter_map(|n| topo.cores.iter().find(|c| c.numa == n.id))
        .map(|core| {
            let probe = w.add_host_rank(core.id).expect("probe rank");
            w.send(probe, to, bytes).expect("probe send");
            w.recv(to, probe, bytes).expect("probe recv");
            w.time(probe).expect("probe rank")
        })
        .collect()
}

fn check_case(case: &Case, checks: bool) {
    let machines = all_machines();
    let m = &machines[case.machine];
    let Some((mut reference, a, b)) = build(&m.topo, &m.mpi, case, checks) else {
        return;
    };
    let (mut fast, _, _) = build(&m.topo, &m.mpi, case, checks).expect("same build");
    let bytes = message_bytes(case, &m.mpi);
    let ctx = format!("{} {bytes} B x {} ({case:?})", m.name, case.iters);
    if case.pending {
        reference.send_nb(b, a, bytes).expect("stray send");
        fast.send_nb(b, a, bytes).expect("stray send");
    }

    // The OSU shape: warmup, barrier, timed loop.
    let warm_ref = round_trips(&mut reference, a, b, bytes, case.warmup);
    let warm_fast = fast.pingpong(a, b, bytes, case.warmup).expect("warmup");
    assert_eq!(warm_fast, warm_ref, "warmup: {ctx}");
    reference.barrier();
    fast.barrier();
    let dt_ref = round_trips(&mut reference, a, b, bytes, case.iters);
    let dt_fast = fast.pingpong(a, b, bytes, case.iters).expect("pingpong");
    assert_eq!(dt_fast, dt_ref, "elapsed: {ctx}");
    for r in [a, b] {
        assert_eq!(fast.time(r), reference.time(r), "clock of {r:?}: {ctx}");
    }

    // The world is left where the full loop leaves it: the next round
    // trip and the copy ports are indistinguishable.
    assert_eq!(
        probe(&mut fast, a, b, bytes),
        probe(&mut reference, a, b, bytes),
        "next round trip: {ctx}"
    );
    if case.pending {
        assert_eq!(
            fast.recv(a, b, bytes),
            reference.recv(a, b, bytes),
            "stray message: {ctx}"
        );
    }
    assert_eq!(
        port_horizons(&mut fast, &m.topo, a),
        port_horizons(&mut reference, &m.topo, a),
        "copy ports: {ctx}"
    );
    // Under the sanitizer both ran op by op, so they saw the same hazards
    // (a stray rendezvous reply is a genuine deadlock).
    assert_eq!(fast.check_findings(), reference.check_findings(), "{ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fast path equals the op-by-op loop on catalog machines.
    #[test]
    fn fast_forward_matches_op_by_op(case in cases()) {
        check_case(&case, false);
    }

    /// Under the sanitizer `pingpong` runs op by op: same result, same
    /// findings as the checked op-by-op loop.
    #[test]
    fn checked_pingpong_matches_op_by_op(case in cases()) {
        check_case(&case, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On a fabric world too (ranks on nodes `a` and `b`, background flows
    /// on `a`'s group), the fast path equals the op-by-op loop.
    #[test]
    fn fabric_fast_forward_matches_op_by_op(
        (a, b, flows) in (0u32..128, 0u32..128, 0u32..4),
        (bytes, iters, seed) in (0u64..(1 << 21), 1u32..200, any::<u64>()),
    ) {
        prop_assume!(a != b);
        let build = || {
            let mut fabric = Fabric::new(FabricConfig::slingshot_like());
            fabric.add_background_flows(fabric.group_of(NodeId(a)), flows);
            let mut w = MpiSim::on_fabric(fabric, MpiConfig::default_fabric(), seed).expect("config");
            let ranks = [a, b].map(|n| w.add_node_rank(NodeId(n)).expect("node"));
            (w, ranks[0], ranks[1])
        };
        let ((mut fast, ra, rb), (mut reference, ..)) = (build(), build());
        let dt_ref = round_trips(&mut reference, ra, rb, bytes, iters);
        prop_assert_eq!(fast.pingpong(ra, rb, bytes, iters).expect("pingpong"), dt_ref);
        prop_assert_eq!((fast.time(ra), fast.time(rb)), (reference.time(ra), reference.time(rb)));
        prop_assert_eq!(probe(&mut fast, ra, rb, bytes), probe(&mut reference, ra, rb, bytes));
    }
}

/// Every catalog machine at the OSU sizes and paper iteration counts,
/// host and device buffers: a deterministic sweep next to the random one.
#[test]
fn every_machine_at_osu_sizes_and_paper_iters() {
    for (machine, m) in all_machines().iter().enumerate() {
        for size_kind in 0..4 {
            for buffers in 0..3 {
                let case = Case {
                    machine,
                    cores: (0, m.topo.cores.len() / 2),
                    devices: (0, 1),
                    buffers,
                    size_kind,
                    raw_size: 8 << 10,
                    warmup: 10,
                    iters: if size_kind == 0 { 1000 } else { 100 },
                    seed: 0x5EED ^ machine as u64,
                    bystander: false,
                    bystander_lead: 0,
                    pending: false,
                };
                check_case(&case, false);
            }
        }
    }
}
