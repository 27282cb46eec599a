//! Differential test of Comm|Scope's closed-form adaptive search against
//! the batch-by-batch search it replaced.
//!
//! The copy and wait loops end every iteration synchronized, so once two
//! simulated iterations show that the first took the loop's steady period
//! `P`, every batch of `n` takes exactly `n·P`, and the search runs on
//! those times. A launch batch is a launch train, whose host time is
//! `n·L` in either form. So every field of every summary must agree to
//! the bit with test-local copies of the old loops, which run every batch
//! through `GpuRuntime::repeat` or a train on a fresh runtime per rep: on
//! every catalog GPU machine, at random seeds, with the quick and paper
//! adaptive configurations, and with the launch cost, synchronize cost
//! and device memory bandwidth anywhere in their override ranges
//! (DESIGN.md §14.1). A fixture whose first iteration is longer than its
//! period must take the batch-by-batch fallback and still match, and so
//! must a traced runtime.

use std::collections::BTreeMap;
use std::sync::Arc;

use doe_benchlib::{adaptive_iterations, AdaptiveConfig, Samples, Summary};
use doe_commscope::search::per_iteration;
use doe_commscope::{
    d2d_latency_by_class, d2h_transfer, h2d_transfer, launch_latency, wait_latency,
    CommScopeConfig, Transfer,
};
use doe_gpurt::{Buffer, GpuError, GpuRuntime};
use doe_gpusim::GpuModel;
use doe_machines::{gpu_machines, Machine};
use doe_simtime::SimDuration;
use doe_topo::{DeviceId, LinkClass, NodeTopology};
use proptest::prelude::*;

fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn fresh(topo: &Arc<NodeTopology>, models: &Arc<[GpuModel]>, seed: u64) -> GpuRuntime {
    GpuRuntime::new(Arc::clone(topo), Arc::clone(models), seed)
}

/// The old search: every batch of `op` runs through `repeat`.
fn batch_by_batch(
    rt: &mut GpuRuntime,
    cfg: AdaptiveConfig,
    op: impl Fn(&mut GpuRuntime) -> Result<(), GpuError>,
) -> SimDuration {
    adaptive_iterations(cfg, |n| rt.repeat(n, &op).expect("batch")).1
}

fn summary(reps: usize, per_rep: impl FnMut(usize) -> f64) -> Summary {
    (0..reps).map(per_rep).collect::<Samples>().summary()
}

/// The old `launch_latency`: a synchronize, then a launch train, per batch.
fn ref_launch(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    dev: DeviceId,
    cfg: &CommScopeConfig,
    seed: u64,
) -> Summary {
    summary(cfg.reps, |rep| {
        let mut rt = fresh(topo, models, rep_seed(seed, rep));
        rt.set_device(dev).expect("device");
        let stream = rt.default_stream(dev).expect("stream");
        let (_iters, per) = adaptive_iterations(cfg.adaptive, |n| {
            rt.device_synchronize().expect("sync");
            rt.launch_empty_train(&stream, n).expect("launch")
        });
        rt.device_synchronize().expect("final sync");
        per.as_us()
    })
}

/// The old `wait_latency`.
fn ref_wait(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    dev: DeviceId,
    cfg: &CommScopeConfig,
    seed: u64,
) -> Summary {
    summary(cfg.reps, |rep| {
        let mut rt = fresh(topo, models, rep_seed(seed, rep));
        rt.set_device(dev).expect("device");
        batch_by_batch(&mut rt, cfg.adaptive, GpuRuntime::device_synchronize).as_us()
    })
}

/// Copy `src` to `dst` on `exec`'s default stream, then synchronize.
fn copy_op<'a>(
    dst: &'a Buffer,
    src: &'a Buffer,
    bytes: u64,
    exec: DeviceId,
) -> impl Fn(&mut GpuRuntime) -> Result<(), GpuError> + 'a {
    move |rt| {
        let s = rt.default_stream(exec)?;
        rt.memcpy_async(dst, src, bytes, &s)?;
        rt.stream_synchronize(&s)
    }
}

/// The old `transfer_between`: the latency search, then one large copy.
fn ref_transfer(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    bufs: impl Fn(u64) -> (Buffer, Buffer),
    dev: DeviceId,
    cfg: &CommScopeConfig,
    seed: u64,
) -> Transfer {
    let per_rep: Vec<(f64, f64)> = (0..cfg.reps)
        .map(|rep| {
            let mut rt = fresh(topo, models, rep_seed(seed, rep));
            rt.set_device(dev).expect("device");
            let (dst, src) = bufs(cfg.latency_bytes.max(cfg.bandwidth_bytes));
            let op = copy_op(&dst, &src, cfg.latency_bytes, dev);
            let lat = batch_by_batch(&mut rt, cfg.adaptive, op).as_us();
            let t0 = rt.now();
            copy_op(&dst, &src, cfg.bandwidth_bytes, dev)(&mut rt).expect("copy");
            (lat, rt.now().since(t0).bandwidth_gb_s(cfg.bandwidth_bytes))
        })
        .collect();
    Transfer {
        latency_us: per_rep
            .iter()
            .map(|&(l, _)| l)
            .collect::<Samples>()
            .summary(),
        bandwidth_gb_s: per_rep
            .iter()
            .map(|&(_, b)| b)
            .collect::<Samples>()
            .summary(),
    }
}

/// The old `d2d_latency_by_class`.
fn ref_d2d(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    cfg: &CommScopeConfig,
    seed: u64,
) -> BTreeMap<LinkClass, Summary> {
    topo.representative_pairs()
        .into_iter()
        .map(|(class, (src, dst))| {
            let s = summary(cfg.reps, |rep| {
                let mut rt = fresh(topo, models, rep_seed(seed ^ (class as u64), rep));
                rt.set_device(src).expect("device");
                let a = Buffer::device(src, cfg.latency_bytes);
                let b = Buffer::device(dst, cfg.latency_bytes);
                let op = copy_op(&b, &a, cfg.latency_bytes, src);
                batch_by_batch(&mut rt, cfg.adaptive, op).as_us()
            });
            (class, s)
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

/// One override pick: `(kind, raw)`. Kind 0 = the range's low bound,
/// 1 = its high bound, 2 = log-uniform inside it, 3 = the catalog value.
type Pick = (u8, f64);

/// `catalog` under `pick` in `[lo, hi]`.
fn pick(catalog: f64, (kind, raw): Pick, lo: f64, hi: f64) -> f64 {
    match kind {
        0 => lo,
        1 => hi,
        2 => {
            // Log-uniform over [max(lo, 1e-3), hi], with 0 itself kept
            // reachable through kind 0.
            let (a, b) = (lo.max(1e-3).ln(), hi.ln());
            (a + raw * (b - a)).exp()
        }
        _ => catalog,
    }
}

/// The machine's models with every device's launch cost, synchronize
/// cost and device memory bandwidth overridden as `picks` say, within the
/// ranges of `gpu_launch_us`, `gpu_sync_us` and `gpu_peak_bw_gb_s`.
fn models(m: &Machine, picks: [Pick; 3]) -> Arc<[GpuModel]> {
    let mut models = m.gpu_models.clone();
    for g in &mut models {
        let launch = pick(g.launch_overhead.as_us(), picks[0], 0.0, 1e6);
        let sync = pick(g.sync_overhead.as_us(), picks[1], 0.0, 1e6);
        g.launch_overhead = SimDuration::from_us(launch);
        g.sync_overhead = SimDuration::from_us(sync);
        g.hbm.peak_bw_gb_s = pick(g.hbm.peak_bw_gb_s, picks[2], 0.1, 1e6);
    }
    models.into()
}

fn picks() -> impl Strategy<Value = Pick> {
    (0u8..4, 0.0f64..1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn closed_form_search_matches_batch_by_batch(
        machine in 0usize..8,
        paper in any::<bool>(),
        reps in 1usize..4,
        seed in any::<u64>(),
        overrides in (picks(), picks(), picks()),
    ) {
        let machines = gpu_machines();
        let m = &machines[machine % machines.len()];
        let base = if paper { CommScopeConfig::paper() } else { CommScopeConfig::quick() };
        let cfg = CommScopeConfig { reps, ..base };
        let models = models(m, [overrides.0, overrides.1, overrides.2]);
        let topo = &m.topo;
        let dev = topo.devices[0].id;
        let numa = topo.device(dev).expect("device").local_numa;
        let ctx = format!("{} paper={paper} seed={seed:#x} {overrides:?}", m.name);

        let got = launch_latency(topo, &models, dev, &cfg, seed);
        prop_assert_eq!(bits(&got), bits(&ref_launch(topo, &models, dev, &cfg, seed)), "launch: {}", ctx);
        let got = wait_latency(topo, &models, dev, &cfg, seed);
        prop_assert_eq!(bits(&got), bits(&ref_wait(topo, &models, dev, &cfg, seed)), "wait: {}", ctx);

        let h2d = |b| (Buffer::device(dev, b), Buffer::pinned_host(numa, b));
        let d2h = |b| (Buffer::pinned_host(numa, b), Buffer::device(dev, b));
        for (name, got, want) in [
            (
                "h2d",
                h2d_transfer(topo, &models, dev, &cfg, seed),
                ref_transfer(topo, &models, h2d, dev, &cfg, seed ^ 0x4832_4400),
            ),
            (
                "d2h",
                d2h_transfer(topo, &models, dev, &cfg, seed),
                ref_transfer(topo, &models, d2h, dev, &cfg, seed ^ 0x4432_4800),
            ),
        ] {
            prop_assert_eq!(bits(&got.latency_us), bits(&want.latency_us), "{} latency: {}", name, ctx);
            prop_assert_eq!(bits(&got.bandwidth_gb_s), bits(&want.bandwidth_gb_s), "{} bandwidth: {}", name, ctx);
        }

        let got = d2d_latency_by_class(topo, &models, &cfg, seed);
        let want = ref_d2d(topo, &models, &cfg, seed);
        prop_assert_eq!(got.keys().collect::<Vec<_>>(), want.keys().collect::<Vec<_>>());
        for (class, g) in &got {
            prop_assert_eq!(bits(g), bits(&want[class]), "d2d {:?}: {}", class, ctx);
        }
    }
}

/// A copy loop whose stream starts busy: the first iteration waits for a
/// 50 µs kernel, so it is longer than the period the second boundary
/// shows. `period` declines, and the search runs batch by batch from the
/// two iterations it ran: same time, same runtime, as the old search.
#[test]
fn a_first_iteration_longer_than_the_period_takes_the_fallback() {
    let m = doe_machines::by_name("Frontier").expect("catalog");
    let models: Arc<[GpuModel]> = m.gpu_models.clone().into();
    let dev = m.topo.devices[0].id;
    let numa = m.topo.device(dev).expect("device").local_numa;
    let (dst, src) = (Buffer::device(dev, 128), Buffer::pinned_host(numa, 128));
    let op = copy_op(&dst, &src, 128, dev);
    let busy = || {
        let mut rt = fresh(&m.topo, &models, 7);
        let s = rt.default_stream(dev).expect("stream");
        rt.launch_kernel(&s, SimDuration::from_us(50.0))
            .expect("kernel");
        rt
    };
    assert_eq!(busy().period(&op).expect("probe"), None);
    let start_at_one = AdaptiveConfig {
        start_iters: 1,
        ..CommScopeConfig::quick().adaptive
    };
    for cfg in [
        CommScopeConfig::quick().adaptive,
        CommScopeConfig::paper().adaptive,
        start_at_one,
    ] {
        let (mut got_rt, mut want_rt) = (busy(), busy());
        let got = per_iteration(&mut got_rt, cfg, &op);
        let want = batch_by_batch(&mut want_rt, cfg, &op);
        assert_eq!(got, want, "{cfg:?}");
        assert_eq!(got_rt.now(), want_rt.now(), "{cfg:?}");
        let s = want_rt.default_stream(dev).expect("stream");
        assert_eq!(got_rt.stream_tail(&s), want_rt.stream_tail(&s), "{cfg:?}");
    }
    // From an idle stream the same loop is periodic from its first
    // iteration, so the closed form applies.
    assert!(fresh(&m.topo, &models, 7)
        .period(&op)
        .expect("probe")
        .is_some());
}

/// Under tracing `period` declines and every iteration runs: the traced
/// search records as many spans as the old one, with the same result.
#[test]
fn a_traced_search_runs_every_iteration() {
    let m = doe_machines::by_name("Summit").expect("catalog");
    let models: Arc<[GpuModel]> = m.gpu_models.clone().into();
    let dev = m.topo.devices[0].id;
    let numa = m.topo.device(dev).expect("device").local_numa;
    let (dst, src) = (Buffer::device(dev, 128), Buffer::pinned_host(numa, 128));
    let op = copy_op(&dst, &src, 128, dev);
    let traced = || {
        let mut rt = fresh(&m.topo, &models, 3);
        rt.enable_tracing();
        rt
    };
    let cfg = CommScopeConfig::quick().adaptive;
    let (mut got_rt, mut want_rt) = (traced(), traced());
    assert_eq!(
        per_iteration(&mut got_rt, cfg, &op),
        batch_by_batch(&mut want_rt, cfg, &op)
    );
    let spans = |rt: &mut GpuRuntime| rt.take_trace().expect("traced").len();
    let n = spans(&mut want_rt);
    assert!(n > 100, "{n} spans");
    assert_eq!(spans(&mut got_rt), n);
}
