//! Differential test of [`GpuRuntime::launch_train`] and
//! [`GpuRuntime::launch_empty_train`] against the launch-by-launch loop
//! they replace.
//!
//! Two runtimes are built identically on a catalog GPU machine and brought
//! to the same entry state: a stream idle since before the host clock,
//! drained exactly at it, or busy with an earlier kernel. One launches `n`
//! kernels in a plain loop, the other as one train. Both must report the
//! same elapsed time, leave the host clock and every stream tail at the
//! same instant, and give the same result for one more explicit launch.
//! Under the sanitizer and tracing both must run every launch, report the
//! same findings and record the same spans.

use std::sync::Arc;

use doe_gpurt::{GpuRuntime, StreamHandle};
use doe_gpusim::GpuModel;
use doe_machines::{all_machines, Machine};
use doe_simtime::{SimDuration, SimTime};
use doe_topo::DeviceId;
use proptest::prelude::*;

/// One generated scenario.
#[derive(Debug, Clone)]
struct Case {
    /// Index into the catalog's GPU machines.
    machine: usize,
    /// Raw device pick, reduced modulo the machine's device count.
    device: usize,
    /// Launch on the device's default stream, or on a second stream.
    second_stream: bool,
    /// `launch_empty_train` rather than `launch_train`.
    empty: bool,
    /// Run time against launch cost: 0 = uniform up to 3·L, 1 = `B == L`,
    /// 2 = below `L`, 3 = zero.
    body_kind: u8,
    /// A fraction in [0, 1] that `body_kind` scales.
    body_frac: f64,
    /// The train's stream at entry: 0 = idle since before the host clock,
    /// 1 = drained exactly at it, 2 = busy with a kernel of `busy_ps`,
    /// 3 = untouched (a fresh runtime, tail and clock both at zero).
    start: u8,
    busy_ps: u64,
    /// 0 = no launch, 1 = one, otherwise uniform up to 5000.
    n_kind: u8,
    raw_n: u64,
    seed: u64,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        (0usize..64, any::<usize>(), any::<bool>(), any::<bool>()),
        (0u8..4, 0.0f64..1.0, 0u8..4, 0u64..2_000_000_000),
        (0u8..4, 0u64..5001, any::<u64>()),
    )
        .prop_map(
            |(
                (machine, device, second_stream, empty),
                (body_kind, body_frac, start, busy_ps),
                (n_kind, raw_n, seed),
            )| Case {
                machine,
                device,
                second_stream,
                empty,
                body_kind,
                body_frac,
                start,
                busy_ps,
                n_kind,
                raw_n,
                seed,
            },
        )
}

fn gpu_machines() -> Vec<Machine> {
    all_machines()
        .into_iter()
        .filter(|m| !m.gpu_models.is_empty())
        .collect()
}

/// How many launches the case asks for.
fn launches(case: &Case) -> u64 {
    match case.n_kind {
        0 => 0,
        1 => 1,
        _ => case.raw_n,
    }
}

/// The models a case runs with. For `B == L` on the empty-kernel form the
/// empty kernel takes exactly the launch cost: the runtime scales both by
/// the same run factor, so they stay equal.
fn models(m: &Machine, case: &Case) -> Arc<[GpuModel]> {
    let mut models = m.gpu_models.clone();
    if case.empty && case.body_kind == 1 {
        for g in &mut models {
            g.empty_kernel_time = g.launch_overhead;
        }
    }
    models.into()
}

fn runtime(m: &Machine, models: &Arc<[GpuModel]>, seed: u64) -> GpuRuntime {
    GpuRuntime::new(Arc::clone(&m.topo), Arc::clone(models), seed)
}

/// The launch cost `L` and the run time `B` one launch of `device_time`
/// gets on a fresh runtime: launching from an idle stream at time zero
/// leaves the clock at `L` and the tail at `L + B`.
fn probe(rt_of: impl Fn() -> GpuRuntime, dev: DeviceId, device_time: SimDuration) -> (u64, u64) {
    let mut rt = rt_of();
    let s = rt.default_stream(dev).expect("default stream");
    rt.launch_kernel(&s, device_time).expect("launch");
    let now = rt.now().as_ps();
    (now, rt.stream_tail(&s).expect("stream").as_ps() - now)
}

/// The kernel's device time for the case. For `B == L` it is the shortest
/// time the run factor scales to at least `L`, which hits `L` exactly
/// unless rounding skips it.
fn device_time(case: &Case, rt_of: impl Fn() -> GpuRuntime + Copy, dev: DeviceId) -> SimDuration {
    let (launch, _) = probe(rt_of, dev, SimDuration::ZERO);
    let frac = |x: u64| SimDuration::from_ps((x as f64 * case.body_frac) as u64);
    match case.body_kind {
        0 => frac(3 * launch),
        1 => {
            let (mut lo, mut hi) = (0u64, 4 * launch);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if probe(rt_of, dev, SimDuration::from_ps(mid)).1 < launch {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            SimDuration::from_ps(lo)
        }
        2 => frac(launch.saturating_sub(1)),
        _ => SimDuration::ZERO,
    }
}

/// A runtime in the case's entry state, with every stream the case uses:
/// each device's default stream, then a second stream on the train's
/// device.
fn build(
    m: &Machine,
    models: &Arc<[GpuModel]>,
    case: &Case,
    dev: DeviceId,
    observe: bool,
) -> (GpuRuntime, Vec<StreamHandle>) {
    let mut rt = runtime(m, models, case.seed);
    if observe {
        rt.enable_checks();
        rt.enable_tracing();
    }
    rt.set_device(dev).expect("device");
    let mut streams: Vec<StreamHandle> = m
        .topo
        .devices
        .iter()
        .map(|d| rt.default_stream(d.id).expect("default stream"))
        .collect();
    streams.push(rt.create_stream(dev).expect("second stream"));
    let s = train_stream(&rt, case, dev, &streams);
    let busy = SimDuration::from_ps(case.busy_ps);
    match case.start {
        0 => {
            rt.launch_kernel(&s, busy).expect("entry kernel");
            rt.stream_synchronize(&s).expect("entry sync");
        }
        1 => {
            rt.launch_kernel(&s, busy).expect("entry kernel");
            let drained = rt.event_record(&s).expect("entry event");
            rt.event_synchronize(&drained);
            rt.event_release(drained);
        }
        2 => rt.launch_kernel(&s, busy).expect("entry kernel"),
        _ => {}
    }
    if observe {
        // Start the trace at the train, so its spans can be counted.
        rt.take_trace();
        rt.enable_tracing();
    }
    (rt, streams)
}

fn train_stream(
    rt: &GpuRuntime,
    case: &Case,
    dev: DeviceId,
    streams: &[StreamHandle],
) -> StreamHandle {
    if case.second_stream {
        *streams.last().expect("second stream")
    } else {
        rt.default_stream(dev).expect("default stream")
    }
}

/// One launch of the case's kernel.
fn launch_one(rt: &mut GpuRuntime, case: &Case, s: &StreamHandle, device_time: SimDuration) {
    if case.empty {
        rt.launch_empty(s).expect("launch")
    } else {
        rt.launch_kernel(s, device_time).expect("launch")
    }
}

/// The host clock and every stream tail.
fn world(rt: &GpuRuntime, streams: &[StreamHandle]) -> Vec<SimTime> {
    let mut out = vec![rt.now()];
    out.extend(streams.iter().map(|s| rt.stream_tail(s).expect("stream")));
    out
}

/// Every recorded span, field by field at full precision.
fn spans(rt: &mut GpuRuntime) -> Vec<(String, &'static str, String, SimTime, SimDuration)> {
    rt.take_trace()
        .map(|t| {
            t.spans()
                .iter()
                .map(|s| {
                    (
                        s.name.clone(),
                        s.category,
                        s.track.clone(),
                        s.start,
                        s.duration,
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Run one case both ways, with or without checks and tracing.
fn check_case(case: &Case, observe: bool) {
    let machines = gpu_machines();
    let m = &machines[case.machine % machines.len()];
    let dev = m.topo.devices[case.device % m.topo.devices.len()].id;
    let models = models(m, case);
    let device_time = device_time(case, || runtime(m, &models, case.seed), dev);
    let n = launches(case);
    let (mut reference, streams) = build(m, &models, case, dev, observe);
    let (mut train, _) = build(m, &models, case, dev, observe);
    let s = train_stream(&reference, case, dev, &streams);
    let ctx = format!("{} {device_time:?} x {n} ({case:?})", m.name);
    assert_eq!(
        world(&train, &streams),
        world(&reference, &streams),
        "entry: {ctx}"
    );

    let t0 = reference.now();
    for _ in 0..n {
        launch_one(&mut reference, case, &s, device_time);
    }
    let dt_ref = reference.now().since(t0);
    let dt_train = if case.empty {
        train.launch_empty_train(&s, n)
    } else {
        train.launch_train(&s, device_time, n)
    }
    .expect("train");
    assert_eq!(dt_train, dt_ref, "elapsed: {ctx}");
    assert_eq!(
        world(&train, &streams),
        world(&reference, &streams),
        "clock and stream tails: {ctx}"
    );

    // One more explicit launch sees no difference either.
    launch_one(&mut reference, case, &s, device_time);
    launch_one(&mut train, case, &s, device_time);
    assert_eq!(
        world(&train, &streams),
        world(&reference, &streams),
        "after the next launch: {ctx}"
    );
    assert_eq!(train.check_findings(), reference.check_findings(), "{ctx}");
    let (got, want) = (spans(&mut train), spans(&mut reference));
    if observe {
        assert_eq!(want.len() as u64, n + 1, "a span per launch: {ctx}");
    }
    assert_eq!(got, want, "spans: {ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The closed form equals the launch-by-launch loop.
    #[test]
    fn train_matches_plain_loop(case in cases()) {
        check_case(&case, false);
    }

    /// Under checks and tracing the train runs every launch: same clocks,
    /// same findings, same spans as the observed plain loop.
    #[test]
    fn observed_train_runs_every_launch(case in cases()) {
        check_case(&case, true);
    }
}

/// Every GPU machine, both forms, every run-time kind and entry state at
/// 0, 1 and a BabelStream-sized train: a deterministic sweep next to the
/// random one.
#[test]
fn every_machine_body_and_start() {
    for machine in 0..gpu_machines().len() {
        for empty in [false, true] {
            for body_kind in 0..4 {
                for start in 0..4 {
                    for (n_kind, raw_n) in [(0, 0), (1, 0), (2, 100)] {
                        let case = Case {
                            machine,
                            device: 0,
                            second_stream: start == 3,
                            empty,
                            body_kind,
                            body_frac: 0.5,
                            start,
                            busy_ps: 50_000_000,
                            n_kind,
                            raw_n,
                            seed: 0x5EED ^ machine as u64,
                        };
                        check_case(&case, false);
                    }
                }
            }
        }
    }
}
