//! Differential test of [`GpuRuntime::repeat`]'s steady-state fast-forward
//! against the plain loop it replaces.
//!
//! Two runtimes are built identically on a catalog GPU machine; one runs
//! the Comm|Scope loop body in a plain `for` loop, the other through
//! `repeat`. Both must report the same elapsed time, leave the host clock,
//! every stream tail and every wire tail at the same instant, and give the
//! same result for one more explicit iteration. Under the sanitizer both
//! must run every op and report the same findings.

use std::cell::Cell;
use std::sync::Arc;

use doe_gpurt::{testkit, Buffer, GpuError, GpuRuntime, StreamHandle};
use doe_machines::{all_machines, Machine};
use doe_simtime::{SimDuration, SimTime};
use doe_topo::{DeviceId, NumaId, Vertex};
use proptest::prelude::*;

/// One generated scenario.
#[derive(Debug, Clone)]
struct Case {
    /// Index into the catalog's GPU machines.
    machine: usize,
    /// 0 = `launch_empty`, 1 = `device_synchronize`, 2 = memcpy +
    /// `stream_synchronize`.
    body: u8,
    /// The copy for body 2: 0/1 = pinned H2D/D2H, 2/3 = pageable H2D/D2H,
    /// 4 = device to device (one representative pair per link class),
    /// 5 = within one device.
    copy: u8,
    /// Raw picks, reduced modulo the machine's device, NUMA-domain and
    /// link-class counts.
    device: usize,
    numa: usize,
    class: usize,
    /// 0 = uniform in [0, 1 GiB], 1 = 0 B, 2 = 128 B, 3 = 1 GiB.
    size_kind: u8,
    raw_size: u64,
    /// A first batch before the measured one, as the adaptive search runs.
    warmup: u64,
    iters: u64,
    seed: u64,
    /// 0 = nothing, 1 = a second stream busy with a kernel of `busy_ps`,
    /// 2 = a wire busy with a copy of `busy_ps` bytes on a second stream.
    busy: u8,
    busy_ps: u64,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        (
            0usize..64,
            0u8..3,
            0u8..6,
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
        ),
        (
            0u8..4,
            0u64..(1 << 30) + 1,
            0u64..4,
            1u64..20_001,
            any::<u64>(),
        ),
        (0u8..3, 0u64..20_000_000_000),
    )
        .prop_map(
            |(
                (machine, body, copy, device, numa, class),
                (size_kind, raw_size, warmup, iters, seed),
                (busy, busy_ps),
            )| Case {
                machine,
                body,
                copy,
                device,
                numa,
                class,
                size_kind,
                raw_size,
                warmup,
                iters,
                seed,
                busy,
                busy_ps,
            },
        )
}

fn gpu_machines() -> Vec<Machine> {
    all_machines()
        .into_iter()
        .filter(|m| !m.gpu_models.is_empty())
        .collect()
}

/// The loop body a case runs, resolved against its machine.
#[derive(Debug, Clone, Copy)]
enum Body {
    Launch,
    DeviceSync,
    Copy {
        dst: Buffer,
        src: Buffer,
        bytes: u64,
    },
}

/// Everything both runtimes share: buffers carry process-global ids that
/// the sanitizer prints, so the two runtimes must use the same ones.
struct Setup {
    exec: DeviceId,
    body: Body,
    /// The copy a busy wire starts with on a second stream.
    busy_copy: Option<(Buffer, Buffer, u64)>,
}

fn setup(m: &Machine, case: &Case) -> Setup {
    let topo = &m.topo;
    let dev = topo.devices[case.device % topo.devices.len()].id;
    let numa = topo.numa_domains[case.numa % topo.numa_domains.len()].id;
    let bytes = match case.size_kind {
        0 => case.raw_size,
        1 => 0,
        2 => 128,
        _ => 1 << 30,
    };
    let alloc = bytes.max(1);
    let (exec, body) = match case.body {
        0 => (dev, Body::Launch),
        1 => (dev, Body::DeviceSync),
        _ => {
            let (exec, dst, src) = match case.copy {
                0 => (
                    dev,
                    Buffer::device(dev, alloc),
                    Buffer::pinned_host(numa, alloc),
                ),
                1 => (
                    dev,
                    Buffer::pinned_host(numa, alloc),
                    Buffer::device(dev, alloc),
                ),
                2 => (
                    dev,
                    Buffer::device(dev, alloc),
                    Buffer::pageable_host(numa, alloc),
                ),
                3 => (
                    dev,
                    Buffer::pageable_host(numa, alloc),
                    Buffer::device(dev, alloc),
                ),
                4 => {
                    let pairs: Vec<_> = topo.representative_pairs().into_values().collect();
                    let (a, b) = if pairs.is_empty() {
                        (dev, dev)
                    } else {
                        pairs[case.class % pairs.len()]
                    };
                    (a, Buffer::device(b, alloc), Buffer::device(a, alloc))
                }
                _ => (dev, Buffer::device(dev, alloc), Buffer::device(dev, alloc)),
            };
            (exec, Body::Copy { dst, src, bytes })
        }
    };
    let busy_copy = (case.busy == 2).then(|| match body {
        Body::Copy { dst, src, .. } => (dst, src, case.busy_ps.min(dst.bytes)),
        _ => {
            let n = case.busy_ps.clamp(1, 1 << 30);
            let local = topo.device(exec).expect("device").local_numa;
            (Buffer::device(exec, n), Buffer::pinned_host(local, n), n)
        }
    });
    Setup {
        exec,
        body,
        busy_copy,
    }
}

/// A runtime in the case's entry state, with every stream it will use.
fn build(m: &Machine, case: &Case, s: &Setup, checks: bool) -> (GpuRuntime, Vec<StreamHandle>) {
    let mut rt = GpuRuntime::new(
        Arc::clone(&m.topo),
        m.gpu_models.as_slice().into(),
        case.seed,
    );
    if checks {
        rt.enable_checks();
    }
    rt.set_device(s.exec).expect("device");
    let mut streams: Vec<StreamHandle> = m
        .topo
        .devices
        .iter()
        .map(|d| rt.default_stream(d.id).expect("default stream"))
        .collect();
    if case.busy != 0 {
        let second = rt.create_stream(s.exec).expect("second stream");
        match s.busy_copy {
            Some((dst, src, bytes)) => rt.memcpy_async(&dst, &src, bytes, &second),
            None => rt.launch_kernel(&second, SimDuration::from_ps(case.busy_ps)),
        }
        .expect("busy entry");
        streams.push(second);
    }
    (rt, streams)
}

fn run_body(rt: &mut GpuRuntime, body: Body, s: &StreamHandle) -> Result<(), GpuError> {
    match body {
        Body::Launch => rt.launch_empty(s),
        Body::DeviceSync => rt.device_synchronize(),
        Body::Copy { dst, src, bytes } => {
            rt.memcpy_async(&dst, &src, bytes, s)?;
            rt.stream_synchronize(s)
        }
    }
}

/// The plain loop `repeat` replaces.
fn plain(rt: &mut GpuRuntime, body: Body, s: &StreamHandle, iters: u64) -> SimDuration {
    let t0 = rt.now();
    for _ in 0..iters {
        run_body(rt, body, s).expect("body");
    }
    rt.now().since(t0)
}

/// `repeat`, counting the iterations it actually ran.
fn repeated(
    rt: &mut GpuRuntime,
    body: Body,
    s: &StreamHandle,
    iters: u64,
    ran: &Cell<u64>,
) -> SimDuration {
    rt.repeat(iters, |rt| {
        ran.set(ran.get() + 1);
        run_body(rt, body, s)
    })
    .expect("repeat")
}

/// The host clock, every stream tail and every wire tail (`None` for a
/// wire that has carried nothing).
fn world(rt: &GpuRuntime, streams: &[StreamHandle], vertices: &[Vertex]) -> Vec<Option<SimTime>> {
    let mut out = vec![Some(rt.now())];
    out.extend(
        streams
            .iter()
            .map(|s| Some(rt.stream_tail(s).expect("stream"))),
    );
    for &a in vertices {
        out.extend(vertices.iter().map(|&b| rt.wire_tail(a, b)));
    }
    out
}

/// Run one case both ways; returns how many iterations `repeat` ran.
fn check_case(case: &Case, checks: bool) -> u64 {
    let machines = gpu_machines();
    let m = &machines[case.machine % machines.len()];
    let s = setup(m, case);
    let (mut reference, streams) = build(m, case, &s, checks);
    let (mut fast, _) = build(m, case, &s, checks);
    let stream = reference.default_stream(s.exec).expect("default stream");
    let vertices = m.topo.vertices();
    let ctx = format!("{} {:?} x {} ({case:?})", m.name, s.body, case.iters);
    let ran = Cell::new(0);

    let warm_ref = plain(&mut reference, s.body, &stream, case.warmup);
    let warm_fast = repeated(&mut fast, s.body, &stream, case.warmup, &ran);
    assert_eq!(warm_fast, warm_ref, "warmup: {ctx}");
    ran.set(0);
    let dt_ref = plain(&mut reference, s.body, &stream, case.iters);
    let dt_fast = repeated(&mut fast, s.body, &stream, case.iters, &ran);
    assert_eq!(dt_fast, dt_ref, "elapsed: {ctx}");
    assert_eq!(
        world(&fast, &streams, &vertices),
        world(&reference, &streams, &vertices),
        "clock, stream and wire tails: {ctx}"
    );

    // One more explicit iteration sees no difference either.
    assert_eq!(
        plain(&mut fast, s.body, &stream, 1),
        plain(&mut reference, s.body, &stream, 1),
        "next iteration: {ctx}"
    );
    assert_eq!(
        world(&fast, &streams, &vertices),
        world(&reference, &streams, &vertices),
        "after the next iteration: {ctx}"
    );
    if checks {
        assert_eq!(ran.get(), case.iters, "checked runs skip nothing: {ctx}");
    }
    assert_eq!(fast.check_findings(), reference.check_findings(), "{ctx}");
    ran.get()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fast path equals the plain loop on catalog machines.
    #[test]
    fn fast_forward_matches_plain_loop(case in cases()) {
        check_case(&case, false);
    }

    /// Under the sanitizer `repeat` runs every iteration: same result,
    /// same findings as the checked plain loop.
    #[test]
    fn checked_repeat_runs_every_op(case in cases()) {
        check_case(&case, true);
    }
}

/// Every GPU machine, every body and copy kind at the Comm|Scope sizes and
/// a paper-sized batch: a deterministic sweep next to the random one. The
/// copy and wait loops must actually take the fast path.
#[test]
fn every_machine_body_and_copy_kind() {
    for machine in 0..gpu_machines().len() {
        for (body, copies) in [(0, 0..1), (1, 0..1), (2, 0..6)] {
            for copy in copies {
                for size_kind in [2, 3] {
                    let case = Case {
                        machine,
                        body,
                        copy,
                        device: 0,
                        numa: 0,
                        class: machine,
                        size_kind,
                        raw_size: 0,
                        warmup: 2,
                        iters: 10_000,
                        seed: 0x5EED ^ machine as u64,
                        busy: 0,
                        busy_ps: 0,
                    };
                    let ran = check_case(&case, false);
                    if body != 0 {
                        assert_eq!(ran, 2, "{case:?}: ran {ran} of 10000 iterations");
                    }
                }
            }
        }
    }
}

/// Runs `op` `iters` times on two single-GPU runtimes with streams 0..3,
/// one through `repeat` and one in a plain loop, after `entry` on both,
/// and compares the clocks and every engine tail.
fn assert_repeat_matches(
    entry: impl Fn(&mut GpuRuntime, &[StreamHandle]),
    op: impl Fn(&mut GpuRuntime, &[StreamHandle]) -> Result<(), GpuError>,
    iters: u64,
) {
    let build = || {
        let mut rt = testkit::single_gpu_runtime_with_seed(5);
        let dev = rt.current_device();
        let mut streams = vec![rt.default_stream(dev).expect("default stream")];
        for _ in 0..3 {
            streams.push(rt.create_stream(dev).expect("stream"));
        }
        entry(&mut rt, &streams);
        (rt, streams)
    };
    let (mut reference, streams) = build();
    let (mut fast, _) = build();
    let vertices = reference.topology().vertices();
    let t0 = reference.now();
    for _ in 0..iters {
        op(&mut reference, &streams).expect("op");
    }
    let dt = fast.repeat(iters, |rt| op(rt, &streams)).expect("repeat");
    assert_eq!(dt, reference.now().since(t0));
    assert_eq!(
        world(&fast, &streams, &vertices),
        world(&reference, &streams, &vertices)
    );
}

/// True when `s` still has work queued at the host clock, read through
/// events only (no instant from outside the iteration).
fn busy(rt: &mut GpuRuntime, s: &StreamHandle, idle: &StreamHandle) -> Result<bool, GpuError> {
    let tail = rt.event_record(s)?;
    let now = rt.event_record(idle)?;
    Ok(!tail.elapsed_since(&now).is_zero())
}

/// Stream 1 busy at entry: 5 ms of kernel.
fn busy_second_stream(rt: &mut GpuRuntime, streams: &[StreamHandle]) {
    rt.launch_kernel(&streams[1], SimDuration::from_ms(5.0))
        .expect("busy kernel");
}

/// The first iteration ends exactly on stream 1's tail; from the second
/// on, each iteration rewrites that tail in place with the instant it
/// starts at. At the second boundary the tail therefore looks exactly
/// like an idle engine's, although the next iteration moves it.
#[test]
fn a_tail_rewritten_in_place_is_not_taken_for_idle() {
    assert_repeat_matches(
        busy_second_stream,
        |rt, s| {
            if busy(rt, &s[1], &s[3])? {
                let tail = rt.event_record(&s[1])?;
                rt.event_synchronize(&tail);
                return Ok(());
            }
            let start = rt.event_record(&s[3])?;
            rt.stream_wait_event(&s[1], &start)?;
            rt.launch_empty(&s[0])?;
            let done = rt.event_record(&s[0])?;
            rt.event_synchronize(&done);
            Ok(())
        },
        1_000,
    );
}

/// A wire first used in the second iteration is part of the state the
/// third boundary is compared on.
#[test]
fn a_wire_created_mid_loop_is_compared() {
    let host = Buffer::pinned_host(NumaId(0), 4096);
    let dev = Buffer::device(DeviceId(0), 4096);
    assert_repeat_matches(
        busy_second_stream,
        |rt, s| {
            if busy(rt, &s[1], &s[3])? {
                return rt.stream_synchronize(&s[1]);
            }
            rt.memcpy_async(&dev, &host, 4096, &s[0])?;
            rt.stream_synchronize(&s[0])
        },
        1_000,
    );
}

/// An op that alternates the current device never repeats its state at
/// consecutive boundaries, though every engine stays idle.
#[test]
fn a_device_switch_is_part_of_the_state() {
    let op = |rt: &mut GpuRuntime| {
        let other = DeviceId(1 - rt.current_device().0);
        rt.set_device(other)?;
        rt.device_synchronize()
    };
    for iters in [1_000, 1_001] {
        let mut fast = testkit::dual_gpu_runtime();
        let mut reference = testkit::dual_gpu_runtime();
        fast.repeat(iters, op).expect("repeat");
        for _ in 0..iters {
            op(&mut reference).expect("op");
        }
        assert_eq!(fast.now(), reference.now());
        assert_eq!(fast.current_device(), reference.current_device());
    }
}

/// A traced runtime runs every iteration: the trace holds the plain
/// loop's spans.
#[test]
fn traced_repeat_records_every_span() {
    let spans = |fast: bool| {
        let mut rt = testkit::single_gpu_runtime();
        rt.enable_tracing();
        let s = rt.default_stream(DeviceId(0)).expect("stream");
        let host = Buffer::pinned_host(NumaId(0), 128);
        let dev = Buffer::device(DeviceId(0), 128);
        let op = |rt: &mut GpuRuntime| {
            rt.memcpy_async(&dev, &host, 128, &s)?;
            rt.stream_synchronize(&s)
        };
        if fast {
            rt.repeat(500, op).expect("repeat");
        } else {
            for _ in 0..500 {
                op(&mut rt).expect("op");
            }
        }
        rt.take_trace().expect("tracing on").len()
    };
    assert_eq!(spans(true), spans(false));
    assert!(spans(true) >= 1_500);
}
