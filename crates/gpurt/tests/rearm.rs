//! Differential test of [`GpuRuntime::rearm`] against a fresh runtime.
//!
//! A runtime is built with one seed, dirtied by a random op sequence
//! (extra streams, copies between devices that create wires, a switched
//! current device, kernels, events), then re-armed with a second seed; a
//! twin is built fresh with the second seed. A second random op sequence
//! must then give the two the same result from every op, the same host
//! clock, current device and stream handles, and the same tail on every
//! stream and every directed wire after every op, on every catalog GPU
//! machine.

use std::sync::Arc;

use doe_gpurt::{Buffer, GpuError, GpuRuntime, StreamHandle};
use doe_gpusim::GpuModel;
use doe_machines::{gpu_machines, Machine};
use doe_simtime::SimDuration;
use doe_topo::{DeviceId, NumaId};
use proptest::prelude::*;

/// Raw op picks: (kind, a, b, value, count). `a` and `b` pick streams or
/// devices modulo their counts.
type RawOp = (u8, usize, usize, u64, u64);

fn ops() -> impl Strategy<Value = Vec<RawOp>> {
    collection::vec(
        (
            0u8..10,
            any::<usize>(),
            any::<usize>(),
            0u64..(1 << 30) + 1,
            0u64..400,
        ),
        0..16,
    )
}

/// Where a copy's endpoints live.
fn buffers(m: &Machine, kind: u64, a: DeviceId, b: DeviceId, bytes: u64) -> (Buffer, Buffer) {
    let numa: NumaId = m.topo.device(a).expect("device").local_numa;
    match kind % 4 {
        0 => (Buffer::device(a, bytes), Buffer::pinned_host(numa, bytes)),
        1 => (Buffer::pinned_host(numa, bytes), Buffer::device(a, bytes)),
        2 => (Buffer::device(b, bytes), Buffer::device(a, bytes)),
        _ => (Buffer::device(a, bytes), Buffer::pageable_host(numa, bytes)),
    }
}

/// Run `ops` on `rt`, returning a rendering of every op's result and of
/// the runtime's observable state after it.
fn run(rt: &mut GpuRuntime, m: &Machine, ops: &[RawOp]) -> Vec<String> {
    let devices: Vec<DeviceId> = m.topo.devices.iter().map(|d| d.id).collect();
    let vertices = m.topo.vertices();
    let mut streams: Vec<StreamHandle> = devices
        .iter()
        .map(|&d| rt.default_stream(d).expect("default stream"))
        .collect();
    let mut seen = Vec::new();
    for &(kind, a, b, value, count) in ops {
        let dev = |i: usize| devices[i % devices.len()];
        let s = streams[a % streams.len()];
        let t = streams[b % streams.len()];
        let result: Result<String, GpuError> = match kind {
            0 => rt.create_stream(dev(a)).map(|h| {
                streams.push(h);
                format!("{h:?}")
            }),
            1 => rt.set_device(dev(a)).map(|()| String::new()),
            2 | 3 => {
                // Copies on the stream's device, to, from or between
                // devices: a device-to-device copy creates its wire.
                let (dst, src) = buffers(m, count, s.device(), dev(b), value);
                rt.memcpy_async(&dst, &src, value, &s)
                    .map(|()| String::new())
            }
            4 => rt
                .launch_train(&s, SimDuration::from_ns(value as f64 / 1e5), count)
                .map(|d| format!("{d:?}")),
            5 => rt.launch_empty_train(&s, count).map(|d| format!("{d:?}")),
            6 => rt.stream_synchronize(&s).map(|()| String::new()),
            7 => rt.device_synchronize().map(|()| String::new()),
            8 => rt.event_record(&s).and_then(|e| {
                rt.stream_wait_event(&t, &e)?;
                Ok(String::new())
            }),
            _ => {
                let (dst, src) = buffers(m, count, s.device(), dev(b), 128);
                rt.repeat(count, |rt| {
                    rt.memcpy_async(&dst, &src, 128, &s)?;
                    rt.stream_synchronize(&s)
                })
                .map(|d| format!("{d:?}"))
            }
        };
        seen.push(format!(
            "{result:?} now={:?} dev={:?}",
            rt.now(),
            rt.current_device()
        ));
        for h in &streams {
            seen.push(format!("{h:?}={:?}", rt.stream_tail(h)));
        }
        for &from in &vertices {
            for &to in &vertices {
                if let Some(tail) = rt.wire_tail(from, to) {
                    seen.push(format!("{from}->{to}={tail:?}"));
                }
            }
        }
    }
    seen
}

fn models(m: &Machine) -> Arc<[GpuModel]> {
    m.gpu_models.clone().into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rearm_then_ops_equals_new_then_ops(
        machine in 0usize..64,
        (first_seed, seed) in (any::<u64>(), any::<u64>()),
        dirty in ops(),
        probe in ops(),
    ) {
        let machines = gpu_machines();
        let m = &machines[machine % machines.len()];
        let models = models(m);
        let mut rearmed = GpuRuntime::new(Arc::clone(&m.topo), Arc::clone(&models), first_seed);
        run(&mut rearmed, m, &dirty);
        prop_assert!(rearmed.rearm(seed), "an unchecked, untraced runtime re-arms");
        let mut fresh = GpuRuntime::new(Arc::clone(&m.topo), models, seed);
        let want = run(&mut fresh, m, &probe);
        let got = run(&mut rearmed, m, &probe);
        prop_assert_eq!(got, want, "{} dirty {:?} probe {:?}", m.name, dirty, probe);
    }
}

#[test]
fn rearm_declines_under_checks_or_tracing() {
    let m = &gpu_machines()[0];
    let mut rt = GpuRuntime::new(Arc::clone(&m.topo), models(m), 1);
    let s = rt.default_stream(rt.current_device()).expect("stream");
    rt.launch_empty(&s).expect("launch");
    let before = rt.now();

    rt.enable_tracing();
    assert!(!rt.rearm(2), "a traced runtime is rebuilt, not re-armed");
    assert_eq!(rt.now(), before, "a declined rearm changes nothing");
    rt.take_trace();
    assert!(rt.rearm(2));

    rt.enable_checks();
    rt.launch_empty(&s).expect("launch");
    let before = rt.now();
    assert!(!rt.rearm(3), "a checked runtime is rebuilt, not re-armed");
    assert_eq!(rt.now(), before);
}

#[test]
fn rearmed_reuses_the_slot_only_for_the_same_node() {
    let machines = gpu_machines();
    let (m, other) = (&machines[0], &machines[1]);
    let (models, other_models) = (models(m), models(other));
    let mut slot = None;
    let rt = GpuRuntime::rearmed(&mut slot, &m.topo, &models, 5);
    let s = rt.create_stream(rt.current_device()).expect("stream");
    let rt = GpuRuntime::rearmed(&mut slot, &m.topo, &models, 6);
    assert_eq!(
        rt.stream_tail(&s),
        Err(GpuError::InvalidStream),
        "a re-armed runtime has only its default streams"
    );
    let rt = GpuRuntime::rearmed(&mut slot, &other.topo, &other_models, 6);
    assert_eq!(rt.topology().name, other.topo.name);
}
