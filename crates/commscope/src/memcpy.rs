//! Asynchronous-memcpy latency and bandwidth measurements.

use std::collections::BTreeMap;
use std::sync::Arc;

use doe_benchlib::{rep_seed, run_reps, Samples, Summary};
use doe_gpurt::{Buffer, GpuRuntime};
use doe_gpusim::GpuModel;
use doe_topo::{DeviceId, LinkClass, NodeTopology};

use crate::config::CommScopeConfig;
use crate::search::per_iteration;

/// A latency/bandwidth pair for one transfer direction or pair.
#[derive(Clone, Debug)]
pub struct Transfer {
    /// Invoke-and-complete latency of a small (128 B) copy, µs.
    pub latency_us: Summary,
    /// Achieved bandwidth of a large (1 GiB) copy, GB/s.
    pub bandwidth_gb_s: Summary,
}

/// Measure invoke-and-complete copy time between two buffers, per
/// iteration: `memcpy_async` then `stream_synchronize`, exactly how
/// Comm|Scope's memcpy tests are written.
fn copy_time_us(
    rt: &mut GpuRuntime,
    dst: &Buffer,
    src: &Buffer,
    bytes: u64,
    exec_dev: DeviceId,
    cfg: &CommScopeConfig,
) -> f64 {
    let stream = rt.default_stream(exec_dev).expect("stream");
    per_iteration(rt, cfg.adaptive, |rt| {
        rt.memcpy_async(dst, src, bytes, &stream)?;
        rt.stream_synchronize(&stream)
    })
    .as_us()
}

fn transfer_between(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    make_bufs: impl Fn(u64) -> (Buffer, Buffer),
    exec_dev: DeviceId,
    cfg: &CommScopeConfig,
    seed: u64,
    label: u64,
) -> Transfer {
    // Each rep arms its runtime and builds its buffers from the rep index,
    // re-arming the runtime the last rep left.
    let mut slot = None;
    let mut lat = Samples::new();
    let mut bw = Samples::new();
    for rep in 0..cfg.reps {
        let rt = GpuRuntime::rearmed(&mut slot, topo, models, rep_seed(seed ^ label, rep));
        rt.set_device(exec_dev).expect("device exists");
        let (dst, src) = make_bufs(cfg.latency_bytes.max(cfg.bandwidth_bytes));
        let latency = copy_time_us(rt, &dst, &src, cfg.latency_bytes, exec_dev, cfg);
        lat.push(latency);
        // Bandwidth: one large copy is its own batch (it exceeds the
        // adaptive target by orders of magnitude).
        let stream = rt.default_stream(exec_dev).expect("stream");
        let t0 = rt.now();
        rt.memcpy_async(&dst, &src, cfg.bandwidth_bytes, &stream)
            .expect("copy");
        rt.stream_synchronize(&stream).expect("sync");
        let dt = rt.now().since(t0);
        bw.push(dt.bandwidth_gb_s(cfg.bandwidth_bytes));
    }
    Transfer {
        latency_us: lat.summary(),
        bandwidth_gb_s: bw.summary(),
    }
}

/// `PinnedToGPU`: pinned host memory (on the device's local NUMA domain)
/// to device memory.
pub fn h2d_transfer(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    dev: DeviceId,
    cfg: &CommScopeConfig,
    seed: u64,
) -> Transfer {
    let numa = topo.device(dev).expect("device exists").local_numa;
    transfer_between(
        topo,
        models,
        |bytes| (Buffer::device(dev, bytes), Buffer::pinned_host(numa, bytes)),
        dev,
        cfg,
        seed,
        0x4832_4400,
    )
}

/// `GPUToPinned`: device memory to pinned host memory.
pub fn d2h_transfer(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    dev: DeviceId,
    cfg: &CommScopeConfig,
    seed: u64,
) -> Transfer {
    let numa = topo.device(dev).expect("device exists").local_numa;
    transfer_between(
        topo,
        models,
        |bytes| (Buffer::pinned_host(numa, bytes), Buffer::device(dev, bytes)),
        dev,
        cfg,
        seed,
        0x4432_4800,
    )
}

/// `PinnedToGPU` with a *pageable* host buffer instead — not part of the
/// paper's protocol (Comm|Scope pins), but the comparison quantifies why
/// pinning matters; used by `examples/ablations.rs`.
pub fn h2d_pageable_transfer(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    dev: DeviceId,
    cfg: &CommScopeConfig,
    seed: u64,
) -> Transfer {
    let numa = topo.device(dev).expect("device exists").local_numa;
    transfer_between(
        topo,
        models,
        |bytes| {
            (
                Buffer::device(dev, bytes),
                Buffer::pageable_host(numa, bytes),
            )
        },
        dev,
        cfg,
        seed,
        0x5047_4200,
    )
}

/// `GPUToGPU` bandwidth (1 GiB) for one representative device pair per
/// link class — separates the quad/dual/single Infinity Fabric widths that
/// the latency columns cannot.
pub fn d2d_bandwidth_by_class(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    cfg: &CommScopeConfig,
    seed: u64,
) -> BTreeMap<LinkClass, Summary> {
    topo.representative_pairs()
        .into_iter()
        .map(|(class, (src, dst))| {
            let samples = run_reps(cfg.reps, |rep| {
                let mut rt = GpuRuntime::new(
                    Arc::clone(topo),
                    Arc::clone(models),
                    rep_seed(seed ^ 0xB0 ^ (class as u64), rep),
                );
                rt.set_device(src).expect("device exists");
                let a = Buffer::device(src, cfg.bandwidth_bytes);
                let b = Buffer::device(dst, cfg.bandwidth_bytes);
                let stream = rt.default_stream(src).expect("stream");
                let t0 = rt.now();
                rt.memcpy_async(&b, &a, cfg.bandwidth_bytes, &stream)
                    .expect("copy");
                rt.stream_synchronize(&stream).expect("sync");
                rt.now().since(t0).bandwidth_gb_s(cfg.bandwidth_bytes)
            });
            (class, samples.summary())
        })
        .collect()
}

/// Duplex host↔device bandwidth: simultaneous `PinnedToGPU` and
/// `GPUToPinned` 1 GiB copies on two streams (Comm|Scope's `Duplex`
/// family). Returns the aggregate GB/s; on a full-duplex link this
/// approaches twice the unidirectional figure.
pub fn duplex_bandwidth(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    dev: DeviceId,
    cfg: &CommScopeConfig,
    seed: u64,
) -> Summary {
    let numa = topo.device(dev).expect("device exists").local_numa;
    run_reps(cfg.reps, |rep| {
        let mut rt = GpuRuntime::new(
            Arc::clone(topo),
            Arc::clone(models),
            rep_seed(seed ^ 0xD0_B1D1, rep),
        );
        rt.set_device(dev).expect("device exists");
        let up = rt.create_stream(dev).expect("up stream");
        let down = rt.create_stream(dev).expect("down stream");
        // One buffer pair per direction: the two streams run concurrently
        // with no ordering, so sharing buffers between them would be a
        // data race (which `--check` flags) — real Comm|Scope allocates
        // per-direction buffers too.
        let host_up = Buffer::pinned_host(numa, cfg.bandwidth_bytes);
        let dev_up = Buffer::device(dev, cfg.bandwidth_bytes);
        let host_down = Buffer::pinned_host(numa, cfg.bandwidth_bytes);
        let dev_down = Buffer::device(dev, cfg.bandwidth_bytes);
        let t0 = rt.now();
        rt.memcpy_async(&dev_up, &host_up, cfg.bandwidth_bytes, &up)
            .expect("h2d");
        rt.memcpy_async(&host_down, &dev_down, cfg.bandwidth_bytes, &down)
            .expect("d2h");
        rt.stream_synchronize(&up).expect("sync up");
        rt.stream_synchronize(&down).expect("sync down");
        let dt = rt.now().since(t0);
        dt.bandwidth_gb_s(2 * cfg.bandwidth_bytes)
    })
    .summary()
}

/// `GPUToGPU` latency for one representative device pair per link class
/// present on the node (Tables 5/6's A–D columns).
pub fn d2d_latency_by_class(
    topo: &Arc<NodeTopology>,
    models: &Arc<[GpuModel]>,
    cfg: &CommScopeConfig,
    seed: u64,
) -> BTreeMap<LinkClass, Summary> {
    topo.representative_pairs()
        .into_iter()
        .map(|(class, (src, dst))| {
            let mut slot = None;
            let samples = run_reps(cfg.reps, |rep| {
                let rt = GpuRuntime::rearmed(
                    &mut slot,
                    topo,
                    models,
                    rep_seed(seed ^ (class as u64), rep),
                );
                rt.set_device(src).expect("device exists");
                let a = Buffer::device(src, cfg.latency_bytes);
                let b = Buffer::device(dst, cfg.latency_bytes);
                copy_time_us(rt, &b, &a, cfg.latency_bytes, src, cfg)
            });
            (class, samples.summary())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe_memmodel::MemDomainModel;
    use doe_simtime::SimDuration;
    use doe_topo::{LinkKind, NodeBuilder, NumaId, SocketId, Vertex};

    fn node() -> (Arc<NodeTopology>, Arc<[GpuModel]>) {
        let topo = NodeBuilder::new("cs-memcpy")
            .socket("CPU")
            .numa(SocketId(0))
            .cores(NumaId(0), 8, 2)
            .devices("G", NumaId(0), 3)
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(2)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .link(
                Vertex::Device(DeviceId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::NvLink { gen: 3, bricks: 4 },
                SimDuration::from_ns(700.0),
                100.0,
            )
            .build()
            .expect("valid");
        let mut m = GpuModel::new("G", MemDomainModel::new("HBM", 1555.2, 30.0));
        m.launch_overhead = SimDuration::from_us(1.8);
        m.sync_overhead = SimDuration::from_us(1.0);
        m.copy_setup_host = SimDuration::from_us(1.5);
        m.copy_setup_peer = SimDuration::from_us(11.0);
        (Arc::new(topo), [m.clone(), m.clone(), m].into())
    }

    #[test]
    fn h2d_and_d2h_are_symmetric_in_the_model() {
        let (topo, models) = node();
        let cfg = CommScopeConfig::quick();
        let h2d = h2d_transfer(&topo, &models, DeviceId(0), &cfg, 1);
        let d2h = d2h_transfer(&topo, &models, DeviceId(0), &cfg, 1);
        let rel = (h2d.latency_us.mean - d2h.latency_us.mean).abs() / h2d.latency_us.mean;
        assert!(
            rel < 0.05,
            "h2d={} d2h={}",
            h2d.latency_us.mean,
            d2h.latency_us.mean
        );
    }

    #[test]
    fn h2d_latency_decomposes_into_configured_costs() {
        let (topo, models) = node();
        let cfg = CommScopeConfig::quick();
        let t = h2d_transfer(&topo, &models, DeviceId(0), &cfg, 1);
        // launch 1.8 + setup 1.5 + link 0.5 + 128B ser (~0) + sync 1.0 = 4.8
        assert!(
            (t.latency_us.mean - 4.8).abs() < 0.3,
            "lat={}",
            t.latency_us.mean
        );
    }

    #[test]
    fn h2d_bandwidth_approaches_link_bandwidth() {
        let (topo, models) = node();
        let cfg = CommScopeConfig::quick();
        let t = h2d_transfer(&topo, &models, DeviceId(0), &cfg, 1);
        let bw = t.bandwidth_gb_s.mean;
        assert!(bw > 20.0 && bw < 25.2, "bw={bw}");
    }

    #[test]
    fn pageable_copies_are_slower_and_narrower_than_pinned() {
        let (topo, models) = node();
        let cfg = CommScopeConfig::quick();
        let pinned = h2d_transfer(&topo, &models, DeviceId(0), &cfg, 1);
        let pageable = h2d_pageable_transfer(&topo, &models, DeviceId(0), &cfg, 1);
        assert!(pageable.latency_us.mean > pinned.latency_us.mean);
        assert!(pageable.bandwidth_gb_s.mean < pinned.bandwidth_gb_s.mean);
    }

    #[test]
    fn duplex_bandwidth_approaches_twice_unidirectional() {
        let (topo, models) = node();
        let cfg = CommScopeConfig::quick();
        let uni = h2d_transfer(&topo, &models, DeviceId(0), &cfg, 1)
            .bandwidth_gb_s
            .mean;
        let duplex = duplex_bandwidth(&topo, &models, DeviceId(0), &cfg, 1).mean;
        assert!(
            duplex > 1.6 * uni && duplex < 2.1 * uni,
            "duplex={duplex}, uni={uni}"
        );
    }

    #[test]
    fn d2d_bandwidth_reflects_link_width() {
        let (topo, models) = node();
        let cfg = CommScopeConfig::quick();
        let by_class = d2d_bandwidth_by_class(&topo, &models, &cfg, 1);
        let a = by_class.get(&LinkClass::A).expect("class A");
        let b = by_class.get(&LinkClass::B).expect("class B");
        // A = direct 100 GB/s NVLink; B routes through two 25 GB/s PCIe
        // host links.
        assert!(a.mean > 80.0, "A={}", a.mean);
        assert!(b.mean < 26.0, "B={}", b.mean);
    }

    #[test]
    fn d2d_classes_separate_nvlink_from_routed() {
        let (topo, models) = node();
        let cfg = CommScopeConfig::quick();
        let by_class = d2d_latency_by_class(&topo, &models, &cfg, 1);
        let a = by_class.get(&LinkClass::A).expect("class A present");
        let b = by_class.get(&LinkClass::B).expect("class B present");
        // Class B (through the host: 0.5+0.5 us links) is slower than the
        // direct NVLink (0.7 us).
        assert!(b.mean > a.mean, "A={} B={}", a.mean, b.mean);
    }
}
