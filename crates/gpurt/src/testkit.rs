//! Small ready-made runtimes for tests, doctests, and examples.
//!
//! These are deliberately *not* models of any paper machine — `doe-machines`
//! owns those — just plausible hardware for exercising the API.

use std::sync::Arc;

use doe_gpusim::GpuModel;
use doe_memmodel::MemDomainModel;
use doe_simtime::SimDuration;
use doe_topo::{DeviceId, LinkKind, NodeBuilder, NumaId, SocketId, Vertex};

use crate::runtime::GpuRuntime;

fn test_gpu_model() -> GpuModel {
    let mut hbm = MemDomainModel::new("test HBM", 1200.0, 30.0);
    hbm.sustained_efficiency = 0.85;
    let mut m = GpuModel::new("TestGPU", hbm);
    m.launch_overhead = SimDuration::from_us(2.0);
    m.empty_kernel_time = SimDuration::from_us(2.5);
    m.sync_overhead = SimDuration::from_us(1.0);
    m.copy_setup_host = SimDuration::from_us(4.0);
    m.copy_setup_peer = SimDuration::from_us(8.0);
    m
}

/// One CPU socket with one GPU on PCIe4 ×16.
pub fn single_gpu_runtime_with_seed(seed: u64) -> GpuRuntime {
    let topo = NodeBuilder::new("testkit-single")
        .socket("Test CPU")
        .numa(SocketId(0))
        .cores(NumaId(0), 16, 2)
        .device("TestGPU", NumaId(0))
        .link(
            Vertex::Numa(NumaId(0)),
            Vertex::Device(DeviceId(0)),
            LinkKind::Pcie { gen: 4, lanes: 16 },
            SimDuration::from_ns(500.0),
            25.0,
        )
        .build()
        .unwrap_or_else(|e| panic!("testkit topology is valid: {e}"));
    GpuRuntime::new(Arc::new(topo), [test_gpu_model()].into(), seed)
}

/// [`single_gpu_runtime_with_seed`] with a fixed seed.
pub fn single_gpu_runtime() -> GpuRuntime {
    single_gpu_runtime_with_seed(0xD0EB)
}

/// [`dual_gpu_runtime_with_seed`] with a fixed seed.
pub fn dual_gpu_runtime() -> GpuRuntime {
    dual_gpu_runtime_with_seed(0xD0EB)
}

/// Two GPUs with a direct NVLink plus per-GPU PCIe host links.
pub fn dual_gpu_runtime_with_seed(seed: u64) -> GpuRuntime {
    let topo = NodeBuilder::new("testkit-dual")
        .socket("Test CPU")
        .numa(SocketId(0))
        .cores(NumaId(0), 16, 2)
        .devices("TestGPU", NumaId(0), 2)
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
            Vertex::Device(DeviceId(0)),
            Vertex::Device(DeviceId(1)),
            LinkKind::NvLink { gen: 3, bricks: 4 },
            SimDuration::from_ns(700.0),
            100.0,
        )
        .build()
        .unwrap_or_else(|e| panic!("testkit topology is valid: {e}"));
    GpuRuntime::new(
        Arc::new(topo),
        [test_gpu_model(), test_gpu_model()].into(),
        seed,
    )
}

/// Intentionally racy fixture: two streams write the same device buffer
/// with no ordering between them. The sanitizer must report a race; the
/// returned findings are non-empty by design.
pub fn racy_unsynchronized_writes() -> Result<Vec<String>, crate::GpuError> {
    let mut rt = single_gpu_runtime();
    rt.enable_checks();
    let dev = DeviceId(0);
    let s1 = rt.create_stream(dev)?;
    let s2 = rt.create_stream(dev)?;
    let host1 = crate::Buffer::pinned_host(NumaId(0), 1 << 20);
    let host2 = crate::Buffer::pinned_host(NumaId(0), 1 << 20);
    let shared = crate::Buffer::device(dev, 1 << 20);
    rt.memcpy_async(&shared, &host1, 4096, &s1)?;
    rt.memcpy_async(&shared, &host2, 4096, &s2)?; // write-write race
    rt.stream_synchronize(&s1)?;
    rt.stream_synchronize(&s2)?;
    Ok(rt.check_findings())
}

/// Intentionally racy fixture: one stream reads a buffer another stream
/// is writing, with no happens-before edge. Findings non-empty by design.
pub fn racy_read_write_overlap() -> Result<Vec<String>, crate::GpuError> {
    let mut rt = single_gpu_runtime();
    rt.enable_checks();
    let dev = DeviceId(0);
    let s1 = rt.create_stream(dev)?;
    let s2 = rt.create_stream(dev)?;
    let host = crate::Buffer::pinned_host(NumaId(0), 1 << 20);
    let shared = crate::Buffer::device(dev, 1 << 20);
    let sink = crate::Buffer::device(dev, 1 << 20);
    rt.memcpy_async(&shared, &host, 4096, &s1)?; // writer
    rt.memcpy_async(&sink, &shared, 4096, &s2)?; // unordered reader
    rt.stream_synchronize(&s1)?;
    rt.stream_synchronize(&s2)?;
    Ok(rt.check_findings())
}

/// The same cross-stream pattern as [`racy_read_write_overlap`], correctly
/// ordered through `event_record` + `stream_wait_event`: must be clean.
pub fn synced_cross_stream_pipeline() -> Result<Vec<String>, crate::GpuError> {
    let mut rt = single_gpu_runtime();
    rt.enable_checks();
    let dev = DeviceId(0);
    let s1 = rt.create_stream(dev)?;
    let s2 = rt.create_stream(dev)?;
    let host = crate::Buffer::pinned_host(NumaId(0), 1 << 20);
    let shared = crate::Buffer::device(dev, 1 << 20);
    let sink = crate::Buffer::device(dev, 1 << 20);
    rt.memcpy_async(&shared, &host, 4096, &s1)?;
    let done = rt.event_record(&s1)?;
    rt.stream_wait_event(&s2, &done)?; // orders the read after the write
    rt.memcpy_async(&sink, &shared, 4096, &s2)?;
    rt.stream_synchronize(&s1)?;
    rt.stream_synchronize(&s2)?;
    Ok(rt.check_findings())
}

/// Intentionally racy fixture: a kernel annotated as writing a buffer on
/// one stream while another stream copies out of it, unordered.
pub fn racy_kernel_vs_copy() -> Result<Vec<String>, crate::GpuError> {
    let mut rt = single_gpu_runtime();
    rt.enable_checks();
    let dev = DeviceId(0);
    let s1 = rt.create_stream(dev)?;
    let s2 = rt.create_stream(dev)?;
    let shared = crate::Buffer::device(dev, 1 << 20);
    let host = crate::Buffer::pinned_host(NumaId(0), 1 << 20);
    rt.launch_kernel(&s1, SimDuration::from_us(5.0))?;
    rt.annotate_kernel_buffers(&s1, &[], &[shared]);
    rt.memcpy_async(&host, &shared, 4096, &s2)?; // reads mid-kernel
    rt.stream_synchronize(&s1)?;
    rt.stream_synchronize(&s2)?;
    Ok(rt.check_findings())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testkit_runtimes_build() {
        let rt = single_gpu_runtime();
        assert_eq!(rt.topology().device_count(), 1);
        let rt2 = dual_gpu_runtime();
        assert_eq!(rt2.topology().device_count(), 2);
    }
}
