//! Per-device cost parameters.

use doe_memmodel::{MemDomainModel, PlacementQuality, StreamOp};
use doe_simtime::{Jitter, SimDuration};

/// Effective "all execution units" placement for device-wide kernels: large
/// enough that the memory domain, not per-unit concurrency, is the limit.
const DEVICE_WIDE_UNITS: u32 = 65_536;

/// Cost model of one GPU device (a GCD, for MI250X).
#[derive(Clone, Debug)]
pub struct GpuModel {
    /// Marketing name (e.g. "NVIDIA A100-40GB", "AMD MI250X (GCD)").
    pub name: String,
    /// Device HBM model; drives BabelStream GPU bandwidth.
    pub hbm: MemDomainModel,
    /// Host wall time to *submit* a command (kernel launch latency —
    /// Table 6 "Launch").
    pub launch_overhead: SimDuration,
    /// Device-side duration of an empty, zero-argument kernel.
    pub empty_kernel_time: SimDuration,
    /// Host-device handshake of `cudaDeviceSynchronize` on an
    /// empty/drained queue (Table 6 "Wait").
    pub sync_overhead: SimDuration,
    /// Host-device handshake of `cudaStreamSynchronize` on a drained
    /// stream. Often equals [`GpuModel::sync_overhead`], but the V100-era
    /// driver stack completes stream waits noticeably faster than full
    /// device synchronizes (visible in Table 6, where Summit's memcpy
    /// latency is *below* launch + wait).
    pub stream_sync_overhead: SimDuration,
    /// DMA engine setup for host↔device copies (pinned host memory).
    pub copy_setup_host: SimDuration,
    /// DMA engine setup for peer (device↔device) copies.
    pub copy_setup_peer: SimDuration,
    /// Run-to-run measurement jitter for this device's operations.
    pub jitter: Jitter,
    /// Peak FP64 throughput in TFLOP/s, for the roofline model
    /// ([`GpuModel::roofline_time`]). Streaming kernels are memory-bound
    /// on every device in the study, but compute-heavy kernels cross the
    /// roofline ridge.
    pub fp64_tflops: f64,
}

impl GpuModel {
    /// A model with neutral secondary costs; machine definitions override.
    pub fn new(name: impl Into<String>, hbm: MemDomainModel) -> Self {
        GpuModel {
            name: name.into(),
            hbm,
            launch_overhead: SimDuration::from_us(2.0),
            empty_kernel_time: SimDuration::from_us(2.0),
            sync_overhead: SimDuration::from_us(1.0),
            stream_sync_overhead: SimDuration::from_us(1.0),
            copy_setup_host: SimDuration::from_us(5.0),
            copy_setup_peer: SimDuration::from_us(8.0),
            jitter: Jitter::relative(0.004),
            fp64_tflops: 10.0,
        }
    }

    /// Validate invariants: positive bandwidths and efficiencies, non-zero
    /// driver costs (a zero launch overhead would make adaptive batches
    /// spin forever).
    pub fn validate(&self) -> Result<(), String> {
        if self.hbm.peak_bw_gb_s <= 0.0 {
            return Err(format!("{}: non-positive HBM peak", self.name));
        }
        if !(0.0 < self.hbm.sustained_efficiency && self.hbm.sustained_efficiency <= 1.0) {
            return Err(format!("{}: HBM efficiency out of (0, 1]", self.name));
        }
        if self.launch_overhead.is_zero() {
            return Err(format!("{}: zero launch overhead", self.name));
        }
        if self.sync_overhead.is_zero() || self.stream_sync_overhead.is_zero() {
            return Err(format!("{}: zero synchronize overhead", self.name));
        }
        if self.fp64_tflops < 0.0 {
            return Err(format!("{}: negative FP64 throughput", self.name));
        }
        Ok(())
    }

    /// Device-wide sustained bandwidth for a BabelStream kernel, in the
    /// reported convention (GB/s).
    pub fn stream_bw(&self, op: StreamOp) -> f64 {
        self.hbm
            .reported_bw(op, PlacementQuality::all_cores(DEVICE_WIDE_UNITS))
    }

    /// Device-side duration of one BabelStream kernel over `n` f64 elements.
    pub fn stream_kernel_time(&self, op: StreamOp, n: u64) -> SimDuration {
        self.hbm
            .kernel_time(op, n, PlacementQuality::all_cores(DEVICE_WIDE_UNITS))
    }

    /// Roofline execution time of a kernel moving `bytes` of memory
    /// traffic and executing `flops` double-precision operations: the
    /// slower of the memory and compute rooflines bounds the kernel.
    pub fn roofline_time(&self, bytes: u64, flops: u64) -> SimDuration {
        let mem_bw = self
            .hbm
            .raw_sustained_bw(PlacementQuality::all_cores(DEVICE_WIDE_UNITS));
        let t_mem = SimDuration::transfer(bytes, mem_bw);
        let t_compute = if self.fp64_tflops > 0.0 {
            SimDuration::from_secs(flops as f64 / (self.fp64_tflops * 1e12))
        } else {
            SimDuration::ZERO
        };
        t_mem.max(t_compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100ish() -> GpuModel {
        let mut hbm = MemDomainModel::new("HBM2e", 1555.2, 25.0);
        hbm.sustained_efficiency = 0.877;
        GpuModel::new("TestGPU", hbm)
    }

    #[test]
    fn stream_bw_is_domain_limited() {
        let g = a100ish();
        let bw = g.stream_bw(StreamOp::Triad);
        assert!((bw - 1555.2 * 0.877).abs() < 1e-6, "bw={bw}");
    }

    #[test]
    fn kernel_time_scales_with_n() {
        let g = a100ish();
        let t1 = g.stream_kernel_time(StreamOp::Copy, 1 << 20);
        let t2 = g.stream_kernel_time(StreamOp::Copy, 1 << 21);
        let ratio = t2.as_ns() / t1.as_ns();
        assert!((ratio - 2.0).abs() < 0.01, "ratio={ratio}");
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_zeros() {
        let g = a100ish();
        assert!(g.validate().is_ok());
        let mut bad = a100ish();
        bad.launch_overhead = SimDuration::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = a100ish();
        bad.hbm.sustained_efficiency = 1.5;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn roofline_switches_at_the_ridge() {
        let mut g = a100ish();
        g.fp64_tflops = 9.7;
        // The arithmetic intensity (FLOP/byte) at the roofline ridge.
        let mem_bw = g
            .hbm
            .raw_sustained_bw(PlacementQuality::all_cores(DEVICE_WIDE_UNITS));
        let ridge = g.fp64_tflops * 1e12 / (mem_bw * 1e9);
        assert!(ridge > 1.0 && ridge < 20.0, "ridge={ridge}");
        let bytes = 1u64 << 30;
        // Far below the ridge: memory-bound; time independent of flops.
        let low = g.roofline_time(bytes, (bytes as f64 * ridge * 0.1) as u64);
        let mem_only = g.roofline_time(bytes, 0);
        assert_eq!(low, mem_only);
        // Far above the ridge: compute-bound; time scales with flops.
        let hi1 = g.roofline_time(bytes, (bytes as f64 * ridge * 10.0) as u64);
        let hi2 = g.roofline_time(bytes, (bytes as f64 * ridge * 20.0) as u64);
        assert!(hi1 > mem_only);
        let ratio = hi2.as_ns() / hi1.as_ns();
        assert!((ratio - 2.0).abs() < 0.01, "ratio={ratio}");
    }

    #[test]
    fn zero_tflops_disables_the_compute_roof() {
        let mut g = a100ish();
        g.fp64_tflops = 0.0;
        let t = g.roofline_time(1 << 20, u64::MAX / 2);
        assert_eq!(t, g.roofline_time(1 << 20, 0));
    }

    #[test]
    fn triad_moves_more_bytes_than_copy() {
        let g = a100ish();
        let n = 1 << 24;
        assert!(g.stream_kernel_time(StreamOp::Triad, n) > g.stream_kernel_time(StreamOp::Copy, n));
    }
}
