//! MPI implementation parameters.
//!
//! These model the *software stack* (cray-mpich, spectrum-mpi, openmpi,
//! intel-mpi — Tables 8/9), which the paper shows matters as much as the
//! hardware: Trinity and Theta share silicon but differ 6× in latency, and
//! Perlmutter/Polaris share GPUs but differ 2× in device-to-device latency.

use doe_simtime::{Jitter, SimDuration};

/// How the implementation moves device-resident buffers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DevicePath {
    /// GPU-aware remote memory access straight over the device fabric.
    Rma {
        /// Software overhead added on top of the fabric traversal.
        extra_overhead: SimDuration,
    },
    /// Pipeline through pinned host bounce buffers.
    Staged {
        /// Software overhead per pipeline stage (D2H, H2H, H2D).
        per_stage_overhead: SimDuration,
        /// Bandwidth efficiency of the staged pipeline (0, 1].
        pipeline_efficiency: f64,
    },
}

/// Parameters of one machine's MPI implementation.
#[derive(Clone, Debug)]
pub struct MpiConfig {
    /// Largest message sent eagerly; larger messages rendezvous.
    pub eager_threshold: u64,
    /// Sender-side software overhead per message.
    pub send_overhead: SimDuration,
    /// Receiver-side software overhead per message.
    pub recv_overhead: SimDuration,
    /// Latency of the shared-memory path between ranks on the same NUMA
    /// domain (cache-line ping through a shm segment).
    pub shm_latency: SimDuration,
    /// Bandwidth of the shared-memory path (GB/s).
    pub shm_bandwidth: f64,
    /// Extra one-way latency between the two *most distant* cores of one
    /// NUMA domain, scaled linearly with core-index distance. Models the
    /// on-die mesh of many-core chips: the paper measures Xeon Phi pairs
    /// (core 0, core N−1) under "on-node" even though they share a domain.
    pub intra_numa_distance: SimDuration,
    /// How device buffers travel.
    pub device_path: DevicePath,
    /// Run-to-run jitter of the software stack.
    pub jitter: Jitter,
}

impl MpiConfig {
    /// A generically plausible modern MPI over shared memory; machine
    /// definitions override fields.
    pub fn default_host() -> Self {
        MpiConfig {
            eager_threshold: 8 * 1024,
            send_overhead: SimDuration::from_ns(80.0),
            recv_overhead: SimDuration::from_ns(80.0),
            shm_latency: SimDuration::from_ns(150.0),
            shm_bandwidth: 12.0,
            intra_numa_distance: SimDuration::ZERO,
            device_path: DevicePath::Staged {
                per_stage_overhead: SimDuration::from_us(4.0),
                pipeline_efficiency: 0.8,
            },
            jitter: Jitter::relative(0.01),
        }
    }

    /// A plausible modern HPC NIC stack for ranks on a fabric (~1 µs
    /// end-to-end floor): only the software costs apply there, since the
    /// fabric prices the path.
    pub fn default_fabric() -> Self {
        MpiConfig {
            send_overhead: SimDuration::from_ns(250.0),
            recv_overhead: SimDuration::from_ns(250.0),
            ..Self::default_host()
        }
    }

    /// Validate invariants (positive bandwidths, sane efficiency).
    pub fn validate(&self) -> Result<(), String> {
        if self.shm_bandwidth <= 0.0 {
            return Err("shm_bandwidth must be positive".into());
        }
        if let DevicePath::Staged {
            pipeline_efficiency,
            ..
        } = self.device_path
        {
            if !(0.0 < pipeline_efficiency && pipeline_efficiency <= 1.0) {
                return Err("pipeline_efficiency must be in (0, 1]".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(MpiConfig::default_host().validate().is_ok());
    }

    #[test]
    fn bad_bandwidth_rejected() {
        let mut c = MpiConfig::default_host();
        c.shm_bandwidth = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_efficiency_rejected() {
        let mut c = MpiConfig::default_host();
        c.device_path = DevicePath::Staged {
            per_stage_overhead: SimDuration::ZERO,
            pipeline_efficiency: 1.5,
        };
        assert!(c.validate().is_err());
    }
}
