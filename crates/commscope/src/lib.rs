//! A Comm|Scope 0.12.0 port over the simulated GPU runtime.
//!
//! Implements the five test families the paper runs (§B.2):
//!
//! | Comm|Scope test                      | Here                          |
//! |--------------------------------------|-------------------------------|
//! | `Comm_cudart_kernel` / `Comm_hip_kernel` | [`launch_latency`]        |
//! | `Comm_cudaDeviceSynchronize` / hip   | [`wait_latency`]              |
//! | `Comm_*MemcpyAsync_PinnedToGPU`      | [`h2d_transfer`]              |
//! | `Comm_*MemcpyAsync_GPUToPinned`      | [`d2h_transfer`]              |
//! | `Comm_*MemcpyAsync_GPUToGPU`         | [`d2d_latency_by_class`]      |
//!
//! Comm|Scope is built on google/benchmark, which adaptively chooses how
//! many operations to average; [`CommScopeConfig`] carries that adaptive
//! configuration plus the paper's outer 100-run repetition. Latency uses
//! 128 B transfers, bandwidth 1 GiB, H2D and D2H results are averaged —
//! all per §4 of the paper.

//! # Example
//!
//! ```
//! use doe_commscope::{launch_latency, CommScopeConfig};
//!
//! let m = doe_machines::by_name("Polaris").unwrap();
//! let dev = m.topo.devices[0].id;
//! let models = m.gpu_models.into();
//! let s = launch_latency(&m.topo, &models, dev, &CommScopeConfig::quick(), 1);
//! // Polaris' paper launch latency is 1.83 us.
//! assert!((s.mean - 1.83).abs() < 0.1);
//! ```

pub mod config;
pub mod kernel;
pub mod memcpy;
pub mod search;
pub mod suite;

pub use config::CommScopeConfig;
pub use kernel::{launch_latency, wait_latency};
pub use memcpy::{
    d2d_bandwidth_by_class, d2d_latency_by_class, d2h_transfer, duplex_bandwidth,
    h2d_pageable_transfer, h2d_transfer, Transfer,
};
pub use suite::{run_commscope, CommScopeReport};
