//! A BabelStream 4.0 port: Copy/Mul/Add/Triad/Dot memory-bandwidth
//! benchmarks.
//!
//! Three backends:
//!
//! * [`native`] — real arrays and real threads on the host machine, timed
//!   with the wall clock. This is what the original BabelStream does; use
//!   it to measure *your* machine.
//! * [`sim_cpu`] — the same campaign (the Table 1 `OMP_*` combinations,
//!   100 inner repeats, best-of selection at the largest of the sizes
//!   16 Ki → ≥16 Mi doubles, the only size it reports and times) executed
//!   against a simulated host memory system on virtual time. Regenerates
//!   the "Memory Bandwidth" columns of Table 4.
//! * [`sim_gpu`] — the CUDA/ROCm backend equivalent over `doe-gpurt`
//!   (1 GiB arrays, again timed at the largest size only). Regenerates
//!   the "Device" bandwidth column of Table 5.
//!
//! Bandwidth accounting follows BabelStream 4.0 exactly: the numerator is
//! 2 arrays for Copy/Mul/Dot and 3 for Add/Triad, with no write-allocate
//! traffic counted (see [`doe_memmodel::StreamOp`]).

//! # Example
//!
//! ```
//! use doe_babelstream::{run_native, NativeStreamConfig};
//!
//! // Really measures the machine running the doctest.
//! let report = run_native(&NativeStreamConfig::quick());
//! assert!(report.verified);
//! assert!(report.best_overall().1 > 0.1); // > 0.1 GB/s anywhere
//! ```

pub mod config;
pub mod native;
pub mod native_table4;
pub mod pointer_chase;
pub mod sim_cpu;
pub mod sim_gpu;

pub use config::SweepConfig;
pub use native::{run_native, NativeStreamConfig, NativeStreamReport};
pub use native_table4::{run_native_table4, NativeTable4Config, NativeTable4Report};
pub use pointer_chase::{run_pointer_chase, ChaseConfig, ChasePoint};
pub use sim_cpu::{run_sim_cpu, CpuStreamReport};
pub use sim_gpu::{run_sim_gpu, GpuStreamReport};
