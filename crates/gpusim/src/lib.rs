//! Simulated GPU device: the per-device cost model.
//!
//! Comm|Scope's measurements decompose GPU runtime operations into a handful
//! of hardware/driver costs: the host-side **submit** path (kernel launch
//! latency), the **synchronize** handshake (empty-queue wait), DMA engine
//! **setup**, and the actual **transfer/execution** time. [`GpuModel`]
//! parameterizes those costs per device model + driver stack (they differ
//! sharply between CUDA 10/11 and ROCm — compare Polaris and Perlmutter in
//! Table 6, identical hardware with different software and a 2× gap in
//! device-to-device latency).
//!
//! The in-order command-queue semantics of streams and copy engines live
//! in [`doe_simtime::Engine`], which `mpisim`'s shared-memory copy ports
//! use too.

pub mod model;

pub use model::GpuModel;
