//! `doebench` — latency and bandwidth microbenchmarks of the US DOE
//! systems in the June 2023 Top500 list, reproduced in Rust.
//!
//! This is the umbrella crate of the suite: it orchestrates the three
//! benchmark families (BabelStream, OSU point-to-point, Comm|Scope) over
//! the 13 machine models and regenerates every table and figure of the
//! paper (Siefert et al., SC-W 2023, DOI 10.1145/3624062.3624203).
//!
//! # Quick start
//!
//! ```
//! use doebench::{Campaign, table6};
//!
//! // A reduced campaign (fast); Campaign::paper() runs the full
//! // 100-repetition protocol.
//! let campaign = Campaign::quick();
//! let frontier = doe_machines::by_name("Frontier").unwrap();
//! let row = table6::run_machine(&frontier, &campaign);
//! // Kernel launch latency on Frontier is ~1.5 µs in the paper.
//! assert!(row.launch_us.mean > 0.5 && row.launch_us.mean < 3.0);
//! ```
//!
//! # Layout
//!
//! * [`table4`] — CPU machines: memory bandwidth + MPI latency
//! * [`table5`] — GPU machines: device bandwidth + MPI latencies
//! * [`table6`] — GPU machines: Comm|Scope kernel/copy costs
//! * [`table7`] — min–max summary per accelerator generation
//! * [`figures`] — node diagrams (Figures 1–3)
//! * [`experiments`] — paper-vs-measured comparison report
//!
//! The individual benchmark crates are re-exported under their own names
//! for direct use ([`babelstream`], [`osu`], [`commscope`], …).

pub mod bundle;
pub mod campaign;
pub mod experiments;
pub mod explain;
pub mod figures;
pub mod query;
pub mod sched;
pub mod studies;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod verify;

pub use campaign::Campaign;

pub use dessan;
pub use doe_babelstream as babelstream;
pub use doe_benchlib as benchlib;
pub use doe_commscope as commscope;
pub use doe_gpurt as gpurt;
pub use doe_gpusim as gpusim;
pub use doe_machines as machines;
pub use doe_memmodel as memmodel;
pub use doe_mpi as mpi;
pub use doe_omp as omp;
pub use doe_osu as osu;
pub use doe_report as report;
pub use doe_simtime as simtime;
pub use doe_topo as topo;
