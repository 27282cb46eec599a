//! Virtual time, in-order engines, the steady-state fast-forward and
//! deterministic noise models.
//!
//! Everything in the `doebench` simulation stack is clocked by a virtual
//! clock with **picosecond resolution**. Costs of simulated operations
//! (a DMA setup, a link traversal, a kernel dispatch) are expressed as
//! [`SimDuration`]s; the state machines in the runtime crates advance
//! per-rank and host clocks and per-[`Engine`] queue tails in closed form.
//! An [`Engine`] is any in-order resource (a GPU stream, a DMA wire, a
//! NUMA domain's shared-memory copy port), and [`steady::repeat`] skips
//! the identical iterations of a benchmark's inner loop exactly, for
//! `mpisim` and `gpurt` alike.
//!
//! Measurement noise — what turns a deterministic model into a distribution
//! with a non-degenerate standard deviation across the paper's 100 "binary
//! runs" — comes from [`noise::Jitter`], which perturbs each primitive cost
//! with seeded, reproducible Gaussian multiplicative error.
//!
//! # Example
//!
//! ```
//! use doe_simtime::{SimDuration, SimTime};
//!
//! let mut now = SimTime::ZERO;
//! now += SimDuration::from_us(1.5);
//! now += SimDuration::from_ns(500.0);
//! assert_eq!(now.as_us(), 2.0);
//! assert_eq!(now.since(SimTime::ZERO), SimDuration::from_us(2.0));
//! ```

pub mod engine;
pub mod noise;
pub mod rng;
pub mod shard;
pub mod steady;
pub mod time;
pub mod trace;

pub use engine::Engine;
pub use noise::Jitter;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{Span, Trace};
