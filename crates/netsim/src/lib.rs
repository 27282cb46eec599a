//! Inter-node fabric model — the paper's first future-work item.
//!
//! §5 of the paper: *"First, we plan to extend this work to include
//! inter-node measurements. The challenge is to develop a practical set of
//! benchmarks that provide actionable information regarding network
//! contention, node-vs-network capability (e.g. injection bandwidth),
//! network topology, MPI implementation, collective communication, and
//! GPU-network integration without becoming unwieldy."*
//!
//! This crate provides exactly that substrate for the simulator:
//!
//! * [`Fabric`] — a two-level (group/global) network in the spirit of
//!   Slingshot/dragonfly deployments: nodes attach to a group switch via a
//!   NIC; groups connect by global links. Paths, per-hop latencies, and
//!   **shared-link contention** (equal-share on the bottleneck) fall out of
//!   the structure.
//! * [`NetWorld`] — inter-node ranks with the same blocking send/recv and
//!   eager/rendezvous semantics as the intra-node runtime, plus background
//!   flows for "there goes the neighborhood"-style contention experiments
//!   (the paper cites Bhatele et al. \[20\] on exactly this effect).
//! * [`collectives`] — latency/bandwidth models of barrier and allreduce
//!   algorithms (binomial tree, recursive doubling, ring) so algorithm
//!   crossovers can be studied.
//!
//! # Example
//!
//! ```
//! use doe_net::{Fabric, FabricConfig, NetWorld, NicConfig, NodeId};
//!
//! let mut world = NetWorld::new(
//!     Fabric::new(FabricConfig::slingshot_like()),
//!     NicConfig::default_hpc(),
//!     42,
//! );
//! let a = world.add_rank(NodeId(0)).unwrap();
//! let b = world.add_rank(NodeId(16)).unwrap(); // different switch group
//! let latency = world.pingpong_latency_us(a, b, 0, 100).unwrap();
//! assert!(latency > 1.0 && latency < 5.0); // ~2.2 us inter-group floor
//! ```

pub mod collectives;
pub mod fabric;
pub mod world;

pub use fabric::{Fabric, FabricConfig, NodeId};
pub use world::{NetError, NetRank, NetWorld, NicConfig};
