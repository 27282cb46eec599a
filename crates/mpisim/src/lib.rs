//! A message-passing runtime (the MPI stand-in), within a node and across
//! a fabric.
//!
//! OSU's point-to-point benchmarks are thin loops over `MPI_Send`/`MPI_Recv`;
//! everything the paper measures in its "MPI Latency" columns is determined
//! by the *protocol stack* underneath those calls:
//!
//! * the **eager** path for small messages (one traversal: sender software
//!   overhead → transport latency + serialization → receiver overhead);
//! * the **rendezvous** path above a threshold (an RTS/CTS control
//!   round-trip before the data moves);
//! * the **placement** of the two ranks (same NUMA domain, across sockets);
//! * for device buffers, whether the implementation does **GPU-aware RMA**
//!   over the fabric (sub-µs device latencies on the MI250X machines) or
//!   **stages** the message through host bounce buffers (the 10–33 µs
//!   device latencies on the CUDA machines).
//!
//! [`MpiSim`] executes those state machines on virtual time, one clock per
//! rank, with blocking-call semantics matching the benchmarks' use. Its
//! message paths come from a node's route table ([`MpiSim::new`]) or, for
//! the paper's first future-work item (§5, inter-node measurement), from a
//! two-level [`Fabric`] with NIC injection limits and shared-link
//! contention from background flows ([`MpiSim::on_fabric`]); nothing else
//! about a world differs. Collectives are not priced here: `doe-osu`
//! executes their algorithms message by message on a world.

//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use doe_mpi::{MpiConfig, MpiSim};
//! use doe_topo::{CoreId, NodeBuilder, NumaId, SocketId};
//!
//! let topo = Arc::new(
//!     NodeBuilder::new("node")
//!         .socket("CPU")
//!         .numa(SocketId(0))
//!         .cores(NumaId(0), 4, 1)
//!         .build()
//!         .unwrap(),
//! );
//! let mut world = MpiSim::new(topo, MpiConfig::default_host(), 1);
//! let a = world.add_host_rank(CoreId(0)).unwrap();
//! let b = world.add_host_rank(CoreId(1)).unwrap();
//! world.send(a, b, 1024).unwrap();
//! let done = world.recv(b, a, 1024).unwrap();
//! assert!(done.as_us() > 0.0);
//! ```
//!
//! The same protocol runs over a fabric; see [`MpiSim::on_fabric`].

pub mod config;
pub mod fabric;
pub mod transport;
pub mod variants;
pub mod world;

pub use config::{DevicePath, MpiConfig};
pub use fabric::{Fabric, FabricConfig, NodeId};
pub use transport::PathCosts;
pub use variants::{apply_variant, MpiVariant};
pub use world::{MpiError, MpiSim, Rank};
