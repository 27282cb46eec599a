//! Single-node hardware topology model.
//!
//! The paper's per-machine results are determined by *node topology*: which
//! cores share a socket, which GPUs hang off which NUMA domain, and what
//! kind of link (PCIe, NVLink, Infinity Fabric, X-Bus, …) connects each pair
//! of components. Figures 1–3 of the paper are node diagrams; Tables 5 and 6
//! break device-to-device results down by link *class* (A–D), which is a
//! pure function of the topology.
//!
//! This crate models a node as a graph:
//!
//! * **Vertices** — NUMA domains (each owning a set of cores) and devices
//!   (GPUs; for MI250X each Graphics Compute Die is its own device, exactly
//!   as the ROCm runtime exposes it).
//! * **Links** — typed, bidirectional edges with a latency and a bandwidth.
//!
//! On top of the graph it provides shortest-path routing ([`route`]), the
//! paper's A–D link classification ([`classify_pair`]), placement helpers
//! for OpenMP/MPI process binding, and ASCII/DOT renderers used to
//! regenerate Figures 1–3.
//!
//! [`route`]: NodeTopology::route
//! [`classify_pair`]: NodeTopology::classify_pair

//! # Example
//!
//! ```
//! use doe_simtime::SimDuration;
//! use doe_topo::{DeviceId, LinkKind, NodeBuilder, NumaId, SocketId, Vertex};
//!
//! let node = NodeBuilder::new("example")
//!     .socket("CPU")
//!     .numa(SocketId(0))
//!     .cores(NumaId(0), 8, 2)
//!     .devices("GPU", NumaId(0), 2)
//!     .link(Vertex::Numa(NumaId(0)), Vertex::Device(DeviceId(0)),
//!           LinkKind::Pcie { gen: 4, lanes: 16 }, SimDuration::from_ns(500.0), 25.0)
//!     .link(Vertex::Numa(NumaId(0)), Vertex::Device(DeviceId(1)),
//!           LinkKind::Pcie { gen: 4, lanes: 16 }, SimDuration::from_ns(500.0), 25.0)
//!     .link(Vertex::Device(DeviceId(0)), Vertex::Device(DeviceId(1)),
//!           LinkKind::NvLink { gen: 3, bricks: 4 }, SimDuration::from_ns(700.0), 100.0)
//!     .build()
//!     .unwrap();
//! let route = node.route(Vertex::Device(DeviceId(0)), Vertex::Device(DeviceId(1))).unwrap();
//! assert_eq!(route.hop_count(), 1); // direct NVLink beats the host detour
//! assert_eq!(node.classify_pair(DeviceId(0), DeviceId(1)), Some(doe_topo::LinkClass::A));
//! ```

pub mod builder;
pub mod class;
pub mod ids;
pub mod link;
pub mod node;
pub mod render;
pub mod route;

pub use builder::NodeBuilder;
pub use class::LinkClass;
pub use ids::{CoreId, DeviceId, NumaId, SocketId, SwitchId, Vertex};
pub use link::{Link, LinkKind, Links};
pub use node::{Core, Device, NodeTopology, NumaDomain, Socket, TopologyError};
pub use route::{Route, RouteCosts};
