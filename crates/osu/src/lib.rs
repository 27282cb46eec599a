//! OSU-style point-to-point MPI benchmarks over `doe-mpi`.
//!
//! Ports of `osu_latency` (ping-pong, one-way latency = round-trip / 2) and
//! `osu_bw` (windowed streaming bandwidth), with the OSU 7.1.1 defaults the
//! paper used: 1,000 timed iterations for messages ≤ 8 KiB and 100 for
//! larger ones, preceded by warmup iterations, swept over power-of-two
//! message sizes.
//!
//! Placement mirrors §3.1 of the paper: an **on-socket** pair (two ranks on
//! the first two cores of one socket) and an **on-node** pair (ranks on
//! different sockets — or, on single-socket Xeon Phi machines, the first
//! and *last* core of the chip).

//! # Example
//!
//! ```
//! use doe_osu::{on_socket_pair, osu_latency, OsuConfig};
//!
//! let machine = doe_machines::by_name("Eagle").unwrap();
//! let cores = on_socket_pair(&machine.topo).unwrap();
//! let mut cfg = OsuConfig::quick();
//! cfg.reps = 3;
//! let points = osu_latency(&machine.topo, &machine.mpi, cores, &cfg, 1);
//! // Eagle's paper on-socket figure is 0.17 us.
//! assert!((points[0].one_way_us.mean - 0.17).abs() < 0.05);
//! ```

pub mod bandwidth;
pub mod collectives;
pub mod config;
pub mod latency;
pub mod multi;
pub mod pairing;

pub use bandwidth::{osu_bw, windowed_bandwidth, BwPoint};
pub use collectives::{allreduce_ring, node_world, osu_allreduce, osu_barrier, AllreduceAlgo};
pub use config::OsuConfig;
pub use latency::{osu_latency, osu_latency_device, pingpong_once, LatencyPoint};
pub use multi::{osu_mbw_mr, osu_multi_lat, MbwMrPoint, MultiLatPoint};
pub use pairing::{on_node_pair, on_socket_pair};
