//! `doebenchd` — the benchmark-query daemon.
//!
//! A long-lived process answering campaign queries ("Table 4 for
//! Frontier", "latency sweep, machine X vs Y", "full suite with a
//! custom machine parameter") over hand-rolled HTTP/1.1, backed by a
//! content-addressed result cache.
//!
//! The architectural bet is the suite's determinism theorem (PR 1–7):
//! every cell value is a pure function of (machine spec, campaign
//! config, seed, code version), so results never expire — the cache
//! needs no TTLs, no clocks, and no invalidation protocol beyond the
//! content hash itself. See `DESIGN.md` §14.
//!
//! * [`cache`] — sharded single-flight cache (waiter/ready state machine)
//! * [`service`] — plan → acquire → batched fan-out → assemble
//! * [`http`] — minimal HTTP/1.1 request/response framing
//! * [`server`] — routes, a fixed worker pool behind a bounded backlog,
//!   graceful stop
//! * [`client`] — tiny blocking client (CLI `query`, tests, CI smoke)

pub mod cache;
pub mod client;
pub mod http;
pub mod server;
pub mod service;

pub use server::{Server, DEFAULT_PORT};
pub use service::{QueryService, ServeMeta};
