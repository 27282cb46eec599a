//! Benchmark harness support: repetition running, adaptive iteration
//! counts, and statistics.
//!
//! The paper's methodology (§4) is: *"Binaries for each of the three tests
//! … are executed 100 times. The mean and standard deviation are calculated
//! across those 100 tests. Within the binary, tests are repeated multiple
//! times"* — 1000/100 inner repeats for OSU small/large messages, 100 for
//! BabelStream, and google/benchmark's adaptive iteration search for
//! Comm|Scope. This crate provides those three pieces:
//!
//! * [`Samples`] / [`Summary`] — the mean ± σ (and friends) of the 100
//!   outer runs;
//! * [`run_reps`] — the outer loop;
//! * [`adaptive_iterations`] — the google/benchmark-style inner loop used
//!   by Comm|Scope ("the benchmark support library … is responsible for
//!   determining how many operations to average for each test").

pub mod harness;
pub mod par;
pub mod stats;

pub use harness::{adaptive_iterations, run_reps, AdaptiveConfig};
pub use par::{effective_jobs, parallel_map_indexed, parallel_map_init, run_reps_par, set_jobs};
pub use stats::{Samples, Summary};
