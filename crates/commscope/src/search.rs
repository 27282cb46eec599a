//! google/benchmark's adaptive search over a loop of one operation.

use doe_benchlib::{adaptive_iterations, AdaptiveConfig};
use doe_gpurt::{GpuError, GpuRuntime};
use doe_simtime::SimDuration;

/// The per-iteration time google/benchmark's search reports for `op` run
/// on `rt` in batches back to back: what [`adaptive_iterations`] over
/// `rt.repeat(n, op)` reports, to the bit.
///
/// The first batch opens with the two iterations [`GpuRuntime::period`]
/// runs. When they confirm a period `P`, every batch of `n` iterations
/// takes exactly `n·P`, so the search runs on those times and simulates
/// nothing more (DESIGN.md §3). Otherwise, and always under checks or
/// tracing, the first batch goes on from those two iterations and the
/// search runs batch by batch. `op` is bound as for [`GpuRuntime::repeat`].
///
/// # Panics
/// Panics if `op` fails.
pub fn per_iteration(
    rt: &mut GpuRuntime,
    cfg: AdaptiveConfig,
    op: impl Fn(&mut GpuRuntime) -> Result<(), GpuError>,
) -> SimDuration {
    let mut start = rt.now();
    // Iterations of the first batch that already ran: the probe's two.
    let mut ran = 0;
    if cfg.start_iters >= 2 {
        if let Some(p) = rt.period(&op).expect("adaptive batch") {
            return adaptive_iterations(cfg, |n| p * n).1;
        }
        ran = 2;
    }
    let (_iters, per) = adaptive_iterations(cfg, |n| {
        rt.repeat(n - std::mem::take(&mut ran), &op)
            .expect("adaptive batch");
        let end = rt.now();
        end.since(std::mem::replace(&mut start, end))
    });
    per
}
