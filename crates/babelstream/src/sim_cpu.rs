//! The simulated-CPU backend: Table 4's "Memory Bandwidth" columns.
//!
//! Per "binary run", the campaign sweeps vector sizes and the Table 1
//! `OMP_*` combinations, times `inner_iters` repeats of each kernel, and
//! reports the best single-thread and best all-thread
//! bandwidth at the largest size — exactly the paper's selection rule
//! ("the highest single and multicore memory bandwidth … chosen over all
//! the possible BabelStream operations for the largest vector size").
//!
//! Run-to-run variance is a common-mode factor per binary run (DVFS,
//! OS noise): one jitter draw scales every kernel in that run.

use doe_benchlib::{parallel_map_indexed, Samples, Summary};
use doe_memmodel::{MemDomainModel, PlacementQuality, StreamOp};
use doe_omp::{resolve_placement, EnvCombo};
use doe_simtime::{Jitter, SimDuration, SimRng};
use doe_topo::NodeTopology;

use crate::config::SweepConfig;

/// Results of a simulated CPU BabelStream campaign.
#[derive(Clone, Debug)]
pub struct CpuStreamReport {
    /// Best single-thread bandwidth (GB/s), mean ± σ over runs.
    pub single: Summary,
    /// Best all-thread bandwidth (GB/s), mean ± σ over runs.
    pub all: Summary,
    /// The winning kernel for the all-thread figure (from the final run).
    pub best_all_op: StreamOp,
    /// The winning environment combination (from the final run).
    pub best_all_combo: EnvCombo,
    /// Best all-thread bandwidth per vector size (final run) — the size
    /// sweep of Appendix B.2.
    pub curve: Vec<(u64, f64)>,
}

/// Final-run bookkeeping: winning op/combo and the size curve.
type LastRun = (StreamOp, EnvCombo, Vec<(u64, f64)>);

/// Run the campaign against a simulated host memory system.
pub fn run_sim_cpu(
    topo: &NodeTopology,
    mem: &MemDomainModel,
    run_jitter: Jitter,
    seed: u64,
    cfg: &SweepConfig,
) -> CpuStreamReport {
    assert!(cfg.reps > 0, "need at least one repetition");
    let sizes = cfg.sizes();
    let combos = EnvCombo::table1();
    let placements: Vec<PlacementQuality> = combos
        .iter()
        .map(|combo| resolve_placement(topo, combo))
        .collect();
    // Unjittered kernel times, one row of ops per (size, combo) in loop
    // order. They depend on the cell, not the rep, so every rep reads
    // them instead of re-deriving them.
    let kernel_times: Vec<[SimDuration; StreamOp::ALL.len()]> = sizes
        .iter()
        .flat_map(|&n| {
            placements
                .iter()
                .map(move |&placement| StreamOp::ALL.map(|op| mem.kernel_time(op, n, placement)))
        })
        .collect();
    let largest = *sizes.last().expect("nonempty sizes");

    // Each rep derives its own RNG from the rep index, so reps
    // are independent and can run on any pool worker in any order.
    // Only the last rep's curve is reported, so every other rep
    // evaluates only the largest size.
    let per_rep = parallel_map_indexed(cfg.reps, |rep| {
        let mut rng = SimRng::stream(seed, &["babelstream-cpu/", &topo.name], rep as u64);
        // Common-mode run factor.
        let factor = run_jitter.sample_scalar(1.0, &mut rng).max(0.05);

        let mut best_single = 0.0f64;
        let mut best_all = 0.0f64;
        let mut best_all_op = StreamOp::Copy;
        let mut best_all_combo = combos[0];
        let first = if rep + 1 == cfg.reps {
            0
        } else {
            sizes.len() - 1
        };
        let mut curve: Vec<(u64, f64)> = Vec::with_capacity(sizes.len() - first);

        for (&n, row) in sizes
            .iter()
            .zip(kernel_times.chunks(combos.len()))
            .skip(first)
        {
            let mut best_at_size = 0.0f64;
            for ((combo, placement), times) in combos.iter().zip(&placements).zip(row) {
                for (&op, &t) in StreamOp::ALL.iter().zip(times) {
                    // Derive bandwidth the way BabelStream does: bytes /
                    // best time. With a common-mode factor, every one of
                    // the inner_iters invocations in the run takes the
                    // same time, so the best is any one of them.
                    let t_kernel = t * (1.0 / factor) + cfg.overhead_per_kernel;
                    let bw = t_kernel.bandwidth_gb_s(op.reported_bytes(n));
                    if n == largest {
                        let single = placement.threads == 1;
                        if single && bw > best_single {
                            best_single = bw;
                        }
                        if !single && bw > best_all {
                            best_all = bw;
                            best_all_op = op;
                            best_all_combo = *combo;
                        }
                    }
                    if placement.threads != 1 && bw > best_at_size {
                        best_at_size = bw;
                    }
                }
            }
            curve.push((n, best_at_size));
        }
        let last: LastRun = (best_all_op, best_all_combo, curve);
        (best_single, best_all, last)
    });

    let single_samples: Samples = per_rep.iter().map(|(single, _, _)| *single).collect();
    let all_samples: Samples = per_rep.iter().map(|(_, all, _)| *all).collect();
    let (best_all_op, best_all_combo, curve) = per_rep
        .into_iter()
        .map(|(_, _, last)| last)
        .next_back()
        .expect("at least one rep ran");
    CpuStreamReport {
        single: single_samples.summary(),
        all: all_samples.summary(),
        best_all_op,
        best_all_combo,
        curve,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe_topo::{NodeBuilder, NumaId, SocketId};

    fn xeonish() -> (NodeTopology, MemDomainModel) {
        let topo = NodeBuilder::new("xeonish")
            .socket("CPU0")
            .socket("CPU1")
            .numa(SocketId(0))
            .numa(SocketId(1))
            .cores(NumaId(0), 24, 2)
            .cores(NumaId(1), 24, 2)
            .link(
                doe_topo::Vertex::Numa(NumaId(0)),
                doe_topo::Vertex::Numa(NumaId(1)),
                doe_topo::LinkKind::Upi,
                SimDuration::from_ns(130.0),
                41.6,
            )
            .build()
            .expect("valid");
        let mut mem = MemDomainModel::new("DDR4", 281.5, 13.0);
        mem.sustained_efficiency = 0.85;
        (topo, mem)
    }

    #[test]
    fn single_and_all_land_near_model_targets() {
        let (topo, mem) = xeonish();
        let rep = run_sim_cpu(
            &topo,
            &mem,
            Jitter::relative(0.01),
            42,
            &SweepConfig::quick(),
        );
        // Single-thread: per-core limit 13 GB/s.
        assert!(
            (rep.single.mean - 13.0).abs() < 1.0,
            "single={}",
            rep.single.mean
        );
        // All threads: 281.5 * 0.85 ≈ 239 GB/s.
        assert!((rep.all.mean - 239.0).abs() < 15.0, "all={}", rep.all.mean);
        assert!(rep.all.std > 0.0, "jitter should produce nonzero sigma");
        assert!(rep.single.rel_std() < 0.1);
    }

    #[test]
    fn curve_rises_to_plateau() {
        let (topo, mem) = xeonish();
        let rep = run_sim_cpu(&topo, &mem, Jitter::NONE, 1, &SweepConfig::quick());
        let first = rep.curve.first().expect("curve nonempty").1;
        let last = rep.curve.last().expect("curve nonempty").1;
        assert!(
            last > first,
            "per-kernel overhead should depress small sizes: {first} vs {last}"
        );
        // Monotone non-decreasing.
        for w in rep.curve.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.999);
        }
    }

    #[test]
    fn zero_jitter_gives_zero_sigma() {
        let (topo, mem) = xeonish();
        let rep = run_sim_cpu(&topo, &mem, Jitter::NONE, 1, &SweepConfig::quick());
        // Identical runs; only float summation noise remains.
        assert!(rep.all.rel_std() < 1e-12, "std={}", rep.all.std);
        assert!(rep.single.rel_std() < 1e-12, "std={}", rep.single.std);
    }

    #[test]
    fn campaign_time_is_positive_and_deterministic() {
        let (topo, mem) = xeonish();
        let a = run_sim_cpu(
            &topo,
            &mem,
            Jitter::relative(0.02),
            9,
            &SweepConfig::quick(),
        );
        let b = run_sim_cpu(
            &topo,
            &mem,
            Jitter::relative(0.02),
            9,
            &SweepConfig::quick(),
        );
        assert_eq!(a.all.mean, b.all.mean);
    }

    #[test]
    fn smt_machines_prefer_a_bound_combo() {
        let (topo, mem) = xeonish();
        let rep = run_sim_cpu(&topo, &mem, Jitter::NONE, 1, &SweepConfig::quick());
        // With SMT penalties, the winner should use #cores, bound.
        assert!(rep.best_all_combo.is_bound());
    }
}
