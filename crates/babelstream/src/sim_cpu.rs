//! The simulated-CPU backend: Table 4's "Memory Bandwidth" columns.
//!
//! Per "binary run", the campaign times `inner_iters` repeats of each
//! kernel under the Table 1 `OMP_*` combinations and reports the best
//! single-thread and best all-thread bandwidth at the largest vector
//! size — exactly the paper's selection rule ("the highest single and
//! multicore memory bandwidth … chosen over all the possible BabelStream
//! operations for the largest vector size"). The paper's binary also
//! sweeps the smaller sizes; no table reports them, so they are not
//! timed.
//!
//! Run-to-run variance is a common-mode factor per binary run (DVFS,
//! OS noise): one jitter draw scales every kernel in that run.

use doe_benchlib::{Samples, Summary};
use doe_memmodel::{MemDomainModel, StreamOp};
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
}

/// Run the campaign against a simulated host memory system.
///
/// Only the largest size is reported, and a size's bandwidth depends on
/// nothing but its own kernel times and the rep's run factor, so only
/// the largest size is timed.
pub fn run_sim_cpu(
    topo: &NodeTopology,
    mem: &MemDomainModel,
    run_jitter: Jitter,
    seed: u64,
    cfg: &SweepConfig,
) -> CpuStreamReport {
    assert!(cfg.reps > 0, "need at least one repetition");
    let n = *cfg.sizes().last().expect("nonempty sizes");
    // Unjittered kernel times, one row of ops per combo. They depend on
    // the cell, not the rep, so every rep reads them instead of
    // re-deriving them.
    let kernel_times: Vec<(bool, [SimDuration; StreamOp::ALL.len()])> = EnvCombo::table1()
        .iter()
        .map(|combo| {
            let placement = resolve_placement(topo, combo);
            let times = StreamOp::ALL.map(|op| mem.kernel_time(op, n, placement));
            (placement.threads == 1, times)
        })
        .collect();

    // Each rep derives its own RNG from the rep index. The label is the
    // same for every rep: hash it once.
    let label = SimRng::label_hash(&["babelstream-cpu/", &topo.name]);
    let mut single_samples = Samples::new();
    let mut all_samples = Samples::new();
    for rep in 0..cfg.reps {
        let mut rng = SimRng::labelled(seed, label, rep as u64);
        // Common-mode run factor.
        let factor = run_jitter.sample_scalar(1.0, &mut rng).max(0.05);

        let mut best_single = 0.0f64;
        let mut best_all = 0.0f64;
        for (single, times) in &kernel_times {
            let best = if *single {
                &mut best_single
            } else {
                &mut best_all
            };
            for (&op, &t) in StreamOp::ALL.iter().zip(times) {
                // Derive bandwidth the way BabelStream does: bytes /
                // best time. With a common-mode factor, every one of
                // the inner_iters invocations in the run takes the
                // same time, so the best is any one of them.
                let t_kernel = t * (1.0 / factor) + cfg.overhead_per_kernel;
                let bw = t_kernel.bandwidth_gb_s(op.reported_bytes(n));
                if bw > *best {
                    *best = bw;
                }
            }
        }
        single_samples.push(best_single);
        all_samples.push(best_all);
    }

    CpuStreamReport {
        single: single_samples.summary(),
        all: all_samples.summary(),
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

    /// The largest-size all-thread bandwidth of a sweep ending at each
    /// size of the quick schedule: the size curve, one size at a time.
    fn all_thread_curve(topo: &NodeTopology, mem: &MemDomainModel) -> Vec<f64> {
        SweepConfig::quick()
            .sizes()
            .into_iter()
            .map(|n| {
                let cfg = SweepConfig {
                    max_elems: n,
                    ..SweepConfig::quick()
                };
                run_sim_cpu(topo, mem, Jitter::NONE, 1, &cfg).all.mean
            })
            .collect()
    }

    #[test]
    fn curve_rises_to_plateau() {
        let (topo, mem) = xeonish();
        let curve = all_thread_curve(&topo, &mem);
        let (first, last) = (curve[0], curve[curve.len() - 1]);
        assert!(
            last > first,
            "per-kernel overhead should depress small sizes: {first} vs {last}"
        );
        // Monotone non-decreasing.
        for w in curve.windows(2) {
            assert!(w[1] >= w[0] * 0.999);
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
        let cfg = SweepConfig::quick();
        let n = *cfg.sizes().last().unwrap();
        // A combo's best bandwidth at the largest size, timed as the
        // campaign times it.
        let best = |combo: &EnvCombo| {
            let placement = resolve_placement(&topo, combo);
            StreamOp::ALL
                .iter()
                .map(|&op| {
                    (mem.kernel_time(op, n, placement) + cfg.overhead_per_kernel)
                        .bandwidth_gb_s(op.reported_bytes(n))
                })
                .fold(0.0, f64::max)
        };
        // The first combo with the highest bandwidth, as the campaign
        // picked its winner.
        let mut winner = None;
        let mut winner_bw = 0.0;
        for combo in EnvCombo::table1() {
            let bw = best(&combo);
            if resolve_placement(&topo, &combo).threads > 1 && bw > winner_bw {
                winner = Some(combo);
                winner_bw = bw;
            }
        }
        let winner = winner.expect("an all-thread combo");
        // With SMT penalties, the winner should use #cores, bound.
        assert!(winner.is_bound(), "{winner:?}");
    }
}
