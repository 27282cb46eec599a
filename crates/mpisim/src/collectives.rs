//! Analytic models of collective-communication algorithms.
//!
//! The classic LogGP-style cost expressions, parameterized by a per-hop
//! point-to-point latency α and a per-byte time β = 1/bandwidth:
//!
//! * binomial-tree broadcast/barrier: ⌈log₂ P⌉ rounds;
//! * recursive-doubling allreduce: log₂ P rounds, each moving the full
//!   vector;
//! * ring allreduce: 2(P−1) steps, each moving 1/P of the vector —
//!   latency-heavy but bandwidth-optimal.
//!
//! The ring/recursive-doubling crossover as message size grows is the
//! standard phenomenon MPI implementations tune; the `internode` bench
//! sweeps it.
//!
//! Every step is priced as one eager message, α + bytes·β: there is no
//! rendezvous handshake, whatever the size. The executed collectives
//! (`doe_osu::collectives` over a [`crate::MpiSim`]) pay the handshake
//! for every message above the eager threshold, so the two part ways for
//! large messages. For the packed 8-rank 1 MiB ring of `doebench
//! internode`'s placement study, the closed form gives
//! 2·7·(1.35 µs + 131072 B / 25 GB/s) ≈ 92 µs; the executed ring reads
//! 212.8 µs, because each 128 KiB chunk is above the 8 KiB eager
//! threshold.

use doe_simtime::SimDuration;

/// Point-to-point cost parameters of the fabric path the collective runs
/// over.
#[derive(Clone, Copy, Debug)]
pub struct P2pCost {
    /// One-way small-message latency (α).
    pub alpha: SimDuration,
    /// Bandwidth in GB/s (1/β).
    pub bandwidth: f64,
}

impl P2pCost {
    fn transfer(&self, bytes: u64) -> SimDuration {
        self.alpha + SimDuration::transfer(bytes, self.bandwidth)
    }
}

fn ceil_log2(p: u32) -> u32 {
    assert!(p > 0);
    32 - (p - 1).leading_zeros()
}

/// Barrier via binomial tree + broadcast: 2·⌈log₂ P⌉ α-rounds.
pub fn barrier(p: u32, cost: P2pCost) -> SimDuration {
    if p <= 1 {
        return SimDuration::ZERO;
    }
    cost.alpha * (2 * ceil_log2(p)) as u64
}

/// Recursive-doubling allreduce: log₂ P rounds, full vector each round.
pub fn allreduce_recursive_doubling(p: u32, bytes: u64, cost: P2pCost) -> SimDuration {
    if p <= 1 {
        return SimDuration::ZERO;
    }
    cost.transfer(bytes) * ceil_log2(p) as u64
}

/// Ring allreduce: 2(P−1) steps of `bytes/P` each (reduce-scatter +
/// allgather).
pub fn allreduce_ring(p: u32, bytes: u64, cost: P2pCost) -> SimDuration {
    if p <= 1 {
        return SimDuration::ZERO;
    }
    let chunk = bytes / p as u64;
    cost.transfer(chunk.max(1)) * (2 * (p - 1)) as u64
}

/// The better of the two allreduce algorithms at this size — what a tuned
/// MPI would pick.
pub fn allreduce_best(p: u32, bytes: u64, cost: P2pCost) -> (&'static str, SimDuration) {
    let rd = allreduce_recursive_doubling(p, bytes, cost);
    let ring = allreduce_ring(p, bytes, cost);
    if rd <= ring {
        ("recursive-doubling", rd)
    } else {
        ("ring", ring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cost() -> P2pCost {
        P2pCost {
            alpha: SimDuration::from_us(1.35),
            bandwidth: 25.0,
        }
    }

    #[test]
    fn log2_rounding() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
    }

    #[test]
    fn single_rank_collectives_are_free() {
        assert_eq!(barrier(1, cost()), SimDuration::ZERO);
        assert_eq!(allreduce_ring(1, 1 << 20, cost()), SimDuration::ZERO);
        assert_eq!(
            allreduce_recursive_doubling(1, 1 << 20, cost()),
            SimDuration::ZERO
        );
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let b8 = barrier(8, cost());
        let b64 = barrier(64, cost());
        // 2*3 alpha vs 2*6 alpha
        assert_eq!(b64.as_ps(), 2 * b8.as_ps());
    }

    #[test]
    fn small_messages_prefer_recursive_doubling() {
        let (name, _) = allreduce_best(64, 8, cost());
        assert_eq!(name, "recursive-doubling");
    }

    #[test]
    fn large_messages_prefer_ring() {
        let (name, _) = allreduce_best(64, 256 << 20, cost());
        assert_eq!(name, "ring");
    }

    #[test]
    fn crossover_exists_and_is_monotone() {
        let p = 32;
        let mut crossed = false;
        let mut prev_ring_wins = false;
        for shift in 3..30 {
            let bytes = 1u64 << shift;
            let (name, _) = allreduce_best(p, bytes, cost());
            let ring_wins = name == "ring";
            if ring_wins && !prev_ring_wins {
                crossed = true;
            }
            // Once ring wins, it keeps winning at larger sizes.
            if prev_ring_wins {
                assert!(ring_wins, "ring lost again at {bytes}");
            }
            prev_ring_wins = ring_wins;
        }
        assert!(crossed, "no crossover found");
    }

    proptest! {
        /// Both allreduce costs grow monotonically with message size.
        #[test]
        fn prop_allreduce_monotone(p in 2u32..128, s1 in 1u64..1u64<<24, s2 in 1u64..1u64<<24) {
            let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
            prop_assert!(allreduce_ring(p, lo, cost()) <= allreduce_ring(p, hi, cost()));
            prop_assert!(
                allreduce_recursive_doubling(p, lo, cost())
                    <= allreduce_recursive_doubling(p, hi, cost())
            );
        }

        /// `allreduce_best` never exceeds either algorithm.
        #[test]
        fn prop_best_is_min(p in 2u32..128, bytes in 1u64..1u64<<26) {
            let (_, best) = allreduce_best(p, bytes, cost());
            prop_assert!(best <= allreduce_ring(p, bytes, cost()));
            prop_assert!(best <= allreduce_recursive_doubling(p, bytes, cost()));
        }
    }
}
