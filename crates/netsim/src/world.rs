//! Inter-node ranks with blocking send/recv over the fabric.

use std::collections::VecDeque;

use dessan::{RuntimeChecks, VectorClock};
use doe_simtime::{Jitter, SimDuration, SimRng, SimTime};

use crate::fabric::{Fabric, NodeId};

/// NIC and MPI software costs for inter-node messaging.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Sender software + NIC injection overhead per message.
    pub send_overhead: SimDuration,
    /// Receiver software + NIC delivery overhead per message.
    pub recv_overhead: SimDuration,
    /// Injection bandwidth cap of one NIC, GB/s.
    pub injection_bandwidth: f64,
    /// Eager/rendezvous switchover, bytes.
    pub eager_threshold: u64,
    /// Run-to-run jitter of the stack.
    pub jitter: Jitter,
}

impl NicConfig {
    /// A plausible modern HPC NIC stack (~1 µs end-to-end floor).
    pub fn default_hpc() -> Self {
        NicConfig {
            send_overhead: SimDuration::from_ns(250.0),
            recv_overhead: SimDuration::from_ns(250.0),
            injection_bandwidth: 25.0,
            eager_threshold: 8 * 1024,
            jitter: Jitter::relative(0.01),
        }
    }
}

/// An inter-node rank handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NetRank(pub usize);

/// Errors from the network world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Node outside the fabric.
    InvalidNode(NodeId),
    /// Rank index out of range.
    InvalidRank(usize),
    /// Two ranks on the same node should use the intra-node runtime.
    SameNode,
    /// No matching message pending.
    NoMatchingMessage {
        /// Receiver rank index.
        to: usize,
        /// Expected sender rank index.
        from: usize,
    },
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::InvalidNode(n) => write!(f, "invalid node {}", n.0),
            NetError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            NetError::SameNode => write!(f, "ranks share a node; use doe-mpi for intra-node"),
            NetError::NoMatchingMessage { to, from } => {
                write!(f, "rank {to} has no pending message from rank {from}")
            }
        }
    }
}

impl std::error::Error for NetError {}

#[derive(Debug)]
struct Msg {
    bytes: u64,
    sender_ready: SimTime,
    eager_arrival: Option<SimTime>,
    latency: SimDuration,
    bandwidth: f64,
    from: usize,
    /// Sender's vector clock at the send, when `--check` is on.
    clock: Option<VectorClock>,
}

/// Sanitizer state: per-rank vector clocks, joined on send/recv/barrier.
#[derive(Debug)]
struct NetChecks {
    handle: RuntimeChecks,
    vcs: Vec<VectorClock>,
    /// Retired message-clock snapshots, reused by later sends so the
    /// steady-state checked loop is allocation-free.
    pool: Vec<VectorClock>,
    /// Barrier LUB scratch, kept for its buffer.
    lub: VectorClock,
}

impl NetChecks {
    fn new(nranks: usize) -> Self {
        NetChecks {
            handle: RuntimeChecks::enabled(),
            vcs: vec![VectorClock::new(); nranks],
            pool: Vec::new(),
            lub: VectorClock::new(),
        }
    }
}

/// The inter-node rank world.
#[derive(Debug)]
pub struct NetWorld {
    fabric: Fabric,
    nic: NicConfig,
    nodes: Vec<NodeId>,
    clocks: Vec<SimTime>,
    mailboxes: Vec<VecDeque<Msg>>,
    run_factor: f64,
    /// Sanitizer state, present only under `--check`. Passive: never
    /// touches clocks or the RNG, so checked runs are bit-identical.
    checks: Option<Box<NetChecks>>,
}

impl NetWorld {
    /// Create a world on a fabric.
    pub fn new(fabric: Fabric, nic: NicConfig, seed: u64) -> Self {
        let mut rng = SimRng::stream(seed, &["netsim"], 0);
        let run_factor = nic.jitter.sample_scalar(1.0, &mut rng).max(0.05);
        let checks = dessan::checks_enabled().then(|| Box::new(NetChecks::new(0)));
        NetWorld {
            fabric,
            nic,
            nodes: Vec::new(),
            clocks: Vec::new(),
            mailboxes: Vec::new(),
            run_factor,
            checks,
        }
    }

    /// Turn the sanitizer on for this world regardless of the global
    /// `--check` switch (test fixtures).
    pub fn enable_checks(&mut self) {
        if self.checks.is_none() {
            self.checks = Some(Box::new(NetChecks::new(self.nodes.len())));
        }
    }

    /// Findings the sanitizer has recorded against this world so far.
    /// Allocation-free when there is nothing to report (the common case).
    pub fn check_findings(&self) -> Vec<String> {
        match &self.checks {
            Some(c) if !c.handle.findings().is_empty() => {
                c.handle.findings().iter().map(|f| f.to_string()).collect()
            }
            _ => Vec::new(),
        }
    }

    /// Mutable fabric access (e.g. to add background flows mid-experiment).
    pub fn fabric_mut(&mut self) -> &mut Fabric {
        &mut self.fabric
    }

    /// Place a rank on a node.
    pub fn add_rank(&mut self, node: NodeId) -> Result<NetRank, NetError> {
        if !self.fabric.contains(node) {
            return Err(NetError::InvalidNode(node));
        }
        self.nodes.push(node);
        self.clocks.push(SimTime::ZERO);
        self.mailboxes.push(VecDeque::new());
        if let Some(ch) = &mut self.checks {
            ch.vcs.push(VectorClock::new());
        }
        Ok(NetRank(self.nodes.len() - 1))
    }

    /// A rank's clock.
    pub fn time(&self, r: NetRank) -> Result<SimTime, NetError> {
        self.clocks
            .get(r.0)
            .copied()
            .ok_or(NetError::InvalidRank(r.0))
    }

    /// Advance a rank's clock by local compute/overhead.
    pub fn advance(&mut self, r: NetRank, d: SimDuration) -> Result<(), NetError> {
        let c = self.clocks.get_mut(r.0).ok_or(NetError::InvalidRank(r.0))?;
        *c += d;
        Ok(())
    }

    /// Align all clocks (idealized barrier between phases).
    pub fn barrier(&mut self) {
        let max = self.clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
        for c in &mut self.clocks {
            *c = max;
        }
        if let Some(ch) = &mut self.checks {
            // A barrier synchronizes everyone: each rank ticks, then all
            // vector clocks collapse to their least upper bound. The LUB
            // scratch lives in the checks state so no clone is needed.
            ch.lub.reset();
            for (i, vc) in ch.vcs.iter_mut().enumerate() {
                vc.tick(i);
                ch.lub.join_assign(vc);
            }
            for vc in &mut ch.vcs {
                vc.join_assign(&ch.lub);
            }
        }
    }

    fn scaled(&self, d: SimDuration) -> SimDuration {
        d * self.run_factor
    }

    fn path_costs(&self, from: usize, to: usize) -> Result<(SimDuration, f64), NetError> {
        let (na, nb) = (self.nodes[from], self.nodes[to]);
        if na == nb {
            return Err(NetError::SameNode);
        }
        let p = self.fabric.path(na, nb).ok_or(NetError::InvalidNode(nb))?;
        let bw = self
            .fabric
            .contended_bandwidth(na, nb)
            .unwrap_or(p.bandwidth)
            .min(self.nic.injection_bandwidth);
        Ok((p.latency, bw))
    }

    /// Blocking send (eager below the threshold, rendezvous above).
    // doebench::hot
    pub fn send(&mut self, from: NetRank, to: NetRank, bytes: u64) -> Result<(), NetError> {
        if from.0 >= self.nodes.len() {
            return Err(NetError::InvalidRank(from.0));
        }
        if to.0 >= self.nodes.len() {
            return Err(NetError::InvalidRank(to.0));
        }
        let (latency, bandwidth) = self.path_costs(from.0, to.0)?;
        let o_s = self.scaled(self.nic.send_overhead);
        // Eager sends serialize into the NIC before returning, bounding a
        // windowed sender's injection rate by the wire.
        let eager = bytes <= self.nic.eager_threshold;
        let ser = if eager {
            self.scaled(SimDuration::transfer(bytes, bandwidth))
        } else {
            SimDuration::ZERO
        };
        let clock = &mut self.clocks[from.0];
        *clock += o_s + ser;
        let sender_ready = *clock;
        let eager_arrival = if eager {
            Some(sender_ready + self.scaled(latency))
        } else {
            None
        };
        let vclock = match &mut self.checks {
            Some(ch) => {
                ch.vcs[from.0].tick(from.0);
                // Snapshot into a pooled clock instead of a fresh clone.
                let mut snap = ch.pool.pop().unwrap_or_default();
                snap.clone_from(&ch.vcs[from.0]);
                Some(snap)
            }
            None => None,
        };
        self.mailboxes[to.0].push_back(Msg {
            bytes,
            sender_ready,
            eager_arrival,
            latency,
            bandwidth,
            from: from.0,
            clock: vclock,
        });
        Ok(())
    }

    /// Blocking receive of the oldest matching message.
    // doebench::hot
    pub fn recv(&mut self, at: NetRank, from: NetRank, bytes: u64) -> Result<SimTime, NetError> {
        if at.0 >= self.nodes.len() {
            return Err(NetError::InvalidRank(at.0));
        }
        let pos = self.mailboxes[at.0]
            .iter()
            .position(|m| m.from == from.0 && m.bytes == bytes)
            .ok_or(NetError::NoMatchingMessage {
                to: at.0,
                from: from.0,
            })?;
        let Some(mut msg) = self.mailboxes[at.0].remove(pos) else {
            return Err(NetError::NoMatchingMessage {
                to: at.0,
                from: from.0,
            });
        };
        if let Some(ch) = &mut self.checks {
            ch.vcs[at.0].tick(at.0);
            if let Some(sent) = msg.clock.take() {
                ch.vcs[at.0].join_assign(&sent);
                ch.pool.push(sent);
            }
        }
        let o_r = self.scaled(self.nic.recv_overhead);
        let recv_post = self.clocks[at.0];
        let done = match msg.eager_arrival {
            Some(arrival) => recv_post.max(arrival) + o_r,
            None => {
                let lat = self.scaled(msg.latency);
                let rts_at_recv = msg.sender_ready + lat;
                let cts_sent = recv_post.max(rts_at_recv);
                let ser =
                    self.scaled(msg.latency + SimDuration::transfer(msg.bytes, msg.bandwidth));
                let data_done = cts_sent + lat + ser;
                let sc = &mut self.clocks[msg.from];
                *sc = (*sc).max(data_done);
                data_done + o_r
            }
        };
        self.clocks[at.0] = done;
        Ok(done)
    }

    /// One-way latency (µs) of an inter-node ping-pong with `iters`
    /// round trips at `bytes` — the inter-node `osu_latency`.
    pub fn pingpong_latency_us(
        &mut self,
        a: NetRank,
        b: NetRank,
        bytes: u64,
        iters: u32,
    ) -> Result<f64, NetError> {
        self.barrier();
        let t0 = self.time(a)?;
        for _ in 0..iters {
            self.send(a, b, bytes)?;
            self.recv(b, a, bytes)?;
            self.send(b, a, bytes)?;
            self.recv(a, b, bytes)?;
        }
        let dt = self.time(a)?.since(t0);
        Ok(dt.as_us() / (2.0 * iters as f64))
    }

    /// Execute one ring allreduce of `bytes` across the given ranks with
    /// real send/recv rounds; returns the completion time of the slowest
    /// rank. Ring neighbours follow rank order, so *placement* (packed in
    /// one group vs spread across groups) shapes the result.
    pub fn allreduce_ring(&mut self, ranks: &[NetRank], bytes: u64) -> Result<SimTime, NetError> {
        let p = ranks.len();
        if p < 2 {
            return Err(NetError::InvalidRank(0));
        }
        let chunk = (bytes / p as u64).max(1);
        for _ in 0..(2 * (p - 1)) {
            for r in 0..p {
                let next = (r + 1) % p;
                self.send(ranks[r], ranks[next], chunk)?;
            }
            for r in 0..p {
                let prev = (r + p - 1) % p;
                self.recv(ranks[r], ranks[prev], chunk)?;
            }
        }
        let mut latest = SimTime::ZERO;
        for &r in ranks {
            latest = latest.max(self.time(r)?);
        }
        Ok(latest)
    }

    /// Achieved streaming bandwidth (GB/s) with a 64-message window —
    /// the inter-node `osu_bw`.
    pub fn streaming_bandwidth(
        &mut self,
        a: NetRank,
        b: NetRank,
        bytes: u64,
        iters: u32,
    ) -> Result<f64, NetError> {
        const WINDOW: u32 = 64;
        self.barrier();
        let t0 = self.time(a)?;
        for _ in 0..iters {
            for _ in 0..WINDOW {
                self.send(a, b, bytes)?;
            }
            for _ in 0..WINDOW {
                self.recv(b, a, bytes)?;
            }
            self.send(b, a, 4)?;
            self.recv(a, b, 4)?;
        }
        let dt = self.time(a)?.since(t0);
        Ok(dt.bandwidth_gb_s(bytes * WINDOW as u64 * iters as u64))
    }
}

impl Drop for NetWorld {
    fn drop(&mut self) {
        // Under `--check`, a message still sitting in a mailbox when the
        // world dies was sent but never received — a lost-message bug in
        // the benchmark's communication protocol.
        if let Some(ch) = &mut self.checks {
            for (to, mbox) in self.mailboxes.iter().enumerate() {
                for msg in mbox {
                    ch.handle.report(
                        "msg-leak",
                        format!(
                            "message of {} B from rank {} to rank {} was never received",
                            msg.bytes, msg.from, to
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;

    fn world() -> NetWorld {
        let mut nic = NicConfig::default_hpc();
        nic.jitter = Jitter::NONE;
        NetWorld::new(Fabric::new(FabricConfig::slingshot_like()), nic, 1)
    }

    #[test]
    fn intra_group_latency_floor() {
        let mut w = world();
        let a = w.add_rank(NodeId(0)).unwrap();
        let b = w.add_rank(NodeId(1)).unwrap();
        let lat = w.pingpong_latency_us(a, b, 0, 100).unwrap();
        // 250 + 350*2 + 150 + 250 ns = 1.35 us
        assert!((lat - 1.35).abs() < 0.02, "lat={lat}");
    }

    #[test]
    fn inter_group_is_slower_than_intra_group() {
        let mut w = world();
        let a = w.add_rank(NodeId(0)).unwrap();
        let b = w.add_rank(NodeId(1)).unwrap();
        let c = w.add_rank(NodeId(16)).unwrap();
        let near = w.pingpong_latency_us(a, b, 0, 50).unwrap();
        let far = w.pingpong_latency_us(a, c, 0, 50).unwrap();
        assert!(far > near, "far={far} near={near}");
    }

    #[test]
    fn large_message_bandwidth_approaches_injection_cap() {
        let mut w = world();
        let a = w.add_rank(NodeId(0)).unwrap();
        let b = w.add_rank(NodeId(1)).unwrap();
        let bw = w.streaming_bandwidth(a, b, 1 << 22, 5).unwrap();
        assert!(bw > 15.0 && bw <= 25.1, "bw={bw}");
    }

    #[test]
    fn background_flows_degrade_intergroup_bandwidth() {
        let mut w = world();
        let a = w.add_rank(NodeId(0)).unwrap();
        let b = w.add_rank(NodeId(16)).unwrap();
        let quiet = w.streaming_bandwidth(a, b, 1 << 22, 3).unwrap();
        w.fabric_mut().add_background_flows(0, 3);
        let noisy = w.streaming_bandwidth(a, b, 1 << 22, 3).unwrap();
        assert!(
            noisy < quiet / 2.0,
            "contention should bite: quiet={quiet} noisy={noisy}"
        );
    }

    #[test]
    fn same_node_pairs_are_rejected() {
        let mut w = world();
        let a = w.add_rank(NodeId(0)).unwrap();
        let b = w.add_rank(NodeId(0)).unwrap();
        assert_eq!(w.send(a, b, 8), Err(NetError::SameNode));
    }

    #[test]
    fn rendezvous_messages_unblock_the_sender_late() {
        let mut w = world();
        let a = w.add_rank(NodeId(0)).unwrap();
        let b = w.add_rank(NodeId(1)).unwrap();
        let big = w.nic.eager_threshold + 1;
        w.send(a, b, big).unwrap();
        let before = w.time(a).unwrap();
        w.recv(b, a, big).unwrap();
        let after = w.time(a).unwrap();
        assert!(
            after > before,
            "synchronous completion must move the sender"
        );
    }

    #[test]
    fn invalid_placement_rejected() {
        let mut w = world();
        assert!(matches!(
            w.add_rank(NodeId(9999)),
            Err(NetError::InvalidNode(_))
        ));
    }

    #[test]
    fn packed_allreduce_beats_spread_allreduce() {
        // 8 ranks packed into one group: every ring hop is intra-group.
        let mut packed = world();
        let pr: Vec<NetRank> = (0..8)
            .map(|i| packed.add_rank(NodeId(i)).expect("node"))
            .collect();
        packed.barrier();
        let t_packed = packed.allreduce_ring(&pr, 1 << 20).expect("allreduce");

        // 8 ranks spread one-per-group: every hop crosses a global link.
        let mut spread = world();
        let sr: Vec<NetRank> = (0..8)
            .map(|i| spread.add_rank(NodeId(i * 16)).expect("node"))
            .collect();
        spread.barrier();
        let t_spread = spread.allreduce_ring(&sr, 1 << 20).expect("allreduce");

        assert!(
            t_spread > t_packed,
            "spread {t_spread:?} should exceed packed {t_packed:?}"
        );
    }

    #[test]
    fn allreduce_needs_two_ranks() {
        let mut w = world();
        let a = w.add_rank(NodeId(0)).unwrap();
        assert!(w.allreduce_ring(&[a], 1024).is_err());
    }

    #[test]
    fn checked_pingpong_is_clean_and_bit_identical_to_unchecked() {
        let mut plain = world();
        let a = plain.add_rank(NodeId(0)).unwrap();
        let b = plain.add_rank(NodeId(1)).unwrap();
        let base = plain.pingpong_latency_us(a, b, 4096, 100).unwrap();

        let mut checked = world();
        checked.enable_checks();
        let a = checked.add_rank(NodeId(0)).unwrap();
        let b = checked.add_rank(NodeId(1)).unwrap();
        let lat = checked.pingpong_latency_us(a, b, 4096, 100).unwrap();
        assert_eq!(base.to_bits(), lat.to_bits(), "sanitizer must be passive");
        assert!(checked.check_findings().is_empty());
    }

    #[test]
    fn checked_collectives_run_clean() {
        let mut w = world();
        w.enable_checks();
        let ranks: Vec<NetRank> = (0..4)
            .map(|i| w.add_rank(NodeId(i)).expect("node"))
            .collect();
        w.barrier();
        w.allreduce_ring(&ranks, 1 << 20).expect("allreduce");
        w.streaming_bandwidth(ranks[0], ranks[1], 1 << 16, 2)
            .expect("bw");
        assert!(w.check_findings().is_empty(), "{:?}", w.check_findings());
    }

    #[test]
    fn unreceived_message_is_flagged_as_leak_on_drop() {
        let mut w = world();
        w.enable_checks();
        let a = w.add_rank(NodeId(0)).unwrap();
        let b = w.add_rank(NodeId(1)).unwrap();
        w.send(a, b, 4096).unwrap();
        drop(w); // message to b never received
        let findings = dessan::take_global_findings();
        assert!(
            findings.iter().any(|f| f.contains("msg-leak")),
            "{findings:?}"
        );
    }

    #[test]
    fn latency_monotone_in_size() {
        let mut w = world();
        let a = w.add_rank(NodeId(0)).unwrap();
        let b = w.add_rank(NodeId(17)).unwrap();
        let mut prev = 0.0;
        for bytes in [0u64, 1024, 8192, 65_536, 1 << 20] {
            let lat = w.pingpong_latency_us(a, b, bytes, 10).unwrap();
            assert!(lat >= prev, "{bytes}: {lat} < {prev}");
            prev = lat;
        }
    }
}
