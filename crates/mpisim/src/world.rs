//! The rank world: per-rank virtual clocks and blocking send/recv.

use std::collections::VecDeque;
use std::sync::Arc;

use dessan::{RuntimeChecks, VectorClock};
use doe_simtime::steady::{self, Boundary, Parts};
use doe_simtime::{Engine, SimDuration, SimRng, SimTime};
use doe_topo::{CoreId, NodeTopology, NumaId};

use crate::config::MpiConfig;
use crate::fabric::{Fabric, NodeId};
use crate::transport::{resolve_path, BufferLoc, PathCosts};

/// A rank handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Rank(pub usize);

/// Errors from world construction or communication calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Rank index out of range.
    InvalidRank(usize),
    /// The core a rank was placed on does not exist.
    InvalidCore(CoreId),
    /// The fabric node a rank was placed on does not exist.
    InvalidNode(NodeId),
    /// The topology or fabric offers no path between the endpoint ranks
    /// (on a fabric: the two ranks share a node).
    NoPath {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
    },
    /// `recv` found no matching message (protocol misuse in the driver).
    NoMatchingMessage {
        /// Receiving rank.
        to: usize,
        /// Expected sending rank.
        from: usize,
    },
    /// A rank cannot send to itself.
    SelfMessage,
    /// The [`MpiConfig`] failed validation.
    InvalidConfig(String),
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::InvalidRank(r) => write!(f, "invalid rank {r}"),
            MpiError::InvalidCore(c) => write!(f, "invalid core {c}"),
            MpiError::InvalidNode(n) => write!(f, "invalid node {}", n.0),
            MpiError::NoPath { from, to } => write!(f, "no path: rank {from} -> rank {to}"),
            MpiError::NoMatchingMessage { to, from } => {
                write!(f, "rank {to} has no pending message from rank {from}")
            }
            MpiError::SelfMessage => write!(f, "self-send not supported"),
            MpiError::InvalidConfig(why) => write!(f, "invalid MpiConfig: {why}"),
        }
    }
}

impl std::error::Error for MpiError {}

/// A message's path costs under the world's run factor, scaled once at
/// the send (or reused from [`MpiSim::recent`]) so its receive rounds no
/// float.
#[derive(Debug, Clone, Copy)]
struct MessageCosts {
    /// Path latency, paid once by an eager payload and by each rendezvous
    /// leg.
    latency: SimDuration,
    /// Time the payload occupies the sender's copy port.
    serialization: SimDuration,
}

/// How many recent `(from, to, bytes)` cost entries a world keeps: the
/// two directions of a ping-pong, or a bandwidth window and its ack, with
/// room for a second pair.
const RECENT: usize = 4;

/// One [`MpiSim::recent`] entry: a `(from, to, bytes)` key and its costs.
type RecentCosts = Option<((usize, usize, u64), MessageCosts)>;

#[derive(Debug)]
struct Message {
    bytes: u64,
    /// Sender's clock after paying its software overhead.
    sender_ready: SimTime,
    /// For eager messages: when the payload lands at the receiver.
    eager_arrival: Option<SimTime>,
    costs: MessageCosts,
    from: usize,
    /// Whether the send had blocking (standard-mode) completion semantics.
    blocking: bool,
    /// Sender's vector clock at the send, when `--check` is on.
    clock: Option<VectorClock>,
}

/// Sanitizer state for one world: per-rank vector clocks (joined on
/// send/recv/barrier) plus the blocking-rendezvous wait-for graph used to
/// detect send/recv deadlock cycles.
#[derive(Debug)]
struct MpiChecks {
    handle: RuntimeChecks,
    vcs: Vec<VectorClock>,
    /// Outstanding blocking rendezvous sends, as (sender, receiver) wait
    /// edges: the sender is inside `MPI_Send` until the receiver matches.
    waits: Vec<(usize, usize)>,
    /// Retired clock snapshots, reused for the next in-flight message so
    /// steady-state checked sends don't allocate.
    pool: Vec<VectorClock>,
    /// Barrier LUB scratch, kept across calls for its buffer.
    lub: VectorClock,
    /// DFS scratch for [`Self::waits_on`].
    dfs_stack: Vec<usize>,
    dfs_seen: Vec<bool>,
}

impl MpiChecks {
    fn new(nranks: usize) -> Self {
        MpiChecks {
            handle: RuntimeChecks::enabled(),
            vcs: vec![VectorClock::new(); nranks],
            waits: Vec::new(),
            pool: Vec::new(),
            lub: VectorClock::new(),
            dfs_stack: Vec::new(),
            dfs_seen: Vec::new(),
        }
    }

    /// Snapshot rank `i`'s clock into pooled storage (allocation-free once
    /// the pool is warm).
    fn snapshot(&mut self, i: usize) -> VectorClock {
        let mut snap = self.pool.pop().unwrap_or_default();
        snap.clone_from(&self.vcs[i]);
        snap
    }

    /// True when some rank is reachable from `start` along wait edges.
    fn waits_on(&mut self, start: usize, goal: usize) -> bool {
        if self.dfs_seen.len() < self.vcs.len() {
            self.dfs_seen.resize(self.vcs.len(), false);
        }
        self.dfs_seen.fill(false);
        self.dfs_stack.clear();
        self.dfs_stack.push(start);
        while let Some(x) = self.dfs_stack.pop() {
            if x == goal {
                return true;
            }
            if let Some(v) = self.dfs_seen.get_mut(x) {
                if *v {
                    continue;
                }
                *v = true;
            }
            self.dfs_stack
                .extend(self.waits.iter().filter(|&&(f, _)| f == x).map(|&(_, t)| t));
        }
        false
    }

    /// Cold path: render and record a rendezvous deadlock finding.
    #[cold]
    fn report_deadlock(&mut self, from: usize, to: usize, bytes: u64) {
        self.handle.report(
            "deadlock",
            format!(
                "rank {from} blocking rendezvous send of {bytes} B to rank {to} closes a \
                 wait cycle: rank {to} is already blocked waiting on rank {from}"
            ),
        );
    }
}

/// Where a world's message paths come from: the one thing that differs
/// between ranks on the cores of one node and ranks on the nodes of a
/// fabric. Clocks, mailboxes, copy ports, the run factor and the sanitizer
/// are the world's own, whichever source it has.
#[derive(Debug)]
enum Paths {
    /// The node's route table, memoized per endpoint-class pair.
    Node(NodePaths),
    /// The fabric, priced at every send but a recent repeat (no path
    /// memo); [`MpiSim::fabric_mut`] forgets the recent sends, so
    /// background flows added through it apply from the next send on.
    /// A rank's copy port is its node's, indexed by [`NodeId`].
    Fabric(Fabric),
}

/// A node's placement tables and its class-pair path memo.
#[derive(Debug)]
struct NodePaths {
    topo: Arc<NodeTopology>,
    /// Per-rank placement, SoA so the hot send/recv loop walks dense
    /// parallel arrays (one cache line covers 8 ranks' NUMA ids) instead of
    /// striding a struct-of-everything.
    rank_core: Vec<CoreId>,
    rank_numa: Vec<NumaId>,
    rank_buffer: Vec<BufferLoc>,
    /// Interned endpoint class per rank — index into [`Self::classes`].
    rank_class: Vec<u32>,
    /// The distinct `(numa, buffer)` endpoint classes seen so far. Transport
    /// cost depends only on the endpoint classes (plus a per-pair on-die
    /// distance term computed inline), so the memo is O(classes²) — a
    /// handful of entries however many ranks a world holds, where a
    /// rank-pair memo would be O(ranks²).
    classes: Vec<(NumaId, BufferLoc)>,
    /// Memoized endpoint costs per (sender class, receiver class), dense by
    /// `from * classes.len() + to`; rebuilt on the rare event of a new
    /// class appearing.
    class_paths: Vec<Option<PathCosts>>,
    /// `NumaId` per core, dense by `CoreId::index()` (`u32::MAX` = no such
    /// core) — `add_rank` would otherwise linear-scan the core table,
    /// O(ranks · cores) while building a many-rank world.
    core_numa: Vec<u32>,
    /// Core count per NUMA domain, dense by `NumaId::index()`, for the
    /// on-die distance fraction.
    numa_core_count: Vec<u32>,
}

impl NodePaths {
    fn new(topo: Arc<NodeTopology>) -> Self {
        let ncores = topo
            .cores
            .iter()
            .map(|c| c.id.index() + 1)
            .max()
            .unwrap_or(0);
        let mut core_numa = vec![u32::MAX; ncores];
        let mut numa_core_count = vec![0u32; topo.numa_domains.len()];
        for c in &topo.cores {
            core_numa[c.id.index()] = c.numa.index() as u32;
            if c.numa.index() >= numa_core_count.len() {
                numa_core_count.resize(c.numa.index() + 1, 0);
            }
            numa_core_count[c.numa.index()] += 1;
        }
        NodePaths {
            topo,
            rank_core: Vec::new(),
            rank_numa: Vec::new(),
            rank_buffer: Vec::new(),
            rank_class: Vec::new(),
            classes: Vec::new(),
            class_paths: Vec::new(),
            core_numa,
            numa_core_count,
        }
    }

    /// Place the next rank; returns its NUMA domain.
    fn place(&mut self, core: CoreId, buffer: BufferLoc) -> Result<NumaId, MpiError> {
        let numa_idx = self
            .core_numa
            .get(core.index())
            .copied()
            .filter(|&n| n != u32::MAX)
            .ok_or(MpiError::InvalidCore(core))?;
        let numa = NumaId(numa_idx);
        // Intern the rank's endpoint class; a new class invalidates the
        // class-pair memo (it refills lazily — classes are a handful, ranks
        // are thousands, so this stays O(1) amortized per added rank).
        let class = match self
            .classes
            .iter()
            .position(|&(n, b)| n == numa && b == buffer)
        {
            Some(c) => c as u32,
            None => {
                self.classes.push((numa, buffer));
                let nc = self.classes.len();
                self.class_paths.clear();
                self.class_paths.resize(nc * nc, None);
                (nc - 1) as u32
            }
        };
        self.rank_core.push(core);
        self.rank_numa.push(numa);
        self.rank_buffer.push(buffer);
        self.rank_class.push(class);
        Ok(numa)
    }

    // doebench::hot
    fn path(&mut self, cfg: &MpiConfig, from: usize, to: usize) -> Result<PathCosts, MpiError> {
        // Dense class-pair memo first: one resolution per endpoint-class
        // pair per world, shared by every rank pair in those classes.
        let (cf, ct) = (self.rank_class[from], self.rank_class[to]);
        let idx = cf as usize * self.classes.len() + ct as usize;
        let mut path = match self.class_paths[idx] {
            Some(p) => p,
            None => {
                let (fn_, fb) = self.classes[cf as usize];
                let (tn, tb) = self.classes[ct as usize];
                let p = resolve_path(&self.topo, cfg, fn_, fb, tn, tb)
                    .ok_or(MpiError::NoPath { from, to })?;
                self.class_paths[idx] = Some(p);
                p
            }
        };
        // On-die mesh distance for same-domain host pairs (Xeon Phi's
        // "close" vs "far" core pairs) — the one per-pair term, computed
        // inline from the dense placement arrays so the memo can stay
        // O(classes²).
        if self.rank_numa[from] == self.rank_numa[to]
            && self.rank_buffer[from] == BufferLoc::Host
            && self.rank_buffer[to] == BufferLoc::Host
            && !cfg.intra_numa_distance.is_zero()
        {
            let n = self.numa_core_count[self.rank_numa[from].index()] as usize;
            if n > 1 {
                let dist = self.rank_core[from]
                    .index()
                    .abs_diff(self.rank_core[to].index()) as f64;
                let frac = dist / (n - 1) as f64;
                path.latency += cfg.intra_numa_distance * frac.min(1.0);
            }
        }
        Ok(path)
    }
}

/// A simulated MPI world: ranks on the cores of one node
/// ([`MpiSim::new`]) or on the nodes of a fabric ([`MpiSim::on_fabric`]).
#[derive(Debug)]
pub struct MpiSim {
    paths: Paths,
    cfg: MpiConfig,
    /// Copy port of each rank, as an index into [`Self::ports`]: its NUMA
    /// domain on a node, its node on a fabric.
    rank_port: Vec<u32>,
    clocks: Vec<SimTime>,
    /// Pending messages per receiving rank, FIFO per sender.
    mailboxes: Vec<VecDeque<Message>>,
    /// Shared-memory copy port per NUMA domain on a node (dense by
    /// `NumaId::index()`), per node on a fabric (dense by `NodeId`): concurrent
    /// payload copies from co-located ranks queue behind each other, which
    /// is what degrades multi-pair throughput on a socket.
    ports: Vec<Engine>,
    /// Common-mode run factor: one draw per world, scaling every software
    /// and transport cost. Run-to-run σ in the paper is dominated by this
    /// common mode (DVFS, OS state), not per-message noise — per-message
    /// noise would average away over OSU's 1000 inner iterations.
    run_factor: f64,
    /// [`SimRng::label_hash`] of the run factor's stream label, which
    /// names the node (or the fabric): hashed once per world, not per arm.
    rng_label: u64,
    /// `cfg.send_overhead` and `cfg.recv_overhead` under `run_factor`,
    /// scaled once per arm.
    send_overhead: SimDuration,
    recv_overhead: SimDuration,
    /// The costs of the last few distinct `(from, to, bytes)` sends, so a
    /// repeated message (every round trip of a ping-pong after the first)
    /// resolves no path and rounds no float. They depend only on the
    /// placement, the fabric and `run_factor`, so [`Self::arm`] and
    /// [`Self::fabric_mut`] clear them. Replaced round-robin at `recent_next`.
    recent: [RecentCosts; RECENT],
    recent_next: usize,
    /// Sanitizer state, present only under `--check`. Passive: it never
    /// touches clocks, ports, or the RNG, so checked runs are bit-identical.
    checks: Option<Box<MpiChecks>>,
    /// The previous round-trip boundary of [`Self::pingpong`], kept across
    /// calls for its buffer.
    boundary: Boundary,
}

impl MpiSim {
    /// Create a world over `topo` with the given MPI implementation model.
    ///
    /// # Panics
    /// Panics if `cfg` fails validation; use [`Self::try_new`] to handle
    /// that as an error.
    pub fn new(topo: Arc<NodeTopology>, cfg: MpiConfig, seed: u64) -> Self {
        match Self::try_new(topo, cfg, seed) {
            Ok(w) => w,
            Err(e) => panic!("{e}"),
        }
    }

    /// Create a world over `topo`, rejecting invalid configurations.
    pub fn try_new(topo: Arc<NodeTopology>, cfg: MpiConfig, seed: u64) -> Result<Self, MpiError> {
        let nports = topo
            .numa_domains
            .iter()
            .map(|n| n.id.index() + 1)
            .max()
            .unwrap_or(0);
        Self::build(Paths::Node(NodePaths::new(topo)), cfg, nports, seed)
    }

    /// Create a world of ranks on the nodes of `fabric`. Its messages pay
    /// `cfg`'s software costs (send and receive overheads, eager threshold,
    /// jitter) and the fabric's path costs; each node has one copy port.
    ///
    /// ```
    /// use doe_mpi::{Fabric, FabricConfig, MpiConfig, MpiSim, NodeId};
    ///
    /// let fabric = Fabric::new(FabricConfig::slingshot_like());
    /// let mut world = MpiSim::on_fabric(fabric, MpiConfig::default_fabric(), 42).unwrap();
    /// let a = world.add_node_rank(NodeId(0)).unwrap();
    /// let b = world.add_node_rank(NodeId(16)).unwrap(); // different switch group
    /// let latency = world.pingpong(a, b, 0, 100).unwrap().as_us() / 200.0;
    /// assert!(latency > 1.0 && latency < 5.0); // ~2.2 us inter-group floor
    /// ```
    pub fn on_fabric(fabric: Fabric, cfg: MpiConfig, seed: u64) -> Result<Self, MpiError> {
        Self::build(Paths::Fabric(fabric), cfg, 0, seed)
    }

    fn build(paths: Paths, cfg: MpiConfig, nports: usize, seed: u64) -> Result<Self, MpiError> {
        cfg.validate().map_err(MpiError::InvalidConfig)?;
        let rng_label = match &paths {
            Paths::Node(node) => SimRng::label_hash(&["mpi/", &node.topo.name]),
            Paths::Fabric(_) => SimRng::label_hash(&["netsim"]),
        };
        let mut world = MpiSim {
            paths,
            cfg,
            rank_port: Vec::new(),
            clocks: Vec::new(),
            mailboxes: Vec::new(),
            ports: vec![Engine::new(); nports],
            run_factor: 1.0,
            rng_label,
            send_overhead: SimDuration::ZERO,
            recv_overhead: SimDuration::ZERO,
            recent: [None; RECENT],
            recent_next: 0,
            checks: dessan::checks_enabled().then(|| Box::new(MpiChecks::new(0))),
            boundary: Boundary::default(),
        };
        world.arm(seed);
        Ok(world)
    }

    /// Make this world equal to a fresh [`Self::new`] with `seed` and the
    /// same ranks, keeping its allocations and its class-path memo (which
    /// holds unscaled costs, so no seed reaches it). Returns `false`, and
    /// changes nothing, under `--check` or while a message is pending: the
    /// caller then builds a fresh world, so the sanitizer sees every rep
    /// from its start and a leaked message is still reported at drop.
    pub fn rearm(&mut self, seed: u64) -> bool {
        if !self.fast_forwards() || dessan::checks_enabled() {
            return false;
        }
        self.arm(seed);
        true
    }

    /// Whether this world may compute work whose result its state fixes
    /// instead of simulating it: no sanitizer is attached and no message
    /// is pending. [`Self::pingpong`] then fast-forwards a periodic loop,
    /// and an OSU campaign skips the warm-up before a barrier (DESIGN.md
    /// §3). Otherwise every operation runs, so the sanitizer sees each one.
    pub fn fast_forwards(&self) -> bool {
        self.checks.is_none() && self.mailboxes.iter().all(VecDeque::is_empty)
    }

    /// Set the per-seed state, for [`Self::try_new`] and [`Self::rearm`]
    /// alike: draw the run factor, scale the software overheads by it,
    /// forget the recent message costs, zero every clock and idle every
    /// port.
    fn arm(&mut self, seed: u64) {
        let mut rng = SimRng::labelled(seed, self.rng_label, 0);
        self.run_factor = self.cfg.jitter.sample_scalar(1.0, &mut rng).max(0.05);
        self.send_overhead = self.cfg.send_overhead * self.run_factor;
        self.recv_overhead = self.cfg.recv_overhead * self.run_factor;
        self.recent = [None; RECENT];
        self.clocks.fill(SimTime::ZERO);
        self.ports.fill(Engine::new());
    }

    /// Turn the sanitizer on for this world regardless of the global
    /// `--check` switch (test fixtures).
    pub fn enable_checks(&mut self) {
        if self.checks.is_none() {
            self.checks = Some(Box::new(MpiChecks::new(self.clocks.len())));
        }
    }

    /// Findings the sanitizer has recorded against this world so far.
    /// Returns without rendering (or allocating) when there is nothing to
    /// report — the common case on every hot-loop call site.
    pub fn check_findings(&self) -> Vec<String> {
        match &self.checks {
            Some(c) if !c.handle.findings().is_empty() => {
                c.handle.findings().iter().map(|f| f.to_string()).collect()
            }
            _ => Vec::new(),
        }
    }

    /// The MPI configuration.
    pub fn config(&self) -> &MpiConfig {
        &self.cfg
    }

    /// The fabric of a fabric world, to add or remove background flows
    /// between sends; `None` for a world on a node. The next send prices
    /// its path on the fabric as changed.
    pub fn fabric_mut(&mut self) -> Option<&mut Fabric> {
        self.recent = [None; RECENT];
        match &mut self.paths {
            Paths::Fabric(fabric) => Some(fabric),
            Paths::Node(_) => None,
        }
    }

    /// Add a rank pinned to `core` with a host-resident message buffer.
    pub fn add_host_rank(&mut self, core: CoreId) -> Result<Rank, MpiError> {
        self.add_core_rank(core, BufferLoc::Host)
    }

    /// Add a rank pinned to `core` whose message buffer lives on `dev`.
    pub fn add_device_rank(
        &mut self,
        core: CoreId,
        dev: doe_topo::DeviceId,
    ) -> Result<Rank, MpiError> {
        self.add_core_rank(core, BufferLoc::Device(dev))
    }

    fn add_core_rank(&mut self, core: CoreId, buffer: BufferLoc) -> Result<Rank, MpiError> {
        let Paths::Node(node) = &mut self.paths else {
            return Err(MpiError::InvalidCore(core));
        };
        let numa = node.place(core, buffer)?;
        Ok(self.push_rank(numa.index()))
    }

    /// Add a rank on fabric node `node`. Ranks on one node share its copy
    /// port; messages between them have no fabric path.
    pub fn add_node_rank(&mut self, node: NodeId) -> Result<Rank, MpiError> {
        match &self.paths {
            Paths::Fabric(fabric) if fabric.contains(node) => Ok(self.push_rank(node.0 as usize)),
            _ => Err(MpiError::InvalidNode(node)),
        }
    }

    /// The per-rank state every world keeps, whatever its path source.
    fn push_rank(&mut self, port: usize) -> Rank {
        self.rank_port.push(port as u32);
        self.clocks.push(SimTime::ZERO);
        self.mailboxes.push(VecDeque::new());
        if port >= self.ports.len() {
            self.ports.resize(port + 1, Engine::new());
        }
        if let Some(ch) = &mut self.checks {
            ch.vcs.push(VectorClock::new());
        }
        Rank(self.clocks.len() - 1)
    }

    /// A rank's current virtual time.
    pub fn time(&self, r: Rank) -> Result<SimTime, MpiError> {
        self.clocks
            .get(r.0)
            .copied()
            .ok_or(MpiError::InvalidRank(r.0))
    }

    /// Advance a rank's clock by local compute/overhead.
    pub fn advance(&mut self, r: Rank, d: SimDuration) -> Result<(), MpiError> {
        let c = self.clocks.get_mut(r.0).ok_or(MpiError::InvalidRank(r.0))?;
        *c += d;
        Ok(())
    }

    /// Synchronize all rank clocks to the latest (an `MPI_Barrier` with
    /// idealized zero cost — used between benchmark phases).
    pub fn barrier(&mut self) {
        let max = self.clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
        for c in &mut self.clocks {
            *c = max;
        }
        // A barrier orders everything before it at every rank before
        // everything after it: all vector clocks join to the common LUB.
        if let Some(ch) = &mut self.checks {
            ch.lub.reset();
            for (i, vc) in ch.vcs.iter_mut().enumerate() {
                vc.tick(i);
            }
            for vc in &ch.vcs {
                ch.lub.join_assign(vc);
            }
            // Every clock is ≤ the LUB, so the in-place join *is* the
            // assignment `*vc = lub.clone()` — without the clone.
            for vc in &mut ch.vcs {
                vc.join_assign(&ch.lub);
            }
        }
    }

    // doebench::hot
    fn path_between(&mut self, from: usize, to: usize) -> Result<PathCosts, MpiError> {
        match &mut self.paths {
            Paths::Node(node) => node.path(&self.cfg, from, to),
            Paths::Fabric(fabric) => {
                // The path latency, and its contended bandwidth capped by
                // the sender's NIC.
                let (a, b) = (NodeId(self.rank_port[from]), NodeId(self.rank_port[to]));
                let p = fabric.path(a, b).ok_or(MpiError::NoPath { from, to })?;
                let bandwidth = fabric
                    .contended_bandwidth(a, b)
                    .unwrap_or(p.bandwidth)
                    .min(fabric.config().injection_bandwidth);
                Ok(PathCosts {
                    latency: p.latency,
                    bandwidth,
                })
            }
        }
    }

    /// The scaled costs of a `bytes`-byte message from `from` to `to`:
    /// from [`Self::recent`] when the world sent it before, else priced on
    /// its path and remembered.
    // doebench::hot
    fn message_costs(
        &mut self,
        from: usize,
        to: usize,
        bytes: u64,
    ) -> Result<MessageCosts, MpiError> {
        let key = (from, to, bytes);
        if let Some((_, costs)) = self.recent.iter().flatten().find(|(k, _)| *k == key) {
            return Ok(*costs);
        }
        let path = self.path_between(from, to)?;
        let costs = MessageCosts {
            latency: path.latency * self.run_factor,
            serialization: SimDuration::transfer(bytes, path.bandwidth) * self.run_factor,
        };
        self.recent[self.recent_next] = Some((key, costs));
        self.recent_next = (self.recent_next + 1) % RECENT;
        Ok(costs)
    }

    /// Blocking standard-mode send of `bytes` from `from` to `to`.
    ///
    /// Eager messages (≤ threshold) complete locally once buffered; larger
    /// messages use rendezvous and the sender's completion is settled when
    /// the matching `recv` executes. Under `--check`, a rendezvous send
    /// registers the sender as blocked on the receiver, and a cycle of
    /// such waits is reported as a deadlock — the classic head-to-head
    /// blocking-send hazard the simulator's sequential driver cannot hang
    /// on but real MPI would.
    pub fn send(&mut self, from: Rank, to: Rank, bytes: u64) -> Result<(), MpiError> {
        self.send_impl(from, to, bytes, true)
    }

    /// Nonblocking-start standard send (models `MPI_Isend` whose wait the
    /// simulator settles at the matching `recv`). The cost model is
    /// identical to [`Self::send`]; the only difference is that under
    /// `--check` no blocking wait edge is registered, so posting both
    /// directions of an exchange before either `recv` is legal — which is
    /// exactly why real collective algorithms use nonblocking internals.
    pub fn send_nb(&mut self, from: Rank, to: Rank, bytes: u64) -> Result<(), MpiError> {
        self.send_impl(from, to, bytes, false)
    }

    // doebench::hot
    fn send_impl(
        &mut self,
        from: Rank,
        to: Rank,
        bytes: u64,
        blocking: bool,
    ) -> Result<(), MpiError> {
        if from == to {
            return Err(MpiError::SelfMessage);
        }
        if from.0 >= self.clocks.len() {
            return Err(MpiError::InvalidRank(from.0));
        }
        if to.0 >= self.clocks.len() {
            return Err(MpiError::InvalidRank(to.0));
        }
        let costs = self.message_costs(from.0, to.0, bytes)?;
        let o_s = self.send_overhead;
        let eager = bytes <= self.cfg.eager_threshold;
        // Eager sends copy the payload into the transport buffer before
        // returning: the sender serializes at the path bandwidth, through
        // its shared copy port (concurrent co-located senders queue — the
        // multi-pair contention effect). Without this, a windowed sender
        // could "inject" faster than the wire.
        let sender_ready = if eager {
            let ser = costs.serialization;
            let after_os = self.clocks[from.0] + o_s;
            let port = self.rank_port[from.0] as usize;
            let done = if ser.is_zero() {
                after_os
            } else {
                self.ports[port].enqueue(after_os, ser).1
            };
            self.clocks[from.0] = done;
            done
        } else {
            self.clocks[from.0] += o_s;
            self.clocks[from.0]
        };
        let eager_arrival = if eager {
            Some(sender_ready + costs.latency)
        } else {
            None
        };
        let clock = match &mut self.checks {
            Some(ch) => {
                ch.vcs[from.0].tick(from.0);
                if blocking && !eager {
                    // The sender is now inside MPI_Send until `to` posts
                    // the matching recv. If `to` is already (transitively)
                    // blocked on `from`, no rank in that cycle can reach
                    // its recv: deadlock.
                    if ch.waits_on(to.0, from.0) {
                        ch.report_deadlock(from.0, to.0, bytes);
                    }
                    ch.waits.push((from.0, to.0));
                }
                Some(ch.snapshot(from.0))
            }
            None => None,
        };
        self.mailboxes[to.0].push_back(Message {
            bytes,
            sender_ready,
            eager_arrival,
            costs,
            from: from.0,
            blocking,
            clock,
        });
        Ok(())
    }

    /// Blocking receive at `at` of the oldest pending message from `from`.
    ///
    /// Returns the receiver-side completion instant.
    // doebench::hot
    pub fn recv(&mut self, at: Rank, from: Rank, bytes: u64) -> Result<SimTime, MpiError> {
        if at.0 >= self.clocks.len() {
            return Err(MpiError::InvalidRank(at.0));
        }
        let pos = self.mailboxes[at.0]
            .iter()
            .position(|m| m.from == from.0 && m.bytes == bytes)
            .ok_or(MpiError::NoMatchingMessage {
                to: at.0,
                from: from.0,
            })?;
        let Some(mut msg) = self.mailboxes[at.0].remove(pos) else {
            return Err(MpiError::NoMatchingMessage {
                to: at.0,
                from: from.0,
            });
        };
        if let Some(ch) = &mut self.checks {
            // Receiving joins the sender's clock into the receiver's: the
            // send happens-before everything after this recv.
            ch.vcs[at.0].tick(at.0);
            if let Some(c) = msg.clock.take() {
                ch.vcs[at.0].join_assign(&c);
                // The snapshot has served its purpose; its buffer backs
                // the next send.
                ch.pool.push(c);
            }
            // A matched rendezvous send unblocks its sender.
            if msg.blocking && msg.eager_arrival.is_none() {
                if let Some(w) = ch.waits.iter().position(|&e| e == (msg.from, at.0)) {
                    ch.waits.remove(w);
                }
            }
        }
        let o_r = self.recv_overhead;
        let recv_post = self.clocks[at.0];
        let done = match msg.eager_arrival {
            Some(arrival) => recv_post.max(arrival) + o_r,
            None => {
                // Rendezvous: RTS reaches the receiver, CTS returns, then
                // the payload moves. The control messages pay the path
                // latency; the payload pays latency + serialization.
                let lat = msg.costs.latency;
                let rts_at_recv = msg.sender_ready + lat;
                let cts_sent = recv_post.max(rts_at_recv);
                // CTS travels back; then the payload copy occupies the
                // sender's copy port and crosses the path.
                let data_start = cts_sent + lat;
                let ser = msg.costs.serialization;
                let port = self.rank_port[msg.from] as usize;
                let copy_done = if ser.is_zero() {
                    data_start
                } else {
                    self.ports[port].enqueue(data_start, ser).1
                };
                let data_done = copy_done + lat;
                // Synchronous completion: the sender unblocks when the
                // transfer finishes.
                let sc = &mut self.clocks[msg.from];
                *sc = (*sc).max(data_done);
                data_done + o_r
            }
        };
        self.clocks[at.0] = done;
        Ok(done)
    }

    /// `iters` blocking ping-pong round trips: `a` sends `bytes` to `b`,
    /// `b` receives and sends them back, `a` receives — the `osu_latency`
    /// inner loop. Returns the time that passed on `a`'s clock.
    ///
    /// The result and the world it leaves are bit-identical to `iters`
    /// explicit `send`/`recv` round trips: costs are drawn once per world,
    /// so [`steady::repeat`] skips the round trips after the world reaches
    /// a steady state over its rank clocks and copy ports (DESIGN.md §3).
    ///
    /// The shortcut needs [`Self::fast_forwards`]: under `--check` every
    /// round trip runs op by op, so the vector clocks see every send and
    /// receive.
    // doebench::hot
    pub fn pingpong(
        &mut self,
        a: Rank,
        b: Rank,
        bytes: u64,
        iters: u32,
    ) -> Result<SimDuration, MpiError> {
        let t0 = self.time(a)?;
        let fast = self.fast_forwards();
        steady::repeat(self, iters.into(), fast, Self::steady_parts, |w| {
            w.send(a, b, bytes)?;
            w.recv(b, a, bytes)?;
            w.send(b, a, bytes)?;
            w.recv(a, b, bytes).map(drop)
        })?;
        Ok(self.time(a)?.since(t0))
    }

    /// The rank clocks and copy ports, as [`steady::repeat`] sees them.
    fn steady_parts(&mut self) -> Parts<'_> {
        Parts {
            clocks: &mut self.clocks,
            engines: [&mut self.ports, &mut []],
            mode: 0,
            boundary: &mut self.boundary,
        }
    }
}

impl Drop for MpiSim {
    fn drop(&mut self) {
        // Leak check: every message a benchmark sends must be received, or
        // its timing never lands anywhere — a silent protocol mismatch.
        // Findings flush to the global sink when `ch.handle` drops.
        let Some(ch) = &mut self.checks else { return };
        for (to, mailbox) in self.mailboxes.iter().enumerate() {
            for m in mailbox {
                ch.handle.report(
                    "msg-leak",
                    format!(
                        "world dropped with an unreceived {}-byte message from rank {} to rank {}",
                        m.bytes, m.from, to
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricConfig;
    use doe_simtime::Jitter;
    use doe_topo::{LinkKind, NodeBuilder, NumaId, SocketId, Vertex};

    fn topo() -> Arc<NodeTopology> {
        Arc::new(
            NodeBuilder::new("w")
                .socket("A")
                .socket("B")
                .numa(SocketId(0))
                .numa(SocketId(1))
                .cores(NumaId(0), 4, 1)
                .cores(NumaId(1), 4, 1)
                .link(
                    Vertex::Numa(NumaId(0)),
                    Vertex::Numa(NumaId(1)),
                    LinkKind::Upi,
                    SimDuration::from_ns(200.0),
                    40.0,
                )
                .build()
                .expect("valid"),
        )
    }

    fn quiet_cfg() -> MpiConfig {
        let mut c = MpiConfig::default_host();
        c.jitter = Jitter::NONE;
        c
    }

    fn pingpong_oneway_us(world: &mut MpiSim, a: Rank, b: Rank, bytes: u64, iters: u32) -> f64 {
        world.barrier();
        let dt = world.pingpong(a, b, bytes, iters).unwrap();
        dt.as_us() / (2.0 * iters as f64)
    }

    #[test]
    fn on_socket_latency_matches_model() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        let b = w.add_host_rank(CoreId(1)).unwrap();
        let lat = pingpong_oneway_us(&mut w, a, b, 0, 100);
        // o_s + shm_lat + o_r = 80 + 150 + 80 ns = 0.31 us
        assert!((lat - 0.31).abs() < 0.01, "lat={lat}");
    }

    #[test]
    fn cross_socket_is_slower_than_on_socket() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        let b = w.add_host_rank(CoreId(1)).unwrap();
        let on_socket = pingpong_oneway_us(&mut w, a, b, 0, 50);

        let mut w2 = MpiSim::new(topo(), quiet_cfg(), 1);
        let a2 = w2.add_host_rank(CoreId(0)).unwrap();
        let b2 = w2.add_host_rank(CoreId(4)).unwrap(); // other socket
        let on_node = pingpong_oneway_us(&mut w2, a2, b2, 0, 50);

        assert!(on_node > on_socket);
        // Exactly the UPI hop slower.
        assert!((on_node - on_socket - 0.2).abs() < 0.01);
    }

    #[test]
    fn rendezvous_kicks_in_above_threshold() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        let b = w.add_host_rank(CoreId(1)).unwrap();
        let thr = w.config().eager_threshold;
        let below = pingpong_oneway_us(&mut w, a, b, thr, 20);
        let above = pingpong_oneway_us(&mut w, a, b, thr + 1, 20);
        // The rendezvous handshake adds two extra path latencies.
        assert!(above > below, "below={below} above={above}");
    }

    #[test]
    fn latency_grows_with_message_size() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        let b = w.add_host_rank(CoreId(1)).unwrap();
        let mut prev = 0.0;
        for bytes in [0u64, 1024, 65_536, 1 << 20, 1 << 24] {
            let lat = pingpong_oneway_us(&mut w, a, b, bytes, 5);
            assert!(
                lat >= prev,
                "latency not monotone at {bytes}: {lat} < {prev}"
            );
            prev = lat;
        }
    }

    #[test]
    fn recv_without_send_errors() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        let b = w.add_host_rank(CoreId(1)).unwrap();
        let err = w.recv(b, a, 8).unwrap_err();
        assert!(matches!(err, MpiError::NoMatchingMessage { .. }));
    }

    #[test]
    fn self_send_rejected() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        assert_eq!(w.send(a, a, 8), Err(MpiError::SelfMessage));
    }

    #[test]
    fn invalid_core_rejected() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        assert!(matches!(
            w.add_host_rank(CoreId(99)),
            Err(MpiError::InvalidCore(_))
        ));
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        let b = w.add_host_rank(CoreId(1)).unwrap();
        w.advance(a, SimDuration::from_us(5.0)).unwrap();
        w.barrier();
        assert_eq!(w.time(a).unwrap(), w.time(b).unwrap());
    }

    #[test]
    fn messages_from_same_sender_are_fifo() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        let b = w.add_host_rank(CoreId(1)).unwrap();
        w.send(a, b, 8).unwrap();
        w.send(a, b, 8).unwrap();
        let t1 = w.recv(b, a, 8).unwrap();
        let t2 = w.recv(b, a, 8).unwrap();
        assert!(t2 >= t1);
    }

    #[test]
    fn invalid_config_is_rejected_by_try_new() {
        let mut c = quiet_cfg();
        c.shm_bandwidth = -1.0;
        assert!(matches!(
            MpiSim::try_new(topo(), c, 1),
            Err(MpiError::InvalidConfig(_))
        ));
    }

    #[test]
    fn head_to_head_rendezvous_sends_are_flagged_as_deadlock() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        let b = w.add_host_rank(CoreId(1)).unwrap();
        w.enable_checks();
        let big = w.config().eager_threshold + 1;
        w.send(a, b, big).unwrap();
        // The simulator's sequential driver sails on, but real blocking
        // sends would hang here — the sanitizer must say so.
        w.send(b, a, big).unwrap();
        let findings = w.check_findings();
        assert!(
            findings.iter().any(|f| f.contains("deadlock")),
            "missing deadlock finding: {findings:?}"
        );
        w.recv(a, b, big).unwrap();
        w.recv(b, a, big).unwrap();
    }

    #[test]
    fn three_rank_rendezvous_cycle_is_flagged() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        let b = w.add_host_rank(CoreId(1)).unwrap();
        let c = w.add_host_rank(CoreId(2)).unwrap();
        w.enable_checks();
        let big = w.config().eager_threshold + 1;
        w.send(a, b, big).unwrap();
        w.send(b, c, big).unwrap();
        w.send(c, a, big).unwrap(); // closes a -> b -> c -> a
        let findings = w.check_findings();
        assert!(
            findings.iter().any(|f| f.contains("deadlock")),
            "missing deadlock finding: {findings:?}"
        );
        w.recv(b, a, big).unwrap();
        w.recv(c, b, big).unwrap();
        w.recv(a, c, big).unwrap();
    }

    #[test]
    fn matched_exchange_via_send_nb_is_clean() {
        let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
        let a = w.add_host_rank(CoreId(0)).unwrap();
        let b = w.add_host_rank(CoreId(1)).unwrap();
        w.enable_checks();
        let big = w.config().eager_threshold + 1;
        w.send_nb(a, b, big).unwrap();
        w.send_nb(b, a, big).unwrap();
        w.recv(a, b, big).unwrap();
        w.recv(b, a, big).unwrap();
        assert_eq!(w.check_findings(), Vec::<String>::new());
    }

    #[test]
    fn checked_pingpong_is_clean_and_bit_identical_to_unchecked() {
        let run = |check: bool| {
            let mut w = MpiSim::new(topo(), quiet_cfg(), 7);
            let a = w.add_host_rank(CoreId(0)).unwrap();
            let b = w.add_host_rank(CoreId(4)).unwrap();
            if check {
                w.enable_checks();
            }
            let lat = pingpong_oneway_us(&mut w, a, b, 1 << 20, 10);
            assert!(w.check_findings().is_empty(), "{:?}", w.check_findings());
            lat
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn checked_pingpong_runs_every_op() {
        for (bytes, iters) in [(0, 1), (8, 1000), (1 << 20, 37)] {
            let mut w = MpiSim::new(topo(), quiet_cfg(), 3);
            let a = w.add_host_rank(CoreId(0)).unwrap();
            let b = w.add_host_rank(CoreId(4)).unwrap();
            w.enable_checks();
            w.pingpong(a, b, bytes, iters).unwrap();
            // Every send and receive ticks its rank's own clock entry:
            // two per rank per round trip, none fast-forwarded.
            let ch = w.checks.as_ref().expect("checks on");
            for r in [a, b] {
                assert_eq!(ch.vcs[r.0].get(r.0), 2 * u64::from(iters), "{bytes} B");
            }
        }
    }

    #[test]
    fn unreceived_message_is_flagged_as_leak_on_drop() {
        dessan::take_global_findings(); // start from a drained sink
        {
            let mut w = MpiSim::new(topo(), quiet_cfg(), 1);
            let a = w.add_host_rank(CoreId(0)).unwrap();
            let b = w.add_host_rank(CoreId(1)).unwrap();
            w.enable_checks();
            w.send(a, b, 64).unwrap();
            let _ = b;
        }
        let findings = dessan::take_global_findings();
        assert!(
            findings.iter().any(|f| f.contains("msg-leak")),
            "missing leak finding: {findings:?}"
        );
    }

    /// A jitter-free world on `fabric` with ranks on nodes `a` and `b`.
    fn fabric_pair(fabric: FabricConfig, a: u32, b: u32) -> (MpiSim, Rank, Rank) {
        let mut nic = MpiConfig::default_fabric();
        nic.jitter = Jitter::NONE;
        let mut w = MpiSim::on_fabric(Fabric::new(fabric), nic, 1).unwrap();
        let ra = w.add_node_rank(NodeId(a)).unwrap();
        let rb = w.add_node_rank(NodeId(b)).unwrap();
        (w, ra, rb)
    }

    #[test]
    fn intra_group_latency_floor() {
        let (mut w, a, b) = fabric_pair(FabricConfig::slingshot_like(), 0, 1);
        let lat = pingpong_oneway_us(&mut w, a, b, 0, 100);
        // 250 + 350*2 + 150 + 250 ns = 1.35 us
        assert!((lat - 1.35).abs() < 0.02, "lat={lat}");
    }

    #[test]
    fn inter_group_is_slower_than_intra_group() {
        let (mut w, a, b) = fabric_pair(FabricConfig::slingshot_like(), 0, 1);
        let c = w.add_node_rank(NodeId(16)).unwrap();
        let near = pingpong_oneway_us(&mut w, a, b, 0, 50);
        let far = pingpong_oneway_us(&mut w, a, c, 0, 50);
        assert!(far > near, "far={far} near={near}");
    }

    /// One-way bandwidth (GB/s) of a 4 MiB ping-pong.
    fn large_message_gb_s(w: &mut MpiSim, a: Rank, b: Rank) -> f64 {
        let bytes = 1 << 22;
        bytes as f64 / pingpong_oneway_us(w, a, b, bytes, 3) / 1e3
    }

    #[test]
    fn large_message_bandwidth_approaches_injection_cap() {
        // Links four times faster than the NIC: the NIC bounds the message.
        let mut fabric = FabricConfig::slingshot_like();
        fabric.edge_bandwidth = 100.0;
        fabric.global_bandwidth = 100.0;
        let (mut w, a, b) = fabric_pair(fabric, 0, 1);
        let bw = large_message_gb_s(&mut w, a, b);
        assert!(bw > 15.0 && bw <= 25.1, "bw={bw}");
    }

    #[test]
    fn background_flows_degrade_intergroup_bandwidth() {
        let (mut w, a, b) = fabric_pair(FabricConfig::slingshot_like(), 0, 16);
        let quiet = large_message_gb_s(&mut w, a, b);
        w.fabric_mut().unwrap().add_background_flows(0, 3);
        let noisy = large_message_gb_s(&mut w, a, b);
        assert!(noisy < quiet / 2.0, "quiet={quiet} noisy={noisy}");
    }

    #[test]
    fn same_node_pairs_are_rejected() {
        let (mut w, a, b) = fabric_pair(FabricConfig::slingshot_like(), 0, 0);
        assert_eq!(w.send(a, b, 8), Err(MpiError::NoPath { from: 0, to: 1 }));
    }

    #[test]
    fn rendezvous_messages_unblock_the_sender_late() {
        let (mut w, a, b) = fabric_pair(FabricConfig::slingshot_like(), 0, 1);
        let big = w.config().eager_threshold + 1;
        w.send(a, b, big).unwrap();
        let before = w.time(a).unwrap();
        w.recv(b, a, big).unwrap();
        assert!(
            w.time(a).unwrap() > before,
            "synchronous completion must move the sender"
        );
    }

    #[test]
    fn invalid_placement_rejected() {
        let (mut w, _, _) = fabric_pair(FabricConfig::slingshot_like(), 0, 1);
        let bad = NodeId(9999);
        assert_eq!(w.add_node_rank(bad), Err(MpiError::InvalidNode(bad)));
        // A fabric world has no cores, and a node world no fabric nodes.
        assert_eq!(
            w.add_host_rank(CoreId(0)),
            Err(MpiError::InvalidCore(CoreId(0)))
        );
        let mut node = MpiSim::new(topo(), quiet_cfg(), 1);
        assert_eq!(
            node.add_node_rank(NodeId(0)),
            Err(MpiError::InvalidNode(NodeId(0)))
        );
        assert!(node.fabric_mut().is_none());
    }

    #[test]
    fn latency_monotone_in_size() {
        let (mut w, a, b) = fabric_pair(FabricConfig::slingshot_like(), 0, 17);
        let mut prev = 0.0;
        for bytes in [0u64, 1024, 8192, 65_536, 1 << 20] {
            let lat = pingpong_oneway_us(&mut w, a, b, bytes, 10);
            assert!(lat >= prev, "{bytes}: {lat} < {prev}");
            prev = lat;
        }
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let run = |seed| {
            let mut w = MpiSim::new(topo(), MpiConfig::default_host(), seed);
            let a = w.add_host_rank(CoreId(0)).unwrap();
            let b = w.add_host_rank(CoreId(1)).unwrap();
            pingpong_oneway_us(&mut w, a, b, 1024, 100)
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
