//! The two-level fabric: nodes → group switches → global links.

use doe_simtime::SimDuration;

/// A node's position in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Static description of the fabric.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    /// Number of switch groups.
    pub groups: u32,
    /// Nodes per group.
    pub nodes_per_group: u32,
    /// One-way NIC-to-switch link latency.
    pub edge_latency: SimDuration,
    /// Edge (NIC↔group switch) link bandwidth, GB/s.
    pub edge_bandwidth: f64,
    /// Latency of a switch traversal.
    pub switch_latency: SimDuration,
    /// One-way group-to-group (global) link latency.
    pub global_latency: SimDuration,
    /// Global link bandwidth, GB/s.
    pub global_bandwidth: f64,
    /// Injection bandwidth cap of one NIC, GB/s: no message leaves a node
    /// faster, whatever its path's links offer.
    pub injection_bandwidth: f64,
}

impl FabricConfig {
    /// A Slingshot-flavoured default: 200 Gb/s (25 GB/s) links and NICs,
    /// ~350 ns edge hops, ~700 ns global hops.
    pub fn slingshot_like() -> Self {
        FabricConfig {
            groups: 8,
            nodes_per_group: 16,
            edge_latency: SimDuration::from_ns(350.0),
            edge_bandwidth: 25.0,
            switch_latency: SimDuration::from_ns(150.0),
            global_latency: SimDuration::from_ns(700.0),
            global_bandwidth: 25.0,
            injection_bandwidth: 25.0,
        }
    }
}

/// A path's aggregate cost between two nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathProfile {
    /// Sum of link and switch latencies, one way.
    pub latency: SimDuration,
    /// Bottleneck bandwidth before contention, GB/s.
    pub bandwidth: f64,
    /// Whether the path crosses a global (inter-group) link.
    pub crosses_global: bool,
}

/// The instantiated fabric with contention state.
#[derive(Clone, Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    /// Active background flows crossing each group's global uplink.
    global_flows: Vec<u32>,
}

impl Fabric {
    /// Build a fabric.
    ///
    /// # Panics
    /// Panics on a degenerate configuration (zero groups/nodes, non-positive
    /// bandwidths).
    pub fn new(cfg: FabricConfig) -> Self {
        assert!(cfg.groups > 0 && cfg.nodes_per_group > 0, "empty fabric");
        assert!(
            cfg.edge_bandwidth > 0.0 && cfg.global_bandwidth > 0.0 && cfg.injection_bandwidth > 0.0,
            "bandwidths must be positive"
        );
        Fabric {
            global_flows: vec![0; cfg.groups as usize],
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Which group a node belongs to.
    pub fn group_of(&self, n: NodeId) -> u32 {
        n.0 / self.cfg.nodes_per_group
    }

    /// True if `n` is a valid node id.
    pub fn contains(&self, n: NodeId) -> bool {
        n.0 < self.cfg.groups * self.cfg.nodes_per_group
    }

    /// The uncontended path profile between two distinct nodes.
    ///
    /// Intra-group: NIC → switch → NIC (2 edge links, 1 switch).
    /// Inter-group: NIC → switch → global → switch → NIC.
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<PathProfile> {
        if !self.contains(a) || !self.contains(b) || a == b {
            return None;
        }
        let (ga, gb) = (self.group_of(a), self.group_of(b));
        if ga == gb {
            Some(PathProfile {
                latency: self.cfg.edge_latency * 2 + self.cfg.switch_latency,
                bandwidth: self.cfg.edge_bandwidth,
                crosses_global: false,
            })
        } else {
            Some(PathProfile {
                latency: self.cfg.edge_latency * 2
                    + self.cfg.switch_latency * 2
                    + self.cfg.global_latency,
                bandwidth: self.cfg.edge_bandwidth.min(self.cfg.global_bandwidth),
                crosses_global: true,
            })
        }
    }

    /// Register `flows` background flows leaving `group`'s global uplink
    /// (a neighbouring job's traffic).
    pub fn add_background_flows(&mut self, group: u32, flows: u32) {
        assert!((group as usize) < self.global_flows.len(), "unknown group");
        self.global_flows[group as usize] += flows;
    }

    /// Remove previously-registered background flows (saturating).
    pub fn remove_background_flows(&mut self, group: u32, flows: u32) {
        assert!((group as usize) < self.global_flows.len(), "unknown group");
        let f = &mut self.global_flows[group as usize];
        *f = f.saturating_sub(flows);
    }

    /// The contended bandwidth of a path: equal share of each global link
    /// among our flow plus the background flows on that link's group.
    pub fn contended_bandwidth(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let p = self.path(a, b)?;
        if !p.crosses_global {
            return Some(p.bandwidth);
        }
        let sharers = 1 + self.global_flows[self.group_of(a) as usize]
            .max(self.global_flows[self.group_of(b) as usize]);
        Some(
            self.cfg
                .edge_bandwidth
                .min(self.cfg.global_bandwidth / sharers as f64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fabric() -> Fabric {
        Fabric::new(FabricConfig::slingshot_like())
    }

    #[test]
    fn group_assignment() {
        let f = fabric();
        assert_eq!(f.group_of(NodeId(0)), 0);
        assert_eq!(f.group_of(NodeId(15)), 0);
        assert_eq!(f.group_of(NodeId(16)), 1);
        assert!(f.contains(NodeId(127)));
        assert!(!f.contains(NodeId(128)));
    }

    #[test]
    fn intra_group_path_is_two_edges_one_switch() {
        let f = fabric();
        let p = f.path(NodeId(0), NodeId(1)).expect("path");
        assert!(!p.crosses_global);
        assert_eq!(p.latency, SimDuration::from_ns(2.0 * 350.0 + 150.0));
    }

    #[test]
    fn inter_group_path_adds_global_hop() {
        let f = fabric();
        let p = f.path(NodeId(0), NodeId(16)).expect("path");
        assert!(p.crosses_global);
        let intra = f.path(NodeId(0), NodeId(1)).unwrap();
        assert!(p.latency > intra.latency);
    }

    #[test]
    fn self_path_and_invalid_nodes_are_none() {
        let f = fabric();
        assert!(f.path(NodeId(3), NodeId(3)).is_none());
        assert!(f.path(NodeId(0), NodeId(999)).is_none());
    }

    #[test]
    fn background_flows_shrink_global_bandwidth_only() {
        let mut f = fabric();
        let intra_before = f.contended_bandwidth(NodeId(0), NodeId(1)).unwrap();
        let inter_before = f.contended_bandwidth(NodeId(0), NodeId(16)).unwrap();
        f.add_background_flows(0, 3);
        let intra_after = f.contended_bandwidth(NodeId(0), NodeId(1)).unwrap();
        let inter_after = f.contended_bandwidth(NodeId(0), NodeId(16)).unwrap();
        assert_eq!(intra_before, intra_after);
        assert!(inter_after < inter_before);
        // 4 sharers on a 25 GB/s link.
        assert!((inter_after - 25.0 / 4.0).abs() < 1e-9);
        f.remove_background_flows(0, 3);
        assert_eq!(
            f.contended_bandwidth(NodeId(0), NodeId(16)).unwrap(),
            inter_before
        );
    }

    #[test]
    fn remove_saturates() {
        let mut f = fabric();
        f.remove_background_flows(2, 10);
        assert_eq!(f.contended_bandwidth(NodeId(0), NodeId(33)).unwrap(), 25.0);
    }

    proptest! {
        /// Paths are symmetric and latency is positive for all valid pairs.
        #[test]
        fn prop_path_symmetry(a in 0u32..128, b in 0u32..128) {
            prop_assume!(a != b);
            let f = fabric();
            let pab = f.path(NodeId(a), NodeId(b)).expect("valid");
            let pba = f.path(NodeId(b), NodeId(a)).expect("valid");
            prop_assert_eq!(pab, pba);
            prop_assert!(pab.latency > doe_simtime::SimDuration::ZERO);
            prop_assert!(pab.bandwidth > 0.0);
        }

        /// Contention never increases bandwidth and never reaches zero.
        #[test]
        fn prop_contention_monotone(flows in 0u32..64) {
            let mut f = fabric();
            let before = f.contended_bandwidth(NodeId(0), NodeId(16)).unwrap();
            f.add_background_flows(0, flows);
            let after = f.contended_bandwidth(NodeId(0), NodeId(16)).unwrap();
            prop_assert!(after <= before);
            prop_assert!(after > 0.0);
        }
    }
}
