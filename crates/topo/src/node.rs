//! The node topology container and its validation.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::ids::{CoreId, DeviceId, NumaId, SocketId, SwitchId, Vertex};
use crate::link::{Link, Links};

/// A CPU socket (package).
#[derive(Clone, Debug)]
pub struct Socket {
    /// Socket index.
    pub id: SocketId,
    /// Marketing / `ark`-style model name (e.g. "Intel Xeon Platinum 8268").
    pub model: String,
}

/// A NUMA domain: a memory locality region owned by one socket.
#[derive(Clone, Debug)]
pub struct NumaDomain {
    /// Domain index.
    pub id: NumaId,
    /// Owning socket.
    pub socket: SocketId,
}

/// A physical core with `smt` hardware threads.
#[derive(Clone, Debug)]
pub struct Core {
    /// Core index (node-wide).
    pub id: CoreId,
    /// NUMA domain holding this core.
    pub numa: NumaId,
    /// Hardware threads per core (1, 2, or 4).
    pub smt: u8,
}

/// An accelerator device as the device runtime enumerates it.
///
/// On MI250X machines each Graphics Compute Die appears as its own device —
/// the convention of ROCm and of the paper ("BabelStream only uses one of
/// the two GCDs").
#[derive(Clone, Debug)]
pub struct Device {
    /// Device index as enumerated by the runtime.
    pub id: DeviceId,
    /// Device model (e.g. "NVIDIA A100", "AMD MI250X (GCD)").
    pub model: String,
    /// The NUMA domain with direct host attachment.
    pub local_numa: NumaId,
}

/// Errors produced by [`NodeTopology::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A component refers to a socket/NUMA id that does not exist.
    DanglingReference(String),
    /// Two components share an id.
    DuplicateId(String),
    /// A link endpoint does not exist.
    UnknownVertex(String),
    /// The link graph does not connect all vertices.
    Disconnected(String),
    /// The node has no cores.
    NoCores,
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::DanglingReference(s) => write!(f, "dangling reference: {s}"),
            TopologyError::DuplicateId(s) => write!(f, "duplicate id: {s}"),
            TopologyError::UnknownVertex(s) => write!(f, "unknown link endpoint: {s}"),
            TopologyError::Disconnected(s) => write!(f, "disconnected vertex: {s}"),
            TopologyError::NoCores => write!(f, "topology has no cores"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A complete single-node hardware topology.
#[derive(Clone, Debug, Default)]
pub struct NodeTopology {
    /// Human-readable node name (usually the machine name).
    pub name: String,
    /// CPU sockets.
    pub sockets: Vec<Socket>,
    /// NUMA domains.
    pub numa_domains: Vec<NumaDomain>,
    /// Physical cores.
    pub cores: Vec<Core>,
    /// Accelerator devices.
    pub devices: Vec<Device>,
    /// Internal switches.
    pub switches: Vec<SwitchId>,
    /// Bidirectional links, with the route-cost table derived from them.
    pub links: Links,
}

impl NodeTopology {
    /// Number of physical cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Number of hardware threads (cores × SMT).
    pub fn hw_thread_count(&self) -> usize {
        self.cores.iter().map(|c| c.smt as usize).sum()
    }

    /// Number of accelerator devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// True if the node has at least one accelerator.
    pub fn has_accelerators(&self) -> bool {
        !self.devices.is_empty()
    }

    /// The cores belonging to a NUMA domain, in id order.
    pub fn cores_of_numa(&self, numa: NumaId) -> Vec<CoreId> {
        self.cores
            .iter()
            .filter(|c| c.numa == numa)
            .map(|c| c.id)
            .collect()
    }

    /// The cores belonging to a socket, in id order.
    pub fn cores_of_socket(&self, socket: SocketId) -> Vec<CoreId> {
        // A socket holds a handful of domains: a scan beats hashing each
        // core's domain.
        let domains: Vec<NumaId> = self
            .numa_domains
            .iter()
            .filter(|n| n.socket == socket)
            .map(|n| n.id)
            .collect();
        self.cores
            .iter()
            .filter(|c| domains.contains(&c.numa))
            .map(|c| c.id)
            .collect()
    }

    /// Look up a core.
    pub fn core(&self, id: CoreId) -> Option<&Core> {
        self.cores.iter().find(|c| c.id == id)
    }

    /// The NUMA domain of a core.
    pub fn numa_of_core(&self, id: CoreId) -> Option<NumaId> {
        self.core(id).map(|c| c.numa)
    }

    /// Look up a device.
    pub fn device(&self, id: DeviceId) -> Option<&Device> {
        self.devices.iter().find(|d| d.id == id)
    }

    /// All vertices of the link graph.
    pub fn vertices(&self) -> Vec<Vertex> {
        let mut out: Vec<Vertex> = self
            .numa_domains
            .iter()
            .map(|n| Vertex::Numa(n.id))
            .collect();
        out.extend(self.devices.iter().map(|d| Vertex::Device(d.id)));
        out.extend(self.switches.iter().map(|&s| Vertex::Switch(s)));
        out
    }

    /// The direct link between an (unordered) vertex pair, if one exists.
    /// When parallel links exist, the lowest-latency one is returned.
    pub fn direct_link(&self, x: Vertex, y: Vertex) -> Option<&Link> {
        self.links
            .iter()
            .filter(|l| l.connects(x, y))
            .min_by_key(|l| l.latency)
    }

    /// All links touching `v`.
    pub fn links_of(&self, v: Vertex) -> Vec<&Link> {
        self.links.iter().filter(|l| l.touches(v)).collect()
    }

    /// Check referential integrity and connectivity.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.cores.is_empty() {
            return Err(TopologyError::NoCores);
        }
        // Unique ids.
        let mut seen: HashSet<usize> = HashSet::new();
        for s in &self.sockets {
            if !seen.insert(s.id.index()) {
                return Err(TopologyError::DuplicateId(s.id.to_string()));
            }
        }
        seen.clear();
        for n in &self.numa_domains {
            if !seen.insert(n.id.index()) {
                return Err(TopologyError::DuplicateId(n.id.to_string()));
            }
        }
        seen.clear();
        for c in &self.cores {
            if !seen.insert(c.id.index()) {
                return Err(TopologyError::DuplicateId(c.id.to_string()));
            }
        }
        seen.clear();
        for d in &self.devices {
            if !seen.insert(d.id.index()) {
                return Err(TopologyError::DuplicateId(d.id.to_string()));
            }
        }
        // References.
        let socket_ids: HashSet<SocketId> = self.sockets.iter().map(|s| s.id).collect();
        let numa_ids: HashSet<NumaId> = self.numa_domains.iter().map(|n| n.id).collect();
        for n in &self.numa_domains {
            if !socket_ids.contains(&n.socket) {
                return Err(TopologyError::DanglingReference(format!(
                    "{} -> {}",
                    n.id, n.socket
                )));
            }
        }
        for c in &self.cores {
            if !numa_ids.contains(&c.numa) {
                return Err(TopologyError::DanglingReference(format!(
                    "{} -> {}",
                    c.id, c.numa
                )));
            }
        }
        for d in &self.devices {
            if !numa_ids.contains(&d.local_numa) {
                return Err(TopologyError::DanglingReference(format!(
                    "{} -> {}",
                    d.id, d.local_numa
                )));
            }
        }
        // Link endpoints exist.
        let verts: HashSet<Vertex> = self.vertices().into_iter().collect();
        for l in &self.links {
            for v in [l.a, l.b] {
                if !verts.contains(&v) {
                    return Err(TopologyError::UnknownVertex(v.to_string()));
                }
            }
        }
        // Connectivity (BFS over the link graph).
        if verts.len() > 1 {
            let mut adj: HashMap<Vertex, Vec<Vertex>> = HashMap::new();
            for l in &self.links {
                adj.entry(l.a).or_default().push(l.b);
                adj.entry(l.b).or_default().push(l.a);
            }
            let start = *verts.iter().min().expect("nonempty");
            let mut visited = HashSet::new();
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                if visited.insert(v) {
                    if let Some(ns) = adj.get(&v) {
                        stack.extend(ns.iter().copied());
                    }
                }
            }
            if let Some(missing) = verts.iter().find(|v| !visited.contains(v)) {
                return Err(TopologyError::Disconnected(missing.to_string()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NodeBuilder;
    use crate::link::LinkKind;
    use doe_simtime::SimDuration;

    fn tiny() -> NodeTopology {
        NodeBuilder::new("tiny")
            .socket("TestCPU")
            .numa(SocketId(0))
            .cores(NumaId(0), 4, 2)
            .device("TestGPU", NumaId(0))
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .build()
            .expect("tiny topology is valid")
    }

    #[test]
    fn counting() {
        let t = tiny();
        assert_eq!(t.core_count(), 4);
        assert_eq!(t.hw_thread_count(), 8);
        assert_eq!(t.device_count(), 1);
        assert!(t.has_accelerators());
    }

    #[test]
    fn core_lookups() {
        let t = tiny();
        assert_eq!(t.cores_of_numa(NumaId(0)).len(), 4);
        assert_eq!(t.cores_of_socket(SocketId(0)).len(), 4);
        assert_eq!(t.numa_of_core(CoreId(2)), Some(NumaId(0)));
        assert_eq!(t.numa_of_core(CoreId(99)), None);
    }

    #[test]
    fn direct_link_lookup_is_orderless() {
        let t = tiny();
        let a = Vertex::Numa(NumaId(0));
        let b = Vertex::Device(DeviceId(0));
        assert!(t.direct_link(a, b).is_some());
        assert!(t.direct_link(b, a).is_some());
        assert!(t.direct_link(a, a).is_none());
    }

    #[test]
    fn validate_catches_no_cores() {
        let t = NodeTopology {
            name: "empty".into(),
            ..Default::default()
        };
        assert_eq!(t.validate(), Err(TopologyError::NoCores));
    }

    #[test]
    fn validate_catches_dangling_numa() {
        let mut t = tiny();
        t.cores.push(Core {
            id: CoreId(100),
            numa: NumaId(42),
            smt: 1,
        });
        assert!(matches!(
            t.validate(),
            Err(TopologyError::DanglingReference(_))
        ));
    }

    #[test]
    fn validate_catches_duplicate_core() {
        let mut t = tiny();
        let c = t.cores[0].clone();
        t.cores.push(c);
        assert!(matches!(t.validate(), Err(TopologyError::DuplicateId(_))));
    }

    #[test]
    fn validate_catches_unknown_link_endpoint() {
        let mut t = tiny();
        t.links.push(Link::new(
            Vertex::Device(DeviceId(9)),
            Vertex::Numa(NumaId(0)),
            LinkKind::SharedMem,
            SimDuration::ZERO,
            1.0,
        ));
        assert!(matches!(t.validate(), Err(TopologyError::UnknownVertex(_))));
    }

    #[test]
    fn validate_catches_disconnected_device() {
        let mut t = tiny();
        t.devices.push(Device {
            id: DeviceId(7),
            model: "orphan".into(),
            local_numa: NumaId(0),
        });
        assert!(matches!(t.validate(), Err(TopologyError::Disconnected(_))));
    }
}
