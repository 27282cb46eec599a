//! Typed links between node components.
//!
//! A [`Link`] carries the two figures that matter to every benchmark in the
//! paper: a traversal **latency** and a serialization **bandwidth**. The
//! [`LinkKind`] records *what* the link physically is, which drives the A–D
//! classification of Tables 5–6 and the labels in Figures 1–3.
//!
//! A node's links live in a [`Links`] list, which also owns the node's
//! route-cost table.

use std::fmt;
use std::ops::Deref;
use std::sync::OnceLock;

use doe_simtime::SimDuration;

use crate::ids::Vertex;
use crate::route::RouteTable;

/// The physical technology of a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkKind {
    /// PCI Express, by generation and lane count (e.g. gen4 ×16).
    Pcie { gen: u8, lanes: u8 },
    /// NVIDIA NVLink, by generation and brick (sub-link) count.
    NvLink { gen: u8, bricks: u8 },
    /// AMD Infinity Fabric between GCDs/devices, by link count (×4/×2/×1).
    InfinityFabric { links: u8 },
    /// IBM X-Bus between Power9 sockets.
    XBus,
    /// Intel UPI between Xeon sockets.
    Upi,
    /// AMD inter-socket / inter-die Global Memory Interconnect.
    Gmi,
    /// The on-die path between two NUMA domains of one socket (mesh/ring).
    OnDie,
    /// Loopback within a single NUMA domain (shared L3/memory path).
    SharedMem,
}

impl LinkKind {
    /// A short label for diagrams, mirroring the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            LinkKind::Pcie { gen, lanes } => format!("PCIe{gen} x{lanes}"),
            LinkKind::NvLink { gen, bricks } => format!("NVLink{gen} x{bricks}"),
            LinkKind::InfinityFabric { links } => format!("IF x{links}"),
            LinkKind::XBus => "X-Bus".to_string(),
            LinkKind::Upi => "UPI".to_string(),
            LinkKind::Gmi => "GMI".to_string(),
            LinkKind::OnDie => "on-die".to_string(),
            LinkKind::SharedMem => "shm".to_string(),
        }
    }

    /// True for direct device↔device fabrics (NVLink / Infinity Fabric).
    pub fn is_device_fabric(&self) -> bool {
        matches!(
            self,
            LinkKind::NvLink { .. } | LinkKind::InfinityFabric { .. }
        )
    }
}

/// A bidirectional link between two vertices.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub a: Vertex,
    /// The other endpoint.
    pub b: Vertex,
    /// Physical technology.
    pub kind: LinkKind,
    /// One-way traversal latency for a minimum-size packet.
    pub latency: SimDuration,
    /// Sustained one-direction bandwidth in GB/s (decimal).
    pub bandwidth_gb_s: f64,
}

impl Link {
    /// Construct a link; endpoints may be given in either order.
    pub fn new(
        a: Vertex,
        b: Vertex,
        kind: LinkKind,
        latency: SimDuration,
        bandwidth_gb_s: f64,
    ) -> Self {
        assert!(a != b, "self-loop link at {a}");
        assert!(
            bandwidth_gb_s > 0.0,
            "link {a}--{b} must have positive bandwidth"
        );
        Link {
            a,
            b,
            kind,
            latency,
            bandwidth_gb_s,
        }
    }

    /// True if this link touches `v`.
    pub fn touches(&self, v: Vertex) -> bool {
        self.a == v || self.b == v
    }

    /// The endpoint opposite `v`, if `v` is an endpoint.
    pub fn opposite(&self, v: Vertex) -> Option<Vertex> {
        if self.a == v {
            Some(self.b)
        } else if self.b == v {
            Some(self.a)
        } else {
            None
        }
    }

    /// True if this link connects exactly the (unordered) pair `{x, y}`.
    pub fn connects(&self, x: Vertex, y: Vertex) -> bool {
        (self.a == x && self.b == y) || (self.a == y && self.b == x)
    }

    /// Time for `bytes` to traverse this link (latency + serialization).
    pub fn traverse(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::transfer(bytes, self.bandwidth_gb_s)
    }
}

/// The link list of a node, together with the route-cost table derived
/// from it.
///
/// Reads go through `Deref<Target = [Link]>`. The table fills on the first
/// [`NodeTopology::route_costs`] lookup and is shared by every clone made
/// after that; [`Self::push`] and [`Self::as_mut_vec`], the only ways to
/// change the list, drop it. `Debug` prints the bare list, exactly as a
/// `Vec<Link>`, so spec digests never see the table.
///
/// [`NodeTopology::route_costs`]: crate::NodeTopology::route_costs
#[derive(Clone, Default)]
pub struct Links {
    list: Vec<Link>,
    pub(crate) routes: OnceLock<RouteTable>,
}

impl Links {
    /// Append a link.
    pub fn push(&mut self, link: Link) {
        self.as_mut_vec().push(link);
    }

    /// The list for in-place edits; drops the route table.
    pub fn as_mut_vec(&mut self) -> &mut Vec<Link> {
        self.routes.take();
        &mut self.list
    }
}

impl Deref for Links {
    type Target = [Link];

    fn deref(&self) -> &[Link] {
        &self.list
    }
}

impl<'a> IntoIterator for &'a Links {
    type Item = &'a Link;
    type IntoIter = std::slice::Iter<'a, Link>;

    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}

impl fmt::Debug for Links {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.list, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DeviceId, NumaId};

    fn v_numa(i: u32) -> Vertex {
        Vertex::Numa(NumaId(i))
    }
    fn v_dev(i: u32) -> Vertex {
        Vertex::Device(DeviceId(i))
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(LinkKind::Pcie { gen: 4, lanes: 16 }.label(), "PCIe4 x16");
        assert_eq!(LinkKind::NvLink { gen: 2, bricks: 2 }.label(), "NVLink2 x2");
        assert_eq!(LinkKind::InfinityFabric { links: 4 }.label(), "IF x4");
        assert_eq!(LinkKind::XBus.label(), "X-Bus");
    }

    #[test]
    fn device_fabric_predicate() {
        assert!(LinkKind::NvLink { gen: 3, bricks: 4 }.is_device_fabric());
        assert!(LinkKind::InfinityFabric { links: 1 }.is_device_fabric());
        assert!(!LinkKind::Pcie { gen: 4, lanes: 16 }.is_device_fabric());
        assert!(!LinkKind::XBus.is_device_fabric());
    }

    #[test]
    fn endpoints_and_opposites() {
        let l = Link::new(
            v_numa(0),
            v_dev(1),
            LinkKind::Pcie { gen: 4, lanes: 16 },
            SimDuration::from_ns(500.0),
            25.0,
        );
        assert!(l.touches(v_numa(0)));
        assert!(l.touches(v_dev(1)));
        assert!(!l.touches(v_dev(2)));
        assert_eq!(l.opposite(v_numa(0)), Some(v_dev(1)));
        assert_eq!(l.opposite(v_dev(2)), None);
        assert!(l.connects(v_dev(1), v_numa(0)));
        assert!(!l.connects(v_dev(1), v_dev(1)));
    }

    #[test]
    fn traverse_adds_latency_and_serialization() {
        let l = Link::new(
            v_dev(0),
            v_dev(1),
            LinkKind::NvLink { gen: 3, bricks: 4 },
            SimDuration::from_us(1.0),
            100.0,
        );
        // 1e9 bytes at 100 GB/s = 10 ms, plus 1 us latency
        let t = l.traverse(1_000_000_000);
        assert!((t.as_us() - (10_000.0 + 1.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = Link::new(
            v_dev(0),
            v_dev(0),
            LinkKind::SharedMem,
            SimDuration::ZERO,
            1.0,
        );
    }

    #[test]
    #[should_panic(expected = "positive bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = Link::new(
            v_dev(0),
            v_dev(1),
            LinkKind::SharedMem,
            SimDuration::ZERO,
            0.0,
        );
    }
}
