//! The paper's device-pair link classification (Tables 5 & 6, Appendix A).
//!
//! > "For Summit, Sierra, and Lassen, A refers to GPUs directly connected
//! > by NVLinks, and B otherwise. For Frontier, RZVernal, and Tioga, A, B,
//! > and C refer to quad-, dual-, and single infinity fabric links, while D
//! > refers to a GPU without a direct connection."
//!
//! Perlmutter and Polaris have a uniform all-to-all NVLink3 mesh, so every
//! pair classifies as A.

use std::collections::BTreeMap;
use std::fmt;

use crate::ids::{DeviceId, Vertex};
use crate::link::{Link, LinkKind};
use crate::node::NodeTopology;

/// The paper's class of a device pair joined by a direct link of `kind`
/// (`None`: no direct link), on a node that uses Infinity Fabric or not.
fn class_of(infinity_fabric: bool, kind: Option<LinkKind>) -> LinkClass {
    if infinity_fabric {
        match kind {
            Some(LinkKind::InfinityFabric { links }) => match links {
                4.. => LinkClass::A,
                2..=3 => LinkClass::B,
                _ => LinkClass::C,
            },
            // Any other direct link kind on an IF machine is unexpected;
            // treat as C (a single generic hop).
            Some(_) => LinkClass::C,
            None => LinkClass::D,
        }
    } else {
        match kind {
            Some(LinkKind::NvLink { .. }) => LinkClass::A,
            _ => LinkClass::B,
        }
    }
}

/// Device-pair interconnect class, as used in Tables 5 and 6.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LinkClass {
    /// Direct NVLink, or quad Infinity Fabric.
    A,
    /// Not directly NVLinked (via host), or dual Infinity Fabric.
    B,
    /// Single Infinity Fabric link.
    C,
    /// No direct connection on an Infinity Fabric machine.
    D,
}

impl LinkClass {
    /// All classes in table order.
    pub const ALL: [LinkClass; 4] = [LinkClass::A, LinkClass::B, LinkClass::C, LinkClass::D];
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkClass::A => "A",
            LinkClass::B => "B",
            LinkClass::C => "C",
            LinkClass::D => "D",
        };
        f.write_str(s)
    }
}

impl NodeTopology {
    /// True if any device pair on this node is joined by Infinity Fabric —
    /// i.e. this is an MI250X-style machine using the A/B/C/D convention.
    pub fn uses_infinity_fabric(&self) -> bool {
        self.links
            .iter()
            .any(|l| matches!(l.kind, LinkKind::InfinityFabric { .. }))
    }

    /// Classify a device pair per the paper's convention.
    ///
    /// Returns `None` for identical devices or unknown ids.
    pub fn classify_pair(&self, x: DeviceId, y: DeviceId) -> Option<LinkClass> {
        if x == y || self.device(x).is_none() || self.device(y).is_none() {
            return None;
        }
        let direct = self.direct_link(Vertex::Device(x), Vertex::Device(y));
        Some(class_of(
            self.uses_infinity_fabric(),
            direct.map(|l| l.kind),
        ))
    }

    /// One representative device pair per class present on this node, in
    /// class order — the pairs a benchmarking campaign actually measures:
    /// for each class, the first ordered pair (device-list order) that
    /// [`Self::classify_pair`] puts in it.
    ///
    /// One pass over the links finds every device pair's direct link (the
    /// first lowest-latency one, as [`Self::direct_link`] picks), where
    /// classifying pair by pair would scan the links once per pair.
    pub fn representative_pairs(&self) -> BTreeMap<LinkClass, (DeviceId, DeviceId)> {
        let n = self.devices.len();
        // A device's slot is the first list position holding its id, as
        // `device` finds it; `direct` is dense by slot pair.
        let slot = |id: DeviceId| self.devices.iter().position(|d| d.id == id);
        let mut direct: Vec<Option<&Link>> = vec![None; n * n];
        let mut infinity_fabric = false;
        for l in self.links.iter() {
            infinity_fabric |= matches!(l.kind, LinkKind::InfinityFabric { .. });
            let (Vertex::Device(a), Vertex::Device(b)) = (l.a, l.b) else {
                continue;
            };
            let (Some(p), Some(q)) = (slot(a), slot(b)) else {
                continue;
            };
            for idx in [p * n + q, q * n + p] {
                if direct[idx].is_none_or(|best| l.latency < best.latency) {
                    direct[idx] = Some(l);
                }
            }
        }
        // A listed device always has a slot, at or before its position.
        let slots: Vec<usize> = (0..n)
            .map(|i| slot(self.devices[i].id).unwrap_or(i))
            .collect();
        let mut out = BTreeMap::new();
        for (i, dx) in self.devices.iter().enumerate() {
            for (j, dy) in self.devices.iter().enumerate() {
                if dx.id == dy.id {
                    continue;
                }
                let direct = direct[slots[i] * n + slots[j]];
                let c = class_of(infinity_fabric, direct.map(|l| l.kind));
                out.entry(c).or_insert((dx.id, dy.id));
            }
        }
        out
    }

    /// All classes that occur between device pairs on this node.
    pub fn present_classes(&self) -> Vec<LinkClass> {
        self.representative_pairs().keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NodeBuilder;
    use crate::ids::{NumaId, SocketId};
    use doe_simtime::SimDuration;

    fn ns(x: f64) -> SimDuration {
        SimDuration::from_ns(x)
    }

    /// A 4-GCD slice of an MI250X machine: GCD pairs with 4/2/1/0 IF links.
    fn if_machine() -> NodeTopology {
        NodeBuilder::new("mini-frontier")
            .socket("EPYC")
            .numa(SocketId(0))
            .cores(NumaId(0), 8, 2)
            .devices("MI250X GCD", NumaId(0), 4)
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::InfinityFabric { links: 1 },
                ns(500.0),
                36.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::InfinityFabric { links: 1 },
                ns(500.0),
                36.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(2)),
                LinkKind::InfinityFabric { links: 1 },
                ns(500.0),
                36.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(3)),
                LinkKind::InfinityFabric { links: 1 },
                ns(500.0),
                36.0,
            )
            .link(
                Vertex::Device(DeviceId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::InfinityFabric { links: 4 },
                ns(300.0),
                200.0,
            )
            .link(
                Vertex::Device(DeviceId(0)),
                Vertex::Device(DeviceId(2)),
                LinkKind::InfinityFabric { links: 2 },
                ns(300.0),
                100.0,
            )
            .link(
                Vertex::Device(DeviceId(1)),
                Vertex::Device(DeviceId(3)),
                LinkKind::InfinityFabric { links: 1 },
                ns(300.0),
                50.0,
            )
            .build()
            .expect("valid")
    }

    /// Summit-like: two NVLink islands bridged by X-Bus.
    fn nvlink_machine() -> NodeTopology {
        NodeBuilder::new("mini-summit")
            .socket("P9-0")
            .socket("P9-1")
            .numa(SocketId(0))
            .numa(SocketId(1))
            .cores(NumaId(0), 4, 4)
            .cores(NumaId(1), 4, 4)
            .device("V100", NumaId(0))
            .device("V100", NumaId(0))
            .device("V100", NumaId(1))
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Numa(NumaId(1)),
                LinkKind::XBus,
                ns(700.0),
                64.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::NvLink { gen: 2, bricks: 2 },
                ns(600.0),
                50.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::NvLink { gen: 2, bricks: 2 },
                ns(600.0),
                50.0,
            )
            .link(
                Vertex::Numa(NumaId(1)),
                Vertex::Device(DeviceId(2)),
                LinkKind::NvLink { gen: 2, bricks: 2 },
                ns(600.0),
                50.0,
            )
            .link(
                Vertex::Device(DeviceId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::NvLink { gen: 2, bricks: 2 },
                ns(500.0),
                50.0,
            )
            .build()
            .expect("valid")
    }

    #[test]
    fn if_classes_follow_link_multiplicity() {
        let t = if_machine();
        assert!(t.uses_infinity_fabric());
        assert_eq!(
            t.classify_pair(DeviceId(0), DeviceId(1)),
            Some(LinkClass::A)
        );
        assert_eq!(
            t.classify_pair(DeviceId(0), DeviceId(2)),
            Some(LinkClass::B)
        );
        assert_eq!(
            t.classify_pair(DeviceId(1), DeviceId(3)),
            Some(LinkClass::C)
        );
        assert_eq!(
            t.classify_pair(DeviceId(2), DeviceId(3)),
            Some(LinkClass::D)
        );
    }

    #[test]
    fn classification_is_symmetric() {
        let t = if_machine();
        for i in 0..4u32 {
            for j in 0..4u32 {
                assert_eq!(
                    t.classify_pair(DeviceId(i), DeviceId(j)),
                    t.classify_pair(DeviceId(j), DeviceId(i))
                );
            }
        }
    }

    #[test]
    fn nvlink_classes_are_a_or_b() {
        let t = nvlink_machine();
        assert!(!t.uses_infinity_fabric());
        assert_eq!(
            t.classify_pair(DeviceId(0), DeviceId(1)),
            Some(LinkClass::A)
        );
        assert_eq!(
            t.classify_pair(DeviceId(0), DeviceId(2)),
            Some(LinkClass::B)
        );
    }

    #[test]
    fn same_device_is_unclassified() {
        let t = if_machine();
        assert_eq!(t.classify_pair(DeviceId(0), DeviceId(0)), None);
        assert_eq!(t.classify_pair(DeviceId(0), DeviceId(99)), None);
    }

    #[test]
    fn representative_pairs_cover_all_present_classes() {
        let t = if_machine();
        let pairs = t.representative_pairs();
        assert_eq!(
            pairs.keys().copied().collect::<Vec<_>>(),
            vec![LinkClass::A, LinkClass::B, LinkClass::C, LinkClass::D]
        );
        for (class, (x, y)) in pairs {
            assert_eq!(t.classify_pair(x, y), Some(class));
        }
    }

    #[test]
    fn parallel_links_of_equal_latency_classify_by_the_first() {
        // `direct_link` keeps the first of the lowest-latency links between
        // a pair; the one-pass classification must keep the same one.
        let pcie = LinkKind::Pcie { gen: 4, lanes: 16 };
        let nvlink = LinkKind::NvLink { gen: 3, bricks: 4 };
        for (first, second, class) in [(pcie, nvlink, LinkClass::B), (nvlink, pcie, LinkClass::A)] {
            let mut t = nvlink_machine();
            for kind in [first, second] {
                t.links.push(crate::link::Link::new(
                    Vertex::Device(DeviceId(0)),
                    Vertex::Device(DeviceId(1)),
                    kind,
                    ns(400.0),
                    50.0,
                ));
            }
            assert_eq!(t.classify_pair(DeviceId(0), DeviceId(1)), Some(class));
            assert_eq!(
                t.representative_pairs().get(&class),
                Some(&(DeviceId(0), DeviceId(1)))
            );
        }
    }

    #[test]
    fn present_classes_for_nvlink_machine() {
        let t = nvlink_machine();
        assert_eq!(t.present_classes(), vec![LinkClass::A, LinkClass::B]);
    }
}
