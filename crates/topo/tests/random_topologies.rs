//! Property tests over *randomly generated* topologies: the invariants the
//! benchmark drivers rely on must hold for any valid node, not just the 13
//! paper machines (which the one-pass pair classification is also checked
//! on here).

use std::collections::BTreeMap;

use doe_simtime::SimDuration;
use doe_topo::{
    DeviceId, Link, LinkClass, LinkKind, NodeBuilder, NodeTopology, NumaId, SocketId, Vertex,
};
use proptest::prelude::*;

/// `representative_pairs` by its definition: every ordered device pair in
/// list order through `classify_pair`, the first pair of each class kept.
fn pairwise_representatives(t: &NodeTopology) -> BTreeMap<LinkClass, (DeviceId, DeviceId)> {
    let mut out = BTreeMap::new();
    for (i, x) in t.devices.iter().enumerate() {
        for (j, y) in t.devices.iter().enumerate() {
            if i != j {
                if let Some(c) = t.classify_pair(x.id, y.id) {
                    out.entry(c).or_insert((x.id, y.id));
                }
            }
        }
    }
    out
}

#[test]
fn representative_pairs_equal_pairwise_classification_on_the_catalog() {
    for m in doe_machines::catalog() {
        assert_eq!(
            m.topo.representative_pairs(),
            pairwise_representatives(&m.topo),
            "{}",
            m.name
        );
    }
}

/// Parameters of a random-but-valid node: `sockets` sockets with one NUMA
/// domain each, `cores` per domain, `devices` spread round-robin over the
/// domains, and enough links to connect everything (a NUMA ring + one host
/// link per device + optional extra device-device fabric links).
#[derive(Debug, Clone)]
struct RandomNode {
    sockets: u32,
    cores_per_numa: u32,
    smt: u8,
    devices: u32,
    fabric_pairs: Vec<(u32, u32, u8)>, // (dev a, dev b, if-links)
    latencies_ns: Vec<u32>,
}

fn random_node_strategy() -> impl Strategy<Value = RandomNode> {
    (
        1u32..4,
        1u32..16,
        prop::sample::select(vec![1u8, 2, 4]),
        0u32..6,
        prop::collection::vec((0u32..6, 0u32..6, 1u8..5), 0..6),
        prop::collection::vec(50u32..3000, 24),
    )
        .prop_map(
            |(sockets, cores_per_numa, smt, devices, fabric_pairs, latencies_ns)| RandomNode {
                sockets,
                cores_per_numa,
                smt,
                devices,
                fabric_pairs,
                latencies_ns,
            },
        )
}

fn build(node: &RandomNode) -> NodeTopology {
    let mut lat = node.latencies_ns.iter().cycle().copied();
    let mut next = |scale: f64| SimDuration::from_ns(lat.next().unwrap_or(500) as f64 * scale);
    let mut b = NodeBuilder::new("random");
    for _ in 0..node.sockets {
        b = b.socket("RandomCPU");
    }
    for s in 0..node.sockets {
        b = b.numa(SocketId(s));
    }
    for n in 0..node.sockets {
        b = b.cores(NumaId(n), node.cores_per_numa, node.smt);
    }
    for d in 0..node.devices {
        b = b.device("RandomGPU", NumaId(d % node.sockets));
    }
    // NUMA chain keeps the host side connected.
    for n in 1..node.sockets {
        b = b.link(
            Vertex::Numa(NumaId(n - 1)),
            Vertex::Numa(NumaId(n)),
            LinkKind::Upi,
            next(1.0),
            40.0,
        );
    }
    // Host link per device keeps devices connected.
    for d in 0..node.devices {
        b = b.link(
            Vertex::Numa(NumaId(d % node.sockets)),
            Vertex::Device(DeviceId(d)),
            LinkKind::Pcie { gen: 4, lanes: 16 },
            next(1.0),
            25.0,
        );
    }
    // Optional extra fabric links.
    for &(a, bdev, links) in &node.fabric_pairs {
        if a < node.devices && bdev < node.devices && a != bdev {
            b = b.link(
                Vertex::Device(DeviceId(a)),
                Vertex::Device(DeviceId(bdev)),
                LinkKind::InfinityFabric { links },
                next(0.5),
                50.0 * links as f64,
            );
        }
    }
    b.build().expect("construction follows the validity recipe")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every generated topology validates and is fully routable.
    #[test]
    fn generated_topologies_validate_and_route(node in random_node_strategy()) {
        let t = build(&node);
        prop_assert!(t.validate().is_ok());
        let vs = t.vertices();
        for &a in &vs {
            for &b in &vs {
                let r = t.route(a, b);
                prop_assert!(r.is_some(), "no route {a} -> {b}");
            }
        }
    }

    /// Routing is symmetric in latency and hop count on any topology.
    #[test]
    fn route_symmetry_everywhere(node in random_node_strategy()) {
        let t = build(&node);
        let vs = t.vertices();
        for &a in &vs {
            for &b in &vs {
                let ab = t.route(a, b).expect("routable");
                let ba = t.route(b, a).expect("routable");
                prop_assert_eq!(ab.total_latency(), ba.total_latency());
                prop_assert_eq!(ab.hop_count(), ba.hop_count());
            }
        }
    }

    /// Routes never beat the direct link, and bottleneck bandwidth is the
    /// min over hops.
    #[test]
    fn routes_are_optimal_vs_direct_links(node in random_node_strategy()) {
        let t = build(&node);
        for l in &t.links {
            let r = t.route(l.a, l.b).expect("endpoints are connected");
            prop_assert!(r.total_latency() <= l.latency, "route worse than its own link");
            let min_bw = r.links.iter().map(|x| x.bandwidth_gb_s).fold(f64::INFINITY, f64::min);
            prop_assert_eq!(r.bottleneck_bandwidth(), min_bw);
        }
    }

    /// The route table agrees with Dijkstra on every ordered vertex pair.
    #[test]
    fn route_costs_equal_route_everywhere(node in random_node_strategy()) {
        let t = build(&node);
        let vs = t.vertices();
        for &a in &vs {
            for &b in &vs {
                prop_assert_eq!(t.route_costs(a, b), t.route(a, b).map(|r| r.costs()));
            }
        }
    }

    /// Pair classification is total and symmetric over devices, and every
    /// class that `representative_pairs` reports really occurs.
    #[test]
    fn classification_is_total_and_symmetric(node in random_node_strategy()) {
        let t = build(&node);
        for i in &t.devices {
            for j in &t.devices {
                let cij = t.classify_pair(i.id, j.id);
                let cji = t.classify_pair(j.id, i.id);
                prop_assert_eq!(cij, cji);
                prop_assert_eq!(cij.is_some(), i.id != j.id);
            }
        }
        for (class, (a, b)) in t.representative_pairs() {
            prop_assert_eq!(t.classify_pair(a, b), Some(class));
        }
    }

    /// The one-pass `representative_pairs` equals the pairwise definition,
    /// also with NVLink and Infinity Fabric links mixed, parallel links of
    /// equal latency (the first one wins) and links to absent devices.
    #[test]
    fn representative_pairs_equal_pairwise_classification(
        node in random_node_strategy(),
        extra in prop::collection::vec((0u32..7, 0u32..7, 0u8..6, 0u32..2), 0..12),
    ) {
        let mut t = build(&node);
        prop_assert_eq!(t.representative_pairs(), pairwise_representatives(&t));
        for (a, b, kind, lat) in extra.into_iter().filter(|&(a, b, ..)| a != b) {
            let kind = match kind {
                0 => LinkKind::NvLink { gen: 3, bricks: 4 },
                1 => LinkKind::Pcie { gen: 4, lanes: 16 },
                k => LinkKind::InfinityFabric { links: k - 1 },
            };
            t.links.push(Link::new(
                Vertex::Device(DeviceId(a)),
                Vertex::Device(DeviceId(b)),
                kind,
                SimDuration::from_ns(100.0 * f64::from(lat + 1)),
                50.0,
            ));
            prop_assert_eq!(t.representative_pairs(), pairwise_representatives(&t));
        }
    }

    /// Renderers never panic and mention every component.
    #[test]
    fn renderers_cover_all_components(node in random_node_strategy()) {
        let t = build(&node);
        let ascii = t.render_ascii();
        let dot = t.render_dot();
        for d in &t.devices {
            let needle = format!("\"{}\"", Vertex::Device(d.id));
            prop_assert!(dot.contains(&needle));
        }
        prop_assert!(ascii.contains("Links:"));
        prop_assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }
}
