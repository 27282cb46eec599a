//! Shortest-path routing over the link graph.
//!
//! A transfer between two components traverses a sequence of links: e.g. a
//! Summit GPU0→GPU5 copy crosses NVLink to the socket, X-Bus between
//! sockets, and NVLink down to the target GPU. Routes are found by Dijkstra
//! over link latency (latency dominates the paper's latency benchmarks;
//! the serialization time is added per-transfer by the runtimes).

use std::collections::HashMap;

use doe_simtime::SimDuration;

use crate::ids::{DeviceId, NumaId, SwitchId, Vertex};
use crate::link::Link;
use crate::node::NodeTopology;

/// A path through the node: the ordered list of links to traverse.
#[derive(Clone, Debug)]
pub struct Route {
    /// Origin vertex.
    pub from: Vertex,
    /// Destination vertex.
    pub to: Vertex,
    /// Links in traversal order; empty iff `from == to`.
    pub links: Vec<Link>,
}

impl Route {
    /// Number of link hops.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Sum of per-hop latencies.
    pub fn total_latency(&self) -> SimDuration {
        self.links.iter().map(|l| l.latency).sum()
    }

    /// The narrowest link bandwidth along the path (GB/s); infinite for an
    /// empty (loopback) route.
    pub fn bottleneck_bandwidth(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.bandwidth_gb_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Store-and-forward traversal time for `bytes`: every hop adds its
    /// latency, serialization happens once at the bottleneck (cut-through
    /// pipelining across hops, as real fabrics do for bulk transfers).
    pub fn traverse(&self, bytes: u64) -> SimDuration {
        self.total_latency() + SimDuration::transfer(bytes, self.bottleneck_bandwidth())
    }

    /// The links in traversal order with their orientation: `(entry,
    /// exit)` vertices as the transfer crosses each link. Used by
    /// occupancy models that track each link *direction* separately
    /// (full-duplex fabrics).
    pub fn oriented_links(&self) -> Vec<(Vertex, Vertex)> {
        let mut out = Vec::with_capacity(self.links.len());
        let mut cur = self.from;
        for l in &self.links {
            let next = l.opposite(cur).expect("route links are contiguous");
            out.push((cur, next));
            cur = next;
        }
        out
    }

    /// The oriented `(entry, exit)` pair of the bottleneck (lowest
    /// bandwidth) link, or `None` for a loopback route.
    pub fn bottleneck_oriented(&self) -> Option<(Vertex, Vertex)> {
        let oriented = self.oriented_links();
        self.links
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.bandwidth_gb_s.total_cmp(&b.1.bandwidth_gb_s))
            .map(|(i, _)| oriented[i])
    }

    /// Everything the runtimes' cost models consume, condensed into a
    /// `Copy` value so a route can be computed once and its costs reused
    /// without keeping the link vector alive.
    pub fn costs(&self) -> RouteCosts {
        RouteCosts {
            latency: self.total_latency(),
            bandwidth_gb_s: self.bottleneck_bandwidth(),
            hops: self.links.len() as u32,
            bottleneck: self.bottleneck_oriented(),
        }
    }
}

/// The cost summary of a [`Route`]: exactly the quantities the timing
/// models read (`total_latency`, `bottleneck_bandwidth`,
/// `bottleneck_oriented`, `hop_count`), as a `Copy` value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RouteCosts {
    /// Sum of per-hop latencies ([`Route::total_latency`]).
    pub latency: SimDuration,
    /// Narrowest link bandwidth, GB/s; infinite for loopback
    /// ([`Route::bottleneck_bandwidth`]).
    pub bandwidth_gb_s: f64,
    /// Number of link hops ([`Route::hop_count`]).
    pub hops: u32,
    /// Oriented bottleneck link, `None` for loopback
    /// ([`Route::bottleneck_oriented`]).
    pub bottleneck: Option<(Vertex, Vertex)>,
}

/// [`RouteCosts`] for every ordered pair of link endpoints, dense by vertex
/// index: NUMA domains first, then devices, then switches, each by id.
///
/// Dijkstra in [`NodeTopology::route`] allocates two hash maps, a binary
/// heap and per-edge link clones on every call. The table runs it once per
/// pair, when a topology's costs are first looked up, so every simulated
/// world built over the topology afterwards reads its costs without
/// allocating. [`Links`](crate::Links) owns it and drops it on mutation.
#[derive(Clone)]
pub(crate) struct RouteTable {
    /// Vertices per kind: `[numa, device, switch]`.
    dims: [usize; 3],
    /// Dense by `from * n + to`, `n` being the sum of `dims`.
    costs: Vec<Option<RouteCosts>>,
}

impl RouteTable {
    fn build(topo: &NodeTopology) -> RouteTable {
        let mut dims = [0usize; 3];
        for l in &topo.links {
            for v in [l.a, l.b] {
                let (kind, i) = kind_index(v);
                dims[kind] = dims[kind].max(i + 1);
            }
        }
        let [numa, device, switch] = dims.map(|d| d as u32);
        let vertices: Vec<Vertex> = (0..numa)
            .map(|i| Vertex::Numa(NumaId(i)))
            .chain((0..device).map(|i| Vertex::Device(DeviceId(i))))
            .chain((0..switch).map(|i| Vertex::Switch(SwitchId(i))))
            .collect();
        let costs = vertices
            .iter()
            .flat_map(|&a| vertices.iter().map(move |&b| (a, b)))
            .map(|(a, b)| topo.route(a, b).map(|r| r.costs()))
            .collect();
        RouteTable { dims, costs }
    }

    fn index(&self, v: Vertex) -> Option<usize> {
        let (kind, i) = kind_index(v);
        (i < self.dims[kind]).then(|| self.dims[..kind].iter().sum::<usize>() + i)
    }

    fn get(&self, from: Vertex, to: Vertex) -> Option<RouteCosts> {
        let n: usize = self.dims.iter().sum();
        self.costs[self.index(from)? * n + self.index(to)?]
    }
}

/// A vertex's kind (`0` numa, `1` device, `2` switch) and id index.
fn kind_index(v: Vertex) -> (usize, usize) {
    match v {
        Vertex::Numa(n) => (0, n.index()),
        Vertex::Device(d) => (1, d.index()),
        Vertex::Switch(s) => (2, s.index()),
    }
}

impl NodeTopology {
    /// The costs of [`Self::route`]`(from, to)`, without running Dijkstra:
    /// a loopback pair is answered directly, every other pair from the
    /// route table of [`Self::links`], filled on the first call. Any pair
    /// with an endpoint outside the link graph is `None`, as from `route`.
    // doebench::hot
    pub fn route_costs(&self, from: Vertex, to: Vertex) -> Option<RouteCosts> {
        if from == to {
            return Some(RouteCosts {
                latency: SimDuration::ZERO,
                bandwidth_gb_s: f64::INFINITY,
                hops: 0,
                bottleneck: None,
            });
        }
        self.links
            .routes
            // The fill runs once per topology, not once per lookup.
            // doebench::cold-call
            .get_or_init(|| RouteTable::build(self))
            .get(from, to)
    }

    /// The lowest-latency route between two vertices, or `None` if the pair
    /// is disconnected (never the case for a validated topology).
    pub fn route(&self, from: Vertex, to: Vertex) -> Option<Route> {
        if from == to {
            return Some(Route {
                from,
                to,
                links: Vec::new(),
            });
        }
        // Dijkstra by cumulative latency with hop count as tie-break so that
        // routes are deterministic.
        let mut best: HashMap<Vertex, (SimDuration, usize)> = HashMap::new();
        let mut prev: HashMap<Vertex, Link> = HashMap::new();
        let mut heap = std::collections::BinaryHeap::new();
        let mut seq = 0u64;
        best.insert(from, (SimDuration::ZERO, 0));
        heap.push(std::cmp::Reverse((SimDuration::ZERO, 0usize, seq, from)));

        while let Some(std::cmp::Reverse((dist, hops, _, v))) = heap.pop() {
            if let Some(&(bd, bh)) = best.get(&v) {
                if (dist, hops) > (bd, bh) {
                    continue;
                }
            }
            if v == to {
                break;
            }
            for l in self.links_of(v) {
                let u = l.opposite(v).expect("links_of returned non-touching link");
                let nd = dist + l.latency;
                let nh = hops + 1;
                let better = match best.get(&u) {
                    None => true,
                    Some(&(bd, bh)) => (nd, nh) < (bd, bh),
                };
                if better {
                    best.insert(u, (nd, nh));
                    prev.insert(u, l.clone());
                    seq += 1;
                    heap.push(std::cmp::Reverse((nd, nh, seq, u)));
                }
            }
        }

        if !best.contains_key(&to) {
            return None;
        }
        // Reconstruct.
        let mut links = Vec::new();
        let mut cur = to;
        while cur != from {
            let l = prev.get(&cur)?.clone();
            cur = l.opposite(cur).expect("prev link must touch cur");
            links.push(l);
        }
        links.reverse();
        Some(Route { from, to, links })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NodeBuilder;
    use crate::ids::{DeviceId, NumaId, SocketId};
    use crate::link::LinkKind;
    use proptest::prelude::*;

    /// Two sockets, one GPU each, joined by an inter-socket bus.
    fn dual() -> NodeTopology {
        NodeBuilder::new("dual")
            .socket("A")
            .socket("B")
            .numa(SocketId(0))
            .numa(SocketId(1))
            .cores(NumaId(0), 2, 1)
            .cores(NumaId(1), 2, 1)
            .device("G0", NumaId(0))
            .device("G1", NumaId(1))
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Numa(NumaId(1)),
                LinkKind::XBus,
                SimDuration::from_ns(700.0),
                64.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::NvLink { gen: 2, bricks: 2 },
                SimDuration::from_ns(600.0),
                50.0,
            )
            .link(
                Vertex::Numa(NumaId(1)),
                Vertex::Device(DeviceId(1)),
                LinkKind::NvLink { gen: 2, bricks: 2 },
                SimDuration::from_ns(600.0),
                50.0,
            )
            .build()
            .expect("valid")
    }

    #[test]
    fn loopback_route_is_empty() {
        let t = dual();
        let r = t
            .route(Vertex::Device(DeviceId(0)), Vertex::Device(DeviceId(0)))
            .expect("loopback");
        assert_eq!(r.hop_count(), 0);
        assert_eq!(r.total_latency(), SimDuration::ZERO);
        assert!(r.bottleneck_bandwidth().is_infinite());
    }

    #[test]
    fn cross_socket_device_route_has_three_hops() {
        let t = dual();
        let r = t
            .route(Vertex::Device(DeviceId(0)), Vertex::Device(DeviceId(1)))
            .expect("route exists");
        assert_eq!(r.hop_count(), 3);
        // 600 + 700 + 600 ns
        assert!((r.total_latency().as_ns() - 1900.0).abs() < 1e-6);
        assert_eq!(r.bottleneck_bandwidth(), 50.0);
    }

    #[test]
    fn route_prefers_lower_latency() {
        // Triangle: direct slow link vs two fast hops.
        let t = NodeBuilder::new("tri")
            .socket("S")
            .numa(SocketId(0))
            .cores(NumaId(0), 1, 1)
            .devices("G", NumaId(0), 2)
            .link(
                Vertex::Device(DeviceId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::Pcie { gen: 3, lanes: 16 },
                SimDuration::from_us(5.0),
                10.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::NvLink { gen: 3, bricks: 4 },
                SimDuration::from_us(1.0),
                100.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::NvLink { gen: 3, bricks: 4 },
                SimDuration::from_us(1.0),
                100.0,
            )
            .build()
            .expect("valid");
        let r = t
            .route(Vertex::Device(DeviceId(0)), Vertex::Device(DeviceId(1)))
            .expect("route");
        assert_eq!(r.hop_count(), 2, "should go via the host, not direct PCIe");
        assert!((r.total_latency().as_us() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn traverse_uses_bottleneck_once() {
        let t = dual();
        let r = t
            .route(Vertex::Device(DeviceId(0)), Vertex::Device(DeviceId(1)))
            .expect("route");
        let bytes = 1_000_000_000u64; // 1 GB at 50 GB/s = 20 ms
        let want_us = 1.9 + 20_000.0;
        assert!((r.traverse(bytes).as_us() - want_us).abs() < 1.0);
    }

    #[test]
    fn oriented_links_follow_traversal_direction() {
        let t = dual();
        let r = t
            .route(Vertex::Device(DeviceId(0)), Vertex::Device(DeviceId(1)))
            .expect("route");
        let oriented = r.oriented_links();
        assert_eq!(oriented.len(), 3);
        assert_eq!(oriented[0].0, Vertex::Device(DeviceId(0)));
        assert_eq!(oriented[2].1, Vertex::Device(DeviceId(1)));
        // Consecutive hops chain.
        for w in oriented.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // Reverse route flips every pair.
        let rev = t
            .route(Vertex::Device(DeviceId(1)), Vertex::Device(DeviceId(0)))
            .expect("route");
        let rev_oriented = rev.oriented_links();
        assert_eq!(rev_oriented[0].0, Vertex::Device(DeviceId(1)));
    }

    #[test]
    fn bottleneck_oriented_picks_lowest_bandwidth_hop() {
        let t = dual();
        let r = t
            .route(Vertex::Device(DeviceId(0)), Vertex::Device(DeviceId(1)))
            .expect("route");
        // NVLink hops are 50, X-Bus is 64: bottleneck is an NVLink hop.
        let (a, b) = r.bottleneck_oriented().expect("has links");
        let link = t.direct_link(a, b).expect("link exists");
        assert_eq!(link.bandwidth_gb_s, 50.0);
        // Loopback has no bottleneck.
        let lb = t
            .route(Vertex::Device(DeviceId(0)), Vertex::Device(DeviceId(0)))
            .expect("loopback");
        assert!(lb.bottleneck_oriented().is_none());
    }

    #[test]
    fn costs_summary_matches_route_accessors() {
        let t = dual();
        for &a in &t.vertices() {
            for &b in &t.vertices() {
                let r = t.route(a, b).expect("connected");
                let c = r.costs();
                assert_eq!(c.latency, r.total_latency());
                assert_eq!(c.bandwidth_gb_s, r.bottleneck_bandwidth());
                assert_eq!(c.hops as usize, r.hop_count());
                assert_eq!(c.bottleneck, r.bottleneck_oriented());
            }
        }
    }

    #[test]
    fn route_costs_agree_with_route_and_survive_clone() {
        let t = dual();
        let mut pairs = Vec::new();
        for &a in &t.vertices() {
            for &b in &t.vertices() {
                pairs.push((a, b));
            }
        }
        let stranger = Vertex::Device(DeviceId(9));
        pairs.push((stranger, stranger));
        pairs.push((stranger, Vertex::Numa(NumaId(0))));
        for (a, b) in pairs {
            assert_eq!(t.route_costs(a, b), t.route(a, b).map(|r| r.costs()));
        }
        // A clone made after the fill shares the filled table.
        let c = t.clone();
        assert!(c.links.routes.get().is_some());
        let (a, b) = (Vertex::Device(DeviceId(0)), Vertex::Device(DeviceId(1)));
        assert_eq!(c.route_costs(a, b), t.route_costs(a, b));
    }

    proptest! {
        /// Route latency is symmetric on the dual topology for any vertex pair.
        #[test]
        fn prop_route_symmetry(i in 0usize..4, j in 0usize..4) {
            let t = dual();
            let vs = t.vertices();
            let a = vs[i % vs.len()];
            let b = vs[j % vs.len()];
            let rab = t.route(a, b).expect("connected");
            let rba = t.route(b, a).expect("connected");
            prop_assert_eq!(rab.total_latency(), rba.total_latency());
            prop_assert_eq!(rab.hop_count(), rba.hop_count());
        }

        /// Triangle inequality on total latency.
        #[test]
        fn prop_triangle_inequality(i in 0usize..4, j in 0usize..4, k in 0usize..4) {
            let t = dual();
            let vs = t.vertices();
            let (a, b, c) = (vs[i % vs.len()], vs[j % vs.len()], vs[k % vs.len()]);
            let ab = t.route(a, b).expect("connected").total_latency();
            let bc = t.route(b, c).expect("connected").total_latency();
            let ac = t.route(a, c).expect("connected").total_latency();
            prop_assert!(ac <= ab + bc);
        }
    }
}
