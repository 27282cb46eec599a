//! The route-cost table against Dijkstra on the 13 catalog topologies,
//! its invalidation on every way of changing a link list, and the
//! digest-facing `Debug` text of the list.

use std::sync::Arc;

use doe_simtime::SimDuration;
use doe_topo::{DeviceId, Link, LinkKind, NodeTopology, NumaId, SwitchId, Vertex};

/// A vertex that appears in no catalog link.
const STRANGER: Vertex = Vertex::Switch(SwitchId(99));

fn catalog_topologies() -> Vec<Arc<NodeTopology>> {
    doe_machines::catalog()
        .iter()
        .map(|m| Arc::clone(&m.topo))
        .collect()
}

/// Every ordered pair of `t`'s numa, device and switch vertices plus
/// [`STRANGER`], `a == b` included.
fn pairs(t: &NodeTopology) -> Vec<(Vertex, Vertex)> {
    let mut vs = t.vertices();
    vs.push(STRANGER);
    vs.iter()
        .flat_map(|&a| vs.iter().map(move |&b| (a, b)))
        .collect()
}

fn assert_table_matches_route(t: &NodeTopology) {
    for (a, b) in pairs(t) {
        assert_eq!(
            t.route_costs(a, b),
            t.route(a, b).map(|r| r.costs()),
            "{}: {a} -> {b}",
            t.name
        );
    }
}

#[test]
fn route_costs_equal_route_on_every_catalog_pair() {
    for t in catalog_topologies() {
        assert_table_matches_route(&t);
        assert!(t.route_costs(STRANGER, STRANGER).is_some());
        assert!(t.route_costs(STRANGER, Vertex::Numa(NumaId(0))).is_none());
    }
}

/// The first pair of distinct vertices with a route, and a parallel link
/// that joins them in one hop at a tenth of the route's latency.
fn shortcut(t: &NodeTopology) -> Option<(Vertex, Vertex, Link)> {
    let (a, b, latency) = pairs(t).into_iter().find_map(|(a, b)| {
        let r = t.route(a, b)?;
        (a != b).then(|| (a, b, r.total_latency()))
    })?;
    let link = Link::new(
        a,
        b,
        LinkKind::NvLink { gen: 3, bricks: 1 },
        SimDuration::from_ns(latency.as_ns() / 10.0),
        1.0,
    );
    Some((a, b, link))
}

#[test]
fn every_mutator_invalidates_the_table_on_originals_and_clones() {
    let mut exercised = 0;
    for t in catalog_topologies() {
        let Some((a, b, link)) = shortcut(&t) else {
            continue;
        };
        exercised += 1;
        let before = t.route_costs(a, b);

        type Mutator = fn(&mut NodeTopology, &Link);
        let mutators: [(&str, Mutator); 2] = [
            ("push", |t, l| t.links.push(l.clone())),
            ("as_mut_vec", |t, l| {
                t.links.as_mut_vec().insert(0, l.clone())
            }),
        ];
        for (name, mutate) in mutators {
            // On a clone of the warmed catalog topology, whose table it
            // shares at first.
            let mut copy = (*t).clone();
            assert_eq!(copy.route_costs(a, b), before);
            mutate(&mut copy, &link);
            let after = copy.route_costs(a, b);
            assert_ne!(after, before, "{}: {name} left the stale entry", t.name);
            assert_table_matches_route(&copy);
            assert_eq!(t.route_costs(a, b), before, "the source table is untouched");

            // On a topology warmed after it was built, mutated in place.
            let mut own = (*t).clone();
            own.links.as_mut_vec();
            assert_eq!(own.route_costs(a, b), before);
            mutate(&mut own, &link);
            assert_eq!(own.route_costs(a, b), after, "{}: {name}", t.name);
            assert_table_matches_route(&own);
        }

        // An in-place edit of an existing link invalidates too.
        let mut slow = (*t).clone();
        for l in slow.links.as_mut_vec() {
            l.latency += SimDuration::from_us(1.0);
        }
        assert_ne!(slow.route_costs(a, b), before);
        assert_table_matches_route(&slow);
    }
    assert!(exercised >= 8, "every GPU machine has a routable pair");
}

#[test]
fn links_debug_text_is_the_plain_vec_text() {
    for t in catalog_topologies() {
        // Warm the table first: it must not show up in the text.
        t.route_costs(Vertex::Numa(NumaId(0)), Vertex::Device(DeviceId(0)));
        let plain: Vec<Link> = t.links.to_vec();
        assert_eq!(format!("{:?}", t.links), format!("{plain:?}"), "{}", t.name);
        assert_eq!(
            format!("{:#?}", t.links),
            format!("{plain:#?}"),
            "{}",
            t.name
        );
    }
}
