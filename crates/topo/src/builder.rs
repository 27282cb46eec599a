//! A fluent builder for [`NodeTopology`].
//!
//! Machine definitions in `doe-machines` read like the node diagrams they
//! encode: add sockets, NUMA domains, batches of cores, devices, then wire
//! links. [`NodeBuilder::build`] validates the result.

use doe_simtime::SimDuration;

use crate::ids::{CoreId, DeviceId, NumaId, SocketId, SwitchId, Vertex};
use crate::link::{Link, LinkKind};
use crate::node::{Core, Device, NodeTopology, NumaDomain, Socket, TopologyError};

/// Fluent constructor for [`NodeTopology`].
#[derive(Debug, Default)]
pub struct NodeBuilder {
    topo: NodeTopology,
    next_core: u32,
    next_switch: u32,
}

impl NodeBuilder {
    /// Start building a node with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        NodeBuilder {
            topo: NodeTopology {
                name: name.into(),
                ..Default::default()
            },
            next_core: 0,
            next_switch: 0,
        }
    }

    /// Add a socket; ids are assigned in call order starting from 0.
    pub fn socket(mut self, model: impl Into<String>) -> Self {
        let id = SocketId(self.topo.sockets.len() as u32);
        self.topo.sockets.push(Socket {
            id,
            model: model.into(),
        });
        self
    }

    /// Add a NUMA domain on `socket`; ids are assigned in call order.
    pub fn numa(mut self, socket: SocketId) -> Self {
        let id = NumaId(self.topo.numa_domains.len() as u32);
        self.topo.numa_domains.push(NumaDomain { id, socket });
        self
    }

    /// Add `count` cores with `smt` threads each to `numa`. Core ids are
    /// node-wide and sequential.
    pub fn cores(mut self, numa: NumaId, count: u32, smt: u8) -> Self {
        for _ in 0..count {
            self.topo.cores.push(Core {
                id: CoreId(self.next_core),
                numa,
                smt,
            });
            self.next_core += 1;
        }
        self
    }

    /// Add a device attached to `local_numa`; ids are assigned in call order.
    pub fn device(mut self, model: impl Into<String>, local_numa: NumaId) -> Self {
        let id = DeviceId(self.topo.devices.len() as u32);
        self.topo.devices.push(Device {
            id,
            model: model.into(),
            local_numa,
        });
        self
    }

    /// Add `n` identical devices attached to `local_numa`.
    pub fn devices(mut self, model: &str, local_numa: NumaId, n: u32) -> Self {
        for _ in 0..n {
            self = self.device(model, local_numa);
        }
        self
    }

    /// Add an internal switch and return (builder, its id).
    pub fn switch(mut self) -> (Self, SwitchId) {
        let id = SwitchId(self.next_switch);
        self.next_switch += 1;
        self.topo.switches.push(id);
        (self, id)
    }

    /// Add a bidirectional link.
    pub fn link(
        mut self,
        a: Vertex,
        b: Vertex,
        kind: LinkKind,
        latency: SimDuration,
        bandwidth_gb_s: f64,
    ) -> Self {
        self.topo
            .links
            .push(Link::new(a, b, kind, latency, bandwidth_gb_s));
        self
    }

    /// Validate and return the topology.
    pub fn build(self) -> Result<NodeTopology, TopologyError> {
        self.topo.validate()?;
        Ok(self.topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let t = NodeBuilder::new("two-socket")
            .socket("CPU A")
            .socket("CPU B")
            .numa(SocketId(0))
            .numa(SocketId(1))
            .cores(NumaId(0), 2, 1)
            .cores(NumaId(1), 2, 1)
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Numa(NumaId(1)),
                LinkKind::Upi,
                SimDuration::from_ns(120.0),
                40.0,
            )
            .build()
            .expect("valid");
        assert_eq!(t.sockets.len(), 2);
        assert_eq!(t.numa_domains[1].socket, SocketId(1));
        assert_eq!(t.cores[3].id, CoreId(3));
        assert_eq!(t.cores[3].numa, NumaId(1));
    }

    #[test]
    fn devices_bulk_add() {
        let t = NodeBuilder::new("quad-gpu")
            .socket("CPU")
            .numa(SocketId(0))
            .cores(NumaId(0), 1, 1)
            .devices("GPU", NumaId(0), 4)
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(400.0),
                25.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(400.0),
                25.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(2)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(400.0),
                25.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(3)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(400.0),
                25.0,
            )
            .build()
            .expect("valid");
        assert_eq!(t.device_count(), 4);
        assert_eq!(t.devices[3].id, DeviceId(3));
    }

    #[test]
    fn build_rejects_invalid() {
        // Device with no link to anything.
        let r = NodeBuilder::new("bad")
            .socket("CPU")
            .numa(SocketId(0))
            .cores(NumaId(0), 1, 1)
            .device("GPU", NumaId(0))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn switches_get_ids() {
        let (b, s0) = NodeBuilder::new("sw").switch();
        let (b, s1) = b.switch();
        assert_eq!(s0, SwitchId(0));
        assert_eq!(s1, SwitchId(1));
        assert_eq!(b.topo.switches.len(), 2);
    }
}
