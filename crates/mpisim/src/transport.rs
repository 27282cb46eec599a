//! Transport path resolution: where two ranks' buffers live determines the
//! latency/bandwidth pair a message experiences.

use doe_simtime::SimDuration;
use doe_topo::{DeviceId, NodeTopology, NumaId, Vertex};

use crate::config::{DevicePath, MpiConfig};

/// The resolved cost profile of a path between two endpoints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathCosts {
    /// One-way zero-byte traversal latency (excludes send/recv software
    /// overheads, which the protocol layer adds).
    pub latency: SimDuration,
    /// Serialization bandwidth (GB/s).
    pub bandwidth: f64,
}

/// Where a rank's message buffer lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferLoc {
    /// Host memory on the rank's NUMA domain.
    Host,
    /// Device (GPU) memory.
    Device(DeviceId),
}

/// Resolve the path between two endpoints.
///
/// * host↔host, same NUMA: the shm segment path;
/// * host↔host, cross-NUMA/socket: shm plus the inter-domain route;
/// * device↔device via [`DevicePath::Rma`]: the fabric route plus RMA
///   software overhead;
/// * device↔device via [`DevicePath::Staged`]: D2H + host hop + H2D, each
///   stage paying software overhead, with a pipeline efficiency on the
///   bottleneck bandwidth;
/// * host↔device (either direction): one staging boundary.
///
/// Route costs come from the topology's own table
/// ([`NodeTopology::route_costs`]), so resolution runs no Dijkstra once
/// the topology has been looked up before.
pub fn resolve_path(
    topo: &NodeTopology,
    cfg: &MpiConfig,
    from_numa: NumaId,
    from_buf: BufferLoc,
    to_numa: NumaId,
    to_buf: BufferLoc,
) -> Option<PathCosts> {
    fn host_path(topo: &NodeTopology, cfg: &MpiConfig, a: NumaId, b: NumaId) -> Option<PathCosts> {
        if a == b {
            Some(PathCosts {
                latency: cfg.shm_latency,
                bandwidth: cfg.shm_bandwidth,
            })
        } else {
            let route = topo.route_costs(Vertex::Numa(a), Vertex::Numa(b))?;
            Some(PathCosts {
                latency: cfg.shm_latency + route.latency,
                bandwidth: cfg.shm_bandwidth.min(route.bandwidth_gb_s),
            })
        }
    }

    match (from_buf, to_buf) {
        (BufferLoc::Host, BufferLoc::Host) => host_path(topo, cfg, from_numa, to_numa),
        (BufferLoc::Device(da), BufferLoc::Device(db)) => match cfg.device_path {
            DevicePath::Rma { extra_overhead } => {
                if da == db {
                    // Same device: HBM-internal move; treat as fabric-free.
                    return Some(PathCosts {
                        latency: extra_overhead,
                        bandwidth: cfg.shm_bandwidth.max(100.0),
                    });
                }
                let route = topo.route_costs(Vertex::Device(da), Vertex::Device(db))?;
                // Small-message RMA latency is dominated by the doorbell /
                // IPC software path, not the fabric: the paper measures
                // identical device MPI latency across all four Infinity
                // Fabric classes (Table 5). The route still bounds
                // bandwidth.
                Some(PathCosts {
                    latency: extra_overhead,
                    bandwidth: route.bandwidth_gb_s,
                })
            }
            DevicePath::Staged {
                per_stage_overhead,
                pipeline_efficiency,
            } => {
                let d2h = topo.route_costs(Vertex::Device(da), Vertex::Numa(from_numa))?;
                let host = host_path(topo, cfg, from_numa, to_numa)?;
                let h2d = topo.route_costs(Vertex::Numa(to_numa), Vertex::Device(db))?;
                let latency = per_stage_overhead * 3 + d2h.latency + host.latency + h2d.latency;
                let bandwidth = d2h
                    .bandwidth_gb_s
                    .min(host.bandwidth)
                    .min(h2d.bandwidth_gb_s)
                    * pipeline_efficiency;
                Some(PathCosts { latency, bandwidth })
            }
        },
        (BufferLoc::Device(d), BufferLoc::Host) | (BufferLoc::Host, BufferLoc::Device(d)) => {
            let (dev_numa, host_numa, dev) = match from_buf {
                BufferLoc::Device(_) => (from_numa, to_numa, d),
                BufferLoc::Host => (to_numa, from_numa, d),
            };
            let dev_route = topo.route_costs(Vertex::Device(dev), Vertex::Numa(dev_numa))?;
            let host = if dev_numa == host_numa {
                PathCosts {
                    latency: SimDuration::ZERO,
                    bandwidth: f64::INFINITY,
                }
            } else {
                host_path(topo, cfg, dev_numa, host_numa)?
            };
            let (stage_overhead, eff) = match cfg.device_path {
                DevicePath::Rma { extra_overhead } => (extra_overhead, 1.0),
                DevicePath::Staged {
                    per_stage_overhead,
                    pipeline_efficiency,
                } => (per_stage_overhead * 2, pipeline_efficiency),
            };
            Some(PathCosts {
                latency: stage_overhead + dev_route.latency + host.latency,
                bandwidth: dev_route.bandwidth_gb_s.min(host.bandwidth) * eff,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doe_topo::{LinkKind, NodeBuilder, SocketId};

    fn topo() -> NodeTopology {
        NodeBuilder::new("t")
            .socket("A")
            .socket("B")
            .numa(SocketId(0))
            .numa(SocketId(1))
            .cores(NumaId(0), 4, 1)
            .cores(NumaId(1), 4, 1)
            .devices("G", NumaId(0), 2)
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Numa(NumaId(1)),
                LinkKind::Upi,
                SimDuration::from_ns(200.0),
                40.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(0)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .link(
                Vertex::Numa(NumaId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::Pcie { gen: 4, lanes: 16 },
                SimDuration::from_ns(500.0),
                25.0,
            )
            .link(
                Vertex::Device(DeviceId(0)),
                Vertex::Device(DeviceId(1)),
                LinkKind::NvLink { gen: 3, bricks: 4 },
                SimDuration::from_ns(700.0),
                100.0,
            )
            .build()
            .expect("valid")
    }

    fn cfg() -> MpiConfig {
        MpiConfig::default_host()
    }

    #[test]
    fn same_numa_uses_shm_costs() {
        let t = topo();
        let c = cfg();
        let p = resolve_path(
            &t,
            &c,
            NumaId(0),
            BufferLoc::Host,
            NumaId(0),
            BufferLoc::Host,
        )
        .expect("path");
        assert_eq!(p.latency, c.shm_latency);
        assert_eq!(p.bandwidth, c.shm_bandwidth);
    }

    #[test]
    fn cross_socket_adds_route_latency() {
        let t = topo();
        let c = cfg();
        let p = resolve_path(
            &t,
            &c,
            NumaId(0),
            BufferLoc::Host,
            NumaId(1),
            BufferLoc::Host,
        )
        .expect("path");
        assert_eq!(p.latency, c.shm_latency + SimDuration::from_ns(200.0));
    }

    #[test]
    fn device_rma_uses_fabric_route() {
        let t = topo();
        let mut c = cfg();
        c.device_path = DevicePath::Rma {
            extra_overhead: SimDuration::from_ns(100.0),
        };
        let p = resolve_path(
            &t,
            &c,
            NumaId(0),
            BufferLoc::Device(DeviceId(0)),
            NumaId(0),
            BufferLoc::Device(DeviceId(1)),
        )
        .expect("path");
        // Latency is software-dominated (route-independent); bandwidth is
        // bounded by the NVLink route.
        assert_eq!(p.latency, SimDuration::from_ns(100.0));
        assert_eq!(p.bandwidth, 100.0);
    }

    #[test]
    fn device_staging_is_much_slower_than_rma() {
        let t = topo();
        let mut rma = cfg();
        rma.device_path = DevicePath::Rma {
            extra_overhead: SimDuration::from_ns(100.0),
        };
        let staged = cfg(); // default is Staged with 4 us per stage
        let p_rma = resolve_path(
            &t,
            &rma,
            NumaId(0),
            BufferLoc::Device(DeviceId(0)),
            NumaId(0),
            BufferLoc::Device(DeviceId(1)),
        )
        .expect("path");
        let p_staged = resolve_path(
            &t,
            &staged,
            NumaId(0),
            BufferLoc::Device(DeviceId(0)),
            NumaId(0),
            BufferLoc::Device(DeviceId(1)),
        )
        .expect("path");
        assert!(p_staged.latency.as_us() > 10.0 * p_rma.latency.as_us());
    }

    #[test]
    fn mixed_host_device_path_exists_both_directions() {
        let t = topo();
        let c = cfg();
        let hd = resolve_path(
            &t,
            &c,
            NumaId(0),
            BufferLoc::Host,
            NumaId(0),
            BufferLoc::Device(DeviceId(1)),
        )
        .expect("path");
        let dh = resolve_path(
            &t,
            &c,
            NumaId(0),
            BufferLoc::Device(DeviceId(1)),
            NumaId(0),
            BufferLoc::Host,
        )
        .expect("path");
        assert_eq!(hd, dh);
        assert!(hd.latency > SimDuration::ZERO);
    }
}
