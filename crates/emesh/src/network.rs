//! The assembled mesh network.
//!
//! One `router::Router` per node, five ports each (local + N/E/S/W), wired
//! with one-cycle inter-router channels. Flow control is exact: an output
//! port's credit pool equals the downstream input VC depth, a credit
//! returns when the downstream router pops the corresponding flit (its
//! traversal reports the input port/VC it consumed from).

use crate::topology::{port, Mesh2D, XyRoute};
use desim::Cycle;
use router::flit::PacketId;
use router::inject::FlitInjector;
use router::packet::QueuedPacket;
use router::routing::PortId;
use router::{Router, RouterConfig};

/// Inter-router channel delay, cycles.
const LINK_DELAY: Cycle = 1;

/// A delivered packet (tail ejected at its destination).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MeshDelivered {
    /// Packet id.
    pub id: PacketId,
    /// Destination node.
    pub dst: u32,
    /// Injection cycle.
    pub injected_at: Cycle,
    /// Labelled for measurement.
    pub labelled: bool,
}

/// A flit in flight on an inter-router channel.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    arrive_at: Cycle,
    dst_router: u32,
    in_port: PortId,
    in_vc: u8,
    flit: router::flit::Flit,
}

/// The mesh network.
pub struct MeshNetwork {
    mesh: Mesh2D,
    routers: Vec<Router>,
    injectors: Vec<FlitInjector>,
    /// Flits crossing inter-router channels (1-cycle delay).
    in_flight: Vec<InFlight>,
    /// Ejection-port credits owed next cycle: (router, vc).
    eject_credits: Vec<(u32, u8)>,
    /// Activity of the last `step`: (router traversals, link launches).
    last_activity: (u64, u64),
}

impl MeshNetwork {
    /// Builds the mesh with the given per-VC buffer depth and VC count.
    pub fn new(mesh: Mesh2D, vcs: u8, buf_depth: usize) -> Self {
        let routers = (0..mesh.nodes())
            .map(|id| {
                let mut r = Router::new(
                    RouterConfig {
                        in_ports: port::COUNT,
                        out_ports: port::COUNT,
                        vcs,
                        buf_depth,
                        downstream_depth: buf_depth as u32,
                    },
                    Box::new(XyRoute::new(mesh, id)),
                );
                // Ejection port drains freely.
                r.set_downstream_depth(port::LOCAL, 8);
                r
            })
            .collect();
        Self {
            mesh,
            routers,
            injectors: (0..mesh.nodes())
                .map(|_| FlitInjector::new(port::LOCAL))
                .collect(),
            in_flight: Vec::new(),
            eject_credits: Vec::new(),
            last_activity: (0, 0),
        }
    }

    /// The topology.
    pub fn mesh(&self) -> Mesh2D {
        self.mesh
    }

    /// Queues a packet at a node's NI.
    pub fn enqueue(&mut self, node: u32, packet: QueuedPacket) {
        self.injectors[node as usize].enqueue(packet);
    }

    /// `(router traversals, link launches)` of the most recent cycle — the
    /// inputs of the [`crate::power::MeshPowerMeter`].
    pub fn last_activity(&self) -> (u64, u64) {
        self.last_activity
    }

    /// True when nothing is queued or in flight anywhere.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
            && self.injectors.iter().all(|i| i.is_idle())
            && self.routers.iter().all(|r| r.buffered_flits() == 0)
    }

    /// Advances one cycle; returns this cycle's deliveries.
    pub(crate) fn step(&mut self, now: Cycle) -> Vec<MeshDelivered> {
        // Ejection credits from last cycle.
        for (r, vc) in self.eject_credits.drain(..) {
            self.routers[r as usize].credit(port::LOCAL, vc);
        }
        // Channel arrivals land in downstream input buffers (space is
        // guaranteed by the upstream credit loop).
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].arrive_at <= now {
                let f = self.in_flight.swap_remove(i);
                self.routers[f.dst_router as usize].inject(f.in_port, f.in_vc, f.flit);
            } else {
                i += 1;
            }
        }
        // NI injection.
        for (id, inj) in self.injectors.iter_mut().enumerate() {
            inj.tick(&mut self.routers[id]);
        }
        // Router pipelines + link launches.
        let mut delivered = Vec::new();
        let mut credits: Vec<(u32, PortId, u8)> = Vec::new();
        let mut hops = 0u64;
        let mut links = 0u64;
        for id in 0..self.routers.len() as u32 {
            let traversals = self.routers[id as usize].step(now);
            for t in traversals {
                hops += 1;
                // Popping from a non-local input frees a slot upstream (the
                // local port has no neighbour; every other input port faces
                // the link the flit arrived through).
                let up = self.mesh.neighbour(id, t.in_port);
                debug_assert_eq!(up.is_some(), t.in_port != port::LOCAL);
                if let Some(up) = up {
                    credits.push((up, Mesh2D::reverse(t.in_port), t.in_vc));
                }
                if t.out_port == port::LOCAL {
                    self.eject_credits.push((id, t.out_vc));
                    if t.flit.kind.is_tail() {
                        delivered.push(MeshDelivered {
                            id: t.flit.packet,
                            dst: t.flit.dst.0,
                            injected_at: t.flit.injected_at,
                            labelled: t.flit.labelled,
                        });
                    }
                } else {
                    // XY routing never routes off the mesh edge.
                    let next = self.mesh.neighbour(id, t.out_port);
                    debug_assert!(next.is_some(), "XY route left the mesh");
                    let Some(next) = next else { continue };
                    links += 1;
                    self.in_flight.push(InFlight {
                        arrive_at: now + LINK_DELAY,
                        dst_router: next,
                        in_port: Mesh2D::reverse(t.out_port),
                        in_vc: t.out_vc,
                        flit: t.flit,
                    });
                }
            }
        }
        for (r, p, vc) in credits {
            self.routers[r as usize].credit(p, vc);
        }
        self.last_activity = (hops, links);
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use router::flit::NodeId;

    fn pkt(id: u64, dst: u32, now: Cycle) -> QueuedPacket {
        QueuedPacket {
            id: PacketId(id),
            dst: NodeId(dst),
            flits: 4,
            injected_at: now,
            labelled: true,
        }
    }

    fn drive(net: &mut MeshNetwork, cycles: Cycle) -> Vec<(Cycle, MeshDelivered)> {
        let mut out = Vec::new();
        for now in 0..cycles {
            for d in net.step(now) {
                out.push((now, d));
            }
        }
        out
    }

    #[test]
    fn single_packet_crosses_the_mesh() {
        let mut net = MeshNetwork::new(Mesh2D::new(4, 4), 2, 4);
        net.enqueue(0, pkt(1, 15, 0));
        let log = drive(&mut net, 200);
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].1.dst, 15);
        // 6 hops minimum; each hop costs pipeline + link cycles.
        assert!(
            log[0].0 >= 6,
            "delivered unrealistically fast at {}",
            log[0].0
        );
        assert!(net.is_idle());
    }

    #[test]
    fn local_delivery_never_leaves_the_router() {
        let mut net = MeshNetwork::new(Mesh2D::new(2, 2), 2, 4);
        net.enqueue(3, pkt(1, 3, 0));
        let log = drive(&mut net, 50);
        assert_eq!(log.len(), 1);
        // Other routers untouched.
        assert_eq!(net.routers[0].stats().traversed, 0);
    }

    #[test]
    fn all_pairs_eventually_deliver() {
        let mesh = Mesh2D::new(3, 3);
        let mut net = MeshNetwork::new(mesh, 2, 4);
        let mut id = 0;
        for src in 0..9 {
            for dst in 0..9 {
                if src != dst {
                    net.enqueue(src, pkt(id, dst, 0));
                    id += 1;
                }
            }
        }
        let log = drive(&mut net, 5000);
        assert_eq!(log.len(), 72, "all 72 packets must deliver");
        assert!(net.is_idle());
    }

    #[test]
    fn heavy_single_destination_congests_but_delivers() {
        // Many-to-one: classic congestion; credits must prevent loss.
        let mesh = Mesh2D::new(4, 4);
        let mut net = MeshNetwork::new(mesh, 2, 2);
        let mut id = 0;
        for round in 0..4 {
            for src in 1..16 {
                net.enqueue(src, pkt(id, 0, round));
                id += 1;
            }
        }
        let log = drive(&mut net, 20_000);
        assert_eq!(log.len(), 60);
        assert!(log.iter().all(|(_, d)| d.dst == 0));
    }

    #[test]
    fn flit_order_preserved_per_packet() {
        let mut net = MeshNetwork::new(Mesh2D::new(4, 1), 2, 2);
        for i in 0..8 {
            net.enqueue(0, pkt(i, 3, 0));
        }
        let log = drive(&mut net, 2000);
        assert_eq!(log.len(), 8);
    }

    #[test]
    fn deeper_buffers_do_not_reduce_throughput() {
        let run = |depth: usize| {
            let mut net = MeshNetwork::new(Mesh2D::new(4, 4), 2, depth);
            let mut id = 0;
            for round in 0..8 {
                for src in 0..16u32 {
                    net.enqueue(src, pkt(id, (src + 5) % 16, round));
                    id += 1;
                }
            }
            let (mut last, mut delivered) = (0, 0);
            for now in 0..50_000u64 {
                let d = net.step(now).len();
                if d > 0 {
                    last = now;
                    delivered += d;
                }
                if net.is_idle() {
                    break;
                }
            }
            assert_eq!(delivered, 128);
            last
        };
        let shallow = run(1);
        let deep = run(8);
        assert!(deep <= shallow, "deep {deep} vs shallow {shallow}");
    }
}
