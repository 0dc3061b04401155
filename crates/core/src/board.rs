//! One E-RAPID board: the IBI router, node network interfaces, optical
//! receiver injectors, and per-destination transmitter queues.
//!
//! Port layout of the board router (D nodes, W wavelengths, B boards):
//!
//! ```text
//! inputs:  [0, D)       node NIs
//!          [D, D+W)     optical receivers (one per wavelength)
//! outputs: [0, D)       node ejection ports
//!          [D, D+B)     transmitter queues (one per destination board)
//! ```
//!
//! Credit plumbing: node-ejection ports behave as sinks (credits return one
//! cycle after traversal); TX ports' credits return when the packet departs
//! optically — every flit of a packet rides one output VC, so the departing
//! packet returns exactly `flits` credits to that VC.
//!
//! `Board::step_into` is the per-cycle hot path of the whole simulator —
//! dominated by `Router::step_into`, whose VA/SA arbitration runs on
//! packed `u64` bitset words over requester ids `in_port · V + in_vc`
//! (DESIGN.md §16). The board's `D + B` output ports and `D + W` input
//! ports set those bitset widths. Its `(D + W) · V` input-VC FIFOs are
//! rings in one flit slab, so a board is built from a fixed number of
//! allocations whatever `V` and the buffer depth are, and the B TX queues
//! and occupancy counters allocate nothing until traffic arrives
//! (`tests/alloc_shape.rs`).
//!
//! Only *ready* injectors are ticked: one with nothing queued, or whose
//! last tick was blocked by full input VCs, sleeps until an enqueue or a
//! flit leaving its port can change the outcome (DESIGN.md §16), so a
//! saturated cycle costs what the flits that moved cost, not `D + W`.

use crate::config::SystemConfig;
use crate::txqueue::{ReadyPacket, TransmitQueue, TX_QUEUE_FLITS};
use desim::Cycle;
use netstats::occupancy::OccupancyIntegral;
use router::flit::NodeId;
use router::inject::FlitInjector;
use router::packet::QueuedPacket;
use router::routing::{PortId, TableRoute};
use router::{words, Router, RouterConfig, BUF_DEPTH, PACKET_FLITS, VCS};

/// A packet delivered to its destination node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivered {
    /// Packet id.
    pub id: router::flit::PacketId,
    /// Destination node (global id).
    pub dst: u32,
    /// Injection cycle at the source NI.
    pub injected_at: Cycle,
    /// Labelled for measurement.
    pub labelled: bool,
}

/// One board.
pub struct Board {
    id: u16,
    d: u16,
    router: Router,
    /// One injector per router input port: `[0, D)` node NIs, `[D, D + W)`
    /// optical receivers.
    injectors: Vec<FlitInjector>,
    /// Injectors worth ticking, one bit per input port: bit `p` set ⟹
    /// injector `p` is non-idle; a non-idle injector outside the set is
    /// *asleep* — its last tick was blocked and no flit has left its port
    /// since.
    inj_ready: Vec<u64>,
    /// One TX queue per destination board (`tx[self]` unused).
    tx: Vec<TransmitQueue>,
    /// `Buffer_util` counters, one per destination board — event-driven
    /// flit-cycle integrals, updated on enqueue/dequeue instead of
    /// re-sampled every cycle (bit-identical; see `OccupancyIntegral`).
    buffer_util: Vec<OccupancyIntegral>,
    /// Packets inside the electrical domain (NI backlogs, mid-injection,
    /// or with flits still in the router). Zero means stepping the board
    /// is a provable no-op, so the system skips it entirely.
    inflight: u32,
    /// Destinations whose TX queue holds at least one *ready* packet,
    /// ascending — the active set the optical transmit stage walks in the
    /// same order the full `0..B` scan used to.
    tx_ready: Vec<u16>,
    /// Node-sink credits owed back next cycle: (port, vc).
    node_credits: Vec<(PortId, u8)>,
    /// Reusable per-cycle traversal buffer (cleared each step, never
    /// reallocated in steady state).
    traversal_scratch: Vec<router::Traversal>,
}

impl Board {
    /// Builds board `id` of the system.
    pub fn new(cfg: &SystemConfig, id: u16) -> Self {
        let d = cfg.nodes_per_board;
        let w = cfg.wavelengths();
        let b = cfg.boards;
        let table: Vec<PortId> = (0..cfg.nodes())
            .map(|n| {
                let nb = cfg.board_of(n);
                if nb == id {
                    PortId(cfg.local_of(n))
                } else {
                    PortId(d + nb)
                }
            })
            .collect();
        let mut router = Router::new(
            RouterConfig {
                in_ports: d + w,
                out_ports: d + b,
                vcs: VCS,
                buf_depth: BUF_DEPTH,
                downstream_depth: 1,
            },
            Box::new(TableRoute::new(table)),
        );
        // Node sinks: shallow per-VC buffers, credits return next cycle.
        for p in 0..d {
            router.set_downstream_depth(PortId(p), 8);
        }
        // TX ports: the queue capacity split across output VCs so the
        // per-VC credit pools can never oversubscribe the queue.
        for p in d..d + b {
            router.set_downstream_depth(PortId(p), TX_QUEUE_FLITS / VCS as u32);
        }
        Self {
            id,
            d,
            router,
            injectors: (0..d + w).map(|p| FlitInjector::new(PortId(p))).collect(),
            inj_ready: vec![0; words::words_for((d + w) as usize)],
            tx: (0..b).map(|_| TransmitQueue::new(TX_QUEUE_FLITS)).collect(),
            buffer_util: (0..b)
                .map(|_| OccupancyIntegral::new(cfg.schedule.window, TX_QUEUE_FLITS))
                .collect(),
            inflight: 0,
            tx_ready: Vec::new(),
            node_credits: Vec::new(),
            traversal_scratch: Vec::new(),
        }
    }

    /// Board id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// The IBI router (for statistics).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Drains the router's buffered-flit high-water mark (per-window
    /// congestion gauge for the telemetry layer).
    pub fn take_router_peak(&mut self) -> u64 {
        self.router.take_buffered_peak()
    }

    /// Queues a packet at input port `port`'s injector. Only the enqueue
    /// that ends idleness readies it: behind a blocked packet, a longer
    /// backlog changes nothing about the next tick.
    fn enqueue(&mut self, port: usize, packet: QueuedPacket) {
        self.inflight += 1;
        if self.injectors[port].is_idle() {
            words::set(&mut self.inj_ready, port);
        }
        self.injectors[port].enqueue(packet);
    }

    /// Queues a freshly generated packet at a node NI.
    pub fn enqueue_node_packet(&mut self, local_node: u16, packet: QueuedPacket) {
        self.enqueue(local_node as usize, packet);
    }

    /// Queues an optically arrived packet at the receiver for `wavelength`
    /// for IBI injection toward the destination node.
    pub fn enqueue_rx_packet(&mut self, wavelength: u16, pkt: ReadyPacket) {
        let packet = QueuedPacket {
            id: pkt.id,
            dst: NodeId(pkt.dst),
            flits: pkt.flits,
            injected_at: pkt.injected_at,
            labelled: pkt.labelled,
        };
        self.enqueue((self.d + wavelength) as usize, packet);
    }

    /// Injectors with packets queued that are not being ticked: blocked on
    /// full input VCs, waiting for a flit to leave their port.
    pub fn sleeping_injectors(&self) -> usize {
        let pending = self.injectors.iter().filter(|i| !i.is_idle()).count();
        pending - words::count(&self.inj_ready) as usize
    }

    /// The TX queue toward destination board `dest`.
    pub fn tx_queue(&self, dest: u16) -> &TransmitQueue {
        &self.tx[dest as usize]
    }

    /// Pops the next ready packet toward `dest`, returning its router
    /// credits (one per flit, to the VC its flits occupied).
    pub fn tx_depart(&mut self, now: Cycle, dest: u16) -> Option<ReadyPacket> {
        let pkt = self.tx[dest as usize].depart()?;
        self.buffer_util[dest as usize].dequeue(now, pkt.flits as u32);
        if self.tx[dest as usize].ready_len() == 0 {
            if let Ok(i) = self.tx_ready.binary_search(&dest) {
                self.tx_ready.remove(i);
            }
        }
        self.router
            .credit_n(PortId(self.d + dest), pkt.vc, pkt.flits as u32);
        Some(pkt)
    }

    /// Destinations with at least one ready packet, ascending.
    pub fn ready_dests(&self) -> &[u16] {
        &self.tx_ready
    }

    /// Previous-window `Buffer_util` toward `dest`.
    pub fn buffer_util(&self, dest: u16) -> f64 {
        self.buffer_util[dest as usize].previous()
    }

    /// Rolls the board's `Buffer_util` windows at the boundary `now`.
    pub fn roll_windows(&mut self, now: Cycle) {
        for u in &mut self.buffer_util {
            u.roll(now);
        }
    }

    /// Coarse heap-footprint estimate in bytes: the router plus the
    /// per-destination TX/occupancy state (analytic capacity ×
    /// element-size sums — see [`router::Router::approx_memory_bytes`]).
    pub fn approx_memory_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.router.approx_memory_bytes()
            + std::mem::size_of_val(self.injectors.as_slice())
            + std::mem::size_of_val(self.inj_ready.as_slice())
            + std::mem::size_of_val(self.tx.as_slice())
            + std::mem::size_of_val(self.buffer_util.as_slice())
            + self.tx_ready.capacity() * size_of::<u16>()
    }

    /// Serializes the full mutable board state: router, injectors, TX
    /// queues, occupancy integrals, active sets and pending credits.
    /// Geometry (port counts, capacities, route table) is config-derived.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        w.tag(b"BRDS");
        self.router.save_state(w);
        let (node_inj, rx_inj) = self.injectors.split_at(self.d as usize);
        w.usize(node_inj.len());
        for inj in node_inj {
            inj.save_state(w);
        }
        w.usize(rx_inj.len());
        for inj in rx_inj {
            inj.save_state(w);
        }
        w.usize(self.tx.len());
        for q in &self.tx {
            q.save_state(w);
        }
        w.usize(self.buffer_util.len());
        for u in &self.buffer_util {
            u.save(w);
        }
        w.u32(self.inflight);
        self.tx_ready.save(w);
        w.usize(self.node_credits.len());
        for (port, vc) in &self.node_credits {
            w.u16(port.0);
            w.u8(*vc);
        }
    }

    /// Overlays checkpointed board state onto a freshly built board with
    /// identical geometry. The ready set is not persisted: every non-idle
    /// injector restarts ready, and one that was asleep spends a single
    /// state-free blocked tick going back to sleep.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::Snap;
        r.tag(b"BRDS")?;
        self.router.load_state(r)?;
        let (node_inj, rx_inj) = self.injectors.split_at_mut(self.d as usize);
        r.len_eq(node_inj.len(), "board node injectors")?;
        for inj in node_inj {
            inj.load_state(r)?;
        }
        r.len_eq(rx_inj.len(), "board RX injectors")?;
        for inj in rx_inj {
            inj.load_state(r)?;
        }
        self.inj_ready.iter_mut().for_each(|w| *w = 0);
        for (p, inj) in self.injectors.iter().enumerate() {
            if !inj.is_idle() {
                words::set(&mut self.inj_ready, p);
            }
        }
        r.len_eq(self.tx.len(), "board TX queues")?;
        for q in &mut self.tx {
            q.load_state(r)?;
        }
        r.len_eq(self.buffer_util.len(), "board occupancy integrals")?;
        for u in &mut self.buffer_util {
            *u = OccupancyIntegral::load(r)?;
        }
        self.inflight = r.u32()?;
        self.tx_ready = Snap::load(r)?;
        let n = r.len_at_most(1 << 20, "board pending node credits")?;
        let mut credits = Vec::with_capacity(n);
        for _ in 0..n {
            let port = PortId(r.u16()?);
            let vc = r.u8()?;
            credits.push((port, vc));
        }
        self.node_credits = credits;
        Ok(())
    }

    /// Whether the board is completely idle (no queued or in-flight flits).
    pub fn is_idle(&self) -> bool {
        self.router.buffered_flits() == 0
            && self.injectors.iter().all(|i| i.is_idle())
            && self
                .tx
                .iter()
                .all(|q| q.ready_len() == 0 && q.flits_held() == 0)
    }

    /// Advances the board one cycle, allocating a fresh delivery vector.
    ///
    /// Convenience wrapper over [`Board::step_into`] for tests and one-off
    /// drivers; the simulation hot loop passes a reusable buffer instead.
    pub fn step(&mut self, now: Cycle) -> Vec<Delivered> {
        let mut delivered = Vec::new();
        self.step_into(now, &mut delivered);
        delivered
    }

    /// Advances the board one cycle: ready injectors feed the router
    /// (ascending; one that drains or makes no progress leaves the ready
    /// set), the router steps, injectors of ports a flit left are readied
    /// for the next cycle, and traversals land in node sinks (appended to
    /// `delivered` — which is *not* cleared, the caller owns it) or TX
    /// queues, which maintain `Buffer_util` incrementally.
    ///
    /// The traversal list is accumulated into a persistent scratch buffer,
    /// so a steady-state cycle performs no heap allocation.
    pub fn step_into(&mut self, now: Cycle, delivered: &mut Vec<Delivered>) {
        if !self.node_credits.is_empty() {
            for (port, vc) in self.node_credits.drain(..) {
                self.router.credit(port, vc);
            }
        }
        // Idle board: injectors have nothing (their tick is a pure no-op)
        // and the router holds no flits (its step is an early-out that
        // touches no arbitration state), so the whole cycle is skipped.
        if self.inflight == 0 {
            return;
        }
        for wi in 0..self.inj_ready.len() {
            let mut bits = self.inj_ready[wi];
            while bits != 0 {
                let p = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let inj = &mut self.injectors[p];
                if !inj.tick(&mut self.router) || inj.is_idle() {
                    words::clear(&mut self.inj_ready, p);
                }
            }
        }
        // Take the scratch to sidestep the simultaneous `&mut self.router`
        // / `&mut self.traversal_scratch` borrow; restored below.
        let mut traversals = std::mem::take(&mut self.traversal_scratch);
        traversals.clear();
        self.router.step_into(now, &mut traversals);
        let (injectors, ready) = (&self.injectors, &mut self.inj_ready);
        self.router.drain_popped_ports(|port| {
            if !injectors[port.index()].is_idle() {
                words::set(ready, port.index());
            }
        });
        for t in &traversals {
            let out = t.out_port.0;
            if out < self.d {
                self.node_credits.push((t.out_port, t.out_vc));
                if t.flit.kind.is_tail() {
                    self.inflight -= 1;
                    delivered.push(Delivered {
                        id: t.flit.packet,
                        dst: t.flit.dst.0,
                        injected_at: t.flit.injected_at,
                        labelled: t.flit.labelled,
                    });
                }
            } else {
                let dest = out - self.d;
                debug_assert_ne!(dest, self.id, "self-directed remote flit");
                self.buffer_util[dest as usize].enqueue(now, 1);
                let completed = self.tx[dest as usize].accept(t.flit, PACKET_FLITS, t.out_vc, now);
                if t.flit.kind.is_tail() {
                    self.inflight -= 1;
                }
                if completed && self.tx[dest as usize].ready_len() == 1 {
                    if let Err(i) = self.tx_ready.binary_search(&dest) {
                        self.tx_ready.insert(i, dest);
                    }
                }
            }
        }
        self.traversal_scratch = traversals;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkMode, SystemConfig};
    use router::flit::PacketId;

    fn cfg() -> SystemConfig {
        SystemConfig::small(NetworkMode::NpNb)
    }

    fn packet(id: u64, dst: u32) -> QueuedPacket {
        QueuedPacket {
            id: PacketId(id),
            dst: NodeId(dst),
            flits: PACKET_FLITS,
            injected_at: 0,
            labelled: true,
        }
    }

    #[test]
    fn intra_board_packet_is_delivered_locally() {
        let cfg = cfg();
        let mut b = Board::new(&cfg, 0);
        // Node 1 → node 2, both on board 0.
        b.enqueue_node_packet(1, packet(1, 2));
        let mut delivered = Vec::new();
        for now in 0..100 {
            delivered.extend(b.step(now));
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].dst, 2);
        assert!(delivered[0].labelled);
        assert!(b.is_idle());
    }

    #[test]
    fn remote_packet_lands_in_tx_queue() {
        let cfg = cfg();
        let mut b = Board::new(&cfg, 0);
        // Node 0 → node 12 (board 3).
        b.enqueue_node_packet(0, packet(1, 12));
        for now in 0..100 {
            let d = b.step(now);
            assert!(d.is_empty(), "remote packet must not eject locally");
        }
        assert_eq!(b.tx_queue(3).ready_len(), 1);
        assert_eq!(b.tx_queue(1).ready_len(), 0);
        let pkt = b.tx_depart(100, 3).unwrap();
        assert_eq!(pkt.dst, 12);
        assert_eq!(pkt.flits, PACKET_FLITS);
    }

    #[test]
    fn rx_packet_is_delivered_to_node() {
        let cfg = cfg();
        let mut b = Board::new(&cfg, 2);
        // A packet arrived optically on λ1 destined for node 10 (board 2).
        let rp = ReadyPacket {
            id: PacketId(9),
            dst: 10,
            injected_at: 3,
            labelled: true,
            flits: PACKET_FLITS,
            vc: 0,
            completed_at: 0,
        };
        b.enqueue_rx_packet(1, rp);
        assert!(!b.is_idle());
        let mut delivered = Vec::new();
        for now in 0..100 {
            delivered.extend(b.step(now));
        }
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].dst, 10);
        assert_eq!(delivered[0].injected_at, 3);
        assert!(b.is_idle());
    }

    #[test]
    fn tx_credits_recycle_under_sustained_load() {
        let cfg = cfg();
        let mut b = Board::new(&cfg, 0);
        // Push far more packets toward board 1 than the TX queue holds;
        // departing packets must recycle credits so all eventually pass.
        for i in 0..32 {
            b.enqueue_node_packet((i % 4) as u16, packet(i, 4));
        }
        let mut departed = 0;
        for now in 0..4000 {
            b.step(now);
            while b.tx_depart(now, 1).is_some() {
                departed += 1;
            }
        }
        assert_eq!(departed, 32);
        assert!(b.is_idle());
    }

    #[test]
    fn buffer_util_tracks_queue_occupancy() {
        let cfg = cfg();
        let mut b = Board::new(&cfg, 0);
        b.enqueue_node_packet(0, packet(1, 4));
        for now in 0..cfg.schedule.window {
            b.step(now);
        }
        b.roll_windows(cfg.schedule.window);
        // The packet sits in tx[1] for most of the window: util > 0.
        assert!(b.buffer_util(1) > 0.0);
        assert_eq!(b.buffer_util(2), 0.0);
        assert_eq!(b.id(), 0);
        assert!(b.router().stats().traversed >= 8);
    }
}
