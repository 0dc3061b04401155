//! Per-destination-board transmitter queues.
//!
//! The optical domain interleaves *packets*, not flits (§2.1: "flit
//! management across multiple domains is extremely complicated"), so the
//! boundary between the electrical IBI and the SRS is a reassembly queue:
//! flits of remote packets stream in from the router (interleaved across
//! packets by the VC mechanism) and complete packets leave on optical
//! channels. Queue occupancy is the `Buffer_util` the LC hardware counters
//! report.

use router::flit::{Flit, PacketId};
use router::{PACKET_FLITS, VCS};
use std::collections::VecDeque;

/// Transmitter queue capacity per destination board, in flits. The board
/// splits it evenly across the router's output VCs as credits.
pub const TX_QUEUE_FLITS: u32 = 64;

// Each output VC's share of a queue holds at least one whole packet.
const _: () = assert!(
    TX_QUEUE_FLITS.is_multiple_of(VCS as u32) && TX_QUEUE_FLITS / VCS as u32 >= PACKET_FLITS as u32
);

/// A packet fully reassembled and ready for optical transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadyPacket {
    /// Packet id.
    pub id: PacketId,
    /// Global destination node.
    pub dst: u32,
    /// Injection cycle (for latency accounting).
    pub injected_at: desim::Cycle,
    /// Labelled for measurement.
    pub labelled: bool,
    /// Flit count.
    pub flits: u16,
    /// The router output VC the packet's flits occupied (for exact credit
    /// return when the packet departs).
    pub vc: u8,
    /// Cycle the packet finished reassembling in the TX queue (for the
    /// latency decomposition: source path vs queue wait vs optical).
    pub completed_at: desim::Cycle,
}

// A ready packet is 32 bytes; a field added later cannot silently regrow
// every TX queue and optical arrival.
const _: () = assert!(std::mem::size_of::<ReadyPacket>() == 32);

/// One (source board → destination board) transmitter queue.
#[derive(Debug, Clone)]
pub struct TransmitQueue {
    capacity_flits: u32,
    flits_held: u32,
    /// Per-packet reassembly: flits received so far.
    assembling: Vec<(PacketId, u16, ReadyPacket)>,
    /// Completed packets in completion order.
    ready: VecDeque<ReadyPacket>,
    /// Lifetime counters.
    packets_completed: u64,
    packets_departed: u64,
}

impl TransmitQueue {
    /// Creates a queue holding at most `capacity_flits` flits.
    pub fn new(capacity_flits: u32) -> Self {
        assert!(capacity_flits > 0);
        Self {
            capacity_flits,
            flits_held: 0,
            assembling: Vec::new(),
            ready: VecDeque::new(),
            packets_completed: 0,
            packets_departed: 0,
        }
    }

    /// Flits currently held (assembling + ready).
    pub fn flits_held(&self) -> u32 {
        self.flits_held
    }

    /// Complete packets awaiting transmission.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Lifetime `(completed, departed)` packet counts.
    pub fn totals(&self) -> (u64, u64) {
        (self.packets_completed, self.packets_departed)
    }

    /// Accepts one flit from the router. Returns `true` when this flit
    /// completed a packet (it moved to the ready queue) — the board uses
    /// this to maintain its ready-destination active set without
    /// re-scanning every queue.
    ///
    /// `total_flits` is the system packet size (all packets are fixed-size
    /// in the paper's runs).
    ///
    /// # Panics
    /// If the queue would exceed capacity — the router's credit counter for
    /// this output port must make that impossible.
    pub fn accept(&mut self, flit: Flit, total_flits: u16, out_vc: u8, now: desim::Cycle) -> bool {
        assert!(
            self.flits_held < self.capacity_flits,
            "TX queue overflow: credits out of sync"
        );
        self.flits_held += 1;
        let idx = self
            .assembling
            .iter()
            .position(|(id, _, _)| *id == flit.packet);
        let idx = match idx {
            Some(i) => i,
            None => {
                self.assembling.push((
                    flit.packet,
                    0,
                    ReadyPacket {
                        id: flit.packet,
                        dst: flit.dst.0,
                        injected_at: flit.injected_at,
                        labelled: flit.labelled,
                        flits: total_flits,
                        vc: out_vc,
                        completed_at: 0,
                    },
                ));
                self.assembling.len() - 1
            }
        };
        self.assembling[idx].1 += 1;
        if self.assembling[idx].1 == total_flits {
            let (_, _, mut pkt) = self.assembling.swap_remove(idx);
            pkt.completed_at = now;
            self.ready.push_back(pkt);
            self.packets_completed += 1;
            return true;
        }
        false
    }

    /// Peeks the next ready packet.
    pub fn peek(&self) -> Option<&ReadyPacket> {
        self.ready.front()
    }

    /// Removes the next ready packet for transmission; returns it. The
    /// packet's flits leave the queue (the caller returns that many credits
    /// to the router).
    pub fn depart(&mut self) -> Option<ReadyPacket> {
        let pkt = self.ready.pop_front()?;
        debug_assert!(self.flits_held >= pkt.flits as u32);
        self.flits_held -= pkt.flits as u32;
        self.packets_departed += 1;
        Some(pkt)
    }

    /// Serializes occupancy, in-flight reassembly, the ready queue and
    /// lifetime counters (capacity is config-derived).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        w.u32(self.flits_held);
        w.usize(self.assembling.len());
        for (id, got, pkt) in &self.assembling {
            w.u64(id.0);
            w.u16(*got);
            pkt.save(w);
        }
        self.ready.save(w);
        w.u64(self.packets_completed);
        w.u64(self.packets_departed);
    }

    /// Overlays checkpointed queue state; occupancy must fit capacity.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::{Snap, SnapError};
        let flits_held = r.u32()?;
        if flits_held > self.capacity_flits {
            return Err(SnapError::Mismatch(format!(
                "TX queue snapshot holds {flits_held} flits but capacity is {}",
                self.capacity_flits
            )));
        }
        let n = r.len_at_most(1 << 20, "TX assembling entries")?;
        let mut assembling = Vec::with_capacity(n);
        for _ in 0..n {
            let id = PacketId(r.u64()?);
            let got = r.u16()?;
            let pkt = ReadyPacket::load(r)?;
            assembling.push((id, got, pkt));
        }
        self.flits_held = flits_held;
        self.assembling = assembling;
        self.ready = Snap::load(r)?;
        self.packets_completed = r.u64()?;
        self.packets_departed = r.u64()?;
        Ok(())
    }
}

impl desim::snap::Snap for ReadyPacket {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.u64(self.id.0);
        w.u32(self.dst);
        w.u64(self.injected_at);
        w.bool(self.labelled);
        w.u16(self.flits);
        w.u8(self.vc);
        w.u64(self.completed_at);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        Ok(Self {
            id: PacketId(r.u64()?),
            dst: r.u32()?,
            injected_at: r.u64()?,
            labelled: r.bool()?,
            flits: r.u16()?,
            vc: r.u8()?,
            completed_at: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use router::flit::NodeId;
    use router::packet::QueuedPacket;

    fn flits(id: u64, n: u16) -> Vec<Flit> {
        let pkt = QueuedPacket {
            id: PacketId(id),
            dst: NodeId(9),
            flits: n,
            injected_at: 5,
            labelled: true,
        };
        (0..n).map(|i| pkt.flit_at(i)).collect()
    }

    #[test]
    fn reassembles_in_order_flits() {
        let mut q = TransmitQueue::new(64);
        for f in flits(1, 8) {
            q.accept(f, 8, 0, 7);
        }
        assert_eq!(q.ready_len(), 1);
        assert_eq!(q.flits_held(), 8);
        let p = q.depart().unwrap();
        assert_eq!(p.id, PacketId(1));
        assert_eq!(p.dst, 9);
        assert_eq!(p.vc, 0);
        assert_eq!(p.flits, 8);
        assert!(p.labelled);
        assert_eq!(p.injected_at, 5);
        assert_eq!(p.completed_at, 7);
        assert_eq!(q.flits_held(), 0);
        assert_eq!(q.totals(), (1, 1));
    }

    #[test]
    fn interleaved_packets_complete_in_completion_order() {
        let mut q = TransmitQueue::new(64);
        let a = flits(1, 2);
        let b = flits(2, 2);
        // Interleave: a0, b0, b1 (b completes), a1 (a completes).
        q.accept(a[0], 2, 0, 1);
        q.accept(b[0], 2, 1, 2);
        q.accept(b[1], 2, 1, 3);
        q.accept(a[1], 2, 0, 4);
        assert_eq!(q.ready_len(), 2);
        assert_eq!(q.depart().unwrap().id, PacketId(2));
        assert_eq!(q.depart().unwrap().id, PacketId(1));
    }

    #[test]
    fn occupancy_counts_partial_packets() {
        let mut q = TransmitQueue::new(16);
        let a = flits(1, 8);
        for f in &a[..4] {
            q.accept(*f, 8, 0, 0);
        }
        assert_eq!(q.flits_held(), 4);
        assert_eq!(q.ready_len(), 0);
        assert!(q.peek().is_none());
        assert!(q.depart().is_none());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = TransmitQueue::new(2);
        let a = flits(1, 3);
        for f in a {
            q.accept(f, 3, 0, 0);
        }
    }
}
