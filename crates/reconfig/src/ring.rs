//! The unidirectional electrical control ring connecting RCs.
//!
//! "Each RC_i is connected to RC_{i+1} in a simple electrical ring topology
//! separated from the optical SRS. A ring topology with unidirectional flow
//! of control ensures that what information is sent in one direction is
//! always received in another" (§3.2). The protocol is *lock-step*: "as a
//! new control packet is transmitted by the RC_{i+1}, it receives a control
//! packet from the previous RC_i ... RC_{i+1} will not service the newly
//! received control packet until it transmits its own control packet."
//!
//! [`ControlRing`] is a message-level simulation of the ring: it carries
//! the Board Request / Board Response tokens of every DBR round
//! ([`crate::protocol::DbrRound`]).

use crate::msg::ControlPacket;
use desim::Cycle;
use photonics::wavelength::BoardId;
use std::collections::VecDeque;

/// A control packet in flight on the ring.
#[derive(Debug, Clone)]
struct InFlight {
    packet: ControlPacket,
    /// Next board to visit.
    next_hop: BoardId,
    /// Arrival time at that board.
    arrives_at: Cycle,
}

/// The electrical RC ring.
#[derive(Debug, Clone)]
pub struct ControlRing {
    boards: u16,
    hop_latency: Cycle,
    in_flight: Vec<InFlight>,
    /// Per-board receive queues (delivered packets awaiting service).
    delivered: Vec<VecDeque<(Cycle, ControlPacket)>>,
    hops_taken: u64,
}

impl ControlRing {
    /// Creates a ring of `boards` RCs with `hop_latency` cycles per hop.
    pub fn new(boards: u16, hop_latency: Cycle) -> Self {
        assert!(boards >= 2);
        assert!(hop_latency >= 1);
        Self {
            boards,
            hop_latency,
            in_flight: Vec::new(),
            delivered: (0..boards).map(|_| VecDeque::new()).collect(),
            hops_taken: 0,
        }
    }

    /// Boards on the ring.
    pub fn boards(&self) -> u16 {
        self.boards
    }

    /// Latency of one ring hop.
    pub fn hop_latency(&self) -> Cycle {
        self.hop_latency
    }

    /// Total hops completed.
    pub fn hops_taken(&self) -> u64 {
        self.hops_taken
    }

    /// Cycles for a packet to make a full loop back to its origin.
    pub fn round_trip(&self) -> Cycle {
        self.hop_latency * self.boards as Cycle
    }

    /// The board after `b` on the ring.
    pub fn successor(&self, b: BoardId) -> BoardId {
        BoardId((b.0 + 1) % self.boards)
    }

    /// Sends `packet` from `from` toward its successor at time `now`.
    pub fn send(&mut self, now: Cycle, from: BoardId, packet: ControlPacket) {
        let next = self.successor(from);
        self.in_flight.push(InFlight {
            packet,
            next_hop: next,
            arrives_at: now + self.hop_latency,
        });
    }

    /// Advances the ring to time `now`: moves arrivals into their boards'
    /// receive queues.
    pub fn advance(&mut self, now: Cycle) {
        let mut arrived = Vec::new();
        self.in_flight.retain(|f| {
            if f.arrives_at <= now {
                arrived.push((f.arrives_at, f.next_hop, f.packet.clone()));
                false
            } else {
                true
            }
        });
        // Deterministic delivery order: by time, then board.
        arrived.sort_by_key(|(t, b, _)| (*t, b.0));
        for (t, b, p) in arrived {
            self.hops_taken += 1;
            self.delivered[b.index()].push_back((t, p));
        }
    }

    /// Pops the next delivered packet at board `b`, if any.
    pub fn receive(&mut self, b: BoardId) -> Option<(Cycle, ControlPacket)> {
        self.delivered[b.index()].pop_front()
    }

    /// Packets currently in flight.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Packets waiting in receive queues.
    pub fn queued(&self) -> usize {
        self.delivered.iter().map(|q| q.len()).sum()
    }

    /// True when a packet originated by `origin` is in flight or queued.
    pub fn has_packet_from(&self, origin: BoardId) -> bool {
        self.in_flight.iter().any(|f| f.packet.origin() == origin)
            || self
                .delivered
                .iter()
                .any(|q| q.iter().any(|(_, p)| p.origin() == origin))
    }

    /// Removes every packet originated by `origin` from the ring (token
    /// loss). Returns whether anything was dropped.
    pub fn drop_packet_from(&mut self, origin: BoardId) -> bool {
        let before = self.in_flight.len() + self.queued();
        self.in_flight.retain(|f| f.packet.origin() != origin);
        for q in &mut self.delivered {
            q.retain(|(_, p)| p.origin() != origin);
        }
        before != self.in_flight.len() + self.queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(origin: u16) -> ControlPacket {
        ControlPacket::BoardRequest {
            origin: BoardId(origin),
            reports: vec![],
        }
    }

    #[test]
    fn packet_circulates_back_to_origin() {
        let mut ring = ControlRing::new(4, 3);
        ring.send(0, BoardId(0), probe(0));
        let mut at = BoardId(1);
        let mut now = 0;
        // Forward at each hop until it returns to board 0.
        for _ in 0..4 {
            now += 3;
            ring.advance(now);
            let (t, p) = ring.receive(at).expect("packet due");
            assert_eq!(t, now);
            if at == BoardId(0) {
                assert_eq!(p.origin(), BoardId(0));
                return;
            }
            ring.send(now, at, p);
            at = ring.successor(at);
        }
        // After 4 hops of 3 cycles we are back at board 0.
        assert_eq!(at, BoardId(0));
        assert_eq!(now, ring.round_trip());
        ring.advance(now);
        let (_, p) = ring.receive(BoardId(0)).expect("returned");
        assert_eq!(p.origin(), BoardId(0));
    }

    #[test]
    fn lock_step_all_boards_launch_simultaneously() {
        // Every RC launches its Board_Request at t=0. The lock-step
        // property: at every hop time k·h, every board receives exactly one
        // packet (the one from its k-th predecessor), services it, and
        // forwards it. After B·h cycles every packet is home.
        let b = 8u16;
        let h = 2u64;
        let mut ring = ControlRing::new(b, h);
        for i in 0..b {
            ring.send(0, BoardId(i), probe(i));
        }
        let mut returned = vec![false; b as usize];
        for k in 1..=b as u64 {
            let now = k * h;
            ring.advance(now);
            for i in 0..b {
                let (t, p) = ring
                    .receive(BoardId(i))
                    .expect("lock-step: one packet per board per hop");
                assert_eq!(t, now);
                // The packet must be from the k-th predecessor.
                let expect_origin = (i as i32 - k as i32).rem_euclid(b as i32) as u16;
                assert_eq!(p.origin(), BoardId(expect_origin));
                // No second packet this hop.
                assert!(ring.receive(BoardId(i)).is_none());
                if p.origin() == BoardId(i) {
                    returned[i as usize] = true;
                } else {
                    ring.send(now, BoardId(i), p);
                }
            }
        }
        assert!(returned.iter().all(|&r| r), "all packets must return home");
        assert_eq!(ring.in_flight(), 0);
        assert_eq!(ring.queued(), 0);
        assert_eq!(ring.hops_taken(), (b as u64) * (b as u64));
    }

    #[test]
    fn round_trip_time() {
        let ring = ControlRing::new(8, 4);
        assert_eq!(ring.round_trip(), 32);
        assert_eq!(ring.successor(BoardId(7)), BoardId(0));
        assert_eq!(ring.hop_latency(), 4);
        assert_eq!(ring.boards(), 8);
    }

    #[test]
    fn advance_is_idempotent_per_time() {
        let mut ring = ControlRing::new(2, 5);
        ring.send(0, BoardId(0), probe(0));
        ring.advance(4);
        assert!(ring.receive(BoardId(1)).is_none());
        ring.advance(5);
        ring.advance(5);
        assert!(ring.receive(BoardId(1)).is_some());
        assert!(ring.receive(BoardId(1)).is_none());
    }
}
