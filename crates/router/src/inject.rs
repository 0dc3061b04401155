//! Flit injectors: stream packets into the IBI router one flit per cycle.
//!
//! Both entry points into a board's router — node network interfaces and
//! optical receivers — present the same problem: a backlog of whole packets
//! that must enter the router flit-by-flit, each packet pinned to one
//! virtual channel from head to tail (VC interleaving happens *between*
//! packets, not within one). [`FlitInjector`] owns that state machine for
//! one input port.

use crate::flit::{NodeId, PacketId};
use crate::packet::QueuedPacket;
use crate::routing::PortId;
use crate::Router;
use desim::snap::{varint_next, varint_push_back};
use desim::Cycle;
use std::collections::VecDeque;

/// The reference a fresh injector codes its first packet against.
const ORIGIN: QueuedPacket = QueuedPacket {
    id: PacketId(0),
    injected_at: 0,
    dst: NodeId(0),
    flits: 0,
    labelled: false,
};

/// Per-input-port injection state.
#[derive(Debug, Clone)]
pub struct FlitInjector {
    port: PortId,
    /// Packets awaiting injection, oldest first, each as four LEB128
    /// varints: the zigzag deltas of its `id` and `injected_at` against
    /// the packet queued before it (wrapping: an RX injector sees ids and
    /// cycles out of order), its `dst`, and `flits << 1 | labelled`. A
    /// node NI's packet costs about 5 bytes.
    backlog: VecDeque<u8>,
    /// `(id, injected_at)` of the last packet queued: what the next
    /// [`FlitInjector::enqueue`] codes against.
    last_in: (PacketId, Cycle),
    /// The last packet taken off the backlog (or [`ORIGIN`]): in progress
    /// while `busy`, and the reference the backlog's head is coded
    /// against. Its flits are computed on demand with
    /// [`QueuedPacket::flit_at`], so starting a packet allocates nothing.
    current: QueuedPacket,
    /// Whether `current` still has flits to inject.
    busy: bool,
    /// Next flit index within the in-progress packet.
    next: u16,
    /// The VC the in-progress packet was assigned.
    vc: u8,
    /// Round-robin VC cursor for new packets.
    vc_cursor: u8,
    /// Total flits injected.
    injected_flits: u64,
}

// A B = 32 system builds 1,280 injectors in `System::new`, so their size is
// setup time: a 144-byte variant that cached a decoded head made
// `b32_complement`'s `setup_s` ~17 % slower. The coded backlog adds only
// `last_in` to the 72 bytes of the uncoded injector.
const _: () = assert!(std::mem::size_of::<FlitInjector>() <= 88);

/// Zigzag-maps a wrapping difference so small steps either way code short.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverts [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Decodes the packet coded after `prev` from the front of `bytes`.
fn decode(prev: &QueuedPacket, bytes: &mut impl Iterator<Item = u8>) -> QueuedPacket {
    let id = prev.id.0.wrapping_add(unzigzag(varint_next(bytes)));
    let injected_at = prev.injected_at.wrapping_add(unzigzag(varint_next(bytes)));
    let dst = varint_next(bytes) as u32;
    let tail = varint_next(bytes);
    QueuedPacket {
        id: PacketId(id),
        injected_at,
        dst: NodeId(dst),
        flits: (tail >> 1) as u16,
        labelled: tail & 1 == 1,
    }
}

impl FlitInjector {
    /// Creates an injector for router input `port`.
    pub fn new(port: PortId) -> Self {
        Self {
            port,
            backlog: VecDeque::new(),
            last_in: (ORIGIN.id, ORIGIN.injected_at),
            current: ORIGIN,
            busy: false,
            next: 0,
            vc: 0,
            vc_cursor: 0,
            injected_flits: 0,
        }
    }

    /// The router input port this injector feeds.
    pub fn port(&self) -> PortId {
        self.port
    }

    /// Queues a packet for injection: a [`QueuedPacket`], or a
    /// [`crate::Packet`], whose `src` it drops.
    pub fn enqueue(&mut self, packet: impl Into<QueuedPacket>) {
        let p = packet.into();
        let (id, at) = self.last_in;
        let q = &mut self.backlog;
        varint_push_back(q, zigzag(p.id.0.wrapping_sub(id.0)));
        varint_push_back(q, zigzag(p.injected_at.wrapping_sub(at)));
        varint_push_back(q, u64::from(p.dst.0));
        varint_push_back(q, u64::from(p.flits) << 1 | u64::from(p.labelled));
        self.last_in = (p.id, p.injected_at);
    }

    /// Packets waiting, not counting the one in progress: each ends in
    /// four varints, and each varint in one byte with the high bit clear.
    fn queued(&self) -> usize {
        self.backlog.iter().filter(|&&b| b & 0x80 == 0).count() / 4
    }

    /// Packets waiting (including the one in progress).
    #[cfg(test)]
    fn backlog_len(&self) -> usize {
        self.queued() + usize::from(self.busy)
    }

    /// True when nothing remains to inject.
    pub fn is_idle(&self) -> bool {
        self.backlog.is_empty() && !self.busy
    }

    /// Total flits injected so far.
    pub fn injected_flits(&self) -> u64 {
        self.injected_flits
    }

    /// Heap bytes held by the coded backlog (its byte capacity).
    pub fn approx_memory_bytes(&self) -> usize {
        self.backlog.capacity()
    }

    /// Attempts to inject one flit this cycle. Returns true if a flit
    /// entered the router.
    ///
    /// A `false` tick changes nothing — neither here nor in the router —
    /// and its outcome can only change once a flit leaves one of this
    /// port's VCs, so a driver may stop ticking a blocked injector until
    /// [`Router::drain_popped_ports`] names its port.
    pub fn tick(&mut self, router: &mut Router) -> bool {
        // Start the next packet if none is in progress.
        if !self.busy {
            if self.backlog.is_empty() {
                return false;
            }
            // Pick a VC whose buffer is empty *and* idle to start a fresh
            // packet (a head flit must land at the front of an idle VC).
            let vcs = router.config().vcs;
            let mut chosen = None;
            for i in 0..vcs {
                let vc = (self.vc_cursor + i) % vcs;
                if router.input_space(self.port, vc) == router.config().buf_depth {
                    chosen = Some(vc);
                    break;
                }
            }
            let Some(vc) = chosen else {
                // No idle VC: the packet stays coded at the backlog's head.
                return false;
            };
            let backlog = &mut self.backlog;
            self.current = decode(
                &self.current,
                &mut std::iter::from_fn(|| backlog.pop_front()),
            );
            self.busy = true;
            self.vc = vc;
            self.vc_cursor = (vc + 1) % vcs;
            self.next = 0;
        }
        // Inject the next flit of the in-progress packet if space allows.
        if router.can_accept(self.port, self.vc) {
            router.inject(self.port, self.vc, self.current.flit_at(self.next));
            self.next += 1;
            self.injected_flits += 1;
            if self.next >= self.current.flits {
                self.busy = false;
                self.next = 0;
            }
            true
        } else {
            false
        }
    }
}

impl FlitInjector {
    /// Serializes the injection state (the port is config-derived). The
    /// bytes are the uncoded ones: the waiting packets as a length-prefixed
    /// sequence of [`QueuedPacket`]s, then the in-progress one as an
    /// `Option`, decoded from a copy of the backlog.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        let queued = self.queued();
        w.usize(queued);
        let mut bytes = self.backlog.iter().copied();
        let mut prev = self.current;
        for _ in 0..queued {
            prev = decode(&prev, &mut bytes);
            prev.save(w);
        }
        self.busy.then_some(self.current).save(w);
        w.u16(self.next);
        w.u8(self.vc);
        w.u8(self.vc_cursor);
        w.u64(self.injected_flits);
    }

    /// Overlays checkpointed injection state, coding the waiting packets
    /// afresh against the in-progress one (or [`ORIGIN`]).
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::Snap;
        let waiting = Vec::<QueuedPacket>::load(r)?;
        let current = Option::<QueuedPacket>::load(r)?;
        self.busy = current.is_some();
        self.current = current.unwrap_or(ORIGIN);
        self.last_in = (self.current.id, self.current.injected_at);
        self.backlog.clear();
        for p in waiting {
            self.enqueue(p);
        }
        self.next = r.u16()?;
        self.vc = r.u8()?;
        self.vc_cursor = r.u8()?;
        self.injected_flits = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::routing::{RouteFunction, TableRoute};
    use crate::RouterConfig;
    use desim::rng::Pcg32;
    use desim::snap::{Snap, SnapReader, SnapWriter};

    fn router() -> Router {
        Router::new(
            RouterConfig {
                in_ports: 1,
                out_ports: 2,
                vcs: 2,
                buf_depth: 2,
                downstream_depth: 64,
            },
            Box::new(TableRoute::new(vec![PortId(0), PortId(1)])),
        )
    }

    fn pkt(id: u64, dst: u32, flits: u16) -> Packet {
        Packet {
            id: PacketId(id),
            src: NodeId(0),
            dst: NodeId(dst),
            flits,
            injected_at: 0,
            labelled: false,
        }
    }

    #[test]
    fn injects_one_flit_per_cycle() {
        let mut r = router();
        let mut inj = FlitInjector::new(PortId(0));
        inj.enqueue(pkt(1, 1, 4));
        let mut injected = 0;
        for now in 0..40 {
            if inj.tick(&mut r) {
                injected += 1;
            }
            r.step(now);
        }
        assert_eq!(injected, 4);
        assert_eq!(inj.injected_flits(), 4);
        assert!(inj.is_idle());
    }

    #[test]
    fn packet_stays_on_one_vc() {
        let mut r = router();
        let mut inj = FlitInjector::new(PortId(0));
        inj.enqueue(pkt(1, 1, 3));
        // Never step the router: flits accumulate in one VC buffer (depth 2)
        // and injection stalls when it fills.
        assert!(inj.tick(&mut r));
        assert!(inj.tick(&mut r));
        assert!(!inj.tick(&mut r), "buffer full, must stall");
        // All flits went to the same VC.
        let vc0 = r.input_space(PortId(0), 0);
        let vc1 = r.input_space(PortId(0), 1);
        assert!(vc0 == 0 || vc1 == 0, "one VC full");
        assert!(vc0 == 2 || vc1 == 2, "other VC untouched");
    }

    #[test]
    fn consecutive_packets_use_different_vcs() {
        let mut r = router();
        let mut inj = FlitInjector::new(PortId(0));
        inj.enqueue(pkt(1, 1, 1));
        inj.enqueue(pkt(2, 1, 1));
        assert!(inj.tick(&mut r)); // packet 1 head/tail on vc A
        assert!(inj.tick(&mut r)); // packet 2 starts on vc B (A non-empty)
        assert_eq!(r.input_space(PortId(0), 0), 1);
        assert_eq!(r.input_space(PortId(0), 1), 1);
    }

    #[test]
    fn backlog_accounting() {
        let mut r = router();
        let mut inj = FlitInjector::new(PortId(0));
        assert!(inj.is_idle());
        inj.enqueue(pkt(1, 1, 2));
        inj.enqueue(pkt(2, 1, 2));
        assert_eq!(inj.backlog_len(), 2);
        inj.tick(&mut r);
        assert_eq!(inj.backlog_len(), 2, "one in progress + one waiting");
        inj.tick(&mut r);
        assert_eq!(inj.backlog_len(), 1);
        assert_eq!(inj.port(), PortId(0));
    }

    #[test]
    fn no_idle_vc_defers_new_packet() {
        let mut r = router();
        let mut inj = FlitInjector::new(PortId(0));
        // Fill both VCs with heads that never drain (router not stepped).
        inj.enqueue(pkt(1, 1, 2));
        inj.enqueue(pkt(2, 1, 2));
        inj.enqueue(pkt(3, 1, 2));
        assert!(inj.tick(&mut r)); // p1 flit 0 → vc0
        assert!(inj.tick(&mut r)); // p1 flit 1 → vc0 (complete)
        assert!(inj.tick(&mut r)); // p2 flit 0 → vc1
        assert!(inj.tick(&mut r)); // p2 flit 1 → vc1 (complete)
                                   // Both VCs occupied; p3 cannot start.
        assert!(!inj.tick(&mut r));
        assert_eq!(inj.backlog_len(), 1);
    }

    /// The uncoded injector as an oracle: the same state machine over a
    /// plain packet FIFO (a `Vec` and a head index), saved in the encoding
    /// [`FlitInjector::save_state`] promises.
    struct Reference {
        port: PortId,
        queue: Vec<QueuedPacket>,
        head: usize,
        current: Option<QueuedPacket>,
        next: u16,
        vc: u8,
        vc_cursor: u8,
        injected_flits: u64,
    }

    impl Reference {
        fn new(port: PortId) -> Self {
            Self {
                port,
                queue: Vec::new(),
                head: 0,
                current: None,
                next: 0,
                vc: 0,
                vc_cursor: 0,
                injected_flits: 0,
            }
        }

        fn is_idle(&self) -> bool {
            self.head == self.queue.len() && self.current.is_none()
        }

        fn tick(&mut self, router: &mut Router) -> bool {
            if self.current.is_none() {
                let Some(&pkt) = self.queue.get(self.head) else {
                    return false;
                };
                let vcs = router.config().vcs;
                let depth = router.config().buf_depth;
                let Some(vc) = (0..vcs)
                    .map(|i| (self.vc_cursor + i) % vcs)
                    .find(|&vc| router.input_space(self.port, vc) == depth)
                else {
                    return false;
                };
                self.head += 1;
                self.vc = vc;
                self.vc_cursor = (vc + 1) % vcs;
                self.current = Some(pkt);
                self.next = 0;
            }
            let Some(pkt) = self.current else {
                return false;
            };
            if !router.can_accept(self.port, self.vc) {
                return false;
            }
            router.inject(self.port, self.vc, pkt.flit_at(self.next));
            self.next += 1;
            self.injected_flits += 1;
            if self.next >= pkt.flits {
                self.current = None;
                self.next = 0;
            }
            true
        }

        fn save_state(&self, w: &mut SnapWriter) {
            desim::snap::save_slice(w, &self.queue[self.head..]);
            self.current.save(w);
            w.u16(self.next);
            w.u8(self.vc);
            w.u8(self.vc_cursor);
            w.u64(self.injected_flits);
        }
    }

    /// Routes any destination, `u32::MAX` included, by its low bit.
    struct LowBit;

    impl RouteFunction for LowBit {
        fn route(&self, dst: NodeId) -> PortId {
            PortId((dst.0 & 1) as u16)
        }
    }

    fn any_u64(rng: &mut Pcg32) -> u64 {
        u64::from(rng.below(u32::MAX)) << 32 | u64::from(rng.below(u32::MAX))
    }

    /// A value near `prev` either way, an extreme, or anything.
    fn next_value(rng: &mut Pcg32, prev: u64) -> u64 {
        match rng.below(6) {
            0 => 0,
            1 => u64::MAX,
            2 => any_u64(rng),
            3 => prev.wrapping_sub(u64::from(rng.below(300))),
            _ => prev.wrapping_add(u64::from(rng.below(300))),
        }
    }

    fn bytes(save: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn coded_backlog_matches_the_uncoded_reference() {
        let config = RouterConfig {
            in_ports: 1,
            out_ports: 2,
            vcs: 2,
            buf_depth: 4,
            downstream_depth: 8,
        };
        let (mut long_packets, mut restores) = (0, 0);
        for seed in 0..24 {
            let mut rng = Pcg32::stream(seed, 0x1_4ec7);
            let mut routers = [(); 2].map(|_| Router::new(config, Box::new(LowBit)));
            let mut coded = FlitInjector::new(PortId(0));
            let mut reference = Reference::new(PortId(0));
            let mut last = ORIGIN;
            for now in 0..300 {
                for _ in 0..rng.below(3) {
                    let flits = match rng.below(16) {
                        0 => u16::MAX,
                        1..=7 => 1,
                        _ => 8,
                    };
                    long_packets += usize::from(flits == u16::MAX);
                    last = QueuedPacket {
                        id: PacketId(next_value(&mut rng, last.id.0)),
                        injected_at: next_value(&mut rng, last.injected_at),
                        dst: NodeId(match rng.below(4) {
                            0 => u32::MAX,
                            1 => rng.below(u32::MAX),
                            _ => rng.below(256),
                        }),
                        flits,
                        labelled: rng.bernoulli(0.5),
                    };
                    coded.enqueue(last);
                    reference.queue.push(last);
                }
                if rng.below(8) == 0 {
                    // Continue from a restored copy: the backlog is
                    // coded afresh against the in-progress packet.
                    let saved = bytes(|w| coded.save_state(w));
                    coded = FlitInjector::new(PortId(0));
                    let mut r = SnapReader::new(&saved);
                    coded.load_state(&mut r).unwrap();
                    r.expect_end().unwrap();
                    restores += 1;
                }
                for _ in 0..rng.below(4) {
                    let [a, b] = &mut routers;
                    assert_eq!(coded.tick(a), reference.tick(b), "seed {seed} cycle {now}");
                }
                assert_eq!(
                    coded.is_idle(),
                    reference.is_idle(),
                    "seed {seed} cycle {now}"
                );
                assert_eq!(
                    bytes(|w| coded.save_state(w)),
                    bytes(|w| reference.save_state(w)),
                    "seed {seed} cycle {now}"
                );
                // Same router bytes: the same flits went in.
                assert_eq!(
                    bytes(|w| routers[0].save_state(w)),
                    bytes(|w| routers[1].save_state(w)),
                    "seed {seed} cycle {now}"
                );
                for r in &mut routers {
                    for t in r.step(now) {
                        r.credit(t.out_port, t.out_vc);
                    }
                }
            }
        }
        assert!(long_packets > 0 && restores > 0);
    }

    #[test]
    fn a_node_ni_packet_costs_at_most_eight_bytes() {
        let mut rng = Pcg32::stream(49, 0);
        let mut inj = FlitInjector::new(PortId(0));
        let (mut id, mut at) = (0u64, 0u64);
        const PACKETS: usize = 10_000;
        for _ in 0..PACKETS {
            id += u64::from(rng.range(192, 320));
            at += u64::from(rng.range(10, 30));
            inj.enqueue(QueuedPacket {
                id: PacketId(id),
                injected_at: at,
                dst: NodeId(rng.below(256)),
                flits: 8,
                labelled: rng.bernoulli(0.5),
            });
        }
        assert_eq!(inj.backlog_len(), PACKETS);
        let bytes = inj.approx_memory_bytes();
        assert!(
            bytes <= 8 * PACKETS,
            "{bytes} B for {PACKETS} queued packets"
        );
    }
}
