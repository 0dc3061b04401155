//! Flit injectors: stream packets into the IBI router one flit per cycle.
//!
//! Both entry points into a board's router — node network interfaces and
//! optical receivers — present the same problem: a backlog of whole packets
//! that must enter the router flit-by-flit, each packet pinned to one
//! virtual channel from head to tail (VC interleaving happens *between*
//! packets, not within one). [`FlitInjector`] owns that state machine for
//! one input port.

use crate::packet::Packet;
use crate::routing::PortId;
use crate::Router;
use std::collections::VecDeque;

/// Per-input-port injection state.
#[derive(Debug, Clone)]
pub struct FlitInjector {
    port: PortId,
    /// Packets awaiting injection (head of queue is in progress).
    backlog: VecDeque<Packet>,
    /// The in-progress packet; its flits are computed on demand with
    /// [`Packet::flit_at`], so starting a packet allocates nothing.
    current: Option<Packet>,
    /// Next flit index within the in-progress packet.
    next: u16,
    /// The VC the in-progress packet was assigned.
    vc: u8,
    /// Round-robin VC cursor for new packets.
    vc_cursor: u8,
    /// Total flits injected.
    injected_flits: u64,
}

impl FlitInjector {
    /// Creates an injector for router input `port`.
    pub fn new(port: PortId) -> Self {
        Self {
            port,
            backlog: VecDeque::new(),
            current: None,
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

    /// Queues a packet for injection.
    pub fn enqueue(&mut self, packet: Packet) {
        self.backlog.push_back(packet);
    }

    /// Packets waiting (including the one in progress).
    #[cfg(test)]
    fn backlog_len(&self) -> usize {
        self.backlog.len() + usize::from(self.current.is_some())
    }

    /// True when nothing remains to inject.
    pub fn is_idle(&self) -> bool {
        self.backlog.is_empty() && self.current.is_none()
    }

    /// Total flits injected so far.
    pub fn injected_flits(&self) -> u64 {
        self.injected_flits
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
        if self.current.is_none() {
            let Some(&pkt) = self.backlog.front() else {
                return false;
            };
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
                // No idle VC: the packet stays at the head of the backlog.
                return false;
            };
            self.backlog.pop_front();
            self.vc = vc;
            self.vc_cursor = (vc + 1) % vcs;
            self.current = Some(pkt);
            self.next = 0;
        }
        // Inject the next flit of the in-progress packet if space allows.
        let Some(pkt) = self.current else {
            // Unreachable: `current` was set (or refilled) above.
            return false;
        };
        if router.can_accept(self.port, self.vc) {
            router.inject(self.port, self.vc, pkt.flit_at(self.next));
            self.next += 1;
            self.injected_flits += 1;
            if self.next >= pkt.flits {
                self.current = None;
                self.next = 0;
            }
            true
        } else {
            false
        }
    }
}

impl FlitInjector {
    /// Serializes the injection state (the port is config-derived).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        self.backlog.save(w);
        self.current.save(w);
        w.u16(self.next);
        w.u8(self.vc);
        w.u8(self.vc_cursor);
        w.u64(self.injected_flits);
    }

    /// Overlays checkpointed injection state.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::Snap;
        self.backlog = VecDeque::<Packet>::load(r)?;
        self.current = Option::<Packet>::load(r)?;
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
    use crate::flit::{NodeId, PacketId};
    use crate::routing::TableRoute;
    use crate::RouterConfig;

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
}
