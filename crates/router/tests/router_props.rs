//! Randomized tests of the router: no flit is lost or duplicated, per-packet
//! flit order is preserved, every packet reaches the output port its
//! destination routes to, and letting stalled injectors sleep is
//! indistinguishable from ticking all of them every cycle.
//!
//! Cases are generated from fixed-seed `desim::rng` streams (no external
//! property-testing crate — the build runs offline), so every failure
//! reproduces exactly.

use desim::rng::Pcg32;
use desim::snap::SnapWriter;
use router::flit::{NodeId, PacketId};
use router::inject::FlitInjector;
use router::packet::Packet;
use router::routing::{PortId, TableRoute};
use router::{words, Router, RouterConfig};
use std::collections::HashMap;

/// Drives a router with per-port injectors until everything drains (or a
/// generous cycle cap), returning the traversal log.
fn drive(
    ports: u16,
    vcs: u8,
    buf_depth: usize,
    downstream: u32,
    packets: Vec<Packet>,
) -> Vec<(u64, PortId, PacketId, u16, bool)> {
    let table: Vec<PortId> = (0..ports).map(PortId).collect();
    let mut router = Router::new(
        RouterConfig {
            in_ports: ports,
            out_ports: ports,
            vcs,
            buf_depth,
            downstream_depth: downstream,
        },
        Box::new(TableRoute::new(table)),
    );
    let mut injectors: Vec<FlitInjector> =
        (0..ports).map(|p| FlitInjector::new(PortId(p))).collect();
    let total_flits: u64 = packets.iter().map(|p| p.flits as u64).sum();
    for p in &packets {
        injectors[p.src.index() % ports as usize].enqueue(*p);
    }
    let mut log = Vec::new();
    let mut seen = 0u64;
    let mut now = 0u64;
    // Credits return one cycle after traversal (sink consumers).
    let mut pending_credits: Vec<(u64, PortId, u8)> = Vec::new();
    while seen < total_flits && now < 200_000 {
        let mut i = 0;
        while i < pending_credits.len() {
            if pending_credits[i].0 <= now {
                let (_, port, vc) = pending_credits.swap_remove(i);
                router.credit(port, vc);
            } else {
                i += 1;
            }
        }
        for inj in &mut injectors {
            inj.tick(&mut router);
        }
        for t in router.step(now) {
            pending_credits.push((now + 1, t.out_port, t.out_vc));
            log.push((
                now,
                t.out_port,
                t.flit.packet,
                t.flit.seq,
                t.flit.kind.is_tail(),
            ));
            seen += 1;
        }
        now += 1;
    }
    log
}

#[test]
fn random_traffic_conserves_and_orders_flits() {
    let mut rng = Pcg32::stream(0x0407_7E57, 0);
    for _case in 0..24 {
        let count = 1 + rng.below(39) as usize;
        let packets: Vec<Packet> = (0..count)
            .map(|i| Packet {
                id: PacketId(i as u64),
                src: NodeId(rng.below(4)),
                dst: NodeId(rng.below(4)),
                flits: rng.range(1, 5) as u16,
                injected_at: 0,
                labelled: false,
            })
            .collect();
        let vcs = rng.range(1, 3) as u8;
        let buf_depth = rng.range(1, 3) as usize;
        let downstream = rng.range(1, 7);
        let total_flits: u64 = packets.iter().map(|p| p.flits as u64).sum();
        let log = drive(4, vcs, buf_depth, downstream, packets.clone());
        // Conservation: every flit traverses exactly once.
        assert_eq!(log.len() as u64, total_flits, "flits lost or stuck");
        // Per-packet: in-order seqs, single output port, tail last.
        let mut per_packet: HashMap<PacketId, Vec<(u64, PortId, u16, bool)>> = HashMap::new();
        for &(t, port, id, seq, tail) in &log {
            per_packet.entry(id).or_default().push((t, port, seq, tail));
        }
        assert_eq!(per_packet.len(), packets.len());
        for p in &packets {
            let entries = &per_packet[&p.id];
            assert_eq!(entries.len(), p.flits as usize);
            // Flit seq strictly increasing in traversal order.
            for w in entries.windows(2) {
                assert!(w[0].2 < w[1].2, "packet {:?} out of order", p.id);
                assert!(w[0].0 <= w[1].0, "time went backwards");
            }
            // All flits exit through the routed port.
            let expect = PortId(p.dst.0 as u16);
            assert!(entries.iter().all(|e| e.1 == expect));
            // Tail is the final flit.
            assert!(entries.last().unwrap().3, "tail not last");
            assert!(entries[..entries.len() - 1].iter().all(|e| !e.3));
        }
    }
}

/// A router is work-conserving at an uncontended output: a single flow
/// sustains one flit per cycle once the pipeline fills.
#[test]
fn single_flow_throughput_is_full_rate() {
    let mut rng = Pcg32::stream(0x51_4A7E, 0);
    for _case in 0..8 {
        let flits = rng.range(8, 39) as u16;
        let packets = vec![Packet {
            id: PacketId(0),
            src: NodeId(0),
            dst: NodeId(1),
            flits,
            injected_at: 0,
            labelled: false,
        }];
        let log = drive(4, 2, 4, 64, packets);
        assert_eq!(log.len(), flits as usize);
        // After the head's RC+VA, flits move back-to-back: the span from
        // first to last traversal is exactly flits-1 cycles.
        let first = log.first().unwrap().0;
        let last = log.last().unwrap().0;
        assert_eq!(last - first, (flits - 1) as u64, "bubbles in the pipeline");
    }
}

/// A router with one injector per input port. `ready` is the sleep
/// discipline's state; the full-scan rig keeps it up to date but never
/// reads it.
struct Rig {
    router: Router,
    injectors: Vec<FlitInjector>,
    ready: Vec<u64>,
    /// `FlitInjector::tick` calls made so far.
    ticks: u64,
}

impl Rig {
    fn new(cfg: RouterConfig) -> Self {
        let table = (0..cfg.out_ports).map(PortId).collect();
        Self {
            router: Router::new(cfg, Box::new(TableRoute::new(table))),
            injectors: (0..cfg.in_ports)
                .map(|p| FlitInjector::new(PortId(p)))
                .collect(),
            ready: vec![0; words::words_for(cfg.in_ports as usize)],
            ticks: 0,
        }
    }

    fn enqueue(&mut self, port: usize, packet: Packet) {
        if self.injectors[port].is_idle() {
            words::set(&mut self.ready, port);
        }
        self.injectors[port].enqueue(packet);
    }

    /// The full scan — the loop `benchmark/src/adapter.rs`'s router kernel
    /// uses: every injector, every cycle; the popped-port words are never
    /// read.
    fn tick_all(&mut self) {
        for inj in &mut self.injectors {
            self.ticks += u64::from(!inj.is_idle());
            inj.tick(&mut self.router);
        }
    }

    /// The board's discipline: only ready injectors, ascending; one that
    /// drains or makes no progress leaves the set.
    fn tick_ready(&mut self) {
        let snapshot = self.ready.clone();
        for p in words::ones(&snapshot) {
            self.ticks += 1;
            let inj = &mut self.injectors[p];
            if !inj.tick(&mut self.router) || inj.is_idle() {
                words::clear(&mut self.ready, p);
            }
        }
    }

    /// Re-readies the non-idle injectors of every port a flit left.
    fn wake_popped(&mut self) {
        let (injectors, ready) = (&self.injectors, &mut self.ready);
        self.router.drain_popped_ports(|port| {
            if !injectors[port.index()].is_idle() {
                words::set(ready, port.index());
            }
        });
    }

    fn drained(&self) -> bool {
        self.router.buffered_flits() == 0 && self.injectors.iter().all(|i| i.is_idle())
    }

    fn state_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.router.save_state(&mut w);
        for inj in &self.injectors {
            inj.save_state(&mut w);
        }
        w.into_bytes()
    }
}

/// The referee for the event-maintained candidate sets: a rig that ticks
/// every injector every cycle and a rig that lets stalled injectors sleep
/// must be indistinguishable — same traversals every cycle, same stats,
/// same checkpoint bytes — and in both the router's live candidate words
/// must equal what `rebuild_derived` computes from scratch.
#[test]
fn sleeping_injectors_are_indistinguishable_from_the_full_scan() {
    let mut rng = Pcg32::stream(0x51EE_9E25, 0);
    // (in_ports, vcs) pinned around the one-word requester boundary
    // (63/64/65 requesters and input ports), then random small shapes.
    let pinned = [(63, 1), (16, 4), (65, 1), (13, 5), (21, 3), (64, 2)];
    let (mut full_ticks, mut sleepy_ticks) = (0u64, 0u64);
    for case in 0..40 {
        let (in_ports, vcs) = match pinned.get(case) {
            Some(&shape) => shape,
            None => (rng.range(1, 6) as u16, rng.range(1, 4) as u8),
        };
        let out_ports = rng.range(1, 8) as u16;
        let cfg = RouterConfig {
            in_ports,
            out_ports,
            vcs,
            buf_depth: if case % 3 == 0 {
                1
            } else {
                rng.range(1, 4) as usize
            },
            downstream_depth: rng.range(1, 8),
        };
        let (mut full, mut sleepy) = (Rig::new(cfg), Rig::new(cfg));
        let arrival_rate = 0.02 + 0.3 * rng.next_f64();
        let max_delay = rng.range(1, 12) as u64;
        // Credits owed: (due cycle, out port, out vc).
        let mut owed: Vec<(u64, PortId, u8)> = Vec::new();
        let mut drought_until = 0u64;
        let mut next_id = 0u64;
        let mut enqueued_flits = 0u64;
        let mut now = 0u64;
        while now < 600 || !(full.drained() && owed.is_empty()) {
            assert!(now < 60_000, "case {case}: rigs never drained");
            // A long credit drought now and then: everything due is held.
            if now < 600 && now >= drought_until && rng.bernoulli(0.01) {
                drought_until = now + rng.range(20, 150) as u64;
            }
            if now >= drought_until {
                let mut due: Vec<(PortId, u8)> = Vec::new();
                owed.retain(|&(at, port, vc)| {
                    let is_due = at <= now;
                    if is_due {
                        due.push((port, vc));
                    }
                    !is_due
                });
                due.sort_by_key(|&(port, vc)| (port.0, vc));
                // One by one on one side, batched per slot on the other.
                for &(port, vc) in &due {
                    full.router.credit(port, vc);
                }
                let mut rest = due.as_slice();
                while let Some(&slot) = rest.first() {
                    let n = rest.iter().take_while(|&&s| s == slot).count();
                    sleepy.router.credit_n(slot.0, slot.1, n as u32);
                    rest = &rest[n..];
                }
            }
            // Random multi-packet arrivals, identical on both sides.
            while now < 600 && rng.bernoulli(arrival_rate) {
                let port = rng.below(in_ports as u32) as usize;
                for _ in 0..rng.range(1, 4) {
                    let packet = Packet {
                        id: PacketId(next_id),
                        src: NodeId(port as u32),
                        dst: NodeId(rng.below(out_ports as u32)),
                        flits: rng.range(1, 6) as u16,
                        injected_at: now,
                        labelled: false,
                    };
                    next_id += 1;
                    enqueued_flits += packet.flits as u64;
                    full.enqueue(port, packet);
                    sleepy.enqueue(port, packet);
                }
            }
            full.tick_all();
            sleepy.tick_ready();
            let moved = full.router.step(now);
            assert_eq!(moved, sleepy.router.step(now), "case {case} cycle {now}");
            sleepy.wake_popped();
            assert_eq!(full.router.stats(), sleepy.router.stats());
            for (a, b) in full.injectors.iter().zip(&sleepy.injectors) {
                assert_eq!(a.injected_flits(), b.injected_flits());
            }
            for rig in [&mut full, &mut sleepy] {
                if let Err(e) = rig.router.check_derived() {
                    panic!("case {case} cycle {now}: {e}");
                }
            }
            for t in &moved {
                owed.push((
                    now + rng.range(1, max_delay as u32) as u64,
                    t.out_port,
                    t.out_vc,
                ));
            }
            now += 1;
        }
        assert!(sleepy.drained());
        assert_eq!(full.router.stats().traversed, enqueued_flits);
        assert_eq!(full.state_bytes(), sleepy.state_bytes(), "case {case}");
        full_ticks += full.ticks;
        sleepy_ticks += sleepy.ticks;
    }
    // Not vacuous: the discipline skipped a real share of the ticks.
    assert!(
        sleepy_ticks * 10 < full_ticks * 9,
        "sleep discipline ticked {sleepy_ticks} of the full scan's {full_ticks}"
    );
}
