//! The assembled virtual-channel router.
//!
//! A [`Router`] has `P` input ports and `P'` output ports, `V` virtual
//! channels per input, and per-(output, VC) credit counters toward the
//! downstream buffers. Its [`Router::step`] advances one clock cycle:
//!
//! 1. **RC** — a head flit reaching the front of an idle VC starts route
//!    computation (one cycle, Table 1).
//! 2. **VA** — VCs with a computed route request an output VC; a rotating
//!    arbiter grants at most one requester per (output, VC) per cycle (one
//!    cycle latency before the winner may bid).
//! 3. **SA** — active VCs with a buffered flit and a downstream credit bid
//!    for their output port; separable arbitration (one grant per output
//!    port, one per input port).
//! 4. **ST** — granted flits traverse the crossbar and appear in the cycle's
//!    [`Traversal`] list; tails release the output VC and reset the input
//!    VC.
//!
//! The environment owns the links: it delivers traversals (plus any channel
//! delay), returns credits with [`Router::credit`], and injects flits with
//! [`Router::inject`] after checking [`Router::can_accept`].
//!
//! ## Hot-path layout (DESIGN.md §16)
//!
//! Per-VC pipeline state lives in a flat struct-of-arrays [`VcArena`]
//! indexed by requester id `r = in_port · V + in_vc`, and every candidate
//! set the stages walk — RC-pending VCs, per-output-port VA waiters and SA
//! bidders — is a packed `u64` bitset over those ids ([`crate::words`]),
//! iterated with `trailing_zeros`. Bitset iteration is inherently
//! ascending, which is the same canonical `(port asc, vc asc)` order the
//! original slice scans used, so grants, stalls and traversal order are
//! byte-identical to the pre-bitset router. Per-output-port `u64` masks
//! (`va_ports`/`sa_ports`) let VA/SA skip 64 idle ports per word.
//!
//! Every set is *event-maintained*: a bit changes only at the event that
//! changes its defining predicate (the list is in DESIGN.md §16), never by
//! a per-cycle re-test, so a stalled VC — no flit, or no credit — costs
//! the stages nothing until the inject or credit that unstalls it.

use crate::arbiter::RoundRobinArbiter;
use crate::credit::CreditCounter;
use crate::flit::Flit;
use crate::routing::{PortId, RouteFunction};
use crate::vc::{VcArena, VcTag};
use crate::words;
use desim::Cycle;

/// Static configuration of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Input port count.
    pub in_ports: u16,
    /// Output port count.
    pub out_ports: u16,
    /// Virtual channels per input port.
    pub vcs: u8,
    /// Flit buffer depth per input VC.
    pub buf_depth: usize,
    /// Downstream buffer depth per (output, VC) — initial credit count.
    pub downstream_depth: u32,
}

/// A flit that traversed the switch this cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Traversal {
    /// Output port the flit left through.
    pub out_port: PortId,
    /// Output VC the flit occupies downstream.
    pub out_vc: u8,
    /// The flit itself.
    pub flit: Flit,
    /// Input port it came from (for upstream crediting).
    pub in_port: PortId,
    /// Input VC it came from.
    pub in_vc: u8,
}

/// Aggregate router statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Flits injected.
    pub injected: u64,
    /// Flits traversed.
    pub traversed: u64,
    /// SA bids that lost arbitration or lacked credit.
    pub sa_stalls: u64,
    /// VA requests that found no free output VC.
    pub va_stalls: u64,
}

/// The router proper.
pub struct Router {
    cfg: RouterConfig,
    /// Words per requester bitset (= `ceil(in_ports · vcs / 64)`).
    req_words: usize,
    /// All input VC state, flat SoA indexed by `r = in_port · V + in_vc`.
    arena: VcArena,
    /// Owner of each (output port, output VC), flat `out · V + out_vc`.
    out_vc_owner: Vec<Option<(u16, u8)>>,
    /// Credits toward downstream, flat `out · V + out_vc`.
    out_credits: Vec<CreditCounter>,
    /// Route function.
    route: Box<dyn RouteFunction + Send>,
    /// Per-output-port SA arbiter over (in_port × in_vc) requesters.
    sa_arbiters: Vec<RoundRobinArbiter>,
    /// Per-output-port VA arbiter over (in_port × in_vc) requesters.
    va_arbiters: Vec<RoundRobinArbiter>,
    stats: RouterStats,
    /// Flits currently buffered across all input VCs (fast-path check).
    buffered: u64,
    /// High-water mark of `buffered` since the last telemetry roll.
    buffered_peak: u64,
    /// VCs in `WaitingVc{out}` per output port: `req_words` words per port,
    /// bit `r` set ⟺ VC `r` waits for an output VC at that port. These
    /// words *are* the VA arbiter's request input — no separate bitmap is
    /// seeded and wiped.
    va_waiting: Vec<u64>,
    /// The SA stage's *bidding* set per output port (same layout): bit `r`
    /// set ⟺ VC `r` is `Active{out, out_vc, ..}` ∧ holds a buffered flit ∧
    /// `(out, out_vc)` has a credit. Kept exact by [`Router::rebid`] at the
    /// five events that can change it, so SA never re-tests flit or credit.
    sa_bidding: Vec<u64>,
    /// Output ports with any `va_waiting` bit set (one bit per port).
    va_ports: Vec<u64>,
    /// Output ports with any `sa_bidding` bit set (one bit per port).
    sa_ports: Vec<u64>,
    /// VCs with RC work pending: bit `r` set ⟺ `Idle` with a buffered
    /// head, or `Routing`. All-zero lets `step` skip the RC pass.
    rc_pending: Vec<u64>,
    /// SA scratch: request words over (in_port × in_vc), rebuilt per port.
    sa_requests: Vec<u64>,
    /// SA scratch: input ports already matched this cycle (one bit each).
    sa_input_used: Vec<u64>,
    /// Input ports a flit left (ST pop) since [`Router::drain_popped_ports`]
    /// last ran — the wake-up signal for a sleeping injector. Only ever
    /// OR-ed into, so a driver that ticks every injector every cycle may
    /// leave it unread.
    popped_ports: Vec<u64>,
}

impl Router {
    /// Builds a router.
    pub fn new(cfg: RouterConfig, route: Box<dyn RouteFunction + Send>) -> Self {
        assert!(cfg.in_ports > 0 && cfg.out_ports > 0 && cfg.vcs > 0);
        let requesters = cfg.in_ports as usize * cfg.vcs as usize;
        let out_vcs = cfg.out_ports as usize * cfg.vcs as usize;
        let req_words = words::words_for(requesters);
        let port_words = words::words_for(cfg.out_ports as usize);
        Self {
            cfg,
            req_words,
            arena: VcArena::new(requesters, cfg.buf_depth),
            out_vc_owner: vec![None; out_vcs],
            out_credits: (0..out_vcs)
                .map(|_| CreditCounter::new(cfg.downstream_depth))
                .collect(),
            route,
            sa_arbiters: (0..cfg.out_ports)
                .map(|_| RoundRobinArbiter::new(requesters))
                .collect(),
            va_arbiters: (0..cfg.out_ports)
                .map(|_| RoundRobinArbiter::new(requesters))
                .collect(),
            stats: RouterStats::default(),
            buffered: 0,
            buffered_peak: 0,
            va_waiting: vec![0; cfg.out_ports as usize * req_words],
            sa_bidding: vec![0; cfg.out_ports as usize * req_words],
            va_ports: vec![0; port_words],
            sa_ports: vec![0; port_words],
            rc_pending: vec![0; req_words],
            sa_requests: vec![0; req_words],
            sa_input_used: vec![0; words::words_for(cfg.in_ports as usize)],
            popped_ports: vec![0; words::words_for(cfg.in_ports as usize)],
        }
    }

    /// Configuration.
    pub fn config(&self) -> RouterConfig {
        self.cfg
    }

    /// Overrides the downstream buffer depth of one output port (all VCs).
    /// Different output ports feed different consumers — node sinks vs.
    /// optical transmitter queues — with different buffer depths.
    ///
    /// # Panics
    /// If any credit of that port has already been consumed.
    pub fn set_downstream_depth(&mut self, port: PortId, depth: u32) {
        let vcs = self.cfg.vcs as usize;
        let base = port.index() * vcs;
        for c in &mut self.out_credits[base..base + vcs] {
            assert_eq!(
                c.available(),
                c.max(),
                "cannot resize a port with credits in flight"
            );
            *c = CreditCounter::new(depth);
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Requester id of input `(port, vc)`.
    #[inline]
    fn rid(&self, port: PortId, vc: u8) -> usize {
        port.index() * self.cfg.vcs as usize + vc as usize
    }

    /// True when input `(port, vc)` has buffer space.
    pub fn can_accept(&self, port: PortId, vc: u8) -> bool {
        self.arena.space(self.rid(port, vc)) > 0
    }

    /// Free buffer slots at input `(port, vc)`.
    pub fn input_space(&self, port: PortId, vc: u8) -> usize {
        self.arena.space(self.rid(port, vc))
    }

    /// Injects a flit into input `(port, vc)`.
    ///
    /// # Panics
    /// If the buffer is full (callers must check [`Router::can_accept`]).
    pub fn inject(&mut self, port: PortId, vc: u8, flit: Flit) {
        let r = self.rid(port, vc);
        self.arena.push(r, flit);
        if self.arena.len(r) == 1 {
            match self.arena.tag[r] {
                // A head landing in an empty idle VC arms RC for the next cycle.
                VcTag::Idle => words::set(&mut self.rc_pending, r),
                // A body flit refilling a drained active VC may bid again.
                VcTag::Active => self.rebid(r),
                _ => {}
            }
        }
        self.stats.injected += 1;
        self.buffered += 1;
        if self.buffered > self.buffered_peak {
            self.buffered_peak = self.buffered;
        }
    }

    /// Returns one credit for `(out_port, out_vc)` — the downstream consumer
    /// freed a slot.
    pub fn credit(&mut self, out_port: PortId, out_vc: u8) {
        self.credit_n(out_port, out_vc, 1);
    }

    /// Returns `n` credits for `(out_port, out_vc)` at once — a whole
    /// packet left the downstream queue. One restore and, when the slot
    /// was starved, one bid re-derivation for its owner.
    pub fn credit_n(&mut self, out_port: PortId, out_vc: u8, n: u32) {
        let vcs = self.cfg.vcs as usize;
        let slot = out_port.index() * vcs + out_vc as usize;
        let starved = !self.out_credits[slot].can_send();
        self.out_credits[slot].restore_n(n);
        if starved {
            if let Some((p, v)) = self.out_vc_owner[slot] {
                self.rebid(p as usize * vcs + v as usize);
            }
        }
    }

    /// Calls `wake` for every input port a flit left since the last call,
    /// ascending, and forgets them. A port's input VCs are written only by
    /// its own injector and by ST, so a pop is the only event that can turn
    /// a blocked [`crate::FlitInjector::tick`] into a productive one.
    pub fn drain_popped_ports(&mut self, mut wake: impl FnMut(PortId)) {
        for p in words::ones(&self.popped_ports) {
            wake(PortId(p as u16));
        }
        self.popped_ports.iter_mut().for_each(|w| *w = 0);
    }

    /// Credits available toward `(out_port, out_vc)`.
    #[cfg(test)]
    fn credits_available(&self, out_port: PortId, out_vc: u8) -> u32 {
        self.out_credits[out_port.index() * self.cfg.vcs as usize + out_vc as usize].available()
    }

    /// Flits currently buffered in the router's input VCs.
    pub fn buffered_flits(&self) -> u64 {
        self.buffered
    }

    /// Returns the high-water mark of buffered flits since the last call (a
    /// per-window congestion gauge for the telemetry layer — one `max` in
    /// `inject`, nothing in the fast path) and restarts it from the current
    /// occupancy (called at each R_w window boundary).
    pub fn take_buffered_peak(&mut self) -> u64 {
        let peak = self.buffered_peak;
        self.buffered_peak = self.buffered;
        peak
    }

    /// Coarse heap-footprint estimate in bytes: the per-(port × VC) state
    /// that dominates the router's memory — the SoA VC arena (tags, routed
    /// ports, timers, the flit slab), output-VC owner/credit tables,
    /// arbiters and the packed bitset words. An analytic capacity ×
    /// element-size sum (not an allocator probe), comparable across
    /// configurations: the scaling bench uses it to track how the
    /// electrical domain's footprint grows with the board count.
    pub fn approx_memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let word_vecs = self.va_waiting.capacity()
            + self.sa_bidding.capacity()
            + self.va_ports.capacity()
            + self.sa_ports.capacity()
            + self.rc_pending.capacity()
            + self.sa_requests.capacity()
            + self.sa_input_used.capacity()
            + self.popped_ports.capacity();
        size_of::<Self>()
            + self.arena.approx_memory_bytes()
            + self.out_vc_owner.capacity() * size_of::<Option<(u16, u8)>>()
            + self.out_credits.capacity() * size_of::<CreditCounter>()
            + (self.sa_arbiters.capacity() + self.va_arbiters.capacity())
                * size_of::<RoundRobinArbiter>()
            + word_vecs * size_of::<u64>()
    }

    /// Serializes the router's mutable state for a checkpoint.
    ///
    /// Only pipeline state is written: input VC FIFOs and states, output
    /// VC ownership and credits, arbiter rotors, stats and occupancy
    /// counters. The derived bitset words (`va_waiting`, `sa_bidding`, the
    /// port masks and `rc_pending`) are *not* persisted — they are exact
    /// functions of the VC states, FIFOs and credits and are rebuilt on
    /// restore; a bitset is canonically ordered by construction, so the
    /// rebuild is behaviourally identical to the live words. Each VC is its
    /// FIFO in the `VecDeque` encoding (flit count, then flits oldest
    /// first), then its state ([`VcArena::save_state`]: the tag, then that
    /// tag's fields).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        w.tag(b"RTRS");
        w.usize(self.cfg.in_ports as usize);
        for r in 0..self.arena.count() {
            self.arena.save_fifo(r, w);
            self.arena.save_state(r, w);
        }
        w.usize(self.cfg.out_ports as usize);
        for owner in &self.out_vc_owner {
            owner.save(w);
        }
        for c in &self.out_credits {
            c.save_state(w);
        }
        for a in &self.sa_arbiters {
            a.save_state(w);
        }
        for a in &self.va_arbiters {
            a.save_state(w);
        }
        w.u64(self.stats.injected);
        w.u64(self.stats.traversed);
        w.u64(self.stats.sa_stalls);
        w.u64(self.stats.va_stalls);
        w.u64(self.buffered);
        w.u64(self.buffered_peak);
    }

    /// Overlays checkpointed state onto a freshly built router of the same
    /// configuration, then rebuilds the derived bitset words.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::Snap;
        r.tag(b"RTRS")?;
        r.len_eq(self.cfg.in_ports as usize, "router input ports")?;
        for i in 0..self.arena.count() {
            self.arena.load_fifo(i, r)?;
            self.arena.load_state(i, r)?;
        }
        r.len_eq(self.cfg.out_ports as usize, "router output ports")?;
        for owner in &mut self.out_vc_owner {
            *owner = Option::<(u16, u8)>::load(r)?;
        }
        for c in &mut self.out_credits {
            c.load_state(r)?;
        }
        for a in &mut self.sa_arbiters {
            a.load_state(r)?;
        }
        for a in &mut self.va_arbiters {
            a.load_state(r)?;
        }
        self.stats = RouterStats {
            injected: r.u64()?,
            traversed: r.u64()?,
            sa_stalls: r.u64()?,
            va_stalls: r.u64()?,
        };
        self.buffered = r.u64()?;
        self.buffered_peak = r.u64()?;
        self.rebuild_derived()
    }

    /// Adds VC `r` to the VA waiting set of output port `out`.
    #[inline]
    fn add_waiting(&mut self, out: usize, r: usize) {
        let base = out * self.req_words;
        words::set(&mut self.va_waiting[base..base + self.req_words], r);
        words::set(&mut self.va_ports, out);
    }

    /// Removes VC `r` from the VA waiting set, clearing the port mask bit
    /// when the set empties.
    #[inline]
    fn remove_waiting(&mut self, out: usize, r: usize) {
        let base = out * self.req_words;
        let set = &mut self.va_waiting[base..base + self.req_words];
        words::clear(set, r);
        if !words::any(set) {
            words::clear(&mut self.va_ports, out);
        }
    }

    /// Whether VC `r` bids in SA: `Active` with a buffered flit and a
    /// credit on its `(out, out_vc)`.
    #[inline]
    fn bids(&self, r: usize) -> bool {
        let slot =
            self.arena.out_port[r] as usize * self.cfg.vcs as usize + self.arena.out_vc[r] as usize;
        self.arena.tag[r] == VcTag::Active
            && self.arena.len(r) > 0
            && self.out_credits[slot].can_send()
    }

    /// Re-derives VC `r`'s membership of the bidding set of the output
    /// port it is (or, just after a tail release, was) routed to, keeping
    /// the `sa_ports` mask in step. Called at every event that can change
    /// [`Router::bids`]: `inject` into an empty active VC, a credit
    /// arriving at a starved slot, VA grant, ST pop/consume, tail release.
    #[inline]
    fn rebid(&mut self, r: usize) {
        let out = self.arena.out_port[r] as usize;
        let bids = self.bids(r);
        let base = out * self.req_words;
        let set = &mut self.sa_bidding[base..base + self.req_words];
        if bids == words::test(set, r) {
            return;
        }
        if bids {
            words::set(set, r);
            words::set(&mut self.sa_ports, out);
        } else {
            words::clear(set, r);
            if !words::any(set) {
                words::clear(&mut self.sa_ports, out);
            }
        }
    }

    /// Recomputes the derived bitset words (`va_waiting`, `sa_bidding`,
    /// the port masks, `rc_pending`) from the VC states, buffers and
    /// credits, in canonical port-ascending/VC-ascending order.
    fn rebuild_derived(&mut self) -> Result<(), desim::snap::SnapError> {
        self.va_waiting.iter_mut().for_each(|w| *w = 0);
        self.sa_bidding.iter_mut().for_each(|w| *w = 0);
        self.va_ports.iter_mut().for_each(|w| *w = 0);
        self.sa_ports.iter_mut().for_each(|w| *w = 0);
        self.rc_pending.iter_mut().for_each(|w| *w = 0);
        let out_ports = self.cfg.out_ports as usize;
        for r in 0..self.arena.count() {
            match self.arena.tag[r] {
                VcTag::Idle => {
                    if self.arena.len(r) > 0 {
                        words::set(&mut self.rc_pending, r);
                    }
                }
                VcTag::Routing => words::set(&mut self.rc_pending, r),
                VcTag::Waiting => {
                    let out = self.arena.out_port[r] as usize;
                    if out >= out_ports {
                        return Err(desim::snap::SnapError::Mismatch(format!(
                            "VC routed to out-of-range port {out}"
                        )));
                    }
                    self.add_waiting(out, r);
                }
                VcTag::Active => {
                    let out = self.arena.out_port[r] as usize;
                    if out >= out_ports || self.arena.out_vc[r] >= self.cfg.vcs {
                        return Err(desim::snap::SnapError::Mismatch(format!(
                            "active VC at out-of-range port {out} / VC {}",
                            self.arena.out_vc[r]
                        )));
                    }
                    self.rebid(r);
                }
            }
        }
        Ok(())
    }

    /// Test-support self-check: the live candidate words (`rc_pending`,
    /// `va_waiting`, `sa_bidding`, both port masks) must equal what
    /// [`Router::rebuild_derived`] computes from the arena and the credit
    /// counters. Names the first set that drifted. (On `Err` the words
    /// have been rebuilt, i.e. repaired.)
    pub fn check_derived(&mut self) -> Result<(), String> {
        let live = [
            ("rc_pending", self.rc_pending.clone()),
            ("va_waiting", self.va_waiting.clone()),
            ("sa_bidding", self.sa_bidding.clone()),
            ("va_ports", self.va_ports.clone()),
            ("sa_ports", self.sa_ports.clone()),
        ];
        self.rebuild_derived().map_err(|e| e.to_string())?;
        let rebuilt = [
            &self.rc_pending,
            &self.va_waiting,
            &self.sa_bidding,
            &self.va_ports,
            &self.sa_ports,
        ];
        for ((name, live), rebuilt) in live.iter().zip(rebuilt) {
            if live != rebuilt {
                return Err(format!(
                    "{name} drifted: live {live:x?}, rebuilt {rebuilt:x?}"
                ));
            }
        }
        Ok(())
    }

    /// Advances one cycle; returns the flits that traversed the switch.
    ///
    /// Convenience wrapper over [`Router::step_into`] that allocates a
    /// fresh result vector — fine for tests and one-off drivers; the
    /// simulation hot loop should pass a reusable buffer to `step_into`.
    pub fn step(&mut self, now: Cycle) -> Vec<Traversal> {
        let mut out = Vec::new();
        self.step_into(now, &mut out);
        out
    }

    /// Advances one cycle, appending the flits that traversed the switch
    /// to `out` (which is *not* cleared — the caller owns it).
    ///
    /// Fast path: with no buffered flits there is no RC/VA/SA work —
    /// every pipeline state either is Idle or is an Active VC waiting for
    /// its next flit — so the cycle is a no-op. All arbitration state is
    /// persistent on the router, so a steady-state cycle performs no heap
    /// allocation.
    pub fn step_into(&mut self, now: Cycle, out: &mut Vec<Traversal>) {
        if self.buffered == 0 {
            return;
        }
        self.stage_rc(now);
        self.stage_va(now);
        self.stage_sa_st(now, out);
    }

    /// RC: idle VCs with a head flit start route computation; completed
    /// computations move to WaitingVc.
    ///
    /// The pass walks `rc_pending` (bit `r` set ⟺ VC `r` is `Idle` with a
    /// buffered head, or `Routing`). Gating is exact — not an
    /// approximation — because every transition into a candidate state
    /// sets the bit, and each VC's RC decision reads only that VC's state,
    /// so skipping clear bits is indistinguishable from scanning them.
    /// Words are snapshotted before scanning: the pass only *clears* bits
    /// (`Routing` → `WaitingVc`), so the snapshot visits exactly the VCs
    /// the old full scan would have acted on, in the same ascending order.
    fn stage_rc(&mut self, now: Cycle) {
        let vcs = self.cfg.vcs as usize;
        for wi in 0..self.req_words {
            let mut bits = self.rc_pending[wi];
            while bits != 0 {
                let r = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                match self.arena.tag[r] {
                    VcTag::Idle => {
                        if let Some(front) = self.arena.front(r) {
                            let (port, vc) = (r / vcs, r % vcs);
                            assert!(
                                front.kind.is_head(),
                                "non-head flit at front of idle VC (p{port} v{vc})"
                            );
                            self.arena.tag[r] = VcTag::Routing;
                            self.arena.timer[r] = now + 1;
                        }
                    }
                    VcTag::Routing if now >= self.arena.timer[r] => {
                        let Some(front) = self.arena.front(r) else {
                            // A routing VC without a head flit is corrupt
                            // state; recover by resetting it to Idle.
                            debug_assert!(false, "routing VC lost its head flit");
                            self.arena.tag[r] = VcTag::Idle;
                            words::clear(&mut self.rc_pending, r);
                            continue;
                        };
                        let dst = front.dst;
                        let out_port = self.route.route(dst);
                        assert!(
                            out_port.index() < self.cfg.out_ports as usize,
                            "route function returned invalid port {out_port}"
                        );
                        self.arena.tag[r] = VcTag::Waiting;
                        self.arena.out_port[r] = out_port.0;
                        words::clear(&mut self.rc_pending, r);
                        self.add_waiting(out_port.index(), r);
                    }
                    _ => {}
                }
            }
        }
    }

    /// VA: WaitingVc inputs request a free output VC at their output port.
    ///
    /// Only ports with a set `va_ports` bit are visited, and the port's
    /// `va_waiting` words *are* the arbiter's request input — the winner
    /// is cleared from the set before the next grant round, which is
    /// exactly the seed-bitmap / clear-winner dance of the slice router
    /// with the copy removed.
    fn stage_va(&mut self, now: Cycle) {
        let vcs = self.cfg.vcs as usize;
        for pw in 0..self.va_ports.len() {
            let mut ports = self.va_ports[pw];
            while ports != 0 {
                let out = pw * 64 + ports.trailing_zeros() as usize;
                ports &= ports - 1;
                let owner_base = out * vcs;
                // Free output VCs at this port.
                let free = self.out_vc_owner[owner_base..owner_base + vcs]
                    .iter()
                    .filter(|o| o.is_none())
                    .count();
                let req_base = out * self.req_words;
                if free == 0 {
                    self.stats.va_stalls +=
                        words::count(&self.va_waiting[req_base..req_base + self.req_words]);
                    continue;
                }
                // Grant one output VC per arbitration round, up to the
                // number of free VCs (ascending — owners granted this
                // cycle sit at already-passed VC indices, so the dynamic
                // scan equals the old pre-built free list).
                for out_vc in 0..vcs {
                    if self.out_vc_owner[owner_base + out_vc].is_some() {
                        continue;
                    }
                    let Some(winner) = self.va_arbiters[out]
                        .arbitrate_words(&self.va_waiting[req_base..req_base + self.req_words])
                    else {
                        break;
                    };
                    self.remove_waiting(out, winner);
                    let (p, v) = (winner / vcs, winner % vcs);
                    self.out_vc_owner[owner_base + out_vc] = Some((p as u16, v as u8));
                    self.arena.tag[winner] = VcTag::Active;
                    self.arena.out_port[winner] = out as u16;
                    self.arena.out_vc[winner] = out_vc as u8;
                    self.arena.timer[winner] = now + 1;
                    self.rebid(winner);
                }
            }
        }
    }

    /// SA + ST: separable switch allocation, then traversal (appended to
    /// `traversals`).
    ///
    /// Candidates come from the per-port `sa_bidding` words — flit and
    /// credit already hold for every member — filtered per bit by the two
    /// conditions that change without an event (active-at timer, input
    /// port not yet matched this cycle) into the `sa_requests` scratch
    /// words; the request bits — and therefore the arbitration outcome,
    /// the stall stats and the traversal order — are exactly those of a
    /// full scan over every active VC.
    fn stage_sa_st(&mut self, now: Cycle, traversals: &mut Vec<Traversal>) {
        let vcs = self.cfg.vcs as usize;
        self.sa_input_used.iter_mut().for_each(|w| *w = 0);
        for pw in 0..self.sa_ports.len() {
            let mut ports = self.sa_ports[pw];
            while ports != 0 {
                let out = pw * 64 + ports.trailing_zeros() as usize;
                ports &= ports - 1;
                let req_base = out * self.req_words;
                let owner_base = out * vcs;
                let mut requesters = 0u64;
                for wi in 0..self.req_words {
                    let mut bits = self.sa_bidding[req_base + wi];
                    let mut req_word = 0u64;
                    while bits != 0 {
                        let bit = bits.trailing_zeros();
                        bits &= bits - 1;
                        let r = wi * 64 + bit as usize;
                        let p = r / vcs;
                        if words::test(&self.sa_input_used, p) {
                            continue;
                        }
                        debug_assert!(
                            self.bids(r) && self.arena.out_port[r] as usize == out,
                            "stale sa_bidding entry"
                        );
                        if now >= self.arena.timer[r] {
                            req_word |= 1u64 << bit;
                            requesters += 1;
                        }
                    }
                    self.sa_requests[wi] = req_word;
                }
                if requesters == 0 {
                    continue;
                }
                let Some(winner) = self.sa_arbiters[out].arbitrate_words(&self.sa_requests) else {
                    // Unreachable (`requesters` guaranteed one); skip the
                    // port rather than corrupting switch state.
                    debug_assert!(false, "arbitration failed with requests pending");
                    continue;
                };
                self.stats.sa_stalls += requesters - 1;
                let (p, v) = (winner / vcs, winner % vcs);
                words::set(&mut self.sa_input_used, p);
                if self.arena.tag[winner] != VcTag::Active {
                    debug_assert!(false, "SA winner was not Active");
                    continue;
                }
                let out_vc = self.arena.out_vc[winner];
                let Some(flit) = self.arena.pop(winner) else {
                    debug_assert!(false, "SA winner had no flit buffered");
                    continue;
                };
                self.buffered -= 1;
                words::set(&mut self.popped_ports, p);
                self.out_credits[owner_base + out_vc as usize].consume();
                self.stats.traversed += 1;
                if flit.kind.is_tail() {
                    // Release the output VC and return the input VC to
                    // Idle; the next head (if already buffered) starts RC
                    // next cycle.
                    self.out_vc_owner[owner_base + out_vc as usize] = None;
                    self.arena.tag[winner] = VcTag::Idle;
                    if self.arena.len(winner) > 0 {
                        // The next packet's head is already queued: RC work.
                        words::set(&mut self.rc_pending, winner);
                    }
                }
                // The pop, the consumed credit or the tail release may
                // each have ended this VC's bid.
                self.rebid(winner);
                traversals.push(Traversal {
                    out_port: PortId(out as u16),
                    out_vc,
                    flit,
                    in_port: PortId(p as u16),
                    in_vc: v as u8,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{NodeId, PacketId};
    use crate::packet::QueuedPacket;
    use crate::routing::TableRoute;

    /// 2-in, 2-out router: node 0 → port 0, node 1 → port 1.
    fn small(buf_depth: usize, downstream: u32) -> Router {
        Router::new(
            RouterConfig {
                in_ports: 2,
                out_ports: 2,
                vcs: 2,
                buf_depth,
                downstream_depth: downstream,
            },
            Box::new(TableRoute::new(vec![PortId(0), PortId(1)])),
        )
    }

    fn packet(id: u64, dst: u32, flits: u16) -> Vec<crate::flit::Flit> {
        QueuedPacket {
            id: PacketId(id),
            dst: NodeId(dst),
            flits,
            injected_at: 0,
            labelled: false,
        }
        .flitize()
    }

    /// Drives the router, injecting flits as space allows, collecting
    /// traversals, and returning credits after `credit_delay` cycles.
    fn run(
        r: &mut Router,
        mut pending: Vec<(PortId, u8, Vec<crate::flit::Flit>)>,
        cycles: Cycle,
    ) -> Vec<(Cycle, Traversal)> {
        let mut out = Vec::new();
        let mut credit_returns: Vec<(Cycle, PortId, u8)> = Vec::new();
        for now in 0..cycles {
            // Return credits due now (downstream instantly consumes).
            credit_returns.retain(|&(t, p, v)| {
                if t <= now {
                    r.credit(p, v);
                    false
                } else {
                    true
                }
            });
            for (port, vc, flits) in &mut pending {
                while !flits.is_empty() && r.can_accept(*port, *vc) {
                    let f = flits.remove(0);
                    r.inject(*port, *vc, f);
                }
            }
            for t in r.step(now) {
                credit_returns.push((now + 1, t.out_port, t.out_vc));
                out.push((now, t));
            }
        }
        out
    }

    #[test]
    fn single_packet_traverses_in_order() {
        let mut r = small(4, 4);
        let flits = packet(1, 1, 4);
        let log = run(&mut r, vec![(PortId(0), 0, flits)], 30);
        assert_eq!(log.len(), 4);
        // All to output port 1, in sequence order.
        assert!(log.iter().all(|(_, t)| t.out_port == PortId(1)));
        let seqs: Vec<u16> = log.iter().map(|(_, t)| t.flit.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        // Head needed RC (1) + VA (1) before SA: first traversal at cycle ≥ 2.
        assert!(log[0].0 >= 2, "head traversed too early at {}", log[0].0);
        assert_eq!(r.stats().traversed, 4);
        assert_eq!(r.stats().injected, 4);
    }

    #[test]
    fn buffered_peak_tracks_the_window_high_water_mark() {
        let mut r = small(4, 4);
        let flits = packet(1, 1, 4);
        // Fill one input VC: occupancy and peak both reach 4.
        for f in flits {
            r.inject(PortId(0), 0, f);
        }
        assert_eq!(r.buffered_flits(), 4);
        assert_eq!(r.buffered_peak, 4);
        // Drain completely; the peak survives until taken.
        let mut drained = 0;
        for now in 0..30 {
            let n = r.step(now).len();
            drained += n;
            for _ in 0..n {
                r.credit(PortId(1), 0);
            }
        }
        assert_eq!(drained, 4);
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(r.buffered_peak, 4);
        // Taking the peak restarts it from the current (empty) occupancy.
        assert_eq!(r.take_buffered_peak(), 4);
        assert_eq!(r.buffered_peak, 0);
    }

    #[test]
    fn single_flit_buffer_still_makes_progress() {
        // The paper's configuration: 1-flit buffers, 1 downstream slot,
        // 1-cycle credit return. Throughput is credit-limited but nonzero.
        let mut r = small(1, 1);
        let flits = packet(1, 1, 8);
        let log = run(&mut r, vec![(PortId(0), 0, flits)], 100);
        assert_eq!(log.len(), 8, "all 8 flits must eventually traverse");
        let seqs: Vec<u16> = log.iter().map(|(_, t)| t.flit.seq).collect();
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn two_flows_to_different_outputs_do_not_interfere() {
        let mut r = small(4, 8);
        let a = packet(1, 0, 4);
        let b = packet(2, 1, 4);
        let log = run(&mut r, vec![(PortId(0), 0, a), (PortId(1), 0, b)], 40);
        assert_eq!(log.len(), 8);
        let to0 = log.iter().filter(|(_, t)| t.out_port == PortId(0)).count();
        let to1 = log.iter().filter(|(_, t)| t.out_port == PortId(1)).count();
        assert_eq!((to0, to1), (4, 4));
    }

    #[test]
    fn two_flows_share_one_output_fairly() {
        let mut r = small(4, 8);
        let a = packet(1, 1, 6);
        let b = packet(2, 1, 6);
        // Different input ports, same destination.
        let log = run(&mut r, vec![(PortId(0), 0, a), (PortId(1), 0, b)], 100);
        assert_eq!(log.len(), 12);
        // Output port serialises: no cycle emits two flits on port 1.
        let mut cycles_seen = std::collections::HashSet::new();
        for (c, t) in &log {
            assert_eq!(t.out_port, PortId(1));
            assert!(
                cycles_seen.insert(*c),
                "two flits on one output in cycle {c}"
            );
        }
        // Per-packet flit order is preserved.
        for pid in [1u64, 2] {
            let seqs: Vec<u16> = log
                .iter()
                .filter(|(_, t)| t.flit.packet == PacketId(pid))
                .map(|(_, t)| t.flit.seq)
                .collect();
            assert_eq!(seqs, (0..6).collect::<Vec<_>>());
        }
    }

    #[test]
    fn vcs_interleave_packets_on_one_input() {
        let mut r = small(4, 8);
        let a = packet(1, 1, 4);
        let b = packet(2, 0, 4);
        let log = run(&mut r, vec![(PortId(0), 0, a), (PortId(0), 1, b)], 100);
        assert_eq!(log.len(), 8);
        // One input port: at most one traversal per cycle overall.
        let mut cycles_seen = std::collections::HashSet::new();
        for (c, _) in &log {
            assert!(cycles_seen.insert(*c));
        }
    }

    #[test]
    fn no_credit_no_traversal() {
        let mut r = small(4, 1);
        let flits = packet(1, 1, 2);
        for f in flits {
            r.inject(PortId(0), 0, f);
        }
        // Step without ever returning credits: only 1 flit (the single
        // downstream slot) may traverse.
        let mut count = 0;
        for now in 0..20 {
            count += r.step(now).len();
        }
        assert_eq!(count, 1);
        assert_eq!(r.credits_available(PortId(1), 0), 0);
        // Returning the credit unblocks the tail.
        r.credit(PortId(1), 0);
        let mut more = 0;
        for now in 20..30 {
            more += r.step(now).len();
        }
        assert_eq!(more, 1);
    }

    #[test]
    fn tail_releases_output_vc() {
        let mut r = small(4, 8);
        let a = packet(1, 1, 2);
        let log = run(&mut r, vec![(PortId(0), 0, a)], 20);
        assert_eq!(log.len(), 2);
        // After the tail, every output VC is free again.
        assert!(r.out_vc_owner.iter().all(Option::is_none));
        // A second packet reuses the VC.
        let b = packet(2, 1, 2);
        let log2 = run(&mut r, vec![(PortId(0), 0, b)], 20);
        assert_eq!(log2.len(), 2);
    }

    #[test]
    fn port_occupancy_reflects_buffers() {
        let mut r = small(2, 1);
        let flit = packet(1, 1, 1).remove(0);
        r.inject(PortId(0), 0, flit);
        assert_eq!(r.arena.len(0), 1);
        assert_eq!(r.input_space(PortId(0), 0), 1);
    }

    #[test]
    #[should_panic(expected = "non-head flit")]
    fn body_flit_first_is_a_protocol_error() {
        let mut r = small(4, 4);
        let mut flits = packet(1, 1, 3);
        let body = flits.remove(1);
        r.inject(PortId(0), 0, body);
        r.step(0);
    }

    #[test]
    fn per_port_downstream_depth() {
        let mut r = small(4, 1);
        r.set_downstream_depth(PortId(1), 16);
        assert_eq!(r.credits_available(PortId(1), 0), 16);
        assert_eq!(r.credits_available(PortId(0), 0), 1);
        // A whole 8-flit packet now flows without credit returns.
        let flits = packet(1, 1, 8);
        let log = run(&mut r, vec![(PortId(0), 0, flits)], 40);
        assert_eq!(log.len(), 8);
    }

    #[test]
    fn stats_accumulate() {
        let mut r = small(4, 8);
        let a = packet(1, 1, 4);
        let b = packet(2, 1, 4);
        run(&mut r, vec![(PortId(0), 0, a), (PortId(1), 0, b)], 100);
        let s = r.stats();
        assert_eq!(s.injected, 8);
        assert_eq!(s.traversed, 8);
        assert!(s.sa_stalls > 0, "two flows into one port must conflict");
    }

    #[test]
    fn snapshot_bytes_are_pinned_for_every_vc_state() {
        // Two inputs x three VCs, one downstream slot per output VC and no
        // credit ever returned: three packets hold output 1's three VCs
        // (Active), a fourth waits for one (WaitingVc), a fifth has just
        // started route computation (Routing) and one VC stays Idle. The
        // digest of `save_state` pins the router's snapshot bytes.
        let mut r = Router::new(
            RouterConfig {
                in_ports: 2,
                out_ports: 2,
                vcs: 3,
                buf_depth: 4,
                downstream_depth: 1,
            },
            Box::new(TableRoute::new(vec![PortId(0), PortId(1)])),
        );
        for (port, vc, id) in [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4)] {
            for f in packet(id, 1, 4) {
                r.inject(PortId(port), vc, f);
            }
        }
        for now in 0..6 {
            r.step(now);
        }
        for f in packet(5, 0, 2) {
            r.inject(PortId(1), 2, f);
        }
        r.step(6);
        for tag in [VcTag::Idle, VcTag::Routing, VcTag::Waiting, VcTag::Active] {
            assert!(r.arena.tag.contains(&tag), "no VC is {tag:?}");
        }
        let mut w = desim::snap::SnapWriter::new();
        r.save_state(&mut w);
        assert_eq!(desim::snap::fnv1a(&w.into_bytes()), 0xc9a2_6c4e_b1e7_a0ff);
    }
}
