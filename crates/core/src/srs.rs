//! The Scalable Remote Optical Super-Highway (SRS).
//!
//! Owns the wavelength ownership map (which source board may light
//! wavelength `w` toward destination board `d`), the bank of optical
//! channels, in-flight packet arrivals, and the per-channel DPM/DBR state
//! machines (pending retunes and pending grants). The WDM invariant — at
//! most one lit laser per (destination, wavelength) — is enforced here: a
//! granted channel only lights after the donor's laser is dark.

use crate::txqueue::ReadyPacket;
use desim::queue::BinaryHeapQueue;
use desim::Cycle;
use erapid_telemetry::{TraceEvent, TraceSink};
use photonics::bitrate::{RateLadder, RateLevel};
use photonics::channel::{ChannelState, OpticalChannel};
use photonics::power::LinkPowerModel;
use photonics::rwa::StaticRwa;
use photonics::serdes::Serdes;
use photonics::wavelength::{BoardId, Wavelength};
use reconfig::msg::WavelengthGrant;
use std::sync::Arc;

/// A packet arriving at a destination board's receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Destination board.
    pub dst_board: u16,
    /// Wavelength it arrived on.
    pub wavelength: u16,
    /// Source board.
    pub src_board: u16,
    /// The packet.
    pub packet: ReadyPacket,
}

/// One in-flight ownership transfer.
#[derive(Debug, Clone, Copy)]
struct PendingGrant {
    grant: WavelengthGrant,
    donor_dark: bool,
}

impl desim::snap::Snap for Arrival {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.u16(self.dst_board);
        w.u16(self.wavelength);
        w.u16(self.src_board);
        self.packet.save(w);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        Ok(Self {
            dst_board: r.u16()?,
            wavelength: r.u16()?,
            src_board: r.u16()?,
            packet: ReadyPacket::load(r)?,
        })
    }
}

impl desim::snap::Snap for PendingGrant {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        self.grant.save(w);
        w.bool(self.donor_dark);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        Ok(Self {
            grant: WavelengthGrant::load(r)?,
            donor_dark: r.bool()?,
        })
    }
}

/// The optical stage.
pub struct Srs {
    boards: u16,
    wavelengths: u16,
    /// `owner[d][w]` — board allowed to light `w` toward `d`.
    owner: Vec<Vec<Option<u16>>>,
    /// Sorted wavelengths owned per `(s·B + d)` flow — the mirror of
    /// `owner` that lets `try_transmit` scan only lit wavelengths.
    /// Maintained exclusively through [`Srs::set_owner`]; ascending order
    /// reproduces the legacy full `0..W` scan exactly.
    owned: Vec<Vec<u16>>,
    /// Dense channel bank indexed by `(s·B + d)·W + w`.
    channels: Vec<OpticalChannel>,
    /// Window length (`R_w`) for the link-utilization spans.
    window: Cycle,
    /// Per-channel `Link_util` of the last completed window (what the LS
    /// protocol reads). Busy time is integrated from serialization spans
    /// instead of per-cycle sampling; the division at the roll reproduces
    /// the eager `Σ 1.0 / window` bits exactly (integer-valued f64 sum).
    link_prev: Vec<f64>,
    /// Busy cycles accumulated in the running window (closed spans).
    win_busy: Vec<Cycle>,
    /// Open serialization span per channel: `busy_open` guards
    /// `busy_start` (first unaccounted busy cycle) and `busy_cap`
    /// (serialization end, exclusive).
    busy_open: Vec<bool>,
    busy_start: Vec<Cycle>,
    busy_cap: Vec<Cycle>,
    /// Serialization-end wake queue: channel indices keyed by their
    /// `Sending` `until`, so `tick` settles only channels whose packet
    /// actually ended instead of scanning the whole bank.
    wake: BinaryHeapQueue<usize>,
    /// Sorted channel indices with a pending retune/relock — the only
    /// slots `tick` visits. Ascending index order is the legacy full-scan
    /// order, so trace-event order is preserved. Stale entries (slot
    /// cleared by a fault/grant) are dropped on the next sweep.
    retune_queue: Vec<usize>,
    relock_queue: Vec<usize>,
    /// Total laser power changes only on state/level/ownership edges;
    /// between edges `record_cycle` returns this cached sum (recomputed
    /// in the legacy `(d asc, w asc)` order, so the bits match).
    power_dirty: bool,
    power_cache: f64,
    arrivals: BinaryHeapQueue<Arrival>,
    pending_grants: Vec<PendingGrant>,
    /// Per-channel pending DPM retune: `(target level, penalty)`.
    pending_retune: Vec<Option<(RateLevel, Cycle)>>,
    power_model: LinkPowerModel,
    /// Receiver lock-in penalty charged when a granted channel lights.
    lock_penalty: Cycle,
    /// Failed (destination, wavelength) pairs: the demux/receiver is dead,
    /// nobody can use the wavelength toward that board any more.
    failed: Vec<(u16, u16)>,
    /// Failed (source, destination) transmitter groups: `s`'s lasers
    /// toward `d` cannot light. Ownership is retained so repair restores
    /// service.
    failed_tx: Vec<(u16, u16)>,
    /// Per-channel stuck-LC flags: DPM retunes are silently dropped.
    stuck_lc: Vec<bool>,
    /// Per-channel pending CDR relock penalty, applied once the channel is
    /// between packets.
    pending_relock: Vec<Option<Cycle>>,
    /// The static RWA (used to restore ownership on receiver repair).
    rwa: StaticRwa,
    /// Lifetime counters.
    grants_applied: u64,
    retunes_applied: u64,
    relocks_applied: u64,
}

impl Srs {
    /// Builds the SRS with static RWA ownership, all static channels on at
    /// the ladder's highest level.
    pub fn new(
        boards: u16,
        ladder: RateLadder,
        serdes: Serdes,
        fiber_delay: Cycle,
        power_model: LinkPowerModel,
        window: Cycle,
        lock_penalty: Cycle,
    ) -> Self {
        let w_count = boards;
        let rwa = StaticRwa::new(boards);
        let owner = vec![vec![None; w_count as usize]; boards as usize];
        let n = (boards as usize).pow(2) * w_count as usize;
        let ladder = Arc::new(ladder);
        let mut channels = Vec::with_capacity(n);
        for s in 0..boards {
            for d in 0..boards {
                for w in 0..w_count {
                    channels.push(OpticalChannel::new(
                        BoardId(s),
                        BoardId(d),
                        Wavelength(w),
                        Arc::clone(&ladder),
                        serdes,
                        fiber_delay,
                    ));
                }
            }
        }
        let mut srs = Self {
            boards,
            wavelengths: w_count,
            owner,
            owned: vec![Vec::new(); (boards as usize).pow(2)],
            channels,
            window,
            link_prev: vec![0.0; n],
            win_busy: vec![0; n],
            busy_open: vec![false; n],
            busy_start: vec![0; n],
            busy_cap: vec![0; n],
            wake: BinaryHeapQueue::with_capacity(boards as usize * w_count as usize),
            retune_queue: Vec::new(),
            relock_queue: Vec::new(),
            power_dirty: true,
            power_cache: 0.0,
            // At most one packet is in flight per (source, wavelength), so
            // this pre-sizing makes arrival pushes allocation-free.
            arrivals: BinaryHeapQueue::with_capacity(boards as usize * w_count as usize),
            pending_grants: Vec::new(),
            pending_retune: vec![None; n],
            power_model,
            lock_penalty,
            failed: Vec::new(),
            failed_tx: Vec::new(),
            stuck_lc: vec![false; n],
            pending_relock: vec![None; n],
            rwa,
            grants_applied: 0,
            retunes_applied: 0,
            relocks_applied: 0,
        };
        // Static RWA: one lit laser per (destination, remote wavelength).
        for d in 0..boards {
            for w in 1..w_count {
                let s = srs.rwa.static_owner(BoardId(d), Wavelength(w));
                srs.set_owner(0, d, w, Some(s.0));
                srs.channel_mut(s.0, d, w).power_on();
            }
        }
        srs
    }

    fn idx(&self, s: u16, d: u16, w: u16) -> usize {
        ((s as usize * self.boards as usize) + d as usize) * self.wavelengths as usize + w as usize
    }

    /// Inverse of [`Srs::idx`]: `(source, destination, wavelength)` of a
    /// dense channel index (used to stamp trace events).
    fn coords(&self, i: usize) -> (u16, u16, u16) {
        let w = i % self.wavelengths as usize;
        let sd = i / self.wavelengths as usize;
        let d = sd % self.boards as usize;
        let s = sd / self.boards as usize;
        (s as u16, d as u16, w as u16)
    }

    fn flow(&self, s: u16, d: u16) -> usize {
        s as usize * self.boards as usize + d as usize
    }

    /// The single mutation point for the ownership map: updates `owner`,
    /// the per-flow sorted `owned` mirror, closes the de-owned channel's
    /// busy span at `now` (the eager per-cycle sampler stopped counting a
    /// channel the moment its owner changed), and invalidates the power
    /// cache.
    fn set_owner(&mut self, now: Cycle, d: u16, w: u16, new: Option<u16>) {
        let old = self.owner[d as usize][w as usize];
        if old == new {
            return;
        }
        if let Some(s) = old {
            let f = self.flow(s, d);
            if let Ok(p) = self.owned[f].binary_search(&w) {
                self.owned[f].remove(p);
            }
            let i = self.idx(s, d, w);
            self.close_busy(i, now);
        }
        if let Some(s) = new {
            let f = self.flow(s, d);
            if let Err(p) = self.owned[f].binary_search(&w) {
                self.owned[f].insert(p, w);
            }
        }
        self.owner[d as usize][w as usize] = new;
        self.power_dirty = true;
    }

    /// Inserts `i` into a sorted pending-work queue (no duplicates).
    fn queue_push(queue: &mut Vec<usize>, i: usize) {
        if let Err(p) = queue.binary_search(&i) {
            queue.insert(p, i);
        }
    }

    /// The channel for `(source, destination, wavelength)`.
    pub fn channel(&self, s: u16, d: u16, w: u16) -> &OpticalChannel {
        &self.channels[self.idx(s, d, w)]
    }

    fn channel_mut(&mut self, s: u16, d: u16, w: u16) -> &mut OpticalChannel {
        let i = self.idx(s, d, w);
        &mut self.channels[i]
    }

    /// Current owner of wavelength `w` toward destination `d`.
    pub fn owner(&self, d: u16, w: u16) -> Option<u16> {
        self.owner[d as usize][w as usize]
    }

    /// Wavelengths board `s` currently owns toward destination `d`
    /// (ascending — the maintained mirror of the ownership map).
    pub fn owned_wavelengths(&self, s: u16, d: u16) -> Vec<u16> {
        self.owned[self.flow(s, d)].clone()
    }

    /// Lifetime `(grants, retunes)` applied.
    pub fn reconfig_counts(&self) -> (u64, u64) {
        (self.grants_applied, self.retunes_applied)
    }

    /// Number of lasers currently on.
    pub fn lasers_on(&self) -> usize {
        self.channels.iter().filter(|c| c.is_on()).count()
    }

    /// True when the receiver for wavelength `w` at board `d` has failed.
    pub fn is_failed(&self, d: u16, w: u16) -> bool {
        self.failed.contains(&(d, w))
    }

    /// Fault injection: the receiver/demux for wavelength `w` at board `d`
    /// dies. The owning laser (if any) goes dark as soon as it is idle and
    /// the wavelength is withdrawn from the ownership map — DBR can no
    /// longer grant it, and the orphaned flow must win a different
    /// wavelength through its queue demand.
    ///
    /// Any packet already serializing or on the fiber still arrives (the
    /// photons left before the failure); packets that would *start* after
    /// `now` cannot.
    ///
    /// Emits a [`TraceEvent::Revoke`] for the withdrawn wavelength when
    /// one was in service.
    pub fn fail_receiver(&mut self, now: Cycle, d: u16, w: u16, sink: &mut dyn TraceSink) {
        if self.is_failed(d, w) {
            return;
        }
        self.failed.push((d, w));
        if let Some(owner) = self.owner[d as usize][w as usize] {
            if sink.enabled() {
                sink.emit(
                    now,
                    TraceEvent::Revoke {
                        dest: d,
                        wavelength: w,
                        owner,
                    },
                );
            }
        }
        if let Some(s) = self.owner[d as usize][w as usize] {
            self.set_owner(now, d, w, None);
            let i = self.idx(s, d, w);
            self.pending_retune[i] = None;
            self.power_dirty = true;
            let c = &mut self.channels[i];
            c.settle(now);
            if c.is_on() && c.can_send(now) {
                c.power_off(now);
            } else if c.is_on() {
                // Mid-packet: schedule the shutdown through the grant
                // machinery's donor path by marking a self-grant-free
                // pending power-off.
                self.pending_grants.push(PendingGrant {
                    grant: WavelengthGrant {
                        destination: BoardId(d),
                        wavelength: Wavelength(w),
                        from: BoardId(s),
                        // A failed wavelength has no recipient: `to` is the
                        // donor itself, and the relight is suppressed by
                        // the failure check in `tick`.
                        to: BoardId(s),
                    },
                    donor_dark: false,
                });
            }
        }
        // Any in-flight ownership transfer on the dead wavelength becomes a
        // donor-only shutdown: the donor still darkens, but the recipient's
        // relight is suppressed (tick skips failed pairs).
        for pg in &mut self.pending_grants {
            if pg.grant.destination.0 == d && pg.grant.wavelength.0 == w {
                pg.grant.to = pg.grant.from;
            }
        }
    }

    /// Fault repair: the receiver/demux for wavelength `w` at board `d`
    /// recovers. Ownership reverts to the static RWA owner and its laser
    /// re-lights through a fresh receiver lock-in window, after which DBR
    /// may grant the wavelength away again.
    pub fn repair_receiver(&mut self, now: Cycle, d: u16, w: u16) {
        let Some(pos) = self.failed.iter().position(|&p| p == (d, w)) else {
            return; // never failed (or already repaired): nothing to do
        };
        self.failed.swap_remove(pos);
        let s = self.rwa.static_owner(BoardId(d), Wavelength(w)).0;
        self.set_owner(now, d, w, Some(s));
        // A shutdown still draining from the failure becomes a re-light:
        // once the old laser darkens, the static owner comes back up (with
        // its lock-in penalty) instead of staying dark.
        let mut handover = false;
        for pg in &mut self.pending_grants {
            if pg.grant.destination.0 == d && pg.grant.wavelength.0 == w {
                pg.grant.to = BoardId(s);
                handover = true;
            }
        }
        if !handover && !self.channel(s, d, w).is_on() && !self.is_tx_failed(s, d) {
            let lock = self.lock_penalty;
            self.channel_mut(s, d, w).power_on_dark(now, lock);
        }
    }

    /// True when board `s`'s transmitters toward `d` have failed.
    pub fn is_tx_failed(&self, s: u16, d: u16) -> bool {
        self.failed_tx.contains(&(s, d))
    }

    /// Fault injection: board `s`'s transmitters toward `d` die. Owned
    /// lasers darken once idle; in-flight packets still land. Ownership is
    /// retained so [`Srs::repair_transmitter`] restores service.
    /// Emits a [`TraceEvent::Revoke`] per owned wavelength taken out of
    /// service.
    pub fn fail_transmitter(&mut self, now: Cycle, s: u16, d: u16, sink: &mut dyn TraceSink) {
        if self.is_tx_failed(s, d) {
            return;
        }
        self.failed_tx.push((s, d));
        for w in self.owned_wavelengths(s, d) {
            if sink.enabled() {
                sink.emit(
                    now,
                    TraceEvent::Revoke {
                        dest: d,
                        wavelength: w,
                        owner: s,
                    },
                );
            }
            let i = self.idx(s, d, w);
            self.pending_retune[i] = None;
            self.pending_relock[i] = None;
            self.power_dirty = true;
            let c = &mut self.channels[i];
            c.settle(now);
            if c.is_on() && c.can_send(now) {
                c.power_off(now);
            } else if c.is_on() {
                // Mid-packet: darken through the grant machinery once the
                // wavelength clears (relight suppressed by `is_tx_failed`).
                self.pending_grants.push(PendingGrant {
                    grant: WavelengthGrant {
                        destination: BoardId(d),
                        wavelength: Wavelength(w),
                        from: BoardId(s),
                        to: BoardId(s),
                    },
                    donor_dark: false,
                });
            }
        }
    }

    /// Fault repair: board `s`'s transmitters toward `d` recover; every
    /// owned wavelength whose receiver is alive re-lights through a lock-in
    /// window.
    pub fn repair_transmitter(&mut self, now: Cycle, s: u16, d: u16) {
        let Some(pos) = self.failed_tx.iter().position(|&p| p == (s, d)) else {
            return;
        };
        self.failed_tx.swap_remove(pos);
        // Cancel shutdowns still pending from the failure: those channels
        // are lit and may simply keep running.
        self.pending_grants.retain(|pg| {
            !(pg.grant.destination.0 == d && pg.grant.from == pg.grant.to && pg.grant.from.0 == s)
        });
        let lock = self.lock_penalty;
        for w in self.owned_wavelengths(s, d) {
            if !self.is_failed(d, w) && !self.channel(s, d, w).is_on() {
                self.channel_mut(s, d, w).power_on_dark(now, lock);
                self.power_dirty = true;
            }
        }
    }

    /// Fault injection: the LC of channel `(s → d, w)` wedges at its
    /// current power level. Pending and future DPM retunes are dropped
    /// until [`Srs::unstick_lc`].
    pub fn stick_lc(&mut self, s: u16, d: u16, w: u16) {
        let i = self.idx(s, d, w);
        self.stuck_lc[i] = true;
        self.pending_retune[i] = None;
    }

    /// Fault repair: the stuck LC recovers; the next DPM decision can
    /// retune the channel again.
    pub fn unstick_lc(&mut self, s: u16, d: u16, w: u16) {
        let i = self.idx(s, d, w);
        self.stuck_lc[i] = false;
    }

    /// True when the LC of channel `(s → d, w)` is stuck.
    pub fn is_lc_stuck(&self, s: u16, d: u16, w: u16) -> bool {
        self.stuck_lc[self.idx(s, d, w)]
    }

    /// Fault injection: the receiver CDR of channel `(s → d, w)` loses
    /// lock. The channel goes dark for `penalty` cycles as soon as it is
    /// between packets (in-flight photons still land). Inert on a dark
    /// channel.
    pub fn schedule_relock(&mut self, s: u16, d: u16, w: u16, penalty: Cycle) {
        let i = self.idx(s, d, w);
        if self.channels[i].is_on() {
            self.pending_relock[i] = Some(penalty);
            Self::queue_push(&mut self.relock_queue, i);
        }
    }

    /// CDR relock events actually applied (storm observability).
    pub fn relocks_applied(&self) -> u64 {
        self.relocks_applied
    }

    /// Closes the open busy span on channel `i` at `at` (clamped to the
    /// serialization end), folding its cycles into the running window.
    /// A span closed at its own start cycle contributes nothing — exactly
    /// the eager sampler, which never saw the channel busy.
    fn close_busy(&mut self, i: usize, at: Cycle) {
        if !self.busy_open[i] {
            return;
        }
        let end = self.busy_cap[i].min(at);
        if end > self.busy_start[i] {
            self.win_busy[i] += end - self.busy_start[i];
        }
        self.busy_open[i] = false;
    }

    /// Tries to transmit `packet` from board `s` to board `d` on any free
    /// owned channel, returning the wavelength used. The serialization-end
    /// wake and the fiber arrival go straight into their heaps: the cycle
    /// calls this board-ascending, and each [`BinaryHeapQueue`] breaks time
    /// ties by insertion sequence, so that call order *is* the pop order
    /// the pins were recorded against (DESIGN.md §12).
    pub(crate) fn try_transmit(
        &mut self,
        now: Cycle,
        s: u16,
        d: u16,
        packet: ReadyPacket,
    ) -> Option<u16> {
        if self.is_tx_failed(s, d) {
            return None;
        }
        let base = self.idx(s, d, 0);
        // Scan only owned wavelengths; ascending order matches the legacy
        // full `0..W` scan over the ownership map.
        let w = self.owned[self.flow(s, d)].iter().copied().find(|&w| {
            let i = base + w as usize;
            // A channel with a pending retune must not start a packet:
            // the retune would never get a free window under load.
            self.channels[i].can_send(now) && self.pending_retune[i].is_none()
        })?;
        let i = base + w as usize;
        // Back-to-back reuse exactly at the previous packet's end: its
        // wake entry has not fired yet, so close its span here first.
        debug_assert!(
            !self.busy_open[i] || self.busy_cap[i] <= now,
            "span open past serialization"
        );
        self.close_busy(i, self.busy_cap[i]);
        let arrive_at = self.channels[i].begin_packet(now, packet.flits as u32);
        let Some(until) = self.channels[i].sending_until() else {
            unreachable!("begin_packet leaves the channel Sending")
        };
        self.wake.insert(until, i);
        self.busy_open[i] = true;
        self.busy_start[i] = now;
        self.busy_cap[i] = until;
        self.power_dirty = true;
        self.arrivals.insert(
            arrive_at,
            Arrival {
                dst_board: d,
                wavelength: w,
                src_board: s,
                packet,
            },
        );
        Some(w)
    }

    /// Packets still in flight in the optical domain (serializing or on
    /// the fiber).
    pub fn arrivals_pending(&self) -> usize {
        self.arrivals.len()
    }

    /// Pops the next packet that has fully arrived by `now`, if any — the
    /// allocation-free form the cycle loop drains arrivals with.
    pub fn pop_arrival_due(&mut self, now: Cycle) -> Option<Arrival> {
        match self.arrivals.peek_time() {
            Some(t) if t <= now => self.arrivals.pop().map(|(_, a)| a),
            _ => None,
        }
    }

    /// All packets that have fully arrived by `now` (allocating wrapper
    /// over [`Srs::pop_arrival_due`], for tests and inspection).
    pub fn arrivals_due(&mut self, now: Cycle) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some(arr) = self.pop_arrival_due(now) {
            out.push(arr);
        }
        out
    }

    /// Schedules a DPM retune for channel `(s,d,w)`; applied as soon as the
    /// wavelength is free.
    pub fn schedule_retune(&mut self, s: u16, d: u16, w: u16, level: RateLevel, penalty: Cycle) {
        let i = self.idx(s, d, w);
        if self.stuck_lc[i] {
            // A wedged LC silently drops the retune command.
            return;
        }
        if self.channels[i].level() != level {
            self.pending_retune[i] = Some((level, penalty));
            Self::queue_push(&mut self.retune_queue, i);
        }
    }

    /// Schedules DBR ownership transfers (already delayed by the protocol
    /// latency — the caller passes decisions at their apply time).
    /// Emits a [`TraceEvent::Grant`] per accepted ownership flip, stamped
    /// `now` (grants dropped by the failure race produce no event).
    pub fn schedule_grants(
        &mut self,
        now: Cycle,
        grants: &[WavelengthGrant],
        sink: &mut dyn TraceSink,
    ) {
        for &grant in grants {
            if self.is_failed(grant.destination.0, grant.wavelength.0)
                || self.is_tx_failed(grant.to.0, grant.destination.0)
            {
                // A decision raced with a failure (dead receiver, or a
                // recipient that cannot light a laser); drop it.
                continue;
            }
            // Ownership flips immediately (the Board Response told everyone);
            // the physical laser swap completes over the next cycles.
            let d = grant.destination.0;
            let w = grant.wavelength.0;
            debug_assert_eq!(self.owner[d as usize][w as usize], Some(grant.from.0));
            self.set_owner(now, d, w, Some(grant.to.0));
            if sink.enabled() {
                sink.emit(
                    now,
                    TraceEvent::Grant {
                        dest: d,
                        wavelength: w,
                        from: grant.from.0,
                        to: grant.to.0,
                    },
                );
            }
            // Cancel any pending retune on the donor channel.
            let di = self.idx(grant.from.0, d, w);
            self.pending_retune[di] = None;
            self.pending_grants.push(PendingGrant {
                grant,
                donor_dark: false,
            });
            self.grants_applied += 1;
        }
    }

    /// Per-cycle housekeeping: settle channels, complete retunes and
    /// ownership transfers.
    ///
    /// Emits [`TraceEvent::RelockStart`]/
    /// [`TraceEvent::RelockEnd`] when a CDR relock engages (the end event
    /// is stamped `now + penalty` — the blackout span is deterministic) and
    /// [`TraceEvent::DpmApplied`] when a pending retune takes effect.
    pub fn tick(&mut self, now: Cycle, sink: &mut dyn TraceSink) {
        // Settle channels whose serialization has ended (event-driven
        // replacement for the legacy settle-every-channel scan). Channels
        // left in a stale `Transitioning{until ≤ now}` state are
        // observationally identical to settled-`Idle` ones — `is_on`,
        // `can_send`, and the power accounting all agree — so only
        // `Sending` ends need wakes. A stale wake (the channel started a
        // new packet at exactly its old `until`) settles harmlessly.
        while self.wake.peek_time().is_some_and(|t| t <= now) {
            let Some((_, i)) = self.wake.pop() else {
                break;
            };
            self.channels[i].settle(now);
            if self.busy_cap[i] <= now {
                let cap = self.busy_cap[i];
                self.close_busy(i, cap);
            }
            self.power_dirty = true;
        }
        // Apply pending CDR relocks on idle channels: the laser stays up
        // but the link is unusable until the receiver re-locks — modeled
        // as a dark window of the relock penalty. Only queued slots are
        // visited; ascending index order is the legacy scan order.
        let mut k = 0;
        while k < self.relock_queue.len() {
            let i = self.relock_queue[k];
            let mut keep = false;
            if let Some(penalty) = self.pending_relock[i] {
                let c = &mut self.channels[i];
                if c.is_on() && c.can_send(now) {
                    c.power_off(now);
                    c.power_on_dark(now, penalty);
                    self.pending_relock[i] = None;
                    self.relocks_applied += 1;
                    self.power_dirty = true;
                    if sink.enabled() {
                        let (src, dest, wavelength) = self.coords(i);
                        sink.emit(
                            now,
                            TraceEvent::RelockStart {
                                src,
                                dest,
                                wavelength,
                                penalty,
                            },
                        );
                        sink.emit(
                            now + penalty,
                            TraceEvent::RelockEnd {
                                src,
                                dest,
                                wavelength,
                            },
                        );
                    }
                } else if !c.is_on() {
                    self.pending_relock[i] = None;
                } else {
                    keep = true;
                }
            }
            if keep {
                k += 1;
            } else {
                self.relock_queue.remove(k);
            }
        }
        // Apply pending retunes on idle channels (same sweep discipline).
        let mut k = 0;
        while k < self.retune_queue.len() {
            let i = self.retune_queue[k];
            let mut keep = false;
            if let Some((level, penalty)) = self.pending_retune[i] {
                let c = &mut self.channels[i];
                if c.is_on() && c.can_send(now) {
                    c.begin_transition(now, level, penalty);
                    self.pending_retune[i] = None;
                    self.retunes_applied += 1;
                    self.power_dirty = true;
                    if sink.enabled() {
                        let (src, dest, wavelength) = self.coords(i);
                        sink.emit(
                            now,
                            TraceEvent::DpmApplied {
                                src,
                                dest,
                                wavelength,
                                level: level.0,
                            },
                        );
                    }
                } else if !c.is_on() {
                    self.pending_retune[i] = None;
                } else {
                    keep = true;
                }
            }
            if keep {
                k += 1;
            } else {
                self.retune_queue.remove(k);
            }
        }
        // Progress ownership transfers: donor darkens, then recipient lights.
        let lock = self.lock_penalty;
        let mut j = 0;
        while j < self.pending_grants.len() {
            let pg = self.pending_grants[j];
            let (d, w) = (pg.grant.destination.0, pg.grant.wavelength.0);
            if !pg.donor_dark {
                let di = self.idx(pg.grant.from.0, d, w);
                let donor = &mut self.channels[di];
                donor.settle(now);
                if !donor.is_on() {
                    self.pending_grants[j].donor_dark = true;
                } else if donor.can_send(now) {
                    donor.power_off(now);
                    self.pending_grants[j].donor_dark = true;
                    self.power_dirty = true;
                }
            }
            if self.pending_grants[j].donor_dark {
                // A failed wavelength (dead receiver or dead transmitter
                // group) never relights; a repaired one relights its
                // retargeted recipient even when that is the donor itself.
                if !self.is_failed(d, w) && !self.is_tx_failed(pg.grant.to.0, d) {
                    let ri = self.idx(pg.grant.to.0, d, w);
                    let recipient = &mut self.channels[ri];
                    if !recipient.is_on() {
                        recipient.power_on_dark(now, lock);
                        self.power_dirty = true;
                    }
                }
                self.pending_grants.swap_remove(j);
            } else {
                j += 1;
            }
        }
    }

    /// Returns the total instantaneous power draw (mW) of all lit lasers.
    /// Between power-relevant edges (packet start/end, retune, relock,
    /// grant, fault) the cached sum is returned unchanged; on an edge it
    /// is recomputed by [`Srs::compute_power`] in the legacy summation
    /// order, so the bits match the eager per-cycle loop exactly.
    /// Link-utilization recording needs no per-cycle work any more: busy
    /// time is integrated from serialization spans.
    pub fn record_cycle(&mut self) -> f64 {
        if self.power_dirty {
            self.power_cache = self.compute_power();
            self.power_dirty = false;
        }
        self.power_cache
    }

    /// The eager power sum, in its original `(d asc, w asc)` order —
    /// identical state always reproduces identical f64 bits.
    fn compute_power(&self) -> f64 {
        let mut total = 0.0;
        for d in 0..self.boards {
            for w in 0..self.wavelengths {
                let Some(s) = self.owner[d as usize][w as usize] else {
                    continue;
                };
                let c = &self.channels[self.idx(s, d, w)];
                if !c.is_on() {
                    // Mid-transfer gap: nothing lit on this wavelength.
                    continue;
                }
                let busy = matches!(c.state(), ChannelState::Sending { .. });
                total += if busy {
                    self.power_model.active_mw(c.level())
                } else {
                    self.power_model.idle_mw(c.level())
                };
            }
        }
        total
    }

    /// Rolls all utilization windows at the `R_w` boundary `now`; the
    /// frozen values feed the next DPM/DBR decisions. Open serialization
    /// spans are split at the boundary: cycles before `now` land in the
    /// closing window, the rest stay with the (still open) span.
    pub fn roll_windows(&mut self, now: Cycle) {
        for i in 0..self.channels.len() {
            if self.busy_open[i] {
                let end = self.busy_cap[i].min(now);
                if end > self.busy_start[i] {
                    self.win_busy[i] += end - self.busy_start[i];
                }
                if self.busy_cap[i] <= now {
                    self.busy_open[i] = false;
                } else {
                    self.busy_start[i] = now;
                }
            }
            self.link_prev[i] = (self.win_busy[i] as f64 / self.window as f64).clamp(0.0, 1.0);
            self.win_busy[i] = 0;
        }
    }

    /// Previous-window `Link_util` of channel `(s,d,w)`.
    pub fn link_util(&self, s: u16, d: u16, w: u16) -> f64 {
        self.link_prev[self.idx(s, d, w)]
    }

    /// Board count.
    pub fn boards(&self) -> u16 {
        self.boards
    }

    /// Wavelength count.
    pub fn wavelengths(&self) -> u16 {
        self.wavelengths
    }

    /// Serializes the full mutable optical-stage state: ownership map,
    /// channel bank, busy spans, wake/arrival queues, pending DPM/DBR/CDR
    /// work, fault sets and lifetime counters. Geometry (board count,
    /// ladder, power model, RWA, penalties) is config-derived. The `owned`
    /// mirror is rebuilt from `owner` on load rather than persisted.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        w.tag(b"SRSS");
        w.usize(self.owner.len());
        for row in &self.owner {
            row.save(w);
        }
        w.usize(self.channels.len());
        for c in &self.channels {
            c.save_state(w);
        }
        self.link_prev.save(w);
        self.win_busy.save(w);
        self.busy_open.save(w);
        self.busy_start.save(w);
        self.busy_cap.save(w);
        self.wake.save_state(w);
        self.retune_queue.save(w);
        self.relock_queue.save(w);
        w.bool(self.power_dirty);
        w.f64(self.power_cache);
        self.arrivals.save_state(w);
        self.pending_grants.save(w);
        self.pending_retune.save(w);
        self.failed.save(w);
        self.failed_tx.save(w);
        self.stuck_lc.save(w);
        self.pending_relock.save(w);
        w.u64(self.grants_applied);
        w.u64(self.retunes_applied);
        w.u64(self.relocks_applied);
    }

    /// Overlays checkpointed optical-stage state onto a freshly built SRS
    /// with identical geometry.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::{Snap, SnapError};
        r.tag(b"SRSS")?;
        r.len_eq(self.owner.len(), "SRS ownership rows")?;
        let mut owner: Vec<Vec<Option<u16>>> = Vec::with_capacity(self.owner.len());
        for _ in 0..self.owner.len() {
            let row: Vec<Option<u16>> = Snap::load(r)?;
            if row.len() != self.wavelengths as usize {
                return Err(SnapError::Mismatch(format!(
                    "SRS ownership row: expected {} wavelengths, snapshot has {}",
                    self.wavelengths,
                    row.len()
                )));
            }
            if let Some(s) = row.iter().flatten().find(|&&s| s >= self.boards) {
                return Err(SnapError::Format(format!(
                    "SRS snapshot names board {s} but the system has {}",
                    self.boards
                )));
            }
            owner.push(row);
        }
        r.len_eq(self.channels.len(), "SRS channel bank")?;
        for c in &mut self.channels {
            c.load_state(r)?;
        }
        let link_prev: Vec<f64> = Snap::load(r)?;
        let n = self.channels.len();
        let check = |len: usize, what: &str| {
            if len == n {
                Ok(())
            } else {
                Err(SnapError::Mismatch(format!(
                    "{what}: expected {n} entries, snapshot has {len}"
                )))
            }
        };
        check(link_prev.len(), "SRS link_prev")?;
        let win_busy: Vec<Cycle> = Snap::load(r)?;
        check(win_busy.len(), "SRS win_busy")?;
        let busy_open: Vec<bool> = Snap::load(r)?;
        check(busy_open.len(), "SRS busy_open")?;
        let busy_start: Vec<Cycle> = Snap::load(r)?;
        check(busy_start.len(), "SRS busy_start")?;
        let busy_cap: Vec<Cycle> = Snap::load(r)?;
        check(busy_cap.len(), "SRS busy_cap")?;
        self.wake.load_state(r)?;
        let retune_queue: Vec<usize> = Snap::load(r)?;
        let relock_queue: Vec<usize> = Snap::load(r)?;
        if let Some(&i) = retune_queue.iter().chain(&relock_queue).find(|&&i| i >= n) {
            return Err(SnapError::Format(format!(
                "SRS work queue names channel {i} of {n}"
            )));
        }
        let power_dirty = r.bool()?;
        let power_cache = r.f64()?;
        self.arrivals.load_state(r)?;
        let pending_grants: Vec<PendingGrant> = Snap::load(r)?;
        let pending_retune: Vec<Option<(RateLevel, Cycle)>> = Snap::load(r)?;
        check(pending_retune.len(), "SRS pending retunes")?;
        let failed: Vec<(u16, u16)> = Snap::load(r)?;
        let failed_tx: Vec<(u16, u16)> = Snap::load(r)?;
        let stuck_lc: Vec<bool> = Snap::load(r)?;
        check(stuck_lc.len(), "SRS stuck LCs")?;
        let pending_relock: Vec<Option<Cycle>> = Snap::load(r)?;
        check(pending_relock.len(), "SRS pending relocks")?;
        self.grants_applied = r.u64()?;
        self.retunes_applied = r.u64()?;
        self.relocks_applied = r.u64()?;
        // Rebuild the per-flow sorted mirror from the ownership map. The
        // `d` outer / `w` inner scan appends each flow's wavelengths in
        // ascending order, matching the `set_owner` insertion discipline.
        for f in &mut self.owned {
            f.clear();
        }
        for d in 0..self.boards {
            for w in 0..self.wavelengths {
                if let Some(s) = owner[d as usize][w as usize] {
                    let f = self.flow(s, d);
                    self.owned[f].push(w);
                }
            }
        }
        self.owner = owner;
        self.link_prev = link_prev;
        self.win_busy = win_busy;
        self.busy_open = busy_open;
        self.busy_start = busy_start;
        self.busy_cap = busy_cap;
        self.retune_queue = retune_queue;
        self.relock_queue = relock_queue;
        self.power_dirty = power_dirty;
        self.power_cache = power_cache;
        self.pending_grants = pending_grants;
        self.pending_retune = pending_retune;
        self.failed = failed;
        self.failed_tx = failed_tx;
        self.stuck_lc = stuck_lc;
        self.pending_relock = pending_relock;
        Ok(())
    }

    /// Coarse heap-footprint estimate in bytes. The channel bank and its
    /// per-channel span/retune/relock side tables are the O(B²·W) = O(B³)
    /// bulk of the optical stage; smaller maps are counted per element
    /// too. Analytic capacity × element-size sums, not an allocator probe.
    pub fn approx_memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let per_channel = size_of::<OpticalChannel>()
            + size_of::<f64>()          // link_prev
            + 3 * size_of::<Cycle>()    // win_busy, busy_start, busy_cap
            + size_of::<bool>() * 2     // busy_open, stuck_lc
            + size_of::<Option<(RateLevel, Cycle)>>()
            + size_of::<Option<Cycle>>();
        size_of::<Self>()
            + self.channels.len() * per_channel
            + self
                .owner
                .iter()
                .map(|v| size_of::<Vec<Option<u16>>>() + std::mem::size_of_val(v.as_slice()))
                .sum::<usize>()
            + self
                .owned
                .iter()
                .map(|v| size_of::<Vec<u16>>() + v.capacity() * size_of::<u16>())
                .sum::<usize>()
            + self.retune_queue.capacity() * size_of::<usize>()
            + self.relock_queue.capacity() * size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erapid_telemetry::NullSink;
    use router::flit::PacketId;

    fn srs() -> Srs {
        Srs::new(
            4,
            RateLadder::paper(),
            Serdes::paper(),
            4,
            LinkPowerModel::paper_table(),
            100,
            65,
        )
    }

    fn pkt(id: u64) -> ReadyPacket {
        ReadyPacket {
            id: PacketId(id),
            src: 0,
            dst: 0,
            injected_at: 0,
            labelled: false,
            flits: 8,
            vc: 0,
            completed_at: 0,
        }
    }

    #[test]
    fn static_rwa_ownership_at_boot() {
        let s = srs();
        // Destination 0: λ1 owned by board 1, λ2 by board 2, λ3 by board 3.
        assert_eq!(s.owner(0, 1), Some(1));
        assert_eq!(s.owner(0, 2), Some(2));
        assert_eq!(s.owner(0, 3), Some(3));
        assert_eq!(s.owner(0, 0), None);
        // (B-1) lasers per board on: 4 boards × 3 = 12.
        assert_eq!(s.lasers_on(), 12);
        assert_eq!(s.owned_wavelengths(1, 0), vec![1]);
        assert_eq!(s.boards(), 4);
        assert_eq!(s.wavelengths(), 4);
    }

    #[test]
    fn transmit_and_arrival_roundtrip() {
        let mut s = srs();
        let w = s.try_transmit(0, 1, 0, pkt(7)).expect("channel free");
        assert_eq!(w, 1);
        // 8 flits × 6 cycles + 4 fiber = arrival at 52.
        assert!(s.arrivals_due(51).is_empty());
        let arr = s.arrivals_due(52);
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].dst_board, 0);
        assert_eq!(arr[0].src_board, 1);
        assert_eq!(arr[0].packet.id, PacketId(7));
    }

    #[test]
    fn busy_channel_rejects_second_packet() {
        let mut s = srs();
        assert!(s.try_transmit(0, 1, 0, pkt(1)).is_some());
        assert!(s.try_transmit(1, 1, 0, pkt(2)).is_none());
        s.tick(48, &mut NullSink); // serialization (48) done
        assert!(s.try_transmit(48, 1, 0, pkt(2)).is_some());
    }

    #[test]
    fn grant_transfers_ownership_and_relights() {
        let mut s = srs();
        let g = WavelengthGrant {
            destination: BoardId(0),
            wavelength: Wavelength(2),
            from: BoardId(2),
            to: BoardId(1),
        };
        s.schedule_grants(0, &[g], &mut NullSink);
        assert_eq!(s.owner(0, 2), Some(1));
        s.tick(10, &mut NullSink);
        // Donor dark, recipient locking (dark for 65 cycles).
        assert!(!s.channel(2, 0, 2).is_on());
        assert!(s.channel(1, 0, 2).is_on());
        // Before lock-in the granted channel cannot carry data on λ2, but
        // board 1 can still use its static λ1 toward 0 — and only that one.
        assert_eq!(s.try_transmit(11, 1, 0, pkt(9)), Some(1));
        assert_eq!(s.try_transmit(11, 1, 0, pkt(10)), None);
        s.tick(80, &mut NullSink);
        // Now both of board 1's channels are usable.
        assert!(s.try_transmit(80, 1, 0, pkt(1)).is_some());
        assert!(s.try_transmit(80, 1, 0, pkt(2)).is_some());
        assert_eq!(s.owned_wavelengths(1, 0), vec![1, 2]);
        assert_eq!(s.reconfig_counts().0, 1);
    }

    #[test]
    fn grant_waits_for_donor_mid_packet() {
        let mut s = srs();
        // Donor (board 2 → 0 on λ2) starts a long packet at t=0.
        assert!(s.try_transmit(0, 2, 0, pkt(1)).is_some());
        let g = WavelengthGrant {
            destination: BoardId(0),
            wavelength: Wavelength(2),
            from: BoardId(2),
            to: BoardId(1),
        };
        s.schedule_grants(0, &[g], &mut NullSink);
        s.tick(10, &mut NullSink);
        // Donor still sending: recipient must not be lit yet.
        assert!(s.channel(2, 0, 2).is_on());
        assert!(!s.channel(1, 0, 2).is_on());
        // After serialization ends (48 cycles) the transfer completes.
        s.tick(48, &mut NullSink);
        assert!(!s.channel(2, 0, 2).is_on());
        assert!(s.channel(1, 0, 2).is_on());
        // The in-flight packet still arrives.
        assert_eq!(s.arrivals_due(52).len(), 1);
    }

    #[test]
    fn retune_applies_when_idle_and_blocks_sending() {
        let mut s = srs();
        s.schedule_retune(1, 0, 1, RateLevel(0), 65);
        // Channel is idle: retune applies on the next tick.
        s.tick(5, &mut NullSink);
        assert_eq!(s.channel(1, 0, 1).level(), RateLevel(0));
        assert_eq!(s.reconfig_counts().1, 1);
        // Dark during transition.
        assert!(s.try_transmit(6, 1, 0, pkt(1)).is_none());
        s.tick(70, &mut NullSink);
        assert!(s.try_transmit(70, 1, 0, pkt(1)).is_some());
    }

    #[test]
    fn retune_to_same_level_is_ignored() {
        let mut s = srs();
        s.schedule_retune(1, 0, 1, RateLevel(2), 65);
        s.tick(1, &mut NullSink);
        assert_eq!(s.reconfig_counts().1, 0);
        assert!(s.try_transmit(1, 1, 0, pkt(1)).is_some());
    }

    #[test]
    fn power_accounting_idle_vs_active() {
        let mut s = srs();
        let idle_total = s.record_cycle();
        // 12 idle lasers at 43.03 × 0.05.
        assert!((idle_total - 12.0 * 43.03 * 0.05).abs() < 1e-6);
        s.try_transmit(0, 1, 0, pkt(1)).unwrap();
        let one_active = s.record_cycle();
        assert!((one_active - (11.0 * 43.03 * 0.05 + 43.03)).abs() < 1e-6);
    }

    #[test]
    fn link_util_windows_roll() {
        let mut s = srs();
        s.try_transmit(0, 1, 0, pkt(1)).unwrap();
        for now in 0..100u64 {
            s.tick(now, &mut NullSink);
            s.record_cycle();
        }
        s.roll_windows(100);
        // 48 of 100 cycles busy on (1,0,λ1).
        assert!((s.link_util(1, 0, 1) - 0.48).abs() < 0.02);
        assert_eq!(s.link_util(2, 0, 2), 0.0);
    }

    #[test]
    fn transmit_spreads_over_multiple_owned_channels() {
        let mut s = srs();
        s.schedule_grants(
            0,
            &[WavelengthGrant {
                destination: BoardId(0),
                wavelength: Wavelength(2),
                from: BoardId(2),
                to: BoardId(1),
            }],
            &mut NullSink,
        );
        s.tick(0, &mut NullSink);
        s.tick(66, &mut NullSink); // lock-in done
        let w1 = s.try_transmit(66, 1, 0, pkt(1)).unwrap();
        let w2 = s.try_transmit(66, 1, 0, pkt(2)).unwrap();
        assert_ne!(w1, w2, "two packets in flight on two wavelengths");
        assert!(s.try_transmit(66, 1, 0, pkt(3)).is_none());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use erapid_telemetry::NullSink;
    use photonics::bitrate::RateLadder;
    use photonics::serdes::Serdes;
    use router::flit::PacketId;

    fn srs() -> Srs {
        Srs::new(
            4,
            RateLadder::paper(),
            Serdes::paper(),
            4,
            LinkPowerModel::paper_table(),
            100,
            65,
        )
    }

    fn pkt(id: u64) -> ReadyPacket {
        ReadyPacket {
            id: PacketId(id),
            src: 0,
            dst: 0,
            injected_at: 0,
            labelled: false,
            flits: 8,
            vc: 0,
            completed_at: 0,
        }
    }

    #[test]
    fn failing_an_idle_receiver_darkens_the_owner() {
        let mut s = srs();
        assert_eq!(s.owner(0, 1), Some(1));
        s.fail_receiver(0, 0, 1, &mut NullSink);
        assert!(s.is_failed(0, 1));
        assert_eq!(s.owner(0, 1), None);
        assert!(!s.channel(1, 0, 1).is_on());
        // The flow 1→0 can no longer transmit (no owned wavelength).
        assert!(s.try_transmit(1, 1, 0, pkt(1)).is_none());
        assert_eq!(s.lasers_on(), 11);
    }

    #[test]
    fn failing_mid_packet_lets_the_photons_land_then_darkens() {
        let mut s = srs();
        assert!(s.try_transmit(0, 1, 0, pkt(7)).is_some());
        s.fail_receiver(5, 0, 1, &mut NullSink);
        // Still lit mid-packet.
        assert!(s.channel(1, 0, 1).is_on());
        s.tick(20, &mut NullSink);
        assert!(s.channel(1, 0, 1).is_on(), "packet still serializing");
        // The in-flight packet arrives (left before the failure)...
        assert_eq!(s.arrivals_due(52).len(), 1);
        // ...and once the wavelength clears, the laser goes dark for good.
        s.tick(48, &mut NullSink);
        assert!(!s.channel(1, 0, 1).is_on());
        assert_eq!(s.owner(0, 1), None);
    }

    #[test]
    fn grants_on_failed_wavelengths_are_dropped() {
        let mut s = srs();
        s.fail_receiver(0, 0, 2, &mut NullSink);
        let g = WavelengthGrant {
            destination: BoardId(0),
            wavelength: Wavelength(2),
            from: BoardId(2),
            to: BoardId(1),
        };
        s.schedule_grants(0, &[g], &mut NullSink);
        s.tick(1, &mut NullSink);
        s.tick(100, &mut NullSink);
        assert_eq!(s.owner(0, 2), None);
        assert!(!s.channel(1, 0, 2).is_on());
        assert_eq!(s.reconfig_counts().0, 0);
    }

    #[test]
    fn failure_during_ownership_transfer_suppresses_relight() {
        let mut s = srs();
        // Donor busy so the transfer stays pending.
        assert!(s.try_transmit(0, 2, 0, pkt(1)).is_some());
        s.schedule_grants(
            0,
            &[WavelengthGrant {
                destination: BoardId(0),
                wavelength: Wavelength(2),
                from: BoardId(2),
                to: BoardId(1),
            }],
            &mut NullSink,
        );
        s.tick(5, &mut NullSink);
        assert!(s.channel(2, 0, 2).is_on(), "donor mid-packet");
        // The receiver dies while the transfer is in flight.
        s.fail_receiver(6, 0, 2, &mut NullSink);
        s.tick(48, &mut NullSink);
        s.tick(120, &mut NullSink);
        // Donor dark, recipient never lit.
        assert!(!s.channel(2, 0, 2).is_on());
        assert!(!s.channel(1, 0, 2).is_on());
        assert_eq!(s.owner(0, 2), None);
    }

    #[test]
    fn double_failure_is_idempotent() {
        let mut s = srs();
        s.fail_receiver(0, 0, 1, &mut NullSink);
        s.fail_receiver(1, 0, 1, &mut NullSink);
        assert!(s.is_failed(0, 1));
        assert_eq!(s.lasers_on(), 11);
    }

    #[test]
    fn repair_restores_static_ownership_and_capacity() {
        let mut s = srs();
        s.fail_receiver(0, 0, 1, &mut NullSink);
        assert_eq!(s.lasers_on(), 11);
        assert_eq!(s.owner(0, 1), None);
        s.repair_receiver(100, 0, 1);
        assert!(!s.is_failed(0, 1));
        assert_eq!(s.owner(0, 1), Some(1), "static owner readmitted");
        assert!(s.channel(1, 0, 1).is_on());
        assert_eq!(s.lasers_on(), 12);
        // Fresh receiver lock-in: dark for 65 cycles, then usable.
        assert!(s.try_transmit(120, 1, 0, pkt(1)).is_none());
        s.tick(170, &mut NullSink);
        assert!(s.try_transmit(170, 1, 0, pkt(1)).is_some());
    }

    #[test]
    fn repair_before_the_failure_drain_completes_relights() {
        let mut s = srs();
        assert!(s.try_transmit(0, 1, 0, pkt(7)).is_some());
        s.fail_receiver(5, 0, 1, &mut NullSink); // mid-packet: shutdown is pending
        s.repair_receiver(10, 0, 1); // repaired before the laser idles
        assert_eq!(s.owner(0, 1), Some(1));
        assert_eq!(s.arrivals_due(52).len(), 1, "in-flight photons land");
        // Once the wavelength clears, the laser cycles through a lock-in
        // window instead of dying.
        s.tick(48, &mut NullSink);
        assert!(s.channel(1, 0, 1).is_on());
        s.tick(120, &mut NullSink);
        assert!(s.try_transmit(120, 1, 0, pkt(8)).is_some());
    }

    #[test]
    fn repair_without_failure_is_a_no_op() {
        let mut s = srs();
        s.repair_receiver(10, 0, 1);
        assert_eq!(s.owner(0, 1), Some(1));
        assert_eq!(s.lasers_on(), 12);
    }

    #[test]
    fn transmitter_outage_darkens_and_repair_restores() {
        let mut s = srs();
        s.fail_transmitter(0, 1, 0, &mut NullSink);
        assert!(s.is_tx_failed(1, 0));
        assert!(!s.channel(1, 0, 1).is_on());
        assert_eq!(s.lasers_on(), 11);
        assert!(s.try_transmit(1, 1, 0, pkt(1)).is_none());
        // Ownership is retained through the outage.
        assert_eq!(s.owner(0, 1), Some(1));
        s.repair_transmitter(50, 1, 0);
        assert!(!s.is_tx_failed(1, 0));
        assert!(s.channel(1, 0, 1).is_on());
        s.tick(120, &mut NullSink);
        assert!(s.try_transmit(120, 1, 0, pkt(2)).is_some());
    }

    #[test]
    fn grants_to_failed_transmitters_are_dropped() {
        let mut s = srs();
        s.fail_transmitter(0, 1, 0, &mut NullSink);
        s.schedule_grants(
            0,
            &[WavelengthGrant {
                destination: BoardId(0),
                wavelength: Wavelength(2),
                from: BoardId(2),
                to: BoardId(1),
            }],
            &mut NullSink,
        );
        assert_eq!(s.owner(0, 2), Some(2), "grant to a dead TX is dropped");
        assert_eq!(s.reconfig_counts().0, 0);
    }

    #[test]
    fn stuck_lc_drops_retunes_until_repair() {
        let mut s = srs();
        s.stick_lc(1, 0, 1);
        assert!(s.is_lc_stuck(1, 0, 1));
        s.schedule_retune(1, 0, 1, RateLevel(0), 65);
        s.tick(5, &mut NullSink);
        assert_eq!(s.channel(1, 0, 1).level(), RateLevel(2));
        assert_eq!(s.reconfig_counts().1, 0);
        s.unstick_lc(1, 0, 1);
        s.schedule_retune(1, 0, 1, RateLevel(0), 65);
        s.tick(6, &mut NullSink);
        assert_eq!(s.channel(1, 0, 1).level(), RateLevel(0));
        assert_eq!(s.reconfig_counts().1, 1);
    }

    #[test]
    fn cdr_relock_waits_for_the_packet_then_darkens() {
        let mut s = srs();
        assert!(s.try_transmit(0, 1, 0, pkt(1)).is_some());
        s.schedule_relock(1, 0, 1, 200);
        s.tick(10, &mut NullSink);
        assert_eq!(s.relocks_applied(), 0, "mid-packet: relock waits");
        assert_eq!(s.arrivals_due(52).len(), 1, "photons land");
        s.tick(48, &mut NullSink);
        assert_eq!(s.relocks_applied(), 1);
        assert!(s.channel(1, 0, 1).is_on(), "laser stays up while relocking");
        assert!(s.try_transmit(100, 1, 0, pkt(2)).is_none(), "link dark");
        s.tick(250, &mut NullSink);
        assert!(s.try_transmit(250, 1, 0, pkt(2)).is_some());
    }

    #[test]
    fn cdr_relock_on_a_dark_channel_is_inert() {
        let mut s = srs();
        s.schedule_relock(2, 0, 1, 200); // unowned, dark channel
        s.tick(5, &mut NullSink);
        assert_eq!(s.relocks_applied(), 0);
    }
}
