//! The Scalable Remote Optical Super-Highway (SRS).
//!
//! Owns the optical stage as one [`Slot`] per `(d, w)` receiver: which
//! source board may light wavelength `w` toward destination board `d` (the
//! owner), whose laser is lit on it, that laser's state machine, the
//! owner's link-utilization span and the lit laser's pending DPM retune
//! and CDR relock — plus in-flight packet arrivals. Lasers follow
//! `wanted`: each slot is lit by the laser its owner and the fault sets
//! name, or is queued to settle, and a queued slot lights its wanted laser
//! only once the unwanted one is dark — so the WDM invariant, at most one
//! lit laser per (destination, wavelength), is the layout itself: a slot
//! names one lit source. What a retired owner leaves behind (its
//! DPM level, a stuck LC, its in-window busy) is carried explicitly in side
//! tables keyed by `(s, d, w)`, so state is O(B·W) in what is lit plus one
//! byte per laser.

use crate::txqueue::ReadyPacket;
use desim::queue::BinaryHeapQueue;
use desim::Cycle;
use erapid_telemetry::{TraceEvent, TraceSink};
use photonics::bitrate::{RateLadder, RateLevel};
use photonics::channel::{ChannelState, LinkTiming, OpticalChannel};
use photonics::power::LinkPowerModel;
use photonics::rwa::StaticRwa;
use photonics::serdes::Serdes;
use photonics::wavelength::{BoardId, Wavelength};
use reconfig::msg::WavelengthGrant;
use router::words;

/// A packet arriving at a destination board's receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Arrival {
    /// Destination board.
    pub dst_board: u16,
    /// Wavelength it arrived on.
    pub wavelength: u16,
    /// Source board.
    pub src_board: u16,
    /// The packet.
    pub packet: ReadyPacket,
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

/// `(source, destination, wavelength)` — one laser. Tuple order is the
/// dense `(s·B + d)·W + w` order the trace pins were recorded in.
type Laser = (u16, u16, u16);

/// An open serialization span: busy from `start` to `cap` (exclusive).
#[derive(Debug, Clone, Copy)]
struct Span {
    start: Cycle,
    cap: Cycle,
}

/// One `(d, w)` receiver.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Board allowed to light `w` toward `d` (`None`: λ0, or a failed
    /// receiver).
    owner: Option<u16>,
    /// Board whose laser is lit — `Some` exactly while `chan` is on. It
    /// differs from [`Srs::wanted`] only while the slot is queued to
    /// settle: a donor drains after a grant, or a laser drains through a
    /// fault.
    lit_by: Option<u16>,
    /// The lit laser's state machine (`Off` while the slot is dark).
    chan: OpticalChannel,
    /// The lit laser's pending DPM retune: `(target level, penalty)`.
    retune: Option<(RateLevel, Cycle)>,
    /// The lit laser's pending CDR relock penalty, applied once it is
    /// between packets.
    relock: Option<Cycle>,
    /// `Link_util` of the last completed window, for the owner at that
    /// roll (what the LS protocol reads). Busy time is integrated from
    /// serialization spans instead of per-cycle sampling; the division at
    /// the roll reproduces the eager `Σ 1.0 / window` bits exactly
    /// (integer-valued f64 sum).
    link_prev: f64,
    /// The owner's busy cycles in the running window (closed spans).
    win_busy: Cycle,
    /// The owner's open serialization span.
    busy: Option<Span>,
}

impl Slot {
    fn dark(level: RateLevel) -> Self {
        Self {
            owner: None,
            lit_by: None,
            chan: OpticalChannel::new(level),
            retune: None,
            relock: None,
            link_prev: 0.0,
            win_busy: 0,
            busy: None,
        }
    }

    /// Closes the open busy span at `at` (clamped to the serialization
    /// end), folding its cycles into the running window. A span closed at
    /// its own start cycle contributes nothing — exactly the eager sampler,
    /// which never saw the channel busy.
    fn close_busy(&mut self, at: Cycle) {
        if let Some(span) = self.busy.take() {
            let end = span.cap.min(at);
            if end > span.start {
                self.win_busy += end - span.start;
            }
        }
    }

    /// Index of the slot's draw in [`class_mw`]: `0` unless the lit
    /// laser is the owner's, else `1 + 2·level`, `+ 1` while sending.
    /// Branch-free: [`Slot::edit`] runs it twice per change.
    fn power_class(&self) -> usize {
        let counted = (self.lit_by == self.owner) & self.chan.is_on();
        let sending = matches!(self.chan.state(), ChannelState::Sending { .. });
        usize::from(counted) * (1 + 2 * self.chan.level().index() + usize::from(sending))
    }

    /// The one door for a change that may move the slot's power class:
    /// runs `f`, then moves the slot's laser from its old class to its new
    /// one in `lit`.
    fn edit<R>(&mut self, lit: &mut [u32], f: impl FnOnce(&mut Self) -> R) -> R {
        let before = self.power_class();
        let out = f(self);
        lit[before] -= 1;
        lit[self.power_class()] += 1;
        out
    }

    /// Turns the lit laser off (it must be between packets); its pending
    /// retune and relock go dark with it.
    fn darken(&mut self, now: Cycle) {
        self.chan.power_off(now);
        self.lit_by = None;
        self.retune = None;
        self.relock = None;
    }

    /// Settles the lit laser at `now` and darkens it if it is between
    /// packets; false while a packet still serializes.
    fn darken_if_idle(&mut self, now: Cycle) -> bool {
        self.chan.settle(now);
        let idle = self.chan.can_send(now);
        if idle {
            self.darken(now);
        }
        idle
    }

    fn save(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        self.owner.save(w);
        self.lit_by.save(w);
        if self.lit_by.is_some() {
            self.chan.save_state(w);
        }
        self.retune.save(w);
        self.relock.save(w);
        w.f64(self.link_prev);
        w.u64(self.win_busy);
        self.busy.map(|s| (s.start, s.cap)).save(w);
    }

    fn load(
        r: &mut desim::snap::SnapReader<'_>,
        timing: &LinkTiming,
    ) -> Result<Self, desim::snap::SnapError> {
        use desim::snap::Snap;
        let owner = Snap::load(r)?;
        let lit_by: Option<u16> = Snap::load(r)?;
        let chan = match lit_by {
            Some(_) => OpticalChannel::load_state(r, timing.levels())?,
            None => OpticalChannel::new(top_level(timing)),
        };
        Ok(Self {
            owner,
            lit_by,
            chan,
            retune: Snap::load(r)?,
            relock: Snap::load(r)?,
            link_prev: r.f64()?,
            win_busy: r.u64()?,
            busy: Option::<(Cycle, Cycle)>::load(r)?.map(|(start, cap)| Span { start, cap }),
        })
    }
}

/// A laser's draw (mW) by [`Slot::power_class`] under `model`: `0.0`,
/// then idle and active per level of the model's ladder.
pub(crate) fn class_mw(model: &LinkPowerModel) -> Vec<f64> {
    std::iter::once(0.0)
        .chain(
            model
                .ladder()
                .iter()
                .flat_map(|(l, _)| [model.idle_mw(l), model.active_mw(l)]),
        )
        .collect()
}

/// The ladder's highest level — every laser's level at boot.
fn top_level(timing: &LinkTiming) -> RateLevel {
    RateLevel((timing.levels() - 1) as u8)
}

/// The optical stage.
pub struct Srs {
    boards: u16,
    wavelengths: u16,
    /// Receiver slots indexed by `d·W + w`.
    slots: Vec<Slot>,
    /// Wavelengths owned per `(s·B + d)` flow, as a bitset of
    /// `flow_words` words per flow (flow `f` at `f·flow_words ..`) — the
    /// per-source view of the slots' owners that lets `try_transmit` scan
    /// only owned wavelengths. Maintained through [`Srs::set_owner`],
    /// rebuilt from the slots at boot and on load; set bits walk ascending,
    /// which reproduces the legacy full `0..W` scan exactly.
    owned: Vec<u64>,
    /// Words per flow in `owned` (`words_for(W)`).
    flow_words: usize,
    /// Per `(s·B + d)` flow, a cycle before which `try_transmit` cannot
    /// succeed: set on a failed try to the earliest cycle any owned lit
    /// channel could next start a packet, reset to 0 by every event that
    /// can make one sendable sooner (ownership gain, `light` — which
    /// grants and both repairs go through — and load). A stale bound
    /// costs one wasted try, never a skipped send. Derived: not stored in
    /// snapshots.
    blocked_until: Vec<Cycle>,
    /// DPM level of every laser, indexed by `(s·B + d)·W + w`: a former
    /// owner granted a receiver back relights at its own last level. The
    /// lit laser's level is written through on every retune.
    levels: Vec<RateLevel>,
    /// Running-window busy cycles of owners retired since the last roll,
    /// restored if the same source regains the receiver before it.
    busy_stash: Vec<(Laser, Cycle)>,
    /// Lasers whose LC is wedged (sorted): their DPM retunes are dropped.
    /// Keyed by laser, so the wedge survives a grant away and back.
    stuck_lc: Vec<Laser>,
    /// Serialization and fiber constants shared by every laser.
    timing: LinkTiming,
    /// Window length (`R_w`) for the link-utilization spans.
    window: Cycle,
    /// Serialization-end wake queue: slot indices keyed by their `Sending`
    /// `until`, so `tick` settles only lasers whose packet actually ended
    /// instead of scanning the whole stage.
    wake: BinaryHeapQueue<usize>,
    /// Sorted lasers with a pending retune/relock — the only slots `tick`
    /// visits. Ascending `(s, d, w)` is the legacy full-scan order, so
    /// trace-event order is preserved. Stale entries (laser darkened, or
    /// its pending work cleared by a fault/grant) are dropped on the next
    /// sweep.
    retune_queue: Vec<Laser>,
    relock_queue: Vec<Laser>,
    /// Lasers in each [`Slot::power_class`], moved by [`Slot::edit`] on
    /// every class change; sums to B·W. Derived: recounted on load.
    lit: Vec<u32>,
    arrivals: BinaryHeapQueue<Arrival>,
    /// Slots queued to settle, sorted by slot index: each one's lit laser
    /// is not the one [`Srs::wanted`] names, or owes a drain (the `bool`:
    /// it stayed lit through a receiver failure, so it must go dark and
    /// relock even if it is wanted again). Every other slot is lit by
    /// exactly its wanted laser.
    unsettled: Vec<(usize, bool)>,
    /// Receiver lock-in penalty charged when a granted channel lights.
    lock_penalty: Cycle,
    /// Failed (destination, wavelength) pairs: the demux/receiver is dead,
    /// nobody can use the wavelength toward that board any more.
    failed: Vec<(u16, u16)>,
    /// Failed (source, destination) transmitter groups: `s`'s lasers
    /// toward `d` cannot light. Ownership is retained so repair restores
    /// service.
    failed_tx: Vec<(u16, u16)>,
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
        ladder: &RateLadder,
        serdes: Serdes,
        fiber_delay: Cycle,
        window: Cycle,
        lock_penalty: Cycle,
    ) -> Self {
        let w_count = boards;
        let receivers = boards as usize * w_count as usize;
        let flows = (boards as usize).pow(2);
        let flow_words = words::words_for(w_count as usize);
        let top = ladder.highest();
        let mut srs = Self {
            boards,
            wavelengths: w_count,
            slots: vec![Slot::dark(top); receivers],
            owned: vec![0; flows * flow_words],
            flow_words,
            blocked_until: vec![0; flows],
            levels: vec![top; boards as usize * receivers],
            busy_stash: Vec::new(),
            stuck_lc: Vec::new(),
            timing: LinkTiming::new(ladder, serdes, fiber_delay),
            window,
            wake: BinaryHeapQueue::with_capacity(receivers),
            retune_queue: Vec::new(),
            relock_queue: Vec::new(),
            lit: vec![0; 1 + 2 * ladder.len()],
            // At most one packet is in flight per (source, wavelength), so
            // this pre-sizing makes arrival pushes allocation-free.
            arrivals: BinaryHeapQueue::with_capacity(receivers),
            unsettled: Vec::new(),
            lock_penalty,
            failed: Vec::new(),
            failed_tx: Vec::new(),
            rwa: StaticRwa::new(boards),
            grants_applied: 0,
            retunes_applied: 0,
            relocks_applied: 0,
        };
        // Static RWA: one lit laser per (destination, remote wavelength).
        for d in 0..boards {
            for w in 1..w_count {
                let s = srs.rwa.static_owner(BoardId(d), Wavelength(w)).0;
                let k = srs.slot(d, w);
                let slot = &mut srs.slots[k];
                slot.owner = Some(s);
                slot.lit_by = Some(s);
                slot.chan.power_on();
            }
        }
        srs.rebuild_derived();
        srs
    }

    /// Rebuilds what is derived from the slots: the per-flow `owned`
    /// bitsets (an owner ≥ B is skipped), the lit-class counters, and
    /// every flow's `blocked_until` (0: awake).
    fn rebuild_derived(&mut self) {
        self.owned = self.owners_as_words();
        self.lit = self.recount_lit();
        self.blocked_until.fill(0);
    }

    /// The per-flow `owned` bitsets computed afresh from the slots' owners
    /// (an owner ≥ B is skipped).
    fn owners_as_words(&self) -> Vec<u64> {
        let mut owned = vec![0; self.owned.len()];
        for (k, slot) in self.slots.iter().enumerate() {
            let (d, w) = (k / self.wavelengths as usize, k % self.wavelengths as usize);
            if let Some(s) = slot.owner.filter(|&s| s < self.boards) {
                let base = self.flow(s, d as u16) * self.flow_words;
                words::set(&mut owned[base..base + self.flow_words], w);
            }
        }
        owned
    }

    /// Slot index of receiver `(d, w)`.
    fn slot(&self, d: u16, w: u16) -> usize {
        d as usize * self.wavelengths as usize + w as usize
    }

    /// Index of laser `(s, d, w)` in the per-laser level table.
    fn laser(&self, (s, d, w): Laser) -> usize {
        (s as usize * self.boards as usize + d as usize) * self.wavelengths as usize + w as usize
    }

    fn flow(&self, s: u16, d: u16) -> usize {
        s as usize * self.boards as usize + d as usize
    }

    /// Flow `(s, d)`'s owned-wavelength words.
    fn owned_words(&self, s: u16, d: u16) -> &[u64] {
        let base = self.flow(s, d) * self.flow_words;
        &self.owned[base..base + self.flow_words]
    }

    /// Flow `(s, d)`'s owned-wavelength words, mutably.
    fn owned_words_mut(&mut self, s: u16, d: u16) -> &mut [u64] {
        let base = self.flow(s, d) * self.flow_words;
        &mut self.owned[base..base + self.flow_words]
    }

    /// True while flow `(s, d)` sleeps: a try at `now` would fail.
    #[inline]
    pub(crate) fn is_blocked(&self, now: Cycle, s: u16, d: u16) -> bool {
        self.blocked_until[self.flow(s, d)] > now
    }

    /// The single mutation point for ownership after boot: updates the
    /// slot's owner and the per-flow `owned` bits (waking the gaining
    /// flow), closes the retired owner's busy span at `now` (the eager
    /// per-cycle sampler stopped counting a channel the moment its owner
    /// changed) and stashes its in-window busy, restores the new owner's
    /// stashed busy, and moves the slot's power class.
    fn set_owner(&mut self, now: Cycle, d: u16, w: u16, new: Option<u16>) {
        let k = self.slot(d, w);
        let old = self.slots[k].owner;
        if old == new {
            return;
        }
        if let Some(s) = old {
            words::clear(self.owned_words_mut(s, d), w as usize);
            let slot = &mut self.slots[k];
            slot.close_busy(now);
            if slot.win_busy > 0 {
                self.busy_stash.push(((s, d, w), slot.win_busy));
            }
        }
        let mut win_busy = 0;
        if let Some(s) = new {
            words::set(self.owned_words_mut(s, d), w as usize);
            let f = self.flow(s, d);
            self.blocked_until[f] = 0;
            if let Some(p) = self.busy_stash.iter().position(|e| e.0 == (s, d, w)) {
                win_busy = self.busy_stash.swap_remove(p).1;
            }
        }
        self.slots[k].edit(&mut self.lit, |slot| {
            slot.win_busy = win_busy;
            slot.owner = new;
        });
    }

    /// Lights `s`'s laser on the dark receiver `(d, w)` at its own last
    /// DPM level, through a `lock`-cycle dark window, and wakes the flow.
    fn light(&mut self, now: Cycle, d: u16, w: u16, s: u16, lock: Cycle) {
        let f = self.flow(s, d);
        self.blocked_until[f] = 0;
        let level = self.levels[self.laser((s, d, w))];
        let k = self.slot(d, w);
        self.slots[k].edit(&mut self.lit, |slot| {
            debug_assert!(slot.lit_by.is_none(), "two lasers lit on ({d}, λ{w})");
            slot.chan = OpticalChannel::new(level);
            slot.chan.power_on_dark(now, lock);
            slot.lit_by = Some(s);
        });
    }

    /// Inserts `l` into a sorted pending-work queue (no duplicates).
    fn queue_push(queue: &mut Vec<Laser>, l: Laser) {
        if let Err(p) = queue.binary_search(&l) {
            queue.insert(p, l);
        }
    }

    /// The state of laser `(source, destination, wavelength)`: the slot's
    /// live channel when `s` is the lit source, else a dark channel at
    /// `s`'s own DPM level.
    pub fn channel(&self, s: u16, d: u16, w: u16) -> OpticalChannel {
        let slot = &self.slots[self.slot(d, w)];
        if slot.lit_by == Some(s) {
            slot.chan
        } else {
            OpticalChannel::new(self.levels[self.laser((s, d, w))])
        }
    }

    /// Current owner of wavelength `w` toward destination `d`.
    pub fn owner(&self, d: u16, w: u16) -> Option<u16> {
        self.slots[self.slot(d, w)].owner
    }

    /// Lifetime `(grants, retunes)` applied.
    pub fn reconfig_counts(&self) -> (u64, u64) {
        (self.grants_applied, self.retunes_applied)
    }

    /// Number of lasers currently on.
    pub fn lasers_on(&self) -> usize {
        self.slots.iter().filter(|s| s.lit_by.is_some()).count()
    }

    /// True when the receiver for wavelength `w` at board `d` has failed.
    fn is_failed(&self, d: u16, w: u16) -> bool {
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
        let k = self.slot(d, w);
        if let Some(s) = self.slots[k].owner {
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
            self.set_owner(now, d, w, None);
            let slot = &mut self.slots[k];
            if slot.lit_by == Some(s) {
                slot.retune = None;
            }
        }
        // Whatever laser is lit goes dark; one still mid-packet owes a
        // drain, so a repair before it clears relocks it.
        let lit = self.slots[k].lit_by.is_some();
        self.settle_now(now, d, w, lit);
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
        self.settle_now(now, d, w, false);
    }

    /// True when board `s`'s transmitters toward `d` have failed.
    fn is_tx_failed(&self, s: u16, d: u16) -> bool {
        self.failed_tx.contains(&(s, d))
    }

    /// The laser receiver `(d, w)` should have lit: its owner's, unless the
    /// receiver has failed or the owner's transmitters toward `d` have.
    fn wanted(&self, d: u16, w: u16) -> Option<u16> {
        self.slots[self.slot(d, w)]
            .owner
            .filter(|&s| !self.is_failed(d, w) && !self.is_tx_failed(s, d))
    }

    /// Moves receiver `(d, w)` toward [`Srs::wanted`]: a lit laser that is
    /// not the wanted one, or that owes a `drain`, goes dark once it is
    /// between packets; the dark slot then lights the wanted laser through
    /// a lock-in window. False while the laser to darken still serializes.
    fn settle(&mut self, now: Cycle, d: u16, w: u16, drain: bool) -> bool {
        let want = self.wanted(d, w);
        let k = self.slot(d, w);
        let slot = &mut self.slots[k];
        if slot.lit_by.is_some_and(|s| drain || Some(s) != want)
            && !slot.edit(&mut self.lit, |slot| slot.darken_if_idle(now))
        {
            return false;
        }
        if let (None, Some(s)) = (self.slots[k].lit_by, want) {
            let lock = self.lock_penalty;
            self.light(now, d, w, s, lock);
        }
        true
    }

    /// Queues slot `k` to settle (an entry already queued keeps any drain
    /// it owes) and returns its queue position.
    fn queue_settle(&mut self, k: usize, drain: bool) -> usize {
        match self.unsettled.binary_search_by_key(&k, |e| e.0) {
            Ok(p) => {
                self.unsettled[p].1 |= drain;
                p
            }
            Err(p) => {
                self.unsettled.insert(p, (k, drain));
                p
            }
        }
    }

    /// Settles receiver `(d, w)` at once, or leaves it queued for
    /// [`Srs::tick`] while its laser to darken still serializes.
    fn settle_now(&mut self, now: Cycle, d: u16, w: u16, drain: bool) {
        let p = self.queue_settle(self.slot(d, w), drain);
        if self.settle(now, d, w, self.unsettled[p].1) {
            self.unsettled.remove(p);
        }
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
        let owned = self.owned_words(s, d).to_vec();
        for w in words::ones(&owned) {
            let w = w as u16;
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
            let k = self.slot(d, w);
            let slot = &mut self.slots[k];
            if slot.lit_by == Some(s) {
                slot.retune = None;
                slot.relock = None;
            }
            self.settle_now(now, d, w, false);
        }
    }

    /// Fault repair: board `s`'s transmitters toward `d` recover; every
    /// owned wavelength re-lights through a lock-in window (once a donor
    /// still draining onto it is dark — [`Srs::tick`] settles it then),
    /// and a laser still draining from the outage simply keeps running.
    pub fn repair_transmitter(&mut self, now: Cycle, s: u16, d: u16) {
        let Some(pos) = self.failed_tx.iter().position(|&p| p == (s, d)) else {
            return;
        };
        self.failed_tx.swap_remove(pos);
        let owned = self.owned_words(s, d).to_vec();
        for w in words::ones(&owned) {
            self.settle_now(now, d, w as u16, false);
        }
    }

    /// Fault injection: the LC of channel `(s → d, w)` wedges at its
    /// current power level. Pending and future DPM retunes are dropped
    /// until [`Srs::unstick_lc`].
    pub fn stick_lc(&mut self, s: u16, d: u16, w: u16) {
        Self::queue_push(&mut self.stuck_lc, (s, d, w));
        let k = self.slot(d, w);
        if self.slots[k].lit_by == Some(s) {
            self.slots[k].retune = None;
        }
    }

    /// Fault repair: the stuck LC recovers; the next DPM decision can
    /// retune the channel again.
    pub fn unstick_lc(&mut self, s: u16, d: u16, w: u16) {
        if let Ok(p) = self.stuck_lc.binary_search(&(s, d, w)) {
            self.stuck_lc.remove(p);
        }
    }

    /// True when the LC of channel `(s → d, w)` is stuck.
    fn is_lc_stuck(&self, s: u16, d: u16, w: u16) -> bool {
        self.stuck_lc.binary_search(&(s, d, w)).is_ok()
    }

    /// Fault injection: the receiver CDR of channel `(s → d, w)` loses
    /// lock. The channel goes dark for `penalty` cycles as soon as it is
    /// between packets (in-flight photons still land). Inert on a dark
    /// channel.
    pub fn schedule_relock(&mut self, s: u16, d: u16, w: u16, penalty: Cycle) {
        let k = self.slot(d, w);
        if self.slots[k].lit_by == Some(s) {
            self.slots[k].relock = Some(penalty);
            Self::queue_push(&mut self.relock_queue, (s, d, w));
        }
    }

    /// CDR relock events actually applied (storm observability).
    pub fn relocks_applied(&self) -> u64 {
        self.relocks_applied
    }

    /// Tries to transmit `packet` from board `s` to board `d` on any free
    /// owned channel, returning the wavelength used. The serialization-end
    /// wake and the fiber arrival go straight into their heaps: the cycle
    /// calls this board-ascending, and each [`BinaryHeapQueue`] breaks time
    /// ties by insertion sequence, so that call order *is* the pop order
    /// the pins were recorded against (DESIGN.md §12).
    ///
    /// A failed try writes nothing but the flow's `blocked_until`, which
    /// the caller reads through [`Srs::is_blocked`] to skip tries that
    /// would fail the same way (DESIGN.md §12).
    pub(crate) fn try_transmit(
        &mut self,
        now: Cycle,
        s: u16,
        d: u16,
        packet: ReadyPacket,
    ) -> Option<u16> {
        let base = self.slot(d, 0);
        // Scan only owned wavelengths; ascending order matches the legacy
        // full `0..W` scan over the ownership map.
        let free = if self.is_tx_failed(s, d) {
            None
        } else {
            words::ones(self.owned_words(s, d)).find(|&w| {
                let slot = &self.slots[base + w];
                // A channel with a pending retune must not start a packet:
                // the retune would never get a free window under load.
                slot.lit_by == Some(s) && slot.chan.can_send(now) && slot.retune.is_none()
            })
        };
        let Some(w) = free else {
            let f = self.flow(s, d);
            self.blocked_until[f] = self.next_send(now, s, d);
            return None;
        };
        let (k, w) = (base + w, w as u16);
        let slot = &mut self.slots[k];
        // Back-to-back reuse exactly at the previous packet's end: its
        // wake entry has not fired yet, so close its span here first.
        debug_assert!(
            slot.busy.is_none_or(|span| span.cap <= now),
            "span open past serialization"
        );
        slot.close_busy(Cycle::MAX);
        let arrive_at = slot.edit(&mut self.lit, |slot| {
            slot.chan
                .begin_packet(&self.timing, now, packet.flits as u32)
        });
        let Some(until) = slot.chan.sending_until() else {
            unreachable!("begin_packet leaves the channel Sending")
        };
        slot.busy = Some(Span {
            start: now,
            cap: until,
        });
        self.wake.insert(until, k);
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

    /// The earliest cycle after a failed try at `now` at which flow
    /// `(s, d)` could start a packet with no waking event in between: over
    /// its owned channels lit by `s`, a serializing or transitioning one's
    /// `until`, or `now + 1` for one held only by its pending retune (a
    /// stuck LC may drop the retune); `Cycle::MAX` with none lit. The
    /// bound ignores a transmitter failure, so its repair needs no reset;
    /// nothing but `light` or an ownership gain makes a channel sendable
    /// before it, and both reset it.
    fn next_send(&self, now: Cycle, s: u16, d: u16) -> Cycle {
        let base = self.slot(d, 0);
        words::ones(self.owned_words(s, d))
            .map(|w| &self.slots[base + w])
            .filter(|slot| slot.lit_by == Some(s))
            .map(|slot| match slot.chan.state() {
                ChannelState::Sending { until } | ChannelState::Transitioning { until }
                    if until > now =>
                {
                    until
                }
                _ => now + 1,
            })
            .min()
            .unwrap_or(Cycle::MAX)
    }

    /// Packets still in flight in the optical domain (serializing or on
    /// the fiber).
    pub fn arrivals_pending(&self) -> usize {
        self.arrivals.len()
    }

    /// Pops the next packet that has fully arrived by `now`, if any — the
    /// allocation-free form the cycle loop drains arrivals with.
    pub(crate) fn pop_arrival_due(&mut self, now: Cycle) -> Option<Arrival> {
        match self.arrivals.peek_time() {
            Some(t) if t <= now => self.arrivals.pop().map(|(_, a)| a),
            _ => None,
        }
    }

    /// All packets that have fully arrived by `now` (allocating wrapper
    /// over [`Srs::pop_arrival_due`]).
    #[cfg(test)]
    fn arrivals_due(&mut self, now: Cycle) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some(arr) = self.pop_arrival_due(now) {
            out.push(arr);
        }
        out
    }

    /// Schedules a DPM retune for the lit channel `(s,d,w)`; applied as
    /// soon as the wavelength is free. Inert on a dark channel (DPM only
    /// retunes lit ones) and on a stuck LC.
    ///
    /// # Panics
    /// If `level` is not on the ladder.
    pub fn schedule_retune(&mut self, s: u16, d: u16, w: u16, level: RateLevel, penalty: Cycle) {
        assert!(level.index() < self.timing.levels(), "level out of range");
        if self.is_lc_stuck(s, d, w) {
            // A wedged LC silently drops the retune command.
            return;
        }
        let k = self.slot(d, w);
        let slot = &mut self.slots[k];
        if slot.lit_by == Some(s) && slot.chan.level() != level {
            slot.retune = Some((level, penalty));
            Self::queue_push(&mut self.retune_queue, (s, d, w));
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
            debug_assert_eq!(self.owner(d, w), Some(grant.from.0));
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
            // Cancel any pending retune on the donor's laser.
            let k = self.slot(d, w);
            if self.slots[k].lit_by == Some(grant.from.0) {
                self.slots[k].retune = None;
            }
            self.queue_settle(k, false);
            self.grants_applied += 1;
        }
    }

    /// Per-cycle housekeeping: settle channels, apply pending relocks and
    /// retunes, then settle every queued slot toward its wanted laser.
    ///
    /// Emits [`TraceEvent::RelockStart`]/
    /// [`TraceEvent::RelockEnd`] when a CDR relock engages (the end event
    /// is stamped `now + penalty` — the blackout span is deterministic) and
    /// [`TraceEvent::DpmApplied`] when a pending retune takes effect.
    pub fn tick(&mut self, now: Cycle, sink: &mut dyn TraceSink) {
        // Settle slots whose serialization has ended (event-driven
        // replacement for the legacy settle-every-channel scan). Channels
        // left in a stale `Transitioning{until ≤ now}` state are
        // observationally identical to settled-`Idle` ones — `is_on`,
        // `can_send`, and the power accounting all agree — so only
        // `Sending` ends need wakes. A stale wake (the channel started a
        // new packet at exactly its old `until`) settles harmlessly.
        while self.wake.peek_time().is_some_and(|t| t <= now) {
            let Some((_, k)) = self.wake.pop() else {
                break;
            };
            let slot = &mut self.slots[k];
            slot.edit(&mut self.lit, |slot| slot.chan.settle(now));
            if slot.busy.is_some_and(|span| span.cap <= now) {
                slot.close_busy(now);
            }
        }
        // Apply pending CDR relocks on idle channels: the laser stays up
        // but the link is unusable until the receiver re-locks — modeled
        // as a dark window of the relock penalty. Only queued lasers are
        // visited; a laser no longer lit lost its relock with its light.
        let mut q = 0;
        while q < self.relock_queue.len() {
            let (s, d, w) = self.relock_queue[q];
            let k = self.slot(d, w);
            let slot = &mut self.slots[k];
            let mut keep = false;
            if let Some(penalty) = slot.relock.filter(|_| slot.lit_by == Some(s)) {
                if slot.chan.can_send(now) {
                    slot.edit(&mut self.lit, |slot| {
                        slot.chan.power_off(now);
                        slot.chan.power_on_dark(now, penalty);
                    });
                    slot.relock = None;
                    self.relocks_applied += 1;
                    if sink.enabled() {
                        sink.emit(
                            now,
                            TraceEvent::RelockStart {
                                src: s,
                                dest: d,
                                wavelength: w,
                                penalty,
                            },
                        );
                        sink.emit(
                            now + penalty,
                            TraceEvent::RelockEnd {
                                src: s,
                                dest: d,
                                wavelength: w,
                            },
                        );
                    }
                } else {
                    keep = true;
                }
            }
            if keep {
                q += 1;
            } else {
                self.relock_queue.remove(q);
            }
        }
        // Apply pending retunes on idle channels (same sweep discipline).
        let mut q = 0;
        while q < self.retune_queue.len() {
            let laser @ (s, d, w) = self.retune_queue[q];
            let k = self.slot(d, w);
            let slot = &mut self.slots[k];
            let mut keep = false;
            if let Some((level, penalty)) = slot.retune.filter(|_| slot.lit_by == Some(s)) {
                if slot.chan.can_send(now) {
                    slot.edit(&mut self.lit, |slot| {
                        slot.chan.begin_transition(now, level, penalty)
                    });
                    slot.retune = None;
                    let li = self.laser(laser);
                    self.levels[li] = level;
                    self.retunes_applied += 1;
                    if sink.enabled() {
                        sink.emit(
                            now,
                            TraceEvent::DpmApplied {
                                src: s,
                                dest: d,
                                wavelength: w,
                                level: level.0,
                            },
                        );
                    }
                } else {
                    keep = true;
                }
            }
            if keep {
                q += 1;
            } else {
                self.retune_queue.remove(q);
            }
        }
        // Settle the queued slots: each unwanted (or drain-owing) laser
        // goes dark once idle, then the wanted one lights.
        let mut queue = std::mem::take(&mut self.unsettled);
        let wn = self.wavelengths as usize;
        queue.retain(|&(k, drain)| !self.settle(now, (k / wn) as u16, (k % wn) as u16, drain));
        self.unsettled = queue;
    }

    /// Lasers in each power class (dark first, then idle and active per
    /// level, as [`class_mw`] prices them) — what `PowerMeter` records each
    /// measured cycle.
    pub(crate) fn lit(&self) -> &[u32] {
        &self.lit
    }

    /// [`Srs::lit`] counted afresh from the slots.
    fn recount_lit(&self) -> Vec<u32> {
        let mut lit = vec![0; self.lit.len()];
        for slot in &self.slots {
            lit[slot.power_class()] += 1;
        }
        lit
    }

    /// Rolls all utilization windows at the `R_w` boundary `now`; the
    /// frozen values feed the next DPM/DBR decisions. Open serialization
    /// spans are split at the boundary: cycles before `now` land in the
    /// closing window, the rest stay with the (still open) span. Busy
    /// stashed by owners retired in the closing window is dropped with it.
    pub fn roll_windows(&mut self, now: Cycle) {
        for slot in &mut self.slots {
            if let Some(span) = slot.busy {
                let end = span.cap.min(now);
                if end > span.start {
                    slot.win_busy += end - span.start;
                }
                slot.busy = (span.cap > now).then_some(Span {
                    start: now,
                    cap: span.cap,
                });
            }
            slot.link_prev = (slot.win_busy as f64 / self.window as f64).clamp(0.0, 1.0);
            slot.win_busy = 0;
        }
        self.busy_stash.clear();
    }

    /// Previous-window `Link_util` of channel `(s,d,w)` — the receiver's,
    /// while `s` owns it; `0.0` for any other source (no policy reads a
    /// link it does not own).
    pub fn link_util(&self, s: u16, d: u16, w: u16) -> f64 {
        let slot = &self.slots[self.slot(d, w)];
        if slot.owner == Some(s) {
            slot.link_prev
        } else {
            0.0
        }
    }

    /// Board count.
    pub fn boards(&self) -> u16 {
        self.boards
    }

    /// Wavelength count.
    pub fn wavelengths(&self) -> u16 {
        self.wavelengths
    }

    /// Test-support self-check of the slot bank (ROADMAP item 3a's SRS
    /// clause), run every cycle by the fault-plan property and on every
    /// snapshot load. Names the first violation of: every board, laser and
    /// slot index in range (queues, stash, stuck list, wakes, arrivals,
    /// faults); the settle queue strictly ascending; a slot's `lit_by` is
    /// `Some` exactly while its laser is on — so at most one source is lit
    /// per `(d, w)` — and only a lit laser has pending work; the lit
    /// laser's level is its entry in the level table; every slot not
    /// queued to settle is lit by exactly [`Srs::wanted`] (so, once the
    /// queue drains, every owned slot that nothing failed is lit by its
    /// owner); the `owned` bitsets equal the owner fields; the lit-class
    /// counters equal a recount of the slots; and a flow asleep at `now`
    /// (`blocked_until > now`) has no owned channel it could send on.
    pub fn check_invariants(&self, now: Cycle) -> Result<(), String> {
        let (b, wn) = (self.boards, self.wavelengths);
        let laser_ok = |&(s, d, w): &Laser| s < b && d < b && w < wn;
        let ascending = |q: &[Laser]| q.windows(2).all(|p| p[0] < p[1]);
        for (what, q) in [
            ("retune queue", &self.retune_queue),
            ("relock queue", &self.relock_queue),
            ("stuck-LC list", &self.stuck_lc),
        ] {
            if let Some(l) = q.iter().find(|l| !laser_ok(l)) {
                return Err(format!("{what} names laser {l:?} outside B = {b}"));
            }
            if !ascending(q) {
                return Err(format!("{what} is not strictly ascending"));
            }
        }
        if let Some((l, _)) = self.busy_stash.iter().find(|(l, _)| !laser_ok(l)) {
            return Err(format!("busy stash names laser {l:?} outside B = {b}"));
        }
        if let Some(k) = self.wake.events().find(|&&k| k >= self.slots.len()) {
            return Err(format!("wake queue names slot {k} of {}", self.slots.len()));
        }
        if self
            .arrivals
            .events()
            .any(|a| a.dst_board >= b || a.src_board >= b || a.wavelength >= wn)
        {
            return Err(format!(
                "an arrival names a board or wavelength outside B = {b}"
            ));
        }
        if !self.unsettled.windows(2).all(|p| p[0].0 < p[1].0) {
            return Err("settle queue is not strictly ascending".into());
        }
        if let Some(&(k, _)) = self.unsettled.last().filter(|e| e.0 >= self.slots.len()) {
            return Err(format!(
                "settle queue names slot {k} of {}",
                self.slots.len()
            ));
        }
        if self
            .failed
            .iter()
            .chain(&self.failed_tx)
            .any(|&(x, y)| x >= b || y >= b)
        {
            return Err(format!(
                "a failed receiver/transmitter lies outside B = {b}"
            ));
        }
        if let Some(l) = self
            .levels
            .iter()
            .find(|l| l.index() >= self.timing.levels())
        {
            return Err(format!("laser level {} is off the ladder", l.0));
        }
        for (k, slot) in self.slots.iter().enumerate() {
            let (d, w) = ((k / wn as usize) as u16, (k % wn as usize) as u16);
            if let Some(s) = slot.owner.into_iter().chain(slot.lit_by).find(|&s| s >= b) {
                return Err(format!(
                    "slot ({d}, λ{w}) names board {s} but the system has {b}"
                ));
            }
            if slot.lit_by.is_some() != slot.chan.is_on() {
                return Err(format!(
                    "slot ({d}, λ{w}): lit_by {:?} but the laser is {:?}",
                    slot.lit_by,
                    slot.chan.state()
                ));
            }
            match slot.lit_by {
                Some(s) if slot.chan.level() != self.levels[self.laser((s, d, w))] => {
                    return Err(format!(
                        "slot ({d}, λ{w}): lit laser {s} runs at {:?}, its level entry says {:?}",
                        slot.chan.level(),
                        self.levels[self.laser((s, d, w))]
                    ));
                }
                None if slot.retune.is_some() || slot.relock.is_some() => {
                    return Err(format!("dark slot ({d}, λ{w}) has pending retune/relock"));
                }
                _ => {}
            }
            let want = self.wanted(d, w);
            if slot.lit_by != want && self.unsettled.binary_search_by_key(&k, |e| e.0).is_err() {
                return Err(format!(
                    "slot ({d}, λ{w}) lit by {:?} but wants {want:?}, and is not queued to settle",
                    slot.lit_by
                ));
            }
            if let Some(s) = slot.owner.filter(|&s| self.is_blocked(now, s, d)) {
                if slot.lit_by == Some(s) && slot.chan.can_send(now) && slot.retune.is_none() {
                    return Err(format!(
                        "flow {s}→{d} sleeps until {} but λ{w} can send at {now}",
                        self.blocked_until[self.flow(s, d)]
                    ));
                }
            }
        }
        if self.owners_as_words() != self.owned {
            return Err("owned bitsets disagree with the slots' owners".into());
        }
        let recount = self.recount_lit();
        if self.lit != recount {
            return Err(format!(
                "lit-class counters {:?} != recount {recount:?}",
                self.lit
            ));
        }
        Ok(())
    }

    /// Serializes the mutable optical-stage state (`.ersp` v8): every
    /// slot — owner, lit source, the lit laser's state, pending retune
    /// and relock, link/busy accounting with only an *open* span's bounds
    /// — then the lasers whose level is below the ladder top, the busy
    /// stash, the wake/arrival heaps, the pending-work queues, the settle
    /// queue, fault sets and lifetime counters. Geometry (board count, ladder,
    /// RWA, penalties) is config-derived; the `owned` bitsets, the
    /// lit-class counters and the flows' `blocked_until` are rebuilt from
    /// the slots on load rather than persisted.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        w.tag(b"SRSS");
        w.usize(self.slots.len());
        for slot in &self.slots {
            slot.save(w);
        }
        let top = top_level(&self.timing);
        let retuned: Vec<(usize, RateLevel)> = (self.levels.iter().enumerate())
            .filter(|&(_, &l)| l != top)
            .map(|(i, &l)| (i, l))
            .collect();
        retuned.save(w);
        self.busy_stash.save(w);
        self.stuck_lc.save(w);
        self.wake.save_state(w);
        self.retune_queue.save(w);
        self.relock_queue.save(w);
        self.arrivals.save_state(w);
        self.unsettled.save(w);
        self.failed.save(w);
        self.failed_tx.save(w);
        w.u64(self.grants_applied);
        w.u64(self.retunes_applied);
        w.u64(self.relocks_applied);
    }

    /// Overlays checkpointed optical-stage state onto a freshly built SRS
    /// with identical geometry. Anything [`Srs::check_invariants`] would
    /// refuse — a board or laser out of range, a slot lit by other than its
    /// wanted laser and not queued to settle — is a typed error.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::{Snap, SnapError};
        r.tag(b"SRSS")?;
        r.len_eq(self.slots.len(), "SRS receiver slots")?;
        for k in 0..self.slots.len() {
            self.slots[k] = Slot::load(r, &self.timing)?;
        }
        let top = top_level(&self.timing);
        self.levels.fill(top);
        let retuned: Vec<(usize, RateLevel)> = Snap::load(r)?;
        for (i, level) in retuned {
            let Some(entry) = self.levels.get_mut(i) else {
                return Err(SnapError::Format(format!(
                    "SRS level table names laser {i} of {}",
                    self.levels.len()
                )));
            };
            *entry = level;
        }
        self.busy_stash = Snap::load(r)?;
        self.stuck_lc = Snap::load(r)?;
        self.wake.load_state(r)?;
        self.retune_queue = Snap::load(r)?;
        self.relock_queue = Snap::load(r)?;
        self.arrivals.load_state(r)?;
        self.unsettled = Snap::load(r)?;
        self.failed = Snap::load(r)?;
        self.failed_tx = Snap::load(r)?;
        self.grants_applied = r.u64()?;
        self.retunes_applied = r.u64()?;
        self.relocks_applied = r.u64()?;
        // An out-of-range owner is skipped here and refused just below;
        // every flow wakes, so the sleep clause holds at any cycle.
        self.rebuild_derived();
        self.check_invariants(0)
            .map_err(|e| SnapError::Format(format!("SRS snapshot: {e}")))
    }

    /// Coarse heap-footprint estimate in bytes: the B·W slots, the one-byte
    /// per-laser level table, the per-flow owned bitsets and sleep bounds,
    /// and every carried table, queue and heap at capacity × element size.
    /// Analytic, not an allocator probe.
    pub fn approx_memory_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.slots.capacity() * size_of::<Slot>()
            + self.levels.capacity() * size_of::<RateLevel>()
            + self.owned.capacity() * size_of::<u64>()
            + self.blocked_until.capacity() * size_of::<Cycle>()
            + self.busy_stash.capacity() * size_of::<(Laser, Cycle)>()
            + (self.stuck_lc.capacity()
                + self.retune_queue.capacity()
                + self.relock_queue.capacity())
                * size_of::<Laser>()
            + self.wake.approx_memory_bytes()
            + self.arrivals.approx_memory_bytes()
            + self.unsettled.capacity() * size_of::<(usize, bool)>()
            + (self.failed.capacity() + self.failed_tx.capacity()) * size_of::<(u16, u16)>()
            + self.timing.levels() * size_of::<Cycle>()
            + self.lit.capacity() * size_of::<u32>()
    }
}

/// The stage and packet every test module below builds on.
#[cfg(test)]
mod test_util {
    use super::*;
    use router::flit::PacketId;

    /// A stage of `boards` boards on the paper's ladder: fiber 4 cycles,
    /// `R_w` 100, lock-in 65.
    pub(super) fn srs_of(boards: u16) -> Srs {
        Srs::new(boards, &RateLadder::paper(), Serdes::paper(), 4, 100, 65)
    }

    /// The B = 4 stage of the paper's Fig. 1 example.
    pub(super) fn srs() -> Srs {
        srs_of(4)
    }

    /// An 8-flit packet `id`.
    pub(super) fn pkt(id: u64) -> ReadyPacket {
        ReadyPacket {
            id: PacketId(id),
            dst: 0,
            injected_at: 0,
            labelled: false,
            flits: 8,
            vc: 0,
            completed_at: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::{pkt, srs};
    use super::*;
    use erapid_telemetry::NullSink;
    use router::flit::PacketId;

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
        assert_eq!(words::ones(s.owned_words(1, 0)).collect::<Vec<_>>(), [1]);
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
        assert_eq!(words::ones(s.owned_words(1, 0)).collect::<Vec<_>>(), [1, 2]);
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
        let mw = class_mw(&LinkPowerModel::paper_table());
        let draw = |s: &Srs| -> f64 {
            (s.lit().iter().zip(&mw))
                .map(|(&n, &p)| f64::from(n) * p)
                .sum()
        };
        let idle = 1 + 2 * RateLadder::paper().highest().index();
        // 4 dark λ0 receivers and 12 idle lasers at 43.03 × 0.05.
        assert_eq!((s.lit()[0], s.lit()[idle], s.lit()[idle + 1]), (4, 12, 0));
        assert!((draw(&s) - 12.0 * 43.03 * 0.05).abs() < 1e-6);
        s.try_transmit(0, 1, 0, pkt(1)).unwrap();
        assert_eq!((s.lit()[0], s.lit()[idle], s.lit()[idle + 1]), (4, 11, 1));
        assert!((draw(&s) - (11.0 * 43.03 * 0.05 + 43.03)).abs() < 1e-6);
    }

    #[test]
    fn link_util_windows_roll() {
        let mut s = srs();
        s.try_transmit(0, 1, 0, pkt(1)).unwrap();
        for now in 0..100u64 {
            s.tick(now, &mut NullSink);
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
    use super::test_util::{pkt, srs};
    use super::*;
    use erapid_telemetry::NullSink;

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
    fn a_laser_lit_through_a_receiver_failure_relocks_before_it_sends() {
        let mut s = srs();
        // Board 1 is mid-packet on λ1 toward 0 (until 48) when the receiver
        // fails at 5 and is repaired at 10. Board 1 is wanted again, but
        // its laser stayed lit through the failure: once the packet clears
        // it goes dark and relocks for 65 cycles before it may send.
        assert_eq!(s.try_transmit(0, 1, 0, pkt(7)), Some(1));
        s.fail_receiver(5, 0, 1, &mut NullSink);
        s.repair_receiver(10, 0, 1);
        s.tick(48, &mut NullSink);
        assert!(s.channel(1, 0, 1).is_on());
        assert_eq!(s.try_transmit(49, 1, 0, pkt(8)), None, "relocking");
        s.tick(112, &mut NullSink);
        assert_eq!(s.try_transmit(112, 1, 0, pkt(8)), None, "still relocking");
        s.tick(113, &mut NullSink);
        assert_eq!(s.try_transmit(113, 1, 0, pkt(8)), Some(1));
        s.check_invariants(113).expect("settled");
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

    /// `λ2` toward board 0, handed from `from` to `to`.
    fn grant_l2(from: u16, to: u16) -> WavelengthGrant {
        WavelengthGrant {
            destination: BoardId(0),
            wavelength: Wavelength(2),
            from: BoardId(from),
            to: BoardId(to),
        }
    }

    #[test]
    fn transmitter_repair_waits_for_a_draining_donor() {
        let mut s = srs();
        // Board 2 is mid-packet on λ2 when λ2 is granted to board 1, whose
        // transmitters toward 0 then fail and recover before 2 drains.
        assert_eq!(s.try_transmit(0, 2, 0, pkt(1)), Some(2));
        s.schedule_grants(0, &[grant_l2(2, 1)], &mut NullSink);
        s.fail_transmitter(5, 1, 0, &mut NullSink);
        s.repair_transmitter(10, 1, 0);
        assert!(s.channel(1, 0, 1).is_on(), "the idle λ1 relights at once");
        assert!(s.channel(2, 0, 2).is_on());
        assert!(!s.channel(1, 0, 2).is_on(), "not beside the donor");
        s.tick(48, &mut NullSink);
        assert!(!s.channel(2, 0, 2).is_on());
        assert!(s.channel(1, 0, 2).is_on(), "the grant lights it");
    }

    #[test]
    fn transmitter_repair_keeps_a_dead_receivers_drain() {
        let mut s = srs();
        // Board 1's laser on λ1 is mid-packet when the receiver dies, and
        // board 1's transmitters toward 0 fail and recover meanwhile: the
        // receiver's shutdown is not the outage's to cancel.
        assert_eq!(s.try_transmit(0, 1, 0, pkt(1)), Some(1));
        s.fail_receiver(5, 0, 1, &mut NullSink);
        s.fail_transmitter(6, 1, 0, &mut NullSink);
        s.repair_transmitter(7, 1, 0);
        s.tick(48, &mut NullSink);
        assert!(!s.channel(1, 0, 1).is_on());
        assert_eq!(s.lasers_on(), 11);
    }

    #[test]
    fn overlapping_grants_drain_every_donor_first() {
        let mut s = srs();
        // λ2 goes 2 → 1 while 2 is mid-packet, then 1 → 3 before 1 ever
        // lit: board 3 lights only once the slot is dark, and board 1
        // never does.
        assert_eq!(s.try_transmit(0, 2, 0, pkt(1)), Some(2));
        s.schedule_grants(0, &[grant_l2(2, 1)], &mut NullSink);
        s.schedule_grants(1, &[grant_l2(1, 3)], &mut NullSink);
        s.tick(1, &mut NullSink);
        assert!(!s.channel(3, 0, 2).is_on(), "not beside the first donor");
        s.tick(48, &mut NullSink);
        assert!(!s.channel(2, 0, 2).is_on());
        assert!(!s.channel(1, 0, 2).is_on());
        assert!(s.channel(3, 0, 2).is_on());
        assert_eq!(s.owner(0, 2), Some(3));
        s.check_invariants(48).expect("one laser, owned");
    }

    #[test]
    fn a_grant_back_to_a_draining_donor_keeps_it_lit() {
        let mut s = srs();
        // λ2 goes 2 → 1 while 2 is mid-packet, then 1 → 2 before 2 is
        // dark: board 2 keeps its laser, and the wavelength is never lost.
        assert_eq!(s.try_transmit(0, 2, 0, pkt(1)), Some(2));
        for now in 0..=60 {
            match now {
                1 => s.schedule_grants(now, &[grant_l2(2, 1)], &mut NullSink),
                2 => s.schedule_grants(now, &[grant_l2(1, 2)], &mut NullSink),
                _ => {}
            }
            s.tick(now, &mut NullSink);
            s.check_invariants(now)
                .unwrap_or_else(|e| panic!("cycle {now}: {e}"));
        }
        assert!(s.channel(2, 0, 2).is_on());
        assert!(!s.channel(1, 0, 2).is_on());
        assert_eq!(s.owner(0, 2), Some(2));
    }
}

/// State a retired owner leaves behind on a `(d, w)` receiver, and the
/// event order of one cycle's retunes — pinned through the public API so
/// the storage layout under it can change.
#[cfg(test)]
mod carried_state_tests {
    use super::test_util::{pkt, srs};
    use super::*;
    use erapid_telemetry::NullSink;

    /// `λ1` toward board 0, handed from `from` to `to`.
    fn grant(from: u16, to: u16) -> WavelengthGrant {
        WavelengthGrant {
            destination: BoardId(0),
            wavelength: Wavelength(1),
            from: BoardId(from),
            to: BoardId(to),
        }
    }

    #[derive(Default)]
    struct Rec(Vec<TraceEvent>);

    impl TraceSink for Rec {
        fn emit(&mut self, _at: Cycle, event: TraceEvent) {
            self.0.push(event);
        }
    }

    #[test]
    fn regranted_owner_relights_at_its_own_level() {
        let mut s = srs();
        // Board 1 (static owner of λ1 → 0) retunes down to the lowest level.
        s.schedule_retune(1, 0, 1, RateLevel(0), 65);
        s.tick(1, &mut NullSink);
        s.schedule_grants(100, &[grant(1, 2)], &mut NullSink);
        s.tick(100, &mut NullSink);
        // Board 2 lights at *its* level, and retunes to the middle one.
        assert_eq!(s.channel(2, 0, 1).level(), RateLevel(2));
        s.tick(165, &mut NullSink);
        s.schedule_retune(2, 0, 1, RateLevel(1), 65);
        s.tick(200, &mut NullSink);
        assert_eq!(s.channel(2, 0, 1).level(), RateLevel(1));
        // Granted back, board 1 relights at its own last level (0), not the
        // level the wavelength last ran at (1).
        s.schedule_grants(300, &[grant(2, 1)], &mut NullSink);
        s.tick(300, &mut NullSink);
        assert!(s.channel(1, 0, 1).is_on());
        assert_eq!(s.channel(1, 0, 1).level(), RateLevel(0));
        assert!(!s.channel(2, 0, 1).is_on());
        assert_eq!(s.channel(2, 0, 1).level(), RateLevel(1));
        // 8 flits × 11 cycles at 2.5 Gbps + 4 fiber: the level is live.
        s.tick(365, &mut NullSink);
        assert_eq!(s.try_transmit(365, 1, 0, pkt(1)), Some(1));
        assert!(s.arrivals_due(365 + 88 + 3).is_empty());
        assert_eq!(s.arrivals_due(365 + 88 + 4).len(), 1);
    }

    #[test]
    fn stuck_lc_survives_a_grant_away_and_back() {
        let mut s = srs();
        s.stick_lc(1, 0, 1);
        s.schedule_grants(0, &[grant(1, 2)], &mut NullSink);
        s.tick(0, &mut NullSink);
        // The recipient's LC is healthy.
        assert!(!s.is_lc_stuck(2, 0, 1));
        s.tick(65, &mut NullSink);
        s.schedule_retune(2, 0, 1, RateLevel(1), 65);
        s.tick(66, &mut NullSink);
        assert_eq!(s.reconfig_counts().1, 1);
        s.tick(131, &mut NullSink);
        s.schedule_grants(131, &[grant(2, 1)], &mut NullSink);
        s.tick(131, &mut NullSink);
        assert!(s.is_lc_stuck(1, 0, 1), "the wedge belongs to board 1's LC");
        s.tick(196, &mut NullSink);
        s.schedule_retune(1, 0, 1, RateLevel(0), 65);
        s.tick(197, &mut NullSink);
        assert_eq!(s.channel(1, 0, 1).level(), RateLevel(2));
        assert_eq!(s.reconfig_counts().1, 1, "the stuck LC dropped the retune");
    }

    #[test]
    fn retired_owner_busy_returns_with_the_receiver_in_one_window() {
        let mut s = srs();
        // Board 1 keeps λ1 busy for 48 cycles, then loses it to board 2.
        assert_eq!(s.try_transmit(0, 1, 0, pkt(1)), Some(1));
        s.tick(48, &mut NullSink);
        s.schedule_grants(50, &[grant(1, 2)], &mut NullSink);
        s.tick(50, &mut NullSink);
        // The receiver dies under board 2 and is repaired on the boundary
        // cycle itself — faults apply before the windows roll.
        s.fail_receiver(60, 0, 1, &mut NullSink);
        s.repair_receiver(100, 0, 1);
        assert_eq!(s.owner(0, 1), Some(1));
        s.roll_windows(100);
        assert_eq!(s.link_util(1, 0, 1), 0.48);
        assert_eq!(s.link_util(2, 0, 1), 0.0);
        // The busy is the closed window's, not carried into the next one.
        s.roll_windows(200);
        assert_eq!(s.link_util(1, 0, 1), 0.0);
    }

    #[test]
    fn relock_on_a_draining_donor_delays_the_recipient() {
        let mut s = srs();
        // Donor 2 → 0 on λ2 mid-packet (until 48) when its CDR loses lock
        // and the wavelength is granted to board 1.
        assert_eq!(s.try_transmit(0, 2, 0, pkt(1)), Some(2));
        s.schedule_relock(2, 0, 2, 200);
        let g = WavelengthGrant {
            destination: BoardId(0),
            wavelength: Wavelength(2),
            from: BoardId(2),
            to: BoardId(1),
        };
        s.schedule_grants(10, &[g], &mut NullSink);
        s.tick(10, &mut NullSink);
        // The relock engages when the packet clears and holds the donor's
        // laser up through its 200-cycle blackout.
        s.tick(48, &mut NullSink);
        assert_eq!(s.relocks_applied(), 1);
        assert!(s.channel(2, 0, 2).is_on());
        assert!(!s.channel(1, 0, 2).is_on());
        s.tick(247, &mut NullSink);
        assert!(!s.channel(1, 0, 2).is_on());
        s.tick(248, &mut NullSink);
        assert!(!s.channel(2, 0, 2).is_on());
        assert!(s.channel(1, 0, 2).is_on());
        // Then the recipient's own lock-in: usable 65 cycles later.
        s.tick(313, &mut NullSink);
        assert!(s.try_transmit(313, 1, 0, pkt(2)).is_some());
        assert!(s.try_transmit(313, 1, 0, pkt(3)).is_some());
    }

    #[test]
    fn one_cycles_retunes_apply_in_source_major_order() {
        let mut s = srs();
        // (s=2, d=0, λ2) precedes (s=1, d=2, λ3) in (d, w) order — the
        // order DPM schedules them in — but follows it in (s, d, w) order.
        s.schedule_retune(2, 0, 2, RateLevel(0), 65);
        s.schedule_retune(1, 2, 3, RateLevel(1), 65);
        let mut rec = Rec::default();
        s.tick(5, &mut rec);
        let applied = |src, dest, wavelength, level| TraceEvent::DpmApplied {
            src,
            dest,
            wavelength,
            level,
        };
        assert_eq!(rec.0, vec![applied(1, 2, 3, 1), applied(2, 0, 2, 0)]);
    }
}

/// The slot bank's own contracts: footprint, self-check and the `.ersp`
/// section.
#[cfg(test)]
mod slot_tests {
    use super::test_util::{pkt, srs_of};
    use super::*;
    use desim::snap::{SnapError, SnapReader, SnapWriter};
    use erapid_telemetry::NullSink;

    fn bytes(s: &Srs) -> Vec<u8> {
        let mut w = SnapWriter::new();
        s.save_state(&mut w);
        w.into_bytes()
    }

    /// A B = 4 stage with a bit of everything: a packet in flight, a
    /// pending grant, a retune, a relock, a stuck LC, stashed busy and a
    /// failed transmitter.
    fn busy_stage() -> Srs {
        let mut s = srs_of(4);
        assert_eq!(s.try_transmit(0, 1, 0, pkt(1)), Some(1));
        s.tick(48, &mut NullSink);
        assert_eq!(s.try_transmit(48, 2, 0, pkt(2)), Some(2));
        let g = WavelengthGrant {
            destination: BoardId(0),
            wavelength: Wavelength(1),
            from: BoardId(1),
            to: BoardId(3),
        };
        s.schedule_grants(50, &[g], &mut NullSink);
        s.schedule_retune(1, 2, 3, RateLevel(0), 65);
        s.schedule_relock(2, 0, 2, 100);
        s.stick_lc(3, 1, 2);
        s.fail_transmitter(50, 2, 1, &mut NullSink);
        s
    }

    #[test]
    fn footprint_grows_with_the_slots_not_the_lasers() {
        let (b16, b32) = (
            srs_of(16).approx_memory_bytes(),
            srs_of(32).approx_memory_bytes(),
        );
        // Slots are B·W = B² (4× per doubling); only the one-byte level
        // table is B³. The dense bank grew 8×.
        assert!(b32 <= 5 * b16, "B = 16 → 32 grew {b16} → {b32} bytes");
        assert!(b32 < 400_000, "B = 32 stage is {b32} bytes");
    }

    #[test]
    fn footprint_counts_every_carried_table() {
        let fresh = srs_of(4).approx_memory_bytes();
        let mut s = srs_of(4);
        let grow = |s: &mut Srs, what: &str, f: &dyn Fn(&mut Srs)| {
            let before = s.approx_memory_bytes();
            f(s);
            assert!(s.approx_memory_bytes() > before, "{what} is not counted");
        };
        grow(&mut s, "stuck-LC list", &|s| s.stick_lc(1, 0, 1));
        grow(&mut s, "relock queue", &|s| s.schedule_relock(1, 0, 1, 50));
        grow(&mut s, "retune queue", &|s| {
            s.schedule_retune(2, 0, 2, RateLevel(0), 65)
        });
        grow(&mut s, "failed receivers", &|s| {
            s.fail_receiver(0, 1, 2, &mut NullSink)
        });
        grow(&mut s, "failed transmitters", &|s| {
            s.fail_transmitter(0, 3, 2, &mut NullSink)
        });
        grow(&mut s, "pending grants + busy stash", &|s| {
            s.try_transmit(0, 3, 0, pkt(1));
            s.tick(48, &mut NullSink);
            s.schedule_grants(
                48,
                &[WavelengthGrant {
                    destination: BoardId(0),
                    wavelength: Wavelength(3),
                    from: BoardId(3),
                    to: BoardId(1),
                }],
                &mut NullSink,
            );
        });
        assert!(s.approx_memory_bytes() > fresh);
    }

    #[test]
    fn invariants_hold_through_grants_faults_and_drains() {
        let mut s = busy_stage();
        s.check_invariants(50).expect("busy stage");
        for now in 50..400 {
            s.tick(now, &mut NullSink);
            s.check_invariants(now)
                .unwrap_or_else(|e| panic!("cycle {now}: {e}"));
        }
        s.repair_transmitter(400, 2, 1);
        s.fail_receiver(401, 0, 3, &mut NullSink);
        s.check_invariants(401).expect("after faults");
    }

    #[test]
    fn sleeping_flows_skip_only_tries_that_would_fail() {
        // Two copies of one stage under the same grants, retunes and
        // faults, in the cycle's order (faults and decisions, transmits,
        // tick): `eager` tries every flow that has a packet, `lazy` skips
        // the flows that sleep. Every skipped try must be one that fails
        // in `eager`, so both send the same packets on the same channels at
        // the same cycles and end byte-identical.
        let (mut eager, mut lazy) = (srs_of(4), srs_of(4));
        let l2 = |from: u16, to: u16| WavelengthGrant {
            destination: BoardId(0),
            wavelength: Wavelength(2),
            from: BoardId(from),
            to: BoardId(to),
        };
        let events = |s: &mut Srs, now: Cycle| match now {
            // λ1 is idle (no packets since cycle 80): the pending retune
            // alone fails the tries at 120, and a penalty-free transition
            // frees the channel again at 121.
            120 => s.schedule_retune(1, 0, 1, RateLevel(0), 0),
            300 => s.schedule_grants(now, &[l2(2, 1)], &mut NullSink),
            600 => s.fail_transmitter(now, 3, 0, &mut NullSink),
            900 => s.repair_transmitter(now, 3, 0),
            1_000 => s.schedule_retune(2, 1, 2, RateLevel(0), 30),
            1_001 => s.stick_lc(2, 1, 2),
            1_300 => s.schedule_relock(3, 0, 3, 40),
            1_600 => s.fail_receiver(now, 0, 2, &mut NullSink),
            2_000 => s.repair_receiver(now, 0, 2),
            2_200 => s.schedule_grants(now, &[l2(2, 3)], &mut NullSink),
            // Board 2 owns nothing toward 0 until λ2 comes back, and
            // sleeps for good until the laser lights.
            2_500 => s.schedule_grants(now, &[l2(3, 2)], &mut NullSink),
            _ => {}
        };
        // The cycle after board 3 starts a packet on λ3 toward 0 (past
        // 2 700), that receiver fails — 3's next try finds nothing owned —
        // and is repaired one cycle later, before its drain ends: λ3 is
        // 3's again while still lit, with no `light` to wake the flow.
        let mut outage = None;
        let (mut tried, mut skipped, mut sent, mut id) = (0, 0, 0, 0);
        for now in 0..3_000 {
            for s in [&mut eager, &mut lazy] {
                events(s, now);
                if outage == Some(now) {
                    s.fail_receiver(now, 0, 3, &mut NullSink);
                }
                if outage.is_some_and(|at| at + 1 == now) {
                    s.repair_receiver(now, 0, 3);
                }
            }
            for (src, dst) in (0..4).flat_map(|a| (0..4).map(move |b| (a, b))) {
                if src == dst || (now / 40 + u64::from(src + dst)) % 3 == 0 {
                    continue; // no packet ready on this flow this cycle
                }
                id += 1;
                let want = eager.try_transmit(now, src, dst, pkt(id));
                sent += u32::from(want.is_some());
                if outage.is_none() && now >= 2_700 && (src, dst, want) == (3, 0, Some(3)) {
                    outage = Some(now + 1);
                }
                if lazy.is_blocked(now, src, dst) {
                    assert_eq!(want, None, "cycle {now}: {src}→{dst} skipped a send");
                    skipped += 1;
                } else {
                    tried += 1;
                    assert_eq!(lazy.try_transmit(now, src, dst, pkt(id)), want);
                }
            }
            for s in [&mut eager, &mut lazy] {
                s.tick(now, &mut NullSink);
                while s.pop_arrival_due(now).is_some() {}
            }
            lazy.check_invariants(now + 1)
                .unwrap_or_else(|e| panic!("cycle {now}: {e}"));
        }
        assert_eq!(bytes(&eager), bytes(&lazy));
        assert!(
            sent > 300 && skipped > 2 * tried,
            "{sent} sent, {tried} tried, {skipped} skipped"
        );
    }

    #[test]
    fn snapshot_round_trips_the_slot_bank() {
        let s = busy_stage();
        let saved = bytes(&s);
        let mut back = srs_of(4);
        back.load_state(&mut SnapReader::new(&saved))
            .expect("clean snapshot loads");
        assert_eq!(bytes(&back), saved);
        // The section is O(B·W): a dense B²·W bank would be ≥ 64 × 43 B.
        assert!(saved.len() < 1_500, "{} bytes", saved.len());
    }

    #[test]
    fn snapshot_refuses_what_the_invariants_refuse() {
        type Mutation = (&'static str, fn(&mut Srs));
        let cases: [Mutation; 7] = [
            // Receiver (2, λ1): owned and lit by board 3, nothing pending.
            ("lit source ≥ B", |s| s.slots[9].lit_by = Some(4)),
            ("lit_by ≠ owner, no grant", |s| {
                s.slots[9].lit_by = Some(0)
            }),
            ("owned and unfailed, dark, not queued", |s| {
                s.slots[9].edit(&mut s.lit, |slot| slot.darken(50))
            }),
            ("stuck key out of range", |s| s.stuck_lc.push((3, 9, 1))),
            ("retune key out of range", |s| {
                s.retune_queue.push((0, 0, 4))
            }),
            ("relock key out of range", |s| {
                s.relock_queue.push((7, 0, 1))
            }),
            ("stash key out of range", |s| {
                s.busy_stash.push(((0, 4, 1), 3))
            }),
        ];
        for (what, mutate) in cases {
            let mut s = busy_stage();
            mutate(&mut s);
            assert!(s.check_invariants(50).is_err(), "{what}: self-check");
            let mut fresh = srs_of(4);
            assert!(
                matches!(
                    fresh.load_state(&mut SnapReader::new(&bytes(&s))),
                    Err(SnapError::Format(_))
                ),
                "{what}: load"
            );
        }
    }
}
