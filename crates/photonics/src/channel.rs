//! End-to-end optical channel state machine.
//!
//! An [`OpticalChannel`] is one (source board, destination board, wavelength)
//! lightpath: the laser at the source, the fiber, and the receiver at the
//! destination. It tracks:
//!
//! * on/off state (DBR turns whole channels on and off),
//! * the current bit-rate level (DPM scales it),
//! * packet serialization occupancy (busy-until bookkeeping),
//! * rate-transition disable windows (the conservative 65-cycle CDR/voltage
//!   penalty of §4.1).

use crate::bitrate::{RateLadder, RateLevel};
use crate::serdes::Serdes;
use crate::wavelength::{BoardId, Wavelength};
use desim::Cycle;
use std::sync::Arc;

/// Channel availability state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// Laser off; the channel carries nothing.
    Off,
    /// On and idle.
    Idle,
    /// Serializing a packet; the wavelength frees at `until`.
    Sending {
        /// First cycle after the current packet clears the transmitter.
        until: Cycle,
    },
    /// Disabled during a bit-rate/voltage transition until the given cycle.
    Transitioning {
        /// First usable cycle after the transition.
        until: Cycle,
    },
}

/// One lightpath with DPM/DBR state.
#[derive(Debug, Clone)]
pub struct OpticalChannel {
    src: BoardId,
    dst: BoardId,
    wavelength: Wavelength,
    /// Shared with every other channel of the system: the ladder is
    /// config-derived and immutable, so one allocation serves all B²·W.
    ladder: Arc<RateLadder>,
    serdes: Serdes,
    fiber_delay: Cycle,
    level: RateLevel,
    state: ChannelState,
    /// Lifetime counters.
    packets_sent: u64,
    flits_sent: u64,
    transitions: u64,
}

impl OpticalChannel {
    /// Creates a channel, initially off, at the ladder's highest level.
    pub fn new(
        src: BoardId,
        dst: BoardId,
        wavelength: Wavelength,
        ladder: Arc<RateLadder>,
        serdes: Serdes,
        fiber_delay: Cycle,
    ) -> Self {
        let level = ladder.highest();
        Self {
            src,
            dst,
            wavelength,
            ladder,
            serdes,
            fiber_delay,
            level,
            state: ChannelState::Off,
            packets_sent: 0,
            flits_sent: 0,
            transitions: 0,
        }
    }

    /// Source board.
    pub fn src(&self) -> BoardId {
        self.src
    }

    /// Destination board.
    pub fn dst(&self) -> BoardId {
        self.dst
    }

    /// Wavelength of the lightpath.
    pub fn wavelength(&self) -> Wavelength {
        self.wavelength
    }

    /// Current availability state.
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// Current rate level.
    pub fn level(&self) -> RateLevel {
        self.level
    }

    /// The rate ladder in use.
    pub fn ladder(&self) -> &RateLadder {
        &self.ladder
    }

    /// True when the laser is on (any state except `Off`).
    pub fn is_on(&self) -> bool {
        self.state != ChannelState::Off
    }

    /// The serialization-end cycle of the in-flight packet, if one is
    /// being sent. Unlike the [`Self::begin_packet`] return value this
    /// excludes the fiber flight time: it is the cycle the *transmitter*
    /// frees up — what an event-driven scheduler must wake at.
    pub fn sending_until(&self) -> Option<Cycle> {
        match self.state {
            ChannelState::Sending { until } => Some(until),
            _ => None,
        }
    }

    /// Lifetime packet count.
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent
    }

    /// Lifetime flit count.
    pub fn flits_sent(&self) -> u64 {
        self.flits_sent
    }

    /// Lifetime rate-transition count.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Turns the laser on (idle). No-op when already on.
    pub fn power_on(&mut self) {
        if self.state == ChannelState::Off {
            self.state = ChannelState::Idle;
        }
    }

    /// Turns the laser off, aborting nothing: callers must not power off a
    /// sending channel (the LS protocol only reconfigures idle links).
    ///
    /// # Panics
    /// If the channel is mid-packet.
    pub fn power_off(&mut self, now: Cycle) {
        if let ChannelState::Sending { until } = self.state {
            assert!(
                now >= until,
                "cannot power off mid-packet (busy until {until}, now {now})"
            );
        }
        self.state = ChannelState::Off;
    }

    /// Settles time-dependent state: a finished packet or transition moves
    /// the channel back to `Idle`.
    pub fn settle(&mut self, now: Cycle) {
        match self.state {
            ChannelState::Sending { until } | ChannelState::Transitioning { until }
                if now >= until =>
            {
                self.state = ChannelState::Idle;
            }
            _ => {}
        }
    }

    /// True when a new packet can start this cycle.
    pub fn can_send(&self, now: Cycle) -> bool {
        match self.state {
            ChannelState::Idle => true,
            ChannelState::Sending { until } | ChannelState::Transitioning { until } => now >= until,
            ChannelState::Off => false,
        }
    }

    /// Cycles one flit occupies the wavelength at the current level.
    pub fn flit_cycles(&self) -> u64 {
        self.serdes.flit_cycles(self.ladder.rate(self.level))
    }

    /// Starts serializing a packet of `flits` flits. Returns the cycle at
    /// which the last bit *arrives at the destination* (serialization +
    /// fiber propagation).
    ///
    /// # Panics
    /// If the channel cannot send at `now`.
    pub fn begin_packet(&mut self, now: Cycle, flits: u32) -> Cycle {
        assert!(self.can_send(now), "channel busy/off at {now}");
        let occupancy = self
            .serdes
            .packet_cycles(self.ladder.rate(self.level), flits);
        let clear = now + occupancy;
        self.state = ChannelState::Sending { until: clear };
        self.packets_sent += 1;
        self.flits_sent += flits as u64;
        clear + self.fiber_delay
    }

    /// Begins a bit-rate transition to `level`: the link goes dark for
    /// `penalty` cycles (bit-rate control packet + CDR re-lock / voltage
    /// settle). No-op (and uncounted) if the level is unchanged.
    ///
    /// # Panics
    /// If the channel is mid-packet or off.
    pub fn begin_transition(&mut self, now: Cycle, level: RateLevel, penalty: Cycle) {
        if level == self.level {
            return;
        }
        assert!(
            self.can_send(now),
            "transition must wait for the wavelength to clear"
        );
        assert!(self.is_on(), "cannot retune a dark channel");
        assert!(level.index() < self.ladder.len(), "level out of range");
        self.level = level;
        self.transitions += 1;
        self.state = ChannelState::Transitioning {
            until: now + penalty,
        };
    }

    /// Directly sets the level of an off channel (used when DBR powers a
    /// channel on at a chosen level without a live transition).
    pub fn preset_level(&mut self, level: RateLevel) {
        assert!(level.index() < self.ladder.len());
        assert_eq!(self.state, ChannelState::Off, "preset only while off");
        self.level = level;
    }

    /// Powers on a granted channel with a dark lock-in window: the laser
    /// lights at `now` but the destination receiver needs `lock_penalty`
    /// cycles to lock onto the new transmitter before data can flow.
    ///
    /// # Panics
    /// If the channel is already on.
    pub fn power_on_dark(&mut self, now: Cycle, lock_penalty: Cycle) {
        assert_eq!(self.state, ChannelState::Off, "channel already on");
        self.state = if lock_penalty == 0 {
            ChannelState::Idle
        } else {
            ChannelState::Transitioning {
                until: now + lock_penalty,
            }
        };
    }

    /// Serializes the mutable channel state for a checkpoint. Identity and
    /// geometry (endpoints, ladder, serdes, fiber delay) come from the
    /// configuration and are not persisted.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        w.u8(self.level.index() as u8);
        match self.state {
            ChannelState::Off => w.u8(0),
            ChannelState::Idle => w.u8(1),
            ChannelState::Sending { until } => {
                w.u8(2);
                w.u64(until);
            }
            ChannelState::Transitioning { until } => {
                w.u8(3);
                w.u64(until);
            }
        }
        w.u64(self.packets_sent);
        w.u64(self.flits_sent);
        w.u64(self.transitions);
    }

    /// Overlays checkpointed mutable state onto a freshly built channel.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        let level = r.u8()? as usize;
        if level >= self.ladder.len() {
            return Err(desim::snap::SnapError::Mismatch(format!(
                "rate level {level} outside ladder of {}",
                self.ladder.len()
            )));
        }
        self.level = RateLevel(level as u8);
        self.state = match r.u8()? {
            0 => ChannelState::Off,
            1 => ChannelState::Idle,
            2 => ChannelState::Sending { until: r.u64()? },
            3 => ChannelState::Transitioning { until: r.u64()? },
            b => {
                return Err(desim::snap::SnapError::Format(format!(
                    "bad channel state tag {b:#x}"
                )))
            }
        };
        self.packets_sent = r.u64()?;
        self.flits_sent = r.u64()?;
        self.transitions = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> OpticalChannel {
        OpticalChannel::new(
            BoardId(0),
            BoardId(2),
            Wavelength(2),
            Arc::new(RateLadder::paper()),
            Serdes::paper(),
            4,
        )
    }

    #[test]
    fn starts_off_at_highest_level() {
        let c = chan();
        assert_eq!(c.state(), ChannelState::Off);
        assert_eq!(c.level(), RateLevel(2));
        assert!(!c.is_on());
        assert!(!c.can_send(0));
    }

    #[test]
    fn packet_occupancy_and_delivery() {
        let mut c = chan();
        c.power_on();
        assert!(c.can_send(10));
        // 8 flits at 5 Gbps: 8 × 6 = 48 cycles; +4 fiber = arrives at 62.
        let arrival = c.begin_packet(10, 8);
        assert_eq!(arrival, 62);
        assert_eq!(c.state(), ChannelState::Sending { until: 58 });
        assert!(!c.can_send(57));
        assert!(c.can_send(58));
        c.settle(58);
        assert_eq!(c.state(), ChannelState::Idle);
        assert_eq!(c.packets_sent(), 1);
        assert_eq!(c.flits_sent(), 8);
    }

    #[test]
    fn lower_level_stretches_occupancy() {
        let mut c = chan();
        c.power_on();
        c.begin_transition(0, RateLevel(0), 65);
        assert_eq!(c.transitions(), 1);
        assert!(!c.can_send(64));
        assert!(c.can_send(65));
        // 8 flits at 2.5 Gbps: 8 × 11 = 88 cycles.
        let arrival = c.begin_packet(65, 8);
        assert_eq!(arrival, 65 + 88 + 4);
        assert_eq!(c.flit_cycles(), 11);
    }

    #[test]
    fn same_level_transition_is_free() {
        let mut c = chan();
        c.power_on();
        c.begin_transition(0, RateLevel(2), 65);
        assert_eq!(c.transitions(), 0);
        assert!(c.can_send(0));
    }

    #[test]
    #[should_panic(expected = "channel busy/off")]
    fn cannot_send_mid_packet() {
        let mut c = chan();
        c.power_on();
        c.begin_packet(0, 8);
        c.begin_packet(1, 8);
    }

    #[test]
    #[should_panic(expected = "cannot power off mid-packet")]
    fn cannot_power_off_mid_packet() {
        let mut c = chan();
        c.power_on();
        c.begin_packet(0, 8);
        c.power_off(5);
    }

    #[test]
    fn power_off_after_settle_ok() {
        let mut c = chan();
        c.power_on();
        c.begin_packet(0, 1); // 6 cycles
        c.settle(6);
        c.power_off(6);
        assert_eq!(c.state(), ChannelState::Off);
    }

    #[test]
    fn preset_level_while_off() {
        let mut c = chan();
        c.preset_level(RateLevel(0));
        c.power_on();
        assert_eq!(c.level(), RateLevel(0));
        assert_eq!(c.flit_cycles(), 11);
    }

    #[test]
    #[should_panic(expected = "preset only while off")]
    fn preset_while_on_panics() {
        let mut c = chan();
        c.power_on();
        c.preset_level(RateLevel(0));
    }

    #[test]
    fn power_on_dark_blocks_until_locked() {
        let mut c = chan();
        c.power_on_dark(100, 65);
        assert!(c.is_on());
        assert!(!c.can_send(164));
        assert!(c.can_send(165));
        c.settle(165);
        assert_eq!(c.state(), ChannelState::Idle);
    }

    #[test]
    fn power_on_dark_zero_penalty_is_idle() {
        let mut c = chan();
        c.power_on_dark(0, 0);
        assert_eq!(c.state(), ChannelState::Idle);
    }

    #[test]
    #[should_panic(expected = "already on")]
    fn power_on_dark_twice_panics() {
        let mut c = chan();
        c.power_on();
        c.power_on_dark(0, 65);
    }

    #[test]
    fn identity_accessors() {
        let c = chan();
        assert_eq!(c.src(), BoardId(0));
        assert_eq!(c.dst(), BoardId(2));
        assert_eq!(c.wavelength(), Wavelength(2));
        assert_eq!(c.ladder().len(), 3);
    }
}
