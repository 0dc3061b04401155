//! One laser's optical state machine.
//!
//! An [`OpticalChannel`] is the mutable state of one (source board,
//! destination board, wavelength) lightpath: the laser at the source, the
//! fiber, and the receiver at the destination. It tracks:
//!
//! * on/off state (DBR turns whole channels on and off),
//! * the current bit-rate level (DPM scales it),
//! * packet serialization occupancy (busy-until bookkeeping),
//! * rate-transition disable windows (the conservative 65-cycle CDR/voltage
//!   penalty of §4.1).
//!
//! Identity and the link's physical constants are not per-channel state:
//! whoever holds the channels (the SRS) knows which lightpath each is, and
//! holds one [`LinkTiming`] for all of them.

use crate::bitrate::{RateLadder, RateLevel};
use crate::serdes::Serdes;
use desim::Cycle;

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

/// The per-system link constants every channel shares: serialization time
/// per ladder level (tabulated once from the ladder and the serdes, so a
/// packet start is an integer multiply) and the fiber flight time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkTiming {
    /// Cycles one flit occupies the wavelength, indexed by level.
    flit_cycles: Vec<Cycle>,
    fiber_delay: Cycle,
}

impl LinkTiming {
    /// Tabulates `serdes`'s flit occupancy at every level of `ladder`.
    pub fn new(ladder: &RateLadder, serdes: Serdes, fiber_delay: Cycle) -> Self {
        Self {
            flit_cycles: ladder.iter().map(|(_, r)| serdes.flit_cycles(r)).collect(),
            fiber_delay,
        }
    }

    /// Number of ladder levels.
    pub fn levels(&self) -> usize {
        self.flit_cycles.len()
    }

    /// Cycles one flit occupies the wavelength at `level`.
    ///
    /// # Panics
    /// If the level is out of range.
    pub fn flit_cycles(&self, level: RateLevel) -> Cycle {
        self.flit_cycles[level.index()]
    }

    /// Fiber propagation delay in cycles.
    pub fn fiber_delay(&self) -> Cycle {
        self.fiber_delay
    }
}

/// One lightpath's DPM/DBR state: its rate level and availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpticalChannel {
    level: RateLevel,
    state: ChannelState,
}

impl OpticalChannel {
    /// Creates a channel, initially off, at `level`.
    pub fn new(level: RateLevel) -> Self {
        Self {
            level,
            state: ChannelState::Off,
        }
    }

    /// Current availability state.
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// Current rate level.
    pub fn level(&self) -> RateLevel {
        self.level
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

    /// Starts serializing a packet of `flits` flits. Returns the cycle at
    /// which the last bit *arrives at the destination* (serialization +
    /// fiber propagation).
    ///
    /// # Panics
    /// If the channel cannot send at `now`.
    pub fn begin_packet(&mut self, timing: &LinkTiming, now: Cycle, flits: u32) -> Cycle {
        assert!(self.can_send(now), "channel busy/off at {now}");
        let clear = now + timing.flit_cycles(self.level) * flits as u64;
        self.state = ChannelState::Sending { until: clear };
        clear + timing.fiber_delay()
    }

    /// Begins a bit-rate transition to `level`: the link goes dark for
    /// `penalty` cycles (bit-rate control packet + CDR re-lock / voltage
    /// settle). No-op if the level is unchanged.
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
        self.level = level;
        self.state = ChannelState::Transitioning {
            until: now + penalty,
        };
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

    /// Serializes the channel for a checkpoint: level, then state.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        w.u8(self.level.0);
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
    }

    /// Decodes a checkpointed channel whose level must lie on a ladder of
    /// `levels` levels.
    pub fn load_state(
        r: &mut desim::snap::SnapReader<'_>,
        levels: usize,
    ) -> Result<Self, desim::snap::SnapError> {
        let level = r.u8()?;
        if level as usize >= levels {
            return Err(desim::snap::SnapError::Mismatch(format!(
                "rate level {level} outside ladder of {levels}"
            )));
        }
        let state = match r.u8()? {
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
        Ok(Self {
            level: RateLevel(level),
            state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan() -> OpticalChannel {
        OpticalChannel::new(RateLevel(2))
    }

    fn timing() -> LinkTiming {
        LinkTiming::new(&RateLadder::paper(), Serdes::paper(), 4)
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
        let arrival = c.begin_packet(&timing(), 10, 8);
        assert_eq!(arrival, 62);
        assert_eq!(c.state(), ChannelState::Sending { until: 58 });
        assert_eq!(c.sending_until(), Some(58));
        assert!(!c.can_send(57));
        assert!(c.can_send(58));
        c.settle(58);
        assert_eq!(c.state(), ChannelState::Idle);
        assert_eq!(c.sending_until(), None);
    }

    #[test]
    fn lower_level_stretches_occupancy() {
        let t = timing();
        let mut c = chan();
        c.power_on();
        c.begin_transition(0, RateLevel(0), 65);
        assert_eq!(c.level(), RateLevel(0));
        assert_eq!(c.state(), ChannelState::Transitioning { until: 65 });
        assert!(!c.can_send(64));
        assert!(c.can_send(65));
        // 8 flits at 2.5 Gbps: 8 × 11 = 88 cycles.
        let arrival = c.begin_packet(&t, 65, 8);
        assert_eq!(arrival, 65 + 88 + 4);
        assert_eq!(t.flit_cycles(c.level()), 11);
    }

    #[test]
    fn same_level_transition_is_free() {
        let mut c = chan();
        c.power_on();
        c.begin_transition(0, RateLevel(2), 65);
        assert_eq!(c.state(), ChannelState::Idle);
        assert!(c.can_send(0));
    }

    #[test]
    fn timing_tabulates_serdes_per_level() {
        let (ladder, serdes) = (RateLadder::paper(), Serdes::paper());
        let t = timing();
        assert_eq!(t.levels(), ladder.len());
        assert_eq!(t.fiber_delay(), 4);
        for (level, rate) in ladder.iter() {
            assert_eq!(
                t.flit_cycles(level),
                serdes.flit_cycles(rate),
                "level {level:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "channel busy/off")]
    fn cannot_send_mid_packet() {
        let t = timing();
        let mut c = chan();
        c.power_on();
        c.begin_packet(&t, 0, 8);
        c.begin_packet(&t, 1, 8);
    }

    #[test]
    #[should_panic(expected = "cannot power off mid-packet")]
    fn cannot_power_off_mid_packet() {
        let mut c = chan();
        c.power_on();
        c.begin_packet(&timing(), 0, 8);
        c.power_off(5);
    }

    #[test]
    fn power_off_after_settle_ok() {
        let mut c = chan();
        c.power_on();
        c.begin_packet(&timing(), 0, 1); // 6 cycles
        c.settle(6);
        c.power_off(6);
        assert_eq!(c.state(), ChannelState::Off);
    }

    #[test]
    fn preset_level_while_off() {
        // A dark channel holds the level it relights at (the SRS builds a
        // regranted laser at its carried level).
        let mut c = OpticalChannel::new(RateLevel(0));
        c.power_on();
        assert_eq!(c.level(), RateLevel(0));
        assert_eq!(timing().flit_cycles(c.level()), 11);
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
}
