//! Voltage/frequency transition timing (§3.1, §4.1).
//!
//! "Increasing the link speed involves increasing the voltage before
//! scaling the frequency. Similarly, the frequency is decreased before
//! scaling the voltage. The delay penalty is limited to frequency
//! transitions as this requires the CDR ... to relock." The numbers come
//! from Chen et al. (HPCA'05): 12 cycles of link disable per frequency
//! transition, 65 cycles for a voltage ramp across adjacent levels. The
//! paper then states: "after the control bit rate packet is transmitted,
//! the transmitter conservatively disables the link for 65 cycles" — that
//! conservative mode is the default used by the reproduction's experiments.

use desim::Cycle;
use erapid_telemetry::TraceEvent;
use photonics::bitrate::RateLevel;

/// How transition penalties are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PenaltyMode {
    /// The paper's evaluation setting: every rate change disables the link
    /// for the full voltage-ramp bound.
    Conservative,
    /// The Chen et al. detailed model: only the CDR re-lock (frequency
    /// transition) disables the link; voltage ramps overlap with operation.
    FrequencyOnly,
}

/// Transition timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionModel {
    /// Cycles the link is dark for a CDR re-lock (frequency transition).
    pub freq_penalty: Cycle,
    /// Cycles for a voltage ramp across adjacent levels.
    pub volt_penalty: Cycle,
    /// Charging mode: [`TransitionModel::paper`] or
    /// [`TransitionModel::detailed`].
    mode: PenaltyMode,
}

impl TransitionModel {
    /// The paper's conservative model: 65 dark cycles per transition.
    pub fn paper() -> Self {
        Self {
            freq_penalty: 12,
            volt_penalty: 65,
            mode: PenaltyMode::Conservative,
        }
    }

    /// The detailed model: 12 dark cycles per transition.
    pub fn detailed() -> Self {
        Self {
            freq_penalty: 12,
            volt_penalty: 65,
            mode: PenaltyMode::FrequencyOnly,
        }
    }

    /// Dark cycles charged for a transition between adjacent levels.
    pub fn penalty(&self) -> Cycle {
        match self.mode {
            PenaltyMode::Conservative => self.volt_penalty,
            PenaltyMode::FrequencyOnly => self.freq_penalty,
        }
    }

    /// Dark cycles for a transition spanning several levels. Levels ramp
    /// one at a time ("scaling the power level focuses on reducing the
    /// delay incurred during the slow voltage transitions"), so the dark
    /// window scales with the level distance in conservative mode; the CDR
    /// re-locks once regardless in frequency-only mode.
    pub fn penalty_between(&self, from: RateLevel, to: RateLevel) -> Cycle {
        let dist = from.index().abs_diff(to.index()) as Cycle;
        if dist == 0 {
            return 0;
        }
        match self.mode {
            PenaltyMode::Conservative => self.volt_penalty * dist,
            PenaltyMode::FrequencyOnly => self.freq_penalty,
        }
    }

    /// Builds the [`TraceEvent::DpmRetune`] for a DPM decision on channel
    /// `(src → dest, wavelength)` moving `from → to`, so the trace carries
    /// exactly the dark-window penalty this model charges.
    pub fn retune_event(
        &self,
        src: u16,
        dest: u16,
        wavelength: u16,
        from: RateLevel,
        to: RateLevel,
    ) -> TraceEvent {
        TraceEvent::DpmRetune {
            src,
            dest,
            wavelength,
            from_level: from.0,
            to_level: to.0,
            penalty: self.penalty_between(from, to),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_charges_65() {
        let m = TransitionModel::paper();
        assert_eq!(m.penalty(), 65);
        assert_eq!(m.penalty_between(RateLevel(2), RateLevel(1)), 65);
        assert_eq!(m.penalty_between(RateLevel(0), RateLevel(2)), 130);
    }

    #[test]
    fn detailed_model_charges_cdr_only() {
        let m = TransitionModel::detailed();
        assert_eq!(m.penalty(), 12);
        assert_eq!(m.penalty_between(RateLevel(0), RateLevel(2)), 12);
    }

    #[test]
    fn no_transition_no_penalty() {
        let m = TransitionModel::paper();
        assert_eq!(m.penalty_between(RateLevel(1), RateLevel(1)), 0);
    }

    #[test]
    fn retune_event_carries_the_charged_penalty() {
        let m = TransitionModel::paper();
        let ev = m.retune_event(0, 1, 2, RateLevel(2), RateLevel(0));
        assert_eq!(
            ev,
            TraceEvent::DpmRetune {
                src: 0,
                dest: 1,
                wavelength: 2,
                from_level: 2,
                to_level: 0,
                penalty: 130,
            }
        );
    }

    #[test]
    fn direction_symmetric() {
        let m = TransitionModel::paper();
        assert_eq!(
            m.penalty_between(RateLevel(0), RateLevel(1)),
            m.penalty_between(RateLevel(1), RateLevel(0))
        );
    }
}
