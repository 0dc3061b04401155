//! Typed auto-tuning errors.
//!
//! Every malformed input the sweep joiner or grid builder can receive — an
//! empty grid, a band where `L_min ≥ L_max`, a run that injected nothing —
//! is a [`TuneError`], never a panic. The crate denies
//! `clippy::unwrap_used`/`expect_used` to keep that contract honest.

use std::fmt;

/// What went wrong while building a grid, joining a run's outcome, or
/// choosing an operating point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// A grid axis was empty, so no operating point can be enumerated.
    EmptyGrid(String),
    /// Every candidate violated the `L_min < L_max` band ordering (the
    /// first offender is reported in milli-units).
    InvalidBand {
        /// Offending lower threshold, milli-units.
        l_min_milli: u32,
        /// Offending upper threshold, milli-units.
        l_max_milli: u32,
    },
    /// A controller spec or grid value was out of range (thresholds are
    /// milli-units in `0..=1000`; steps and windows must be nonzero).
    InvalidSpec(String),
    /// The run injected zero packets — its latency and delivery columns
    /// are meaningless, and a ratio over them would divide by zero.
    ZeroInjected,
    /// No sweep outcome survived the delivery guard (or the slice was
    /// empty), so no operating point can be chosen.
    NoViablePoint(String),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::EmptyGrid(what) => write!(f, "empty tuning grid: {what}"),
            TuneError::InvalidBand {
                l_min_milli,
                l_max_milli,
            } => write!(
                f,
                "invalid threshold band: L_min {l_min_milli}‰ must lie strictly below L_max {l_max_milli}‰"
            ),
            TuneError::InvalidSpec(what) => write!(f, "invalid tuning spec: {what}"),
            TuneError::ZeroInjected => {
                write!(f, "run injected zero packets; outcome carries no signal")
            }
            TuneError::NoViablePoint(what) => write!(f, "no viable operating point: {what}"),
        }
    }
}

impl std::error::Error for TuneError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = TuneError::InvalidBand {
            l_min_milli: 900,
            l_max_milli: 700,
        };
        let msg = e.to_string();
        assert!(msg.contains("900"));
        assert!(msg.contains("700"));
        assert!(TuneError::EmptyGrid("l_max axis".into())
            .to_string()
            .contains("l_max axis"));
    }
}
