//! The sink trait every emit point writes through.

use crate::event::TraceEvent;
use desim::Cycle;

/// Receives cycle-stamped events from the simulator's emit points.
///
/// Emit points are written as
///
/// ```ignore
/// if sink.enabled() {
///     sink.emit(now, TraceEvent::Grant { .. });
/// }
/// ```
///
/// so a disabled sink skips event construction entirely. `enabled()` must
/// be constant for the lifetime of a run: flipping it mid-run would leave
/// a trace with silent gaps.
pub trait TraceSink {
    /// Whether emit points should bother constructing events at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event stamped with simulation cycle `at`.
    fn emit(&mut self, at: Cycle, event: TraceEvent);
}

/// The zero-cost default: `enabled()` is an inlined `false` and `emit` is a
/// no-op, so a fully traced build with the null sink compiles down to a
/// predictable never-taken branch per emit point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&mut self, _at: Cycle, _event: TraceEvent) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let mut sink = NullSink;
        assert!(!sink.enabled());
        // Emitting anyway is harmless.
        sink.emit(
            0,
            TraceEvent::WindowBoundary {
                index: 1,
                kind: crate::event::WindowLabel::Power,
                router_peak_flits: 0,
                lasers_on: 0,
            },
        );
    }
}
