//! Link Controllers (LCs).
//!
//! "Historical statistics are collected with the hardware counters located
//! at each LC. Each LC is associated with an optical transmitter to measure
//! link statistics, and with an optical receiver to turn on/off the
//! receiver" (§3). The counters themselves live with the channels they
//! measure (`erapid-core`'s SRS and TX queues); what is modelled here is
//! the LC's threshold comparator.

/// Edge detector for the DBR trigger threshold `B_max`.
///
/// The LC's hardware comparator watches the window-average buffer
/// occupancy and raises a signal only on *crossings*, not every window —
/// that is what the telemetry layer records as
/// `TraceEvent::BufferThreshold`, keeping traces proportional to activity
/// rather than to run length.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdWatch {
    b_max: f64,
    above: bool,
}

impl ThresholdWatch {
    /// Watches threshold `b_max` (the `AllocPolicy` trigger), starting
    /// below it.
    pub fn new(b_max: f64) -> Self {
        Self {
            b_max,
            above: false,
        }
    }

    /// Feeds one window-average occupancy; returns `Some(new_side)` on a
    /// crossing (`true` = now above `B_max`), `None` while the side holds.
    ///
    /// Contract: re-observing the previous value never signals and never
    /// changes state — a watch reports edges, not levels, so a flow whose
    /// occupancy repeats the last window adds nothing to the trace.
    pub fn observe(&mut self, occupancy: f64) -> Option<bool> {
        let above = occupancy > self.b_max;
        if above != self.above {
            self.above = above;
            Some(above)
        } else {
            None
        }
    }

    /// Moves the watched threshold (the auto-tuning controller's
    /// application seam). A retarget never signals by itself: the
    /// hysteresis side is only re-evaluated at the next
    /// [`ThresholdWatch::observe`].
    pub fn retarget(&mut self, b_max: f64) {
        self.b_max = b_max;
    }

    /// Serializes the hysteresis side (`b_max` is config-derived).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        w.bool(self.above);
    }

    /// Overlays a checkpointed hysteresis side.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        self.above = r.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_watch_fires_only_on_crossings() {
        let mut watch = ThresholdWatch::new(0.3);
        assert!(!watch.above);
        // Below the threshold: no signal.
        assert_eq!(watch.observe(0.1), None);
        assert_eq!(watch.observe(0.3), None); // boundary is not a crossing
                                              // Crossing up fires once, then holds.
        assert_eq!(watch.observe(0.5), Some(true));
        assert_eq!(watch.observe(0.9), None);
        assert!(watch.above);
        // Crossing back down fires the falling edge.
        assert_eq!(watch.observe(0.2), Some(false));
        assert_eq!(watch.observe(0.2), None);
    }

    #[test]
    fn retarget_moves_threshold_without_signalling() {
        let mut watch = ThresholdWatch::new(0.3);
        assert_eq!(watch.observe(0.5), Some(true));
        // Same threshold: no-op.
        watch.retarget(0.3);
        assert_eq!((watch.b_max, watch.above), (0.3, true));
        // New threshold: no signal until the next observation, which then
        // re-evaluates the side against the new value.
        watch.retarget(0.6);
        assert_eq!(watch.b_max, 0.6);
        assert!(watch.above, "retarget must not flip the side itself");
        assert_eq!(watch.observe(0.5), Some(false));
        // And crossing the new threshold fires as usual.
        assert_eq!(watch.observe(0.7), Some(true));
    }

    #[test]
    fn threshold_watch_repeat_observation_is_a_no_op() {
        // The edge contract: from any reachable state, feeding the
        // previous value again neither signals nor changes state.
        let mut watch = ThresholdWatch::new(0.3);
        for v in [0.0, 0.29, 0.9, 0.3, 0.31, 0.1] {
            let first = watch.observe(v);
            let side = watch.above;
            for _ in 0..3 {
                assert_eq!(watch.observe(v), None, "repeat of {v} signalled");
                assert_eq!(watch.above, side, "repeat of {v} mutated state");
            }
            // The first observation is the only one that may signal.
            let _ = first;
        }
    }
}
