//! Windowed utilization counters — the LC "hardware counters" of §3, in
//! their eager per-cycle form. Compiled for tests only: the engine samples
//! through [`crate::occupancy::OccupancyIntegral`], and this counter is the
//! oracle its bit-equality test compares against.
//!
//! The paper measures two statistics per optical link over each
//! reconfiguration window `R_w`:
//!
//! * `Link_util` — "the percentage of router clock cycles when a packet is
//!   being transmitted in the optical domain from the transmitter queue",
//! * `Buffer_util` — "the percentage of buffers being utilized before the
//!   packet is transmitted".
//!
//! [`WindowedUtilization`] accumulates busy cycles (or occupied-buffer
//! fractions) within the current window and freezes the previous window's
//! value when [`WindowedUtilization::roll`] is called at a window boundary —
//! the LS protocol always acts on the *prior* window ("re-allocate the
//! bandwidth for the current R_w based on previous R_w").

use desim::Cycle;

/// Utilization accumulated over fixed windows with one-window history.
#[derive(Debug, Clone)]
pub(crate) struct WindowedUtilization {
    window: Cycle,
    /// Sum of per-cycle utilization values in the running window (for
    /// Link_util each cycle contributes 0 or 1; for Buffer_util a fraction).
    acc: f64,
    /// Cycles accumulated so far in the running window.
    cycles: Cycle,
    /// Utilization of the last completed window.
    previous: f64,
    /// Number of completed windows.
    completed: u64,
}

impl WindowedUtilization {
    /// Creates a counter with the given window length (e.g. `R_w = 2000`).
    ///
    /// # Panics
    /// If `window == 0`.
    pub(crate) fn new(window: Cycle) -> Self {
        assert!(window > 0, "window must be positive");
        Self {
            window,
            acc: 0.0,
            cycles: 0,
            previous: 0.0,
            completed: 0,
        }
    }

    /// Window length in cycles.
    pub(crate) fn window(&self) -> Cycle {
        self.window
    }

    /// Records one cycle with the given utilization contribution in `[0,1]`
    /// (1.0 = busy for Link_util; occupancy fraction for Buffer_util).
    pub(crate) fn record(&mut self, value: f64) {
        debug_assert!((0.0..=1.0).contains(&value), "utilization sample {value}");
        self.acc += value;
        self.cycles += 1;
    }

    /// Records a busy cycle (shorthand for `record(1.0)`).
    pub(crate) fn record_busy(&mut self) {
        self.record(1.0);
    }

    /// Records an idle cycle (shorthand for `record(0.0)`).
    pub(crate) fn record_idle(&mut self) {
        self.record(0.0);
    }

    /// Utilization of the running (incomplete) window so far.
    pub(crate) fn current(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.acc / self.cycles as f64
        }
    }

    /// Utilization of the last completed window — what the LS protocol reads.
    pub(crate) fn previous(&self) -> f64 {
        self.previous
    }

    /// Number of completed windows.
    pub(crate) fn completed_windows(&self) -> u64 {
        self.completed
    }

    /// Closes the running window: freezes its utilization as
    /// [`previous`](Self::previous) and starts a fresh window. Normally
    /// called every `window` cycles; rolling an empty window yields 0.
    ///
    /// Returns the frozen utilization.
    pub(crate) fn roll(&mut self) -> f64 {
        // Normalise over the nominal window length so a partially-recorded
        // window (e.g. link disabled during a bit-rate transition) counts
        // the un-recorded cycles as idle — matching a hardware counter that
        // simply didn't increment.
        self.previous = self.acc / self.window as f64;
        self.previous = self.previous.clamp(0.0, 1.0);
        self.acc = 0.0;
        self.cycles = 0;
        self.completed += 1;
        self.previous
    }

    /// Resets everything, including history.
    pub(crate) fn clear(&mut self) {
        self.acc = 0.0;
        self.cycles = 0;
        self.previous = 0.0;
        self.completed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_fraction_over_window() {
        let mut u = WindowedUtilization::new(10);
        for i in 0..10 {
            if i % 2 == 0 {
                u.record_busy();
            } else {
                u.record_idle();
            }
        }
        assert!((u.current() - 0.5).abs() < 1e-12);
        let frozen = u.roll();
        assert!((frozen - 0.5).abs() < 1e-12);
        assert!((u.previous() - 0.5).abs() < 1e-12);
        assert_eq!(u.current(), 0.0);
        assert_eq!(u.completed_windows(), 1);
    }

    #[test]
    fn partial_window_counts_missing_cycles_as_idle() {
        let mut u = WindowedUtilization::new(10);
        // Only 5 cycles recorded, all busy: a disabled link's counter
        // simply stopped; utilization is 5/10, not 5/5.
        for _ in 0..5 {
            u.record_busy();
        }
        assert_eq!(u.roll(), 0.5);
    }

    #[test]
    fn fractional_buffer_utilization() {
        let mut u = WindowedUtilization::new(4);
        u.record(0.25);
        u.record(0.75);
        u.record(0.5);
        u.record(0.5);
        assert!((u.roll() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn previous_survives_new_window() {
        let mut u = WindowedUtilization::new(2);
        u.record_busy();
        u.record_busy();
        u.roll();
        u.record_idle();
        assert_eq!(u.previous(), 1.0);
        assert_eq!(u.current(), 0.0);
    }

    #[test]
    fn roll_empty_window_is_zero() {
        let mut u = WindowedUtilization::new(5);
        assert_eq!(u.roll(), 0.0);
        assert_eq!(u.completed_windows(), 1);
    }

    #[test]
    fn clear_resets_history() {
        let mut u = WindowedUtilization::new(2);
        u.record_busy();
        u.record_busy();
        u.roll();
        u.clear();
        assert_eq!(u.previous(), 0.0);
        assert_eq!(u.completed_windows(), 0);
    }

    #[test]
    fn empty_roll_after_a_completed_window_replaces_history() {
        // Finalizing an empty window is not a no-op: the LS protocol must
        // see "this link went quiet", not a stale busy reading.
        let mut u = WindowedUtilization::new(4);
        for _ in 0..4 {
            u.record_busy();
        }
        assert_eq!(u.roll(), 1.0);
        assert_eq!(u.roll(), 0.0, "empty window must freeze as idle");
        assert_eq!(u.previous(), 0.0);
        assert_eq!(u.completed_windows(), 2);
    }

    #[test]
    fn clear_mid_window_discards_partial_accumulation() {
        let mut u = WindowedUtilization::new(4);
        u.record_busy();
        u.record_busy();
        u.clear();
        // The interrupted window's busy cycles must not leak into the next
        // roll, and the window geometry is unchanged.
        assert_eq!(u.current(), 0.0);
        assert_eq!(u.window(), 4);
        u.record(0.5);
        assert_eq!(u.roll(), 0.125); // 0.5 over the nominal 4-cycle window
        assert_eq!(u.completed_windows(), 1);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        WindowedUtilization::new(0);
    }
}
