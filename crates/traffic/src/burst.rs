//! Bursty (two-state MMPP / on-off) traffic — an extension workload.
//!
//! Real HPC communication shows temporal locality (§1: "spatial and
//! temporal locality exists due to inter-process communication patterns");
//! the on-off source alternates between a hot state injecting at
//! `on_rate` and a cold state injecting at `off_rate`, with geometrically
//! distributed dwell times. Used by the sensitivity benches to stress the
//! reconfiguration window `R_w`.

use desim::rng::Pcg32;
use desim::Cycle;

/// Two-state Markov-modulated Bernoulli source.
#[derive(Debug, Clone)]
pub struct OnOffSource {
    on_rate: f64,
    off_rate: f64,
    /// Per-cycle probability of leaving the ON state.
    p_exit_on: f64,
    /// Per-cycle probability of leaving the OFF state.
    p_exit_off: f64,
    is_on: bool,
    rng: Pcg32,
}

impl OnOffSource {
    /// Creates a source. Mean dwell times are `1/p_exit_*` cycles.
    pub fn new(
        on_rate: f64,
        off_rate: f64,
        mean_on_cycles: f64,
        mean_off_cycles: f64,
        rng: Pcg32,
    ) -> Self {
        assert!(on_rate >= 0.0 && off_rate >= 0.0);
        assert!(mean_on_cycles >= 1.0 && mean_off_cycles >= 1.0);
        Self {
            on_rate: on_rate.min(1.0),
            off_rate: off_rate.min(1.0),
            p_exit_on: 1.0 / mean_on_cycles,
            p_exit_off: 1.0 / mean_off_cycles,
            is_on: false,
            rng,
        }
    }

    /// A bursty source with the given average rate and burstiness factor:
    /// ON injects at `burstiness × avg_rate` (capped at 1), OFF at ~0, with
    /// equal dwell times of `dwell` cycles.
    pub fn bursty(avg_rate: f64, burstiness: f64, dwell: f64, rng: Pcg32) -> Self {
        assert!(burstiness >= 1.0);
        assert!(avg_rate > 0.0 && avg_rate <= 1.0);
        let on = (avg_rate * burstiness).min(1.0);
        // Keep the long-run average at avg_rate. With equal dwell the
        // average is (on + off)/2; when that would need a negative off
        // rate, set off = 0 and skew the dwell times instead so the
        // stationary ON fraction f = avg/on.
        let off = 2.0 * avg_rate - on;
        if off >= 0.0 {
            Self::new(on, off, dwell, dwell, rng)
        } else {
            let f = avg_rate / on;
            let mean_off = dwell * (1.0 - f) / f;
            Self::new(on, 0.0, dwell, mean_off.max(1.0), rng)
        }
    }

    /// Whether the source is currently in the ON state.
    pub fn is_on(&self) -> bool {
        self.is_on
    }

    /// Borrows the RNG (for destination draws correlated with this source).
    pub fn rng_mut(&mut self) -> &mut Pcg32 {
        &mut self.rng
    }

    /// Advances one cycle; true means "inject a packet".
    pub fn fires(&mut self, _now: Cycle) -> bool {
        // State transition first, then the injection coin.
        let exit_p = if self.is_on {
            self.p_exit_on
        } else {
            self.p_exit_off
        };
        if self.rng.bernoulli(exit_p) {
            self.is_on = !self.is_on;
        }
        let rate = if self.is_on {
            self.on_rate
        } else {
            self.off_rate
        };
        self.rng.bernoulli(rate)
    }

    /// Serializes the Markov state and RNG position (rates and dwell
    /// probabilities are config-derived).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        w.bool(self.is_on);
        self.rng.save(w);
    }

    /// Overlays checkpointed Markov state and RNG position.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::Snap;
        self.is_on = r.bool()?;
        self.rng = Pcg32::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn long_run_average_rate_holds() {
        let mut s = OnOffSource::bursty(0.05, 4.0, 500.0, Pcg32::stream(3, 1));
        let n = 400_000;
        let fires = (0..n).filter(|&t| s.fires(t)).count();
        let rate = fires as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bursts_concentrate_traffic() {
        let mut s = OnOffSource::new(0.5, 0.0, 1000.0, 1000.0, Pcg32::stream(3, 2));
        // Count fires in windows; the distribution must be bimodal —
        // some windows nearly silent, some hot.
        let mut hot = 0;
        let mut cold = 0;
        for _w in 0..200 {
            let fires = (0..500).filter(|&t| s.fires(t)).count();
            if fires > 150 {
                hot += 1;
            }
            if fires < 50 {
                cold += 1;
            }
        }
        assert!(hot > 10, "hot windows {hot}");
        assert!(cold > 10, "cold windows {cold}");
    }

    #[test]
    fn state_flag_tracks_transitions() {
        let mut s = OnOffSource::new(1.0, 0.0, 2.0, 2.0, Pcg32::stream(3, 3));
        let mut saw_on = false;
        let mut saw_off = false;
        let mut fired = false;
        for t in 0..1000 {
            fired |= s.fires(t);
            if s.is_on() {
                saw_on = true;
            } else {
                saw_off = true;
            }
        }
        assert!(saw_on && saw_off && fired);
    }

    #[test]
    fn on_rate_caps_at_one() {
        let s = OnOffSource::bursty(0.6, 4.0, 100.0, Pcg32::stream(3, 4));
        assert!(s.on_rate <= 1.0);
    }
}
