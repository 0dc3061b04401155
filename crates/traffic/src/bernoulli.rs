//! Bernoulli injection processes.
//!
//! Every cycle each node flips a coin with probability `p = load × N_c`
//! (packets/node/cycle); on success one packet is generated. This is the
//! paper's injection model (§4).

use desim::rng::Pcg32;
use desim::Cycle;

/// A per-node Bernoulli packet source.
#[derive(Debug, Clone)]
pub struct BernoulliInjector {
    rate: f64,
    rng: Pcg32,
}

impl BernoulliInjector {
    /// Creates an injector with `rate` packets/cycle (clamped to `[0,1]`)
    /// and its own RNG stream.
    pub fn new(rate: f64, rng: Pcg32) -> Self {
        assert!(rate >= 0.0, "negative rate");
        Self {
            rate: rate.min(1.0),
            rng,
        }
    }

    /// Rolls the coin for one cycle; true means "inject a packet now".
    pub fn fires(&mut self, _now: Cycle) -> bool {
        self.rng.bernoulli(self.rate)
    }

    /// Borrows the RNG (for destination draws correlated with this source).
    pub fn rng_mut(&mut self) -> &mut Pcg32 {
        &mut self.rng
    }

    /// Serializes the RNG position (rate is config-derived).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        self.rng.save(w);
    }

    /// Overlays a checkpointed RNG position.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::Snap;
        self.rng = Pcg32::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_respected() {
        let mut inj = BernoulliInjector::new(0.25, Pcg32::stream(1, 2));
        let n = 100_000;
        let fires = (0..n).filter(|&t| inj.fires(t)).count();
        let rate = fires as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn zero_rate_never_fires() {
        let mut inj = BernoulliInjector::new(0.0, Pcg32::stream(1, 3));
        assert!((0..1000).all(|t| !inj.fires(t)));
    }

    #[test]
    fn unit_rate_always_fires() {
        let mut inj = BernoulliInjector::new(1.0, Pcg32::stream(1, 4));
        assert!((0..1000).all(|t| inj.fires(t)));
    }

    #[test]
    fn over_unity_rate_clamps() {
        let inj = BernoulliInjector::new(3.0, Pcg32::stream(1, 5));
        assert_eq!(inj.rate, 1.0);
    }

    #[test]
    fn deterministic_per_stream() {
        let mut a = BernoulliInjector::new(0.5, Pcg32::stream(7, 0));
        let mut b = BernoulliInjector::new(0.5, Pcg32::stream(7, 0));
        for t in 0..1000 {
            assert_eq!(a.fires(t), b.fires(t));
        }
    }
}
