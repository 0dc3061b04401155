//! Fiber propagation delay.
//!
//! Board-to-board fibers in a rack-scale E-RAPID are metres long; at
//! ~5 ns/m (group index ≈ 1.5) a 2 m fiber adds ~10 ns ≈ 4 router cycles.
//! The delay is constant per fiber and independent of bit rate.

use desim::Cycle;

/// Speed of light in vacuum, m/s.
const C_VACUUM: f64 = 2.99792458e8;

/// A point-to-point fiber with fixed propagation delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fiber {
    length_m: f64,
    group_index: f64,
}

impl Fiber {
    /// Creates a fiber of `length_m` metres with the given group index.
    fn new(length_m: f64, group_index: f64) -> Self {
        assert!(length_m >= 0.0);
        assert!(group_index >= 1.0);
        Self {
            length_m,
            group_index,
        }
    }

    /// Standard single-mode fiber (group index 1.468) of the given length.
    fn smf(length_m: f64) -> Self {
        Self::new(length_m, 1.468)
    }

    /// Default rack-scale board-to-board fiber: 2 m SMF.
    pub fn rack_scale() -> Self {
        Self::smf(2.0)
    }

    /// One-way propagation delay in nanoseconds.
    fn delay_ns(&self) -> f64 {
        self.length_m * self.group_index / C_VACUUM * 1.0e9
    }

    /// One-way propagation delay in (rounded-up) router cycles.
    pub fn delay_cycles(&self) -> Cycle {
        desim::ns_to_cycles(self.delay_ns())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rack_scale_delay_is_a_few_cycles() {
        let f = Fiber::rack_scale();
        // 2 m at n=1.468: ~9.8 ns → 4 cycles at 2.5 ns/cycle.
        assert!((f.delay_ns() - 9.79).abs() < 0.05, "{}", f.delay_ns());
        assert_eq!(f.delay_cycles(), 4);
        assert_eq!(f.length_m, 2.0);
    }

    #[test]
    fn zero_length_fiber_is_free() {
        let f = Fiber::smf(0.0);
        assert_eq!(f.delay_cycles(), 0);
    }

    #[test]
    fn delay_scales_linearly() {
        let short = Fiber::smf(1.0);
        let long = Fiber::smf(10.0);
        assert!((long.delay_ns() / short.delay_ns() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn sub_unity_index_rejected() {
        Fiber::new(1.0, 0.5);
    }
}
