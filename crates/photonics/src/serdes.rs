//! Flit serialization times in the optical domain.
//!
//! The electrical IBI moves 16 bits per 400 MHz cycle (Table 1: 6.4 Gbps per
//! direction). The optical stage moves `BR / f_clk` bits per cycle, so a
//! flit's wavelength occupancy stretches as the bit rate scales down — this
//! is exactly the latency/power trade DPM exercises.

use crate::bitrate::BitRate;

/// Serialization calculator for a fixed flit size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Serdes {
    /// Flit payload size in bits.
    pub flit_bits: u32,
    /// Router clock in Hz.
    pub clock_hz_x1000: u64,
}

impl Serdes {
    /// Creates a calculator for `flit_bits`-bit flits at `clock_hz`.
    fn new(flit_bits: u32, clock_hz: f64) -> Self {
        assert!(flit_bits > 0);
        assert!(clock_hz > 0.0);
        Self {
            flit_bits,
            clock_hz_x1000: (clock_hz * 1000.0) as u64,
        }
    }

    /// Paper defaults: 64-bit flits (64-byte packet = 8 flits) at 400 MHz.
    pub fn paper() -> Self {
        Self::new(64, desim::CLOCK_HZ)
    }

    /// Router clock in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz_x1000 as f64 / 1000.0
    }

    /// Cycles a single flit occupies the wavelength at the given bit rate
    /// (rounded up — the laser cannot release mid-flit).
    pub fn flit_cycles(&self, rate: BitRate) -> u64 {
        let bits_per_cycle = rate.bits_per_cycle(self.clock_hz());
        (self.flit_bits as f64 / bits_per_cycle).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitrate::{RateLadder, RateLevel};

    #[test]
    fn paper_rates_give_expected_occupancy() {
        let s = Serdes::paper();
        let ladder = RateLadder::paper();
        // 5 Gbps: 12.5 bits/cycle → 64 bits need ceil(5.12) = 6 cycles.
        assert_eq!(s.flit_cycles(ladder.rate(RateLevel(2))), 6);
        // 3.3 Gbps: 8.25 bits/cycle → ceil(7.76) = 8 cycles.
        assert_eq!(s.flit_cycles(ladder.rate(RateLevel(1))), 8);
        // 2.5 Gbps: 6.25 bits/cycle → ceil(10.24) = 11 cycles.
        assert_eq!(s.flit_cycles(ladder.rate(RateLevel(0))), 11);
    }

    #[test]
    fn packet_time_scales_with_flits() {
        let s = Serdes::paper();
        let high = RateLadder::paper().rate(RateLevel(2));
        // 8-flit (64-byte) packet at 5 Gbps: 48 cycles of occupancy.
        assert_eq!(s.flit_cycles(high) * 8, 48);
    }

    #[test]
    fn lower_rate_is_slower() {
        let s = Serdes::paper();
        let ladder = RateLadder::paper();
        assert!(
            s.flit_cycles(ladder.rate(RateLevel(0))) > s.flit_cycles(ladder.rate(RateLevel(2)))
        );
    }

    #[test]
    fn exact_division_has_no_rounding() {
        // 32-bit flits at 5 Gbps / 400 MHz = 12.5 b/cyc → ceil(2.56)=3;
        // at a hypothetical 8 Gbps (20 b/cyc) → ceil(1.6)=2;
        // with 40-bit flits and 20 b/cyc → exactly 2.
        let s = Serdes::new(40, 400.0e6);
        let r = BitRate {
            gbps: 8.0,
            vdd: 1.0,
        };
        assert_eq!(s.flit_cycles(r), 2);
    }
}
