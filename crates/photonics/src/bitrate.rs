//! Bit-rate / supply-voltage operating points.
//!
//! §3.1: "We consider 3 power levels P_low, P_mid and P_high corresponding
//! to bit rates 2.5 Gbps, 3.3 Gbps and 5 Gbps"; §4.1 gives the matching
//! supply voltages 0.45 V, 0.6 V and 0.9 V. A [`RateLadder`] generalises to
//! N levels for the paper's future-work ablation ("more power levels and
//! corresponding bit rates can further improve the performance").

use std::fmt;

/// One operating point of an optical link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitRate {
    /// Line rate in Gbps.
    pub gbps: f64,
    /// Supply voltage in volts at this rate.
    pub vdd: f64,
}

impl BitRate {
    /// Bits transferred per router clock cycle at 400 MHz.
    pub fn bits_per_cycle(&self, clock_hz: f64) -> f64 {
        self.gbps * 1.0e9 / clock_hz
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Gbps @ {} V", self.gbps, self.vdd)
    }
}

/// Index of a power level within a ladder (0 = lowest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RateLevel(pub u8);

impl desim::snap::Snap for RateLevel {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.u8(self.0);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        Ok(RateLevel(r.u8()?))
    }
}

impl RateLevel {
    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An ordered ladder of operating points, lowest rate first.
#[derive(Debug, Clone, PartialEq)]
pub struct RateLadder {
    levels: Vec<BitRate>,
}

impl RateLadder {
    /// Builds a ladder from operating points sorted by rate ascending.
    ///
    /// # Panics
    /// If fewer than 2 levels or the rates are not strictly increasing.
    pub fn new(levels: Vec<BitRate>) -> Self {
        assert!(levels.len() >= 2, "a ladder needs at least 2 levels");
        assert!(
            levels.windows(2).all(|w| w[0].gbps < w[1].gbps),
            "rates must strictly increase"
        );
        assert!(
            levels.windows(2).all(|w| w[0].vdd <= w[1].vdd),
            "voltage must not decrease with rate"
        );
        Self { levels }
    }

    /// The paper's ladder: 2.5 Gbps @ 0.45 V, 3.3 Gbps @ 0.6 V,
    /// 5 Gbps @ 0.9 V (Table 1).
    pub fn paper() -> Self {
        Self::new(vec![
            BitRate {
                gbps: 2.5,
                vdd: 0.45,
            },
            BitRate {
                gbps: 3.3,
                vdd: 0.6,
            },
            BitRate {
                gbps: 5.0,
                vdd: 0.9,
            },
        ])
    }

    /// An N-level ladder interpolated between the paper's end points
    /// (for the "more power levels" ablation). `n >= 2`.
    pub fn interpolated(n: usize) -> Self {
        assert!(n >= 2);
        let lo = BitRate {
            gbps: 2.5,
            vdd: 0.45,
        };
        let hi = BitRate {
            gbps: 5.0,
            vdd: 0.9,
        };
        let levels = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                BitRate {
                    gbps: lo.gbps + t * (hi.gbps - lo.gbps),
                    vdd: lo.vdd + t * (hi.vdd - lo.vdd),
                }
            })
            .collect();
        Self::new(levels)
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Never true (construction requires ≥ 2 levels).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Operating point at a level.
    ///
    /// # Panics
    /// If the level is out of range.
    pub fn rate(&self, level: RateLevel) -> BitRate {
        self.levels[level.index()]
    }

    /// The highest level.
    pub fn highest(&self) -> RateLevel {
        RateLevel((self.levels.len() - 1) as u8)
    }

    /// One level up, saturating at the top.
    pub fn up(&self, level: RateLevel) -> RateLevel {
        if level >= self.highest() {
            self.highest()
        } else {
            RateLevel(level.0 + 1)
        }
    }

    /// One level down, saturating at the bottom.
    pub fn down(&self, level: RateLevel) -> RateLevel {
        if level.0 == 0 {
            level
        } else {
            RateLevel(level.0 - 1)
        }
    }

    /// Iterates `(level, operating point)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RateLevel, BitRate)> + '_ {
        self.levels
            .iter()
            .enumerate()
            .map(|(i, &r)| (RateLevel(i as u8), r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ladder_matches_table1() {
        let l = RateLadder::paper();
        assert_eq!(l.len(), 3);
        let low = l.rate(RateLevel(0));
        let mid = l.rate(RateLevel(1));
        let high = l.rate(RateLevel(2));
        assert_eq!((low.gbps, low.vdd), (2.5, 0.45));
        assert_eq!((mid.gbps, mid.vdd), (3.3, 0.6));
        assert_eq!((high.gbps, high.vdd), (5.0, 0.9));
    }

    #[test]
    fn bits_per_cycle_at_400mhz() {
        let high = RateLadder::paper().rate(RateLevel(2));
        // 5 Gbps / 400 MHz = 12.5 bits per cycle.
        assert!((high.bits_per_cycle(400.0e6) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn up_down_saturate() {
        let l = RateLadder::paper();
        assert_eq!(l.up(RateLevel(2)), RateLevel(2));
        assert_eq!(l.up(RateLevel(0)), RateLevel(1));
        assert_eq!(l.down(RateLevel(0)), RateLevel(0));
        assert_eq!(l.down(RateLevel(2)), RateLevel(1));
        assert_eq!(l.highest(), RateLevel(2));
    }

    #[test]
    fn interpolated_ladder_ends_match_paper() {
        let l = RateLadder::interpolated(5);
        assert_eq!(l.len(), 5);
        assert!((l.rate(RateLevel(0)).gbps - 2.5).abs() < 1e-12);
        assert!((l.rate(l.highest()).gbps - 5.0).abs() < 1e-12);
        assert!((l.rate(l.highest()).vdd - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn non_monotone_rates_rejected() {
        RateLadder::new(vec![
            BitRate {
                gbps: 5.0,
                vdd: 0.9,
            },
            BitRate {
                gbps: 2.5,
                vdd: 0.45,
            },
        ]);
    }

    #[test]
    fn display_format() {
        let r = BitRate {
            gbps: 2.5,
            vdd: 0.45,
        };
        assert_eq!(r.to_string(), "2.5 Gbps @ 0.45 V");
    }

    #[test]
    fn iter_yields_all_levels() {
        let l = RateLadder::paper();
        let levels: Vec<u8> = l.iter().map(|(lv, _)| lv.0).collect();
        assert_eq!(levels, vec![0, 1, 2]);
    }
}
