//! Destination patterns.
//!
//! Following the paper's notation (§4.1) with n-bit node addresses
//! `a_{n-1} a_{n-2} ... a_1 a_0`:
//!
//! * **uniform** — destination uniformly random among the other nodes,
//! * **butterfly** — swap the most- and least-significant bits:
//!   `a_0, a_{n-2}, ..., a_1, a_{n-1}`,
//! * **complement** — complement every bit:
//!   `ā_{n-1}, ā_{n-2}, ..., ā_1, ā_0`,
//! * **perfect shuffle** — rotate left one bit:
//!   `a_{n-2}, a_{n-3}, ..., a_0, a_{n-1}`,
//!
//! plus classics used by the extension benches: transpose, bit reversal,
//! tornado, neighbour, and a Zipf hotspot mix.

use desim::rng::{Pcg32, Zipf};

/// A traffic pattern over `n` nodes (n a power of two for the bit
/// permutations).
#[derive(Debug, Clone)]
pub enum TrafficPattern {
    /// Uniformly random destination among the other nodes.
    Uniform,
    /// MSB↔LSB swap.
    Butterfly,
    /// Bitwise complement.
    Complement,
    /// Left-rotate by one bit.
    PerfectShuffle,
    /// Swap address halves (matrix transpose).
    Transpose,
    /// Reverse the bit string.
    BitReversal,
    /// `dst = (src + ⌈N/2⌉ - 1) mod N`.
    Tornado,
    /// `dst = (src + 1) mod N`.
    Neighbour,
    /// With probability `fraction`, send to a Zipf-weighted hot node;
    /// otherwise uniform.
    Hotspot {
        /// Probability of choosing a hot destination.
        fraction: f64,
        /// Zipf exponent over node ranks.
        exponent: f64,
    },
}

impl TrafficPattern {
    /// The paper's four evaluation patterns, in figure order.
    pub fn paper_suite() -> Vec<(&'static str, TrafficPattern)> {
        vec![
            ("uniform", TrafficPattern::Uniform),
            ("complement", TrafficPattern::Complement),
            ("butterfly", TrafficPattern::Butterfly),
            ("perfect_shuffle", TrafficPattern::PerfectShuffle),
        ]
    }

    /// Every pattern, one per [`TrafficPattern::name`] (hotspot with the
    /// extension benches' half-hot, Zipf-1.2 mix).
    pub fn all() -> Vec<TrafficPattern> {
        let mut all: Vec<_> = Self::paper_suite().into_iter().map(|(_, p)| p).collect();
        all.extend([
            TrafficPattern::Transpose,
            TrafficPattern::BitReversal,
            TrafficPattern::Tornado,
            TrafficPattern::Neighbour,
            TrafficPattern::Hotspot {
                fraction: 0.5,
                exponent: 1.2,
            },
        ]);
        all
    }

    /// The pattern [`TrafficPattern::name`] prints as `s`.
    pub fn from_name(s: &str) -> Option<TrafficPattern> {
        Self::all().into_iter().find(|p| p.name() == s)
    }

    /// Whether [`TrafficPattern::dest`] is defined on `n` nodes: any
    /// `n >= 2`, a power of two for the bit permutations, an even bit
    /// count for transpose.
    pub fn valid_for(&self, n: u32) -> bool {
        let even_bits = n.trailing_zeros().is_multiple_of(2);
        n >= 2
            && (!self.needs_pow2() || n.is_power_of_two())
            && (!matches!(self, TrafficPattern::Transpose) || even_bits)
    }

    fn needs_pow2(&self) -> bool {
        matches!(
            self,
            TrafficPattern::Butterfly
                | TrafficPattern::Complement
                | TrafficPattern::PerfectShuffle
                | TrafficPattern::Transpose
                | TrafficPattern::BitReversal
        )
    }

    /// True when the pattern is a fixed permutation (destination depends
    /// only on the source).
    #[cfg(test)]
    fn is_permutation(&self) -> bool {
        !matches!(
            self,
            TrafficPattern::Uniform | TrafficPattern::Hotspot { .. }
        )
    }

    /// Short machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::Uniform => "uniform",
            TrafficPattern::Butterfly => "butterfly",
            TrafficPattern::Complement => "complement",
            TrafficPattern::PerfectShuffle => "perfect_shuffle",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::BitReversal => "bit_reversal",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::Neighbour => "neighbour",
            TrafficPattern::Hotspot { .. } => "hotspot",
        }
    }

    /// Picks the destination for a packet from `src` in an `n`-node system.
    ///
    /// # Panics
    /// If `n < 2`, `src >= n`, or a bit-permutation pattern is used with a
    /// non-power-of-two `n`.
    pub fn dest(&self, src: u32, n: u32, rng: &mut Pcg32) -> u32 {
        assert!(n >= 2 && src < n);
        let bits = n.trailing_zeros();
        if self.needs_pow2() {
            assert!(n.is_power_of_two(), "bit permutations need 2^k nodes");
        }
        let dst = match self {
            TrafficPattern::Uniform => {
                // Uniform over the other n-1 nodes.
                let r = rng.below(n - 1);
                if r >= src {
                    r + 1
                } else {
                    r
                }
            }
            TrafficPattern::Complement => !src & (n - 1),
            TrafficPattern::Butterfly => {
                if bits < 2 {
                    src
                } else {
                    let msb = (src >> (bits - 1)) & 1;
                    let lsb = src & 1;
                    let mid = src & !(1 | (1 << (bits - 1)));
                    mid | (lsb << (bits - 1)) | msb
                }
            }
            TrafficPattern::PerfectShuffle => {
                let msb = (src >> (bits - 1)) & 1;
                ((src << 1) & (n - 1)) | msb
            }
            TrafficPattern::Transpose => {
                assert!(bits.is_multiple_of(2), "transpose needs an even bit count");
                let half = bits / 2;
                let lo = src & ((1 << half) - 1);
                let hi = src >> half;
                (lo << half) | hi
            }
            TrafficPattern::BitReversal => {
                let mut v = 0;
                for b in 0..bits {
                    if src & (1 << b) != 0 {
                        v |= 1 << (bits - 1 - b);
                    }
                }
                v
            }
            TrafficPattern::Tornado => (src + n.div_ceil(2) - 1) % n,
            TrafficPattern::Neighbour => (src + 1) % n,
            TrafficPattern::Hotspot { fraction, exponent } => {
                if rng.bernoulli(*fraction) {
                    let z = Zipf::new(n as usize, *exponent);
                    z.sample(rng) as u32
                } else {
                    let r = rng.below(n - 1);
                    if r >= src {
                        r + 1
                    } else {
                        r
                    }
                }
            }
        };
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Pcg32 {
        Pcg32::stream(99, 0)
    }

    #[test]
    fn names_round_trip_and_validity_matches_dest() {
        let all = TrafficPattern::all();
        assert_eq!(all.len(), 9);
        for p in &all {
            let back = TrafficPattern::from_name(p.name()).expect("every name parses");
            assert_eq!(back.name(), p.name());
            assert!(p.valid_for(64) && !p.valid_for(1));
            // 9 nodes: only the bit permutations are undefined; 8 nodes
            // (3 bits) additionally rules out transpose.
            assert_eq!(p.valid_for(9), !p.needs_pow2(), "{}", p.name());
            assert_eq!(
                p.valid_for(8),
                !matches!(p, TrafficPattern::Transpose),
                "{}",
                p.name()
            );
        }
        assert!(TrafficPattern::from_name("nope").is_none());
    }

    #[test]
    fn complement_on_64_nodes_matches_paper() {
        // §4.2: "nodes 0, 1, 2 ... 7 on board 0 communicates with node
        // 63, 62, 61, ... 56 on board 7."
        let mut r = rng();
        let p = TrafficPattern::Complement;
        for (src, want) in [(0u32, 63u32), (1, 62), (7, 56), (63, 0)] {
            assert_eq!(p.dest(src, 64, &mut r), want);
        }
    }

    #[test]
    fn butterfly_swaps_msb_lsb() {
        let mut r = rng();
        let p = TrafficPattern::Butterfly;
        // 6-bit: a5..a0 -> a0 a4 a3 a2 a1 a5.
        // src=0b000001 -> 0b100000.
        assert_eq!(p.dest(1, 64, &mut r), 32);
        assert_eq!(p.dest(32, 64, &mut r), 1);
        // Palindromic-ends addresses are fixed points.
        assert_eq!(p.dest(33, 64, &mut r), 33);
        assert_eq!(p.dest(0, 64, &mut r), 0);
        // Middle bits untouched: 0b011110 -> 0b011110 swaps 0 and 0.
        assert_eq!(p.dest(0b011110, 64, &mut r), 0b011110);
    }

    #[test]
    fn perfect_shuffle_rotates_left() {
        let mut r = rng();
        let p = TrafficPattern::PerfectShuffle;
        // a5..a0 -> a4..a0 a5: 0b100000 -> 0b000001.
        assert_eq!(p.dest(32, 64, &mut r), 1);
        assert_eq!(p.dest(1, 64, &mut r), 2);
        assert_eq!(p.dest(0b101010, 64, &mut r), 0b010101);
    }

    #[test]
    fn transpose_swaps_halves() {
        let mut r = rng();
        let p = TrafficPattern::Transpose;
        // 6 bits: (hi3, lo3) -> (lo3, hi3): 0b001_110 -> 0b110_001.
        assert_eq!(p.dest(0b001_110, 64, &mut r), 0b110_001);
    }

    #[test]
    fn bit_reversal_reverses() {
        let mut r = rng();
        let p = TrafficPattern::BitReversal;
        assert_eq!(p.dest(0b000001, 64, &mut r), 0b100000);
        assert_eq!(p.dest(0b110000, 64, &mut r), 0b000011);
    }

    #[test]
    fn tornado_and_neighbour() {
        let mut r = rng();
        assert_eq!(TrafficPattern::Tornado.dest(0, 64, &mut r), 31);
        assert_eq!(TrafficPattern::Tornado.dest(40, 64, &mut r), 7);
        assert_eq!(TrafficPattern::Neighbour.dest(63, 64, &mut r), 0);
    }

    #[test]
    fn permutations_are_bijections() {
        let mut r = rng();
        for p in [
            TrafficPattern::Complement,
            TrafficPattern::Butterfly,
            TrafficPattern::PerfectShuffle,
            TrafficPattern::Transpose,
            TrafficPattern::BitReversal,
            TrafficPattern::Tornado,
            TrafficPattern::Neighbour,
        ] {
            assert!(p.is_permutation());
            let mut seen = [false; 64];
            for src in 0..64 {
                let d = p.dest(src, 64, &mut r);
                assert!(!seen[d as usize], "{} not a bijection", p.name());
                seen[d as usize] = true;
            }
        }
    }

    #[test]
    fn uniform_never_self_and_covers() {
        let mut r = rng();
        let p = TrafficPattern::Uniform;
        assert!(!p.is_permutation());
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let d = p.dest(5, 16, &mut r);
            assert_ne!(d, 5);
            seen[d as usize] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, 15);
    }

    #[test]
    fn hotspot_concentrates() {
        let mut r = rng();
        let p = TrafficPattern::Hotspot {
            fraction: 0.8,
            exponent: 1.5,
        };
        let mut counts = vec![0u32; 16];
        for _ in 0..4000 {
            counts[p.dest(5, 16, &mut r) as usize] += 1;
        }
        // Node 0 (hottest Zipf rank) receives far more than average.
        assert!(counts[0] > 4000 / 16 * 4, "{counts:?}");
    }

    #[test]
    fn paper_suite_has_four_patterns() {
        let suite = TrafficPattern::paper_suite();
        assert_eq!(suite.len(), 4);
        assert_eq!(suite[0].0, "uniform");
        assert_eq!(suite[1].0, "complement");
    }

    #[test]
    #[should_panic(expected = "2^k nodes")]
    fn bit_pattern_rejects_non_power_of_two() {
        let mut r = rng();
        TrafficPattern::Complement.dest(0, 48, &mut r);
    }
}
