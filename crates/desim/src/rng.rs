//! Deterministic random-number streams and network-simulation distributions.
//!
//! The simulator needs reproducibility above all: every experiment in
//! EXPERIMENTS.md is identified by a single `u64` seed, and changing one
//! node's configuration must not perturb any other node's random draws.
//! [`stream`] therefore derives an independent PCG32 stream per (seed,
//! stream-id) pair via SplitMix64, the standard seeding recommendation for
//! PCG.
//!
//! Distributions included are the ones a network simulator needs:
//! * [`Pcg32::bernoulli`] — per-cycle packet injection (§4: "packets were
//!   injected according to Bernoulli process based on the network load"),
//! * [`Pcg32::below`] / [`Pcg32::range`] — uniform destinations (unbiased,
//!   via Lemire rejection),
//! * [`Zipf`] — skewed hotspot destination choice (extension workloads).

/// SplitMix64: used to expand one seed into per-stream state/increment pairs.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// PCG32 (XSH-RR 64/32): small, fast, statistically solid generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    /// Stream selector; must be odd.
    inc: u64,
}

impl Pcg32 {
    const MULT: u64 = 6364136223846793005;

    /// Creates a generator from an explicit state and stream selector.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Derives an independent stream `id` from a master `seed`.
    ///
    /// Streams with different ids are de-correlated both in state and in the
    /// PCG stream increment.
    pub fn stream(seed: u64, id: u64) -> Self {
        let mut s = seed ^ id.wrapping_mul(0xA0761D6478BD642F);
        let state = splitmix64(&mut s);
        let inc = splitmix64(&mut s);
        Self::new(state, inc)
    }

    /// Next 32 uniformly random bits.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(Self::MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Uniform float in `[0, 1)` with 32 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.next_u32() as f64 * (1.0 / 4294967296.0)
    }

    /// Unbiased uniform integer in `[0, bound)` via Lemire's method.
    ///
    /// # Panics
    /// If `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u32();
            let m = (x as u64) * (bound as u64);
            let low = m as u32;
            if low >= bound {
                return (m >> 32) as u32;
            }
            // Slow path: rejection to remove modulo bias.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 32) as u32;
            }
        }
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    #[inline]
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty());
        &items[self.below(items.len() as u32) as usize]
    }
}

impl crate::snap::Snap for Pcg32 {
    fn save(&self, w: &mut crate::snap::SnapWriter) {
        w.u64(self.state);
        w.u64(self.inc);
    }
    fn load(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
        let state = r.u64()?;
        let inc = r.u64()?;
        if inc & 1 == 0 {
            return Err(crate::snap::SnapError::Format(
                "PCG32 stream increment must be odd".to_string(),
            ));
        }
        Ok(Self { state, inc })
    }
}

/// Convenience alias for [`Pcg32::stream`].
pub fn stream(seed: u64, id: u64) -> Pcg32 {
    Pcg32::stream(seed, id)
}

/// Zipf distribution over `{0, 1, ..., n-1}` with exponent `s`, sampled by
/// inverse-CDF over a precomputed table. Used for hotspot traffic.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds a Zipf(n, s) sampler. `s = 0` degenerates to uniform.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when there is a single category.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Samples a category index in `[0, n)`.
    pub fn sample(&self, rng: &mut Pcg32) -> usize {
        let u = rng.next_f64();
        match self.cdf.binary_search_by(|probe| probe.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = Pcg32::stream(42, 7);
        let mut b = Pcg32::stream(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = Pcg32::stream(42, 0);
        let mut b = Pcg32::stream(42, 1);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams look correlated: {same} equal of 64");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Pcg32::stream(1, 1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Pcg32::stream(3, 9);
        let n = 100_000;
        let k = 10u32;
        let mut counts = vec![0u32; k as usize];
        for _ in 0..n {
            counts[rng.below(k) as usize] += 1;
        }
        let expect = n as f64 / k as f64;
        for c in counts {
            assert!(
                (c as f64 - expect).abs() < expect * 0.05,
                "bucket count {c} too far from {expect}"
            );
        }
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut rng = Pcg32::stream(11, 0);
        let p = 0.3;
        let n = 200_000;
        let hits = (0..n).filter(|_| rng.bernoulli(p)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - p).abs() < 0.005, "rate {rate}");
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(0.0));
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut rng = Pcg32::stream(8, 2);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            let v = rng.range(3, 6);
            assert!((3..=6).contains(&v));
            lo_seen |= v == 3;
            hi_seen |= v == 6;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Pcg32::stream(9, 3);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(16, 1.2);
        let mut rng = Pcg32::stream(10, 4);
        let mut counts = [0u32; 16];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[8] * 4, "{counts:?}");
        assert!(counts[0] > counts[15] * 6, "{counts:?}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(8, 0.0);
        let mut rng = Pcg32::stream(12, 0);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 500.0, "{counts:?}");
        }
    }

    #[test]
    fn choose_returns_members() {
        let mut rng = Pcg32::stream(13, 0);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items)));
        }
    }
}
