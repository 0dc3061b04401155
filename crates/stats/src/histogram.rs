//! Fixed-width-bin histograms with percentile queries.
//!
//! Latency distributions in the reproduction are heavy-tailed near
//! saturation, so mean latency alone hides congestion; the run results
//! also report the p95 latency from one of these histograms.

/// Histogram over `[0, bin_width * bins)` with an explicit overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: f64,
}

impl Histogram {
    /// Creates a histogram of `bins` bins, each `bin_width` wide.
    ///
    /// # Panics
    /// If `bins == 0` or `bin_width <= 0`.
    pub fn new(bins: usize, bin_width: f64) -> Self {
        assert!(bins > 0 && bin_width > 0.0);
        Self {
            bin_width,
            counts: vec![0; bins],
            overflow: 0,
            total: 0,
            sum: 0.0,
        }
    }

    /// Records a sample (negative samples clamp into the first bin).
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        self.sum += x;
        let idx = (x.max(0.0) / self.bin_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples that fell past the last bin.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Mean of the recorded samples (exact, not binned).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`, resolved to bin upper edges.
    /// Returns `None` when empty. Overflowed mass resolves to `+inf`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some((i as f64 + 1.0) * self.bin_width);
            }
        }
        Some(f64::INFINITY)
    }

    /// Iterates `(bin_lower_edge, count)` for the non-overflow bins.
    pub fn bins(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (i as f64 * self.bin_width, c))
    }

    /// Resets all counts.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.overflow = 0;
        self.total = 0;
        self.sum = 0.0;
    }
}

use desim::snap::Snap;

impl Snap for Histogram {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.f64(self.bin_width);
        self.counts.save(w);
        w.u64(self.overflow);
        w.u64(self.total);
        w.f64(self.sum);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        let bin_width = r.f64()?;
        let counts = Vec::<u64>::load(r)?;
        if bin_width.is_nan() || bin_width <= 0.0 || counts.is_empty() {
            return Err(desim::snap::SnapError::Format(
                "histogram geometry invalid".to_string(),
            ));
        }
        Ok(Self {
            bin_width,
            counts,
            overflow: r.u64()?,
            total: r.u64()?,
            sum: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(4, 10.0);
        h.record(0.0);
        h.record(9.9);
        h.record(10.0);
        h.record(35.0);
        h.record(40.0); // overflow
        let bins: Vec<u64> = h.bins().map(|(_, c)| c).collect();
        assert_eq!(bins, vec![2, 1, 0, 1]);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new(10, 1.0);
        for x in [1.0, 2.0, 3.0] {
            h.record(x);
        }
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::new(100, 1.0);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        assert!((h.quantile(0.50).unwrap() - 50.0).abs() <= 1.0);
        assert!((h.quantile(0.95).unwrap() - 95.0).abs() <= 1.0);
        assert!((h.quantile(0.99).unwrap() - 99.0).abs() <= 1.0);
        assert_eq!(h.quantile(0.0).unwrap(), 1.0);
        assert_eq!(h.quantile(1.0).unwrap(), 100.0);
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let h = Histogram::new(4, 1.0);
        assert!(h.quantile(0.5).is_none());
    }

    #[test]
    fn overflow_quantile_is_infinite() {
        let mut h = Histogram::new(2, 1.0);
        h.record(100.0);
        assert_eq!(h.quantile(0.5), Some(f64::INFINITY));
    }

    #[test]
    fn negative_samples_clamp() {
        let mut h = Histogram::new(2, 1.0);
        h.record(-5.0);
        let bins: Vec<u64> = h.bins().map(|(_, c)| c).collect();
        assert_eq!(bins[0], 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = Histogram::new(4, 1.0);
        h.record(1.0);
        h.record(100.0);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
