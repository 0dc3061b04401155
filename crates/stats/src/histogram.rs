//! Fixed-width-bin histograms with percentile queries.
//!
//! Latency distributions in the reproduction are heavy-tailed near
//! saturation, so mean latency alone hides congestion; the run results
//! also report the p95 latency from one of these histograms.

use desim::snap::{SnapError, SnapReader, SnapWriter};

/// Histogram over `[0, bin_width * bins)`. It keeps no sample count of its
/// own: the caller counts every sample (its exact mean needs the count
/// anyway) and passes that total to [`Histogram::quantile`], so the
/// samples past the last bin are the total minus the binned ones.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_width: f64,
    counts: Vec<u64>,
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
        }
    }

    /// Records a sample (negative samples clamp into the first bin; a
    /// sample past the last bin is counted only by the caller's total).
    pub fn record(&mut self, x: f64) {
        let idx = (x.max(0.0) / self.bin_width) as usize;
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
    }

    /// Approximate quantile `q` in `[0, 1]` of `total` recorded samples,
    /// resolved to bin upper edges. Returns `None` when `total` is zero.
    /// Mass past the last bin resolves to `+inf`.
    pub fn quantile(&self, q: f64, total: u64) -> Option<f64> {
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some((i as f64 + 1.0) * self.bin_width);
            }
        }
        Some(f64::INFINITY)
    }

    /// Serializes the non-zero bins as varint `(gap, count)` pairs, each
    /// gap the number of empty bins skipped since the previous pair (the
    /// geometry is the caller's config).
    pub fn save_state(&self, w: &mut SnapWriter) {
        let filled = self.counts.iter().filter(|&&c| c > 0).count();
        w.varint(filled as u64);
        let mut next = 0;
        for (i, &c) in self.counts.iter().enumerate().filter(|&(_, &c)| c > 0) {
            w.varint((i - next) as u64);
            w.varint(c);
            next = i + 1;
        }
    }

    /// Overlays checkpointed bins onto this histogram's geometry. A bin
    /// past the last, an empty pair, or more binned samples than the
    /// caller's `total` is a format error.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>, total: u64) -> Result<(), SnapError> {
        let bad = |what: &str| SnapError::Format(format!("histogram: {what}"));
        let filled = r.varint()?;
        self.counts.fill(0);
        let (mut next, mut binned) = (0u64, 0u64);
        for _ in 0..filled {
            let i = next.saturating_add(r.varint()?);
            let c = r.varint()?;
            let slot = usize::try_from(i).ok().and_then(|i| self.counts.get_mut(i));
            let Some(slot) = slot else {
                return Err(bad(&format!("bin {i} of {}", self.counts.len())));
            };
            if c == 0 {
                return Err(bad(&format!("empty bin {i} written")));
            }
            binned = binned.saturating_add(c);
            *slot = c;
            next = i + 1;
        }
        if binned > total {
            return Err(bad(&format!("{binned} binned samples of {total}")));
        }
        Ok(())
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
        h.record(40.0); // past the last bin
        assert_eq!(h.counts, vec![2, 1, 0, 1]);
        assert_eq!(h.quantile(0.8, 5), Some(40.0));
        assert_eq!(h.quantile(1.0, 5), Some(f64::INFINITY));
    }

    #[test]
    fn quantiles() {
        let mut h = Histogram::new(100, 1.0);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let q = |q| h.quantile(q, 100).unwrap();
        assert!((q(0.50) - 50.0).abs() <= 1.0);
        assert!((q(0.95) - 95.0).abs() <= 1.0);
        assert!((q(0.99) - 99.0).abs() <= 1.0);
        assert_eq!(q(0.0), 1.0);
        assert_eq!(q(1.0), 100.0);
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let h = Histogram::new(4, 1.0);
        assert!(h.quantile(0.5, 0).is_none());
    }

    #[test]
    fn overflow_quantile_is_infinite() {
        let mut h = Histogram::new(2, 1.0);
        h.record(100.0);
        assert_eq!(h.quantile(0.5, 1), Some(f64::INFINITY));
    }

    #[test]
    fn negative_samples_clamp() {
        let mut h = Histogram::new(2, 1.0);
        h.record(-5.0);
        assert_eq!(h.counts[0], 1);
    }

    #[test]
    fn sparse_snapshot_round_trips_and_refuses_a_bin_past_the_end() {
        let mut h = Histogram::new(2048, 8.0);
        for x in [0.0, 3.0, 80.0, 80.0, 16_376.0, 99_999.0] {
            h.record(x);
        }
        let mut w = SnapWriter::new();
        h.save_state(&mut w);
        let bytes = w.into_bytes();
        // The pair count, then (gap, count): bin 0 ×2, bin 10 ×2 (gap 9),
        // bin 2047 ×1 (gap 2036); the sample past the end is not written.
        assert_eq!(bytes, [3, 0, 2, 9, 2, 0xf4, 0x0f, 1]);
        let mut back = Histogram::new(2048, 8.0);
        back.load_state(&mut SnapReader::new(&bytes), 6).unwrap();
        assert_eq!(back.counts, h.counts);
        // The same bins in a smaller geometry: bin 2047 is past the end.
        let mut small = Histogram::new(1024, 8.0);
        assert!(matches!(
            small.load_state(&mut SnapReader::new(&bytes), 6),
            Err(SnapError::Format(_))
        ));
        // More binned samples than the caller counted.
        assert!(matches!(
            back.load_state(&mut SnapReader::new(&bytes), 4),
            Err(SnapError::Format(_))
        ));
    }
}
