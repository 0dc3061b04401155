//! Window-granularity metric registry.
//!
//! Counters and gauges are snapshotted at every R_w window boundary into a
//! [`WindowSnapshot`] row (counters as deltas since the previous boundary),
//! which is exactly the table the `tracereport` bin renders. Histograms
//! reuse [`netstats::Histogram`] and accumulate over the whole run, since
//! percentile queries need more samples than one window provides.

use netstats::Histogram;

/// Handle to a registered counter (monotonic within a window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (last-write-wins within a window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram (run-cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// One finalized window row: counter deltas and gauge values in
/// registration order.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Window index (counting boundaries from 1).
    pub window: u64,
    pub counters: Vec<u64>,
    pub gauges: Vec<f64>,
}

/// The distribution digest of one run-cumulative histogram, in the shape
/// reports consume (plain data, cheap to clone across the runner).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Registered name.
    pub name: String,
    /// Samples recorded (excluding none; overflow samples count).
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Median (bin-interpolated).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

/// A registry of named metrics rolled at window granularity.
///
/// Registration order is fixed by the caller, so two runs that register the
/// same metrics in the same order produce byte-identical exports.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    counter_names: Vec<&'static str>,
    counters: Vec<u64>,
    /// Counter totals at the previous window boundary (for deltas).
    counters_at_roll: Vec<u64>,
    gauge_names: Vec<&'static str>,
    gauges: Vec<f64>,
    hist_names: Vec<&'static str>,
    hists: Vec<Histogram>,
    windows: Vec<WindowSnapshot>,
}

impl MetricRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn counter(&mut self, name: &'static str) -> CounterId {
        self.counter_names.push(name);
        self.counters.push(0);
        self.counters_at_roll.push(0);
        CounterId(self.counter_names.len() - 1)
    }

    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        self.gauge_names.push(name);
        self.gauges.push(0.0);
        GaugeId(self.gauge_names.len() - 1)
    }

    pub fn histogram(&mut self, name: &'static str, bins: usize, bin_width: f64) -> HistId {
        self.hist_names.push(name);
        self.hists.push(Histogram::new(bins, bin_width));
        HistId(self.hist_names.len() - 1)
    }

    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0] += by;
    }

    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0] = value;
    }

    #[inline]
    pub fn observe(&mut self, id: HistId, value: f64) {
        self.hists[id.0].record(value);
    }

    /// Finalizes the current window: snapshots counter deltas and gauge
    /// values into a [`WindowSnapshot`] tagged `window`.
    pub fn roll(&mut self, window: u64) {
        let deltas: Vec<u64> = self
            .counters
            .iter()
            .zip(&self.counters_at_roll)
            .map(|(now, prev)| now - prev)
            .collect();
        self.counters_at_roll.copy_from_slice(&self.counters);
        self.windows.push(WindowSnapshot {
            window,
            counters: deltas,
            gauges: self.gauges.clone(),
        });
    }

    pub fn counter_names(&self) -> &[&'static str] {
        &self.counter_names
    }

    pub fn gauge_names(&self) -> &[&'static str] {
        &self.gauge_names
    }

    /// Digests every registered histogram into a [`HistogramSummary`], in
    /// registration order (empty histograms report zero quantiles).
    pub fn hist_summaries(&self) -> Vec<HistogramSummary> {
        self.hist_names
            .iter()
            .zip(&self.hists)
            .map(|(name, h)| HistogramSummary {
                name: name.to_string(),
                count: h.count(),
                mean: h.mean(),
                p50: h.p50().unwrap_or(0.0),
                p95: h.p95().unwrap_or(0.0),
                p99: h.p99().unwrap_or(0.0),
            })
            .collect()
    }

    #[cfg(test)]
    fn windows(&self) -> &[WindowSnapshot] {
        &self.windows
    }

    pub fn take_windows(&mut self) -> Vec<WindowSnapshot> {
        std::mem::take(&mut self.windows)
    }

    /// Serializes metric values, roll baselines, histograms and retained
    /// window rows. Names and registration order are config-derived and
    /// used only for geometry validation on load.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        self.counters.save(w);
        self.counters_at_roll.save(w);
        self.gauges.save(w);
        self.hists.save(w);
        self.windows.save(w);
    }

    /// Overlays checkpointed metric state; the registration shape (number
    /// of counters/gauges/histograms) must match this registry.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::{Snap, SnapError};
        fn expect_len(expect: usize, got: usize, what: &str) -> Result<(), SnapError> {
            if expect == got {
                Ok(())
            } else {
                Err(SnapError::Mismatch(format!(
                    "{what}: expected {expect} entries, snapshot has {got}"
                )))
            }
        }
        let counters: Vec<u64> = Snap::load(r)?;
        expect_len(
            self.counter_names.len(),
            counters.len(),
            "registry counters",
        )?;
        let counters_at_roll: Vec<u64> = Snap::load(r)?;
        expect_len(
            self.counter_names.len(),
            counters_at_roll.len(),
            "registry counter baselines",
        )?;
        let gauges: Vec<f64> = Snap::load(r)?;
        expect_len(self.gauge_names.len(), gauges.len(), "registry gauges")?;
        let hists: Vec<Histogram> = Snap::load(r)?;
        expect_len(self.hist_names.len(), hists.len(), "registry histograms")?;
        let windows: Vec<WindowSnapshot> = Snap::load(r)?;
        self.counters = counters;
        self.counters_at_roll = counters_at_roll;
        self.gauges = gauges;
        self.hists = hists;
        self.windows = windows;
        Ok(())
    }
}

impl desim::snap::Snap for WindowSnapshot {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.u64(self.window);
        self.counters.save(w);
        self.gauges.save(w);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        use desim::snap::Snap;
        Ok(Self {
            window: r.u64()?,
            counters: Snap::load(r)?,
            gauges: Snap::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roll_as_deltas() {
        let mut reg = MetricRegistry::new();
        let c = reg.counter("grants");
        reg.inc(c, 3);
        reg.roll(1);
        reg.inc(c, 2);
        reg.roll(2);
        reg.roll(3);
        let w = reg.windows();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].counters, vec![3]);
        assert_eq!(w[1].counters, vec![2]);
        assert_eq!(w[2].counters, vec![0]);
        assert_eq!(reg.counters[c.0], 5);
    }

    #[test]
    fn gauges_carry_last_value() {
        let mut reg = MetricRegistry::new();
        let g = reg.gauge("buffer_util");
        reg.set(g, 0.25);
        reg.roll(1);
        reg.roll(2);
        assert_eq!(reg.windows()[0].gauges, vec![0.25]);
        // Gauges are last-write-wins, not reset at the boundary.
        assert_eq!(reg.windows()[1].gauges, vec![0.25]);
    }

    #[test]
    fn histograms_accumulate_over_run() {
        let mut reg = MetricRegistry::new();
        let h = reg.histogram("latency", 64, 4.0);
        reg.observe(h, 10.0);
        reg.roll(1);
        reg.observe(h, 20.0);
        assert_eq!(reg.hists[h.0].count(), 2);
    }

    #[test]
    fn registration_order_is_export_order() {
        let mut reg = MetricRegistry::new();
        reg.counter("a");
        reg.counter("b");
        reg.gauge("g");
        assert_eq!(reg.counter_names(), &["a", "b"]);
        assert_eq!(reg.gauge_names(), &["g"]);
    }
}
