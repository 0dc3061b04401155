//! Composite meters for the paper's three reported quantities:
//! throughput (packets/node/cycle), latency (cycles), and power (mW).

use crate::histogram::Histogram;
use crate::running::Running;
use desim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use desim::Cycle;

/// Measures accepted throughput over a measurement interval.
///
/// The paper reports throughput as packets/node/cycle (normalised to network
/// capacity by the caller when plotting).
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    nodes: usize,
    delivered: u64,
    delivered_flits: u64,
    start: Option<Cycle>,
    end: Cycle,
}

impl ThroughputMeter {
    /// Creates a meter for a network of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0);
        Self {
            nodes,
            delivered: 0,
            delivered_flits: 0,
            start: None,
            end: 0,
        }
    }

    /// Marks the beginning of the measurement interval.
    pub fn start(&mut self, now: Cycle) {
        self.start = Some(now);
        self.end = now;
    }

    /// Records the delivery of one measured packet of `flits` flits.
    pub fn deliver(&mut self, now: Cycle, flits: u32) {
        self.delivered += 1;
        self.delivered_flits += flits as u64;
        self.end = self.end.max(now);
    }

    /// Total measured packets delivered.
    pub fn packets(&self) -> u64 {
        self.delivered
    }

    /// Total measured flits delivered.
    pub fn flits(&self) -> u64 {
        self.delivered_flits
    }

    /// Accepted throughput in packets/node/cycle over `[start, horizon]`.
    ///
    /// `horizon` should be the end of the measurement interval (not the drain
    /// end): packets *injected* during measurement are counted wherever they
    /// complete, per the paper's labelled-packet methodology.
    pub fn throughput(&self, horizon: Cycle) -> f64 {
        let Some(start) = self.start else {
            return 0.0;
        };
        let span = horizon.saturating_sub(start);
        if span == 0 {
            return 0.0;
        }
        self.delivered as f64 / (self.nodes as f64 * span as f64)
    }
}

/// Measures end-to-end packet latency (injection to delivery, in cycles).
#[derive(Debug, Clone)]
pub struct LatencyMeter {
    stats: Running,
    hist: Histogram,
}

impl LatencyMeter {
    /// Creates a meter with a histogram of `bins` bins of `bin_width` cycles.
    pub fn new(bins: usize, bin_width: f64) -> Self {
        Self {
            stats: Running::new(),
            hist: Histogram::new(bins, bin_width),
        }
    }

    /// Default geometry: 2048 bins of 8 cycles (covers 16k cycles).
    pub fn standard() -> Self {
        Self::new(2048, 8.0)
    }

    /// Records a delivered packet injected at `injected` and delivered `now`.
    pub fn record(&mut self, injected: Cycle, now: Cycle) {
        debug_assert!(now >= injected);
        let lat = (now - injected) as f64;
        self.stats.push(lat);
        self.hist.record(lat);
    }

    /// Number of packets measured.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Mean latency in cycles.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Maximum observed latency.
    pub fn max(&self) -> f64 {
        if self.stats.count() == 0 {
            0.0
        } else {
            self.stats.max()
        }
    }

    /// 95th-percentile latency, if any packets were measured.
    pub fn p95(&self) -> Option<f64> {
        self.hist.p95()
    }

    /// 99th-percentile latency, if any packets were measured.
    pub fn p99(&self) -> Option<f64> {
        self.hist.p99()
    }

    /// Access to the underlying histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.hist
    }
}

/// Integrates link power over time to report average power in mW.
///
/// Each cycle the model reports the instantaneous total power draw of the
/// optical links; the meter integrates mW·cycles and divides by elapsed
/// cycles.
#[derive(Debug, Clone, Default)]
pub struct PowerMeter {
    mw_cycles: f64,
    cycles: u64,
    peak_mw: f64,
}

impl PowerMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one cycle at the given instantaneous power draw (mW).
    pub fn record(&mut self, mw: f64) {
        debug_assert!(mw >= 0.0);
        self.mw_cycles += mw;
        self.cycles += 1;
        self.peak_mw = self.peak_mw.max(mw);
    }

    /// Average power in mW over the recorded cycles.
    pub fn average_mw(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.mw_cycles / self.cycles as f64
        }
    }

    /// Cycles recorded.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

impl Snap for ThroughputMeter {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.nodes);
        w.u64(self.delivered);
        w.u64(self.delivered_flits);
        self.start.save(w);
        w.u64(self.end);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let nodes = r.usize()?;
        if nodes == 0 {
            return Err(SnapError::Format(
                "throughput meter with 0 nodes".to_string(),
            ));
        }
        Ok(Self {
            nodes,
            delivered: r.u64()?,
            delivered_flits: r.u64()?,
            start: Option::<Cycle>::load(r)?,
            end: r.u64()?,
        })
    }
}

impl Snap for LatencyMeter {
    fn save(&self, w: &mut SnapWriter) {
        self.stats.save(w);
        self.hist.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            stats: Running::load(r)?,
            hist: Histogram::load(r)?,
        })
    }
}

impl Snap for PowerMeter {
    fn save(&self, w: &mut SnapWriter) {
        w.f64(self.mw_cycles);
        w.u64(self.cycles);
        w.f64(self.peak_mw);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            mw_cycles: r.f64()?,
            cycles: r.u64()?,
            peak_mw: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_normalises_per_node_per_cycle() {
        let mut m = ThroughputMeter::new(4);
        m.start(100);
        for t in 101..=140 {
            m.deliver(t, 8);
        }
        // 40 packets over 100 cycles and 4 nodes = 0.1 pkt/node/cycle.
        assert!((m.throughput(200) - 0.1).abs() < 1e-12);
        assert_eq!(m.packets(), 40);
        assert_eq!(m.flits(), 320);
    }

    #[test]
    fn throughput_before_start_is_zero() {
        let m = ThroughputMeter::new(4);
        assert_eq!(m.throughput(100), 0.0);
        let mut m = ThroughputMeter::new(4);
        m.start(50);
        assert_eq!(m.throughput(50), 0.0);
    }

    #[test]
    fn latency_mean_and_percentiles() {
        let mut m = LatencyMeter::standard();
        for (inj, del) in [(0, 10), (0, 20), (0, 30)] {
            m.record(inj, del);
        }
        assert_eq!(m.count(), 3);
        assert!((m.mean() - 20.0).abs() < 1e-12);
        assert_eq!(m.max(), 30.0);
        assert!(m.p95().unwrap() >= 24.0);
        assert!(m.p99().is_some());
    }

    #[test]
    fn empty_latency_meter() {
        let m = LatencyMeter::standard();
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.max(), 0.0);
        assert!(m.p95().is_none());
    }

    #[test]
    fn single_sample_percentiles_agree_with_the_sample() {
        // One packet: every percentile is that packet's bin, and the order
        // p50 <= p95 <= p99 still holds (a degenerate but legal histogram).
        let mut m = LatencyMeter::new(64, 8.0);
        m.record(100, 142); // latency 42 -> bin [40, 48)
        assert_eq!(m.count(), 1);
        assert_eq!(m.mean(), 42.0);
        let p50 = m.histogram().p50().unwrap();
        let p95 = m.p95().unwrap();
        let p99 = m.p99().unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        for p in [p50, p95, p99] {
            assert!((40.0..=48.0).contains(&p), "percentile {p} off-bin");
        }
    }

    #[test]
    fn throughput_over_an_empty_interval_is_zero() {
        // Deliveries recorded but the horizon never advanced past start
        // (e.g. measurement aborted on the starting cycle): no span, no
        // throughput, no division by zero.
        let mut m = ThroughputMeter::new(8);
        m.start(500);
        m.deliver(500, 4);
        assert_eq!(m.throughput(500), 0.0);
        assert_eq!(m.throughput(400), 0.0, "horizon before start saturates");
        assert_eq!(m.packets(), 1);
    }

    #[test]
    fn power_average_and_peak() {
        let mut p = PowerMeter::new();
        p.record(10.0);
        p.record(30.0);
        assert!((p.average_mw() - 20.0).abs() < 1e-12);
        assert_eq!(p.peak_mw, 30.0);
        assert_eq!(p.cycles(), 2);
        assert!((p.mw_cycles - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_power_meter_is_zero() {
        let p = PowerMeter::new();
        assert_eq!(p.average_mw(), 0.0);
        assert_eq!(p.peak_mw, 0.0);
    }
}
