//! Composite meters for the paper's three reported quantities:
//! throughput (packets/node/cycle), latency (cycles), and power (mW).

use crate::histogram::Histogram;
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
    start: Option<Cycle>,
}

impl ThroughputMeter {
    /// Creates a meter for a network of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0);
        Self {
            nodes,
            delivered: 0,
            start: None,
        }
    }

    /// Marks the beginning of the measurement interval.
    pub fn start(&mut self, now: Cycle) {
        self.start = Some(now);
    }

    /// Records the delivery of one measured packet.
    pub fn deliver(&mut self) {
        self.delivered += 1;
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

    /// Serializes the delivery count (the node count and the interval
    /// start are the caller's config).
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u64(self.delivered);
    }

    /// Overlays a checkpointed delivery count.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.delivered = r.u64()?;
        Ok(())
    }
}

/// Exact mean of integer samples: a count and a `u128` sum, so the mean
/// does not depend on the order the samples arrived in.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntMean {
    count: u64,
    sum: u128,
}

impl IntMean {
    /// Adds one sample.
    pub fn push(&mut self, x: u64) {
        self.count += 1;
        self.sum += u128::from(x);
    }

    /// `sum as f64 / count as f64` (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Measures end-to-end packet latency (injection to delivery, in cycles):
/// one sample count and exact sum for the mean, and a histogram for the
/// percentiles that takes its sample count from the mean.
#[derive(Debug, Clone)]
pub struct LatencyMeter {
    mean: IntMean,
    hist: Histogram,
}

impl LatencyMeter {
    /// Creates a meter with a histogram of `bins` bins of `bin_width` cycles.
    pub fn new(bins: usize, bin_width: f64) -> Self {
        Self {
            mean: IntMean::default(),
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
        let lat = now - injected;
        self.mean.push(lat);
        self.hist.record(lat as f64);
    }

    /// Mean latency in cycles.
    pub fn mean(&self) -> f64 {
        self.mean.mean()
    }

    /// 95th-percentile latency, if any packets were measured.
    pub fn p95(&self) -> Option<f64> {
        self.hist.quantile(0.95, self.mean.count)
    }

    /// Serializes the count, the sum and the non-zero bins (the bin
    /// geometry is the caller's config).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.mean.save(w);
        self.hist.save_state(w);
    }

    /// Overlays checkpointed samples onto this meter's bin geometry; a bin
    /// past the last is a format error.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.mean = IntMean::load(r)?;
        self.hist.load_state(r, self.mean.count)
    }
}

/// Average optical power in mW, from lit-laser cycles per power class.
///
/// Each cycle the optical stage reports how many lasers sit in each class
/// (dark, then idle and active per DPM level); the meter adds those
/// integer counts and multiplies by the per-class draw once, at read time.
#[derive(Debug, Clone)]
pub struct PowerMeter {
    /// Draw of one laser in each class (mW).
    class_mw: Vec<f64>,
    /// Laser-cycles recorded in each class.
    class_cycles: Vec<u64>,
    cycles: u64,
}

impl PowerMeter {
    /// Creates an empty meter over the per-class draws `class_mw` (mW).
    pub fn new(class_mw: Vec<f64>) -> Self {
        Self {
            class_cycles: vec![0; class_mw.len()],
            class_mw,
            cycles: 0,
        }
    }

    /// Records one cycle with `lit[c]` lasers in class `c`.
    pub fn record(&mut self, lit: &[u32]) {
        debug_assert_eq!(lit.len(), self.class_cycles.len());
        for (total, &n) in self.class_cycles.iter_mut().zip(lit) {
            *total += u64::from(n);
        }
        self.cycles += 1;
    }

    /// Average power in mW over the recorded cycles at the meter's own
    /// per-class draws.
    pub fn average_mw(&self) -> f64 {
        self.mean_at(&self.class_mw)
    }

    /// The average power under another per-class draw table `class_mw`;
    /// `None` if it prices another number of classes.
    pub fn priced(&self, class_mw: &[f64]) -> Option<f64> {
        (class_mw.len() == self.class_cycles.len()).then(|| self.mean_at(class_mw))
    }

    /// Laser-cycles recorded per class, and the cycles recorded.
    pub fn counts(&self) -> (&[u64], u64) {
        (&self.class_cycles, self.cycles)
    }

    /// `Σ_c cycles_c · P_c` in class order, over the cycle count.
    fn mean_at(&self, class_mw: &[f64]) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let mw_cycles: f64 = (self.class_cycles.iter().zip(class_mw))
            .map(|(&n, &mw)| n as f64 * mw)
            .sum();
        mw_cycles / self.cycles as f64
    }

    /// Serializes the counters (the class table is config-derived).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.class_cycles.save(w);
        w.u64(self.cycles);
    }

    /// Overlays checkpointed counters; a class count other than this
    /// meter's is a format error.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        if n != self.class_cycles.len() {
            return Err(SnapError::Format(format!(
                "power meter has {n} classes, the config {}",
                self.class_cycles.len()
            )));
        }
        for total in &mut self.class_cycles {
            *total = r.u64()?;
        }
        self.cycles = r.u64()?;
        Ok(())
    }
}

impl Snap for IntMean {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.count);
        w.u64(self.sum as u64);
        w.u64((self.sum >> 64) as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let count = r.u64()?;
        let (lo, hi) = (r.u64()?, r.u64()?);
        Ok(Self {
            count,
            sum: u128::from(hi) << 64 | u128::from(lo),
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
        for _ in 101..=140 {
            m.deliver();
        }
        // 40 packets over 100 cycles and 4 nodes = 0.1 pkt/node/cycle.
        assert!((m.throughput(200) - 0.1).abs() < 1e-12);
        assert_eq!(m.delivered, 40);
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
        assert_eq!(m.mean(), 20.0);
        assert!(m.p95().unwrap() >= 24.0);
    }

    #[test]
    fn empty_latency_meter() {
        let m = LatencyMeter::standard();
        assert_eq!(m.mean(), 0.0);
        assert!(m.p95().is_none());
    }

    #[test]
    fn single_sample_percentiles_agree_with_the_sample() {
        // One packet: p95 is that packet's bin (a degenerate but legal
        // histogram), and the mean is the sample itself.
        let mut m = LatencyMeter::new(64, 8.0);
        m.record(100, 142); // latency 42 -> bin [40, 48)
        assert_eq!(m.mean(), 42.0);
        let p95 = m.p95().unwrap();
        assert!((40.0..=48.0).contains(&p95), "percentile {p95} off-bin");
    }

    #[test]
    fn throughput_over_an_empty_interval_is_zero() {
        // Deliveries recorded but the horizon never advanced past start
        // (e.g. measurement aborted on the starting cycle): no span, no
        // throughput, no division by zero.
        let mut m = ThroughputMeter::new(8);
        m.start(500);
        m.deliver();
        assert_eq!(m.throughput(500), 0.0);
        assert_eq!(m.throughput(400), 0.0, "horizon before start saturates");
        assert_eq!(m.delivered, 1);
    }

    #[test]
    fn power_average_weighs_class_cycles() {
        // Classes: dark, idle 10 mW, active 30 mW.
        let mut p = PowerMeter::new(vec![0.0, 10.0, 30.0]);
        p.record(&[1, 1, 0]);
        p.record(&[1, 0, 1]);
        assert_eq!(p.class_cycles, [2, 1, 1]);
        assert_eq!(p.cycles, 2);
        assert_eq!(p.average_mw(), 20.0);
    }

    #[test]
    fn reprices_under_a_table_of_its_class_count() {
        let mut p = PowerMeter::new(vec![0.0, 10.0, 30.0]);
        p.record(&[1, 1, 0]);
        p.record(&[1, 0, 1]);
        assert_eq!(p.priced(&[0.0, 2.0, 6.0]), Some(4.0));
        assert_eq!(p.priced(&[0.0, 10.0, 30.0]), Some(p.average_mw()));
        assert_eq!(p.priced(&[0.0, 10.0]), None);
        assert_eq!(p.counts(), (&[2, 1, 1][..], 2));
    }

    #[test]
    fn empty_power_meter_is_zero() {
        let p = PowerMeter::new(vec![0.0, 10.0, 30.0]);
        assert_eq!(p.average_mw(), 0.0);
    }

    #[test]
    fn power_snapshot_refuses_another_class_count() {
        let mut p = PowerMeter::new(vec![0.0, 10.0, 30.0]);
        p.record(&[1, 1, 0]);
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = PowerMeter::new(vec![0.0, 10.0, 30.0]);
        back.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!((back.class_cycles, back.cycles), (p.class_cycles, p.cycles));
        let mut other = PowerMeter::new(vec![0.0, 10.0, 30.0, 5.0, 15.0]);
        assert!(matches!(
            other.load_state(&mut SnapReader::new(&bytes)),
            Err(SnapError::Format(_))
        ));
    }
}
