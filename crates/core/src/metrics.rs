//! Run metrics: the three quantities every figure of §4 reports, plus
//! reconfiguration counters.

use desim::phase::{PhasePlan, PhaseTracker};
use desim::Cycle;
use netstats::meter::{IntMean, LatencyMeter, PowerMeter, ThroughputMeter};

/// One delivered packet, as logged when `SystemConfig::packet_log` is on.
///
/// Packet ids are assigned sequentially in injection order, so under trace
/// replay id `k` is the trace's `k`-th entry — a replayed delivery joins
/// back to its `(cycle, src, dst)` provenance without carrying `src` here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketDelivery {
    /// Sequential packet id (injection order).
    pub id: u64,
    /// Destination node.
    pub dst: u32,
    /// Injection cycle.
    pub injected_at: Cycle,
    /// Delivery cycle.
    pub delivered_at: Cycle,
    /// Whether the packet was injected during the measurement phase.
    pub labelled: bool,
}

/// Metrics collected over one simulation run.
pub struct RunMetrics {
    /// Accepted throughput (deliveries during the measurement interval).
    pub throughput: ThroughputMeter,
    /// End-to-end latency of labelled packets.
    pub latency: LatencyMeter,
    /// Average optical-link power over the measurement interval, from the
    /// optical stage's lit-laser counts per power class.
    pub power: PowerMeter,
    /// Labelled-packet completion tracking.
    pub tracker: PhaseTracker,
    /// The phase plan of the run.
    pub plan: PhasePlan,
    /// Total packets injected (all phases).
    pub injected_total: u64,
    /// Total packets delivered (all phases).
    pub delivered_total: u64,
    /// Latency decomposition, source side: injection → TX-queue-ready
    /// (NI wait + IBI traversal + reassembly), labelled remote packets.
    pub src_path: IntMean,
    /// Latency decomposition: TX-queue wait (ready → optical departure).
    pub tx_wait: IntMean,
}

impl desim::snap::Snap for PacketDelivery {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.u64(self.id);
        w.u32(self.dst);
        w.u64(self.injected_at);
        w.u64(self.delivered_at);
        w.bool(self.labelled);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        Ok(Self {
            id: r.u64()?,
            dst: r.u32()?,
            injected_at: r.u64()?,
            delivered_at: r.u64()?,
            labelled: r.bool()?,
        })
    }
}

impl RunMetrics {
    /// Serializes all accumulators and counters (the phase plan, the
    /// meters' geometry and the per-class draws are config-derived and not
    /// persisted).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        use desim::snap::Snap;
        self.throughput.save_state(w);
        self.latency.save_state(w);
        self.power.save_state(w);
        self.tracker.save(w);
        w.u64(self.injected_total);
        w.u64(self.delivered_total);
        self.src_path.save(w);
        self.tx_wait.save(w);
    }

    /// Overlays checkpointed metric accumulators.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::Snap;
        self.throughput.load_state(r)?;
        self.latency.load_state(r)?;
        self.power.load_state(r)?;
        self.tracker = PhaseTracker::load(r)?;
        self.injected_total = r.u64()?;
        self.delivered_total = r.u64()?;
        self.src_path = IntMean::load(r)?;
        self.tx_wait = IntMean::load(r)?;
        Ok(())
    }
}

impl RunMetrics {
    /// Creates metrics for a network of `nodes` nodes under `plan`, with
    /// `class_mw` the draw of one laser in each power class (mW).
    pub fn new(nodes: usize, plan: PhasePlan, class_mw: Vec<f64>) -> Self {
        let mut throughput = ThroughputMeter::new(nodes);
        throughput.start(plan.measure_start());
        Self {
            throughput,
            latency: LatencyMeter::standard(),
            power: PowerMeter::new(class_mw),
            tracker: PhaseTracker::new(),
            plan,
            injected_total: 0,
            delivered_total: 0,
            src_path: IntMean::default(),
            tx_wait: IntMean::default(),
        }
    }

    /// True while `now` is inside the measurement interval.
    pub fn measuring(&self, now: Cycle) -> bool {
        now >= self.plan.measure_start() && now < self.plan.measure_end()
    }

    /// Accepted throughput in packets/node/cycle.
    pub fn throughput_ppc(&self) -> f64 {
        self.throughput.throughput(self.plan.measure_end())
    }

    /// Mean latency in cycles of measured packets.
    pub fn mean_latency(&self) -> f64 {
        self.latency.mean()
    }

    /// Average power in mW over the measurement interval.
    pub fn average_power_mw(&self) -> f64 {
        self.power.average_mw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measuring_window() {
        let m = RunMetrics::new(4, PhasePlan::new(100, 50), vec![0.0]);
        assert!(!m.measuring(99));
        assert!(m.measuring(100));
        assert!(m.measuring(149));
        assert!(!m.measuring(150));
    }

    #[test]
    fn throughput_starts_at_measure_start() {
        let mut m = RunMetrics::new(2, PhasePlan::new(100, 100), vec![0.0]);
        m.throughput.deliver();
        m.throughput.deliver();
        // 2 packets / (2 nodes × 100 cycles).
        assert!((m.throughput_ppc() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RunMetrics::new(4, PhasePlan::new(10, 10), vec![0.0]);
        assert_eq!(m.throughput_ppc(), 0.0);
        assert_eq!(m.mean_latency(), 0.0);
        assert_eq!(m.average_power_mw(), 0.0);
        assert_eq!(m.injected_total, 0);
        assert_eq!(m.delivered_total, 0);
    }
}
