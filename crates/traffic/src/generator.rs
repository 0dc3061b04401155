//! Per-node traffic generators.
//!
//! A [`NodeGenerator`] owns a node's Bernoulli source and pattern and emits
//! `(src, dst)` packet requests each cycle. Labelling (measurement phase)
//! is decided by the caller from the [`desim::phase::PhasePlan`].

use crate::bernoulli::BernoulliInjector;
use crate::burst::OnOffSource;
use crate::pattern::TrafficPattern;
use desim::rng::Pcg32;
use desim::Cycle;

/// A packet request produced by a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRequest {
    /// Source node.
    pub src: u32,
    /// Destination node.
    pub dst: u32,
}

/// The injection process behind a generator.
#[derive(Debug, Clone)]
enum Source {
    /// Memoryless per-cycle coin (the paper's model).
    Bernoulli(BernoulliInjector),
    /// Two-state bursty source (extension workload).
    OnOff(OnOffSource),
}

impl Source {
    fn fires(&mut self, now: Cycle) -> bool {
        match self {
            Source::Bernoulli(b) => b.fires(now),
            Source::OnOff(o) => o.fires(now),
        }
    }

    fn rng_mut(&mut self) -> &mut Pcg32 {
        match self {
            Source::Bernoulli(b) => b.rng_mut(),
            Source::OnOff(o) => o.rng_mut(),
        }
    }
}

/// One node's traffic source.
#[derive(Debug, Clone)]
pub struct NodeGenerator {
    node: u32,
    nodes: u32,
    pattern: TrafficPattern,
    source: Source,
}

impl NodeGenerator {
    /// Creates the generator for `node` of `nodes`, injecting at `rate`
    /// packets/cycle. RNG streams are derived from `seed` per node so
    /// configurations do not perturb each other.
    pub fn new(node: u32, nodes: u32, pattern: TrafficPattern, rate: f64, seed: u64) -> Self {
        assert!(node < nodes);
        Self {
            node,
            nodes,
            pattern,
            source: Source::Bernoulli(BernoulliInjector::new(
                rate,
                Pcg32::stream(seed, node as u64),
            )),
        }
    }

    /// Creates a bursty generator: same long-run `rate`, but delivered in
    /// on/off bursts of `burstiness × rate` with mean dwell `dwell` cycles.
    pub fn bursty(
        node: u32,
        nodes: u32,
        pattern: TrafficPattern,
        rate: f64,
        burstiness: f64,
        dwell: f64,
        seed: u64,
    ) -> Self {
        assert!(node < nodes);
        let source = if rate > 0.0 {
            Source::OnOff(OnOffSource::bursty(
                rate,
                burstiness,
                dwell,
                Pcg32::stream(seed, node as u64),
            ))
        } else {
            Source::Bernoulli(BernoulliInjector::new(
                0.0,
                Pcg32::stream(seed, node as u64),
            ))
        };
        Self {
            node,
            nodes,
            pattern,
            source,
        }
    }

    /// Advances one cycle; returns a request if the source fires.
    pub fn poll(&mut self, now: Cycle) -> Option<PacketRequest> {
        if !self.source.fires(now) {
            return None;
        }
        let dst = self
            .pattern
            .dest(self.node, self.nodes, self.source.rng_mut());
        Some(PacketRequest {
            src: self.node,
            dst,
        })
    }

    /// Serializes the mutable source state (RNG position, burst phase).
    /// Identity, pattern and rates are config-derived.
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        match &self.source {
            Source::Bernoulli(b) => {
                w.u8(0);
                b.save_state(w);
            }
            Source::OnOff(o) => {
                w.u8(1);
                o.save_state(w);
            }
        }
    }

    /// Overlays checkpointed source state; the stored source kind must
    /// match the one this generator was configured with.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        let tag = r.u8()?;
        match (&mut self.source, tag) {
            (Source::Bernoulli(b), 0) => b.load_state(r),
            (Source::OnOff(o), 1) => o.load_state(r),
            (_, 0 | 1) => Err(desim::snap::SnapError::Mismatch(
                "generator source kind differs from snapshot".to_string(),
            )),
            (_, b) => Err(desim::snap::SnapError::Format(format!(
                "bad source tag {b:#x}"
            ))),
        }
    }
}

/// Builds one generator per node with de-correlated streams.
pub fn build_generators(
    nodes: u32,
    pattern: &TrafficPattern,
    rate: f64,
    seed: u64,
) -> Vec<NodeGenerator> {
    (0..nodes)
        .map(|n| NodeGenerator::new(n, nodes, pattern.clone(), rate, seed))
        .collect()
}

/// Builds one bursty generator per node with de-correlated streams.
pub fn build_bursty_generators(
    nodes: u32,
    pattern: &TrafficPattern,
    rate: f64,
    burstiness: f64,
    dwell: f64,
    seed: u64,
) -> Vec<NodeGenerator> {
    (0..nodes)
        .map(|n| NodeGenerator::bursty(n, nodes, pattern.clone(), rate, burstiness, dwell, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_generator_hits_long_run_rate() {
        let mut g = NodeGenerator::bursty(0, 64, TrafficPattern::Uniform, 0.02, 4.0, 500.0, 3);
        let hits = (0..400_000).filter(|&t| g.poll(t).is_some()).count();
        let rate = hits as f64 / 400_000.0;
        assert!((rate - 0.02).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn bursty_zero_rate_is_silent() {
        let mut g = NodeGenerator::bursty(0, 8, TrafficPattern::Uniform, 0.0, 4.0, 100.0, 3);
        assert!((0..1000).all(|t| g.poll(t).is_none()));
    }

    #[test]
    fn bursty_fleet_builder() {
        let gens = build_bursty_generators(8, &TrafficPattern::Uniform, 0.1, 2.0, 100.0, 1);
        assert_eq!(gens.len(), 8);
    }

    #[test]
    fn generator_respects_pattern() {
        let mut g = NodeGenerator::new(3, 64, TrafficPattern::Complement, 1.0, 42);
        let req = g.poll(0).expect("rate 1.0 always fires");
        assert_eq!(req.src, 3);
        assert_eq!(req.dst, 60);
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut g = NodeGenerator::new(0, 64, TrafficPattern::Uniform, 0.0, 42);
        assert!((0..100).all(|t| g.poll(t).is_none()));
    }

    #[test]
    fn rate_close_to_nominal() {
        let mut g = NodeGenerator::new(0, 64, TrafficPattern::Uniform, 0.02, 42);
        let hits = (0..100_000).filter(|&t| g.poll(t).is_some()).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.02).abs() < 0.003, "rate {rate}");
    }

    #[test]
    fn fleet_is_per_node_deterministic() {
        let a = {
            let mut gens = build_generators(8, &TrafficPattern::Uniform, 0.5, 7);
            let mut log = Vec::new();
            for t in 0..50 {
                for g in &mut gens {
                    if let Some(r) = g.poll(t) {
                        log.push((t, r.src, r.dst));
                    }
                }
            }
            log
        };
        let b = {
            let mut gens = build_generators(8, &TrafficPattern::Uniform, 0.5, 7);
            let mut log = Vec::new();
            for t in 0..50 {
                for g in &mut gens {
                    if let Some(r) = g.poll(t) {
                        log.push((t, r.src, r.dst));
                    }
                }
            }
            log
        };
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn uniform_destinations_exclude_self() {
        let mut g = NodeGenerator::new(5, 16, TrafficPattern::Uniform, 1.0, 1);
        for t in 0..500 {
            let r = g.poll(t).unwrap();
            assert_ne!(r.dst, 5);
            assert!(r.dst < 16);
        }
    }
}
