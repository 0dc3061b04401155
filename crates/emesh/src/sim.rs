//! Measurement harness for the mesh baseline, mirroring
//! `erapid_core::experiment` so the comparison bench reads identically.

use crate::network::MeshNetwork;
use crate::power::{MeshPowerMeter, RouterEnergy};
use crate::topology::Mesh2D;
use desim::phase::{Phase, PhasePlan, PhaseTracker};
use desim::Cycle;
use netstats::meter::{LatencyMeter, ThroughputMeter};
use router::flit::{NodeId, PacketId};
use router::packet::QueuedPacket;
use router::{BUF_DEPTH, PACKET_FLITS, VCS};
use traffic::generator::build_generators;
use traffic::pattern::TrafficPattern;

/// Mesh baseline configuration. The packet size and the per-VC router
/// geometry are E-RAPID's own ([`router::PACKET_FLITS`], [`router::VCS`],
/// [`router::BUF_DEPTH`]), so the two networks differ only in topology.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Topology.
    pub mesh: Mesh2D,
    /// RNG seed.
    pub seed: u64,
}

impl MeshConfig {
    /// An 8×8 mesh comparable to the paper's 64-node E-RAPID.
    pub fn paper64() -> Self {
        Self {
            mesh: Mesh2D::square(64),
            seed: 0xE4A9_1D07,
        }
    }

    /// Injection capacity bound of the mesh NI (packets/node/cycle).
    pub fn electrical_bound(&self) -> f64 {
        1.0 / PACKET_FLITS as f64
    }
}

/// One mesh run's headline numbers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MeshRunResult {
    /// Offered load in packets/node/cycle.
    pub offered: f64,
    /// Accepted throughput in packets/node/cycle.
    pub throughput: f64,
    /// Mean latency, cycles.
    pub latency: f64,
    /// Labelled packets left in flight at the cap.
    pub undrained: u64,
    /// Average electrical power over the measurement interval, mW.
    pub power_mw: f64,
    /// Final cycle.
    pub cycles: Cycle,
}

/// Runs the mesh under a pattern at an *absolute* injection rate
/// (packets/node/cycle) — callers pass the same rate they give E-RAPID so
/// the two networks see identical offered traffic.
pub fn run_mesh(
    cfg: MeshConfig,
    pattern: TrafficPattern,
    rate: f64,
    plan: PhasePlan,
) -> MeshRunResult {
    let nodes = cfg.mesh.nodes();
    let mut net = MeshNetwork::new(cfg.mesh, VCS, BUF_DEPTH);
    let mut gens = build_generators(nodes, &pattern, rate, cfg.seed);
    let mut tracker = PhaseTracker::new();
    let mut throughput = ThroughputMeter::new(nodes as usize);
    throughput.start(plan.measure_start());
    let mut latency = LatencyMeter::standard();
    let mut power = MeshPowerMeter::new(RouterEnergy::typical_100nm(), nodes);
    let mut next_id = 0u64;
    let mut now: Cycle = 0;
    while now < plan.max_cycles && !tracker.complete(&plan, now) {
        let labelled = plan.phase_at(now) == Phase::Measure;
        for g in &mut gens {
            if let Some(req) = g.poll(now) {
                let packet = QueuedPacket {
                    id: PacketId(next_id),
                    dst: NodeId(req.dst),
                    flits: PACKET_FLITS,
                    injected_at: now,
                    labelled,
                };
                next_id += 1;
                if labelled {
                    tracker.inject_labelled();
                }
                net.enqueue(req.src, packet);
            }
        }
        for d in net.step(now) {
            if now >= plan.measure_start() && now < plan.measure_end() {
                throughput.deliver();
            }
            if d.labelled {
                tracker.deliver_labelled();
                latency.record(d.injected_at, now);
            }
        }
        if now >= plan.measure_start() && now < plan.measure_end() {
            let (hops, links) = net.last_activity();
            power.record_cycle(hops, links);
        }
        now += 1;
    }
    MeshRunResult {
        offered: rate,
        throughput: throughput.throughput(plan.measure_end()),
        latency: latency.mean(),
        undrained: tracker.outstanding(),
        power_mw: power.average_mw(),
        cycles: now,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> PhasePlan {
        PhasePlan::new(1000, 2000).with_max_cycles(20_000)
    }

    #[test]
    fn low_load_uniform_delivers_cleanly() {
        let cfg = MeshConfig {
            mesh: Mesh2D::square(16),
            ..MeshConfig::paper64()
        };
        let rate = 0.005;
        let r = run_mesh(cfg, TrafficPattern::Uniform, rate, plan());
        assert_eq!(r.undrained, 0);
        assert!(
            (r.throughput - rate).abs() / rate < 0.25,
            "thr {}",
            r.throughput
        );
        assert!(r.latency > 0.0);
    }

    #[test]
    fn latency_grows_with_rate() {
        let cfg = MeshConfig {
            mesh: Mesh2D::square(16),
            ..MeshConfig::paper64()
        };
        let lo = run_mesh(cfg.clone(), TrafficPattern::Uniform, 0.002, plan());
        let hi = run_mesh(cfg, TrafficPattern::Uniform, 0.02, plan());
        assert!(hi.latency > lo.latency);
    }

    #[test]
    fn deterministic() {
        let cfg = MeshConfig {
            mesh: Mesh2D::square(16),
            ..MeshConfig::paper64()
        };
        let a = run_mesh(cfg.clone(), TrafficPattern::Uniform, 0.01, plan());
        let b = run_mesh(cfg, TrafficPattern::Uniform, 0.01, plan());
        assert_eq!(a, b);
    }

    #[test]
    fn power_tracks_load() {
        let cfg = MeshConfig {
            mesh: Mesh2D::square(16),
            ..MeshConfig::paper64()
        };
        let static_only = 16.0 * RouterEnergy::typical_100nm().static_mw;
        let quiet = run_mesh(cfg.clone(), TrafficPattern::Uniform, 0.001, plan());
        let busy = run_mesh(cfg, TrafficPattern::Uniform, 0.02, plan());
        assert!(quiet.power_mw > static_only, "dynamic power present");
        assert!(busy.power_mw > quiet.power_mw, "power grows with load");
    }

    #[test]
    fn electrical_bound_value() {
        assert!((MeshConfig::paper64().electrical_bound() - 0.125).abs() < 1e-12);
    }
}
