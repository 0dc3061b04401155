//! Metamorphic relations with exact deltas: results known without reading
//! the engine, from the paper's Table 1 and the run's plan. An oracle that
//! shares no code with the engine catches a bug the engine's own
//! invariants would restate (`Srs::check_invariants` calls `Srs::wanted`,
//! so a wrong `wanted` keeps every invariant).

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::experiment::RunOutput;
use erapid_suite::erapid_core::faults::{FaultKind, FaultPlan};
use erapid_suite::erapid_core::runner::RunPoint;
use erapid_suite::photonics::power::LinkPowerModel;
use erapid_suite::traffic::pattern::TrafficPattern;

const WARMUP: u64 = 6_000;
const MEASURE: u64 = 12_000;
const DOWN_AT: u64 = 7_000;
const REPAIR_AT: u64 = 15_000;

fn run(cfg: SystemConfig, load: f64) -> RunOutput {
    let plan = PhasePlan::new(WARMUP, MEASURE);
    RunPoint::generate(cfg, TrafficPattern::Complement, load, plan).run()
}

/// *An unused transmitter.* Under complement traffic at B = 4, board 0
/// sends only to board 3, so its transmitters toward board 1 carry no
/// packet. Taking them down over `[7000, 15000)` must leave the delivery
/// log byte-identical and cut the power by exactly one idle laser at the
/// top rate (NP-NB never retunes) over the outage's share of the
/// measurement interval `[6000, 18000)`.
#[test]
fn an_unused_transmitter_outage_changes_only_power() {
    let mut cfg = SystemConfig::small(NetworkMode::NpNb);
    cfg.packet_log = true;
    let mut faulted = cfg.clone();
    faulted.faults = FaultPlan::new()
        .at(DOWN_AT, FaultKind::TransmitterDown { board: 0, dest: 1 })
        .at(
            REPAIR_AT,
            FaultKind::TransmitterRepair { board: 0, dest: 1 },
        );
    let model = LinkPowerModel::for_ladder(&cfg.ladder);
    let outage_share = (REPAIR_AT - DOWN_AT) as f64 / MEASURE as f64;
    let want = model.idle_mw(cfg.ladder.highest()) * outage_share;
    for load in [0.3, 0.7] {
        let base = run(cfg.clone(), load);
        let down = run(faulted.clone(), load);
        assert!(
            !base.trace.packets.is_empty(),
            "load {load}: nothing delivered"
        );
        assert!(
            base.trace.packets == down.trace.packets,
            "load {load}: the outage moved a delivery"
        );
        let delta = base.result.power_mw - down.result.power_mw;
        assert!(
            (delta - want).abs() <= 1e-9 * want,
            "load {load}: power fell by {delta} mW, one idle laser over the outage is {want} mW"
        );
    }
}
