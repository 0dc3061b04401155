//! Deterministic pins for the offline tuning sweep (`erapid-tune`,
//! DESIGN.md §15).
//!
//! A real mini-sweep — the smoke grid plus the paper-constant baseline, run
//! on the small P-B system under the incast scenario — is joined into
//! [`SweepOutcome`]s exactly the way the bench index's `autotune`
//! experiment does it. The test then pins the analysis:
//! every outcome injected and drew power, and [`choose`] lands on the
//! pinned operating point inside the delivery guard. Because every input run is byte-deterministic (golden_engine.rs),
//! any drift here is an intentional change to the sweep analysis itself —
//! reprint with `--ignored regen_autotune --nocapture`.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::experiment::RunResult;
use erapid_suite::erapid_core::runner::RunPoint;
use erapid_suite::erapid_tune::{choose, OperatingPoint, SweepOutcome, TuneGrid};
use erapid_suite::erapid_workloads::ScenarioSpec;
use erapid_suite::reconfig::lockstep::LockStepSchedule;
use erapid_suite::traffic::pattern::TrafficPattern;

/// Two measured windows and a drain cap: long enough for several DPM
/// windows so the retune count is non-trivial.
fn sweep_plan() -> PhasePlan {
    PhasePlan::new(2000, 4000).with_max_cycles(24_000)
}

/// One sweep leg, configured the way `autotune` configures a [`RunPoint`]:
/// scenario generator on, the point's thresholds as the DPM override, its
/// `B_max` as the allocator threshold, its `R_w` as the Lock-Step window.
fn run_leg(op: OperatingPoint) -> RunResult {
    let mut cfg = SystemConfig::small(NetworkMode::PB);
    cfg.scenario = Some(ScenarioSpec::incast());
    cfg.dpm_override = Some(op.dpm_policy());
    cfg.alloc.b_max = op.b_max_milli as f64 / 1000.0;
    cfg.schedule = LockStepSchedule::new(op.r_w);
    RunPoint::generate(cfg, TrafficPattern::Uniform, 0.6, sweep_plan())
        .run()
        .result
}

fn join(op: OperatingPoint, r: &RunResult) -> SweepOutcome {
    SweepOutcome::join(
        op,
        r.injected,
        r.delivered,
        r.power_mw,
        r.latency,
        r.latency_p95,
    )
    .expect("scenario run injects")
}

fn sweep_once(op: OperatingPoint) -> SweepOutcome {
    join(op, &run_leg(op))
}

/// The swept points: paper P-B constants first, then the smoke grid.
fn sweep_points() -> Vec<OperatingPoint> {
    let baseline = OperatingPoint::from_policy(
        NetworkMode::PB.dpm_policy().expect("P-B is power-aware"),
        2000,
    );
    let mut points = vec![baseline];
    for p in TuneGrid::smoke().points().expect("smoke grid is valid") {
        if p != baseline {
            points.push(p);
        }
    }
    points
}

/// Pinned from a regen run: the chosen operating point. Under incast the
/// `B_max`=0.3 points win the raw power × p95 objective but starve
/// delivery (52.6% vs 55.7%); the delivery guard throws them out and
/// [`choose`] lands on the `B_max`=0.5 point instead.
const CHOSEN_PIN: &str = "l750-900 b500 rw2000";

/// Prints the pins above. Run manually after an intentional sweep or
/// engine change: `cargo test --test autotune -- --ignored regen_autotune
/// --nocapture`.
#[test]
#[ignore = "pin regeneration: run manually with --ignored --nocapture"]
fn regen_autotune() {
    let mut outcomes = Vec::new();
    for op in sweep_points() {
        let r = run_leg(op);
        let o = join(op, &r);
        println!(
            "    {}: delivered {}/{}, power {:.3} mW, p95 {:.1}, objective {:.1}, retunes {}, grants {}",
            o.point.label(),
            o.delivered,
            o.injected,
            o.power_mw,
            o.latency_p95,
            o.objective(),
            r.retunes,
            r.grants,
        );
        outcomes.push(o);
    }
    println!(
        "    chosen: {}",
        choose(&outcomes)
            .expect("sweep has a viable point")
            .point
            .label()
    );
}

/// The sweep's outcomes are well-formed and the chosen point is pinned.
#[test]
fn mini_sweep_chosen_point_is_pinned() {
    let outcomes: Vec<SweepOutcome> = sweep_points().into_iter().map(sweep_once).collect();
    assert!(outcomes.len() >= 5, "baseline + smoke grid");
    for o in &outcomes {
        assert!(
            o.injected > 0,
            "{}: scenario injected nothing",
            o.point.label()
        );
        assert!(
            o.power_mw.is_finite() && o.power_mw > 0.0,
            "{}: degenerate power",
            o.point.label()
        );
    }

    let chosen = choose(&outcomes).expect("sweep has a viable point");
    assert_eq!(chosen.point.label(), CHOSEN_PIN, "chosen point drifted");
    let best_fraction = outcomes
        .iter()
        .map(|o| o.delivered_fraction())
        .fold(0.0f64, f64::max);
    assert!(
        chosen.delivered_fraction() >= 0.95 * best_fraction,
        "chosen point {} violates the delivery guard ({:.3} < 0.95 × {:.3})",
        chosen.point.label(),
        chosen.delivered_fraction(),
        best_fraction
    );
}
