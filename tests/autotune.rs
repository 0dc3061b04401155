//! Deterministic pins for the offline tuning sweep (`erapid-tune`,
//! DESIGN.md §15).
//!
//! A real mini-sweep — the `autotune --smoke` grid plus the paper-constant
//! baseline, run through the traced engine on the small P-B system under
//! the Zipf-hotspot scenario — is joined into [`SweepOutcome`]s exactly the
//! way the `autotune` bench bin does it. The test then pins the *shape* of
//! the analysis: the Pareto front is non-empty, sorted by ascending power
//! and pairwise non-dominated, and [`choose`] lands on the pinned operating
//! point. Because every input run is byte-deterministic (golden_engine.rs),
//! any drift here is an intentional change to the sweep analysis itself —
//! reprint with `--ignored regen_autotune --nocapture`.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::runner::RunPoint;
use erapid_suite::erapid_telemetry::TraceConfig;
use erapid_suite::erapid_tune::{choose, pareto_front, OperatingPoint, SweepOutcome, TuneGrid};
use erapid_suite::erapid_workloads::ScenarioSpec;
use erapid_suite::reconfig::lockstep::LockStepSchedule;
use erapid_suite::traffic::pattern::TrafficPattern;

/// Two measured windows and a drain cap: long enough for several DPM
/// windows so the joined `dpm_retunes` column is non-trivial.
fn sweep_plan() -> PhasePlan {
    PhasePlan::new(2000, 4000).with_max_cycles(24_000)
}

/// One sweep leg, configured the way `autotune` configures a [`RunPoint`]:
/// scenario generator on, the point's thresholds as the DPM override, its
/// `B_max` as the allocator threshold, its `R_w` as the Lock-Step window.
fn sweep_once(op: OperatingPoint) -> SweepOutcome {
    let mut cfg = SystemConfig::small(NetworkMode::PB);
    cfg.scenario = Some(ScenarioSpec::incast());
    cfg.trace = TraceConfig::with_capacity(1024);
    cfg.dpm_override = Some(op.dpm_policy());
    cfg.alloc.b_max = op.b_max_milli as f64 / 1000.0;
    cfg.schedule = LockStepSchedule::new(op.r_w);
    let out = RunPoint::generate(cfg, TrafficPattern::Uniform, 0.6, sweep_plan()).run();
    let (r, trace) = (out.result, out.trace);
    SweepOutcome::join(
        op,
        r.injected,
        r.delivered,
        r.power_mw,
        r.latency,
        r.latency_p95,
        &trace.counter_names,
        &trace.windows,
    )
    .expect("traced scenario run joins cleanly")
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

/// Pinned from a regen run: the chosen operating point and the Pareto
/// front's point labels, in ascending-power order. Under incast the
/// `B_max`=0.3 points win the raw power × p95 objective but starve
/// delivery (52.6% vs 55.7%); the delivery guard throws them out and
/// [`choose`] lands on the `B_max`=0.5 point instead — so the chosen
/// point legitimately sits *off* the unguarded front here.
const CHOSEN_PIN: &str = "l750-900 b500 rw2000";
const FRONT_PIN: &[&str] = &["l700-900 b300 rw2000"];

/// Prints the pins above. Run manually after an intentional sweep or
/// engine change: `cargo test --test autotune -- --ignored regen_autotune
/// --nocapture`.
#[test]
#[ignore = "pin regeneration: run manually with --ignored --nocapture"]
fn regen_autotune() {
    let outcomes: Vec<SweepOutcome> = sweep_points().into_iter().map(sweep_once).collect();
    for o in &outcomes {
        println!(
            "    {}: delivered {}/{}, power {:.3} mW, p95 {:.1}, objective {:.1}, retunes {}, crossings {}",
            o.point.label(),
            o.delivered,
            o.injected,
            o.power_mw,
            o.latency_p95,
            o.objective(),
            o.retunes,
            o.buffer_crossings,
        );
    }
    let front = pareto_front(&outcomes);
    println!(
        "    front: {:?}",
        front.iter().map(|o| o.point.label()).collect::<Vec<_>>()
    );
    println!(
        "    chosen: {}",
        choose(&outcomes)
            .expect("sweep has a viable point")
            .point
            .label()
    );
}

/// The sweep's Pareto front is well-formed and the chosen point is pinned.
#[test]
fn mini_sweep_front_shape_and_chosen_point_are_pinned() {
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

    let front = pareto_front(&outcomes);
    assert!(!front.is_empty(), "Pareto front must be non-empty");
    for pair in front.windows(2) {
        assert!(
            pair[0].power_mw <= pair[1].power_mw,
            "front not sorted by ascending power: {} then {}",
            pair[0].point.label(),
            pair[1].point.label()
        );
    }
    for a in &front {
        for b in &front {
            if a.point != b.point {
                let dominates = a.power_mw <= b.power_mw
                    && a.latency_p95 <= b.latency_p95
                    && (a.power_mw < b.power_mw || a.latency_p95 < b.latency_p95);
                assert!(
                    !dominates,
                    "front member {} dominates front member {}",
                    a.point.label(),
                    b.point.label()
                );
            }
        }
    }
    for f in &front {
        assert!(
            outcomes.iter().any(|o| o.point == f.point),
            "front member {} not among swept outcomes",
            f.point.label()
        );
    }

    let labels: Vec<String> = front.iter().map(|o| o.point.label()).collect();
    assert_eq!(labels, FRONT_PIN, "Pareto front drifted");

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
