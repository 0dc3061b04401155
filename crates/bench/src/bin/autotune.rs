//! Telemetry-driven policy auto-tuning (DESIGN.md §15).
//!
//! Offline layer: sweeps a [`TuneGrid`] of DPM operating points
//! (`L_min`/`L_max`/`B_max`/`R_w`) per (power-aware mode, workload
//! scenario) through the traced runner, joins each run's
//! `dpm_retunes`/`dbr_grants`/`buffer_crossings` window columns and
//! latency digest into a [`SweepOutcome`], computes the power/p95-latency
//! Pareto front per workload and [`choose`]s the point minimising
//! `power_mw × latency_p95` among outcomes that kept delivery intact.
//!
//! Online layer check: each workload's chosen point then seeds a
//! [`ControllerSpec`] and the run is repeated with the windowed threshold
//! controller live, so the report shows what the adaptive policy does on
//! top of the best static point.
//!
//! Results land in `<results>/TUNE_<git-sha>.json`: per workload the paper-constant
//! baseline, the full Pareto front, the chosen point, whether it improved
//! the objective, and the controller-enabled outcome.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin autotune
//! ERAPID_QUICK=1 cargo run --release -p erapid-bench --bin autotune
//! ERAPID_TUNE=incast ERAPID_TUNE_GRID=fine cargo run --release -p erapid-bench --bin autotune
//! cargo run --release -p erapid-bench --bin autotune -- --smoke
//! ```
//!
//! Extra knobs (on top of the shared harness set):
//! * `ERAPID_TUNE=<name>` — sweep only that scenario
//!   (hotspot/diurnal/incast/collective).
//! * `ERAPID_TUNE_GRID=smoke|coarse|fine` — grid size (default `coarse`).
//! * `--smoke` — CI gate: the 2×2 smoke grid on two hostile scenarios
//!   (small P-B system); asserts that a controller-enabled leg delivers
//!   and that the chosen point strictly beats the paper-constant baseline
//!   objective on ≥1 scenario, exits nonzero otherwise.

use erapid_bench::{git_sha, scenario_suite, BenchConfig, Json};
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::RunOutput;
use erapid_core::runner::RunPoint;
use erapid_telemetry::TraceConfig;
use erapid_tune::{
    choose, improves, pareto_front, ControllerSpec, OperatingPoint, SweepOutcome, TuneGrid,
};
use erapid_workloads::ScenarioSpec;
use netstats::table::Table;
use reconfig::lockstep::LockStepSchedule;
use traffic::pattern::TrafficPattern;

const LOAD: f64 = 0.6;

/// The sweep grid, honouring `ERAPID_TUNE_GRID` (default `coarse`).
fn grid() -> (String, TuneGrid) {
    let name = std::env::var("ERAPID_TUNE_GRID").unwrap_or_else(|_| "coarse".into());
    let g = match name.trim() {
        "" | "coarse" => TuneGrid::coarse(),
        "smoke" => TuneGrid::smoke(),
        "fine" => TuneGrid::fine(),
        other => {
            eprintln!("unknown ERAPID_TUNE_GRID {other:?} (want smoke/coarse/fine)");
            std::process::exit(2);
        }
    };
    (name.trim().to_string(), g)
}

/// The paper-constant operating point the sweep must beat, quantized onto
/// the milli grid at the paper's `R_w`.
fn baseline(mode: NetworkMode) -> OperatingPoint {
    let policy = mode
        .dpm_policy()
        .expect("autotune only sweeps power-aware modes");
    OperatingPoint::from_policy(policy, 2000)
}

/// Builds the run point for one (mode, scenario, operating point): the
/// point's thresholds go in as a DPM override, its `B_max` also retargets
/// the DBR trigger so both control loops see the same threshold (exactly
/// what the online controller does), and its `R_w` replaces the schedule.
fn point(
    bench: &BenchConfig,
    spec: &ScenarioSpec,
    mode: NetworkMode,
    op: OperatingPoint,
    small: bool,
) -> RunPoint {
    let mut cfg = if small {
        SystemConfig::small(mode)
    } else {
        SystemConfig::paper64(mode)
    };
    cfg.scenario = Some(spec.clone());
    cfg.trace = TraceConfig::with_capacity(1024);
    cfg.dpm_override = Some(op.dpm_policy());
    cfg.alloc.b_max = op.b_max_milli as f64 / 1000.0;
    cfg.schedule = LockStepSchedule::new(op.r_w);
    let plan = bench.plan(cfg.schedule.window);
    // Inert under a scenario (the engine preempts the generators).
    RunPoint::generate(cfg, TrafficPattern::Uniform, LOAD, plan)
}

/// As [`point`], with the online threshold controller live, seeded at `op`.
fn controller_point(
    bench: &BenchConfig,
    spec: &ScenarioSpec,
    mode: NetworkMode,
    op: OperatingPoint,
    small: bool,
) -> RunPoint {
    let mut p = point(bench, spec, mode, op, small);
    p.cfg.tune = Some(ControllerSpec::around_milli(
        op.l_min_milli,
        op.l_max_milli,
        op.b_max_milli,
    ));
    p
}

/// Baseline-first candidate list: the paper constants, then every grid
/// point that isn't the baseline (so index 0 is always the baseline and
/// ties in [`choose`] resolve toward it).
fn candidates(mode: NetworkMode, grid_points: &[OperatingPoint]) -> Vec<OperatingPoint> {
    let base = baseline(mode);
    let mut all = vec![base];
    all.extend(grid_points.iter().copied().filter(|p| *p != base));
    all
}

/// Joins one traced run into a [`SweepOutcome`], reporting (not
/// panicking on) degenerate runs.
fn join(op: OperatingPoint, run: &RunOutput) -> Option<SweepOutcome> {
    let (r, trace) = (&run.result, &run.trace);
    match SweepOutcome::join(
        op,
        r.injected,
        r.delivered,
        r.power_mw,
        r.latency,
        r.latency_p95,
        &trace.counter_names,
        &trace.windows,
    ) {
        Ok(o) => Some(o),
        Err(e) => {
            eprintln!("  skipping {}: {e}", op.label());
            None
        }
    }
}

fn outcome_obj(o: &SweepOutcome) -> Json {
    Json::Obj(vec![
        ("point", Json::Str(o.point.label())),
        ("l_min_milli", Json::U64(o.point.l_min_milli.into())),
        ("l_max_milli", Json::U64(o.point.l_max_milli.into())),
        ("b_max_milli", Json::U64(o.point.b_max_milli.into())),
        ("r_w", Json::U64(o.point.r_w)),
        ("delivered_fraction", Json::F64(o.delivered_fraction())),
        ("power_mw", Json::F64(o.power_mw)),
        ("latency_mean", Json::F64(o.latency_mean)),
        ("latency_p95", Json::F64(o.latency_p95)),
        ("objective", Json::F64(o.objective())),
        ("retunes", Json::U64(o.retunes)),
        ("grants", Json::U64(o.grants)),
        ("buffer_crossings", Json::U64(o.buffer_crossings)),
    ])
}

/// `--smoke`: the CI gate. The 2×2 smoke grid (plus the baseline) on two
/// hostile scenarios, small P-B system, and one controller-enabled leg
/// per scenario, which must deliver. The chosen point must strictly beat
/// the paper-constant baseline objective on ≥1 scenario.
fn smoke(bench: &BenchConfig) -> ! {
    let specs = [ScenarioSpec::hotspot(), ScenarioSpec::incast()];
    let mode = NetworkMode::PB;
    let grid_points = match TuneGrid::smoke().points() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("FAIL: smoke grid did not enumerate: {e}");
            std::process::exit(1);
        }
    };
    let mut failures = 0;
    let mut improved = 0;
    for spec in &specs {
        let mut fail = |msg: String| {
            eprintln!("FAIL [{}]: {msg}", spec.name());
            failures += 1;
        };
        let mut outcomes = Vec::new();
        for op in candidates(mode, &grid_points) {
            let out = point(bench, spec, mode, op, true).run();
            if let Some(o) = join(op, &out) {
                println!(
                    "  [{}] {}: delivered {:.1}%, power {:.1} mW, p95 {:.0}, objective {:.0}",
                    spec.name(),
                    o.point.label(),
                    100.0 * o.delivered_fraction(),
                    o.power_mw,
                    o.latency_p95,
                    o.objective(),
                );
                outcomes.push(o);
            }
        }
        // Online-controller leg.
        let cp = controller_point(bench, spec, mode, baseline(mode), true);
        if cp.run().result.delivered == 0 {
            fail("controller-enabled run delivered no packets".into());
        }
        let base = outcomes.first().cloned();
        match (base, choose(&outcomes)) {
            (Some(base), Ok(chosen)) => {
                let beat = improves(chosen, &base);
                println!(
                    "ok [{}]: {} candidates; chosen {} objective {:.1} vs baseline {:.1}{}",
                    spec.name(),
                    outcomes.len(),
                    chosen.point.label(),
                    chosen.objective(),
                    base.objective(),
                    if beat { " (improved)" } else { "" },
                );
                improved += usize::from(beat);
            }
            (_, Err(e)) => fail(format!("no viable operating point: {e}")),
            (None, _) => fail("baseline outcome missing".into()),
        }
    }
    if improved == 0 {
        eprintln!("FAIL: chosen point beat the paper baseline on 0 scenarios (need >= 1)");
        failures += 1;
    }
    if failures > 0 {
        eprintln!("autotune --smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!(
        "autotune --smoke: baseline beaten on {improved}/{} scenarios",
        specs.len()
    );
    std::process::exit(0);
}

fn main() {
    let bench = BenchConfig::from_env();
    if std::env::args().skip(1).any(|a| a == "--smoke") {
        smoke(&bench);
    }
    let sha = git_sha();
    let specs = scenario_suite("ERAPID_TUNE");
    let modes = [NetworkMode::PNb, NetworkMode::PB];
    let (grid_name, g) = grid();
    let grid_points = match g.points() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("grid did not enumerate: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "=== autotune @ {sha}: paper64, load {LOAD}, {} scenarios x {} modes x {} grid points ({grid_name}) on {} threads ===\n",
        specs.len(),
        modes.len(),
        grid_points.len(),
        bench.threads
    );

    // Stage 1 — offline sweep: every (mode, scenario, candidate) run at
    // once through the prioritized pool.
    let workloads: Vec<(NetworkMode, &ScenarioSpec)> = modes
        .iter()
        .flat_map(|&m| specs.iter().map(move |s| (m, s)))
        .collect();
    let sweep_points: Vec<RunPoint> = workloads
        .iter()
        .flat_map(|&(m, s)| {
            candidates(m, &grid_points)
                .into_iter()
                .map(move |op| (m, s, op))
        })
        .map(|(m, s, op)| point(&bench, s, m, op, false))
        .collect();
    let sweep_runs = bench.run(sweep_points);

    // Join + choose per workload.
    struct Tuned<'a> {
        mode: NetworkMode,
        spec: &'a ScenarioSpec,
        outcomes: Vec<SweepOutcome>,
        chosen: Option<SweepOutcome>,
    }
    let mut tuned: Vec<Tuned> = Vec::new();
    // The candidate count varies per mode (a baseline already in the grid
    // is not duplicated), so slice with a running offset.
    let mut offset = 0;
    for &(mode, spec) in &workloads {
        let cands = candidates(mode, &grid_points);
        let runs = &sweep_runs[offset..offset + cands.len()];
        offset += cands.len();
        let outcomes: Vec<SweepOutcome> = cands
            .iter()
            .zip(runs)
            .filter_map(|(&op, run)| join(op, run))
            .collect();
        let chosen = choose(&outcomes).ok().cloned();
        if chosen.is_none() {
            eprintln!(
                "[{} {}] no viable operating point",
                mode.name(),
                spec.name()
            );
        }
        tuned.push(Tuned {
            mode,
            spec,
            outcomes,
            chosen,
        });
    }

    // Stage 2 — online check: re-run each workload with the controller
    // seeded at its chosen point.
    let ctl_points: Vec<RunPoint> = tuned
        .iter()
        .map(|t| {
            let seed = t
                .chosen
                .as_ref()
                .map(|c| c.point)
                .unwrap_or(baseline(t.mode));
            controller_point(&bench, t.spec, t.mode, seed, false)
        })
        .collect();
    let ctl_runs = bench.run(ctl_points);

    let mut improved_workloads = 0;
    let mut workload_json: Vec<Json> = Vec::new();
    for (t, ctl_run) in tuned.iter().zip(&ctl_runs) {
        let name = format!("{} {}", t.mode.name(), t.spec.name());
        let base = t.outcomes.first();
        let front = pareto_front(&t.outcomes);
        let mut tab = Table::new(vec![
            "point",
            "delivered",
            "power (mW)",
            "p95",
            "objective",
            "flags",
        ])
        .with_title(format!("[{name}] sweep ({} outcomes)", t.outcomes.len()));
        for o in &t.outcomes {
            let mut flags = Vec::new();
            if Some(&o.point) == base.map(|b| &b.point) {
                flags.push("baseline");
            }
            if front.iter().any(|f| f.point == o.point) {
                flags.push("front");
            }
            if t.chosen.as_ref().is_some_and(|c| c.point == o.point) {
                flags.push("CHOSEN");
            }
            tab.row(vec![
                o.point.label(),
                format!("{:.1}%", 100.0 * o.delivered_fraction()),
                format!("{:.1}", o.power_mw),
                format!("{:.0}", o.latency_p95),
                format!("{:.0}", o.objective()),
                flags.join(" "),
            ]);
        }
        println!("{}", tab.render());

        let ctl_seed = t
            .chosen
            .as_ref()
            .map(|c| c.point)
            .unwrap_or(baseline(t.mode));
        let ctl_outcome = join(ctl_seed, ctl_run);
        let improved = match (base, &t.chosen) {
            (Some(b), Some(c)) => improves(c, b),
            _ => false,
        };
        improved_workloads += usize::from(improved);
        if let (Some(b), Some(c)) = (base, &t.chosen) {
            println!(
                "  chosen {} objective {:.1} vs baseline {:.1}{}  (controller: {})\n",
                c.point.label(),
                c.objective(),
                b.objective(),
                if improved { " — improved" } else { "" },
                ctl_outcome
                    .as_ref()
                    .map(|o| format!("power {:.1} mW, p95 {:.0}", o.power_mw, o.latency_p95))
                    .unwrap_or_else(|| "degenerate run".into()),
            );
        }
        let outcome_or_null = |o: Option<&SweepOutcome>| o.map_or(Json::Null, outcome_obj);
        workload_json.push(Json::Obj(vec![
            ("mode", Json::str(t.mode.name())),
            ("scenario", Json::str(t.spec.name())),
            ("improved", Json::Bool(improved)),
            ("baseline", outcome_or_null(base)),
            ("chosen", outcome_or_null(t.chosen.as_ref())),
            ("controller", outcome_or_null(ctl_outcome.as_ref())),
            ("front", Json::Arr(front.iter().map(outcome_obj).collect())),
        ]));
    }

    println!(
        "chosen point improves power x p95 objective on {improved_workloads}/{} workloads",
        tuned.len()
    );
    let workload = vec![("system", Json::str("paper64")), ("load", Json::F64(LOAD))];
    let report = vec![
        ("grid", Json::Str(grid_name)),
        ("workload", Json::Obj(workload)),
        ("improved_workloads", Json::U64(improved_workloads as u64)),
        ("total_workloads", Json::U64(tuned.len() as u64)),
        ("workloads", Json::Arr(workload_json)),
    ];
    bench.write_report("TUNE", &sha, report);
}
