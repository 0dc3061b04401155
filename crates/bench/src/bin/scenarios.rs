//! Policy survival under production-shaped workloads.
//!
//! The paper evaluates E-RAPID on stationary synthetic patterns; this
//! matrix asks what DPM/DBR do under the traffic shapes a deployment
//! actually faces — the four `erapid-workloads` scenarios (Zipf hotspot,
//! diurnal wave, incast/outcast storm, phased all-to-all collective), each
//! run in all four network modes on the paper's 64-node system.
//!
//! Reported per (scenario, mode): whole-run delivered fraction, mean and
//! p95 latency, power, and the per-window reconfiguration activity
//! (`dpm_retunes`, `dbr_grants`, `buffer_crossings`) joined from the
//! telemetry export. Results land in `<results>/SCENARIO_<git-sha>.json`, including
//! the two worst-offender scenarios by P-B delivered fraction — the
//! `resilience` bin layers its fault matrix onto those.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin scenarios
//! ERAPID_QUICK=1 cargo run --release -p erapid-bench --bin scenarios
//! ERAPID_SCENARIO=incast cargo run --release -p erapid-bench --bin scenarios
//! cargo run --release -p erapid-bench --bin scenarios -- --smoke
//! ```
//!
//! Extra knobs (on top of the shared harness set):
//! * `ERAPID_SCENARIO=<name>` — run only that scenario
//!   (hotspot/diurnal/incast/collective).
//! * `ERAPID_SCENARIO_SEED=<n>` — override the config seed for scenario
//!   streams.
//! * `--smoke` — CI gate: one small P-B point per scenario; asserts
//!   nonzero delivery and sequential == fanned-out results, exits
//!   nonzero on any mismatch.

use erapid_bench::{git_sha, rank_worst_offenders, scenario_suite, BenchConfig, Json};
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::runner::RunPoint;
use erapid_telemetry::{counter_column, TraceConfig};
use erapid_workloads::ScenarioSpec;
use netstats::table::Table;
use std::num::NonZeroUsize;
use traffic::pattern::TrafficPattern;

const LOAD: f64 = 0.6;

fn seed_override() -> Option<u64> {
    std::env::var("ERAPID_SCENARIO_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
}

fn point(bench: &BenchConfig, spec: &ScenarioSpec, mode: NetworkMode, small: bool) -> RunPoint {
    let mut cfg = if small {
        SystemConfig::small(mode)
    } else {
        SystemConfig::paper64(mode)
    };
    cfg.scenario = Some(spec.clone());
    cfg.trace = TraceConfig::with_capacity(1024);
    if let Some(seed) = seed_override() {
        cfg.seed = seed;
    }
    let plan = bench.plan(cfg.schedule.window);
    // The pattern is inert under a scenario (the engine preempts the
    // generators); Uniform keeps construction cheap.
    RunPoint::generate(cfg, TrafficPattern::Uniform, LOAD, plan)
}

/// `--smoke`: the CI gate. One small P-B point per scenario, run on the
/// calling thread and fanned out across the point pool — delivery must be
/// nonzero and the two byte-identical.
fn smoke(bench: &BenchConfig) -> ! {
    let specs = scenario_suite("ERAPID_SCENARIO");
    let points: Vec<RunPoint> = specs
        .iter()
        .map(|s| point(bench, s, NetworkMode::PB, true))
        .collect();
    let fan_out = BenchConfig {
        threads: NonZeroUsize::new(2).unwrap(),
        ..bench.clone()
    };
    let fanned = fan_out.run(points.clone());
    let mut failures = 0;
    for (spec, (p, fan)) in specs.iter().zip(points.into_iter().zip(fanned)) {
        let (seq_r, fan_r) = (p.run().result, fan.result);
        let before = failures;
        let mut fail = |msg: &str| {
            eprintln!("FAIL [{}]: {msg}", spec.name());
            failures += 1;
        };
        if seq_r.delivered == 0 {
            fail("delivered no packets");
        }
        if seq_r != fan_r {
            fail("sequential != fanned-out result");
        }
        if failures == before {
            println!(
                "ok [{}]: delivered {}/{} injected, seq == fanned",
                spec.name(),
                seq_r.delivered,
                seq_r.injected
            );
        }
    }
    if failures > 0 {
        eprintln!("scenarios --smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("scenarios --smoke: all {} scenarios pass", specs.len());
    std::process::exit(0);
}

/// Per-window join of one counter, with a compact (total, peak) digest.
fn window_digest(
    names: &[String],
    windows: &[erapid_telemetry::WindowSnapshot],
    counter: &str,
) -> (Vec<u64>, u64, u64) {
    let col = counter_column(names, windows, counter).unwrap_or_default();
    let total = col.iter().sum();
    let peak = col.iter().copied().max().unwrap_or(0);
    (col, total, peak)
}

fn main() {
    let bench = BenchConfig::from_env();
    if std::env::args().skip(1).any(|a| a == "--smoke") {
        smoke(&bench);
    }
    let sha = git_sha();
    let specs = scenario_suite("ERAPID_SCENARIO");
    let modes = NetworkMode::all();
    println!(
        "=== scenario matrix @ {sha}: paper64, load {LOAD}, {} scenarios x {} modes on {} threads ===\n",
        specs.len(),
        modes.len(),
        bench.threads
    );

    let points: Vec<RunPoint> = specs
        .iter()
        .flat_map(|s| modes.iter().map(move |&m| (s, m)))
        .map(|(s, m)| point(&bench, s, m, false))
        .collect();
    let results = bench.run(points);

    let mut scenario_json: Vec<Json> = Vec::new();
    let mut pb_survival: Vec<(f64, &'static str)> = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let rows = &results[si * modes.len()..(si + 1) * modes.len()];
        let mut t = Table::new(vec![
            "mode",
            "delivered",
            "thr (pkt/n/c)",
            "latency",
            "p95",
            "power (mW)",
            "grants",
            "retunes",
            "peak bufx/win",
        ])
        .with_title(format!("[{}] {:?}", spec.name(), spec.kind));
        let mut mode_json: Vec<Json> = Vec::new();
        for (mi, run) in rows.iter().enumerate() {
            let (r, trace) = (&run.result, &run.trace);
            let mode = modes[mi];
            let (retunes_w, _, _) =
                window_digest(&trace.counter_names, &trace.windows, "dpm_retunes");
            let (grants_w, _, _) =
                window_digest(&trace.counter_names, &trace.windows, "dbr_grants");
            let (bufx_w, bufx_total, bufx_peak) =
                window_digest(&trace.counter_names, &trace.windows, "buffer_crossings");
            if mode == NetworkMode::PB {
                pb_survival.push((r.delivered_fraction(), spec.name()));
            }
            t.row(vec![
                mode.name().to_string(),
                format!("{:.1}%", 100.0 * r.delivered_fraction()),
                format!("{:.4}", r.throughput),
                format!("{:.0}", r.latency),
                format!("{:.0}", r.latency_p95),
                format!("{:.1}", r.power_mw),
                format!("{}", r.grants),
                format!("{}", r.retunes),
                format!("{bufx_peak}"),
            ]);
            let windows = vec![
                ("dpm_retunes", Json::u64s(&retunes_w)),
                ("dbr_grants", Json::u64s(&grants_w)),
                ("buffer_crossings", Json::u64s(&bufx_w)),
            ];
            mode_json.push(Json::Obj(vec![
                ("mode", Json::str(mode.name())),
                ("delivered_fraction", Json::F64(r.delivered_fraction())),
                ("injected", Json::U64(r.injected)),
                ("delivered", Json::U64(r.delivered)),
                ("throughput", Json::F64(r.throughput)),
                ("latency", Json::F64(r.latency)),
                ("latency_p95", Json::F64(r.latency_p95)),
                ("power_mw", Json::F64(r.power_mw)),
                ("grants", Json::U64(r.grants)),
                ("retunes", Json::U64(r.retunes)),
                ("buffer_crossings_total", Json::U64(bufx_total)),
                ("windows", Json::Obj(windows)),
            ]));
        }
        println!("{}", t.render());
        scenario_json.push(Json::Obj(vec![
            ("name", Json::str(spec.name())),
            ("spec", Json::Str(format!("{:?}", spec.kind))),
            ("modes", Json::Arr(mode_json)),
        ]));
    }

    // The two scenarios P-B survives worst seed the resilience matrix's
    // hostile-traffic axis (faults x worst workloads).
    let worst = rank_worst_offenders(&pb_survival, 2);
    if !worst.is_empty() {
        println!(
            "worst P-B survival: {} — the resilience bin picks these up as its hostile workloads",
            worst.join(", ")
        );
    }

    let seed = seed_override().unwrap_or_else(|| SystemConfig::paper64(NetworkMode::PB).seed);
    let workload = vec![
        ("system", Json::str("paper64")),
        ("load", Json::F64(LOAD)),
        ("seed", Json::U64(seed)),
    ];
    let report = vec![
        ("workload", Json::Obj(workload)),
        (
            "worst_offenders",
            Json::Arr(worst.into_iter().map(Json::str).collect()),
        ),
        ("scenarios", Json::Arr(scenario_json)),
    ];
    bench.write_report("SCENARIO", &sha, report);
}
