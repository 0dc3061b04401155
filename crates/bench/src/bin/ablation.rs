//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. **R_w sensitivity** — the paper asserts 2000 cycles is optimal
//!    ("if R_w is too small, the bit rates will be tuned too often ... if
//!    R_w is too large, the bit rates cannot scale to accommodate large
//!    fluctuations"); regenerate the evidence.
//! 2. **Power-level count** — the conclusion's future work: "more power
//!    levels and corresponding bit rates can further improve the
//!    performance".
//! 3. **Limited reconfigurability** — the conclusion's cost-reduction idea:
//!    cap the wavelengths re-assignable per window.
//! 4. **Transition-penalty model** — the conservative 65-cycle disable vs
//!    the detailed 12-cycle CDR-only model.
//!
//! Each table's points are independent runs, so they fan out over the
//! worker pool (`ERAPID_THREADS`).
//!
//! ```text
//! cargo run --release -p erapid-bench --bin ablation
//! ```

use erapid_bench::BenchConfig;
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::default_plan;
use erapid_core::runner::RunPoint;
use netstats::table::Table;
use photonics::bitrate::RateLadder;
use photonics::power::LinkPowerModel;
use powermgmt::transition::TransitionModel;
use traffic::pattern::TrafficPattern;

fn fmt_run(r: &erapid_core::experiment::RunResult) -> Vec<String> {
    vec![
        format!("{:.4}", r.throughput),
        format!("{:.1}", r.latency),
        format!("{:.1}", r.power_mw),
        format!("{}", r.retunes),
        format!("{}", r.grants),
    ]
}

/// Runs one ablation table: labelled configurations, all at one (pattern,
/// load), executed in parallel, printed in input order.
fn table(
    bench: &BenchConfig,
    mut t: Table,
    rows: Vec<(String, SystemConfig)>,
    pattern: TrafficPattern,
    load: f64,
) {
    let labels: Vec<String> = rows.iter().map(|(l, _)| l.clone()).collect();
    let points: Vec<RunPoint> = rows
        .into_iter()
        .map(|(_, cfg)| {
            let plan = default_plan(cfg.schedule.window);
            RunPoint::generate(cfg, pattern.clone(), load, plan)
        })
        .collect();
    for (label, out) in labels.into_iter().zip(bench.run(points)) {
        let mut row = vec![label];
        row.extend(fmt_run(&out.result));
        t.row(row);
    }
    println!("{}", t.render());
}

fn main() {
    let bench = BenchConfig::from_env();
    let load = 0.5;

    // 1. R_w sensitivity (P-B, complement: both control planes exercised).
    table(
        &bench,
        Table::new(vec!["R_w", "thr", "lat", "power", "retunes", "grants"]).with_title(format!(
            "Ablation 1: reconfiguration window (P-B, complement, load {load})"
        )),
        [500u64, 1000, 2000, 4000, 8000]
            .iter()
            .map(|&window| {
                let mut cfg = SystemConfig::paper64(NetworkMode::PB);
                cfg.schedule = reconfig::lockstep::LockStepSchedule::new(window);
                (format!("{window}"), cfg)
            })
            .collect(),
        TrafficPattern::Complement,
        load,
    );

    // 2. Power-level count (P-NB, uniform at a mid load where DPM matters).
    table(
        &bench,
        Table::new(vec!["levels", "thr", "lat", "power", "retunes", "grants"]).with_title(format!(
            "Ablation 2: number of power levels (P-NB, uniform, load {load})"
        )),
        [2usize, 3, 4, 6]
            .iter()
            .map(|&levels| {
                let mut cfg = SystemConfig::paper64(NetworkMode::PNb);
                let ladder = RateLadder::interpolated(levels);
                cfg.power_model = LinkPowerModel::analytic(ladder.clone());
                cfg.ladder = ladder;
                (format!("{levels}"), cfg)
            })
            .collect(),
        TrafficPattern::Uniform,
        load,
    );

    // 3. Limited reconfigurability (NP-B, complement).
    table(
        &bench,
        Table::new(vec![
            "max grants/window",
            "thr",
            "lat",
            "power",
            "retunes",
            "grants",
        ])
        .with_title(format!(
            "Ablation 3: limited reconfigurability (NP-B, complement, load {load})"
        )),
        [0usize, 1, 2, 4, usize::MAX]
            .iter()
            .map(|&limit| {
                let mut cfg = SystemConfig::paper64(NetworkMode::NpB);
                cfg.alloc = cfg.alloc.with_limit(limit);
                let label = if limit == usize::MAX {
                    "unlimited".to_string()
                } else {
                    format!("{limit}")
                };
                (label, cfg)
            })
            .collect(),
        TrafficPattern::Complement,
        load,
    );

    // 5. R_w under bursty traffic — where the window actually matters:
    //    "the reconfiguration algorithm [must be] responsive to transient
    //    traffic changes" (§3). Bursty on/off sources with ~4000-cycle
    //    dwell; a window much larger than the burst misses it entirely.
    table(
        &bench,
        Table::new(vec!["R_w", "thr", "lat", "power", "retunes", "grants"]).with_title(format!(
            "Ablation 5: R_w under bursty complement traffic (P-B, load {load}, burstiness 4x, dwell 4000)"
        )),
        [500u64, 1000, 2000, 4000, 8000]
            .iter()
            .map(|&window| {
                let mut cfg = SystemConfig::paper64(NetworkMode::PB);
                cfg.schedule = reconfig::lockstep::LockStepSchedule::new(window);
                cfg.burst = Some(erapid_core::config::BurstSpec {
                    burstiness: 4.0,
                    dwell: 4000.0,
                });
                (format!("{window}"), cfg)
            })
            .collect(),
        TrafficPattern::Complement,
        load,
    );

    // 4. Transition-penalty model (P-B, uniform).
    table(
        &bench,
        Table::new(vec!["model", "thr", "lat", "power", "retunes", "grants"]).with_title(format!(
            "Ablation 4: transition penalty (P-B, uniform, load {load})"
        )),
        [
            ("conservative 65cy", TransitionModel::paper()),
            ("CDR-only 12cy", TransitionModel::detailed()),
        ]
        .into_iter()
        .map(|(name, model)| {
            let mut cfg = SystemConfig::paper64(NetworkMode::PB);
            cfg.transition = model;
            (name.to_string(), cfg)
        })
        .collect(),
        TrafficPattern::Uniform,
        load,
    );

    // 7. DBR classification threshold B_max: the paper asserts "setting
    //    the B_max to 0.3 is fairly reasonable for most traffic scenarios"
    //    (§3.2) — sweep it on a pattern with *partial* concentration
    //    (butterfly) where the classification boundary actually matters.
    table(
        &bench,
        Table::new(vec!["B_max", "thr", "lat", "power", "retunes", "grants"]).with_title(format!(
            "Ablation 7: DBR over-utilization threshold (NP-B, butterfly, load {load})"
        )),
        [0.05, 0.1, 0.3, 0.5, 0.8]
            .iter()
            .map(|&b_max| {
                let mut cfg = SystemConfig::paper64(NetworkMode::NpB);
                cfg.alloc = reconfig::alloc::AllocPolicy {
                    b_min: 0.0,
                    b_max,
                    max_reassignments: usize::MAX,
                };
                (format!("{b_max}"), cfg)
            })
            .collect(),
        TrafficPattern::Butterfly,
        load,
    );

    // 6. Idle-laser power fraction: the one free parameter of the power
    //    accounting (DESIGN.md §5). The paper's complement observation
    //    (NP-NB ≡ P-NB power) only holds when idle lasers are nearly free.
    let fracs = [0.0, 0.05, 0.15, 0.30];
    let points: Vec<RunPoint> = fracs
        .iter()
        .flat_map(|&frac| {
            [NetworkMode::NpNb, NetworkMode::PNb]
                .into_iter()
                .map(move |mode| {
                    let mut cfg = SystemConfig::paper64(mode);
                    cfg.power_model =
                        photonics::power::LinkPowerModel::paper_table().with_idle_fraction(frac);
                    let plan = default_plan(cfg.schedule.window);
                    RunPoint::generate(cfg, TrafficPattern::Complement, load, plan)
                })
        })
        .collect();
    let results = bench.run(points);
    let mut t = Table::new(vec![
        "idle fraction",
        "NP-NB power (complement)",
        "P-NB power",
        "P-NB/NP-NB",
    ])
    .with_title(format!(
        "Ablation 6: idle-laser power fraction (complement, load {load})"
    ));
    for (i, &frac) in fracs.iter().enumerate() {
        let base = results[2 * i].result.power_mw;
        let pnb = results[2 * i + 1].result.power_mw;
        t.row(vec![
            format!("{frac:.2}"),
            format!("{base:.1}"),
            format!("{pnb:.1}"),
            format!("{:.2}", pnb / base),
        ]);
    }
    println!("{}", t.render());
    println!("At fraction → 0 the two configurations converge (the paper's");
    println!("observation); larger static draws make DPM matter even for");
    println!("idle links, separating the curves.");
}
