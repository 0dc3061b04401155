//! Fault-resilience matrix: what does each failure mode cost, and how much
//! does reconfigurability buy back?
//!
//! Four scenarios on the paper's 64-node system (complement traffic,
//! load 0.5), each run in all four network modes and compared against a
//! fault-free baseline of the same mode:
//!
//! * `rx_outage` — the hot flow's receiver (board 7, λ1) dies mid-run and
//!   is repaired two windows later. Static ownership must be restored and
//!   DBR must re-admit the wavelength.
//! * `lc_stuck` — the LC of channel (0 → 7, λ1) wedges at its current bit
//!   rate; DPM retunes are dropped until the repair event.
//! * `cdr_relock_storm` — a seed-reproducible burst of extended CDR
//!   relocks on random live channels (each darkens its channel for the
//!   relock penalty).
//! * `ls_token_loss` — board 3's LS control token vanishes from the RC
//!   ring just after consecutive bandwidth boundaries; the round watchdog
//!   must detect each loss and relaunch.
//!
//! Every scenario is a plain [`FaultPlan`] riding inside the
//! [`SystemConfig`], so all runs fan out over [`BenchConfig::run`] and are
//! byte-identical for any thread count. Results land in
//! `<results>/RESILIENCE_<git-sha>.json` next to the console tables.
//!
//! A second matrix layers the same fault plans onto *hostile traffic*: the
//! two worst-offender workload scenarios (lowest P-B delivered fraction)
//! reported by the newest `SCENARIO_<sha>.json` the `scenarios` bin left in
//! the results directory, run in
//! P-B mode against a fault-free baseline under the same workload. Without
//! that artifact the matrix falls back to the incast + collective
//! scenarios.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin resilience
//! ERAPID_QUICK=1 cargo run --release -p erapid-bench --bin resilience
//! ```

use erapid_bench::{git_sha, BenchConfig, Json};
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::faults::{FaultKind, FaultPlan};
use erapid_core::runner::RunPoint;
use erapid_workloads::ScenarioSpec;
use netstats::table::Table;
use traffic::pattern::TrafficPattern;

const LOAD: f64 = 0.5;
const STORM_SEED: u64 = 42;
const RELOCK_PENALTY: u64 = 500;

struct Scenario {
    name: &'static str,
    what: &'static str,
    faults: FaultPlan,
}

/// The four-scenario matrix, with fault times scaled to the phase plan in
/// use (`quick` shortens the run, so the outage window moves forward).
fn scenarios(window: u64, quick: bool) -> Vec<Scenario> {
    let (down, up) = if quick {
        (3 * window / 2, 5 * window / 2)
    } else {
        (4 * window, 6 * window)
    };
    // Complement traffic's hot flow out of board 0 lands on board 7; its
    // static wavelength is λ(0→7) = (0 - 7) mod 8 = 1.
    let rx = FaultPlan::new().receiver_outage(7, 1, down, up);
    let lc = FaultPlan::new()
        .at(
            down,
            FaultKind::LcStuck {
                board: 0,
                dest: 7,
                wavelength: 1,
            },
        )
        .at(
            up,
            FaultKind::LcRepair {
                board: 0,
                dest: 7,
                wavelength: 1,
            },
        );
    let storm_count = if quick { 8 } else { 32 };
    let storm = FaultPlan::relock_storm(STORM_SEED, 8, down, up, storm_count, RELOCK_PENALTY);
    // Bandwidth boundaries fall at even window multiples; strike 10 cycles
    // into each round (token mid-flight on the RC ring).
    let mut token = FaultPlan::new();
    let boundaries = if quick { 1 } else { 3 };
    for i in 0..boundaries {
        token.push(
            2 * window * (i + 1) + 10,
            FaultKind::TokenLoss { victim: 3 },
        );
    }
    vec![
        Scenario {
            name: "rx_outage",
            what: "receiver (board 7, λ1) down then repaired",
            faults: rx,
        },
        Scenario {
            name: "lc_stuck",
            what: "LC (0→7, λ1) wedged; DPM retunes dropped",
            faults: lc,
        },
        Scenario {
            name: "cdr_relock_storm",
            what: "seeded burst of extended CDR relocks",
            faults: storm,
        },
        Scenario {
            name: "ls_token_loss",
            what: "LS token lost after bandwidth boundaries",
            faults: token,
        },
    ]
}

fn point(bench: &BenchConfig, mode: NetworkMode, faults: FaultPlan) -> RunPoint {
    let mut cfg = SystemConfig::paper64(mode);
    cfg.faults = faults;
    let plan = bench.plan(cfg.schedule.window);
    RunPoint::generate(cfg, TrafficPattern::Complement, LOAD, plan)
}

/// As [`point`], but injecting a hostile workload scenario instead of the
/// complement pattern (the pattern is inert under a scenario).
fn hostile_point(bench: &BenchConfig, spec: &ScenarioSpec, faults: FaultPlan) -> RunPoint {
    let mut p = point(bench, NetworkMode::PB, faults);
    p.cfg.scenario = Some(spec.clone());
    p.pattern = TrafficPattern::Uniform;
    p
}

/// The two worst-offender workloads from the newest `SCENARIO_<sha>.json`
/// the `scenarios` bin wrote into `dir` (the results directory), falling
/// back to incast + collective when no artifact (or no recognisable name)
/// exists.
fn worst_offenders(dir: &std::path::Path) -> Vec<ScenarioSpec> {
    let newest = || {
        let is_report = |name: &str| name.starts_with("SCENARIO_") && name.ends_with(".json");
        let (_, path) = std::fs::read_dir(dir)
            .ok()?
            .flatten()
            .filter(|e| is_report(&e.file_name().to_string_lossy()))
            .filter_map(|e| Some((e.metadata().ok()?.modified().ok()?, e.path())))
            .max_by_key(|(mtime, _)| *mtime)?;
        // Minimal extraction of `"worst_offenders": ["a", "b"]` — the
        // artifact is machine-written JSON, not arbitrary input.
        let text = std::fs::read_to_string(&path).ok()?;
        let list = text.split_once("\"worst_offenders\"")?.1;
        let names = list.split_once('[')?.1.split_once(']')?.0;
        let specs: Vec<ScenarioSpec> = names
            .split(',')
            .filter_map(|s| ScenarioSpec::from_name(s.trim().trim_matches('"')))
            .collect();
        (!specs.is_empty()).then_some((path, specs))
    };
    let Some((path, specs)) = newest() else {
        return vec![ScenarioSpec::incast(), ScenarioSpec::collective()];
    };
    let names: Vec<&str> = specs.iter().map(|s| s.name()).collect();
    eprintln!(
        "hostile workloads from {}: {}",
        path.display(),
        names.join(", ")
    );
    specs
}

fn main() {
    let bench = BenchConfig::from_env();
    let sha = git_sha();
    let window = SystemConfig::paper64(NetworkMode::NpNb).schedule.window;
    let scenarios = scenarios(window, bench.quick);
    let modes = NetworkMode::all();

    println!(
        "=== resilience matrix @ {sha}: paper64, complement, load {LOAD}, {} scenarios x {} modes on {} threads ===\n",
        scenarios.len(),
        modes.len(),
        bench.threads
    );

    // One flat batch: fault-free baselines (per mode) first, then every
    // scenario x mode — maximum fan-out, deterministic order.
    let mut points: Vec<RunPoint> = Vec::new();
    for &mode in &modes {
        points.push(point(&bench, mode, FaultPlan::new()));
    }
    for s in &scenarios {
        for &mode in &modes {
            points.push(point(&bench, mode, s.faults.clone()));
        }
    }
    let results = bench.run(points);
    let (baselines, faulted) = results.split_at(modes.len());

    let mut scenario_json: Vec<Json> = Vec::new();
    for (si, s) in scenarios.iter().enumerate() {
        let rows = &faulted[si * modes.len()..(si + 1) * modes.len()];
        let mut t = Table::new(vec![
            "mode",
            "thr (pkt/n/c)",
            "baseline",
            "recovery",
            "latency",
            "undrained",
            "grants",
            "retunes",
            "ls_retries",
            "ls_aborts",
        ])
        .with_title(format!(
            "[{}] {} ({} fault events)",
            s.name,
            s.what,
            s.faults.len()
        ));
        let mut mode_json: Vec<Json> = Vec::new();
        for (mi, r) in rows.iter().map(|o| &o.result).enumerate() {
            let base = &baselines[mi].result;
            let recovery = r.throughput / base.throughput.max(1e-12);
            t.row(vec![
                modes[mi].name().to_string(),
                format!("{:.4}", r.throughput),
                format!("{:.4}", base.throughput),
                format!("{:.1}%", 100.0 * recovery),
                format!("{:.0}", r.latency),
                format!("{}", r.undrained),
                format!("{}", r.grants),
                format!("{}", r.retunes),
                format!("{}", r.ls_retries),
                format!("{}", r.ls_aborts),
            ]);
            mode_json.push(Json::Obj(vec![
                ("mode", Json::str(modes[mi].name())),
                ("throughput", Json::F64(r.throughput)),
                ("baseline_throughput", Json::F64(base.throughput)),
                ("recovery", Json::F64(recovery)),
                ("latency", Json::F64(r.latency)),
                ("undrained", Json::U64(r.undrained)),
                ("grants", Json::U64(r.grants)),
                ("retunes", Json::U64(r.retunes)),
                ("ls_retries", Json::U64(r.ls_retries)),
                ("ls_aborts", Json::U64(r.ls_aborts)),
            ]));
        }
        println!("{}", t.render());
        scenario_json.push(Json::Obj(vec![
            ("name", Json::str(s.name)),
            ("fault_events", Json::U64(s.faults.len() as u64)),
            ("modes", Json::Arr(mode_json)),
        ]));
    }

    // --- hostile-workload matrix: the same fault plans layered onto the
    // worst-offender scenarios, P-B mode, vs a fault-free baseline under
    // the identical workload. ---
    let hostile = worst_offenders(&bench.results_dir());
    let mut hpoints: Vec<RunPoint> = Vec::new();
    for w in &hostile {
        hpoints.push(hostile_point(&bench, w, FaultPlan::new()));
    }
    for s in &scenarios {
        for w in &hostile {
            hpoints.push(hostile_point(&bench, w, s.faults.clone()));
        }
    }
    let hresults = bench.run(hpoints);
    let (hbase, hfaulted) = hresults.split_at(hostile.len());
    let mut headers = vec!["fault".to_string()];
    for w in &hostile {
        headers.push(format!("{} thr", w.name()));
        headers.push(format!("{} recovery", w.name()));
        headers.push(format!("{} delivered", w.name()));
    }
    let mut ht = Table::new(headers)
        .with_title("[hostile] faults x worst-offender workloads (P-B mode)".to_string());
    let mut hostile_json: Vec<Json> = Vec::new();
    for (si, s) in scenarios.iter().enumerate() {
        let mut row = vec![s.name.to_string()];
        for (wi, w) in hostile.iter().enumerate() {
            let r = &hfaulted[si * hostile.len() + wi].result;
            let base = &hbase[wi].result;
            let recovery = r.throughput / base.throughput.max(1e-12);
            row.push(format!("{:.4}", r.throughput));
            row.push(format!("{:.1}%", 100.0 * recovery));
            row.push(format!("{:.1}%", 100.0 * r.delivered_fraction()));
            hostile_json.push(Json::Obj(vec![
                ("fault", Json::str(s.name)),
                ("workload", Json::str(w.name())),
                ("throughput", Json::F64(r.throughput)),
                ("baseline_throughput", Json::F64(base.throughput)),
                ("recovery", Json::F64(recovery)),
                ("delivered_fraction", Json::F64(r.delivered_fraction())),
                ("undrained", Json::U64(r.undrained)),
                ("grants", Json::U64(r.grants)),
                ("ls_retries", Json::U64(r.ls_retries)),
            ]));
        }
        ht.row(row);
    }
    println!("{}", ht.render());

    println!("Reading: DBR absorbs the rx outage (the orphaned flow's demand");
    println!("re-acquires bandwidth at the next bandwidth cycle, and repair");
    println!("hands the wavelength back to its static owner); a stuck LC only");
    println!("costs power-aware modes their DPM savings; the relock storm is");
    println!("transient capacity loss every mode rides out; token loss is");
    println!("recovered by the round watchdog (see ls_retries) with no aborts.");

    let workload = vec![
        ("system", Json::str("paper64")),
        ("pattern", Json::str("complement")),
        ("load", Json::F64(LOAD)),
    ];
    let report = vec![
        ("workload", Json::Obj(workload)),
        ("scenarios", Json::Arr(scenario_json)),
        ("hostile", Json::Arr(hostile_json)),
    ];
    bench.write_report("RESILIENCE", &sha, report);
}
