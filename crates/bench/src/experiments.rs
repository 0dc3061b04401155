//! What each [`crate::index::Experiment`] runs and prints. Every
//! simulation point comes from [`BenchConfig::point`]; every per-result
//! row from `result_row`.

use crate::index::{p64_label, Network, Point, Results};
use crate::{print_charts, print_panel, result_table, BenchConfig, Panel};
use desim::phase::PhasePlan;
use erapid_core::config::{BurstSpec, NetworkMode, SystemConfig};
use erapid_core::faults::{FaultKind, FaultPlan};
use erapid_core::runner::RunPoint;
use erapid_tune::{choose, improves, ControllerSpec, OperatingPoint, SweepOutcome, TuneGrid};
use erapid_workloads::ScenarioSpec;
use netstats::csv::Csv;
use netstats::table::Table;
use photonics::bitrate::{RateLadder, RateLevel};
use photonics::power::{analytic_breakdown, LinkPowerModel};
use photonics::rwa::StaticRwa;
use photonics::serdes::Serdes;
use photonics::transmitter::TransmitterBank;
use photonics::wavelength::{BoardId, Wavelength};
use powermgmt::policy::{DpmPolicy, ScaleDecision};
use powermgmt::transition::TransitionModel;
use reconfig::lockstep::LockStepSchedule;
use traffic::pattern::TrafficPattern;
use NetworkMode::{NpB, NpNb, PNb, PB};

fn pattern(name: &str) -> TrafficPattern {
    TrafficPattern::from_name(name).expect("the index names only real patterns")
}

fn erapid(bench: &BenchConfig, label: String, cfg: SystemConfig, pat: &str, load: f64) -> Point {
    Point {
        label,
        network: Network::Erapid,
        run: bench.point(cfg, &pattern(pat), load),
    }
}

/// The paper's 64-node system at `(pattern, mode, load)`.
fn p64(bench: &BenchConfig, pat: &str, mode: NetworkMode, load: f64) -> Point {
    let label = p64_label(pat, mode, load);
    erapid(bench, label, SystemConfig::paper64(mode), pat, load)
}

// ---- Table 1 ------------------------------------------------------------

pub fn table1(_: &BenchConfig, _: &Results) {
    let mut router = Table::new(vec!["router parameter", "value"])
        .with_title("Electrical router (SGI-Spider-like)");
    for (name, value) in [
        ("channel width", "16 bits"),
        ("clock", "400 MHz"),
        ("unidirectional bandwidth", "6.4 Gbps"),
        ("per-port bidirectional bandwidth", "12.8 Gbps"),
        ("flow control", "credit-based, 1-cycle credit delay"),
        ("pipeline", "RC / VA / SA / ST, 1 cycle each"),
        ("packet size", "64 bytes = 8 flits"),
    ] {
        router.row(vec![name, value]);
    }
    println!("{}", router.render());

    let ladder = RateLadder::paper();
    let paper_totals = LinkPowerModel::paper_table();
    let serdes = Serdes::paper();
    let mut t = Table::new(vec![
        "bit rate",
        "V_DD (V)",
        "VCSEL (mW)",
        "driver (mW)",
        "TIA (mW)",
        "CDR (mW)",
        "PD (mW)",
        "analytic total",
        "paper total",
        "energy/bit (pJ)",
        "flit cycles",
    ])
    .with_title("Optical link operating points (analytic models vs the paper's totals)");
    for (level, rate) in ladder.iter() {
        let b = analytic_breakdown(rate);
        t.row(vec![
            format!("{} Gbps", rate.gbps),
            format!("{:.2}", rate.vdd),
            format!("{:.4}", b.vcsel_mw),
            format!("{:.2}", b.driver_mw),
            format!("{:.2}", b.tia_mw),
            format!("{:.2}", b.cdr_mw),
            format!("{:.4}", b.photodetector_mw),
            format!("{:.2}", b.total_mw()),
            format!("{:.2}", paper_totals.active_mw(level)),
            format!("{:.2}", paper_totals.energy_per_bit_pj(level)),
            format!("{}", serdes.flit_cycles(rate)),
        ]);
    }
    println!("{}", t.render());
    println!("Component constants (§4.1): VCSEL slope efficiency 0.42 A/W, I_m = 16.6 mA;");
    println!("C_driver = 0.62 pF, I_ds(5G) = 27.8 mA, C_CDR = 9.26 pF; CDR re-lock 12 cycles,");
    println!("conservative link-disable 65 cycles. The simulation pins the paper's totals.\n");
}

/// The analytic link power at ladder level `level` of the paper's ladder.
pub fn analytic_mw(level: u8) -> f64 {
    analytic_breakdown(RateLadder::paper().rate(RateLevel(level))).total_mw()
}

// ---- Figures 1-2 --------------------------------------------------------

const ARCH_BOARDS: u16 = 4;

/// A `B`-row table: `corner` heads the row names (`row_prefix` + index),
/// `cols` the rest, `cell(row, col)` fills it.
fn grid(
    title: &str,
    corner: &str,
    row_prefix: &str,
    cols: Vec<String>,
    cell: &dyn Fn(u16, u16) -> String,
) {
    let mut headers = vec![corner.to_string()];
    headers.extend(cols.iter().cloned());
    let mut t = Table::new(headers).with_title(title);
    for row in 0..ARCH_BOARDS {
        let mut cells = vec![format!("{row_prefix}{row}")];
        cells.extend((0..cols.len() as u16).map(|col| cell(row, col)));
        t.row(cells);
    }
    println!("{}", t.render());
}

pub fn arch(_: &BenchConfig, _: &Results) {
    let rwa = StaticRwa::new(ARCH_BOARDS);
    let per_board = |prefix: &str| (0..ARCH_BOARDS).map(|d| format!("{prefix}{d}")).collect();
    grid(
        "Fig. 1: wavelength used from source board (row) to destination board (column)",
        "src \\ dst",
        "B",
        per_board("B"),
        &|s, d| match s == d {
            true => "–".to_string(),
            false => rwa.wavelength(BoardId(s), BoardId(d)).to_string(),
        },
    );
    let mut bank = TransmitterBank::new(BoardId(0), ARCH_BOARDS);
    bank.apply_static_rwa(&rwa);
    grid(
        "Fig. 2(b): board 0's lasers per (transmitter, output port); coupler d feeds board d",
        "transmitter",
        "λ",
        per_board("port→coupler "),
        &|w, d| match bank.is_on(Wavelength(w), BoardId(d)) {
            true => "ON".to_string(),
            false => "·".to_string(),
        },
    );
    println!(
        "{} of {} lasers on: one per remote destination. Reconfiguration flips these bits.\n",
        bank.active_lasers(),
        ARCH_BOARDS * ARCH_BOARDS
    );
    grid(
        "Incoming demux: static owner (source board) of each wavelength at each destination",
        "dest \\ λ",
        "B",
        (1..ARCH_BOARDS).map(|w| format!("λ{w}")).collect(),
        &|d, w| rwa.static_owner(BoardId(d), Wavelength(w + 1)).to_string(),
    );
}

// ---- Figure 3 -----------------------------------------------------------

/// Per-window `[window, util, buf, NP-NB, P-NB, NP-B, P-B]` link power (mW)
/// of one link under a low → mid → high (congested) → low utilization
/// profile, from the actual policies: NP-NB holds the top rate; P-NB
/// follows utilization with the power-only thresholds; NP-B borrows a
/// second wavelength while buffers congest; P-B does both.
pub fn fig3_trace() -> Vec<[f64; 7]> {
    let ladder = RateLadder::paper();
    let power = LinkPowerModel::paper_table();
    let profile = [(0.2, 0.0, 4), (0.75, 0.1, 4), (0.98, 0.6, 6), (0.1, 0.0, 4)]
        .into_iter()
        .flat_map(|(util, buf, windows)| std::iter::repeat_n((util, buf), windows));
    // (power-aware policy, bandwidth-reconfigured) per scheme, in column order.
    let schemes = [
        (None, false),
        (Some(DpmPolicy::power_only()), false),
        (None, true),
        (Some(DpmPolicy::power_bandwidth()), true),
    ];
    let mut state = [(ladder.highest(), 1u32); 4];
    let mut rows = Vec::new();
    for (w, (util, buf)) in profile.enumerate() {
        let mut row = [w as f64, util, buf, 0.0, 0.0, 0.0, 0.0];
        for (i, (policy, bandwidth)) in schemes.iter().enumerate() {
            let (level, links) = &mut state[i];
            match policy.map(|p| p.decide(util, buf)) {
                Some(ScaleDecision::Down) => *level = ladder.down(*level),
                Some(ScaleDecision::Up) => *level = ladder.up(*level),
                Some(ScaleDecision::Hold) | None => {}
            }
            // The DBR criterion: borrow while buffers congest, release
            // once they drain.
            if *bandwidth {
                if buf > 0.3 {
                    *links = 2;
                } else if buf <= 0.0 {
                    *links = 1;
                }
            }
            // Utilization spreads over the links; the rest of each idles.
            let busy = (util / *links as f64).min(1.0);
            row[3 + i] = *links as f64
                * (busy * power.active_mw(*level) + (1.0 - busy) * power.idle_mw(*level));
        }
        rows.push(row);
    }
    rows
}

pub fn fig3(bench: &BenchConfig, _: &Results) {
    let mut table = Table::new(vec![
        "window",
        "util",
        "buf",
        "NP-NB (mW)",
        "P-NB (mW)",
        "NP-B (mW)",
        "P-B (mW)",
    ])
    .with_title("Per-window link power under a low→mid→high→low load profile");
    let mut csv = Csv::new(vec![
        "window", "util", "buf", "np_nb_mw", "p_nb_mw", "np_b_mw", "p_b_mw",
    ]);
    for row in fig3_trace() {
        let mut cells = vec![
            format!("{}", row[0]),
            format!("{:.2}", row[1]),
            format!("{:.2}", row[2]),
        ];
        cells.extend(row[3..].iter().map(|p| format!("{p:.1}")));
        table.row(cells);
        csv.row_f64(&row);
    }
    println!("{}", table.render());
    bench.write_csv("fig3", &csv);
}

// ---- Figures 5-6 --------------------------------------------------------

pub fn panel_points(bench: &BenchConfig, patterns: &[&str]) -> Vec<Point> {
    let mut points = Vec::new();
    for pat in patterns {
        for mode in NetworkMode::all() {
            for load in bench.load_axis() {
                points.push(p64(bench, pat, mode, load));
            }
        }
    }
    points
}

pub fn panels(bench: &BenchConfig, results: &Results, patterns: &[&str]) {
    for pat in patterns {
        let panel = Panel::from_results(bench, pat, results);
        print_panel(bench, &panel);
        print_charts(&panel);
    }
}

// ---- Headline -----------------------------------------------------------

/// The four paper patterns × the loads where DPM has headroom.
pub fn headline_grid() -> impl Iterator<Item = (&'static str, f64)> {
    TrafficPattern::paper_suite()
        .into_iter()
        .flat_map(|(name, _)| [0.3, 0.4, 0.5].map(|load| (name, load)))
}

pub fn headline_points(bench: &BenchConfig) -> Vec<Point> {
    headline_grid()
        .flat_map(|(pat, load)| [NpB, PB].map(|mode| p64(bench, pat, mode, load)))
        .collect()
}

pub fn headline(_: &BenchConfig, results: &Results) {
    let mut t = Table::new(vec![
        "pattern",
        "load",
        "NP-B power (mW)",
        "P-B power (mW)",
        "power saving",
        "throughput loss",
    ])
    .with_title("P-B vs NP-B: \"25% - 50%\" less power for \"less than 5%\" of the throughput");
    for (pat, load) in headline_grid() {
        let (npb, pb) = (results.p64(pat, NpB, load), results.p64(pat, PB, load));
        t.row(vec![
            pat.to_string(),
            format!("{load:.1}"),
            format!("{:.1}", npb.power_mw),
            format!("{:.1}", pb.power_mw),
            format!("{:.1}%", (1.0 - pb.power_mw / npb.power_mw) * 100.0),
            format!("{:.1}%", (1.0 - pb.throughput / npb.throughput) * 100.0),
        ]);
    }
    println!("{}", t.render());
}

// ---- Row-per-result tables (ablation, breakdown, scaling) ----------------

/// A titled table with one `result_row` per point; `keys` head
/// the cells that name each row.
pub(crate) struct RowTable {
    title: String,
    keys: Vec<&'static str>,
    rows: Vec<(Vec<String>, Point)>,
}

pub(crate) fn row_points(tables: Vec<RowTable>) -> Vec<Point> {
    tables
        .into_iter()
        .flat_map(|t| t.rows.into_iter().map(|(_, point)| point))
        .collect()
}

pub(crate) fn row_tables(tables: &[RowTable], results: &Results) {
    for t in tables {
        let rows = t
            .rows
            .iter()
            .map(|(cells, point)| (cells.clone(), results.at(&point.label)));
        println!("{}", result_table(&t.title, &t.keys, rows).render());
    }
}

/// One ablation table: `rows` are `(row name, config)`, all at
/// `(pat, load)`, labelled `ablation<n>/<row name>`.
fn ablation(
    bench: &BenchConfig,
    n: u8,
    title: &str,
    key: &'static str,
    (pat, load): (&str, f64),
    rows: Vec<(String, SystemConfig)>,
) -> RowTable {
    RowTable {
        title: format!("Ablation {n}: {title} ({pat}, load {load})"),
        keys: vec![key],
        rows: rows
            .into_iter()
            .map(|(name, cfg)| {
                let label = format!("ablation{n}/{name}");
                (vec![name], erapid(bench, label, cfg, pat, load))
            })
            .collect(),
    }
}

/// The paper's 64-node system with one thing changed.
fn edited(mode: NetworkMode, edit: impl FnOnce(&mut SystemConfig)) -> SystemConfig {
    let mut cfg = SystemConfig::paper64(mode);
    edit(&mut cfg);
    cfg
}

pub(crate) fn ablation_tables(bench: &BenchConfig) -> Vec<RowTable> {
    let windows = |burst: Option<BurstSpec>| {
        [500u64, 1000, 2000, 4000, 8000]
            .map(|window| {
                let mut cfg = SystemConfig::paper64(PB);
                cfg.schedule = LockStepSchedule::new(window);
                cfg.burst = burst;
                (format!("{window}"), cfg)
            })
            .into()
    };
    let bursty = BurstSpec {
        burstiness: 4.0,
        dwell: 4000.0,
    };
    vec![
        // "If R_w is too small, the bit rates will be tuned too often ...
        // if R_w is too large, the bit rates cannot scale" (§3).
        ablation(
            bench,
            1,
            "reconfiguration window, P-B",
            "R_w",
            ("complement", 0.5),
            windows(None),
        ),
        // The conclusion's future work: "more power levels and
        // corresponding bit rates can further improve the performance".
        ablation(
            bench,
            2,
            "number of power levels, P-NB, analytic ladder",
            "levels",
            ("uniform", 0.5),
            [2usize, 3, 4, 6]
                .map(|levels| {
                    let cfg = edited(PNb, |cfg| {
                        cfg.ladder = RateLadder::interpolated(levels);
                        cfg.power_model = LinkPowerModel::analytic(cfg.ladder.clone());
                    });
                    (format!("{levels}"), cfg)
                })
                .into(),
        ),
        // The conclusion's cost-reduction idea: cap the wavelengths
        // re-assignable per window.
        ablation(
            bench,
            3,
            "limited reconfigurability, NP-B",
            "max grants/window",
            ("complement", 0.5),
            [
                (0, "0"),
                (1, "1"),
                (2, "2"),
                (4, "4"),
                (usize::MAX, "unlimited"),
            ]
            .map(|(limit, name)| {
                let cfg = edited(NpB, |cfg| cfg.alloc = cfg.alloc.with_limit(limit));
                (name.to_string(), cfg)
            })
            .into(),
        ),
        // The conservative 65-cycle link disable vs the 12-cycle CDR
        // re-lock alone.
        ablation(
            bench,
            4,
            "transition penalty, P-B",
            "model",
            ("uniform", 0.5),
            [
                ("conservative 65cy", TransitionModel::paper()),
                ("CDR-only 12cy", TransitionModel::detailed()),
            ]
            .map(|(name, model)| (name.to_string(), edited(PB, |cfg| cfg.transition = model)))
            .into(),
        ),
        // Where the window actually matters: on/off sources whose bursts
        // a window much longer than the dwell misses entirely.
        ablation(
            bench,
            5,
            "R_w under bursty traffic (burstiness 4x, dwell 4000), P-B",
            "R_w",
            ("complement", 0.5),
            windows(Some(bursty)),
        ),
        // The one free parameter of the power accounting (DESIGN.md §5):
        // the paper's complement NP-NB ≡ P-NB power only holds when idle
        // lasers are nearly free.
        ablation(
            bench,
            6,
            "idle-laser power fraction",
            "fraction/mode",
            ("complement", 0.5),
            [0.0, 0.05, 0.15, 0.30]
                .into_iter()
                .flat_map(|frac| {
                    [NpNb, PNb].map(|mode| {
                        let cfg = edited(mode, |cfg| {
                            cfg.power_model =
                                LinkPowerModel::paper_table().with_idle_fraction(frac);
                        });
                        (format!("{frac:.2}/{}", mode.name()), cfg)
                    })
                })
                .collect(),
        ),
        // "Setting the B_max to 0.3 is fairly reasonable for most traffic
        // scenarios" (§3.2) — at the onset of congestion on a pattern with
        // partial concentration, where the hot queues are only part-full
        // and the classification boundary decides who gets a wavelength.
        // (At load 0.5 they are full and the five rows are identical.)
        ablation(
            bench,
            7,
            "DBR over-utilization threshold B_max, NP-B",
            "B_max",
            ("butterfly", 0.2),
            [0.05, 0.1, 0.3, 0.5, 0.8]
                .map(|b_max| {
                    (
                        format!("{b_max}"),
                        edited(NpB, |cfg| cfg.alloc.b_max = b_max),
                    )
                })
                .into(),
        ),
    ]
}

pub(crate) fn breakdown_tables(bench: &BenchConfig) -> Vec<RowTable> {
    [("uniform", [NpNb, PB]), ("complement", [NpNb, NpB])]
        .map(|(pat, modes)| RowTable {
            title: format!("{pat}: where the cycles go on the way to the destination"),
            keys: vec!["mode", "load"],
            rows: modes
                .into_iter()
                .flat_map(|mode| [0.3, 0.6, 0.9].map(|load| (mode, load)))
                .map(|(mode, load)| {
                    let cells = vec![mode.name().to_string(), format!("{load:.1}")];
                    (cells, p64(bench, pat, mode, load))
                })
                .collect(),
        })
        .into()
}

// ---- Scaling ------------------------------------------------------------

const SCALING_BOARDS: [u16; 4] = [4, 8, 16, 32];

/// The label of the scaling study's `(boards, pattern, mode)` point.
pub fn scaling_label(boards: u16, pat: &str, mode: NetworkMode) -> String {
    format!("scaling/B{boards}/{pat}/{}", mode.name())
}

pub(crate) fn scaling_table(bench: &BenchConfig) -> RowTable {
    let mut rows = Vec::new();
    for boards in SCALING_BOARDS {
        for pat in ["complement", "uniform"] {
            for mode in [NpNb, PB] {
                let cells = vec![
                    format!("{boards}"),
                    pat.to_string(),
                    mode.name().to_string(),
                ];
                let cfg = SystemConfig::geometry(mode, boards, 8);
                let label = scaling_label(boards, pat, mode);
                rows.push((cells, erapid(bench, label, cfg, pat, 0.6)));
            }
        }
    }
    RowTable {
        title: "complement (DBR's best case) and uniform (its no-op case), NP-NB vs P-B".into(),
        keys: vec!["boards", "pattern", "mode"],
        rows,
    }
}

pub fn scaling(bench: &BenchConfig, results: &Results) {
    row_tables(&[scaling_table(bench)], results);
    let mut t = Table::new(vec![
        "boards",
        "nodes",
        "complement gain",
        "uniform gain",
        "grants",
        "dbr latency",
        "of R_w",
    ])
    .with_title("P-B ÷ NP-NB throughput, and the five-stage round against the 2000-cycle window");
    for boards in SCALING_BOARDS {
        let gain = |pat| {
            let at = |mode| results.at(&scaling_label(boards, pat, mode)).throughput;
            at(PB) / at(NpNb)
        };
        let cfg = SystemConfig::geometry(PB, boards, 8);
        let latency = cfg.timing.dbr_latency();
        t.row(vec![
            format!("{boards}"),
            format!("{}", cfg.nodes()),
            format!("{:.2}x", gain("complement")),
            format!("{:.2}x", gain("uniform")),
            format!(
                "{}",
                results.at(&scaling_label(boards, "complement", PB)).grants
            ),
            format!("{latency} cyc"),
            format!(
                "{:.1}%",
                latency as f64 / cfg.schedule.window as f64 * 100.0
            ),
        ]);
    }
    println!("{}", t.render());
}

// ---- Electrical baseline ------------------------------------------------

const BASELINE_PATTERNS: [&str; 2] = ["uniform", "complement"];

/// The label of the mesh run offered the same traffic as E-RAPID at
/// `(pattern, load)`.
pub fn mesh_label(pat: &str, load: f64) -> String {
    format!("mesh/{pat}/{load}")
}

pub fn baseline_points(bench: &BenchConfig) -> Vec<Point> {
    let mut points = Vec::new();
    for pat in BASELINE_PATTERNS {
        for load in bench.load_axis() {
            let erapid = p64(bench, pat, PB, load);
            points.push(Point {
                label: mesh_label(pat, load),
                network: Network::Mesh,
                run: erapid.run.clone(),
            });
            points.push(erapid);
        }
    }
    points
}

pub fn baseline(bench: &BenchConfig, results: &Results) {
    for pat in BASELINE_PATTERNS {
        let mut t = Table::new(vec![
            "load",
            "rate (pkt/n/c)",
            "erapid thr",
            "erapid lat",
            "erapid pwr (mW)",
            "mesh thr",
            "mesh lat",
            "mesh pwr (mW)",
        ])
        .with_title(format!("{pat} (load normalised to E-RAPID's N_c)"));
        for load in bench.load_axis() {
            let (er, mesh) = (
                results.p64(pat, PB, load),
                results.mesh(&mesh_label(pat, load)),
            );
            t.row(vec![
                format!("{load:.1}"),
                format!("{:.5}", mesh.offered),
                format!("{:.4}", er.throughput),
                format!("{:.1}", er.latency),
                format!("{:.1}", er.power_mw),
                format!("{:.4}", mesh.throughput),
                format!("{:.1}", mesh.latency),
                format!("{:.1}", mesh.power_mw),
            ]);
        }
        println!("{}", t.render());
    }
}

// ---- Resilience ---------------------------------------------------------

/// The load of the resilience study's complement rows.
const RESILIENCE_LOAD: f64 = 0.5;
/// The workload scenarios the resilience study layers its faults onto (in
/// P-B, at the scenario study's load), next to complement in every mode.
const HOSTILE: [fn() -> ScenarioSpec; 2] = [ScenarioSpec::incast, ScenarioSpec::collective];

/// The label of the resilience study's `(fault plan, traffic, mode)` point.
/// Its fault-free points are Fig. 5's and the scenario study's.
pub(crate) fn resilience_label(fault: &str, traffic: &str, mode: NetworkMode) -> String {
    match (fault, traffic) {
        ("none", "complement") => p64_label(traffic, mode, RESILIENCE_LOAD),
        ("none", _) => scenario_label(traffic, mode),
        _ => format!("resilience/{fault}/{traffic}/{}", mode.name()),
    }
}

/// `(name, what, plan)` per fault plan, fault-free first, timed against
/// `bench`'s phase plan (a quick run is shorter, so the outage moves
/// forward).
fn fault_plans(bench: &BenchConfig) -> [(&'static str, &'static str, FaultPlan); 5] {
    let window = SystemConfig::paper64(PB).schedule.window;
    let (down, up) = match bench.quick {
        true => (3 * window / 2, 5 * window / 2),
        false => (4 * window, 6 * window),
    };
    // Complement's hot flow out of board 0 lands on board 7, on its static
    // wavelength λ(0→7) = (0 − 7) mod 8 = 1.
    let (board, dest, wavelength) = (0, 7, 1);
    let relocks = if bench.quick { 8 } else { 32 };
    // Bandwidth boundaries fall at even window multiples; each loss strikes
    // 10 cycles into a round, with the token mid-flight on the RC ring.
    let mut token = FaultPlan::new();
    for i in 0..if bench.quick { 1 } else { 3 } {
        token.push(
            2 * window * (i + 1) + 10,
            FaultKind::TokenLoss { victim: 3 },
        );
    }
    [
        ("none", "fault-free", FaultPlan::new()),
        (
            "rx_outage",
            "receiver (board 7, λ1) down, repaired two windows later",
            FaultPlan::new().receiver_outage(dest, wavelength, down, up),
        ),
        (
            "lc_stuck",
            "LC (0→7, λ1) wedged at its rate until repaired",
            FaultPlan::new()
                .at(
                    down,
                    FaultKind::LcStuck {
                        board,
                        dest,
                        wavelength,
                    },
                )
                .at(
                    up,
                    FaultKind::LcRepair {
                        board,
                        dest,
                        wavelength,
                    },
                ),
        ),
        (
            "cdr_relock_storm",
            "seeded burst of 500-cycle CDR relocks on live channels",
            FaultPlan::relock_storm(42, 8, down, up, relocks, 500),
        ),
        (
            "ls_token_loss",
            "board 3's LS token lost just after bandwidth boundaries",
            token,
        ),
    ]
}

/// `cfg` fed by the workload scenario `spec` at `load` (the pattern is
/// inert under a scenario).
fn scenario_point(
    label: String,
    mut cfg: SystemConfig,
    spec: ScenarioSpec,
    load: f64,
    plan: PhasePlan,
) -> Point {
    cfg.scenario = Some(spec);
    Point {
        label,
        network: Network::Erapid,
        run: RunPoint::generate(cfg, TrafficPattern::Uniform, load, plan),
    }
}

/// One table per fault plan: complement in every mode, then P-B under each
/// hostile scenario.
pub(crate) fn resilience_tables(bench: &BenchConfig) -> Vec<RowTable> {
    fault_plans(bench)
        .into_iter()
        .map(|(fault, what, faults)| {
            let title = format!("[{fault}] {what} ({} fault events)", faults.len());
            let faulted = |mode| SystemConfig {
                faults: faults.clone(),
                ..SystemConfig::paper64(mode)
            };
            let mut rows: Vec<_> = NetworkMode::all()
                .into_iter()
                .map(|mode| {
                    let label = resilience_label(fault, "complement", mode);
                    let cells = vec!["complement".to_string(), mode.name().to_string()];
                    let cfg = faulted(mode);
                    (
                        cells,
                        erapid(bench, label, cfg, "complement", RESILIENCE_LOAD),
                    )
                })
                .collect();
            for spec in HOSTILE.map(|spec| spec()) {
                let cells = vec![spec.name().to_string(), PB.name().to_string()];
                let label = resilience_label(fault, spec.name(), PB);
                let cfg = faulted(PB);
                let plan = bench.plan(cfg.schedule.window);
                let point = scenario_point(label, cfg, spec, SCENARIO_LOAD, plan);
                rows.push((cells, point));
            }
            RowTable {
                title,
                keys: vec!["traffic", "mode"],
                rows,
            }
        })
        .collect()
}

/// P-B throughput under `fault` ÷ fault-free, on `traffic`.
fn recovery(results: &Results, fault: &str, traffic: &str) -> f64 {
    let thr = |fault| results.at(&resilience_label(fault, traffic, PB)).throughput;
    thr(fault) / thr("none")
}

pub(crate) fn resilience(bench: &BenchConfig, results: &Results) {
    let plans = fault_plans(bench);
    row_tables(&resilience_tables(bench), results);
    let hostile = HOSTILE.map(|spec| spec().name());
    let traffic = ["complement", hostile[0], hostile[1]];
    let mut t = Table::new([&["fault"], &traffic[..]].concat())
        .with_title("P-B throughput recovery: faulted ÷ fault-free");
    for (fault, _, _) in &plans[1..] {
        let mut row = vec![fault.to_string()];
        row.extend(
            traffic
                .iter()
                .map(|pat| format!("{:.1}%", 100.0 * recovery(results, fault, pat))),
        );
        t.row(row);
    }
    println!("{}", t.render());
}

// ---- Workload scenarios -------------------------------------------------

/// The load of the scenario study (and of the auto-tuning study).
const SCENARIO_LOAD: f64 = 0.6;

/// The label of the scenario study's `(scenario, mode)` point.
pub(crate) fn scenario_label(name: &str, mode: NetworkMode) -> String {
    format!("scenarios/{name}/{}", mode.name())
}

pub(crate) fn scenario_tables(bench: &BenchConfig) -> Vec<RowTable> {
    ScenarioSpec::paper_suite()
        .into_iter()
        .map(|spec| RowTable {
            title: format!("[{}] {:?}", spec.name(), spec.kind),
            keys: vec!["mode"],
            rows: NetworkMode::all()
                .into_iter()
                .map(|mode| {
                    let cfg = SystemConfig::paper64(mode);
                    let plan = bench.plan(cfg.schedule.window);
                    let label = scenario_label(spec.name(), mode);
                    let point = scenario_point(label, cfg, spec.clone(), SCENARIO_LOAD, plan);
                    (vec![mode.name().to_string()], point)
                })
                .collect(),
        })
        .collect()
}

// ---- Auto-tuning --------------------------------------------------------

/// The modes the tuning study sweeps: the power-aware ones.
const TUNED_MODES: [NetworkMode; 2] = [PNb, PB];

/// The paper-constant operating point of `mode`, at the paper's `R_w`.
fn paper_constants(mode: NetworkMode) -> OperatingPoint {
    let policy = mode
        .dpm_policy()
        .expect("the study tunes power-aware modes");
    OperatingPoint::from_policy(policy, 2000)
}

/// The paper constants, then every smoke-grid point that is not them: index
/// 0 is the baseline, and ties in [`erapid_tune::choose`] resolve to it.
fn candidates(mode: NetworkMode) -> Vec<OperatingPoint> {
    let base = paper_constants(mode);
    let grid = TuneGrid::smoke().points().expect("the smoke grid is valid");
    std::iter::once(base)
        .chain(grid.into_iter().filter(|p| *p != base))
        .collect()
}

/// Every `(mode, scenario)` the tuning study sweeps, over `suite`.
fn tuned_workloads(suite: &[ScenarioSpec]) -> impl Iterator<Item = (NetworkMode, &ScenarioSpec)> {
    TUNED_MODES
        .into_iter()
        .flat_map(move |mode| suite.iter().map(move |spec| (mode, spec)))
}

/// The label of one tuning leg: an operating point's label, or
/// `controller`.
pub(crate) fn tune_label(mode: NetworkMode, spec: &ScenarioSpec, leg: &str) -> String {
    format!("autotune/{}/{}/{leg}", mode.name(), spec.name())
}

/// The small system under `spec` at `op`: its thresholds as the DPM
/// override, its `B_max` also as the DBR trigger (both loops see one
/// threshold, as the online controller keeps them), its `R_w` as the
/// Lock-Step window; two measured windows and a drain cap.
fn tune_point(label: String, mode: NetworkMode, spec: &ScenarioSpec, op: OperatingPoint) -> Point {
    let mut cfg = SystemConfig::small(mode);
    cfg.dpm_override = Some(op.dpm_policy());
    cfg.alloc.b_max = op.b_max_milli as f64 / 1000.0;
    cfg.schedule = LockStepSchedule::new(op.r_w);
    let plan = PhasePlan::new(2000, 4000).with_max_cycles(24_000);
    scenario_point(label, cfg, spec.clone(), SCENARIO_LOAD, plan)
}

pub(crate) fn tune_tables() -> Vec<RowTable> {
    tuned_workloads(&ScenarioSpec::paper_suite())
        .map(|(mode, spec)| {
            let mut rows: Vec<_> = candidates(mode)
                .into_iter()
                .map(|op| {
                    let label = tune_label(mode, spec, &op.label());
                    (vec![op.label()], tune_point(label, mode, spec, op))
                })
                .collect();
            // The online controller, seeded at the paper constants.
            if mode == PB {
                let base = paper_constants(mode);
                let mut ctl = tune_point(tune_label(mode, spec, "controller"), mode, spec, base);
                let (l_min, l_max, b_max) = (base.l_min_milli, base.l_max_milli, base.b_max_milli);
                ctl.run.cfg.tune = Some(ControllerSpec::around_milli(l_min, l_max, b_max));
                rows.push((vec!["controller".to_string()], ctl));
            }
            RowTable {
                title: format!("[{} {}] sweep, small system", mode.name(), spec.name()),
                keys: vec!["operating point"],
                rows,
            }
        })
        .collect()
}

/// A swept `(mode, scenario)` with the paper constants' outcome and the
/// chosen one.
pub(crate) type Tuned = ((NetworkMode, &'static str), SweepOutcome, SweepOutcome);

/// Every workload swept over `suite` that has a viable point: each leg
/// joined from `results`, and the choice made among those that injected.
pub(crate) fn tuned(results: &Results, suite: &[ScenarioSpec]) -> Vec<Tuned> {
    tuned_workloads(suite)
        .filter_map(|(mode, spec)| {
            let outcomes: Vec<SweepOutcome> = candidates(mode)
                .into_iter()
                .filter_map(|op| {
                    let r = results.at(&tune_label(mode, spec, &op.label()));
                    let (power, mean, p95) = (r.power_mw, r.latency, r.latency_p95);
                    SweepOutcome::join(op, r.injected, r.delivered, power, mean, p95).ok()
                })
                .collect();
            let chosen = choose(&outcomes).ok()?.clone();
            let paper = outcomes.first()?.clone();
            Some(((mode, spec.name()), paper, chosen))
        })
        .collect()
}

pub(crate) fn autotune(_: &BenchConfig, results: &Results) {
    row_tables(&tune_tables(), results);
    let mut t = Table::new(vec![
        "workload",
        "paper objective",
        "chosen",
        "chosen objective",
        "improves",
    ])
    .with_title(
        "Chosen point (min power × p95 within 95% of the best delivery) vs the paper constants",
    );
    for ((mode, scenario), paper, chosen) in tuned(results, &ScenarioSpec::paper_suite()) {
        t.row(vec![
            format!("{} {scenario}", mode.name()),
            format!("{:.0}", paper.objective()),
            chosen.point.label(),
            format!("{:.0}", chosen.objective()),
            format!("{}", improves(&chosen, &paper)),
        ]);
    }
    println!("{}", t.render());
}
