//! What each [`crate::index::Experiment`] runs and prints. Every
//! simulation point comes from [`BenchConfig::point`]; every per-result
//! row from `result_row`.

use crate::index::{p64_label, Network, Point, Results};
use crate::{print_charts, print_panel, result_table, BenchConfig, Panel};
use erapid_core::config::{BurstSpec, NetworkMode, SystemConfig};
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
