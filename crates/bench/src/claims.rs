//! The claim table: every paper-vs-measured row of EXPERIMENTS.md as a
//! [`Claim`] with an explicit band, grouped by the experiment whose points
//! it reads. Bands bracket the value measured on `default_plan` at the
//! default seed; a `.deviating()` claim brackets *our* value where it is
//! known to differ from the paper's, so closing or widening the gap shows
//! up as a failing band rather than as silently stale prose. A claim that
//! names a load reads that point only — the Tier-1 test runs exactly the
//! points the table reads.

use crate::experiments::{
    analytic_mw, fig3_trace, headline_grid, mesh_label, resilience_label, scaling_label,
    scenario_label, tune_label, tuned, Tuned,
};
use crate::index::{Claim, Metric, Results, LAT, PWR, THR};
use erapid_core::config::NetworkMode::{self, NpB, NpNb, PNb, PB};
use erapid_core::config::SystemConfig;
use erapid_core::experiment::{paper_loads, RunResult};
use erapid_tune::improves;
use erapid_workloads::ScenarioSpec;
use photonics::bitrate::{RateLadder, RateLevel};
use photonics::power::analytic_breakdown;

fn largest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

fn smallest(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// `|a − b| ÷ b`.
fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b
}

pub const TABLE1: &[Claim] = &[
    Claim::new(
        "table1_link_power_2g5",
        "link power at 2.5 Gbps / 0.45 V: 8.6 mW",
        8.4..=8.8,
        |_| analytic_mw(0),
    ),
    Claim::new(
        "table1_link_power_3g3",
        "link power at 3.3 Gbps / 0.6 V: 26 mW (not derivable from the paper's own scaling laws)",
        16.2..=16.6,
        |_| analytic_mw(1),
    )
    .deviating(),
    Claim::new(
        "table1_link_power_5g",
        "link power at 5 Gbps / 0.9 V: 43.03 mW",
        42.6..=43.8,
        |_| analytic_mw(2),
    ),
    Claim::new(
        "table1_components_5g",
        "driver / TIA / CDR at 5 Gbps: 1.23 / 25.02 / 17.05 mW (largest relative error)",
        0.0..=0.03,
        |_| {
            let b = analytic_breakdown(RateLadder::paper().rate(RateLevel(2)));
            largest([
                rel(b.driver_mw, 1.23),
                rel(b.tia_mw, 25.02),
                rel(b.cdr_mw, 17.05),
            ])
        },
    ),
];

/// Columns of [`fig3_trace`].
const F3_NP_NB: usize = 3;
const F3_P_NB: usize = 4;
const F3_NP_B: usize = 5;
const F3_P_B: usize = 6;

/// `num ÷ den` at profile window `window`.
fn fig3_at(window: usize, num: usize, den: usize) -> f64 {
    let row = fig3_trace()[window];
    row[num] / row[den]
}

/// The largest `num ÷ den` over the whole profile.
fn fig3_peak(num: usize, den: usize) -> f64 {
    largest(fig3_trace().iter().map(|row| row[num] / row[den]))
}

pub const FIG3: &[Claim] = &[
    Claim::new(
        "fig3_np_nb_is_the_ceiling",
        "3a: NP-NB holds P_high whatever the utilization (largest P-NB ÷ NP-NB power)",
        0.0..=1.0,
        |_| fig3_peak(F3_P_NB, F3_NP_NB),
    ),
    Claim::new(
        "fig3_p_nb_scales_down_when_idle",
        "3b: P-NB steps down at low utilization (P-NB ÷ NP-NB, end of the low phase)",
        0.15..=0.25,
        |_| fig3_at(3, F3_P_NB, F3_NP_NB),
    ),
    Claim::new(
        "fig3_np_b_power_under_congestion",
        "3c: NP-B doubles bandwidth at double power (NP-B ÷ NP-NB power, congested phase)",
        1.0..=1.1,
        |_| fig3_at(9, F3_NP_B, F3_NP_NB),
    )
    .deviating(),
    Claim::new(
        "fig3_p_b_never_above_np_b",
        "3d: P-B borrows bandwidth and scales rates (largest P-B ÷ NP-B power)",
        0.0..=1.0,
        |_| fig3_peak(F3_P_B, F3_NP_B),
    ),
];

/// `1 − metric(num) ÷ metric(den)`: the fraction `num` gives up (or saves).
fn shortfall(
    r: &Results,
    pat: &str,
    modes: (NetworkMode, NetworkMode),
    load: f64,
    m: Metric,
) -> f64 {
    1.0 - r.ratio(pat, modes, load, m)
}

pub const FIG5: &[Claim] = &[
    Claim::new(
        "uniform_reconfiguration_is_a_noop",
        "uniform 0.5: NP-NB ≈ NP-B (largest of relative thr / latency difference and grants)",
        0.0..=0.02,
        |r| {
            let (base, reconf) = (r.p64("uniform", NpNb, 0.5), r.p64("uniform", NpB, 0.5));
            largest([
                rel(reconf.throughput, base.throughput),
                rel(reconf.latency, base.latency),
                reconf.grants as f64,
            ])
        },
    ),
    Claim::new(
        "uniform_power_aware_saves_power_with_small_throughput_loss",
        "uniform: \"P-B shows almost 50% reduction\" (P-B ÷ NP-NB power, load 0.4)",
        0.35..=0.75,
        |r| r.ratio("uniform", (PB, NpNb), 0.4, PWR),
    ),
    Claim::new(
        "uniform_pnb_saves_power_l04",
        "uniform: \"P-NB shows almost 16% reduction\" (P-NB ÷ NP-NB power, load 0.4)",
        0.6..=0.95,
        |r| r.ratio("uniform", (PNb, NpNb), 0.4, PWR),
    ),
    Claim::new(
        "uniform_pnb_throughput_loss_l09",
        "uniform: P-NB throughput degradation < 3% (load 0.9)",
        -0.01..=0.03,
        |r| shortfall(r, "uniform", (PNb, NpNb), 0.9, THR),
    ),
    Claim::new(
        "uniform_pb_throughput_loss_l09",
        "uniform: P-B throughput degradation ~8% (load 0.9)",
        0.03..=0.08,
        |r| shortfall(r, "uniform", (PB, NpNb), 0.9, THR),
    ),
    Claim::new(
        "uniform_pb_throughput_loss_l06",
        "uniform: P-B throughput degradation ~8% (load 0.6, the worst point of the grid)",
        0.04..=0.08,
        |r| shortfall(r, "uniform", (PB, NpNb), 0.6, THR),
    ),
    Claim::new(
        "uniform_pnb_power_saving_l01",
        "uniform: P-NB power saving ~16% (load 0.1; ours is load-dependent)",
        0.65..=0.73,
        |r| shortfall(r, "uniform", (PNb, NpNb), 0.1, PWR),
    )
    .deviating(),
    Claim::new(
        "uniform_pb_power_l03",
        "uniform: P-B power ~50% below NP-NB (P-B ÷ NP-NB, load 0.3)",
        0.31..=0.5,
        |r| r.ratio("uniform", (PB, NpNb), 0.3, PWR),
    ),
    Claim::new(
        "uniform_pb_power_l05",
        "uniform: P-B power ~50% below NP-NB (P-B ÷ NP-NB, load 0.5)",
        0.5..=0.59,
        |r| r.ratio("uniform", (PB, NpNb), 0.5, PWR),
    ),
    Claim::new(
        "uniform_pb_power_l09",
        "uniform: the saving shrinks as links saturate (P-B ÷ NP-NB power, load 0.9)",
        0.9..=0.97,
        |r| r.ratio("uniform", (PB, NpNb), 0.9, PWR),
    ),
    Claim::new(
        "uniform_pb_latency_penalty_l05",
        "uniform: DPM latency penalty \"marginal\" (P-B ÷ NP-NB latency, load 0.5)",
        3.3..=4.0,
        |r| r.ratio("uniform", (PB, NpNb), 0.5, LAT),
    )
    .deviating(),
    Claim::new(
        "uniform_pb_latency_penalty_l06",
        "uniform: DPM latency penalty \"marginal\" (P-B ÷ NP-NB latency, load 0.6)",
        5.2..=6.4,
        |r| r.ratio("uniform", (PB, NpNb), 0.6, LAT),
    )
    .deviating(),
    Claim::new(
        "latency_grows_with_load",
        "uniform NP-NB: latency rises toward saturation (load 0.8 ÷ load 0.2)",
        2.1..=2.7,
        |r| r.p64("uniform", NpNb, 0.8).latency / r.p64("uniform", NpNb, 0.2).latency,
    ),
    Claim::new(
        "offered_equals_accepted_below_saturation",
        "uniform NP-NB 0.2, 0.5: accepted = offered (largest relative gap + undrained packets)",
        0.0..=0.05,
        |r| {
            largest([0.2, 0.5].map(|load| {
                let run = r.p64("uniform", NpNb, load);
                rel(run.throughput_norm, load) + run.undrained as f64
            }))
        },
    ),
    Claim::new(
        "complement_np_nb_saturates_at_low_load",
        "complement: NP-NB saturates at very low load (throughput at 0.7 ÷ at 0.2)",
        0.98..=1.02,
        |r| r.p64("complement", NpNb, 0.7).throughput / r.p64("complement", NpNb, 0.2).throughput,
    ),
    Claim::new(
        "complement_np_nb_equals_p_nb_throughput",
        "complement 0.7: NP-NB and P-NB throughput \"remain the same\" (relative difference)",
        0.0..=0.05,
        |r| (1.0 - r.ratio("complement", (PNb, NpNb), 0.7, THR)).abs(),
    ),
    Claim::new(
        "complement_pnb_never_costs_more_power",
        "complement 0.7: P-NB never costs more power than NP-NB (P-NB ÷ NP-NB; see ablation 6)",
        0.78..=1.01,
        |r| r.ratio("complement", (PNb, NpNb), 0.7, PWR),
    ),
    Claim::new(
        "complement_throughput_multiplies_under_dbr",
        "complement 0.7: \"almost 400% improvement in throughput\" (NP-B ÷ NP-NB)",
        5.7..=6.3,
        |r| r.ratio("complement", (NpB, NpNb), 0.7, THR),
    )
    .deviating(),
    Claim::new(
        "complement_dbr_reallocates_every_idle_wavelength",
        "complement 0.7: \"completely reconfiguring the network\" (NP-B grants; 48 = 8 × 6 idle λ)",
        40.0..=56.0,
        |r| r.p64("complement", NpB, 0.7).grants as f64,
    ),
    Claim::new(
        "complement_power_rises_with_reconfigured_bandwidth",
        "complement: NP-B power \"300% more\" than NP-NB (NP-B ÷ NP-NB power, load 0.7)",
        3.7..=4.9,
        |r| r.ratio("complement", (NpB, NpNb), 0.7, PWR),
    ),
    Claim::new(
        "complement_pb_power_l03",
        "complement: P-B ~25% less power than NP-B (P-B ÷ NP-B, load 0.3)",
        0.7..=0.77,
        |r| r.ratio("complement", (PB, NpB), 0.3, PWR),
    ),
    Claim::new(
        "complement_pb_power_l04",
        "complement: P-B ~25% less power than NP-B (P-B ÷ NP-B, load 0.4)",
        0.75..=0.88,
        |r| r.ratio("complement", (PB, NpB), 0.4, PWR),
    ),
    Claim::new(
        "complement_pb_power_l05",
        "complement: the saving vanishes toward saturation (P-B ÷ NP-B power, load 0.5)",
        0.92..=0.98,
        |r| r.ratio("complement", (PB, NpB), 0.5, PWR),
    ),
];

pub const FIG6: &[Claim] = &[
    Claim::new(
        "butterfly_and_shuffle_gain_from_dbr",
        "butterfly & shuffle 0.8: both gain throughput from DBR (smaller NP-B ÷ NP-NB)",
        1.5..=1.7,
        |r| smallest(["butterfly", "perfect_shuffle"].map(|p| r.ratio(p, (NpB, NpNb), 0.8, THR))),
    ),
    Claim::new(
        "butterfly_and_shuffle_dbr_grants",
        "both permutations trigger re-allocation (fewer NP-B grants of the two, load 0.8)",
        1.0..=56.0,
        |r| smallest(["butterfly", "perfect_shuffle"].map(|p| r.p64(p, NpB, 0.8).grants as f64)),
    ),
    Claim::new(
        "butterfly_dbr_throughput_gain_l09",
        "butterfly: NP-B/P-B throughput +25% (NP-B ÷ NP-NB, load 0.9)",
        1.55..=1.8,
        |r| r.ratio("butterfly", (NpB, NpNb), 0.9, THR),
    )
    .deviating(),
    Claim::new(
        "butterfly_npb_power_l09",
        "butterfly: NP-B power ~2× NP-NB (load 0.9)",
        3.0..=3.5,
        |r| r.ratio("butterfly", (NpB, NpNb), 0.9, PWR),
    )
    .deviating(),
    Claim::new(
        "butterfly_pb_power_vs_np_nb_l09",
        "butterfly: P-B power ~1.5× NP-NB (load 0.9)",
        2.7..=3.1,
        |r| r.ratio("butterfly", (PB, NpNb), 0.9, PWR),
    )
    .deviating(),
    Claim::new(
        "butterfly_pb_power_l05",
        "butterfly: P-B 2.0× → 1.5×, i.e. ~25% below NP-B (P-B ÷ NP-B power, load 0.5)",
        0.6..=0.75,
        |r| r.ratio("butterfly", (PB, NpB), 0.5, PWR),
    ),
    Claim::new(
        "butterfly_pb_below_npb_power_at_every_load",
        "butterfly: P-B < NP-B power at every load (largest P-B ÷ NP-B, loads 0.1–0.9)",
        0.8..=1.0,
        |r| {
            largest(
                paper_loads()
                    .into_iter()
                    .map(|l| r.ratio("butterfly", (PB, NpB), l, PWR)),
            )
        },
    ),
    Claim::new(
        "shuffle_dbr_throughput_gain_l09",
        "perfect shuffle: throughput gain ~1.7× (NP-B ÷ NP-NB, load 0.9)",
        2.5..=2.9,
        |r| r.ratio("perfect_shuffle", (NpB, NpNb), 0.9, THR),
    )
    .deviating(),
    Claim::new(
        "shuffle_npb_power_l09",
        "perfect shuffle: NP-B power +70% (NP-B ÷ NP-NB, load 0.9)",
        2.9..=3.4,
        |r| r.ratio("perfect_shuffle", (NpB, NpNb), 0.9, PWR),
    )
    .deviating(),
    Claim::new(
        "shuffle_pb_power_l05",
        "perfect shuffle: P-B ~25% less power than NP-B (P-B ÷ NP-B, load 0.5)",
        0.74..=0.88,
        |r| r.ratio("perfect_shuffle", (PB, NpB), 0.5, PWR),
    ),
];

/// `1 − P-B ÷ NP-B` of `metric` at every point of [`headline_grid`].
fn headline(r: &Results, metric: Metric) -> impl Iterator<Item = f64> + '_ {
    headline_grid().map(move |(pat, load)| shortfall(r, pat, (PB, NpB), load, metric))
}

pub const HEADLINE: &[Claim] = &[
    Claim::new(
        "pb_tracks_npb_throughput_with_less_power_at_mid_load",
        "\"throughput [degraded] by less than 5%\" (larger P-B loss, butterfly & complement 0.5)",
        -0.01..=0.05,
        |r| largest(["butterfly", "complement"].map(|p| shortfall(r, p, (PB, NpB), 0.5, THR))),
    ),
    Claim::new(
        "headline_throughput_loss_max",
        "\"throughput [degraded] by less than 5%\" (largest P-B loss, 4 patterns × loads 0.3–0.5)",
        0.0..=0.05,
        |r| largest(headline(r, THR)),
    ),
    Claim::new(
        "headline_power_saving_min",
        "\"power consumption [reduced by] 25% - 50%\" (smallest P-B saving, same grid: complement 0.5)",
        0.03..=0.07,
        |r| smallest(headline(r, PWR)),
    )
    .deviating(),
    Claim::new(
        "headline_power_saving_max",
        "\"power consumption [reduced by] 25% - 50%\" (largest P-B saving, same grid: uniform 0.3)",
        0.62..=0.7,
        |r| largest(headline(r, PWR)),
    )
    .deviating(),
];

/// Row `row` of ablation table `n`.
fn ab(r: &Results, n: u8, row: &str) -> RunResult {
    r.at(&format!("ablation{n}/{row}"))
}

const WINDOWS: [&str; 5] = ["500", "1000", "2000", "4000", "8000"];

/// P-NB ÷ NP-NB complement power at idle-laser fraction `frac`.
fn idle_ratio(r: &Results, frac: &str) -> f64 {
    ab(r, 6, &format!("{frac}/P-NB")).power_mw / ab(r, 6, &format!("{frac}/NP-NB")).power_mw
}

pub const ABLATION: &[Claim] = &[
    Claim::new(
        "ablation1_latency_grows_with_rw",
        "\"R_w too large ... cannot scale\": latency grows with each doubling, 500 → 8000 (smallest step)",
        1.1..=1.4,
        |r| {
            smallest(
                WINDOWS
                    .windows(2)
                    .map(|w| ab(r, 1, w[1]).latency / ab(r, 1, w[0]).latency),
            )
        },
    ),
    Claim::new(
        "ablation2_latency_falls_with_levels",
        "\"more power levels ... further improve\": latency falls 2 → 3 → 4 → 6 levels (largest step)",
        0.7..=0.95,
        |r| {
            let levels = ["2", "3", "4", "6"];
            largest(
                levels
                    .windows(2)
                    .map(|l| ab(r, 2, l[1]).latency / ab(r, 2, l[0]).latency),
            )
        },
    ),
    Claim::new(
        "ablation3_one_grant_per_window",
        "limited reconfigurability: one grant per window (throughput ÷ the zero-grant baseline)",
        3.2..=3.8,
        |r| ab(r, 3, "1").throughput / ab(r, 3, "0").throughput,
    ),
    Claim::new(
        "ablation4_cdr_only_latency",
        "the conservative 65-cycle disable is cheap (12-cycle ÷ 65-cycle model latency)",
        0.85..=0.95,
        |r| ab(r, 4, "CDR-only 12cy").latency / ab(r, 4, "conservative 65cy").latency,
    ),
    Claim::new(
        "ablation5_small_rw_sheds_throughput",
        "bursty: a window shorter than the burst retracts grants (throughput at R_w 500 ÷ at 8000)",
        0.5..=0.63,
        |r| ab(r, 5, "500").throughput / ab(r, 5, "8000").throughput,
    ),
    Claim::new(
        "ablation5_small_rw_cuts_latency",
        "bursty: \"responsive to transient traffic changes\" (latency at R_w 500 ÷ at 8000)",
        0.09..=0.16,
        |r| ab(r, 5, "500").latency / ab(r, 5, "8000").latency,
    ),
    Claim::new(
        "ablation6_idle_fraction_0",
        "complement NP-NB ≡ P-NB power — holds with free idle lasers (P-NB ÷ NP-NB, fraction 0)",
        0.999..=1.001,
        |r| idle_ratio(r, "0.00"),
    ),
    Claim::new(
        "ablation6_idle_fraction_005",
        "complement NP-NB ≡ P-NB power (P-NB ÷ NP-NB at our default idle fraction 0.05)",
        0.79..=0.85,
        |r| idle_ratio(r, "0.05"),
    )
    .deviating(),
    Claim::new(
        "ablation6_idle_fraction_015",
        "complement NP-NB ≡ P-NB power (P-NB ÷ NP-NB, fraction 0.15)",
        0.59..=0.65,
        |r| idle_ratio(r, "0.15"),
    )
    .deviating(),
    Claim::new(
        "ablation6_idle_fraction_030",
        "complement NP-NB ≡ P-NB power (P-NB ÷ NP-NB, fraction 0.30)",
        0.46..=0.52,
        |r| idle_ratio(r, "0.30"),
    )
    .deviating(),
    Claim::new(
        "ablation7_low_b_max_reconfigures_at_onset",
        "butterfly 0.2: a low B_max grants at the onset of congestion (latency at 0.05 ÷ at 0.8)",
        0.45..=0.56,
        |r| ab(r, 7, "0.05").latency / ab(r, 7, "0.8").latency,
    ),
    Claim::new(
        "ablation7_paper_b_max_sits_between",
        "\"B_max [of] 0.3 is fairly reasonable\": between 0.05's 48 grants and 0.8's none (grants)",
        12.0..=36.0,
        |r| ab(r, 7, "0.3").grants as f64,
    ),
];

pub const BASELINE: &[Claim] = &[
    Claim::new(
        "baseline_mesh_matches_throughput",
        "uniform 0.9: with 1-cycle hops the mesh keeps up (mesh ÷ E-RAPID P-B throughput)",
        1.0..=1.12,
        |r| r.mesh(&mesh_label("uniform", 0.9)).throughput / r.p64("uniform", PB, 0.9).throughput,
    ),
    Claim::new(
        "baseline_mesh_base_latency",
        "uniform 0.1: ... and has the lower base latency (mesh ÷ E-RAPID P-B latency)",
        0.2..=0.28,
        |r| r.mesh(&mesh_label("uniform", 0.1)).latency / r.p64("uniform", PB, 0.1).latency,
    ),
    Claim::new(
        "baseline_erapid_power_tracks_load",
        "uniform: E-RAPID's power follows the lit, busy lasers (P-B power at load 0.1 ÷ at 0.9)",
        0.04..=0.07,
        |r| r.p64("uniform", PB, 0.1).power_mw / r.p64("uniform", PB, 0.9).power_mw,
    ),
    Claim::new(
        "baseline_mesh_power_floor",
        "the mesh's 64 routers leak when idle (mesh power at load 0.1 ÷ at 0.9, uniform)",
        0.4..=0.5,
        |r| {
            let mesh = |load| r.mesh(&mesh_label("uniform", load)).power_mw;
            mesh(0.1) / mesh(0.9)
        },
    ),
];

pub const BREAKDOWN: &[Claim] = &[
    Claim::new(
        "breakdown_static_tx_queue_pins_at_its_bound",
        "complement 0.3, static: the TX queue is full, DBR's signal (NP-NB mean TX wait, cycles)",
        370.0..=382.0,
        |r| r.p64("complement", NpNb, 0.3).tx_wait,
    ),
    Claim::new(
        "breakdown_dbr_empties_the_tx_queue",
        "complement 0.3: re-assigned wavelengths empty it (NP-B mean TX wait, cycles)",
        0.0..=1.0,
        |r| r.p64("complement", NpB, 0.3).tx_wait,
    ),
];

/// P-B ÷ NP-NB complement throughput on `boards` boards.
fn scaling_gain(r: &Results, boards: u16) -> f64 {
    let thr = |mode| r.at(&scaling_label(boards, "complement", mode)).throughput;
    thr(PB) / thr(NpNb)
}

pub const SCALING: &[Claim] = &[
    Claim::new(
        "scaling_complement_gain_b4",
        "B − 2 idle wavelengths per destination to borrow (P-B ÷ NP-NB complement thr, 4 boards)",
        2.5..=3.0,
        |r| scaling_gain(r, 4),
    ),
    Claim::new(
        "scaling_complement_gain_b8",
        "... the gain grows with the wavelengths available (8 boards)",
        5.5..=6.1,
        |r| scaling_gain(r, 8),
    ),
    Claim::new(
        "scaling_complement_gain_b16",
        "... until the destination board's electrical ingress is the bottleneck (16 boards)",
        5.7..=6.3,
        |r| scaling_gain(r, 16),
    ),
    Claim::new(
        "scaling_dbr_round_share_of_rw_b16",
        "the five-stage round grows linearly in B but stays a few percent of R_w (16 boards)",
        0.0..=0.05,
        |_| {
            let cfg = SystemConfig::geometry(PB, 16, 8);
            cfg.timing.dbr_latency() as f64 / cfg.schedule.window as f64
        },
    ),
];

/// The resilience study's complement point under `fault` in `mode`.
fn faulted(r: &Results, fault: &str, mode: NetworkMode) -> RunResult {
    r.at(&resilience_label(fault, "complement", mode))
}

pub const RESILIENCE: &[Claim] = &[
    Claim::new(
        "resilience_rx_outage_dbr_drains",
        "rx_outage: DBR re-routes the orphaned flow and drains (NP-B + P-B undrained packets)",
        0.0..=0.0,
        |r| (faulted(r, "rx_outage", NpB).undrained + faulted(r, "rx_outage", PB).undrained) as f64,
    ),
    Claim::new(
        "resilience_rx_outage_static_strands",
        "rx_outage: static ownership strands packets behind the dead receiver (NP-NB undrained)",
        15.0..=40.0,
        |r| faulted(r, "rx_outage", NpNb).undrained as f64,
    ),
    Claim::new(
        "resilience_rx_outage_latency_ratio",
        "rx_outage: what reconfigurability buys back (NP-NB ÷ NP-B mean latency)",
        100.0..=150.0,
        |r| faulted(r, "rx_outage", NpNb).latency / faulted(r, "rx_outage", NpB).latency,
    ),
    Claim::new(
        "resilience_token_loss_watchdog_retries",
        "ls_token_loss: the round watchdog relaunches each lost round (P-B LS retries, 3 losses)",
        1.0..=3.0,
        |r| faulted(r, "ls_token_loss", PB).ls_retries as f64,
    ),
    Claim::new(
        "resilience_token_loss_no_aborts",
        "ls_token_loss: ... and no round is abandoned (P-B LS aborts)",
        0.0..=0.0,
        |r| faulted(r, "ls_token_loss", PB).ls_aborts as f64,
    ),
];

/// `metric` of mode `num` ÷ `metric` of mode `den` under scenario `name`.
fn scenario_ratio(
    r: &Results,
    name: &str,
    (num, den): (NetworkMode, NetworkMode),
    metric: Metric,
) -> f64 {
    metric(&r.at(&scenario_label(name, num))) / metric(&r.at(&scenario_label(name, den)))
}

/// Delivered fraction.
const DELIVERED: Metric = |r| r.delivered_fraction();

pub const SCENARIOS: &[Claim] = &[
    Claim::new(
        "scenarios_diurnal_pb_power_saving",
        "diurnal: DPM follows the wave down into its troughs (P-B ÷ NP-B power)",
        0.42..=0.50,
        |r| scenario_ratio(r, "diurnal", (PB, NpB), PWR),
    ),
    Claim::new(
        "scenarios_diurnal_pb_latency_cost",
        "diurnal: ... and pays in latency while the links re-scale to it (P-B ÷ NP-B mean latency)",
        3.2..=4.0,
        |r| scenario_ratio(r, "diurnal", (PB, NpB), LAT),
    ),
    Claim::new(
        "scenarios_diurnal_pb_delivers",
        "diurnal: ... and still delivers what it is offered (P-B delivered fraction)",
        0.99..=1.0,
        |r| DELIVERED(&r.at(&scenario_label("diurnal", PB))),
    ),
    Claim::new(
        "scenarios_incast_pb_delivers",
        "incast: the storms outrun every mode, yet P-B keeps delivering (P-B delivered fraction)",
        0.18..=0.26,
        |r| DELIVERED(&r.at(&scenario_label("incast", PB))),
    ),
];

/// The tuning claims read the hotspot and incast sweeps: where the paper's
/// constants lose, and few enough runs for Tier-1.
const TUNE_CLAIMED: [fn() -> ScenarioSpec; 2] = [ScenarioSpec::hotspot, ScenarioSpec::incast];

fn hostile_tuned(r: &Results) -> Vec<Tuned> {
    tuned(r, &TUNE_CLAIMED.map(|spec| spec()))
}

/// Chosen ÷ paper-constant delivered fraction.
fn delivery_gain((_, paper, chosen): &Tuned) -> f64 {
    chosen.delivered_fraction() / paper.delivered_fraction()
}

pub const AUTOTUNE: &[Claim] = &[
    Claim::new(
        "autotune_chosen_beats_paper_constants",
        "hotspot and incast: the chosen point beats the paper's constants on k of the 4 workloads (k)",
        2.0..=4.0,
        |r| {
            let tuned = hostile_tuned(r);
            tuned.iter().filter(|(_, paper, chosen)| improves(chosen, paper)).count() as f64
        },
    ),
    Claim::new(
        "autotune_chosen_never_starves_delivery",
        "... and keeps the paper's delivery while doing so (smallest chosen ÷ paper delivered fraction)",
        0.98..=1.01,
        |r| smallest(hostile_tuned(r).iter().map(delivery_gain)),
    ),
    Claim::new(
        "autotune_incast_restores_delivery",
        "P-B incast: the chosen point delivers more than the paper's (chosen ÷ paper delivered fraction)",
        1.03..=1.09,
        |r| {
            let tuned = hostile_tuned(r);
            let incast = tuned.iter().find(|(workload, _, _)| *workload == (PB, "incast"));
            incast.map_or(0.0, delivery_gain)
        },
    ),
    Claim::new(
        "autotune_controller_leg_delivers",
        "hotspot and incast: P-B with the online controller seeded at the constants delivers (smallest fraction)",
        0.45..=0.60,
        |r| {
            let suite = TUNE_CLAIMED.map(|spec| spec());
            smallest(suite.iter().map(|s| DELIVERED(&r.at(&tune_label(PB, s, "controller")))))
        },
    ),
];
