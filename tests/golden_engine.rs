//! Byte-identity pins for the cycle engine.
//!
//! The incremental hot path (occupancy counters, dirty-set watches,
//! active-set optical stepping — DESIGN.md §10) is only admissible if it
//! is *observationally identical* to the straightforward engine it
//! replaced. These fingerprints were captured from the pre-optimization
//! engine and pin the full observable outcome of sixteen generated runs
//! (B=4 and B=8, all four modes, uniform + complement), two fault-heavy
//! runs, two low-load paper64 runs whose DBR rounds re-decide wavelengths
//! they already moved, one traced run (event stream hash) and eight fixture replays at
//! B=8 (uniform/complement recordings plus the scenario-engine collective
//! fixture in all four modes) — including bit-exact f64 latency/power,
//! grant/retune/relock
//! counts and a hash of every channel's final owner/power/level state.
//!
//! Any divergence — even one ULP of power, one reordered trace event —
//! fails here. After an *intentional* behaviour change, reprint with:
//!
//! ```text
//! cargo test --test golden_engine -- --ignored regen_golden --nocapture
//! ```

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::desim::snap::{fnv1a_update, FNV_OFFSET};
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::faults::{FaultKind, FaultPlan};
use erapid_suite::erapid_core::system::System;
use erapid_suite::erapid_telemetry::TraceConfig;
use erapid_suite::traffic::pattern::TrafficPattern;
use erapid_suite::traffic::trace::InjectionTrace;
use std::path::PathBuf;

/// One warm-up window, two measured, a hard cap past drain: long enough
/// for several DBR rounds and DPM windows at every scale pinned here.
fn golden_plan() -> PhasePlan {
    PhasePlan::new(2000, 6000).with_max_cycles(30_000)
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Everything observable about a finished run, exact: counts as-is,
/// f64s by bit pattern, final optical state folded into one hash.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Fingerprint {
    injected: u64,
    delivered: u64,
    latency_bits: u64,
    power_bits: u64,
    grants: u64,
    retunes: u64,
    relocks: u64,
    ls_retries: u64,
    ls_aborts: u64,
    cycles: u64,
    lc_hash: u64,
}

/// FNV-1a over every (d, w) slot: ownership, power state and DPM level of
/// each channel, in the deterministic scan order.
fn lc_hash(sys: &System) -> u64 {
    let boards = sys.config().boards;
    let wavelengths = sys.config().wavelengths();
    let mut h = FNV_OFFSET;
    for d in 0..boards {
        for w in 0..wavelengths {
            match sys.srs().owner(d, w) {
                Some(s) => {
                    let c = sys.srs().channel(s, d, w);
                    h = fnv1a_update(h, &[1, s as u8, u8::from(c.is_on()), c.level().0]);
                }
                None => h = fnv1a_update(h, &[0]),
            }
        }
    }
    h
}

fn fingerprint_of(sys: &System) -> Fingerprint {
    let (grants, retunes) = sys.srs().reconfig_counts();
    let (ls_retries, ls_aborts) = sys.control_stats();
    Fingerprint {
        injected: sys.metrics().injected_total,
        delivered: sys.metrics().delivered_total,
        latency_bits: sys.metrics().mean_latency().to_bits(),
        power_bits: sys.metrics().average_power_mw().to_bits(),
        grants,
        retunes,
        relocks: sys.srs().relocks_applied(),
        ls_retries,
        ls_aborts,
        cycles: sys.now(),
        lc_hash: lc_hash(sys),
    }
}

fn fingerprint(mut sys: System) -> Fingerprint {
    sys.run();
    fingerprint_of(&sys)
}

/// A fault schedule exercising every recovery path the SRS has: receiver
/// loss/repair (ownership revoke + relight), CDR relock, a stuck-then-
/// repaired LC, and a transmitter outage (ownership retained).
fn faulted_small() -> SystemConfig {
    let mut cfg = SystemConfig::small(NetworkMode::PB);
    cfg.faults = FaultPlan::new()
        .at(
            2_500,
            FaultKind::ReceiverDown {
                board: 1,
                wavelength: 2,
            },
        )
        .at(
            4_200,
            FaultKind::CdrRelock {
                board: 0,
                dest: 3,
                wavelength: 1,
                penalty: 300,
            },
        )
        .at(
            5_000,
            FaultKind::LcStuck {
                board: 3,
                dest: 1,
                wavelength: 2,
            },
        )
        .at(
            6_500,
            FaultKind::ReceiverRepair {
                board: 1,
                wavelength: 2,
            },
        )
        .at(
            7_000,
            FaultKind::LcRepair {
                board: 3,
                dest: 1,
                wavelength: 2,
            },
        )
        .at(8_200, FaultKind::TransmitterDown { board: 2, dest: 0 })
        .at(9_500, FaultKind::TransmitterRepair { board: 2, dest: 0 });
    cfg
}

/// CDR relocks under light uniform load: unlike the saturated complement
/// case above (where the hot flow re-grabs the channel every time it goes
/// idle and the relock starves until drain — pinned as `b4-faults`),
/// gaps between packets let both relocks actually apply here.
fn relocked_small() -> SystemConfig {
    let mut cfg = SystemConfig::small(NetworkMode::PB);
    cfg.faults = FaultPlan::new()
        .at(
            3_000,
            FaultKind::CdrRelock {
                board: 0,
                dest: 3,
                wavelength: 1,
                penalty: 250,
            },
        )
        .at(
            3_500,
            FaultKind::CdrRelock {
                board: 2,
                dest: 1,
                wavelength: 1,
                penalty: 400,
            },
        );
    cfg
}

/// Token-loss during paper64 P-B: the watchdog resend path racing live
/// DBR rounds under the message-level control plane's timing.
fn faulted_paper64() -> SystemConfig {
    let mut cfg = SystemConfig::paper64(NetworkMode::PB);
    cfg.faults = FaultPlan::new()
        .at(4_010, FaultKind::TokenLoss { victim: 3 })
        .at(
            5_500,
            FaultKind::ReceiverDown {
                board: 2,
                wavelength: 5,
            },
        )
        .at(
            9_000,
            FaultKind::ReceiverRepair {
                board: 2,
                wavelength: 5,
            },
        );
    cfg
}

/// The paper-claims plan (2 warm-up + 4 measured windows): long enough for
/// DBR to hand one source a second wavelength toward a destination and
/// then decide about it again — the ownership shape the `p64-*` pins need.
fn p64_plan() -> PhasePlan {
    PhasePlan::new(4000, 8000).with_max_cycles(40_000)
}

/// The generated-traffic grid: name, config, pattern, load, plan.
fn generated_cases() -> Vec<(String, SystemConfig, TrafficPattern, f64, PhasePlan)> {
    let mut cases = Vec::new();
    for (scale, make) in [
        ("b4", SystemConfig::small as fn(NetworkMode) -> SystemConfig),
        (
            "b8",
            SystemConfig::paper64 as fn(NetworkMode) -> SystemConfig,
        ),
    ] {
        for mode in NetworkMode::all() {
            for (pname, pattern, load) in [
                ("uniform", TrafficPattern::Uniform, 0.5),
                ("complement", TrafficPattern::Complement, 0.6),
            ] {
                cases.push((
                    format!("{scale}-{}-{pname}", mode.name()),
                    make(mode),
                    pattern.clone(),
                    load,
                    golden_plan(),
                ));
            }
        }
    }
    cases.push((
        "b4-faults".into(),
        faulted_small(),
        TrafficPattern::Complement,
        0.6,
        golden_plan(),
    ));
    cases.push((
        "b8-faults".into(),
        faulted_paper64(),
        TrafficPattern::Complement,
        0.6,
        golden_plan(),
    ));
    cases.push((
        "b4-relocks".into(),
        relocked_small(),
        TrafficPattern::Uniform,
        0.4,
        golden_plan(),
    ));
    // Low-load points where an earlier round has already moved wavelengths,
    // so a source holds several toward one destination when the next round
    // collects its Board Requests. Recorded under the analytic plane; a
    // round that under-reports those channels grants less (35 and 21).
    for mode in [NetworkMode::PB, NetworkMode::NpB] {
        cases.push((
            format!("p64-{}-butterfly-0.2", mode.name()),
            SystemConfig::paper64(mode),
            TrafficPattern::Butterfly,
            0.2,
            p64_plan(),
        ));
    }
    cases
}

fn run_generated(
    cfg: SystemConfig,
    pattern: TrafficPattern,
    load: f64,
    plan: PhasePlan,
) -> Fingerprint {
    fingerprint(System::new(cfg, pattern, load, plan))
}

/// Controller-on runs: the online threshold controller (`erapid-tune`,
/// DESIGN.md §15) live-adapting `L_min`/`L_max`/`B_max` at every window
/// boundary, driven by the two hostile scenario generators it was built
/// for. Pinned in both power-aware modes: any drift in the controller's
/// integer decision rule, its observation joins, or its placement in the
/// sequential prologue shows up here as a diverged retune count, power
/// bit-pattern or final LC-level hash.
fn controller_cases() -> Vec<(String, SystemConfig)> {
    use erapid_suite::erapid_tune::ControllerSpec;
    use erapid_suite::erapid_workloads::ScenarioSpec;
    let mut cases = Vec::new();
    for mode in [NetworkMode::PNb, NetworkMode::PB] {
        for scenario in [ScenarioSpec::hotspot(), ScenarioSpec::incast()] {
            let mut cfg = SystemConfig::small(mode);
            let sname = scenario.name().to_string();
            cfg.scenario = Some(scenario);
            cfg.tune = Some(match mode {
                NetworkMode::PNb => ControllerSpec::paper_pnb(),
                _ => ControllerSpec::paper_pb(),
            });
            cases.push((format!("b4-ctl-{}-{sname}", mode.name()), cfg));
        }
    }
    cases
}

fn run_controller(cfg: SystemConfig) -> Fingerprint {
    fingerprint(System::new(
        cfg,
        TrafficPattern::Uniform,
        0.5,
        golden_plan(),
    ))
}

/// The B=4 fixtures replayed into the B=8 system: trace node ids 0..16
/// are valid sources in the 64-node topology, so the replay exercises the
/// optimized engine on a sparse active set (48 nodes permanently idle).
/// The collective fixture (recorded from the `erapid-workloads` phased
/// all-to-all generator, see `regen_collective_fixture`) is pinned in all
/// four modes: its comm/compute phasing is the traffic shape DPM windows
/// and DBR rounds react to hardest.
fn replay_cases() -> Vec<(String, NetworkMode, &'static str)> {
    let mut cases = Vec::new();
    for &mode in &[NetworkMode::NpNb, NetworkMode::PB] {
        for name in ["uniform_b4d4.ertr", "complement_b4d4.ertr"] {
            cases.push((format!("b8-replay-{}-{name}", mode.name()), mode, name));
        }
    }
    for mode in NetworkMode::all() {
        let name = "collective_b4d4.ertr";
        cases.push((format!("b8-replay-{}-{name}", mode.name()), mode, name));
    }
    cases
}

fn run_replay(mode: NetworkMode, fixture: &str) -> Fingerprint {
    let trace = InjectionTrace::load(&fixture_path(fixture)).expect("fixture loads");
    let cfg = SystemConfig::paper64(mode);
    fingerprint(System::with_trace(cfg, trace.replayer(), golden_plan()))
}

/// Traced run: the full event stream folded into (count, hash over
/// (at, tag)). Pins event *order*, not just aggregate counts — the
/// active-set rework must emit retunes/relocks/watch crossings in the
/// exact sequence the full scans did.
fn traced_fingerprint() -> (Fingerprint, u64, u64) {
    let mut cfg = SystemConfig::small(NetworkMode::PB);
    cfg.trace = TraceConfig::on();
    let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.5, golden_plan());
    sys.run();
    let records = sys.take_trace_records();
    assert_eq!(sys.trace_dropped(), 0, "trace ring overflowed; widen it");
    let mut h = FNV_OFFSET;
    for r in &records {
        h = fnv1a_update(h, &r.at.to_le_bytes());
        h = fnv1a_update(h, r.event.tag().as_bytes());
    }
    let count = records.len() as u64;
    let fp = fingerprint_of(&sys);
    (fp, count, h)
}

/// Regenerates `tests/fixtures/collective_b4d4.ertr` from the scenario
/// engine: a recorded R(1,4,4) run driven by the phased ML-collective
/// generator at load 0.6 (the `scenarios` bench's operating point). Run
/// manually after an intentional generator change, then reprint the pins
/// with `regen_golden`.
#[test]
#[ignore = "fixture regeneration: run manually with --ignored --nocapture"]
fn regen_collective_fixture() {
    use erapid_suite::erapid_core::runner::RunPoint;
    use erapid_suite::erapid_workloads::ScenarioSpec;
    let mut cfg = SystemConfig::small(NetworkMode::NpNb);
    cfg.scenario = Some(ScenarioSpec::collective());
    cfg.record_injections = true;
    let out = RunPoint::generate(cfg, TrafficPattern::Uniform, 0.6, golden_plan()).run();
    let (result, mut trace) = (out.result, out.injections.expect("recording was on"));
    trace.meta.pattern = "collective".to_string();
    trace.meta.git_sha = "fixture".to_string();
    trace
        .save(&fixture_path("collective_b4d4.ertr"))
        .expect("fixture saves");
    println!(
        "collective_b4d4.ertr: {} entries, checksum {:016x}, recording ran {} cycles (trace horizon {})",
        trace.entries.len(),
        trace.checksum(),
        result.cycles,
        trace.entries.last().map_or(0, |e| e.cycle),
    );
}

/// Prints the pin tables below. Run manually after an intentional
/// behaviour change (see module docs); not part of `cargo test -q`.
#[test]
#[ignore = "pin regeneration: run manually with --ignored --nocapture"]
fn regen_golden() {
    for (name, cfg, pattern, load, plan) in generated_cases() {
        let fp = run_generated(cfg, pattern, load, plan);
        println!("    (\"{name}\", {fp:?}),");
    }
    for (name, mode, fixture) in replay_cases() {
        let fp = run_replay(mode, fixture);
        println!("    (\"{name}\", {fp:?}),");
    }
    for (name, cfg) in controller_cases() {
        let fp = run_controller(cfg);
        println!("    (\"{name}\", {fp:?}),");
    }
    let (fp, count, hash) = traced_fingerprint();
    println!("    traced: {fp:?}");
    println!("    traced events: count {count}, hash 0x{hash:016x}");
}

/// Captured from the pre-optimization engine (commit f7f7755); the two
/// `p64-*` rows from commit 695a620, the last with the analytic DBR plane.
const GENERATED_PINS: &[(&str, Fingerprint)] = &[
    (
        "b4-NP-NB-uniform",
        Fingerprint {
            injected: 1301,
            delivered: 1279,
            latency_bits: 4635073002747693464,
            power_bits: 4643323966458576565,
            grants: 0,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8169,
            lc_hash: 11536056131337326453,
        },
    ),
    (
        "b4-NP-NB-complement",
        Fingerprint {
            injected: 4258,
            delivered: 1858,
            latency_bits: 4664002586129267394,
            power_bits: 4640865544100563124,
            grants: 0,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 22348,
            lc_hash: 11536056131337326453,
        },
    ),
    (
        "b4-NP-B-uniform",
        Fingerprint {
            injected: 1301,
            delivered: 1279,
            latency_bits: 4635073002747693464,
            power_bits: 4643323966458576565,
            grants: 0,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8169,
            lc_hash: 11536056131337326453,
        },
    ),
    (
        "b4-NP-B-complement",
        Fingerprint {
            injected: 1850,
            delivered: 1774,
            latency_bits: 4654469047818965667,
            power_bits: 4645782713562480325,
            grants: 8,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 9874,
            lc_hash: 14626239220255658325,
        },
    ),
    (
        "b4-P-NB-uniform",
        Fingerprint {
            injected: 1331,
            delivered: 1315,
            latency_bits: 4637313576712468142,
            power_bits: 4642095188450500801,
            grants: 0,
            retunes: 11,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8437,
            lc_hash: 6158754472550685448,
        },
    ),
    (
        "b4-P-NB-complement",
        Fingerprint {
            injected: 4258,
            delivered: 1858,
            latency_bits: 4664002586129267394,
            power_bits: 4640544240414647910,
            grants: 0,
            retunes: 16,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 22348,
            lc_hash: 1600836375910881173,
        },
    ),
    (
        "b4-P-B-uniform",
        Fingerprint {
            injected: 1399,
            delivered: 1352,
            latency_bits: 4640305378459036705,
            power_bits: 4640019754016794109,
            grants: 0,
            retunes: 23,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8893,
            lc_hash: 5139194829466049058,
        },
    ),
    (
        "b4-P-B-complement",
        Fingerprint {
            injected: 1850,
            delivered: 1774,
            latency_bits: 4654469047818965667,
            power_bits: 4645742168382178797,
            grants: 8,
            retunes: 8,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 9874,
            lc_hash: 14626239220255658325,
        },
    ),
    (
        "b8-NP-NB-uniform",
        Fingerprint {
            injected: 5419,
            delivered: 5354,
            latency_bits: 4635802705917813290,
            power_bits: 4653319156670180779,
            grants: 0,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8152,
            lc_hash: 1265245039024944501,
        },
    ),
    (
        "b8-NP-NB-complement",
        Fingerprint {
            injected: 23726,
            delivered: 4990,
            latency_bits: 4669807183673108629,
            power_bits: 4646580330552719573,
            grants: 0,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 30000,
            lc_hash: 1265245039024944501,
        },
    ),
    (
        "b8-NP-B-uniform",
        Fingerprint {
            injected: 5419,
            delivered: 5354,
            latency_bits: 4635802705917813290,
            power_bits: 4653319156670180779,
            grants: 0,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8152,
            lc_hash: 1265245039024944501,
        },
    ),
    (
        "b8-NP-B-complement",
        Fingerprint {
            injected: 8722,
            delivered: 7506,
            latency_bits: 4657606531641355833,
            power_bits: 4654378453097220919,
            grants: 48,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 10954,
            lc_hash: 6903895114697310141,
        },
    ),
    (
        "b8-P-NB-uniform",
        Fingerprint {
            injected: 5613,
            delivered: 5533,
            latency_bits: 4638076705078718360,
            power_bits: 4652608586228073154,
            grants: 0,
            retunes: 65,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8477,
            lc_hash: 5747318041601503090,
        },
    ),
    (
        "b8-P-NB-complement",
        Fingerprint {
            injected: 23726,
            delivered: 4990,
            latency_bits: 4669807183673108629,
            power_bits: 4645616419494973932,
            grants: 0,
            retunes: 96,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 30000,
            lc_hash: 2735149014479558613,
        },
    ),
    (
        "b8-P-B-uniform",
        Fingerprint {
            injected: 5979,
            delivered: 5797,
            latency_bits: 4640366734151032958,
            power_bits: 4650947264030826783,
            grants: 0,
            retunes: 91,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 9039,
            lc_hash: 1649908976039567788,
        },
    ),
    (
        "b8-P-B-complement",
        Fingerprint {
            injected: 8722,
            delivered: 7506,
            latency_bits: 4657606531641355833,
            power_bits: 4654316916298940622,
            grants: 48,
            retunes: 48,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 10954,
            lc_hash: 6903895114697310141,
        },
    ),
    (
        "b4-faults",
        Fingerprint {
            injected: 1943,
            delivered: 1808,
            latency_bits: 4655417670812743613,
            power_bits: 4645248968521722666,
            grants: 8,
            retunes: 8,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 10367,
            lc_hash: 14626239220255658325,
        },
    ),
    (
        "b8-faults",
        Fingerprint {
            injected: 8737,
            delivered: 7498,
            latency_bits: 4657669480696014345,
            power_bits: 4654270005040872272,
            grants: 48,
            retunes: 49,
            relocks: 0,
            ls_retries: 1,
            ls_aborts: 0,
            cycles: 10973,
            lc_hash: 18150037154205573281,
        },
    ),
    (
        "b4-relocks",
        Fingerprint {
            injected: 1071,
            delivered: 1055,
            latency_bits: 4638437869338929835,
            power_bits: 4639037897639189520,
            grants: 0,
            retunes: 23,
            relocks: 2,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8473,
            lc_hash: 5139194829466049058,
        },
    ),
    (
        "p64-P-B-butterfly-0.2",
        Fingerprint {
            injected: 3235,
            delivered: 3217,
            latency_bits: 4635549093913791559,
            power_bits: 4643797062066311170,
            grants: 42,
            retunes: 138,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 12371,
            lc_hash: 14286901229491661373,
        },
    ),
    (
        "p64-NP-B-butterfly-0.2",
        Fingerprint {
            injected: 3235,
            delivered: 3210,
            latency_bits: 4634889492914150323,
            power_bits: 4645365609522628483,
            grants: 24,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 12371,
            lc_hash: 5105397487481653437,
        },
    ),
];

const REPLAY_PINS: &[(&str, Fingerprint)] = &[
    (
        "b8-replay-NP-NB-uniform_b4d4.ertr",
        Fingerprint {
            injected: 784,
            delivered: 784,
            latency_bits: 4657523133475979264,
            power_bits: 4641319739159857857,
            grants: 0,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 10572,
            lc_hash: 1265245039024944501,
        },
    ),
    (
        "b8-replay-NP-NB-complement_b4d4.ertr",
        Fingerprint {
            injected: 3111,
            delivered: 1248,
            latency_bits: 4669588677593186848,
            power_bits: 4641319739159857857,
            grants: 0,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 30000,
            lc_hash: 1265245039024944501,
        },
    ),
    (
        "b8-replay-P-B-uniform_b4d4.ertr",
        Fingerprint {
            injected: 784,
            delivered: 784,
            latency_bits: 4648452106712252416,
            power_bits: 4640313801354814523,
            grants: 12,
            retunes: 109,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8000,
            lc_hash: 17841999265770884382,
        },
    ),
    (
        "b8-replay-P-B-complement_b4d4.ertr",
        Fingerprint {
            injected: 2031,
            delivered: 1827,
            latency_bits: 4657123217976035235,
            power_bits: 4646055558076600380,
            grants: 12,
            retunes: 96,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 10756,
            lc_hash: 16521307475194934587,
        },
    ),
    (
        "b8-replay-NP-NB-collective_b4d4.ertr",
        Fingerprint {
            injected: 2474,
            delivered: 2048,
            latency_bits: 4667313488903838167,
            power_bits: 4641319739159857857,
            grants: 0,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 26229,
            lc_hash: 1265245039024944501,
        },
    ),
    (
        "b8-replay-NP-B-collective_b4d4.ertr",
        Fingerprint {
            injected: 1659,
            delivered: 1659,
            latency_bits: 4653335456943225726,
            power_bits: 4645488073442557004,
            grants: 12,
            retunes: 0,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8000,
            lc_hash: 9883641789802648691,
        },
    ),
    (
        "b8-replay-P-NB-collective_b4d4.ertr",
        Fingerprint {
            injected: 2474,
            delivered: 2048,
            latency_bits: 4667313488903838167,
            power_bits: 4639150939279930163,
            grants: 0,
            retunes: 108,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 26229,
            lc_hash: 2944330337222417277,
        },
    ),
    (
        "b8-replay-P-B-collective_b4d4.ertr",
        Fingerprint {
            injected: 1659,
            delivered: 1659,
            latency_bits: 4653335456943225726,
            power_bits: 4644583114468749270,
            grants: 12,
            retunes: 96,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8000,
            lc_hash: 16521307475194934587,
        },
    ),
];

/// Controller-on scenario runs (see [`controller_cases`]).
const CONTROLLER_PINS: &[(&str, Fingerprint)] = &[
    (
        "b4-ctl-P-NB-hotspot",
        Fingerprint {
            injected: 1264,
            delivered: 1239,
            latency_bits: 4641016930414858556,
            power_bits: 4642433742342091851,
            grants: 0,
            retunes: 14,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8478,
            lc_hash: 7826037061746157341,
        },
    ),
    (
        "b4-ctl-P-NB-incast",
        Fingerprint {
            injected: 4184,
            delivered: 2803,
            latency_bits: 4662619224191110908,
            power_bits: 4640177234293539133,
            grants: 0,
            retunes: 29,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 21675,
            lc_hash: 1819073029482769536,
        },
    ),
    (
        "b4-ctl-P-B-hotspot",
        Fingerprint {
            injected: 1264,
            delivered: 1236,
            latency_bits: 4641426172040765964,
            power_bits: 4641974739194681661,
            grants: 0,
            retunes: 15,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 8478,
            lc_hash: 632281766696936106,
        },
    ),
    (
        "b4-ctl-P-B-incast",
        Fingerprint {
            injected: 4198,
            delivered: 2825,
            latency_bits: 4662628974373311463,
            power_bits: 4639867577854510222,
            grants: 0,
            retunes: 18,
            relocks: 0,
            ls_retries: 0,
            ls_aborts: 0,
            cycles: 21915,
            lc_hash: 12854156507887582875,
        },
    ),
];

const TRACED_PIN: (Fingerprint, u64, u64) = (
    Fingerprint {
        injected: 1399,
        delivered: 1352,
        latency_bits: 4640305378459036705,
        power_bits: 4640019754016794109,
        grants: 0,
        retunes: 23,
        relocks: 0,
        ls_retries: 0,
        ls_aborts: 0,
        cycles: 8893,
        lc_hash: 5139194829466049058,
    },
    64,
    0xa8ba_5cc6_d953_2f1c,
);

#[test]
fn generated_runs_match_pinned_fingerprints() {
    let cases = generated_cases();
    assert_eq!(cases.len(), GENERATED_PINS.len(), "pin table out of date");
    for ((name, cfg, pattern, load, plan), (pin_name, pin)) in cases.into_iter().zip(GENERATED_PINS)
    {
        assert_eq!(&name, pin_name, "pin table order drifted");
        let got = run_generated(cfg, pattern, load, plan);
        assert_eq!(&got, pin, "fingerprint diverged for {name}");
    }
}

#[test]
fn fixture_replays_match_pinned_fingerprints_at_b8() {
    let cases = replay_cases();
    assert_eq!(cases.len(), REPLAY_PINS.len(), "pin table out of date");
    for ((name, mode, fixture), (pin_name, pin)) in cases.into_iter().zip(REPLAY_PINS) {
        assert_eq!(&name, pin_name, "pin table order drifted");
        let got = run_replay(mode, fixture);
        assert_eq!(&got, pin, "fingerprint diverged for {name}");
    }
}

#[test]
fn controller_runs_match_pinned_fingerprints() {
    let cases = controller_cases();
    assert_eq!(cases.len(), CONTROLLER_PINS.len(), "pin table out of date");
    for ((name, cfg), (pin_name, pin)) in cases.into_iter().zip(CONTROLLER_PINS) {
        assert_eq!(&name, pin_name, "pin table order drifted");
        let got = run_controller(cfg);
        assert_eq!(&got, pin, "fingerprint diverged for {name}");
    }
}

#[test]
fn traced_event_stream_matches_pin() {
    let (fp, count, hash) = traced_fingerprint();
    assert_eq!(fp, TRACED_PIN.0, "traced run fingerprint diverged");
    assert_eq!(count, TRACED_PIN.1, "trace event count diverged");
    assert_eq!(hash, TRACED_PIN.2, "trace event stream order diverged");
}
