//! Golden-trace regression suite: committed trace fixtures replayed
//! against pinned results.
//!
//! The fixtures under `tests/fixtures/` are small recorded workloads
//! (R(1,4,4), short horizon) in the versioned `.ertr` binary format. Each
//! test replays one against a fixed configuration and pins the outcome —
//! delivered count, mean latency, final per-LC power level — so any
//! behavioural drift in routing, DPM or DBR fails a test instead of
//! passing silently.
//!
//! Regenerate the fixtures (and reprint the pinned values) after an
//! *intentional* behaviour change with:
//!
//! ```text
//! cargo test --test replay -- --ignored regen_fixtures --nocapture
//! ```
//! then update the pins this file asserts.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::experiment::{run_once, trace_meta, RunResult};
use erapid_suite::erapid_core::runner::{run_points, RunPoint};
use erapid_suite::erapid_core::system::System;
use erapid_suite::traffic::pattern::TrafficPattern;
use erapid_suite::traffic::trace::InjectionTrace;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Short horizon: one warm-up window, two measured, hard cap well past
/// drain for these loads.
fn short_plan() -> PhasePlan {
    PhasePlan::new(2000, 4000).with_max_cycles(20_000)
}

/// The final power level of every lit LC, in deterministic (d, w) scan
/// order: the fingerprint DPM drift shows up in first.
fn final_lc_levels(sys: &System) -> Vec<u8> {
    let boards = sys.config().boards;
    let mut levels = Vec::new();
    for d in 0..boards {
        for w in 1..boards {
            if let Some(s) = sys.srs().owner(d, w) {
                levels.push(sys.srs().channel(s, d, w).level().0);
            }
        }
    }
    levels
}

/// Replays a fixture against `mode`, returning the headline result, the
/// final LC levels and the delivered count. Two runs of the same
/// deterministic replay: one through the public result path, one kept
/// alive to inspect the SRS state.
fn replay_fixture(name: &str, mode: NetworkMode) -> (RunResult, Vec<u8>, u64) {
    let trace = Arc::new(InjectionTrace::load(&fixture_path(name)).expect("fixture loads"));
    let replay = RunPoint::replay(SystemConfig::small(mode), Arc::clone(&trace), short_plan());
    let result = replay.run().result;
    let mut sys = System::with_trace(SystemConfig::small(mode), trace.replayer(), short_plan());
    sys.run();
    let delivered = sys.metrics().delivered_total;
    (result, final_lc_levels(&sys), delivered)
}

/// Regenerates the committed fixtures and prints the values the golden
/// tests pin. Run manually (see module docs); not part of `cargo test -q`.
#[test]
#[ignore = "fixture regeneration: run manually with --ignored --nocapture"]
fn regen_fixtures() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    for (name, pattern, load) in [
        ("uniform_b4d4.ertr", TrafficPattern::Uniform, 0.4),
        ("complement_b4d4.ertr", TrafficPattern::Complement, 0.6),
    ] {
        let mut cfg = SystemConfig::small(NetworkMode::NpNb);
        cfg.record_injections = true;
        let out = RunPoint::generate(cfg, pattern, load, short_plan()).run();
        let (result, mut trace) = (out.result, out.injections.unwrap());
        trace.meta.git_sha = "fixture".to_string();
        trace.save(&fixture_path(name)).unwrap();
        println!(
            "{name}: {} entries, checksum {:016x}, recording delivered {} (injected trace horizon {} cycles)",
            trace.entries.len(),
            trace.checksum(),
            result.cycles,
            trace.entries.last().map_or(0, |e| e.cycle),
        );
        for mode in NetworkMode::all() {
            let (r, levels, delivered) = replay_fixture(name, mode);
            println!(
                "  {:>5}: delivered {delivered}/{} (undrained {}), latency {:.9}, power {:.3}, grants {}, retunes {}, levels {:?}",
                mode.name(),
                trace.entries.len(),
                r.undrained,
                r.latency,
                r.power_mw,
                r.grants,
                r.retunes,
                levels
            );
        }
    }
}

/// Pin helper: latency to 1e-6, everything else exact.
fn assert_pinned(
    name: &str,
    mode: NetworkMode,
    delivered: u64,
    latency: f64,
    grants: u64,
    retunes: u64,
    levels: &[u8],
) {
    let (r, got_levels, got_delivered) = replay_fixture(name, mode);
    assert_eq!(r.undrained, 0, "{name}/{}: must drain", mode.name());
    assert_eq!(
        got_delivered,
        delivered,
        "{name}/{}: delivered count drifted",
        mode.name()
    );
    assert!(
        (r.latency - latency).abs() < 1e-6,
        "{name}/{}: mean latency drifted: {} vs pinned {latency}",
        mode.name(),
        r.latency
    );
    assert_eq!(
        (r.grants, r.retunes),
        (grants, retunes),
        "{name}/{}: reconfiguration activity drifted",
        mode.name()
    );
    assert_eq!(
        got_levels,
        levels,
        "{name}/{}: final LC power levels drifted",
        mode.name()
    );
}

#[test]
fn golden_fixtures_inject_fully_and_drain() {
    // Every trace entry due by end-of-run injects, in every mode. A run
    // that drains faster than the recording may end before the trace's
    // tail (the replayer stops with it); a run that ends later must have
    // consumed everything. Delivered ≤ injected because late unlabelled
    // packets can still be in flight; per-mode delivered counts are
    // pinned below.
    for (name, pattern) in [
        ("uniform_b4d4.ertr", "uniform"),
        ("complement_b4d4.ertr", "complement"),
    ] {
        let trace = InjectionTrace::load(&fixture_path(name)).expect("fixture loads");
        assert_eq!(trace.meta.pattern, pattern);
        assert_eq!((trace.meta.boards, trace.meta.nodes_per_board), (4, 4));
        for mode in NetworkMode::all() {
            let mut sys =
                System::with_trace(SystemConfig::small(mode), trace.replayer(), short_plan());
            let end = sys.run();
            let due = trace.entries.iter().filter(|e| e.cycle <= end).count() as u64;
            assert_eq!(
                sys.metrics().injected_total,
                due,
                "{name}/{}: every due trace entry must inject (run ended at {end})",
                mode.name()
            );
            assert!(
                sys.metrics().delivered_total <= due,
                "{name}/{}: delivered more than injected",
                mode.name()
            );
        }
    }
}

#[test]
fn golden_uniform_npnb() {
    let (delivered, latency, levels) = GOLDEN_UNIFORM_NPNB;
    assert_pinned(
        "uniform_b4d4.ertr",
        NetworkMode::NpNb,
        delivered,
        latency,
        0,
        0,
        &levels,
    );
}

#[test]
fn golden_uniform_pb() {
    let (delivered, latency, levels, grants, retunes) = GOLDEN_UNIFORM_PB;
    assert_pinned(
        "uniform_b4d4.ertr",
        NetworkMode::PB,
        delivered,
        latency,
        grants,
        retunes,
        &levels,
    );
}

#[test]
fn golden_complement_npnb() {
    let (delivered, latency, levels) = GOLDEN_COMPLEMENT_NPNB;
    assert_pinned(
        "complement_b4d4.ertr",
        NetworkMode::NpNb,
        delivered,
        latency,
        0,
        0,
        &levels,
    );
}

#[test]
fn golden_complement_npb() {
    let (delivered, latency, levels, grants, retunes) = GOLDEN_COMPLEMENT_NPB;
    assert_pinned(
        "complement_b4d4.ertr",
        NetworkMode::NpB,
        delivered,
        latency,
        grants,
        retunes,
        &levels,
    );
}

/// Recording a run does not perturb it, and replaying the recording
/// reproduces the original `RunResult` byte-identically — the acceptance
/// criterion of the replay harness.
#[test]
fn record_replay_reproduces_runresult_byte_identically() {
    let cfg = SystemConfig::small(NetworkMode::PB);
    let plain = run_once(cfg.clone(), TrafficPattern::Uniform, 0.4, short_plan());
    let recording = SystemConfig {
        record_injections: true,
        ..cfg.clone()
    };
    let out = RunPoint::generate(recording, TrafficPattern::Uniform, 0.4, short_plan()).run();
    let (recorded, trace) = (out.result, Arc::new(out.injections.unwrap()));
    assert_eq!(plain, recorded, "recording must not perturb the run");
    let replayed = RunPoint::replay(cfg, trace, short_plan()).run().result;
    assert_eq!(replayed, recorded, "replay must reproduce the recording");
}

/// Replaying a fixture through the parallel executor is byte-identical to
/// the sequential path, across all four modes at once.
#[test]
fn fixture_replay_parallel_matches_sequential() {
    let trace =
        Arc::new(InjectionTrace::load(&fixture_path("complement_b4d4.ertr")).expect("fixture"));
    let points = || -> Vec<RunPoint> {
        NetworkMode::all()
            .iter()
            .map(|&mode| {
                let mut cfg = SystemConfig::small(mode);
                cfg.packet_log = true;
                RunPoint::replay(cfg, Arc::clone(&trace), short_plan())
            })
            .collect()
    };
    let par = run_points(NonZeroUsize::new(4).unwrap(), points());
    let seq = run_points(NonZeroUsize::MIN, points());
    assert_eq!(par.len(), seq.len());
    for (mode, (p, s)) in NetworkMode::all().iter().zip(par.iter().zip(&seq)) {
        assert_eq!(p.result, s.result, "{}: RunResult diverged", mode.name());
        assert_eq!(
            p.trace.packets,
            s.trace.packets,
            "{}: packet log diverged",
            mode.name()
        );
    }
}

/// The writer reproduces every committed fixture byte for byte.
#[test]
fn fixtures_re_encode_byte_identically() {
    for name in [
        "uniform_b4d4.ertr",
        "complement_b4d4.ertr",
        "collective_b4d4.ertr",
    ] {
        let path = fixture_path(name);
        let on_disk = std::fs::read(&path).expect("fixture reads");
        let trace = InjectionTrace::load(&path).expect("fixture loads");
        assert_eq!(trace.to_binary(), on_disk, "{name}: writer bytes drifted");
    }
}

/// The provenance header a recording attaches matches its configuration.
#[test]
fn trace_meta_reflects_config() {
    let cfg = SystemConfig::small(NetworkMode::NpNb);
    let meta = trace_meta(&cfg, &TrafficPattern::Complement, 0.6);
    assert_eq!(meta.seed, cfg.seed);
    assert_eq!((meta.boards, meta.nodes_per_board), (4, 4));
    assert_eq!(meta.pattern, "complement");
    assert_eq!(meta.load, 0.6);
    assert_eq!(meta.git_sha, "unknown");
}

// ---- pinned golden values ------------------------------------------------
// Regenerate with: cargo test --test replay -- --ignored regen_fixtures
//   --nocapture
// Each pin is (delivered, mean_latency, final_lc_levels[, grants, retunes]).

const GOLDEN_UNIFORM_NPNB: (u64, f64, [u8; 12]) = (766, 67.917695473, [2; 12]);
const GOLDEN_UNIFORM_PB: (u64, f64, [u8; 12], u64, u64) = (
    779,
    94.827160494,
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],
    0,
    23,
);
const GOLDEN_COMPLEMENT_NPNB: (u64, f64, [u8; 12]) = (1353, 5229.564917127, [2; 12]);
const GOLDEN_COMPLEMENT_NPB: (u64, f64, [u8; 12], u64, u64) = (1342, 1800.116022099, [2; 12], 8, 0);
