//! Checkpoint/restore and streaming-export contract tests.
//!
//! The contract under test (DESIGN.md §13): a run that is killed mid-way
//! and resumed from its newest checkpoint produces **byte-identical**
//! artifacts — streamed JSONL trace, `.erpd` delivery log, and final
//! metrics to the bit — to the same run uninterrupted, in all four
//! network modes.
//! And corruption of a snapshot (truncation, bit flips, version or config
//! mismatch) is always *detected*, falling back to the previous good
//! checkpoint rather than panicking or restoring garbage.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::desim::rng::Pcg32;
use erapid_suite::desim::snap::{SnapError, SnapWriter};
use erapid_suite::erapid_core::checkpoint::{
    self, config_fingerprint, decode_snapshot, encode_snapshot, resume_latest, Checkpointer,
};
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::stream::{
    read_deliveries, run_streaming, StreamCursor, StreamPaths, StreamSink,
};
use erapid_suite::erapid_core::system::System;
use erapid_suite::erapid_telemetry::TraceConfig;
use erapid_suite::erapid_tune::{ControllerSpec, ThresholdController};
use erapid_suite::erapid_workloads::ScenarioSpec;
use erapid_suite::traffic::pattern::TrafficPattern;
use erapid_suite::traffic::trace::InjectionTrace;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};

const WINDOW: u64 = 2000;

fn cfg(mode: NetworkMode) -> SystemConfig {
    let mut c = SystemConfig::small(mode);
    c.trace = TraceConfig::on();
    c.packet_log = true;
    c
}

/// 2 warm-up windows, 8 measured, capped at 14 — several checkpoints and
/// DBR rounds within a fast test run.
fn full_plan() -> PhasePlan {
    PhasePlan::new(2 * WINDOW, 8 * WINDOW).with_max_cycles(14 * WINDOW)
}

fn build(mode: NetworkMode, plan: PhasePlan) -> System {
    System::new(cfg(mode), TrafficPattern::Complement, 0.5, plan)
}

/// The count `run_streaming`'s frozen signature still takes (ignored).
const ONE: NonZeroUsize = NonZeroUsize::MIN;

fn tdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("erapid-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create test dir");
    d
}

fn paths(dir: &Path) -> StreamPaths {
    StreamPaths {
        trace: Some(dir.join("trace.jsonl")),
        deliveries: Some(dir.join("deliv.erpd")),
    }
}

/// Everything observable about a streamed run, exact.
#[derive(PartialEq, Debug)]
struct Artifacts {
    trace: Vec<u8>,
    deliv: Vec<u8>,
    injected: u64,
    delivered: u64,
    throughput_bits: u64,
    latency_bits: u64,
    power_bits: u64,
    cycles: u64,
    controller: Option<ThresholdController>,
}

fn artifacts(sys: &System, end: u64, p: &StreamPaths) -> Artifacts {
    let m = sys.metrics();
    Artifacts {
        trace: std::fs::read(p.trace.as_deref().expect("path")).expect("read trace"),
        deliv: std::fs::read(p.deliveries.as_deref().expect("path")).expect("read deliv"),
        injected: m.injected_total,
        delivered: m.delivered_total,
        throughput_bits: m.throughput_ppc().to_bits(),
        latency_bits: m.mean_latency().to_bits(),
        power_bits: m.average_power_mw().to_bits(),
        cycles: end,
        controller: sys.controller().cloned(),
    }
}

/// Builds the system under test for a plan (the crash leg caps it).
type Build<'a> = &'a dyn Fn(PhasePlan) -> System;

/// The uninterrupted reference run.
fn run_full(build: Build, dir: &Path) -> Artifacts {
    let p = paths(dir);
    let mut sys = build(full_plan());
    let mut sink = StreamSink::create(&p).expect("create sink");
    let end = run_streaming(&mut sys, ONE, &mut sink, None).expect("stream run");
    sink.finalize().expect("finalize");
    artifacts(&sys, end, &p)
}

/// The crash leg: run with checkpoints until `kill_at`, drop everything
/// unfinalized (the on-disk state a SIGKILL leaves: checkpoints at
/// cadence plus un-checkpointed stream tail). Returns the checkpoint dir.
fn run_killed(build: Build, dir: &Path, kill_at: u64, every_windows: u64) -> PathBuf {
    let p = paths(dir);
    let ckpt_dir = dir.join("ckpt");
    let mut sys = build(full_plan().with_max_cycles(kill_at));
    let mut sink = StreamSink::create(&p).expect("create sink");
    let mut ck = Checkpointer::new(&ckpt_dir, every_windows, WINDOW).expect("checkpointer");
    run_streaming(&mut sys, ONE, &mut sink, Some(&mut ck)).expect("killed leg");
    assert!(ck.written_count() > 0, "kill_at must lie past a checkpoint");
    // No finalize, no trailer: the crash.
    ckpt_dir
}

/// The resume leg: fresh identical system, newest valid checkpoint, files
/// truncated to its cursor, run to the end.
fn run_resumed(build: Build, dir: &Path, every_windows: u64) -> Artifacts {
    let p = paths(dir);
    let ckpt_dir = dir.join("ckpt");
    let mut sys = build(full_plan());
    let (_, cursor) = resume_latest(&mut sys, &ckpt_dir).expect("no checkpoint to resume");
    assert!(sys.now() > 0, "restore must land mid-run");
    let mut sink = StreamSink::resume(&p, cursor).expect("reopen sink");
    let mut ck = Checkpointer::new(&ckpt_dir, every_windows, WINDOW).expect("checkpointer");
    let end = run_streaming(&mut sys, ONE, &mut sink, Some(&mut ck)).expect("resume leg");
    sink.finalize().expect("finalize");
    artifacts(&sys, end, &p)
}

/// Kills a checkpoint-every-window run at `kill_at`, resumes it, and
/// asserts it equals the uninterrupted run; returns the latter.
fn kill_resume_equals_full(build: Build, kill_at: u64, tag: &str) -> Artifacts {
    let full_dir = tdir(&format!("{tag}-full"));
    let crash_dir = tdir(&format!("{tag}-crash"));
    let full = run_full(build, &full_dir);
    run_killed(build, &crash_dir, kill_at, 1);
    let resumed = run_resumed(build, &crash_dir, 1);
    assert_eq!(
        full, resumed,
        "[{tag}] killed+resumed run diverged (kill at {kill_at})"
    );
    // The streamed delivery log itself must verify and decode.
    let back = read_deliveries(paths(&full_dir).deliveries.as_deref().expect("path"))
        .expect("delivery log verifies");
    assert_eq!(back.len() as u64, full.delivered);
    let _ = std::fs::remove_dir_all(full_dir);
    let _ = std::fs::remove_dir_all(crash_dir);
    full
}

/// The golden pin of the tentpole contract: kill mid-window at 60 % of
/// the horizon, resume, byte-identical.
///
/// Then the window-transient claim: a snapshot holds neither the closed
/// window's `Link_util` nor its `Buffer_util`, because only the boundary
/// that rolled them reads them. Both DPM modes resume from the checkpoint
/// at a Power boundary (7 `R_w`) and at a Bandwidth boundary (8 `R_w`), at
/// a uniform load where DPM's decisions turn on `Link_util`.
#[test]
fn golden_kill_resume_byte_identical_sequential() {
    let build = |plan| build(NetworkMode::PB, plan);
    kill_resume_equals_full(&build, 8 * WINDOW + 777, "gold-seq");
    for mode in [NetworkMode::PB, NetworkMode::PNb] {
        let build = |plan| System::new(cfg(mode), TrafficPattern::Uniform, 0.3, plan);
        for (kill_at, kind) in [(7 * WINDOW + 777, "power"), (8 * WINDOW + 777, "bandwidth")] {
            kill_resume_equals_full(&build, kill_at, &format!("transient-{mode:?}-{kind}"));
        }
    }
}

/// The kill/resume contract holds with the scenario engine driving
/// injection: its per-node RNG streams ride the snapshot, so a resumed
/// run's stream continues exactly where the killed run stopped — every
/// scenario.
#[test]
fn scenario_kill_resume_byte_identical() {
    for spec in &ScenarioSpec::paper_suite() {
        let build = |plan| {
            let mut c = cfg(NetworkMode::PB);
            c.scenario = Some(spec.clone());
            System::new(c, TrafficPattern::Uniform, 0.5, plan)
        };
        kill_resume_equals_full(&build, 8 * WINDOW + 777, &format!("scen-{}", spec.name()));
    }
}

/// The kill/resume contract holds with the online threshold controller
/// live on a scenario workload: the controller's milli-unit thresholds and
/// counters ride the snapshot (tag `TUNC`), and the restore retargets the
/// DBR buffer watches to the restored `B_max`, so a resumed run adapts
/// exactly like the uninterrupted one (its state is part of `Artifacts`).
#[test]
fn controller_kill_resume_byte_identical() {
    let build = |plan| {
        let mut c = cfg(NetworkMode::PB);
        c.scenario = Some(ScenarioSpec::incast());
        c.tune = Some(ControllerSpec::paper_pb());
        System::new(c, TrafficPattern::Uniform, 0.5, plan)
    };
    let full = kill_resume_equals_full(&build, 8 * WINDOW + 777, "tune");
    let ctrl = full.controller.expect("controller is on");
    assert!(
        ctrl.windows_seen() > 0,
        "controller must observe windows in the reference run"
    );
}

/// A replayed run resumes byte-identically too: the snapshot's source
/// section holds the replay cursor. A replay-fed system refuses a
/// generator-fed snapshot of the same config as a typed mismatch.
#[test]
fn replay_kill_resume_byte_identical() {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/collective_b4d4.ertr");
    let trace = InjectionTrace::load(&path).expect("fixture loads");
    // Kill mid-trace, past the first checkpoint.
    let kill_at = WINDOW + 777;
    assert!(trace.entries.iter().any(|e| e.cycle > kill_at));
    for mode in [NetworkMode::NpNb, NetworkMode::PB] {
        let replayed = |plan| System::with_trace(cfg(mode), trace.replayer(), plan);
        let full = kill_resume_equals_full(&replayed, kill_at, &format!("replay-{mode:?}"));
        assert!(full.injected > 0);

        let live = build(mode, full_plan());
        let bytes = encode_snapshot(&live, StreamCursor::start()).expect("encode");
        assert!(matches!(
            checkpoint::restore_system(&mut replayed(full_plan()), &bytes),
            Err(SnapError::Mismatch(_))
        ));
    }
}

/// Kill at two seeded-random cycles in every mode: resume equivalence is
/// not a property of one lucky cycle.
#[test]
fn kill_at_random_window_all_modes() {
    let mut rng = Pcg32::new(0x0C0FFEE5, 7);
    for mode in [
        NetworkMode::NpNb,
        NetworkMode::PNb,
        NetworkMode::NpB,
        NetworkMode::PB,
    ] {
        for leg in 0..2 {
            // Past the first checkpoint (window 1), inside the horizon.
            let kill_at = WINDOW + 500 + rng.below((9 * WINDOW) as u32) as u64;
            let build = |plan| build(mode, plan);
            kill_resume_equals_full(&build, kill_at, &format!("rand-{mode:?}-{leg}"));
        }
    }
}

/// `System::save_state`'s bytes: everything a snapshot restores.
fn state_bytes(sys: &System) -> Vec<u8> {
    let mut w = SnapWriter::new();
    sys.save_state(&mut w).expect("save state");
    w.into_bytes()
}

/// Snapshot corruption property: truncating or bit-flipping the newest
/// snapshot at a random offset is always detected, and the fallback chain
/// serves the previous good checkpoint instead. A snapshot refused on its
/// checksum or config fingerprint leaves the system it was offered to
/// exactly as built, which is what lets `resume_latest` try the next one
/// without rebuilding.
#[test]
fn corrupt_snapshot_always_detected_with_fallback() {
    let dir = tdir("corrupt");
    let build = |plan| build(NetworkMode::PB, plan);
    let ckpt_dir = run_killed(&build, &dir, 9 * WINDOW + 50, 2);
    let config = cfg(NetworkMode::PB);
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&ckpt_dir)
        .expect("list")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ersp"))
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "need a fallback candidate");
    let newest = snaps.last().expect("newest").clone();
    let older = snaps[snaps.len() - 2].clone();
    let pristine = std::fs::read(&newest).expect("read newest");
    let as_built = state_bytes(&build(full_plan()));

    let mut rng = Pcg32::new(0xBADC_0DE5, 3);
    for trial in 0..40 {
        let mut bytes = pristine.clone();
        if rng.bernoulli(0.5) {
            bytes.truncate(rng.below(bytes.len() as u32) as usize);
        } else {
            let at = rng.below(bytes.len() as u32) as usize;
            bytes[at] ^= 1 << rng.below(8);
        }
        std::fs::write(&newest, &bytes).expect("write corrupted");
        let fp = config_fingerprint(&config);
        assert!(
            decode_snapshot(&bytes, fp).is_err(),
            "trial {trial}: corruption not detected"
        );
        let mut offered = build(full_plan());
        assert!(checkpoint::restore_system(&mut offered, &bytes).is_err());
        assert_eq!(
            state_bytes(&offered),
            as_built,
            "trial {trial}: a refused snapshot changed the system"
        );
        let (valid, _) = resume_latest(&mut build(full_plan()), &ckpt_dir)
            .unwrap_or_else(|| panic!("trial {trial}: fallback chain came up empty"));
        assert_eq!(
            valid, older,
            "trial {trial}: fallback picked wrong snapshot"
        );
    }
    // A good snapshot offered to another config's system: refused on the
    // fingerprint, and that system too stays as built.
    let other = || {
        System::new(
            cfg(NetworkMode::NpNb),
            TrafficPattern::Complement,
            0.5,
            full_plan(),
        )
    };
    let mut offered = other();
    assert!(matches!(
        checkpoint::restore_system(&mut offered, &std::fs::read(&older).expect("read older")),
        Err(SnapError::Mismatch(_))
    ));
    assert_eq!(state_bytes(&offered), state_bytes(&other()));

    // End-to-end through the fallback: with the newest snapshot corrupt,
    // the resume (from the *older* checkpoint) still reproduces the
    // uninterrupted run byte-for-byte.
    let full_dir = tdir("corrupt-full");
    let full = run_full(&build, &full_dir);
    let resumed = run_resumed(&build, &dir, 2);
    assert_eq!(full, resumed);

    // Every snapshot corrupt (including any the resume leg just wrote)
    // -> clean None, not a panic.
    for e in std::fs::read_dir(&ckpt_dir).expect("list") {
        let p = e.expect("entry").path();
        if p.extension().is_some_and(|x| x == "ersp") {
            std::fs::write(p, b"ERSPgarbage").expect("trash snapshot");
        }
    }
    assert!(resume_latest(&mut build(full_plan()), &ckpt_dir).is_none());
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(full_dir);
}

/// Resume while asleep: a saturated NP-NB complement run is checkpointed
/// at a cycle where blocked injectors are out of the boards' ready sets.
/// The ready set is not in the `.ersp`; the restore readies every non-idle
/// injector instead, and the resumed run must still reach the
/// uninterrupted run's metrics to the bit and its final snapshot to the
/// byte — which pins that ticking a blocked injector is a state-free no-op.
#[test]
fn resume_with_sleeping_injectors_is_bit_identical() {
    let saturated = || {
        System::new(
            SystemConfig::small(NetworkMode::NpNb),
            TrafficPattern::Complement,
            0.6,
            full_plan(),
        )
    };
    let asleep = |sys: &System| -> usize {
        (0..sys.config().boards)
            .map(|b| sys.board(b).sleeping_injectors())
            .sum()
    };
    let mut full = saturated();
    while full.now() < 5 * WINDOW + 137 || asleep(&full) == 0 {
        full.step();
        assert!(full.now() < 6 * WINDOW, "no injector ever slept");
    }
    let snap = encode_snapshot(&full, StreamCursor::start()).expect("NP-NB is always quiescent");
    let mut resumed = saturated();
    checkpoint::restore_system(&mut resumed, &snap).expect("restore");
    assert_eq!(resumed.now(), full.now());
    assert_eq!(
        asleep(&resumed),
        0,
        "restore must ready every non-idle injector"
    );
    assert_eq!(full.run(), resumed.run());
    let bits = |sys: &System| {
        let m = sys.metrics();
        (
            m.injected_total,
            m.delivered_total,
            m.throughput_ppc().to_bits(),
            m.mean_latency().to_bits(),
            m.average_power_mw().to_bits(),
        )
    };
    assert_eq!(bits(&full), bits(&resumed));
    assert_eq!(
        encode_snapshot(&full, StreamCursor::start()).expect("encode"),
        encode_snapshot(&resumed, StreamCursor::start()).expect("encode"),
        "final .ersp bytes diverged"
    );
}

/// Every DBR run has a live Lock-Step round after each Bandwidth
/// boundary; it finishes in `dbr_latency` ≪ `R_w`, so a boundary-cadence
/// checkpointer never meets one and a snapshot lands at *every* boundary.
#[test]
fn every_boundary_checkpoints_while_dbr_rounds_run() {
    let dir = tdir("every");
    let mut sys = build(NetworkMode::PB, full_plan());
    let mut sink = StreamSink::create(&paths(&dir)).expect("create sink");
    let mut ck = Checkpointer::new(dir.join("ckpt"), 1, WINDOW).expect("checkpointer");
    let end = run_streaming(&mut sys, ONE, &mut sink, Some(&mut ck)).expect("stream run");
    assert!(sys.srs().reconfig_counts().0 > 0, "rounds must have run");
    assert_eq!(
        ck.written_count(),
        (end - 1) / WINDOW,
        "a boundary was skipped"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// Version and config-fingerprint mismatches are typed errors.
#[test]
fn version_and_config_mismatch_rejected() {
    let sys = build(NetworkMode::PB, full_plan());
    let bytes = encode_snapshot(&sys, StreamCursor::start()).expect("encode");
    let fp = config_fingerprint(sys.config());

    // Pristine decodes.
    assert!(decode_snapshot(&bytes, fp).is_ok());

    // Wrong config fingerprint (e.g. a different mode's system).
    let other = config_fingerprint(&cfg(NetworkMode::NpNb));
    assert!(matches!(
        decode_snapshot(&bytes, other),
        Err(SnapError::Mismatch(_))
    ));

    // Future version: patch the version field and re-seal the checksum so
    // only the version check can object.
    let reseal = |b: &mut Vec<u8>| {
        b.truncate(b.len() - 8);
        *b = erapid_suite::desim::snap::seal(std::mem::take(b));
    };
    let mut future = bytes.clone();
    future[4] = 0xFF;
    reseal(&mut future);
    assert!(matches!(
        decode_snapshot(&future, fp),
        Err(SnapError::Version(0xFF))
    ));

    // Older layouts are refused, not misread: version 1 (the dense
    // per-laser SRS bank), version 2 (the frozen retired words and a
    // presence flag per injection source), version 3 (the f64 power fold),
    // version 4 (a high-water mark per router input VC), version 5 (the
    // trace ring, delivery rows and metric registry), version 6 (the
    // SRS's pending grants and the threshold-watch dirty set), version 7
    // (a source node in every flit and queued packet) and version 8 (the
    // unread counters, config geometry and dense latency histogram).
    for old in [1u16, 2, 3, 4, 5, 6, 7, 8] {
        let mut b = bytes.clone();
        b[4..6].copy_from_slice(&old.to_le_bytes());
        reseal(&mut b);
        assert!(matches!(
            decode_snapshot(&b, fp),
            Err(SnapError::Version(v)) if v == old
        ));
    }

    // A mutated slot. The SRS section opens with its tag and slot count;
    // receiver (0, λ0) is dark and unowned (13 bytes), then (0, λ1) is
    // owned and lit by board 1. Claiming it lit by board 2 (not the laser
    // it wants, and not queued to settle) or by a board past B is a typed
    // error.
    let srs_at = (bytes.windows(4))
        .position(|t| t == b"SRSS")
        .expect("SRS section");
    let lit_at = srs_at + 4 + 8 + 13 + 3;
    assert_eq!(bytes[lit_at - 3..lit_at + 3], [1, 1, 0, 1, 1, 0]);
    for lit_by in [2u16, 9] {
        let mut bad = bytes.clone();
        bad[lit_at + 1..lit_at + 3].copy_from_slice(&lit_by.to_le_bytes());
        reseal(&mut bad);
        let mut fresh = build(NetworkMode::PB, full_plan());
        assert!(
            matches!(
                checkpoint::restore_system(&mut fresh, &bad),
                Err(SnapError::Format(_))
            ),
            "slot (0, λ1) lit by {lit_by} must be refused"
        );
    }

    // Truncation below the checksum is Format, inside is Checksum.
    assert!(decode_snapshot(&bytes[..4], fp).is_err());
    assert!(matches!(
        decode_snapshot(&bytes[..bytes.len() - 1], fp),
        Err(SnapError::Checksum { .. })
    ));
}

/// A snapshot holds no observations: a traced system with a packet log
/// that still holds trace records or delivery rows refuses to checkpoint,
/// naming the drain it needs; once drained it checkpoints, and a restore
/// reproduces its state to the byte.
#[test]
fn undrained_observations_refuse_to_checkpoint() {
    let mut sys = build(NetworkMode::PB, full_plan());
    while sys.now() < 3 * WINDOW + WINDOW / 2 {
        sys.step();
    }
    assert!(sys.can_checkpoint(), "mid-window, no DBR round in flight");
    match encode_snapshot(&sys, StreamCursor::start()) {
        Err(SnapError::Mismatch(why)) => assert!(why.contains("drain_window"), "{why}"),
        other => panic!("undrained system checkpointed: {other:?}"),
    }
    let flush = sys.drain_window();
    assert!(!flush.records.is_empty() && !flush.packets.is_empty());
    let bytes = encode_snapshot(&sys, StreamCursor::start()).expect("drained system encodes");
    let mut restored = build(NetworkMode::PB, full_plan());
    checkpoint::restore_system(&mut restored, &bytes).expect("restore");
    assert_eq!(state_bytes(&restored), state_bytes(&sys));
}

/// A restored system overlaid onto a *differently-shaped* fresh system is
/// refused with a typed mismatch, not a panic: the board-count geometry
/// check fires before any state is trusted.
#[test]
fn restore_into_wrong_geometry_is_refused() {
    let src = build(NetworkMode::PB, full_plan());
    let bytes = encode_snapshot(&src, StreamCursor::start()).expect("encode");
    let mut wrong = System::new(
        {
            let mut c = cfg(NetworkMode::PB);
            c.boards = 8;
            c.timing.boards = 8;
            c
        },
        TrafficPattern::Complement,
        0.5,
        full_plan(),
    );
    assert!(checkpoint::restore_system(&mut wrong, &bytes).is_err());
}

/// A huge `ERAPID_CHECKPOINT_EVERY` saturates to a cadence that never
/// fires, instead of overflowing windows × cycles.
#[test]
fn huge_cadence_saturates_to_never() {
    let dir = tdir("huge-cadence");
    let mut ck = Checkpointer::new(&dir, u64::MAX, WINDOW).expect("checkpointer");
    let mut sys = build(NetworkMode::NpNb, full_plan());
    while sys.now() < WINDOW {
        sys.step();
    }
    assert!(!ck.due(&sys));
    assert!(!ck
        .maybe_checkpoint(&sys, StreamCursor::start())
        .expect("nothing to write"));
    assert_eq!(ck.written_count(), 0);
    let _ = std::fs::remove_dir_all(dir);
}
