//! Reproducibility: identical seeds give identical runs, different seeds
//! give statistically similar but non-identical runs, and traffic traces
//! replay exactly.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::experiment::RunResult;
use erapid_suite::erapid_core::runner::{run_points, RunPoint};
use erapid_suite::erapid_core::system::System;
use erapid_suite::traffic::pattern::TrafficPattern;
use erapid_suite::traffic::trace::{TraceMeta, TraceRecorder};

fn plan() -> PhasePlan {
    PhasePlan::new(2000, 4000).with_max_cycles(30_000)
}

/// A generated point under [`plan`].
fn point(cfg: SystemConfig, pattern: TrafficPattern, load: f64) -> RunPoint {
    RunPoint::generate(cfg, pattern, load, plan())
}

/// The points' results on `threads` run-level workers.
fn results_on(threads: usize, points: Vec<RunPoint>) -> Vec<RunResult> {
    use std::num::NonZeroUsize;
    let outs = run_points(NonZeroUsize::new(threads).unwrap(), points);
    outs.iter().map(|o| o.result).collect()
}

fn run_with_seed(seed: u64, mode: NetworkMode) -> (u64, u64, f64, f64, u64) {
    let mut cfg = SystemConfig::small(mode);
    cfg.seed = seed;
    let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.4, plan());
    let end = sys.run();
    let m = sys.metrics();
    (
        m.injected_total,
        m.delivered_total,
        m.throughput_ppc(),
        m.mean_latency(),
        end,
    )
}

#[test]
fn same_seed_same_run() {
    for mode in [NetworkMode::NpNb, NetworkMode::PB] {
        let a = run_with_seed(123, mode);
        let b = run_with_seed(123, mode);
        assert_eq!(a, b, "mode {:?} not reproducible", mode);
    }
}

#[test]
fn different_seeds_differ_but_agree_statistically() {
    let a = run_with_seed(1, NetworkMode::NpNb);
    let b = run_with_seed(2, NetworkMode::NpNb);
    assert_ne!(a.0, b.0, "different seeds must draw different traffic");
    // Throughput within 10% of each other (same offered load).
    let rel = (a.2 - b.2).abs() / a.2;
    assert!(rel < 0.10, "throughput divergence {rel}");
}

#[test]
fn mode_change_does_not_perturb_injection_draws() {
    // Per-node RNG streams: the traffic is a function of (seed, node) and
    // the cycle, not of the network configuration, so over the same fixed
    // horizon NP-NB and P-B see the exact same packet sequence. (Total
    // run lengths differ — drain time depends on the mode — so the
    // comparison is over a fixed number of cycles.)
    let horizon = 6000;
    let mut totals = Vec::new();
    for mode in [NetworkMode::NpNb, NetworkMode::PB] {
        let mut cfg = SystemConfig::small(mode);
        cfg.seed = 7;
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.4, plan());
        while sys.now() < horizon {
            sys.step();
        }
        totals.push(sys.metrics().injected_total);
    }
    assert_eq!(
        totals[0], totals[1],
        "injected totals must match across modes"
    );
}

#[test]
fn trace_record_replay_round_trip() {
    // Record the injections of a run's worth of generator draws, replay
    // them, and check the replayed sequence is identical.
    let mut gens =
        erapid_suite::traffic::generator::build_generators(16, &TrafficPattern::Uniform, 0.3, 9);
    let mut rec = TraceRecorder::new();
    for now in 0..5000u64 {
        for g in &mut gens {
            if let Some(req) = g.poll(now) {
                rec.record(now, req.src, req.dst).unwrap();
            }
        }
    }
    let total = rec.len();
    assert!(total > 1000, "enough traffic to be meaningful: {total}");
    let entries: Vec<_> = rec.entries().to_vec();
    let mut replay = rec.into_trace(TraceMeta::default()).replayer();
    let mut replayed = Vec::new();
    for now in 0..5000u64 {
        replayed.extend(replay.due(now));
    }
    assert_eq!(replayed.len(), total);
    assert_eq!(replayed, entries);
    assert!(replay.is_done());
}

#[test]
fn parallel_sweep_identical_to_sequential() {
    // The run-level executor must be invisible in the results: the same
    // sweep on 1 thread and on 4 threads returns the same RunResults —
    // every field, in the same order. The sweep holds generated points in
    // two modes and one small P-B point per workload scenario.
    use erapid_suite::erapid_core::experiment::default_plan;
    use erapid_suite::erapid_workloads::ScenarioSpec;
    let points = || -> Vec<RunPoint> {
        let mut points: Vec<RunPoint> = [NetworkMode::NpNb, NetworkMode::PB]
            .into_iter()
            .flat_map(|mode| [0.2, 0.5, 0.8].map(|load| (mode, load)))
            .map(|(mode, load)| {
                let mut cfg = SystemConfig::small(mode);
                cfg.seed = 11;
                let mut p = point(cfg, TrafficPattern::Complement, load);
                p.plan = default_plan(p.cfg.schedule.window);
                p
            })
            .collect();
        points.extend(ScenarioSpec::paper_suite().into_iter().map(|spec| {
            let mut cfg = SystemConfig::small(NetworkMode::PB);
            cfg.scenario = Some(spec);
            let mut p = point(cfg, TrafficPattern::Uniform, 0.6);
            // Past one storm and one collective phase, not to the drain cap.
            p.plan = PhasePlan::new(2000, 4000).with_max_cycles(8000);
            p
        }));
        points
    };
    let labels: Vec<String> = points()
        .iter()
        .map(|p| match &p.cfg.scenario {
            Some(spec) => format!("{} scenario", spec.name()),
            None => format!("{:?} load {}", p.cfg.mode, p.load),
        })
        .collect();
    let (seq, par) = (results_on(1, points()), results_on(4, points()));
    assert_eq!(seq.len(), par.len());
    for ((s, p), label) in seq.iter().zip(&par).zip(&labels) {
        // Full-struct equality: every field of every RunResult.
        assert_eq!(s, p, "{label} diverged under parallel execution");
        assert!(s.delivered > 0, "{label} delivered nothing");
    }
}

#[test]
fn same_seed_and_fault_plan_reproduce_the_run_exactly() {
    // A faulted run is still a pure function of (config, pattern, load,
    // plan): the FaultPlan travels inside the config, so replaying the
    // same plan with the same seed gives a byte-identical RunResult.
    use erapid_suite::erapid_core::experiment::run_once;
    use erapid_suite::erapid_core::faults::{FaultKind, FaultPlan};
    let faults = FaultPlan::new()
        .receiver_outage(3, 1, 3000, 9000)
        .at(
            5000,
            FaultKind::LcStuck {
                board: 0,
                dest: 3,
                wavelength: 1,
            },
        )
        .at(4010, FaultKind::TokenLoss { victim: 2 });
    for mode in [NetworkMode::NpB, NetworkMode::PB] {
        let mut cfg = SystemConfig::small(mode);
        cfg.seed = 17;
        cfg.faults = faults.clone();
        let a = run_once(cfg.clone(), TrafficPattern::Complement, 0.4, plan());
        let b = run_once(cfg, TrafficPattern::Complement, 0.4, plan());
        assert_eq!(a, b, "mode {mode:?} faulted run not reproducible");
    }
}

#[test]
fn parallel_sweep_identical_to_sequential_under_faults() {
    // The run-level executor must stay invisible when the points carry an
    // active fault schedule: 1-thread and 4-thread sweeps of faulted
    // configs return identical RunResults in identical order.
    use erapid_suite::erapid_core::faults::FaultPlan;
    let points = || -> Vec<RunPoint> {
        [0.2, 0.5, 0.8]
            .iter()
            .map(|&load| {
                let mut cfg = SystemConfig::small(NetworkMode::PB);
                cfg.seed = 11;
                cfg.faults = FaultPlan::relock_storm(9, cfg.boards, 2500, 5500, 6, 300)
                    .receiver_outage(3, 1, 3000, 6000);
                point(cfg, TrafficPattern::Complement, load)
            })
            .collect()
    };
    let (seq, par) = (results_on(1, points()), results_on(4, points()));
    assert_eq!(seq.len(), par.len());
    for (s, p) in seq.iter().zip(&par) {
        assert_eq!(
            s, p,
            "faulted load {} diverged under parallel execution",
            s.load
        );
    }
}

#[test]
fn board_step_buffer_reuse_conserves_deliveries() {
    // Regression for the zero-allocation hot path: driving a board through
    // `step_into` with one reused (dirty-capacity) buffer must produce the
    // exact same delivery stream as the allocating `step` wrapper — no
    // dropped, duplicated or reordered deliveries.
    use erapid_suite::desim::rng::Pcg32;
    use erapid_suite::erapid_core::board::Board;
    use erapid_suite::router::flit::{NodeId, PacketId};
    use erapid_suite::router::packet::QueuedPacket;

    let cfg = SystemConfig::small(NetworkMode::NpNb);
    let d = cfg.nodes_per_board as u32;
    let mut fresh = Board::new(&cfg, 0);
    let mut reused = Board::new(&cfg, 0);
    let mut rng = Pcg32::stream(0xB0A2D, 0);
    let mut scratch = Vec::new();
    let mut next_id = 0u64;
    let mut injected = 0u64;
    let mut delivered = 0u64;
    for now in 0..4000u64 {
        // Identical local-destination traffic into both boards (local
        // ejection is the path that produces `Delivered` records).
        if now < 3000 && rng.bernoulli(0.4) {
            let src = rng.below(d);
            let dst = rng.below(d);
            let pkt = QueuedPacket {
                id: PacketId(next_id),
                dst: NodeId(dst),
                flits: erapid_suite::router::PACKET_FLITS,
                injected_at: now,
                labelled: true,
            };
            next_id += 1;
            injected += 1;
            fresh.enqueue_node_packet(src as u16, pkt);
            reused.enqueue_node_packet(src as u16, pkt);
        }
        let a = fresh.step(now);
        scratch.clear();
        reused.step_into(now, &mut scratch);
        assert_eq!(a, scratch, "delivery stream diverged at cycle {now}");
        delivered += a.len() as u64;
    }
    assert!(
        delivered > 100,
        "test must exercise real traffic: {delivered}"
    );
    assert_eq!(
        delivered, injected,
        "buffer reuse dropped deliveries ({delivered}/{injected})"
    );
    assert!(fresh.is_idle() && reused.is_idle());
}

#[test]
fn observers_never_perturb_and_compose() {
    // The three observers are config fields, not run variants: one faulted
    // P-B complement point run under all eight on/off combinations gives
    // the same RunResult bit for bit, each output is present exactly when
    // its switch is on, and the all-on run's recording replays, traced, to
    // the same RunResult.
    use erapid_suite::erapid_core::experiment::TraceSource;
    use erapid_suite::erapid_core::faults::FaultPlan;
    use erapid_suite::erapid_telemetry::{TraceConfig, TraceEvent};
    use std::sync::Arc;
    fn bits(r: &RunResult) -> ([u64; 8], [u64; 8]) {
        let floats = [
            r.load,
            r.throughput,
            r.throughput_norm,
            r.latency,
            r.latency_p95,
            r.power_mw,
            r.src_path,
            r.tx_wait,
        ];
        let counts = [
            r.undrained,
            r.grants,
            r.retunes,
            r.ls_retries,
            r.ls_aborts,
            r.injected,
            r.delivered,
            r.cycles,
        ];
        (floats.map(f64::to_bits), counts)
    }
    let mk = |trace_on: bool, record: bool, packet_log: bool| {
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.seed = 37;
        cfg.faults = FaultPlan::relock_storm(9, cfg.boards, 2500, 5500, 6, 300)
            .receiver_outage(3, 1, 3000, 6000);
        cfg.trace = if trace_on {
            TraceConfig::on()
        } else {
            TraceConfig::off()
        };
        cfg.record_injections = record;
        cfg.packet_log = packet_log;
        point(cfg, TrafficPattern::Complement, 0.5)
    };
    let all_on = mk(true, true, true).run();
    assert!(all_on.result.grants > 0, "the point must exercise DBR");
    for mask in 0..8u8 {
        let (trace_on, record, packet_log) = (mask & 1 != 0, mask & 2 != 0, mask & 4 != 0);
        let out = mk(trace_on, record, packet_log).run();
        assert_eq!(
            bits(&out.result),
            bits(&all_on.result),
            "trace {trace_on}, record {record}, packet_log {packet_log} perturbed the run"
        );
        assert_eq!(out.injections.is_some(), record);
        assert_eq!(out.trace.records.is_empty(), !trace_on);
        // A traced run stamps every R_w boundary it crossed, once.
        let window = SystemConfig::small(NetworkMode::PB).schedule.window;
        let stamped = (out.trace.records.iter())
            .filter(|r| matches!(r.event, TraceEvent::WindowBoundary { .. }))
            .count() as u64;
        let crossed = (out.result.cycles - 1) / window;
        assert_eq!(stamped, if trace_on { crossed } else { 0 });
        assert_eq!(out.trace.packets.is_empty(), !packet_log);
    }
    let recording = Arc::new(all_on.injections.expect("recording was on"));
    assert_eq!(recording.entries.len() as u64, all_on.result.injected);
    let mut replay = mk(true, false, false);
    replay.source = TraceSource::Replay(recording);
    let replayed = replay.run();
    assert_eq!(bits(&replayed.result), bits(&all_on.result));
    // Measured, then pinned: the same packets under the same config emit
    // the same event stream whether generated or replayed.
    assert!(!replayed.trace.records.is_empty());
    assert_eq!(replayed.trace.records, all_on.trace.records);
    // The records compared include each window's gauges, and they are not
    // vacuous: some window saw flits buffered in a router.
    assert!(all_on.trace.records.iter().any(|r| matches!(
        r.event,
        TraceEvent::WindowBoundary { router_peak_flits, lasers_on, .. }
            if router_peak_flits > 0 && lasers_on > 0
    )));
}

#[test]
fn every_run_loop_is_the_same_engine() {
    // `run`, `run_profiled`, `run_with`, `run_sharded` and a hand loop over
    // `step` are thin callers of one cycle implementation: on a faulted,
    // traced P-B point they must agree on every observable, the hook must
    // fire once per cycle, and the profiler must fill every phase bucket
    // (`system.rs`'s `every_cycle_laps_each_phase_once_in_order` pins the
    // attribution itself, without a clock). The worker counts the two
    // frozen signatures still take are ignored: 8 and 2 change nothing,
    // and the hook stays on the calling thread.
    use erapid_suite::desim::Cycle;
    use erapid_suite::erapid_core::faults::FaultPlan;
    use erapid_suite::erapid_core::system::PhaseTimers;
    use erapid_suite::erapid_core::PacketDelivery;
    use erapid_suite::erapid_telemetry::{TraceConfig, TraceRecord};
    use std::num::NonZeroUsize;
    let mk = || {
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.seed = 31;
        cfg.packet_log = true;
        cfg.trace = TraceConfig::on();
        cfg.faults = FaultPlan::relock_storm(9, cfg.boards, 2500, 5500, 6, 300)
            .receiver_outage(3, 1, 3000, 6000);
        System::new(cfg, TrafficPattern::Complement, 0.5, plan())
    };
    // Final cycle, everything `RunResult` reads (f64s by bit pattern), the
    // reconfiguration counters, the event trace and the packet log.
    type Observed = (
        Cycle,
        Vec<u64>,
        (u64, u64),
        Vec<TraceRecord>,
        Vec<PacketDelivery>,
    );
    fn observe(mut sys: System, end: Cycle) -> Observed {
        let m = sys.metrics();
        let (ls_retries, ls_aborts) = sys.control_stats();
        let scalars = vec![
            m.throughput_ppc().to_bits(),
            m.mean_latency().to_bits(),
            m.latency.p95().unwrap_or(0.0).to_bits(),
            m.average_power_mw().to_bits(),
            m.src_path.mean().to_bits(),
            m.tx_wait.mean().to_bits(),
            m.tracker.outstanding(),
            m.injected_total,
            m.delivered_total,
            ls_retries,
            ls_aborts,
        ];
        assert_eq!(end, sys.now());
        let counts = sys.srs().reconfig_counts();
        (
            end,
            scalars,
            counts,
            sys.take_trace_records(),
            sys.take_packet_log(),
        )
    }
    let mut sys = mk();
    let end = sys.run();
    let reference = observe(sys, end);
    assert!(reference.2 .0 > 0, "the point must exercise DBR grants");
    assert!(!reference.3.is_empty() && !reference.4.is_empty());

    let mut sys = mk();
    let mut timers = PhaseTimers::default();
    let end = sys.run_profiled(&mut timers);
    assert_eq!(observe(sys, end), reference, "run_profiled diverged");
    for (name, bucket) in [
        ("reconfig", timers.reconfig),
        ("inject", timers.inject),
        ("route", timers.route),
        ("optical", timers.optical),
        ("stats", timers.stats),
    ] {
        assert!(!bucket.is_zero(), "phase bucket {name} is empty");
    }

    let mut sys = mk();
    let mut hooked = 0;
    let caller = std::thread::current().id();
    let end = sys.run_with(NonZeroUsize::new(8).unwrap(), &mut |s| {
        assert_eq!(s.now(), hooked, "hook runs before each cycle, in order");
        assert_eq!(std::thread::current().id(), caller);
        hooked += 1;
    });
    assert_eq!(hooked, end, "hook must run exactly once per cycle");
    assert_eq!(observe(sys, end), reference, "run_with(8) diverged");

    let mut sys = mk();
    let end = sys.run_sharded(NonZeroUsize::new(2).unwrap());
    assert_eq!(observe(sys, end), reference, "run_sharded(2) diverged");

    let mut sys = mk();
    let p = plan();
    while sys.now() < p.max_cycles && !sys.metrics().tracker.complete(&p, sys.now()) {
        sys.step();
    }
    let end = sys.now();
    assert_eq!(
        observe(sys, end),
        reference,
        "hand loop over step() diverged"
    );
}

#[test]
fn run_end_is_monotone_in_load() {
    // Saturated runs take longer to drain; the run loop must still
    // terminate thanks to the max_cycles cap.
    let mut cfg = SystemConfig::small(NetworkMode::NpNb);
    cfg.seed = 5;
    let mut sys = System::new(cfg, TrafficPattern::Complement, 0.9, plan());
    let end = sys.run();
    assert!(end <= plan().max_cycles);
}
