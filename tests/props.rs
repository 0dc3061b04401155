//! Randomized property tests on the core data structures and invariants
//! across crates.
//!
//! These were originally `proptest` properties; the build must now succeed
//! with no network access, so the cases are generated by the repo's own
//! deterministic [`desim::rng`] streams instead. Every test draws its cases
//! from a fixed-seed PCG32 stream, so failures reproduce exactly.

use erapid_suite::desim::phase::PhasePlan;
use erapid_suite::desim::queue::BinaryHeapQueue;
use erapid_suite::desim::rng::Pcg32;
use erapid_suite::erapid_core::config::{NetworkMode, SystemConfig};
use erapid_suite::erapid_core::runner::RunPoint;
use erapid_suite::netstats::histogram::Histogram;
use erapid_suite::netstats::meter::{IntMean, PowerMeter};
use erapid_suite::photonics::rwa::StaticRwa;
use erapid_suite::photonics::wavelength::{BoardId, Wavelength};
use erapid_suite::reconfig::alloc::{AllocPolicy, FlowDemand, IncomingLink};
use erapid_suite::traffic::capacity::CapacityModel;
use erapid_suite::traffic::pattern::TrafficPattern;
use erapid_suite::traffic::trace::{InjectionTrace, TraceMeta, TraceRecorder};
use std::sync::Arc;

/// `BinaryHeapQueue` against an in-test model (a `Vec` popped by
/// `min_by_key((time, seq))`) for any interleaving of inserts and pops:
/// pops come out time-ascending, and FIFO among equal timestamps — the
/// tie-break `Srs::try_transmit`'s direct inserts rely on (DESIGN.md §12).
#[test]
fn heap_queue_pops_time_ascending_fifo_among_ties() {
    let mut rng = Pcg32::stream(0xBEEF, 1);
    let mut ties = 0usize;
    for _case in 0..64 {
        let mut heap = BinaryHeapQueue::new();
        // (time, insertion seq); the seq doubles as the queued item.
        let mut model: Vec<(u64, usize)> = Vec::new();
        let mut last: Option<(u64, usize)> = None;
        let mut pop_both = |heap: &mut BinaryHeapQueue<usize>, model: &mut Vec<(u64, usize)>| {
            let expect = (0..model.len())
                .min_by_key(|&i| model[i])
                .map(|i| model.remove(i));
            let got = heap.pop();
            assert_eq!(got, expect);
            if got.is_some() {
                // Inserts never land before the last pop, so the whole pop
                // sequence is one strictly (time, insertion) ascending run.
                assert!(last < got, "popped {got:?} after {last:?}");
                ties += usize::from(last.map(|l| l.0) == got.map(|g| g.0));
                last = got;
            }
            got
        };
        let mut now = 0u64;
        let ops = 1 + rng.below(300) as usize;
        for seq in 0..ops {
            let op = rng.below(3);
            let t = now + rng.below(200) as u64;
            if op < 2 {
                heap.insert(t, seq);
                model.push((t, seq));
            } else if let Some((t, _)) = pop_both(&mut heap, &mut model) {
                now = t;
            }
            assert_eq!(heap.len(), model.len());
        }
        while pop_both(&mut heap, &mut model).is_some() {}
        assert!(model.is_empty() && heap.is_empty());
    }
    assert!(ties > 100, "only {ties} equal-timestamp pops exercised");
}

/// Static RWA is a bijection at every destination, for any board count.
#[test]
fn rwa_bijective() {
    for boards in 2u16..32 {
        let rwa = StaticRwa::new(boards);
        for d in 0..boards {
            let mut seen = vec![false; boards as usize];
            for s in 0..boards {
                if s == d {
                    continue;
                }
                let w = rwa.wavelength(BoardId(s), BoardId(d));
                assert!(w.0 >= 1 && w.0 < boards);
                assert!(!seen[w.index()]);
                seen[w.index()] = true;
                assert_eq!(rwa.static_owner(BoardId(d), w), BoardId(s));
            }
        }
    }
}

/// The allocator never grants a wavelength to its current owner, never
/// grants the same wavelength twice, and respects the grant limit.
#[test]
fn alloc_invariants() {
    let mut rng = Pcg32::stream(0xBEEF, 2);
    for _case in 0..256 {
        let n = 2 + rng.below(6) as usize;
        let utils: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let demands: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let limit = rng.below(6) as usize;
        let channels: Vec<IncomingLink> = (0..n)
            .map(|i| IncomingLink {
                wavelength: Wavelength(i as u16 + 1),
                owner: BoardId(i as u16),
                buffer_util: utils[i],
            })
            .collect();
        let flow_demands: Vec<FlowDemand> = (0..n)
            .map(|i| FlowDemand {
                source: BoardId(i as u16),
                buffer_util: demands[i],
            })
            .collect();
        let policy = AllocPolicy::paper().with_limit(limit);
        let grants = policy.reconfigure_with_demands(BoardId(99), &channels, &flow_demands);
        assert!(grants.len() <= limit);
        let mut seen = std::collections::HashSet::new();
        for g in &grants {
            assert_ne!(g.from, g.to, "self-grant");
            assert!(seen.insert(g.wavelength), "wavelength granted twice");
            // The recipient's demand is over-utilized.
            let demand = flow_demands.iter().find(|d| d.source == g.to).unwrap();
            assert!(demand.buffer_util > 0.3);
            // The donor's flow is under-utilized.
            let donor = flow_demands.iter().find(|d| d.source == g.from).unwrap();
            assert!(donor.buffer_util <= 0.0);
        }
    }
}

/// Permutation patterns are bijections on any power-of-two population.
#[test]
fn patterns_bijective() {
    for bits in 2u32..8 {
        let n = 1u32 << bits;
        let mut rng = Pcg32::stream(1, 1);
        for p in [
            TrafficPattern::Complement,
            TrafficPattern::Butterfly,
            TrafficPattern::PerfectShuffle,
            TrafficPattern::BitReversal,
            TrafficPattern::Tornado,
            TrafficPattern::Neighbour,
        ] {
            let mut seen = vec![false; n as usize];
            for src in 0..n {
                let d = p.dest(src, n, &mut rng);
                assert!(d < n);
                assert!(!seen[d as usize], "{} collides", p.name());
                seen[d as usize] = true;
            }
        }
    }
}

/// Histogram percentiles are monotone and bracket the recorded data.
#[test]
fn histogram_quantiles_monotone() {
    let mut rng = Pcg32::stream(0xBEEF, 3);
    for _case in 0..64 {
        let count = 1 + rng.below(200) as usize;
        let samples: Vec<f64> = (0..count).map(|_| rng.next_f64() * 1000.0).collect();
        let mut h = Histogram::new(128, 10.0);
        for &s in &samples {
            h.record(s);
        }
        let qs: Vec<f64> = [0.50, 0.95, 0.99]
            .map(|q| h.quantile(q, count as u64).expect("non-empty histogram"))
            .to_vec();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "percentiles must be monotone: {qs:?}");
        }
        // Each percentile resolves to a bin upper edge: above the minimum
        // sample, and at most one bin above the maximum (or +inf when the
        // maximum overflowed the last bin).
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0f64, f64::max);
        assert!(qs[0] > min, "p50 {} <= min {min}", qs[0]);
        assert!(
            qs[2] <= max + 10.0 || qs[2].is_infinite(),
            "p99 {} > max {max} + a bin",
            qs[2]
        );
    }
}

/// Reported accounting is order-free. Integer latencies pushed in two
/// random orders give a bit-identical mean equal to `sum / count`, and a
/// `PowerMeter` fed the same multiset of per-cycle lit-class vectors in
/// two orders gives a bit-identical average power.
#[test]
fn accounting_is_order_free() {
    let mut rng = Pcg32::stream(0xBEEF, 4);
    for _case in 0..64 {
        let n = rng.range(1, 400) as usize;
        let mut lat: Vec<u64> = (0..n).map(|_| u64::from(rng.below(20_000))).collect();
        let mean_of = |xs: &[u64]| {
            let mut m = IntMean::default();
            xs.iter().for_each(|&x| m.push(x));
            m.mean()
        };
        let first = mean_of(&lat);
        rng.shuffle(&mut lat);
        assert_eq!(first.to_bits(), mean_of(&lat).to_bits(), "latency mean");
        let exact = lat.iter().sum::<u64>() as f64 / n as f64;
        assert_eq!(first.to_bits(), exact.to_bits(), "mean != sum / count");

        let classes = rng.range(3, 8) as usize;
        let class_mw: Vec<f64> = (0..classes)
            .map(|c| if c == 0 { 0.0 } else { rng.next_f64() * 50.0 })
            .collect();
        let mut lit: Vec<Vec<u32>> = (0..n)
            .map(|_| (0..classes).map(|_| rng.below(1024)).collect())
            .collect();
        let power_of = |cycles: &[Vec<u32>]| {
            let mut m = PowerMeter::new(class_mw.clone());
            cycles.iter().for_each(|l| m.record(l));
            m.average_mw()
        };
        let first = power_of(&lit);
        rng.shuffle(&mut lit);
        assert_eq!(first.to_bits(), power_of(&lit).to_bits(), "average power");
    }
}

/// Capacity is positive, below the electrical bound, and monotone in
/// optical speed.
#[test]
fn capacity_sane() {
    let mut rng = Pcg32::stream(0xBEEF, 5);
    for _case in 0..256 {
        let boards = rng.range(2, 15);
        let nodes = rng.range(1, 15);
        let flit_cycles = rng.range(1, 19);
        let c = CapacityModel {
            boards,
            nodes_per_board: nodes,
            packet_flits: 8,
            flit_cycles,
        };
        let nc = c.uniform_capacity();
        assert!(nc > 0.0);
        assert!(nc <= c.electrical_bound() + 1e-12);
        let faster = CapacityModel {
            flit_cycles: flit_cycles.max(2) - 1,
            ..c
        };
        assert!(faster.uniform_capacity() >= nc - 1e-12);
    }
}

/// Uniform destinations never pick the source and cover the range.
#[test]
fn uniform_destination_valid() {
    let mut case_rng = Pcg32::stream(0xBEEF, 6);
    for _case in 0..256 {
        let n = case_rng.range(2, 200);
        let src = case_rng.below(n);
        let seed = case_rng.below(1000) as u64;
        let mut rng = Pcg32::stream(seed, 0);
        for _ in 0..50 {
            let d = TrafficPattern::Uniform.dest(src, n, &mut rng);
            assert!(d < n);
            assert_ne!(d, src);
        }
    }
}

/// Random monotone workloads survive record → binary → load with every
/// entry and the meta header intact.
#[test]
fn trace_roundtrip_binary() {
    let mut rng = Pcg32::stream(0xBEEF, 7);
    for case in 0..64 {
        let nodes = rng.range(2, 64);
        let mut recorder = TraceRecorder::new();
        let mut cycle = 0u64;
        for _ in 0..rng.below(200) {
            cycle += rng.below(50) as u64;
            let src = rng.below(nodes);
            let dst = (src + 1 + rng.below(nodes - 1)) % nodes;
            recorder.record(cycle, src, dst).unwrap();
        }
        let trace = recorder.into_trace(TraceMeta {
            seed: rng.below(1000) as u64,
            boards: rng.range(2, 9) as u16,
            nodes_per_board: rng.range(1, 9) as u16,
            pattern: ["uniform", "complement", "hotspot \"q\""][rng.below(3) as usize].to_string(),
            load: rng.next_f64(),
            git_sha: format!("sha{case}"),
        });
        let bin = InjectionTrace::from_binary(&trace.to_binary()).unwrap();
        assert_eq!(bin, trace, "binary round-trip, case {case}");
    }
}

/// The replayer releases entries exactly when due, in recorded order,
/// never early, and never loses one.
#[test]
fn replayer_is_monotone_and_lossless() {
    let mut rng = Pcg32::stream(0xBEEF, 8);
    for _case in 0..64 {
        let mut recorder = TraceRecorder::new();
        let mut cycle = rng.below(10) as u64;
        for _ in 0..1 + rng.below(150) {
            recorder
                .record(cycle, rng.below(16), rng.below(16))
                .unwrap();
            cycle += rng.below(4) as u64; // bursts: several entries per cycle
        }
        let entries = recorder.entries().to_vec();
        let mut replayer = recorder.into_trace(TraceMeta::default()).replayer();
        let mut popped = Vec::new();
        let mut now = 0u64;
        while !replayer.is_done() {
            let before = replayer.remaining();
            while let Some(e) = replayer.pop_due(now) {
                assert!(e.cycle <= now, "released early: {} > {now}", e.cycle);
                popped.push(e);
            }
            assert!(replayer.remaining() <= before);
            now += 1 + rng.below(3) as u64;
        }
        assert_eq!(popped, entries, "replay must preserve order and content");
    }
}

/// Record → replay closes exactly: replaying a recorded workload under the
/// recording configuration reproduces the original `RunResult`
/// byte-identically, for random modes, loads and seeds.
#[test]
fn record_replay_closes_for_random_points() {
    let mut rng = Pcg32::stream(0xBEEF, 9);
    for case in 0..4 {
        let mode = NetworkMode::all()[rng.below(4) as usize];
        let mut cfg = SystemConfig::small(mode);
        cfg.seed = 0xC0FFEE + rng.below(1000) as u64;
        let load = 0.2 + 0.4 * rng.next_f64();
        let plan = PhasePlan::new(2000, 2000).with_max_cycles(16_000);
        let recording = SystemConfig {
            record_injections: true,
            ..cfg.clone()
        };
        let recorded = RunPoint::generate(recording, TrafficPattern::Uniform, load, plan).run();
        let trace = Arc::new(recorded.injections.unwrap());
        let replayed = RunPoint::replay(cfg, trace, plan).run();
        assert_eq!(
            replayed.result,
            recorded.result,
            "case {case} ({} load {load:.3}): replay must close the loop",
            mode.name()
        );
    }
}

/// Packets are conserved under *random* fault plans: never more delivered
/// than injected on any cycle, and once the sources go quiet everything
/// injected is delivered — no outage, relock or token fault loses or
/// duplicates a packet — with the SRS's invariants
/// (`Srs::check_invariants`: at most one lit laser per
/// `(destination, wavelength)`, a lit non-owner only while a grant or
/// failure accounts for it, `owned` == owners, the lit-class counters ==
/// their recount, no sleeping flow with a sendable channel) intact on
/// every cycle. The plans mix receiver/transmitter
/// outages (with repairs), stuck LCs, CDR relocks and LS token faults at
/// random cycles.
#[test]
fn random_fault_plans_conserve_and_drain() {
    use erapid_suite::erapid_core::faults::{FaultKind, FaultPlan};
    use erapid_suite::erapid_core::System;

    let mut rng = Pcg32::stream(0xBEEF, 10);
    for case in 0..12u32 {
        let mode = NetworkMode::all()[rng.below(4) as usize];
        let mut cfg = SystemConfig::small(mode);
        cfg.seed = 0xFA17 + case as u64;
        let b = cfg.boards as u32;
        let mut plan_faults = FaultPlan::new();
        for _ in 0..2 + rng.below(5) {
            let at = 2_000 + rng.below(8_000) as u64;
            let board = rng.below(b) as u16;
            let dest = ((board as u32 + 1 + rng.below(b - 1)) % b) as u16;
            let wavelength = (1 + rng.below(b - 1)) as u16;
            let kind = match rng.below(6) {
                0 => FaultKind::ReceiverDown { board, wavelength },
                1 => FaultKind::TransmitterDown { board, dest },
                2 => FaultKind::LcStuck {
                    board,
                    dest,
                    wavelength,
                },
                3 => FaultKind::CdrRelock {
                    board,
                    dest,
                    wavelength,
                    penalty: 100 + rng.below(400) as u64,
                },
                4 => FaultKind::TokenLoss { victim: board },
                _ => FaultKind::TokenCorrupt { victim: board },
            };
            plan_faults = plan_faults.at(at, kind);
            // Repair outages later so the run still drains.
            match kind {
                FaultKind::ReceiverDown { board, wavelength } => {
                    plan_faults =
                        plan_faults.at(at + 3_000, FaultKind::ReceiverRepair { board, wavelength });
                }
                FaultKind::TransmitterDown { board, dest } => {
                    plan_faults =
                        plan_faults.at(at + 3_000, FaultKind::TransmitterRepair { board, dest });
                }
                _ => {}
            }
        }
        cfg.faults = plan_faults;
        let load = 0.3 + 0.4 * rng.next_f64();
        let pattern = if rng.below(2) == 0 {
            TrafficPattern::Uniform
        } else {
            TrafficPattern::Complement
        };
        let plan = PhasePlan::new(2000, 4000).with_max_cycles(20_000);
        let what = format!(
            "case {case} ({} {} load {load:.3})",
            mode.name(),
            pattern.name()
        );
        let mut sys = System::new(cfg, pattern, load, plan);
        let audit = |sys: &System| {
            if let Err(e) = sys.srs().check_invariants(sys.now()) {
                panic!("{what}: SRS invariant broken at cycle {}: {e}", sys.now());
            }
        };
        while sys.now() < plan.max_cycles {
            sys.step();
            audit(&sys);
            let m = sys.metrics();
            assert!(
                m.delivered_total <= m.injected_total,
                "{what}: delivered {} of {} injected at cycle {}",
                m.delivered_total,
                m.injected_total,
                sys.now()
            );
        }
        // Measured worst case: 32 829 cycles to drain.
        let drain_cap = sys.now() + 200_000;
        while !sys.is_drained() {
            assert!(sys.now() < drain_cap, "{what}: never drained");
            sys.step_without_injection();
            audit(&sys);
        }
        let m = sys.metrics();
        assert!(m.injected_total > 0, "{what}: no traffic");
        assert_eq!(m.delivered_total, m.injected_total, "{what}: packets lost");
    }
}

/// Every scenario generator emits a monotone, in-range, never
/// self-addressed stream; the batch `emit` path is exactly the per-cycle
/// `poll_into` stream (losslessness); and the stream is a pure function of
/// `(spec, nodes, rate, seed)` — same seed byte-identical, across random
/// rates and horizons.
#[test]
fn scenario_streams_monotone_lossless_and_seed_reproducible() {
    use erapid_suite::erapid_workloads::{ScenarioEngine, ScenarioSpec};

    let mut rng = Pcg32::stream(0xBEEF, 11);
    for spec in ScenarioSpec::paper_suite() {
        for _case in 0..4 {
            let nodes = [16u32, 64][rng.below(2) as usize];
            let seed = 0x5EED + rng.below(1_000) as u64;
            let rate = 0.02 + 0.08 * rng.next_f64();
            let horizon = 4_000 + rng.below(4_000) as u64;
            let entries = ScenarioEngine::new(spec.clone(), nodes, rate, seed).emit(horizon);
            let mut prev = 0u64;
            for e in &entries {
                assert!(
                    e.cycle >= prev && e.cycle < horizon,
                    "{}: non-monotone or out-of-horizon cycle {}",
                    spec.name(),
                    e.cycle
                );
                prev = e.cycle;
                assert!(
                    e.src < nodes && e.dst < nodes,
                    "{}: node out of range",
                    spec.name()
                );
                assert_ne!(e.src, e.dst, "{}: self-send", spec.name());
            }
            let again = ScenarioEngine::new(spec.clone(), nodes, rate, seed).emit(horizon);
            assert_eq!(entries, again, "{}: same seed must reproduce", spec.name());
            let mut eng = ScenarioEngine::new(spec.clone(), nodes, rate, seed);
            let mut due = Vec::new();
            let mut polled = Vec::new();
            for now in 0..horizon {
                due.clear();
                eng.poll_into(now, &mut due);
                for r in &due {
                    polled.push((now, r.src, r.dst));
                }
            }
            let flat: Vec<(u64, u32, u32)> =
                entries.iter().map(|e| (e.cycle, e.src, e.dst)).collect();
            assert_eq!(
                flat,
                polled,
                "{}: emit must equal the polled stream",
                spec.name()
            );
        }
    }
}

/// External-log ingestion closes packet-for-packet: a random monotone
/// workload rendered as dumpi text and as OTF2-style JSONL ingests to the
/// same validated trace, survives the `.ertr` binary round-trip, and
/// replays in exactly the original order with nothing lost.
#[test]
fn ingestion_roundtrip_closes_packet_for_packet() {
    use erapid_suite::erapid_workloads::ingest::{ingest_str, ExternalFormat};

    let mut rng = Pcg32::stream(0xBEEF, 12);
    for case in 0..32 {
        let (boards, npb) = (4u16, 4u16);
        let nodes = (boards * npb) as u32;
        let mut cycle = rng.below(20) as u64;
        let mut rows = Vec::new();
        for _ in 0..1 + rng.below(120) {
            let src = rng.below(nodes);
            let dst = (src + 1 + rng.below(nodes - 1)) % nodes;
            rows.push((cycle, src, dst));
            cycle += rng.below(30) as u64;
        }
        let dumpi: String = rows
            .iter()
            .map(|(c, s, d)| format!("{c} {s} {d}\n"))
            .collect();
        let jsonl: String = rows
            .iter()
            .map(|(c, s, d)| format!("{{\"t\": {c}, \"src\": {s}, \"dst\": {d}}}\n"))
            .collect();
        let meta = || TraceMeta {
            seed: 0,
            boards,
            nodes_per_board: npb,
            pattern: "external".to_string(),
            load: 0.0,
            git_sha: format!("case{case}"),
        };
        let a = ingest_str(&dumpi, ExternalFormat::DumpiText, meta()).unwrap();
        let b = ingest_str(&jsonl, ExternalFormat::Otf2Jsonl, meta()).unwrap();
        assert_eq!(a, b, "case {case}: both formats must ingest identically");
        let trace = InjectionTrace::from_binary(&a.to_binary()).unwrap();
        assert_eq!(trace, a, "case {case}: .ertr round-trip");
        let mut replayer = trace.replayer();
        let mut got = Vec::new();
        let mut now = 0u64;
        while !replayer.is_done() {
            while let Some(e) = replayer.pop_due(now) {
                assert!(e.cycle <= now, "case {case}: released early");
                got.push((e.cycle, e.src, e.dst));
            }
            now += 1 + rng.below(5) as u64;
        }
        assert_eq!(
            got, rows,
            "case {case}: replay must close packet-for-packet"
        );
    }
}

/// The threshold controller is a pure function of `(spec, observation
/// sequence)`: feeding the same random windowed counters to two
/// independently-built controllers produces identical thresholds, regimes
/// and move counts at every step, and the band/floor/ceiling invariants
/// hold from every reachable state.
#[test]
fn controller_is_pure_in_spec_and_observations() {
    use erapid_suite::erapid_tune::{ControllerSpec, ThresholdController, WindowObservation};

    let mut rng = Pcg32::stream(0xBEEF, 13);
    for case in 0..32 {
        // Random-but-valid spec: a band somewhere in (0, 1000).
        let l_min = 100 + rng.below(500);
        let l_max = l_min + 50 + rng.below(1000 - l_min - 50);
        let b_max = rng.below(501);
        let spec = ControllerSpec::around_milli(l_min, l_max, b_max);
        let mut a = ThresholdController::new(spec).unwrap();
        let mut b = ThresholdController::new(spec).unwrap();
        for step in 0..200 {
            let lit = rng.below(65);
            let obs = WindowObservation {
                lit,
                pressured: if lit == 0 { 0 } else { rng.below(lit + 1) },
                idle: if lit == 0 { 0 } else { rng.below(lit + 1) },
            };
            let ra = a.observe_window(obs);
            let rb = b.observe_window(obs);
            assert_eq!(ra, rb, "case {case} step {step}: regimes diverged");
            assert_eq!(a, b, "case {case} step {step}: state diverged");
            let s = a.spec();
            let (cl_min, cl_max, cb_max) = a.thresholds_milli();
            assert!(
                cl_min + s.min_gap_milli <= cl_max,
                "case {case} step {step}: band collapsed"
            );
            assert!(cl_min >= s.l_min_floor_milli && cl_max <= s.l_max_ceil_milli);
            assert!(cb_max >= s.b_max_floor_milli && cb_max <= s.b_max_ceil_milli);
        }
        assert_eq!(a.windows_seen(), 200);
    }
}

/// The boards' counter-maintained `Buffer_util` integrals equal a from-
/// scratch recomputation for arbitrary enqueue/dequeue/drain sequences —
/// including ones perturbed by fault-injected receiver drops, transmitter
/// outages and CDR relocks. The shadow reconstructs each cycle's flit
/// deltas purely from the TX queues' public counters and feeds them to an
/// independent [`OccupancyIntegral`]; every window boundary must agree
/// with the board bit-for-bit.
#[test]
fn buffer_util_counters_match_recomputed_under_faults() {
    use erapid_suite::erapid_core::faults::{FaultKind, FaultPlan};
    use erapid_suite::erapid_core::txqueue::TX_QUEUE_FLITS;
    use erapid_suite::erapid_core::System;
    use erapid_suite::netstats::occupancy::OccupancyIntegral;
    use erapid_suite::router::PACKET_FLITS;

    let mut rng = Pcg32::stream(0xB0FF, 7);
    for case in 0..3u32 {
        let mode = NetworkMode::all()[rng.below(4) as usize];
        let mut cfg = SystemConfig::small(mode);
        cfg.seed = 0xFEED + case as u64;
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
            .at(5_000, FaultKind::TransmitterDown { board: 2, dest: 1 })
            .at(
                6_500,
                FaultKind::ReceiverRepair {
                    board: 1,
                    wavelength: 2,
                },
            )
            .at(7_500, FaultKind::TransmitterRepair { board: 2, dest: 1 });
        let load = 0.3 + 0.4 * rng.next_f64();
        let pattern = if rng.below(2) == 0 {
            TrafficPattern::Uniform
        } else {
            TrafficPattern::Complement
        };
        let plan = PhasePlan::new(2000, 6000).with_max_cycles(10_000);
        let mut sys = System::new(cfg.clone(), pattern.clone(), load, plan);

        let b = cfg.boards as usize;
        let window = cfg.schedule.window;
        let flits = i64::from(PACKET_FLITS);
        let mut shadows: Vec<OccupancyIntegral> = (0..b * b)
            .map(|_| OccupancyIntegral::new(window, TX_QUEUE_FLITS))
            .collect();
        // Run the plan, then keep stepping with injection silenced so the
        // property also covers the drain phase.
        let total = plan.max_cycles + 2 * window;
        for t in 0..total {
            // The system rolls its windows at the top of a boundary cycle,
            // before that cycle's queue events; mirror that here.
            let boundary = cfg.schedule.is_boundary(t);
            if boundary {
                for sh in &mut shadows {
                    sh.roll(t);
                }
            }
            let before: Vec<u32> = (0..b * b)
                .map(|i| {
                    sys.board((i / b) as u16)
                        .tx_queue((i % b) as u16)
                        .flits_held()
                })
                .collect();
            if t < plan.max_cycles {
                sys.step();
            } else {
                sys.step_without_injection();
            }
            // A router output port passes at most one flit a cycle and
            // packets leave whole, so a queue's net change `enq − dep` has
            // `enq ∈ {0, 1}` and `dep` a multiple of the packet size: the
            // two are the change's residue and the rest.
            for i in 0..b * b {
                let held = sys
                    .board((i / b) as u16)
                    .tx_queue((i % b) as u16)
                    .flits_held();
                let delta = i64::from(held) - i64::from(before[i]);
                let enq_flits = delta.rem_euclid(flits);
                let dep_flits = enq_flits - delta;
                assert!(enq_flits <= 1, "t={t} queue {i}: {delta} flits in a cycle");
                if enq_flits > 0 {
                    shadows[i].enqueue(t, enq_flits as u32);
                }
                if dep_flits > 0 {
                    shadows[i].dequeue(t, dep_flits as u32);
                }
            }
            if boundary {
                for (i, shadow) in shadows.iter().enumerate() {
                    let got = sys.board((i / b) as u16).buffer_util((i % b) as u16);
                    let want = shadow.previous();
                    assert_eq!(
                        want.to_bits(),
                        got.to_bits(),
                        "case {case} ({} {} load {load:.3}) t={t} flow {}->{}: \
                         counter {got} != recomputed {want}",
                        mode.name(),
                        pattern.name(),
                        i / b,
                        i % b,
                    );
                }
            }
        }
    }
}
