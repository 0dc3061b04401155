//! Long-horizon marathon: a million-cycle streamed run, a forced mid-run
//! kill, and a checkpoint resume — proving the crash-safety contract
//! end-to-end at the process level.
//!
//! The orchestrator (no argument) spawns three children of itself:
//!
//! 1. `child full` — runs the whole horizon uninterrupted with streaming
//!    export on (JSONL trace + `.erpd` delivery log flushed every `R_w`
//!    window), checkpointing on cadence. Reference artifact.
//! 2. `child kill` — same run into separate files, but calls
//!    `std::process::abort()` mid-window at ~60 % of the horizon: a real
//!    SIGABRT with no destructors, no finalize — the crash scenario.
//! 3. `child resume` — rebuilds the system, restores the newest valid
//!    checkpoint ([`erapid_core::checkpoint::resume_latest`]), truncates
//!    the streamed files to the checkpointed cursor and runs to the end.
//!
//! The orchestrator then diffs the full and killed+resumed artifacts
//! byte-for-byte (trace JSONL, delivery log, final metrics) — the
//! **resume divergence**, which must be zero — and asserts the full run's
//! peak RSS under a ceiling: the horizon is 12.5× the default `paper64`
//! plan, yet memory stays flat because every buffer drains per window.
//! Results land in `<results>/MARATHON_<git-sha>.json`.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin marathon
//! ERAPID_QUICK=1 cargo run --release -p erapid-bench --bin marathon
//! ERAPID_CHECKPOINT_EVERY=10 ... marathon
//! ```

use desim::phase::PhasePlan;
use erapid_bench::{git_sha, BenchConfig, Json};
use erapid_core::checkpoint::{resume_latest, Checkpointer};
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::stream::{run_streaming, StreamPaths, StreamSink};
use erapid_core::System;
use erapid_telemetry::TraceConfig;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::process::Command;
use traffic::pattern::TrafficPattern;

const LOAD: f64 = 0.5;
/// Default RSS ceiling for the full streamed run, kB (256 MB).
const RSS_CEILING_KB: u64 = 262_144;

/// Peak resident set size in kB (`VmHWM` from /proc, Linux only; 0
/// elsewhere).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

struct Marathon {
    bench: BenchConfig,
    cfg: SystemConfig,
    plan: PhasePlan,
    total_cycles: u64,
    kill_at: u64,
    every_windows: u64,
    dir: PathBuf,
}

impl Marathon {
    fn from_env() -> Self {
        let bench = BenchConfig::from_env();
        let mut cfg = if bench.quick {
            SystemConfig::small(NetworkMode::PB)
        } else {
            SystemConfig::paper64(NetworkMode::PB)
        };
        cfg.trace = TraceConfig::on();
        cfg.packet_log = true;
        let window = cfg.schedule.window;
        // Full: 500 windows = 1,000,000 cycles (12.5× the default plan's
        // 40-window horizon). Quick: 30 windows for CI smoke.
        let windows: u64 = if bench.quick { 30 } else { 500 };
        let total_cycles = windows * window;
        // Measure almost the whole horizon so the run cannot drain early.
        let plan = PhasePlan::new(2 * window, (windows - 3) * window).with_max_cycles(total_cycles);
        let every_windows = if bench.quick { 5 } else { 25 };
        Self {
            cfg,
            plan,
            total_cycles,
            // Mid-window, ~60 % in: a cycle no checkpoint lands on.
            kill_at: total_cycles * 6 / 10 + window / 3,
            dir: bench.results_dir().join("marathon"),
            every_windows,
            bench,
        }
    }

    fn system(&self) -> System {
        System::new(self.cfg.clone(), TrafficPattern::Uniform, LOAD, self.plan)
    }

    fn paths(&self, tag: &str) -> StreamPaths {
        StreamPaths {
            trace: Some(self.dir.join(format!("trace_{tag}.jsonl"))),
            deliveries: Some(self.dir.join(format!("deliv_{tag}.erpd"))),
        }
    }

    fn ckpt_dir(&self) -> PathBuf {
        self.dir.join("ckpt")
    }

    fn checkpointer(&self) -> Checkpointer {
        Checkpointer::from_env(
            self.ckpt_dir(),
            self.cfg.schedule.window,
            self.every_windows,
        )
        .expect("create checkpoint dir")
        .expect("marathon needs checkpointing on; set ERAPID_CHECKPOINT_EVERY > 0")
    }
}

/// One line of child → orchestrator stats. f64s travel as bit patterns so
/// the comparison is exact.
fn stats_line(sys: &System, end: u64) -> String {
    let m = sys.metrics();
    format!(
        "{{\"cycles\":{end},\"injected\":{},\"delivered\":{},\"throughput_bits\":{},\"latency_bits\":{},\"power_bits\":{},\"dropped\":{},\"peak_rss_kb\":{}}}",
        m.injected_total,
        m.delivered_total,
        sys.metrics().throughput_ppc().to_bits(),
        sys.metrics().mean_latency().to_bits(),
        sys.metrics().average_power_mw().to_bits(),
        sys.trace_dropped(),
        peak_rss_kb(),
    )
}

fn child_full(m: &Marathon) {
    let mut sys = m.system();
    let mut sink = StreamSink::create(&m.paths("full")).expect("create stream files");
    let end =
        run_streaming(&mut sys, NonZeroUsize::MIN, &mut sink, None).expect("streaming run failed");
    sink.finalize().expect("finalize stream");
    println!("{}", stats_line(&sys, end));
}

fn child_kill(m: &Marathon) {
    let mut sys = m.system();
    let mut sink = StreamSink::create(&m.paths("resumed")).expect("create stream files");
    let mut ckpt = m.checkpointer();
    let window = m.cfg.schedule.window;
    let counters = sys.metric_counter_names();
    let gauges = sys.metric_gauge_names();
    let kill_at = m.kill_at;
    sys.run_with(NonZeroUsize::MIN, &mut |s| {
        let now = s.now();
        if now >= kill_at {
            // The crash: SIGABRT, no destructors, nothing flushed beyond
            // the last window boundary, no finalize.
            std::process::abort();
        }
        if now == 0 || !now.is_multiple_of(window) {
            return;
        }
        let flush = s.drain_window();
        sink.flush_window(&flush, &counters, &gauges)
            .expect("stream flush");
        ckpt.maybe_checkpoint(s, sink.cursor()).expect("checkpoint");
    });
    unreachable!("kill child must abort before the horizon ends");
}

fn child_resume(m: &Marathon) {
    let mut sys = m.system();
    let (from, cursor) =
        resume_latest(&mut sys, &m.ckpt_dir()).expect("no valid checkpoint to resume from");
    eprintln!(
        "resumed from {} at cycle {} (killed at {})",
        from.display(),
        sys.now(),
        m.kill_at
    );
    let mut sink = StreamSink::resume(&m.paths("resumed"), cursor).expect("reopen stream files");
    let mut ckpt = m.checkpointer();
    let end = run_streaming(&mut sys, NonZeroUsize::MIN, &mut sink, Some(&mut ckpt))
        .expect("resumed streaming run failed");
    sink.finalize().expect("finalize stream");
    println!("{}", stats_line(&sys, end));
}

/// Runs `self <role>` and returns (exit success, last stdout line).
fn spawn(role: &str) -> (bool, String) {
    let exe = std::env::current_exe().expect("own path");
    let out = Command::new(exe)
        .arg(role)
        .output()
        .expect("spawn marathon child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("").to_string();
    (out.status.success(), last)
}

fn file_bytes(p: &Path) -> Vec<u8> {
    std::fs::read(p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn json_field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    line.split(&pat)
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or_else(|| panic!("missing {key} in child stats: {line}"))
}

fn orchestrate(m: &Marathon) {
    let _ = std::fs::remove_dir_all(&m.dir);
    std::fs::create_dir_all(&m.dir).expect("create marathon dir");
    println!(
        "=== marathon: {} cycles ({} windows), checkpoint every {} windows, kill at {} ===",
        m.total_cycles,
        m.total_cycles / m.cfg.schedule.window,
        m.every_windows,
        m.kill_at
    );

    let (ok, full) = spawn("full");
    assert!(ok, "full run failed");
    println!("full run:    {full}");
    assert_eq!(json_field(&full, "dropped"), 0, "full run dropped events");

    let (killed_ok, _) = spawn("kill");
    assert!(
        !killed_ok,
        "kill child must die mid-run, but exited cleanly"
    );
    println!("kill child:  aborted mid-run as intended");

    let (ok, resumed) = spawn("resume");
    assert!(ok, "resume run failed");
    println!("resume run:  {resumed}");

    // Resume divergence: artifacts that differ between the uninterrupted
    // run and the killed+resumed run. Must be zero.
    let mut divergence = 0u32;
    for (a, b, what) in [
        (m.paths("full").trace, m.paths("resumed").trace, "trace"),
        (
            m.paths("full").deliveries,
            m.paths("resumed").deliveries,
            "deliveries",
        ),
    ] {
        let (a, b) = (a.expect("path"), b.expect("path"));
        if file_bytes(&a) != file_bytes(&b) {
            eprintln!(
                "DIVERGENCE: {what} files differ ({} vs {})",
                a.display(),
                b.display()
            );
            divergence += 1;
        }
    }
    for key in [
        "cycles",
        "injected",
        "delivered",
        "throughput_bits",
        "latency_bits",
        "power_bits",
    ] {
        if json_field(&full, key) != json_field(&resumed, key) {
            eprintln!("DIVERGENCE: metric {key} differs");
            divergence += 1;
        }
    }

    let rss = json_field(&full, "peak_rss_kb");
    let ceiling = std::env::var("ERAPID_MARATHON_RSS_KB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(RSS_CEILING_KB);
    let trace_bytes = file_bytes(&m.paths("full").trace.expect("path")).len();
    let deliveries = json_field(&full, "delivered");

    let system = if m.cfg.boards == 8 {
        "paper64"
    } else {
        "small16"
    };
    let workload = vec![
        ("system", Json::str(system)),
        ("mode", Json::str("P-B")),
        ("pattern", Json::str("uniform")),
        ("load", Json::F64(LOAD)),
    ];
    let window = m.cfg.schedule.window;
    let report = vec![
        ("workload", Json::Obj(workload)),
        ("cycles", Json::U64(m.total_cycles)),
        ("windows", Json::U64(m.total_cycles / window)),
        (
            "horizon_vs_default",
            Json::F64(m.total_cycles as f64 / (40 * window) as f64),
        ),
        ("checkpoint_every_windows", Json::U64(m.every_windows)),
        ("kill_at_cycle", Json::U64(m.kill_at)),
        ("resume_divergence", Json::U64(divergence.into())),
        ("trace_bytes", Json::U64(trace_bytes as u64)),
        ("deliveries", Json::U64(deliveries)),
        ("peak_rss_kb", Json::U64(rss)),
        ("rss_ceiling_kb", Json::U64(ceiling)),
    ];
    m.bench.write_report("MARATHON", &git_sha(), report);

    assert_eq!(
        divergence, 0,
        "killed+resumed run diverged from the uninterrupted run"
    );
    assert!(
        rss <= ceiling,
        "peak RSS {rss} kB exceeds ceiling {ceiling} kB — streaming failed to bound memory"
    );
    println!(
        "OK: zero resume divergence, peak RSS {rss} kB <= {ceiling} kB over {} cycles",
        m.total_cycles
    );
}

fn main() {
    let m = Marathon::from_env();
    match std::env::args().nth(1).as_deref() {
        None | Some("--seq") => orchestrate(&m),
        Some("full") => child_full(&m),
        Some("kill") => child_kill(&m),
        Some("resume") => child_resume(&m),
        Some(other) => {
            eprintln!("unknown marathon role {other:?} (expected full|kill|resume)");
            std::process::exit(2);
        }
    }
}
