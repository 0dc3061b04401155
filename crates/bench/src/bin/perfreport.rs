//! Performance report: times a fixed reference workload sequentially and
//! in parallel, proves the two byte-identical, and writes the numbers to
//! `BENCH_<git-sha>.json` so perf changes are comparable across commits.
//!
//! Reference workload: the paper's 64-node system, uniform + complement
//! panels (4 modes × 3 loads each, default phase plan, default seed).
//! The report additionally carries:
//!
//! * per-point wall times next to the scheduler's cost estimate (the
//!   feedback loop on longest-first dispatch),
//! * a per-phase wall-time breakdown (reconfig / inject / route /
//!   optical / stats) from a profiled representative run, including the
//!   route-phase share (`route_frac`) that `--smoke` gates against
//!   regression,
//! * a fixed reduced-grid smoke rate (`cycles_per_sec_smoke`) that
//!   `verify.sh` re-measures via `--smoke` and compares against the
//!   committed baseline, failing on a >20% regression,
//! * an intra-point speedup measurement: the heaviest smoke point run
//!   with its per-board jobs on worker threads (DESIGN.md §12) against
//!   the same jobs run inline, identical results asserted. The ratio is
//!   printed and recorded, not gated: the benchmark's
//!   `core.shard.speedup_2w` is the record, and it is < 1 at B ≤ 32.
//!
//! ```text
//! cargo run --release -p erapid-bench --bin perfreport
//! cargo run --release -p erapid-bench --bin perfreport -- --smoke
//! ERAPID_THREADS=4 cargo run --release -p erapid-bench --bin perfreport
//! cargo run --release -p erapid-bench --bin perfreport -- --seq   # force 1x1 threading
//! ```

use desim::phase::PhasePlan;
use erapid_bench::{git_sha, BenchConfig};
use erapid_core::config::{NetworkMode, SystemConfig};
use erapid_core::experiment::{default_plan, TraceSource};
use erapid_core::runner::{available_threads, run_points_timed, RunPoint};
use erapid_core::system::PhaseTimers;
use erapid_core::System;
use std::num::NonZeroUsize;
use std::time::Instant;
use traffic::pattern::TrafficPattern;

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

struct PanelReport {
    name: &'static str,
    sequential_s: f64,
    parallel_s: f64,
    sim_cycles: u64,
    /// Per point: (mode, load, estimated cost, sequential wall seconds).
    points: Vec<(&'static str, f64, u128, f64)>,
}

/// The fixed smoke grid: paper64, NP-NB + P-B × uniform + complement at
/// load 0.5 under a short plan. Deliberately frozen — `verify.sh`
/// compares this rate across commits, so changing the grid invalidates
/// every committed baseline.
fn smoke_points() -> Vec<RunPoint> {
    let mut points = Vec::new();
    for mode in [NetworkMode::NpNb, NetworkMode::PB] {
        for pattern in [TrafficPattern::Uniform, TrafficPattern::Complement] {
            let cfg = SystemConfig::paper64(mode);
            let w = cfg.schedule.window;
            points.push(RunPoint {
                cfg,
                pattern,
                load: 0.5,
                plan: PhasePlan::new(w, 3 * w).with_max_cycles(5 * w),
                source: TraceSource::Generate,
            });
        }
    }
    points
}

/// Measures the smoke grid sequentially, returning (cycles/sec, cycles).
fn measure_smoke() -> (f64, u64) {
    let one = NonZeroUsize::new(1).unwrap();
    let t0 = Instant::now();
    let results = run_points_timed(one, smoke_points());
    let wall = t0.elapsed().as_secs_f64();
    let cycles: u64 = results.iter().map(|(r, _)| r.cycles).sum();
    (cycles as f64 / wall.max(1e-9), cycles)
}

/// Times the heaviest smoke point (by the scheduler's own cost estimate)
/// with its per-board jobs run inline and again on `workers` workers,
/// asserting identical results. Prints both walls and returns the speedup.
fn measure_intra_point(workers: NonZeroUsize) -> f64 {
    let point = smoke_points()
        .into_iter()
        .max_by_key(|p| p.estimated_cost())
        .expect("smoke grid is non-empty");
    let t0 = Instant::now();
    let seq = point.clone().run_with(NonZeroUsize::MIN);
    let seq_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let sharded = point.run_with(workers);
    let sharded_s = t1.elapsed().as_secs_f64();
    assert_eq!(seq, sharded, "sharded point diverged from sequential");
    let sp = seq_s / sharded_s.max(1e-9);
    println!(
        "  intra-point: heaviest smoke point seq {seq_s:.2}s  sharded {sharded_s:.2}s  \
         -> {sp:.2}x on {workers} board workers (results identical)"
    );
    sp
}

/// Worker count for the intra-point measurement: up to 4 hardware
/// threads, 1 when `--seq` was passed.
fn intra_point_workers(seq_flag: bool) -> NonZeroUsize {
    if seq_flag {
        NonZeroUsize::MIN
    } else {
        NonZeroUsize::new(available_threads().get().min(4)).unwrap_or(NonZeroUsize::MIN)
    }
}

/// Extracts `"<key>": <number>` from a baseline JSON blob (no serde in
/// the workspace — the artifact format is ours, a string scan is exact
/// enough).
fn parse_f64_field(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts `"cycles_per_sec_smoke": <number>` from a baseline JSON blob.
fn parse_smoke_rate(json: &str) -> Option<f64> {
    parse_f64_field(json, "cycles_per_sec_smoke")
}

/// Best committed smoke baseline: the max `cycles_per_sec_smoke` across
/// `BENCH_*.json` files in the working directory (older baselines predate
/// the field and are skipped), or an explicit file passed on the CLI.
fn baseline_smoke_rate(explicit: Option<&str>) -> Option<(String, f64)> {
    if let Some(path) = explicit {
        let json = std::fs::read_to_string(path).ok()?;
        return parse_smoke_rate(&json).map(|r| (path.to_string(), r));
    }
    let mut best: Option<(String, f64)> = None;
    for entry in std::fs::read_dir(".").ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let Ok(json) = std::fs::read_to_string(entry.path()) else {
            continue;
        };
        if let Some(rate) = parse_smoke_rate(&json) {
            if best.as_ref().is_none_or(|(_, b)| rate > *b) {
                best = Some((name, rate));
            }
        }
    }
    best
}

/// Profiles the representative point (paper64 P-B complement at 0.5 —
/// DPM + DBR + full traffic, every phase exercised), returning the phase
/// timers and the simulated cycle count.
fn profile_representative() -> (PhaseTimers, u64) {
    let cfg = SystemConfig::paper64(NetworkMode::PB);
    let plan = default_plan(cfg.schedule.window);
    let mut sys = System::new(cfg, TrafficPattern::Complement, 0.5, plan);
    let mut timers = PhaseTimers::default();
    let cycles = sys.run_profiled(&mut timers);
    (timers, cycles)
}

/// Route-phase share of total cycle time.
fn route_frac(t: &PhaseTimers) -> f64 {
    t.route.as_secs_f64() / t.total().as_secs_f64().max(1e-9)
}

/// `--smoke` mode: re-measure the reduced grid and fail (exit 1) when the
/// rate regressed more than 20% below the committed baseline; likewise
/// fail when the route-phase *share* of the representative profile grew
/// more than 20% over the baseline's `route_frac` (a share gate is
/// box-speed independent — it catches the router hot path slipping back
/// toward dominating the cycle). Then gate the intra-point sharded
/// speedup. With no baseline carrying a field yet, that measurement is
/// informational.
fn run_smoke(baseline_path: Option<&str>, seq_flag: bool) {
    let (rate, cycles) = measure_smoke();
    println!("smoke: {rate:.0} sim cycles/sec ({cycles} cycles, reduced grid, 1 thread)");
    let baseline = baseline_smoke_rate(baseline_path);
    match &baseline {
        Some((path, base)) => {
            let floor = 0.8 * base;
            println!("baseline {path}: {base:.0} cycles/sec (floor {floor:.0})");
            if rate < floor {
                eprintln!("FAIL: smoke rate regressed >20% vs committed baseline");
                std::process::exit(1);
            }
            println!("OK: within 20% of baseline");
        }
        None => println!("no committed baseline with cycles_per_sec_smoke; recording only"),
    }
    let (timers, _) = profile_representative();
    let frac = route_frac(&timers);
    println!(
        "smoke: route-phase share {:.1}% of cycle time",
        100.0 * frac
    );
    match baseline
        .as_ref()
        .and_then(|(path, _)| Some((path, std::fs::read_to_string(path).ok()?)))
        .and_then(|(path, json)| Some((path.clone(), parse_f64_field(&json, "route_frac")?)))
    {
        Some((path, base)) => {
            let ceiling = 1.2 * base;
            println!(
                "baseline {path}: route share {:.1}% (ceiling {:.1}%)",
                100.0 * base,
                100.0 * ceiling
            );
            if frac > ceiling {
                eprintln!("FAIL: route-phase share regressed >20% vs committed baseline");
                std::process::exit(1);
            }
            println!("OK: route share within 20% of baseline");
        }
        None => println!("no committed baseline with route_frac; recording only"),
    }
    measure_intra_point(intra_point_workers(seq_flag));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seq_flag = args.iter().any(|a| a == "--seq");
    if args.first().map(String::as_str) == Some("--smoke") {
        let baseline = args
            .get(1)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str);
        run_smoke(baseline, seq_flag);
        return;
    }

    let cfg = BenchConfig::from_env();
    let one = NonZeroUsize::new(1).unwrap();
    let loads = [0.2f64, 0.5, 0.8];
    let patterns = [
        ("uniform", TrafficPattern::Uniform),
        ("complement", TrafficPattern::Complement),
    ];
    let sha = git_sha();
    println!(
        "=== perfreport @ {sha}: paper64, {} patterns x 4 modes x {} loads, {} threads ===\n",
        patterns.len(),
        loads.len(),
        cfg.threads
    );

    let mut panels: Vec<PanelReport> = Vec::new();
    for (name, pattern) in &patterns {
        let points: Vec<RunPoint> = NetworkMode::all()
            .iter()
            .flat_map(|&mode| loads.iter().map(move |&l| (mode, l)))
            .map(|(mode, load)| {
                let cfg = SystemConfig::paper64(mode);
                let plan = default_plan(cfg.schedule.window);
                RunPoint {
                    cfg,
                    pattern: pattern.clone(),
                    load,
                    plan,
                    source: TraceSource::Generate,
                }
            })
            .collect();
        let labels: Vec<(&'static str, f64, u128)> = NetworkMode::all()
            .iter()
            .flat_map(|&mode| loads.iter().map(move |&l| (mode, l)))
            .zip(&points)
            .map(|((mode, load), p)| (mode.name(), load, p.estimated_cost()))
            .collect();

        let t0 = Instant::now();
        let seq = run_points_timed(one, points.clone());
        let sequential_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let par = run_points_timed(cfg.threads, points);
        let parallel_s = t1.elapsed().as_secs_f64();

        let seq_results: Vec<_> = seq.iter().map(|(r, _)| *r).collect();
        let par_results: Vec<_> = par.iter().map(|(r, _)| *r).collect();
        assert_eq!(
            seq_results, par_results,
            "parallel results diverged from sequential for {name}"
        );
        let sim_cycles: u64 = seq_results.iter().map(|r| r.cycles).sum();
        println!(
            "  {name:<12} sequential {sequential_s:>7.2}s   parallel {parallel_s:>7.2}s   \
             ({sim_cycles} simulated cycles, results identical)"
        );
        let point_rows = labels
            .iter()
            .zip(&seq)
            .map(|(&(mode, load, cost), (_, wall))| (mode, load, cost, wall.as_secs_f64()))
            .collect();
        panels.push(PanelReport {
            name,
            sequential_s,
            parallel_s,
            sim_cycles,
            points: point_rows,
        });
    }

    let seq_total: f64 = panels.iter().map(|p| p.sequential_s).sum();
    let par_total: f64 = panels.iter().map(|p| p.parallel_s).sum();
    let cycles_total: u64 = panels.iter().map(|p| p.sim_cycles).sum();
    let speedup = seq_total / par_total.max(1e-9);
    let cps_single = cycles_total as f64 / seq_total.max(1e-9);
    let cps_parallel = cycles_total as f64 / par_total.max(1e-9);

    println!();
    println!("  totals: sequential {seq_total:.2}s, parallel {par_total:.2}s  ->  {speedup:.2}x on {} threads", cfg.threads);
    println!("  single-thread rate: {cps_single:.0} sim cycles/sec (per-run hot path)");
    println!("  parallel rate:      {cps_parallel:.0} sim cycles/sec");

    // Load-imbalance regression gate: longest-first dispatch must buy a
    // real speedup whenever real parallelism exists. Meaningless on a
    // single hardware thread (or ERAPID_THREADS=1), where the dispatch
    // degenerates to sequential.
    if cfg.threads.get() >= 2 && available_threads().get() >= 2 {
        assert!(
            speedup >= 1.5,
            "parallel speedup {speedup:.2}x < 1.5x on {} threads: load-balancing regression",
            cfg.threads
        );
        println!("  speedup gate: {speedup:.2}x >= 1.5x OK");
    } else {
        println!("  speedup gate: skipped (single hardware thread)");
    }

    // Per-phase breakdown of one representative point (P-B complement at
    // 0.5 exercises every phase: DPM + DBR + full traffic).
    let (timers, prof_cycles) = profile_representative();
    let prof_total = timers.total().as_secs_f64().max(1e-9);
    let frac = |d: std::time::Duration| d.as_secs_f64() / prof_total;
    let prof_route_frac = route_frac(&timers);
    println!(
        "  phase profile (P-B complement 0.5, {prof_cycles} cycles): \
         reconfig {:.1}%  inject {:.1}%  route {:.1}%  optical {:.1}%  stats {:.1}%",
        100.0 * frac(timers.reconfig),
        100.0 * frac(timers.inject),
        100.0 * frac(timers.route),
        100.0 * frac(timers.optical),
        100.0 * frac(timers.stats),
    );

    let (cps_smoke, smoke_cycles) = measure_smoke();
    println!("  smoke rate: {cps_smoke:.0} sim cycles/sec ({smoke_cycles} cycles, reduced grid)");

    let ip_workers = intra_point_workers(seq_flag);
    let intra_point_speedup = measure_intra_point(ip_workers);

    let rss = peak_rss_kb();
    println!("  peak RSS: {rss} kB");

    let panel_json: Vec<String> = panels
        .iter()
        .map(|p| {
            let pts: Vec<String> = p
                .points
                .iter()
                .map(|(mode, load, cost, wall)| {
                    format!(
                        "      {{\"mode\": \"{mode}\", \"load\": {load}, \
                         \"estimated_cost\": {cost}, \"wall_s\": {wall:.6}}}"
                    )
                })
                .collect();
            format!(
                "    {{\"pattern\": \"{}\", \"sequential_s\": {:.6}, \"parallel_s\": {:.6}, \"sim_cycles\": {}, \"points\": [\n{}\n    ]}}",
                p.name,
                p.sequential_s,
                p.parallel_s,
                p.sim_cycles,
                pts.join(",\n")
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"git_sha\": \"{sha}\",\n  \"threads\": {threads},\n  \"workload\": {{\"system\": \"paper64\", \"modes\": 4, \"patterns\": [\"uniform\", \"complement\"], \"loads\": [0.2, 0.5, 0.8]}},\n  \"panels\": [\n{panels}\n  ],\n  \"phase_profile\": {{\n    \"workload\": \"paper64 P-B complement 0.5\",\n    \"cycles\": {prof_cycles},\n    \"reconfig_s\": {reconf:.6},\n    \"inject_s\": {inject:.6},\n    \"route_s\": {route:.6},\n    \"optical_s\": {optical:.6},\n    \"stats_s\": {stats:.6},\n    \"route_frac\": {prof_route_frac:.4}\n  }},\n  \"totals\": {{\n    \"sequential_s\": {seq_total:.6},\n    \"parallel_s\": {par_total:.6},\n    \"speedup\": {speedup:.3},\n    \"sim_cycles\": {cycles_total},\n    \"cycles_per_sec_single\": {cps_single:.0},\n    \"cycles_per_sec_parallel\": {cps_parallel:.0},\n    \"cycles_per_sec_smoke\": {cps_smoke:.0},\n    \"intra_point_workers\": {ip_workers},\n    \"intra_point_speedup\": {intra_point_speedup:.3}\n  }},\n  \"peak_rss_kb\": {rss},\n  \"parallel_identical\": true\n}}\n",
        threads = cfg.threads,
        panels = panel_json.join(",\n"),
        reconf = timers.reconfig.as_secs_f64(),
        inject = timers.inject.as_secs_f64(),
        route = timers.route.as_secs_f64(),
        optical = timers.optical.as_secs_f64(),
        stats = timers.stats.as_secs_f64(),
    );
    let path = format!("BENCH_{sha}.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
