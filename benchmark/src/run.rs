//! One workload, one pass.
//!
//! The **untraced** pass is where every end-to-end metric comes from: it
//! builds the inputs several times (median → `setup_s`), runs the
//! reference once untimed (which also warms caches), repeats the timed
//! region until the time budget is spent, reads `VmHWM`, then runs the
//! correctness checks. The **traced** pass re-runs the workload under
//! spans and `PhaseTimers` for the per-layer metrics; the two never mix.

use crate::adapter::{self, Inputs, Layers, Outcome, PointOut, Size, Sizes, Trace, Workload};
use crate::claims;
use crate::spans::Spans;
use crate::stats::{summarize, Summary};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Time budget of the measured part of the pass.
    pub seconds: f64,
    pub size: Size,
    /// Timed repeats are never fewer than this, whatever the budget.
    pub min_repeats: usize,
    /// Where scratch files and the span file go (`benchmark/out`).
    pub out_dir: PathBuf,
}

pub struct Check {
    pub name: String,
    pub ok: bool,
}

/// Everything one pass measured.
pub struct PassReport {
    pub workload: Workload,
    pub traced: bool,
    pub seed: u64,
    pub threads: usize,
    /// Timed repeats (untraced) or traced iterations.
    pub repeats: usize,
    pub sizes: Sizes,
    /// The end-to-end metrics (untraced) or the per-layer metrics (traced),
    /// in catalog order — `tests/tiny.rs` holds the names to
    /// `BENCHMARK.json`.
    pub metrics: Vec<(&'static str, Summary)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over every point's result bits — equal across repeats, and
    /// across commits whenever the model did not change.
    pub digest: u64,
    /// Reported, not gated (e.g. how much of the profiled wall the five
    /// phase buckets cover).
    pub info: Vec<(&'static str, f64)>,
}

impl PassReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_fraction(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Load comes from this one process on at most two threads.
fn worker_threads() -> NonZeroUsize {
    let n = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    NonZeroUsize::new(n.min(2)).unwrap_or(NonZeroUsize::MIN)
}

fn digest(o: &Outcome) -> u64 {
    adapter::digest(&o.points, &o.extra)
}

fn digest_points(points: &[PointOut]) -> u64 {
    adapter::digest(points, &[])
}

/// Runs `f`, turning a panic inside the simulator into a counted failure
/// instead of losing the whole pass.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic payload");
        Err(format!("panic: {msg}"))
    })
}

fn scratch_dir(opts: &Options) -> Result<PathBuf, String> {
    let dir = opts
        .out_dir
        .join(format!("{}-{}", opts.workload.name(), std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

fn mean(points: &[PointOut], f: impl Fn(&PointOut) -> f64) -> f64 {
    points.iter().map(f).sum::<f64>() / points.len().max(1) as f64
}

#[derive(Default)]
struct Tally {
    checks: Vec<Check>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Every evaluation counts; a check evaluated once per traced
    /// iteration is listed once, and holds only if it held every time.
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("CHECK FAILED: {name}");
        }
        self.attempted += 1;
        self.failed += u64::from(!ok);
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(seen) => seen.ok &= ok,
            None => self.checks.push(Check { name, ok }),
        }
    }

    /// A run of the timed region: its points count as attempted, a panic
    /// or typed error as one failure.
    fn run(&mut self, what: &str, points: usize, r: Result<Outcome, String>) -> Option<Outcome> {
        self.attempted += points as u64;
        match r {
            Ok(o) => Some(o),
            Err(e) => {
                eprintln!("RUN FAILED: {what}: {e}");
                self.failed += 1;
                None
            }
        }
    }
}

/// The sweep's paper-claim verdicts, `None` off the sweep (or on a `Tiny`
/// sweep that lacks the loads the claims read).
fn fidelity(inputs: &Inputs, points: &[PointOut]) -> Option<claims::Fidelity> {
    let Inputs::Sweep(sweep) = inputs else {
        return None;
    };
    claims::evaluate(&|pattern, mode, load| {
        sweep
            .keys
            .iter()
            .position(|&(p, m, l)| p == pattern && m == mode && l == load)
            .and_then(|i| points.get(i).copied())
    })
}

/// The untraced pass: end-to-end metrics and the correctness gate.
pub fn untraced(opts: &Options) -> Result<PassReport, String> {
    let threads = worker_threads();
    let scratch = scratch_dir(opts)?;
    let mut tally = Tally::default();
    // Cheap counters the timed region keeps anyway; the traced pass is
    // where they are reported.
    let mut layers = Layers::default();

    // Set-up, several times: its median is `setup_s`.
    let mut setup_samples = Vec::new();
    let started = Instant::now();
    let inputs = loop {
        let t = Instant::now();
        let inputs = adapter::setup(opts.workload, opts.seed, opts.size, &scratch, &mut layers);
        setup_samples.push(t.elapsed().as_secs_f64());
        let enough = setup_samples.len() >= 5 && started.elapsed() >= Duration::from_millis(300);
        if enough || setup_samples.len() >= 25 {
            break inputs;
        }
    };
    let sizes = adapter::sizes(&inputs);

    // Reference run, untimed: warms caches and is what the repeats must
    // reproduce (1-thread executor for the sweep, uninterrupted run for the
    // marathon, an ordinary run elsewhere).
    let reference = tally.run(
        "reference",
        sizes.points,
        guarded(|| adapter::reference(&inputs, threads, &mut layers)),
    );

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut digests = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while walls.len() < opts.min_repeats || started.elapsed().as_secs_f64() < opts.seconds {
        let t = Instant::now();
        let result = guarded(|| adapter::timed(&inputs, threads, &mut layers, None));
        let wall = t.elapsed().as_secs_f64();
        if let Some(o) = tally.run("repeat", sizes.points, result) {
            walls.push(wall);
            rates.push(o.sim_cycles as f64 / wall);
            digests.push(digest(&o));
            last = Some(o);
        } else if tally.failed >= 3 {
            break;
        }
    }
    let peak_rss = peak_rss_kb();
    let Some(last) = last else {
        let _ = std::fs::remove_dir_all(&scratch);
        return Err("no repeat of the timed region completed".to_string());
    };

    // Correctness gate.
    tally.check(
        "repeats_bit_identical",
        digests.iter().all(|d| *d == digests[0]),
    );
    let reference_matches = reference
        .as_ref()
        .is_some_and(|r| digest_points(&r.points) == digest_points(&last.points));
    match &inputs {
        Inputs::Sweep(_) => {
            tally.check("executor_2t_equals_1t", reference_matches);
            // The thresholds are calibrated at the EXPERIMENTS.md seed.
            if opts.seed == adapter::DEFAULT_SEED {
                if let Some(f) = fidelity(&inputs, &last.points) {
                    for (claim, held) in f.claims {
                        tally.check(format!("paper_claim.{claim}"), held);
                    }
                }
            }
        }
        Inputs::Seq(points) => {
            tally.check("reference_equals_repeats", reference_matches);
            if let Some(p) = adapter::pb_point(points) {
                let same = guarded(|| Ok(adapter::shard_compare(p).0)).unwrap_or(false);
                tally.check("sharded_2w_equals_sequential", same);
            }
        }
        Inputs::Marathon(m) => {
            tally.check("resumed_metrics_equal_uninterrupted", reference_matches);
            let (traces, deliveries, _) = m.verify_files();
            tally.check("resumed_trace_jsonl_equals_uninterrupted", traces);
            tally.check("resumed_deliveries_equal_uninterrupted", deliveries);
        }
        Inputs::Hostile(h) => {
            tally.check("reference_equals_repeats", reference_matches);
            // The ingest → binary → decode checksum is verified inside
            // every run of the timed region; a mismatch fails that run.
            let same = guarded(|| Ok(h.record_then_replay_matches())).unwrap_or(false);
            tally.check("recorded_point_replays_bit_identical", same);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let metrics = vec![
        ("setup_s", summarize(&setup_samples)),
        ("wall_s", summarize(&walls)),
        ("sim_cycles_per_s", summarize(&rates)),
        ("peak_rss_kb", Summary::single(peak_rss)),
        (
            "sim_throughput_norm",
            Summary::single(mean(&last.points, |p| p.throughput_norm)),
        ),
        (
            "sim_latency_cycles",
            Summary::single(mean(&last.points, |p| p.latency)),
        ),
        (
            "sim_power_mw",
            Summary::single(mean(&last.points, |p| p.power_mw)),
        ),
    ];
    Ok(PassReport {
        workload: opts.workload,
        traced: false,
        seed: opts.seed,
        threads: threads.get(),
        repeats: walls.len(),
        sizes,
        metrics,
        checks: tally.checks,
        attempted: tally.attempted,
        failed: tally.failed,
        digest: digests[0],
        info: Vec::new(),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// What one traced iteration measured beyond the [`Layers`] accumulators.
#[derive(Default)]
struct Extras {
    untraced_wall: f64,
    traced_wall: f64,
    runner_idle_frac: f64,
    runner_speedup: f64,
    shard_speedup: f64,
    read_verify_s: f64,
    telemetry_overhead: f64,
    checkpoint_overhead: f64,
    router_kernel_ns: f64,
    generator_kernel_ns: f64,
    shapes_held: f64,
    power_saving: f64,
    dbr_gain: f64,
}

/// The per-layer metrics of one iteration, by name.
fn layer_values(w: Workload, points: usize, l: &Layers, x: &Extras) -> Vec<(&'static str, f64)> {
    let cycles = l.cycles as f64;
    let packets = l.packets_injected as f64;
    let t = &l.timers;
    let (speedup_2w, speedup_2w_uniform) = match w {
        Workload::B32Complement => (x.shard_speedup, 0.0),
        Workload::B32Uniform => (0.0, x.shard_speedup),
        _ => (0.0, 0.0),
    };
    let on_sweep = |v: f64| if w == Workload::Paper64Sweep { v } else { 0.0 };
    vec![
        ("core.system.cycles", cycles),
        ("core.system.new_s", l.new.as_secs_f64()),
        ("core.system.reconfig_s", t.reconfig.as_secs_f64()),
        ("core.system.inject_s", t.inject.as_secs_f64()),
        ("core.system.route_s", t.route.as_secs_f64()),
        ("core.system.optical_s", t.optical.as_secs_f64()),
        ("core.system.stats_s", t.stats.as_secs_f64()),
        (
            "core.system.approx_memory_bytes",
            l.approx_memory_bytes as f64,
        ),
        (
            "core.system.trace_overhead_frac",
            ratio(x.traced_wall, x.untraced_wall) - 1.0,
        ),
        ("router.flits_traversed", l.flits_traversed as f64),
        (
            "router.ns_per_flit",
            ratio(ns(t.route), l.flits_traversed as f64),
        ),
        ("router.kernel_step_ns_per_flit", x.router_kernel_ns),
        ("traffic.packets_injected", packets),
        ("core.inject.ns_per_cycle", ratio(ns(t.inject), cycles)),
        ("core.inject.ns_per_packet", ratio(ns(t.inject), packets)),
        ("traffic.generator.kernel_poll_ns", x.generator_kernel_ns),
        ("core.srs.ns_per_cycle", ratio(ns(t.optical), cycles)),
        ("core.srs.ns_per_packet", ratio(ns(t.optical), packets)),
        ("core.srs.grants", l.grants as f64),
        ("core.srs.retunes", l.retunes as f64),
        ("core.srs.lasers_on_end", l.lasers_on_end as f64),
        ("netstats.ns_per_cycle", ratio(ns(t.stats), cycles)),
        (
            "reconfig.ns_per_window",
            ratio(ns(t.reconfig), l.windows as f64),
        ),
        ("reconfig.ls_retries", l.ls_retries as f64),
        ("reconfig.ls_aborts", l.ls_aborts as f64),
        ("tune.controller.moves", l.controller_moves as f64),
        ("core.faults.applied", l.faults_applied as f64),
        ("core.runner.points", on_sweep(points as f64)),
        ("core.runner.dispatch_idle_frac", x.runner_idle_frac),
        ("core.runner.speedup_2t", x.runner_speedup),
        ("core.shard.speedup_2w", speedup_2w),
        ("core.shard.speedup_2w_uniform", speedup_2w_uniform),
        ("core.system.drain_window_s", l.drain_window.as_secs_f64()),
        ("core.stream.flush_s", l.stream_flush.as_secs_f64()),
        ("core.stream.bytes", l.stream_bytes as f64),
        ("core.stream.read_verify_s", x.read_verify_s),
        ("core.checkpoint.write_s", l.checkpoint_write.as_secs_f64()),
        ("core.checkpoint.bytes", l.checkpoint_bytes as f64),
        ("core.checkpoint.count", l.checkpoint_count as f64),
        (
            "core.checkpoint.restore_s",
            l.checkpoint_restore.as_secs_f64(),
        ),
        ("telemetry.records", l.telemetry_records as f64),
        ("telemetry.dropped", l.telemetry_dropped as f64),
        ("telemetry.on_overhead_frac", x.telemetry_overhead),
        ("core.checkpoint.on_overhead_frac", x.checkpoint_overhead),
        (
            "workloads.engine.emit_ns_per_entry",
            ratio(ns(l.emit), l.emit_entries as f64),
        ),
        (
            "workloads.ingest.dumpi_ns_per_event",
            ratio(ns(l.ingest_dumpi), l.ingest_dumpi_events as f64),
        ),
        (
            "workloads.ingest.otf2_ns_per_event",
            ratio(ns(l.ingest_otf2), l.ingest_otf2_events as f64),
        ),
        (
            "traffic.trace.encode_ns_per_entry",
            ratio(ns(l.trace_encode), l.trace_entries as f64),
        ),
        (
            "traffic.trace.decode_ns_per_entry",
            ratio(ns(l.trace_decode), l.trace_entries as f64),
        ),
        ("traffic.trace.bytes", l.trace_bytes as f64),
        (
            "traffic.trace.replay_inject_ns_per_packet",
            ratio(ns(l.replay_inject), l.replay_packets as f64),
        ),
        ("core.experiment.paper_shapes_held", x.shapes_held),
        (
            "core.experiment.uniform_pb_power_saving_l05",
            x.power_saving,
        ),
        ("core.experiment.complement_dbr_throughput_gain", x.dbr_gain),
    ]
}

/// The traced pass: per-layer metrics, spans written to
/// `<out_dir>/trace_<workload>.json`.
pub fn traced(opts: &Options) -> Result<PassReport, String> {
    let threads = worker_threads();
    let scratch = scratch_dir(opts)?;
    let name = opts.workload.name();
    let mut tally = Tally::default();
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut coverage = Vec::new();
    let mut last_spans = None;
    let mut last_digest = 0;
    let mut sizes = Sizes::default();
    let started = Instant::now();
    let mut slowest = 0.0f64;
    // Another iteration only while it is expected to fit the budget.
    while samples.is_empty() || started.elapsed().as_secs_f64() + slowest < opts.seconds {
        let iteration = Instant::now();
        let mut layers = Layers::default();
        let mut x = Extras::default();
        let mut spans = Spans::new();
        let root = spans.open(name, None);

        let setup = spans.open("setup", Some(root));
        let inputs = adapter::setup(opts.workload, opts.seed, opts.size, &scratch, &mut layers);
        spans.close(setup);
        sizes = adapter::sizes(&inputs);

        // Untraced baseline of the same region, on the sequential engine.
        let mut unused = Layers::default();
        let t = Instant::now();
        let plain = tally.run(
            "untraced baseline",
            sizes.points,
            guarded(|| adapter::timed(&inputs, NonZeroUsize::MIN, &mut unused, None)),
        );
        x.untraced_wall = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let profiled = {
            let mut trace = Trace::new(&mut spans, root);
            tally.run(
                "profiled",
                sizes.points,
                guarded(|| {
                    adapter::timed(&inputs, NonZeroUsize::MIN, &mut layers, Some(&mut trace))
                }),
            )
        };
        x.traced_wall = t.elapsed().as_secs_f64();
        spans.close(root);
        let (Some(plain), Some(profiled)) = (plain, profiled) else {
            break;
        };
        tally.check(
            "profiled_equals_untraced",
            digest_points(&plain.points) == digest_points(&profiled.points),
        );
        last_digest = digest(&profiled);
        coverage.push(ratio(
            layers.timers.total().as_secs_f64(),
            layers.profiled_wall.as_secs_f64(),
        ));

        match &inputs {
            Inputs::Sweep(sweep) => {
                let fan = adapter::sweep_fanout(sweep, threads);
                let lanes = threads.get() as f64;
                x.runner_idle_frac =
                    1.0 - ratio(fan.busy.as_secs_f64(), lanes * fan.span.as_secs_f64());
                x.runner_speedup = ratio(x.untraced_wall, fan.span.as_secs_f64());
                if let Some(f) = fidelity(&inputs, &profiled.points) {
                    x.shapes_held = f.claims.iter().filter(|c| c.1).count() as f64;
                    x.power_saving = f.uniform_pb_power_saving_l05;
                    x.dbr_gain = f.complement_dbr_throughput_gain;
                }
            }
            Inputs::Seq(points) => {
                if let Some(p) = adapter::pb_point(points) {
                    let (same, seq, sharded) = adapter::shard_compare(p);
                    tally.check("sharded_2w_equals_sequential", same);
                    x.shard_speedup = ratio(seq.as_secs_f64(), sharded.as_secs_f64());
                }
            }
            Inputs::Marathon(m) => {
                // Price reading the streamed files back, then telemetry
                // and checkpointing each against the same run without.
                match guarded(|| m.reference()) {
                    Ok(_) => x.read_verify_s = m.verify_files().2.as_secs_f64(),
                    Err(e) => eprintln!("marathon reference run: {e}"),
                }
                x.telemetry_overhead = ratio(
                    m.in_memory_wall(true).as_secs_f64(),
                    m.in_memory_wall(false).as_secs_f64(),
                ) - 1.0;
                if let (Ok(with), Ok(without)) = (m.streamed_wall(true), m.streamed_wall(false)) {
                    x.checkpoint_overhead = ratio(with.as_secs_f64(), without.as_secs_f64()) - 1.0;
                }
            }
            Inputs::Hostile(_) => {}
        }
        x.router_kernel_ns = adapter::router_kernel_ns_per_flit();
        x.generator_kernel_ns = adapter::generator_kernel_poll_ns(opts.seed);

        samples.push(layer_values(opts.workload, sizes.points, &layers, &x));
        last_spans = Some(spans);
        slowest = slowest.max(iteration.elapsed().as_secs_f64());
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let Some(spans) = last_spans else {
        return Err("no traced iteration completed".to_string());
    };
    let path = opts.out_dir.join(format!("trace_{name}.json"));
    std::fs::write(&path, spans.to_json(name).pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let metrics = samples[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let column: Vec<f64> = samples.iter().map(|s| s[i].1).collect();
            (name, summarize(&column))
        })
        .collect();
    Ok(PassReport {
        workload: opts.workload,
        traced: true,
        seed: opts.seed,
        threads: threads.get(),
        repeats: samples.len(),
        sizes,
        metrics,
        checks: tally.checks,
        attempted: tally.attempted,
        failed: tally.failed,
        digest: last_digest,
        info: vec![(
            "phase_buckets_over_profiled_wall",
            crate::stats::median(&coverage),
        )],
    })
}
