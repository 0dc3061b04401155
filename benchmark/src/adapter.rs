//! The only file that calls into the workspace crates.
//!
//! Everything the benchmark asks of the simulator goes through here, so a
//! change to the product API lands in one place. The end-to-end (timed)
//! path stays on the narrow surface ROADMAP item 1 intends to keep —
//! `System::{new, with_trace, run, run_sharded, run_with, step, metrics,
//! srs, board}`, `runner::run_points_timed_sharded`,
//! `stream::{StreamSink, run_streaming, read_deliveries}`,
//! `checkpoint::{Checkpointer, resume_latest}` — and never a `run_once_*`
//! variant. The traced pass additionally reads `run_profiled`'s
//! `PhaseTimers` and a few inspection accessors.
//!
//! The simulator never sees the benchmark seed: [`setup`] turns it into
//! configs, fault plans and external-format trace text, and the timed
//! region receives only those.

use crate::spans::Spans;
use crate::stats::median;
use desim::phase::PhasePlan;
use desim::snap::fnv1a;
use erapid_core::checkpoint::{resume_latest, Checkpointer};
use erapid_core::config::{ControlPlane, NetworkMode, SystemConfig};
use erapid_core::experiment::{RunResult, TraceSource};
use erapid_core::faults::{FaultKind, FaultPlan};
use erapid_core::runner::{run_points_timed_sharded, RunPoint};
use erapid_core::stream::{read_deliveries, run_streaming, StreamPaths, StreamSink};
use erapid_core::system::{PhaseTimers, System};
use erapid_telemetry::TraceConfig;
use erapid_tune::ControllerSpec;
use erapid_workloads::ingest::ingest_str;
use erapid_workloads::{ExternalFormat, ScenarioEngine, ScenarioSpec};
use reconfig::stages::ProtocolTiming;
use router::routing::TableRoute;
use router::{FlitInjector, NodeId, Packet, PacketId, PortId, Router, RouterConfig};
use std::fmt::Write as _;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use traffic::pattern::TrafficPattern;
use traffic::trace::{InjectionTrace, TraceMeta};

/// The seed EXPERIMENTS.md records; the paper-claim thresholds are
/// calibrated against it.
pub const DEFAULT_SEED: u64 = 0xE4A9_1D07;

/// One point's headline numbers — the product's own result row.
pub type PointOut = RunResult;

/// The five workloads. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Paper64Sweep,
    B32Uniform,
    B32Complement,
    MarathonStream,
    HostileReplay,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Paper64Sweep,
        Workload::B32Uniform,
        Workload::B32Complement,
        Workload::MarathonStream,
        Workload::HostileReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper64Sweep => "paper64_sweep",
            Workload::B32Uniform => "b32_uniform",
            Workload::B32Complement => "b32_complement",
            Workload::MarathonStream => "marathon_stream",
            Workload::HostileReplay => "hostile_replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// `Full` is what the benchmark measures; `Tiny` runs the same code on
/// `SystemConfig::small` with short plans so the package's own tests can
/// drive all five workloads in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Resolved sizes of one workload, recorded in every result manifest.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sizes {
    pub points: usize,
    /// Hard cycle cap of one point (the horizon for `marathon_stream`).
    pub horizon_cycles: u64,
    /// Checkpoint cadence in `R_w` windows (0 = no checkpointing).
    pub checkpoint_every_windows: u64,
}

/// Raw per-layer accumulators. The timed region fills the few it measures
/// anyway (one `Instant` pair around a whole call); the traced pass fills
/// the rest from `PhaseTimers` and the inspection accessors.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub timers: PhaseTimers,
    /// Wall time of the profiled runs the timers cover.
    pub profiled_wall: Duration,
    pub new: Duration,
    pub cycles: u64,
    pub windows: u64,
    pub approx_memory_bytes: usize,
    pub flits_traversed: u64,
    pub packets_injected: u64,
    pub grants: u64,
    pub retunes: u64,
    pub lasers_on_end: u64,
    pub ls_retries: u64,
    pub ls_aborts: u64,
    pub controller_moves: u64,
    pub faults_applied: u64,
    // marathon_stream
    pub drain_window: Duration,
    pub stream_flush: Duration,
    pub stream_bytes: u64,
    pub checkpoint_write: Duration,
    pub checkpoint_bytes: u64,
    pub checkpoint_count: u64,
    pub checkpoint_restore: Duration,
    pub telemetry_records: u64,
    pub telemetry_dropped: u64,
    // hostile_replay
    pub emit: Duration,
    pub emit_entries: u64,
    pub ingest_dumpi: Duration,
    pub ingest_dumpi_events: u64,
    pub ingest_otf2: Duration,
    pub ingest_otf2_events: u64,
    pub trace_encode: Duration,
    pub trace_decode: Duration,
    pub trace_entries: u64,
    pub trace_bytes: u64,
    pub replay_inject: Duration,
    pub replay_packets: u64,
}

/// Where the traced pass records its spans.
pub struct Trace<'a> {
    pub spans: &'a mut Spans,
    pub root: usize,
    next_point: usize,
}

impl<'a> Trace<'a> {
    pub fn new(spans: &'a mut Spans, root: usize) -> Self {
        Self {
            spans,
            root,
            next_point: 0,
        }
    }
}

/// What one execution of a workload's timed region produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub points: Vec<PointOut>,
    /// Simulated cycles executed (restored cycles are not re-counted).
    pub sim_cycles: u64,
    /// Further values that must repeat exactly (stream cursor, checksums).
    pub extra: Vec<u64>,
}

/// Generated inputs of one workload.
pub enum Inputs {
    Sweep(Sweep),
    Seq(Vec<RunPoint>),
    Marathon(Box<Marathon>),
    Hostile(Hostile),
}

pub struct Sweep {
    pub points: Vec<RunPoint>,
    /// `(pattern, mode, load)` of each point, for the paper-claim lookup.
    pub keys: Vec<(&'static str, &'static str, f64)>,
}

pub struct Marathon {
    cfg: SystemConfig,
    plan: PhasePlan,
    /// Same phases, capped mid-window at ~60 % of the horizon: the leg a
    /// killed run would have completed.
    kill_plan: PhasePlan,
    load: f64,
    every_windows: u64,
    dir: PathBuf,
}

pub struct Hostile {
    /// Plan A, scenario-major × mode: the scenario runs live.
    live: Vec<RunPoint>,
    /// Plan B, same order: replays the scenario from ingested text.
    replay: Vec<RunPoint>,
    texts: Vec<ExternalText>,
    modes: usize,
}

struct ExternalText {
    format: ExternalFormat,
    body: String,
    meta: TraceMeta,
}

// ---------------------------------------------------------------------
// Input generation (set-up)
// ---------------------------------------------------------------------

fn base_cfg(size: Size, mode: NetworkMode, seed: u64) -> SystemConfig {
    let mut cfg = match size {
        Size::Full => SystemConfig::paper64(mode),
        Size::Tiny => SystemConfig::small(mode),
    };
    cfg.seed = seed;
    cfg
}

/// B = 32 × D = 8, with the protocol timing scaled as the `scaling` bin
/// does.
fn b32_cfg(size: Size, mode: NetworkMode, seed: u64) -> SystemConfig {
    let mut cfg = base_cfg(size, mode, seed);
    if size == Size::Full {
        cfg.boards = 32;
        cfg.timing = ProtocolTiming {
            boards: 32,
            lcs_per_board: 8,
            ..ProtocolTiming::paper64()
        };
    }
    cfg
}

/// `(warm-up, measure, cap)` in `R_w` windows. Full is the plan
/// `tests/paper_claims.rs` calibrates its thresholds against.
fn plan_windows(
    size: Size,
    window: u64,
    full: (u64, u64, u64),
    tiny: (u64, u64, u64),
) -> PhasePlan {
    let (warm, measure, cap) = match size {
        Size::Full => full,
        Size::Tiny => tiny,
    };
    PhasePlan::new(warm * window, measure * window).with_max_cycles(cap * window)
}

fn quick_plan(size: Size, window: u64) -> PhasePlan {
    plan_windows(size, window, (2, 4, 20), (1, 1, 4))
}

fn generated(cfg: SystemConfig, pattern: TrafficPattern, load: f64, plan: PhasePlan) -> RunPoint {
    RunPoint {
        cfg,
        pattern,
        load,
        plan,
        source: TraceSource::Generate,
    }
}

fn sweep_inputs(seed: u64, size: Size) -> Sweep {
    let patterns = [
        TrafficPattern::Uniform,
        TrafficPattern::Complement,
        TrafficPattern::Butterfly,
        TrafficPattern::PerfectShuffle,
    ];
    // The loads the nine paper claims read, spanning the cheap low-load
    // third and the saturated top of the paper's 0.1–0.9 axis.
    let loads: &[f64] = match size {
        Size::Full => &[0.2, 0.4, 0.5, 0.7, 0.8],
        Size::Tiny => &[0.3, 0.7],
    };
    let mut points = Vec::new();
    let mut keys = Vec::new();
    for pattern in &patterns {
        for mode in NetworkMode::all() {
            for &load in loads {
                let cfg = base_cfg(size, mode, seed);
                let plan = quick_plan(size, cfg.schedule.window);
                keys.push((pattern.name(), mode.name(), load));
                points.push(generated(cfg, pattern.clone(), load, plan));
            }
        }
    }
    Sweep { points, keys }
}

fn b32_inputs(pattern: TrafficPattern, seed: u64, size: Size) -> Vec<RunPoint> {
    [NetworkMode::NpNb, NetworkMode::PB]
        .into_iter()
        .map(|mode| {
            let cfg = b32_cfg(size, mode, seed);
            let plan = quick_plan(size, cfg.schedule.window);
            generated(cfg, pattern.clone(), 0.6, plan)
        })
        .collect()
}

fn marathon_inputs(seed: u64, size: Size, scratch: &Path) -> Marathon {
    let mut cfg = base_cfg(size, NetworkMode::PB, seed);
    cfg.trace = TraceConfig::on();
    cfg.packet_log = true;
    let window = cfg.schedule.window;
    let (windows, every_windows) = match size {
        Size::Full => (150, 25),
        Size::Tiny => (12, 3),
    };
    let total = windows * window;
    // Measure almost the whole horizon so the run cannot drain early.
    let phases = PhasePlan::new(2 * window, (windows - 3) * window);
    Marathon {
        cfg,
        plan: phases.with_max_cycles(total),
        // Mid-window, so the kill never lands on a checkpoint.
        kill_plan: phases.with_max_cycles(total * 6 / 10 + window / 3),
        load: 0.5,
        every_windows,
        dir: scratch.to_path_buf(),
    }
}

fn render_dumpi(trace: &[traffic::trace::TraceEntry]) -> String {
    let mut out = String::from("# cycle src dst\n");
    for e in trace {
        let _ = writeln!(out, "{} {} {}", e.cycle, e.src, e.dst);
    }
    out
}

fn render_otf2(trace: &[traffic::trace::TraceEntry]) -> String {
    let mut out = String::new();
    for e in trace {
        let _ = writeln!(
            out,
            "{{\"t\":{},\"src\":{},\"dst\":{}}}",
            e.cycle, e.src, e.dst
        );
    }
    out
}

fn hostile_inputs(seed: u64, size: Size, layers: &mut Layers) -> Hostile {
    const LOAD: f64 = 0.6;
    let probe = base_cfg(size, NetworkMode::NpNb, seed);
    let window = probe.schedule.window;
    let plan = plan_windows(size, window, (2, 4, 10), (1, 2, 6));
    let (storm_end, storm_count, token_losses) = match size {
        Size::Full => (6 * window, 16, 3),
        Size::Tiny => (3 * window, 4, 2),
    };
    let storm =
        FaultPlan::relock_storm(seed, probe.boards, plan.warmup, storm_end, storm_count, 500);
    // Bandwidth boundaries fall on even window multiples; strike ten
    // cycles into each round, with the token mid-flight on the RC ring.
    let mut token = FaultPlan::new();
    for i in 0..token_losses {
        token.push(
            2 * window * (i + 1) + 10,
            FaultKind::TokenLoss { victim: 3 },
        );
    }
    let rate = probe.capacity().injection_rate(LOAD);
    let modes = NetworkMode::all();
    let mut h = Hostile {
        live: Vec::new(),
        replay: Vec::new(),
        texts: Vec::new(),
        modes: modes.len(),
    };
    for (si, spec) in ScenarioSpec::paper_suite().into_iter().enumerate() {
        let t = Instant::now();
        let entries =
            ScenarioEngine::new(spec.clone(), probe.nodes(), rate, seed).emit(plan.max_cycles);
        layers.emit += t.elapsed();
        layers.emit_entries += entries.len() as u64;
        let format = if si % 2 == 0 {
            ExternalFormat::DumpiText
        } else {
            ExternalFormat::Otf2Jsonl
        };
        h.texts.push(ExternalText {
            format,
            body: match format {
                ExternalFormat::DumpiText => render_dumpi(&entries),
                ExternalFormat::Otf2Jsonl => render_otf2(&entries),
            },
            meta: TraceMeta {
                seed,
                boards: probe.boards,
                nodes_per_board: probe.nodes_per_board,
                pattern: format!("ingest:{}", spec.name()),
                load: LOAD,
                git_sha: "benchmark".to_string(),
            },
        });
        for mode in modes {
            let mut a = base_cfg(size, mode, seed);
            a.scenario = Some(spec.clone());
            a.faults = storm.clone();
            // The pattern is inert under a scenario or a replay.
            h.live
                .push(generated(a, TrafficPattern::Uniform, LOAD, plan));
            let mut b = base_cfg(size, mode, seed);
            b.control_plane = ControlPlane::MessageLevel;
            b.faults = token.clone();
            b.tune = match mode {
                NetworkMode::PB => Some(ControllerSpec::paper_pb()),
                NetworkMode::PNb => Some(ControllerSpec::paper_pnb()),
                _ => None,
            };
            h.replay
                .push(generated(b, TrafficPattern::Uniform, LOAD, plan));
        }
    }
    h
}

/// Builds one workload's inputs from the seed. `scratch` is where
/// `marathon_stream` writes its stream and checkpoint files. Every point's
/// system is also constructed once and dropped: a config the simulator
/// would reject fails here, before the timed region, and the cost of
/// `System::new` shows in `setup_s`.
pub fn setup(w: Workload, seed: u64, size: Size, scratch: &Path, layers: &mut Layers) -> Inputs {
    let inputs = match w {
        Workload::Paper64Sweep => Inputs::Sweep(sweep_inputs(seed, size)),
        Workload::B32Uniform => Inputs::Seq(b32_inputs(TrafficPattern::Uniform, seed, size)),
        Workload::B32Complement => Inputs::Seq(b32_inputs(TrafficPattern::Complement, seed, size)),
        Workload::MarathonStream => {
            Inputs::Marathon(Box::new(marathon_inputs(seed, size, scratch)))
        }
        Workload::HostileReplay => Inputs::Hostile(hostile_inputs(seed, size, layers)),
    };
    let points: Vec<&RunPoint> = match &inputs {
        Inputs::Sweep(s) => s.points.iter().collect(),
        Inputs::Seq(points) => points.iter().collect(),
        Inputs::Marathon(_) => Vec::new(),
        Inputs::Hostile(h) => h.live.iter().chain(&h.replay).collect(),
    };
    for p in points {
        black_box(build_system(p, None));
    }
    if let Inputs::Marathon(m) = &inputs {
        black_box(m.system(m.plan));
    }
    inputs
}

pub fn sizes(inputs: &Inputs) -> Sizes {
    // Every point of a workload shares one plan.
    let of = |points: &[RunPoint], count: usize| Sizes {
        points: count,
        horizon_cycles: points.first().map_or(0, |p| p.plan.max_cycles),
        checkpoint_every_windows: 0,
    };
    match inputs {
        Inputs::Sweep(s) => of(&s.points, s.points.len()),
        Inputs::Seq(points) => of(points, points.len()),
        Inputs::Marathon(m) => Sizes {
            points: 1,
            horizon_cycles: m.plan.max_cycles,
            checkpoint_every_windows: m.every_windows,
        },
        Inputs::Hostile(h) => of(&h.live, h.live.len() + h.replay.len()),
    }
}

// ---------------------------------------------------------------------
// Running points
// ---------------------------------------------------------------------

/// A point's system: fed by `replay` when given, else by the point's own
/// generators or scenario.
fn build_system(p: &RunPoint, replay: Option<&InjectionTrace>) -> System {
    match replay {
        None => System::new(p.cfg.clone(), p.pattern.clone(), p.load, p.plan),
        Some(trace) => System::with_trace(p.cfg.clone(), trace.replayer(), p.plan),
    }
}

/// The product's `RunResult` row, read off a finished system.
fn result_of(sys: &System, load: f64, cycles: u64) -> PointOut {
    let m = sys.metrics();
    let capacity = sys.config().capacity().uniform_capacity();
    let (grants, retunes) = sys.srs().reconfig_counts();
    let (ls_retries, ls_aborts) = sys.control_stats();
    RunResult {
        load,
        throughput: m.throughput_ppc(),
        throughput_norm: m.throughput_ppc() / capacity,
        latency: m.mean_latency(),
        latency_p95: m.latency.p95().unwrap_or(0.0),
        power_mw: m.average_power_mw(),
        src_path: m.src_path.mean(),
        tx_wait: m.tx_wait.mean(),
        undrained: m.tracker.outstanding(),
        grants,
        retunes,
        ls_retries,
        ls_aborts,
        injected: m.injected_total,
        delivered: m.delivered_total,
        cycles,
    }
}

fn add_timers(into: &mut PhaseTimers, t: &PhaseTimers) {
    into.reconfig += t.reconfig;
    into.inject += t.inject;
    into.route += t.route;
    into.optical += t.optical;
    into.stats += t.stats;
}

/// Counts read off a finished system into the per-layer accumulators.
fn absorb_counts(layers: &mut Layers, sys: &System, cycles: u64) {
    let cfg = sys.config();
    layers.cycles += cycles;
    layers.windows += cycles / cfg.schedule.window;
    layers.approx_memory_bytes = layers.approx_memory_bytes.max(sys.approx_memory_bytes());
    layers.flits_traversed += (0..cfg.boards)
        .map(|b| sys.board(b).router().stats().traversed)
        .sum::<u64>();
    layers.packets_injected += sys.metrics().injected_total;
    let (grants, retunes) = sys.srs().reconfig_counts();
    layers.grants += grants;
    layers.retunes += retunes;
    layers.lasers_on_end += sys.srs().lasers_on() as u64;
    let (retries, aborts) = sys.control_stats();
    layers.ls_retries += retries;
    layers.ls_aborts += aborts;
    layers.controller_moves += sys.controller().map_or(0, |c| c.moves());
    // Faults apply at the top of the cycle they are due, so every event
    // scheduled before the final cycle has been applied.
    layers.faults_applied += cfg.faults.events().iter().filter(|e| e.at < cycles).count() as u64;
}

fn bucket_children(timers: &PhaseTimers) -> [(&'static str, u64); 5] {
    [
        ("core.system.reconfig", timers.reconfig.as_nanos() as u64),
        ("core.system.inject", timers.inject.as_nanos() as u64),
        ("core.system.route", timers.route.as_nanos() as u64),
        ("core.system.optical", timers.optical.as_nanos() as u64),
        ("core.system.stats", timers.stats.as_nanos() as u64),
    ]
}

/// Runs one point on the sequential engine. Untraced it is `new` + `run`;
/// traced it is `new` + `run_profiled` under a `point[i]` span whose five
/// synthetic children are the `PhaseTimers` buckets.
fn run_point(
    p: &RunPoint,
    replay: Option<&InjectionTrace>,
    layers: &mut Layers,
    trace: &mut Option<&mut Trace<'_>>,
) -> PointOut {
    let Some(tr) = trace.as_deref_mut() else {
        let mut sys = build_system(p, replay);
        let cycles = sys.run();
        return result_of(&sys, p.load, cycles);
    };
    let span = tr
        .spans
        .open(format!("point[{}]", tr.next_point), Some(tr.root));
    tr.next_point += 1;
    let t = Instant::now();
    let mut sys = build_system(p, replay);
    let built = t.elapsed();
    tr.spans
        .closed("core.system.new", span, built.as_nanos() as u64);
    layers.new += built;
    let mut timers = PhaseTimers::default();
    let t = Instant::now();
    let cycles = sys.run_profiled(&mut timers);
    layers.profiled_wall += t.elapsed();
    tr.spans.close(span);
    tr.spans.synthetic_children(span, &bucket_children(&timers));
    add_timers(&mut layers.timers, &timers);
    absorb_counts(layers, &sys, cycles);
    if replay.is_some() {
        layers.replay_inject += timers.inject;
        layers.replay_packets += sys.metrics().injected_total;
    }
    result_of(&sys, p.load, cycles)
}

fn outcome(points: Vec<PointOut>, extra: Vec<u64>) -> Outcome {
    Outcome {
        sim_cycles: points.iter().map(|p| p.cycles).sum(),
        points,
        extra,
    }
}

/// One fan-out of the sweep through the run-level executor.
pub struct Fanout {
    pub results: Vec<PointOut>,
    /// Sum of the per-point walls the executor reports.
    pub busy: Duration,
    pub span: Duration,
}

pub fn sweep_fanout(s: &Sweep, threads: NonZeroUsize) -> Fanout {
    let points = s.points.clone();
    let t = Instant::now();
    let timed = run_points_timed_sharded(threads, NonZeroUsize::MIN, points);
    let span = t.elapsed();
    Fanout {
        busy: timed.iter().map(|(_, d)| *d).sum(),
        results: timed.into_iter().map(|(r, _)| r).collect(),
        span,
    }
}

/// The run the timed repeats must reproduce, executed once, untimed: the
/// sweep on a one-thread executor, the marathon uninterrupted, the other
/// workloads exactly as a repeat.
pub fn reference(
    inputs: &Inputs,
    threads: NonZeroUsize,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    match inputs {
        Inputs::Sweep(s) => Ok(outcome(
            sweep_fanout(s, NonZeroUsize::MIN).results,
            Vec::new(),
        )),
        Inputs::Marathon(m) => m.reference(),
        _ => timed(inputs, threads, layers, None),
    }
}

/// Executes a workload's timed region once.
///
/// Untraced (`trace == None`) this is the end-to-end path. Traced, every
/// point runs on the sequential engine under `run_profiled` (the sweep
/// included: the executor's own cost is measured by [`sweep_fanout`]) and
/// `marathon_stream` drives its own window callback so each layer call
/// gets a span.
pub fn timed(
    inputs: &Inputs,
    threads: NonZeroUsize,
    layers: &mut Layers,
    mut trace: Option<&mut Trace<'_>>,
) -> Result<Outcome, String> {
    match inputs {
        Inputs::Sweep(s) if trace.is_none() => {
            Ok(outcome(sweep_fanout(s, threads).results, Vec::new()))
        }
        Inputs::Sweep(Sweep { points, .. }) | Inputs::Seq(points) => Ok(outcome(
            points
                .iter()
                .map(|p| run_point(p, None, layers, &mut trace))
                .collect(),
            Vec::new(),
        )),
        Inputs::Marathon(m) => m.kill_and_resume(layers, &mut trace),
        Inputs::Hostile(h) => h.run(layers, &mut trace),
    }
}

// ---------------------------------------------------------------------
// hostile_replay
// ---------------------------------------------------------------------

impl Hostile {
    fn run(
        &self,
        layers: &mut Layers,
        trace: &mut Option<&mut Trace<'_>>,
    ) -> Result<Outcome, String> {
        let mut points = Vec::with_capacity(self.live.len() + self.replay.len());
        let mut checksums = Vec::with_capacity(self.texts.len());
        for (si, text) in self.texts.iter().enumerate() {
            let t = Instant::now();
            let ingested = ingest_str(&text.body, text.format, text.meta.clone())
                .map_err(|e| format!("ingest of scenario {si}: {e}"))?;
            let dt = t.elapsed();
            let events = ingested.entries.len() as u64;
            match text.format {
                ExternalFormat::DumpiText => {
                    layers.ingest_dumpi += dt;
                    layers.ingest_dumpi_events += events;
                }
                ExternalFormat::Otf2Jsonl => {
                    layers.ingest_otf2 += dt;
                    layers.ingest_otf2_events += events;
                }
            }
            let t = Instant::now();
            let bytes = ingested.to_binary();
            layers.trace_encode += t.elapsed();
            let t = Instant::now();
            let decoded = InjectionTrace::from_binary(&bytes)
                .map_err(|e| format!("decode of scenario {si}: {e}"))?;
            layers.trace_decode += t.elapsed();
            layers.trace_entries += events;
            layers.trace_bytes += bytes.len() as u64;
            if decoded.checksum() != ingested.checksum() {
                return Err(format!(
                    "scenario {si}: trace checksum changed across to_binary/from_binary"
                ));
            }
            checksums.push(decoded.checksum());
            for mi in 0..self.modes {
                let at = si * self.modes + mi;
                points.push(run_point(&self.live[at], None, layers, trace));
                points.push(run_point(&self.replay[at], Some(&decoded), layers, trace));
            }
        }
        Ok(outcome(points, checksums))
    }

    /// Records the first live point's injections, replays them under the
    /// same config, and reports whether the two results are bit-identical.
    pub fn record_then_replay_matches(&self) -> bool {
        let mut p = self.live[0].clone();
        p.cfg.record_injections = true;
        let mut sys = build_system(&p, None);
        let cycles = sys.run();
        let recorded = result_of(&sys, p.load, cycles);
        let Some(log) = sys.take_injection_log() else {
            return false;
        };
        let mut sys = build_system(&p, Some(&log.into_trace(TraceMeta::default())));
        let cycles = sys.run();
        point_bits(&recorded) == point_bits(&result_of(&sys, p.load, cycles))
    }
}

// ---------------------------------------------------------------------
// marathon_stream
// ---------------------------------------------------------------------

/// Which of the two on-disk runs a path belongs to.
#[derive(Clone, Copy)]
enum Side {
    /// The uninterrupted run.
    Reference,
    /// The killed-then-resumed run.
    Resumed,
}

impl Marathon {
    fn system(&self, plan: PhasePlan) -> System {
        System::new(self.cfg.clone(), TrafficPattern::Uniform, self.load, plan)
    }

    fn tag(side: Side) -> &'static str {
        match side {
            Side::Reference => "reference",
            Side::Resumed => "resumed",
        }
    }

    fn paths(&self, side: Side) -> StreamPaths {
        let tag = Self::tag(side);
        StreamPaths {
            trace: Some(self.dir.join(format!("trace_{tag}.jsonl"))),
            deliveries: Some(self.dir.join(format!("deliv_{tag}.erpd"))),
        }
    }

    /// A checkpointer into an emptied directory: a snapshot left by an
    /// earlier repeat would otherwise be the newest one to resume from.
    fn fresh_checkpointer(&self, side: Side) -> Result<Checkpointer, String> {
        let dir = self.checkpoint_dir(side);
        let _ = std::fs::remove_dir_all(&dir);
        self.checkpointer(side)
    }

    fn checkpoint_dir(&self, side: Side) -> PathBuf {
        self.dir.join(format!("ckpt_{}", Self::tag(side)))
    }

    fn checkpointer(&self, side: Side) -> Result<Checkpointer, String> {
        Checkpointer::new(
            self.checkpoint_dir(side),
            self.every_windows,
            self.cfg.schedule.window,
        )
        .map_err(|e| format!("checkpoint dir: {e}"))
    }

    /// One streamed leg. Untraced it is the product's `run_streaming`;
    /// traced it is the same window callback written out here, with a span
    /// around each layer call and `step_profiled` for the cycle buckets.
    fn stream_leg(
        &self,
        sys: &mut System,
        sink: &mut StreamSink,
        ckpt: &mut Checkpointer,
        layers: &mut Layers,
        trace: &mut Option<&mut Trace<'_>>,
        leg: &str,
    ) -> Result<u64, String> {
        let io = |e: std::io::Error| format!("{leg} leg: {e}");
        let Some(tr) = trace.as_deref_mut() else {
            return run_streaming(sys, NonZeroUsize::MIN, sink, Some(ckpt)).map_err(io);
        };
        let span = tr
            .spans
            .open(format!("point[{}]", tr.next_point), Some(tr.root));
        tr.next_point += 1;
        let window = self.cfg.schedule.window;
        let counters = sys.metric_counter_names();
        let gauges = sys.metric_gauge_names();
        let plan = sys.metrics().plan;
        let start = sys.now();
        let mut timers = PhaseTimers::default();
        let t_run = Instant::now();
        let mut boundary =
            |sys: &mut System, layers: &mut Layers, ckpt: Option<&mut Checkpointer>| {
                let t = Instant::now();
                let flush = sys.drain_window();
                let dt = t.elapsed();
                layers.drain_window += dt;
                layers.telemetry_records += flush.records.len() as u64;
                tr.spans
                    .closed("core.system.drain_window", span, dt.as_nanos() as u64);
                let t = Instant::now();
                sink.flush_window(&flush, &counters, &gauges)?;
                let dt = t.elapsed();
                layers.stream_flush += dt;
                tr.spans
                    .closed("core.stream.flush_window", span, dt.as_nanos() as u64);
                if let Some(ckpt) = ckpt {
                    let t = Instant::now();
                    let wrote = ckpt.maybe_checkpoint(sys, sink.cursor())?;
                    let dt = t.elapsed();
                    layers.checkpoint_write += dt;
                    tr.spans.closed(
                        "core.checkpoint.maybe_checkpoint",
                        span,
                        dt.as_nanos() as u64,
                    );
                    if wrote {
                        let name = format!("ckpt-{:012}.ersp", sys.now());
                        layers.checkpoint_bytes +=
                            std::fs::metadata(self.checkpoint_dir(Side::Resumed).join(name))?.len();
                    }
                }
                Ok::<(), std::io::Error>(())
            };
        while sys.now() < plan.max_cycles && !sys.metrics().tracker.complete(&plan, sys.now()) {
            let now = sys.now();
            if now != 0 && now.is_multiple_of(window) {
                boundary(sys, layers, Some(ckpt)).map_err(io)?;
            }
            sys.step_profiled(&mut timers);
        }
        boundary(sys, layers, None).map_err(io)?;
        layers.profiled_wall += t_run.elapsed();
        tr.spans.close(span);
        add_timers(&mut layers.timers, &timers);
        absorb_counts(layers, sys, sys.now() - start);
        layers.telemetry_dropped += sys.trace_dropped();
        Ok(sys.now())
    }

    /// The timed region: stream to the kill point with checkpoints, then a
    /// fresh system restored from the newest snapshot, the stream files
    /// truncated to its cursor, run to the horizon.
    fn kill_and_resume(
        &self,
        layers: &mut Layers,
        trace: &mut Option<&mut Trace<'_>>,
    ) -> Result<Outcome, String> {
        let paths = self.paths(Side::Resumed);
        let mut ckpt = self.fresh_checkpointer(Side::Resumed)?;
        let t = Instant::now();
        let mut sys = self.system(self.kill_plan);
        layers.new += t.elapsed();
        let mut sink =
            StreamSink::create(&paths).map_err(|e| format!("create stream files: {e}"))?;
        let killed_at = self.stream_leg(&mut sys, &mut sink, &mut ckpt, layers, trace, "kill")?;
        // A killed process never finalizes its sink.
        drop(sink);
        layers.checkpoint_count += ckpt.written_count();

        let t = Instant::now();
        let mut sys = self.system(self.plan);
        layers.new += t.elapsed();
        let t = Instant::now();
        let (_, cursor) = resume_latest(&mut sys, &self.checkpoint_dir(Side::Resumed))
            .ok_or("no valid checkpoint to resume from")?;
        let restore = t.elapsed();
        layers.checkpoint_restore += restore;
        if let Some(tr) = trace.as_deref_mut() {
            tr.spans.closed(
                "core.checkpoint.resume_latest",
                tr.root,
                restore.as_nanos() as u64,
            );
        }
        let restored_at = sys.now();
        let mut sink =
            StreamSink::resume(&paths, cursor).map_err(|e| format!("reopen stream files: {e}"))?;
        let mut ckpt = self.checkpointer(Side::Resumed)?;
        let end = self.stream_leg(&mut sys, &mut sink, &mut ckpt, layers, trace, "resume")?;
        let cursor = sink
            .finalize()
            .map_err(|e| format!("finalize stream: {e}"))?;
        layers.checkpoint_count += ckpt.written_count();
        layers.stream_bytes += cursor.trace_bytes + cursor.deliv_bytes;
        Ok(Outcome {
            points: vec![result_of(&sys, self.load, end)],
            sim_cycles: killed_at + (end - restored_at),
            extra: vec![
                restored_at,
                cursor.trace_bytes,
                cursor.deliv_bytes,
                cursor.deliv_records,
                cursor.deliv_fnv,
            ],
        })
    }

    /// The uninterrupted run the resumed one must reproduce: same
    /// streaming and checkpoint cadence, never killed.
    pub fn reference(&self) -> Result<Outcome, String> {
        let mut ckpt = self.fresh_checkpointer(Side::Reference)?;
        let mut sys = self.system(self.plan);
        let mut sink = StreamSink::create(&self.paths(Side::Reference))
            .map_err(|e| format!("create stream files: {e}"))?;
        let end = run_streaming(&mut sys, NonZeroUsize::MIN, &mut sink, Some(&mut ckpt))
            .map_err(|e| format!("reference run: {e}"))?;
        sink.finalize()
            .map_err(|e| format!("finalize stream: {e}"))?;
        Ok(outcome(vec![result_of(&sys, self.load, end)], Vec::new()))
    }

    /// Reads both runs' files back and compares them: `(trace JSONL bytes
    /// equal, delivery logs verify and are equal)`, plus the read time.
    pub fn verify_files(&self) -> (bool, bool, Duration) {
        let t = Instant::now();
        let (a, b) = (self.paths(Side::Reference), self.paths(Side::Resumed));
        let read = |p: &Option<PathBuf>| p.as_ref().and_then(|p| std::fs::read(p).ok());
        let traces_equal = match (read(&a.trace), read(&b.trace)) {
            (Some(x), Some(y)) => !x.is_empty() && x == y,
            _ => false,
        };
        let deliveries = |p: &Option<PathBuf>| p.as_ref().and_then(|p| read_deliveries(p).ok());
        let deliveries_equal = match (deliveries(&a.deliveries), deliveries(&b.deliveries)) {
            (Some(x), Some(y)) => !x.is_empty() && x == y,
            _ => false,
        };
        (traces_equal, deliveries_equal, t.elapsed())
    }

    /// Wall of one uninterrupted in-memory run, telemetry on (trace ring +
    /// packet log, drained every window, nothing written) or off.
    pub fn in_memory_wall(&self, telemetry: bool) -> Duration {
        let mut cfg = self.cfg.clone();
        if !telemetry {
            cfg.trace = TraceConfig::off();
            cfg.packet_log = false;
        }
        let window = cfg.schedule.window;
        let mut sys = System::new(cfg, TrafficPattern::Uniform, self.load, self.plan);
        let t = Instant::now();
        sys.run_with(NonZeroUsize::MIN, &mut |s: &mut System| {
            if telemetry && s.now() != 0 && s.now().is_multiple_of(window) {
                black_box(s.drain_window());
            }
        });
        t.elapsed()
    }

    /// Wall of one uninterrupted streamed run with or without a
    /// checkpointer.
    pub fn streamed_wall(&self, checkpoints: bool) -> Result<Duration, String> {
        let mut ckpt = if checkpoints {
            Some(self.fresh_checkpointer(Side::Resumed)?)
        } else {
            None
        };
        let mut sys = self.system(self.plan);
        let mut sink = StreamSink::create(&self.paths(Side::Resumed))
            .map_err(|e| format!("create stream files: {e}"))?;
        let t = Instant::now();
        run_streaming(&mut sys, NonZeroUsize::MIN, &mut sink, ckpt.as_mut())
            .map_err(|e| format!("streamed run: {e}"))?;
        sink.finalize()
            .map_err(|e| format!("finalize stream: {e}"))?;
        Ok(t.elapsed())
    }
}

// ---------------------------------------------------------------------
// Cross-checks and layer experiments
// ---------------------------------------------------------------------

/// Every field of a result row as raw bits, for exact comparison and the
/// repeat digest.
pub fn point_bits(r: &PointOut) -> [u64; 16] {
    [
        r.load.to_bits(),
        r.throughput.to_bits(),
        r.throughput_norm.to_bits(),
        r.latency.to_bits(),
        r.latency_p95.to_bits(),
        r.power_mw.to_bits(),
        r.src_path.to_bits(),
        r.tx_wait.to_bits(),
        r.undrained,
        r.grants,
        r.retunes,
        r.ls_retries,
        r.ls_aborts,
        r.injected,
        r.delivered,
        r.cycles,
    ]
}

/// FNV-1a over every point's result bits, then `extra` — what must repeat
/// exactly from run to run and, for a simulator-only change, from commit
/// to commit.
pub fn digest(points: &[PointOut], extra: &[u64]) -> u64 {
    let bytes: Vec<u8> = points
        .iter()
        .flat_map(point_bits)
        .chain(extra.iter().copied())
        .flat_map(u64::to_le_bytes)
        .collect();
    fnv1a(&bytes)
}

/// `run()` against `run_sharded(2)` on one point: `(results identical,
/// sequential wall, sharded wall)`.
pub fn shard_compare(p: &RunPoint) -> (bool, Duration, Duration) {
    let two = NonZeroUsize::MIN.saturating_add(1);
    let mut seq = build_system(p, None);
    let t = Instant::now();
    let cycles = seq.run();
    let seq_wall = t.elapsed();
    let seq_result = result_of(&seq, p.load, cycles);
    let mut sharded = build_system(p, None);
    let t = Instant::now();
    let cycles = sharded.run_sharded(two);
    let sharded_wall = t.elapsed();
    let same = point_bits(&seq_result) == point_bits(&result_of(&sharded, p.load, cycles));
    (same, seq_wall, sharded_wall)
}

/// The P-B point of a `b32_*` workload (the last of its two points).
pub fn pb_point(points: &[RunPoint]) -> Option<&RunPoint> {
    points.iter().find(|p| p.cfg.mode == NetworkMode::PB)
}

/// Kernel: a 16×16, 4-VC router under all-to-adjacent traffic (port `p`
/// sends 8-flit packets to port `p+1`), credits returned at once. Median
/// ns per traversed flit over five drives.
pub fn router_kernel_ns_per_flit() -> f64 {
    const PORTS: u16 = 16;
    const CYCLES: u64 = 20_000;
    let drive = || {
        let mut router = Router::new(
            RouterConfig {
                in_ports: PORTS,
                out_ports: PORTS,
                vcs: 4,
                buf_depth: 4,
                downstream_depth: 64,
            },
            Box::new(TableRoute::new((0..PORTS).map(PortId).collect())),
        );
        let mut injectors: Vec<FlitInjector> =
            (0..PORTS).map(|p| FlitInjector::new(PortId(p))).collect();
        let mut traversals = Vec::new();
        let mut next_id = 0u64;
        let t = Instant::now();
        for now in 0..CYCLES {
            for (p, inj) in injectors.iter_mut().enumerate() {
                if inj.is_idle() {
                    inj.enqueue(Packet {
                        id: PacketId(next_id),
                        src: NodeId(p as u32),
                        dst: NodeId((p as u32 + 1) % PORTS as u32),
                        flits: 8,
                        injected_at: now,
                        labelled: false,
                    });
                    next_id += 1;
                }
                inj.tick(&mut router);
            }
            traversals.clear();
            router.step_into(now, &mut traversals);
            for t in &traversals {
                router.credit(t.out_port, t.out_vc);
            }
        }
        let wall = t.elapsed();
        wall.as_nanos() as f64 / black_box(router.stats().traversed).max(1) as f64
    };
    median(&(0..5).map(|_| drive()).collect::<Vec<f64>>())
}

/// Kernel: 64 Bernoulli generators polled at the paper64 load-0.1 and
/// load-0.9 rates. Median ns per poll over five drives.
pub fn generator_kernel_poll_ns(seed: u64) -> f64 {
    const NODES: u32 = 64;
    const CYCLES: u64 = 20_000;
    let capacity = SystemConfig::paper64(NetworkMode::NpNb).capacity();
    let drive = || {
        let mut spent = Duration::ZERO;
        for load in [0.1, 0.9] {
            let mut gens = traffic::generator::build_generators(
                NODES,
                &TrafficPattern::Uniform,
                capacity.injection_rate(load),
                seed,
            );
            let mut fired = 0u64;
            let t = Instant::now();
            for now in 0..CYCLES {
                for g in &mut gens {
                    if let Some(req) = g.poll(now) {
                        fired += u64::from(req.dst);
                    }
                }
            }
            spent += t.elapsed();
            black_box(fired);
        }
        spent.as_nanos() as f64 / (2 * CYCLES * u64::from(NODES)) as f64
    };
    median(&(0..5).map(|_| drive()).collect::<Vec<f64>>())
}
