//! Experiment runner: single runs and load sweeps.
//!
//! §4's methodology: warm up, label packets injected during a measurement
//! interval, run until the labelled packets drain, report throughput
//! (packets/node/cycle), mean latency (cycles) and power (mW). The load
//! axis is normalised to the uniform-traffic capacity `N_c`, swept 0.1–0.9.

use crate::config::{NetworkMode, SystemConfig};
use crate::metrics::PacketDelivery;
use crate::system::System;
use desim::phase::PhasePlan;
use desim::Cycle;
use erapid_telemetry::{HistogramSummary, TraceRecord, WindowSnapshot};
use std::sync::Arc;
use traffic::pattern::TrafficPattern;
use traffic::trace::{InjectionTrace, TraceMeta};

/// One run's headline numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Normalised offered load (fraction of `N_c`).
    pub load: f64,
    /// Accepted throughput, packets/node/cycle.
    pub throughput: f64,
    /// Accepted throughput normalised to `N_c`.
    pub throughput_norm: f64,
    /// Mean end-to-end latency, cycles.
    pub latency: f64,
    /// 95th-percentile latency, cycles.
    pub latency_p95: f64,
    /// Average optical power, mW.
    pub power_mw: f64,
    /// Mean source-side path time of remote packets (injection →
    /// TX-queue-ready), cycles.
    pub src_path: f64,
    /// Mean TX-queue wait of remote packets (ready → optical departure),
    /// cycles.
    pub tx_wait: f64,
    /// Labelled packets still stuck when the run stopped (0 = clean drain).
    pub undrained: u64,
    /// Ownership grants applied (DBR activity).
    pub grants: u64,
    /// Bit-rate transitions applied (DPM activity).
    pub retunes: u64,
    /// LS token resends performed by the control-plane watchdog.
    pub ls_retries: u64,
    /// DBR rounds aborted fail-safe (retry budget exhausted).
    pub ls_aborts: u64,
    /// Packets injected over the whole run (all phases).
    pub injected: u64,
    /// Packets delivered over the whole run (all phases).
    pub delivered: u64,
    /// Final cycle of the run.
    pub cycles: Cycle,
}

impl RunResult {
    /// Whole-run delivered fraction (`delivered / injected`; 1.0 for an
    /// idle run) — the survival headline the scenario bench ranks by.
    pub fn delivered_fraction(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }
}

/// Default phase plan used by the figure benches: three R_w windows of
/// warm-up, six of measurement (enough for several odd–even LS rounds).
pub fn default_plan(window: Cycle) -> PhasePlan {
    PhasePlan::new(3 * window, 6 * window).with_max_cycles(40 * window)
}

/// Where a run's injections come from.
///
/// `Generate` is the paper's model: per-node Bernoulli (or bursty) sources
/// seeded from the config. `Replay` feeds a recorded [`InjectionTrace`]
/// instead, so two runs under *different* configurations see the exact
/// same packets — the packet-for-packet comparison a distribution-wise A/B
/// cannot provide. The trace rides in an [`Arc`] because one recording is
/// typically replayed across many points (four modes × N loads), and
/// [`crate::runner::RunPoint`] stays `Clone + Send` for the parallel
/// executor.
#[derive(Debug, Clone, Default)]
pub enum TraceSource {
    /// Live traffic generators (the default).
    #[default]
    Generate,
    /// Replay this recorded trace; the point's `pattern`/`load` are
    /// ignored (every injection comes from the trace; the reported
    /// `RunResult::load` is the trace's recorded load).
    Replay(Arc<InjectionTrace>),
}

/// Everything a traced run recorded beyond its [`RunResult`]: the
/// cycle-stamped event stream plus the per-window metric snapshots
/// (column names in registration order). Empty (but well-formed) when the
/// point's [`SystemConfig::trace`] was off.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Recorded events, in emission (= simulation) order.
    pub records: Vec<TraceRecord>,
    /// Events lost to ring-buffer overwrite (0 = complete trace).
    pub dropped: u64,
    /// Counter column names for [`WindowSnapshot::counters`].
    pub counter_names: Vec<String>,
    /// Gauge column names for [`WindowSnapshot::gauges`].
    pub gauge_names: Vec<String>,
    /// One snapshot per completed lock-step window.
    pub windows: Vec<WindowSnapshot>,
    /// Run-cumulative histogram digests (latency, TX wait), in
    /// registration order.
    pub hist_summaries: Vec<HistogramSummary>,
    /// Per-packet delivery rows (empty unless the point's
    /// [`SystemConfig::packet_log`] was on).
    pub packets: Vec<PacketDelivery>,
}

/// Runs one configuration at one load point.
pub fn run_once(
    cfg: SystemConfig,
    pattern: TrafficPattern,
    load: f64,
    plan: PhasePlan,
) -> RunResult {
    run_once_traced(cfg, pattern, load, plan).0
}

/// Runs one configuration at one load point, returning the trace the
/// system recorded alongside the headline numbers. Tracing observes the
/// run without perturbing it: the [`RunResult`] is byte-identical whether
/// `cfg.trace` is on or off.
pub fn run_once_traced(
    cfg: SystemConfig,
    pattern: TrafficPattern,
    load: f64,
    plan: PhasePlan,
) -> (RunResult, RunTrace) {
    run_once_traced_sharded(cfg, pattern, load, plan, std::num::NonZeroUsize::MIN)
}

/// As [`run_once`], with the cycle engine sharded across boards onto
/// `point_threads` workers (see [`System::run_sharded`]). Byte-identical
/// to the sequential run for any worker count.
pub fn run_once_sharded(
    cfg: SystemConfig,
    pattern: TrafficPattern,
    load: f64,
    plan: PhasePlan,
    point_threads: std::num::NonZeroUsize,
) -> RunResult {
    run_once_traced_sharded(cfg, pattern, load, plan, point_threads).0
}

/// Sharded variant of [`run_once_traced`] — one worker degenerates to the
/// plain sequential engine.
pub fn run_once_traced_sharded(
    cfg: SystemConfig,
    pattern: TrafficPattern,
    load: f64,
    plan: PhasePlan,
    point_threads: std::num::NonZeroUsize,
) -> (RunResult, RunTrace) {
    let capacity = cfg.capacity().uniform_capacity();
    let mut sys = System::new(cfg, pattern, load, plan);
    let cycles = sys.run_sharded(point_threads);
    collect(sys, load, capacity, cycles)
}

/// Drains a finished system into its `(RunResult, RunTrace)` pair — the
/// common tail of the generated, recorded and replayed run flavours.
fn collect(mut sys: System, load: f64, capacity: f64, cycles: Cycle) -> (RunResult, RunTrace) {
    let trace = RunTrace {
        counter_names: sys.metric_counter_names(),
        gauge_names: sys.metric_gauge_names(),
        hist_summaries: sys.metric_hist_summaries(),
        dropped: sys.trace_dropped(),
        records: sys.take_trace_records(),
        windows: sys.take_metric_windows(),
        packets: sys.take_packet_log(),
    };
    let m = sys.metrics();
    let (grants, retunes) = sys.srs().reconfig_counts();
    let (ls_retries, ls_aborts) = sys.control_stats();
    let result = RunResult {
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
    };
    (result, trace)
}

/// The provenance header a recording run stamps on its trace. The
/// `git_sha` is left `"unknown"` — library code does not inspect the
/// checkout; binaries overwrite it (see `erapid_bench::git_sha`).
pub fn trace_meta(cfg: &SystemConfig, pattern: &TrafficPattern, load: f64) -> TraceMeta {
    TraceMeta {
        seed: cfg.seed,
        boards: cfg.boards,
        nodes_per_board: cfg.nodes_per_board,
        pattern: pattern.name().to_string(),
        load,
        git_sha: "unknown".to_string(),
    }
}

/// Runs one generated point with injection recording on, returning the
/// headline numbers plus the recorded workload (with provenance attached).
/// The recording observes the run without perturbing it: the [`RunResult`]
/// matches [`run_once`] on the same inputs byte-identically.
pub fn run_once_recorded(
    cfg: SystemConfig,
    pattern: TrafficPattern,
    load: f64,
    plan: PhasePlan,
) -> (RunResult, InjectionTrace) {
    let mut cfg = cfg;
    cfg.record_injections = true;
    let capacity = cfg.capacity().uniform_capacity();
    let meta = trace_meta(&cfg, &pattern, load);
    let mut sys = System::new(cfg, pattern, load, plan);
    let cycles = sys.run();
    let rec = sys.take_injection_log().unwrap_or_default();
    let (result, _) = collect(sys, load, capacity, cycles);
    (result, rec.into_trace(meta))
}

/// Replays a recorded trace against `cfg` (which may differ from the
/// recording configuration in mode, thresholds, faults — anything but the
/// B×D geometry the node ids assume). The reported load is the trace's
/// recorded load.
pub fn run_once_replayed(cfg: SystemConfig, trace: &InjectionTrace, plan: PhasePlan) -> RunResult {
    run_once_replayed_traced(cfg, trace, plan).0
}

/// Traced variant of [`run_once_replayed`].
pub fn run_once_replayed_traced(
    cfg: SystemConfig,
    trace: &InjectionTrace,
    plan: PhasePlan,
) -> (RunResult, RunTrace) {
    run_once_replayed_traced_sharded(cfg, trace, plan, std::num::NonZeroUsize::MIN)
}

/// As [`run_once_replayed`], on the board-sharded engine. Replay and
/// sharding compose: injection stays a sequential phase, so the replayed
/// packet stream is identical for any worker count.
pub fn run_once_replayed_sharded(
    cfg: SystemConfig,
    trace: &InjectionTrace,
    plan: PhasePlan,
    point_threads: std::num::NonZeroUsize,
) -> RunResult {
    run_once_replayed_traced_sharded(cfg, trace, plan, point_threads).0
}

/// Sharded variant of [`run_once_replayed_traced`].
pub fn run_once_replayed_traced_sharded(
    cfg: SystemConfig,
    trace: &InjectionTrace,
    plan: PhasePlan,
    point_threads: std::num::NonZeroUsize,
) -> (RunResult, RunTrace) {
    let capacity = cfg.capacity().uniform_capacity();
    let load = trace.meta.load;
    let mut sys = System::with_trace(cfg, trace.replayer(), plan);
    let cycles = sys.run_sharded(point_threads);
    collect(sys, load, capacity, cycles)
}

/// Sweeps the load axis for one (mode, pattern) pair on `threads` workers.
///
/// The points are built sequentially (so `make_cfg` may be stateful) and
/// executed by [`crate::runner::run_points`]; results come back in load
/// order, byte-identical to a sequential sweep for any thread count.
pub fn sweep_loads_with(
    threads: std::num::NonZeroUsize,
    mode: NetworkMode,
    pattern: &TrafficPattern,
    loads: &[f64],
    mut make_cfg: impl FnMut(NetworkMode) -> SystemConfig,
) -> Vec<RunResult> {
    let points: Vec<crate::runner::RunPoint> = loads
        .iter()
        .map(|&load| {
            let cfg = make_cfg(mode);
            let plan = default_plan(cfg.schedule.window);
            crate::runner::RunPoint {
                cfg,
                pattern: pattern.clone(),
                load,
                plan,
                source: TraceSource::Generate,
            }
        })
        .collect();
    crate::runner::run_points(threads, points)
}

/// The paper's load axis: 0.1 – 0.9 in steps of 0.1.
pub fn paper_loads() -> Vec<f64> {
    (1..=9).map(|i| i as f64 / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivered_fraction_guards_zero_injection() {
        // Regression: an idle run (scenario window with no generators
        // active, or a zero-load point) must rank as fully delivered, not
        // NaN — the scenario bench sorts by this value and a NaN would
        // poison the worst-offender ranking.
        let mut r = RunResult {
            load: 0.0,
            throughput: 0.0,
            throughput_norm: 0.0,
            latency: 0.0,
            latency_p95: 0.0,
            power_mw: 0.0,
            src_path: 0.0,
            tx_wait: 0.0,
            undrained: 0,
            grants: 0,
            retunes: 0,
            ls_retries: 0,
            ls_aborts: 0,
            injected: 0,
            delivered: 0,
            cycles: 0,
        };
        assert_eq!(r.delivered_fraction(), 1.0);
        r.injected = 4;
        r.delivered = 3;
        assert!((r.delivered_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn paper_loads_axis() {
        let l = paper_loads();
        assert_eq!(l.len(), 9);
        assert!((l[0] - 0.1).abs() < 1e-12);
        assert!((l[8] - 0.9).abs() < 1e-12);
    }

    #[test]
    fn run_once_produces_consistent_result() {
        let cfg = SystemConfig::small(NetworkMode::NpNb);
        let plan = default_plan(cfg.schedule.window);
        let r = run_once(cfg, TrafficPattern::Uniform, 0.3, plan);
        assert!((r.load - 0.3).abs() < 1e-12);
        assert!(r.throughput > 0.0);
        assert!(r.throughput_norm > 0.0 && r.throughput_norm < 1.2);
        assert!(r.latency > 0.0);
        assert!(r.latency_p95 >= r.latency * 0.5);
        assert!(r.power_mw > 0.0);
        assert_eq!(r.undrained, 0);
        assert_eq!(r.grants, 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn sweep_is_monotone_in_load_below_saturation() {
        let results = sweep_loads_with(
            crate::runner::available_threads(),
            NetworkMode::NpNb,
            &TrafficPattern::Uniform,
            &[0.2, 0.4],
            SystemConfig::small,
        );
        assert_eq!(results.len(), 2);
        assert!(results[1].throughput > results[0].throughput);
    }
}
