//! The experiment vocabulary: what a run reports ([`RunResult`],
//! [`RunTrace`], [`RunOutput`]), where its injections come from
//! ([`TraceSource`]) and the standard plans and load axis. The procedure
//! itself has one implementation, [`crate::runner::RunPoint::run_with`];
//! [`run_once`] is its four-argument shorthand.
//!
//! §4's methodology: warm up, label packets injected during a measurement
//! interval, run until the labelled packets drain, report throughput
//! (packets/node/cycle), mean latency (cycles) and power (mW). The load
//! axis is normalised to the uniform-traffic capacity `N_c`, swept 0.1–0.9.

use crate::config::SystemConfig;
use crate::metrics::PacketDelivery;
use crate::srs::class_mw;
use crate::system::System;
use desim::phase::PhasePlan;
use desim::Cycle;
use erapid_telemetry::TraceRecord;
use netstats::meter::PowerMeter;
use photonics::power::LinkPowerModel;
use std::sync::Arc;
use traffic::pattern::TrafficPattern;
use traffic::trace::{InjectionTrace, TraceMeta};

/// One run's headline numbers.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
    /// idle run) — the survival headline the scenario and auto-tuning
    /// claims read.
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
/// cycle-stamped event stream (each window event carries its boundary's
/// gauges) and the delivery rows. Empty (but well-formed) when the
/// point's [`SystemConfig::trace`] was off.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    /// Recorded events, in emission (= simulation) order.
    pub records: Vec<TraceRecord>,
    /// Events lost to ring-buffer overwrite (0 = complete trace).
    pub dropped: u64,
    /// Per-packet delivery rows (empty unless the point's
    /// [`SystemConfig::packet_log`] was on).
    pub packets: Vec<PacketDelivery>,
}

/// What one run hands back ([`crate::runner::RunPoint::run`]): the
/// headline numbers plus whatever the point's observers recorded. Which
/// observers were on is the point's own [`SystemConfig`] — `trace`,
/// `packet_log`, `record_injections` — and none of them perturbs `result`.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The headline numbers; `power_mw` at the ladder's default price
    /// ([`LinkPowerModel::for_ladder`]).
    pub result: RunResult,
    /// Lit-laser cycles per power class over the measurement interval:
    /// what [`RunOutput::power_mw`] prices.
    pub power: PowerMeter,
    /// Event stream and delivery rows; empty but
    /// well-formed when [`SystemConfig::trace`] was off.
    pub trace: RunTrace,
    /// The recorded workload, stamped with [`trace_meta`] (`Some` iff
    /// [`SystemConfig::record_injections`] was on).
    pub injections: Option<InjectionTrace>,
}

impl RunOutput {
    /// The run's average optical power (mW) under `model` — the price
    /// `result.power_mw` applies at the run's default, re-applied to the
    /// same counters; `None` if `model` has another level count than the
    /// run's ladder.
    pub fn power_mw(&self, model: &LinkPowerModel) -> Option<f64> {
        self.power.priced(&class_mw(model))
    }
}

/// Runs one configuration at one load point on the calling thread — the
/// four-argument shorthand for a generated [`crate::runner::RunPoint`]
/// when only the headline numbers are wanted.
pub fn run_once(
    cfg: SystemConfig,
    pattern: TrafficPattern,
    load: f64,
    plan: PhasePlan,
) -> RunResult {
    crate::runner::RunPoint::generate(cfg, pattern, load, plan)
        .run()
        .result
}

/// Drains a finished system into its [`RunOutput`] — the tail of every
/// run, generated or replayed. `meta` stamps the injection recording (the
/// caller builds it only when the config asked for one).
pub(crate) fn collect(
    mut sys: System,
    load: f64,
    meta: Option<TraceMeta>,
    capacity: f64,
    cycles: Cycle,
) -> RunOutput {
    let log = sys.take_injection_log();
    let injections = log.zip(meta).map(|(rec, meta)| rec.into_trace(meta));
    let trace = RunTrace {
        dropped: sys.trace_dropped(),
        records: sys.take_trace_records(),
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
    RunOutput {
        result,
        power: m.power.clone(),
        trace,
        injections,
    }
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

/// The paper's load axis: 0.1 – 0.9 in steps of 0.1.
pub fn paper_loads() -> Vec<f64> {
    (1..=9).map(|i| i as f64 / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkMode;
    use photonics::bitrate::RateLadder;

    #[test]
    fn delivered_fraction_guards_zero_injection() {
        // Regression: an idle run (scenario window with no generators
        // active, or a zero-load point) counts as fully delivered, not
        // NaN — a NaN would sit outside every claim band that reads it.
        let mut r = RunResult::default();
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

    fn small_runs() -> impl Iterator<Item = RunOutput> {
        NetworkMode::all().into_iter().map(|mode| {
            let cfg = SystemConfig::small(mode);
            let plan = default_plan(cfg.schedule.window);
            crate::runner::RunPoint::generate(cfg, TrafficPattern::Complement, 0.3, plan).run()
        })
    }

    #[test]
    fn the_default_price_is_the_result_bit_for_bit() {
        for out in small_runs() {
            let price = LinkPowerModel::for_ladder(&RateLadder::paper());
            let repriced = out.power_mw(&price).expect("the paper's level count");
            assert_eq!(repriced.to_bits(), out.result.power_mw.to_bits());
            let other = LinkPowerModel::analytic(RateLadder::interpolated(4));
            assert_eq!(out.power_mw(&other), None, "another level count");
        }
    }

    #[test]
    fn idle_fraction_reprices_the_idle_classes_only() {
        // Classes: dark, then (idle, active) per level of Table 1.
        const TABLE1_MW: [f64; 3] = [8.6, 26.0, 43.03];
        for out in small_runs() {
            let (n, cycles) = out.power.counts();
            for f in [0.0, 0.05, 0.15, 0.3] {
                let model = LinkPowerModel::paper_table().with_idle_fraction(f);
                let mw_cycles: f64 = std::iter::once(0.0)
                    .chain(TABLE1_MW.iter().flat_map(|&p| [p * f, p]))
                    .zip(n)
                    .map(|(mw, &k)| k as f64 * mw)
                    .sum();
                let want = mw_cycles / cycles as f64;
                assert_eq!(out.power_mw(&model), Some(want), "fraction {f}");
            }
        }
    }

    #[test]
    fn sweep_is_monotone_in_load_below_saturation() {
        let points = [0.2, 0.4].into_iter().map(|load| {
            let cfg = SystemConfig::small(NetworkMode::NpNb);
            let plan = default_plan(cfg.schedule.window);
            crate::runner::RunPoint::generate(cfg, TrafficPattern::Uniform, load, plan)
        });
        let results =
            crate::runner::run_points(crate::runner::available_threads(), points.collect());
        assert_eq!(results.len(), 2);
        assert!(results[1].result.throughput > results[0].result.throughput);
    }
}
