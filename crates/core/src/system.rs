//! The assembled E-RAPID system and its cycle loop.
//!
//! [`System::step`] advances one router clock cycle:
//!
//! 1. at `R_w` boundaries, roll all hardware-counter windows and trigger
//!    the LS odd–even cycle — DPM decisions apply locally, DBR decisions
//!    apply when the five-stage Lock-Step round they launch completes,
//! 2. the injection source (generators, scenario or replayed trace) puts
//!    the packets due this cycle into their NIs,
//! 3. every board steps its IBI router (deliveries eject, remote flits
//!    reassemble in TX queues),
//! 4. ready packets in TX queues depart on free owned optical channels,
//! 5. optical arrivals enter the destination boards' receiver injectors,
//! 6. the SRS settles channel state and the power meter samples the
//!    instantaneous link power.

use crate::board::{Board, Delivered};
use crate::config::{NetworkMode, SystemConfig};
use crate::faults::FaultKind;
use crate::metrics::{PacketDelivery, RunMetrics};
use crate::srs::{class_mw, Srs};
use desim::phase::{Phase, PhasePlan};
use desim::Cycle;
use erapid_telemetry::{
    FaultLabel, LsStageLabel, TraceEvent, TraceRecord, TraceSink, Tracer, WindowLabel,
};
use erapid_tune::{ThresholdController, WindowObservation};
use erapid_workloads::ScenarioEngine;
use photonics::fiber::Fiber;
use photonics::power::LinkPowerModel;
use photonics::serdes::Serdes;
use photonics::wavelength::{BoardId, Wavelength};
use reconfig::alloc::{FlowDemand, IncomingLink};
use reconfig::lc::ThresholdWatch;
use reconfig::lockstep::WindowKind;
use reconfig::protocol::{DbrRound, TokenFault};
use reconfig::stages::Stage;
use router::flit::{NodeId, PacketId};
use router::packet::QueuedPacket;
use router::PACKET_FLITS;
use traffic::generator::{NodeGenerator, PacketRequest};
use traffic::pattern::TrafficPattern;
use traffic::trace::{TraceRecorder, TraceReplayer};

/// Where a run's packets come from: exactly one source, chosen when the
/// system is built and polled once per cycle.
enum Source {
    /// One Bernoulli (or bursty) generator per node: the paper's model.
    Generators(Vec<NodeGenerator>),
    /// A production-shaped scenario (`cfg.scenario`).
    Scenario(ScenarioEngine),
    /// A recorded injection trace ([`System::with_trace`]).
    Replay(TraceReplayer),
}

impl Source {
    /// The snapshot tag: 0 generators, 1 scenario, 2 replay.
    fn tag(&self) -> u8 {
        match self {
            Source::Generators(_) => 0,
            Source::Scenario(_) => 1,
            Source::Replay(_) => 2,
        }
    }

    /// Appends every request due at `now` to `due`, ascending source node.
    fn poll_into(&mut self, now: Cycle, due: &mut Vec<PacketRequest>) {
        match self {
            Source::Generators(gens) => due.extend(gens.iter_mut().filter_map(|g| g.poll(now))),
            Source::Scenario(engine) => engine.poll_into(now, due),
            Source::Replay(replay) => {
                while let Some(e) = replay.pop_due(now) {
                    due.push(PacketRequest {
                        src: e.src,
                        dst: e.dst,
                    });
                }
            }
        }
    }

    /// The variant tag, then that variant's mutable state.
    fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        w.u8(self.tag());
        match self {
            Source::Generators(gens) => {
                w.usize(gens.len());
                for g in gens {
                    g.save_state(w);
                }
            }
            Source::Scenario(engine) => engine.save_state(w),
            Source::Replay(replay) => replay.save_state(w),
        }
    }

    /// Overlays a saved source of the same kind; a snapshot of another
    /// kind is a typed mismatch.
    fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        let tag = r.u8()?;
        if tag != self.tag() {
            return Err(desim::snap::SnapError::Mismatch(format!(
                "snapshot injection source tag {tag} != this system's {}",
                self.tag()
            )));
        }
        match self {
            Source::Generators(gens) => {
                r.len_eq(gens.len(), "node generators")?;
                gens.iter_mut().try_for_each(|g| g.load_state(r))
            }
            Source::Scenario(engine) => engine.load_state(r),
            Source::Replay(replay) => replay.load_state(r),
        }
    }
}

/// A full simulated E-RAPID system.
pub struct System {
    cfg: SystemConfig,
    boards: Vec<Board>,
    srs: Srs,
    /// The one injection source.
    source: Source,
    /// Records every injection for later replay (None unless
    /// `cfg.record_injections` — zero cost when off).
    injection_log: Option<TraceRecorder>,
    /// Per-packet delivery rows (None unless `cfg.packet_log`).
    packet_log: Option<Vec<PacketDelivery>>,
    next_packet_id: u64,
    now: Cycle,
    metrics: RunMetrics,
    /// The in-flight Lock-Step DBR round, if any.
    active_round: Option<DbrRound>,
    /// Per-cycle scratch: the requests due this cycle, one board's
    /// deliveries, one lane's ready destinations. All empty at every cycle
    /// boundary (never snapshotted); reused, so steady-state
    /// allocation-free.
    due: Vec<PacketRequest>,
    delivered: Vec<Delivered>,
    ready: Vec<u16>,
    /// Next unapplied event in `cfg.faults` (the plan is time-sorted).
    fault_cursor: usize,
    /// Token faults waiting for the next DBR round.
    armed_token: Vec<TokenFault>,
    /// LS token resends performed (loss relaunches + corruption resends).
    ls_retries: u64,
    /// DBR rounds aborted fail-safe after exhausting the retry budget.
    ls_aborted: u64,
    /// `Srs::try_transmit` calls made, and ready flows skipped because
    /// they sleep (`Srs::is_blocked`) — the witness that blocked flows
    /// cost the optical stage nothing. Not snapshotted.
    tx_tries: u64,
    tx_skips: u64,
    /// Cycle-level event tracer (null unless `cfg.trace.enabled`): the
    /// one record a traced run keeps.
    tracer: Tracer,
    /// `R_w` boundaries seen (tags window-boundary events).
    window_index: u64,
    /// DBR rounds triggered (tags LS stage and outcome events).
    dbr_rounds: u64,
    /// Per `(board, dest)` B_max edge detectors (empty when tracing is off).
    buffer_watch: Vec<ThresholdWatch>,
    /// Online threshold auto-tuner (None unless `cfg.tune` is set in a
    /// power-aware mode). Stepped at Power-kind `R_w` boundaries inside
    /// the cycle's prologue (DESIGN.md §15).
    controller: Option<ThresholdController>,
}

/// Wall-time spent per engine phase over a profiled run — the breakdown
/// `benchmark/` reports (`core.system.*_s`) so the next bottleneck is
/// measured, not guessed.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimers {
    /// Faults + window boundary + active LS round.
    pub reconfig: std::time::Duration,
    /// Traffic generation / trace replay.
    pub inject: std::time::Duration,
    /// Electrical domain: IBI router stepping + delivery.
    pub route: std::time::Duration,
    /// Optical domain: TX departures, arrivals, SRS housekeeping.
    pub optical: std::time::Duration,
    /// Power sampling + metric recording.
    pub stats: std::time::Duration,
}

impl PhaseTimers {
    /// Total wall time across all phases.
    pub fn total(&self) -> std::time::Duration {
        self.reconfig + self.inject + self.route + self.optical + self.stats
    }
}

/// Instrumentation hook for the cycle loop: the null probe monomorphizes
/// to nothing, so `step` pays zero cost for the profiled variant.
trait PhaseProbe {
    fn start(&mut self);
    fn lap(&mut self, bucket: fn(&mut PhaseTimers) -> &mut std::time::Duration);
}

struct NullProbe;
impl PhaseProbe for NullProbe {
    #[inline(always)]
    fn start(&mut self) {}
    #[inline(always)]
    fn lap(&mut self, _bucket: fn(&mut PhaseTimers) -> &mut std::time::Duration) {}
}

struct TimerProbe<'a> {
    timers: &'a mut PhaseTimers,
    mark: std::time::Instant,
}
impl<'a> TimerProbe<'a> {
    fn new(timers: &'a mut PhaseTimers) -> Self {
        Self {
            timers,
            mark: std::time::Instant::now(),
        }
    }
}
impl PhaseProbe for TimerProbe<'_> {
    fn start(&mut self) {
        self.mark = std::time::Instant::now();
    }
    fn lap(&mut self, bucket: fn(&mut PhaseTimers) -> &mut std::time::Duration) {
        let now = std::time::Instant::now();
        *bucket(self.timers) += now - self.mark;
        self.mark = now;
    }
}

fn stage_label(stage: Stage) -> LsStageLabel {
    match stage {
        Stage::LinkRequest => LsStageLabel::LinkRequest,
        Stage::BoardRequest => LsStageLabel::BoardRequest,
        Stage::Reconfigure => LsStageLabel::Reconfigure,
        Stage::BoardResponse => LsStageLabel::BoardResponse,
        Stage::LinkResponse => LsStageLabel::LinkResponse,
    }
}

impl System {
    /// Builds a system running `pattern` at normalised `load` (fraction of
    /// the uniform-traffic capacity `N_c`) under the given phase plan.
    pub fn new(cfg: SystemConfig, pattern: TrafficPattern, load: f64, plan: PhasePlan) -> Self {
        cfg.validate();
        let rate = cfg.capacity().injection_rate(load);
        let nodes = cfg.nodes();
        // A scenario preempts the generators; the rate is the same
        // load × N_c normalisation the synthetic patterns use, so the
        // bench load axis carries over unchanged.
        let source = match (&cfg.scenario, cfg.burst) {
            (Some(spec), _) => {
                Source::Scenario(ScenarioEngine::new(spec.clone(), nodes, rate, cfg.seed))
            }
            (None, None) => Source::Generators(traffic::generator::build_generators(
                nodes, &pattern, rate, cfg.seed,
            )),
            (None, Some(b)) => Source::Generators(traffic::generator::build_bursty_generators(
                nodes,
                &pattern,
                rate,
                b.burstiness,
                b.dwell,
                cfg.seed,
            )),
        };
        Self::with_source(cfg, source, plan)
    }

    /// Builds a system that replays a recorded injection trace instead of
    /// drawing from live traffic generators — exact workload replay across
    /// configurations (every injection comes from the trace).
    pub fn with_trace(cfg: SystemConfig, replay: TraceReplayer, plan: PhasePlan) -> Self {
        cfg.validate();
        Self::with_source(cfg, Source::Replay(replay), plan)
    }

    /// Everything but the injection source, derived from a validated `cfg`.
    fn with_source(cfg: SystemConfig, source: Source, plan: PhasePlan) -> Self {
        let boards = (0..cfg.boards).map(|b| Board::new(&cfg, b)).collect();
        let srs = Srs::new(
            cfg.boards,
            &cfg.ladder,
            Serdes::paper(),
            Fiber::rack_scale().delay_cycles(),
            cfg.schedule.window,
            cfg.transition.penalty(),
        );
        // Priced at the ladder's default; `RunOutput::power_mw` re-prices.
        let price = LinkPowerModel::for_ladder(&cfg.ladder);
        let metrics = RunMetrics::new(cfg.nodes() as usize, plan, class_mw(&price));
        let tracer = Tracer::from_config(cfg.trace);
        // `validate()` above already vetted any tune spec, so construction
        // cannot fail here; a controller only exists where DPM runs.
        let controller = match (&cfg.tune, cfg.mode.power_aware()) {
            (Some(spec), true) => ThresholdController::new(*spec).ok(),
            _ => None,
        };
        // With auto-tuning on, the telemetry edge detectors track the
        // controller's live `B_max` (starting at its initial value, and
        // retargeted whenever it moves); otherwise the static DBR trigger.
        let watch_b_max = match &controller {
            Some(c) => c.thresholds_milli().2 as f64 / 1000.0,
            None => cfg.alloc.b_max,
        };
        let buffer_watch = if cfg.trace.enabled {
            vec![ThresholdWatch::new(watch_b_max); cfg.boards as usize * cfg.boards as usize]
        } else {
            Vec::new()
        };
        let injection_log = cfg.record_injections.then(TraceRecorder::new);
        let packet_log = cfg.packet_log.then(Vec::new);
        Self {
            cfg,
            boards,
            srs,
            source,
            injection_log,
            packet_log,
            next_packet_id: 0,
            now: 0,
            metrics,
            active_round: None,
            due: Vec::new(),
            delivered: Vec::new(),
            ready: Vec::new(),
            fault_cursor: 0,
            armed_token: Vec::new(),
            ls_retries: 0,
            ls_aborted: 0,
            tx_tries: 0,
            tx_skips: 0,
            tracer,
            window_index: 0,
            dbr_rounds: 0,
            buffer_watch,
            controller,
        }
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The optical stage (for inspection).
    pub fn srs(&self) -> &Srs {
        &self.srs
    }

    /// A board (for inspection).
    pub fn board(&self, b: u16) -> &Board {
        &self.boards[b as usize]
    }

    /// Advances one cycle.
    pub fn step(&mut self) {
        self.step_inner(true, &mut NullProbe);
    }

    /// Advances one cycle with the traffic sources silenced — used to
    /// drain the network completely (conservation checks, clean shutdown).
    pub fn step_without_injection(&mut self) {
        self.step_inner(false, &mut NullProbe);
    }

    /// Advances one cycle, attributing wall time per engine phase into
    /// `timers`. Simulation state evolves exactly as [`System::step`].
    pub fn step_profiled(&mut self, timers: &mut PhaseTimers) {
        self.step_inner(true, &mut TimerProbe::new(timers));
    }

    /// The cycle — the only implementation of one (DESIGN.md §12): the
    /// prologue (faults/windows/DBR/LS/injection), every board's router
    /// step with its deliveries recorded, every ready lane's transmits,
    /// then receive, SRS tick and the power record. Boards and lanes are
    /// visited ascending and write the shared metrics and SRS heaps as they
    /// go — that order is the one every pin was recorded against.
    fn step_inner<P: PhaseProbe>(&mut self, inject: bool, probe: &mut P) {
        let now = self.now;
        probe.start();
        self.apply_due_faults(now);
        self.window_boundary(now);
        self.tick_active_round(now);
        probe.lap(|t| &mut t.reconfig);
        if inject {
            self.inject(now);
        }
        probe.lap(|t| &mut t.inject);
        let mut delivered = std::mem::take(&mut self.delivered);
        for b in 0..self.boards.len() {
            self.boards[b].step_into(now, &mut delivered);
            for d in delivered.drain(..) {
                self.record_delivery(now, d);
            }
        }
        self.delivered = delivered;
        probe.lap(|t| &mut t.route);
        for s in 0..self.cfg.boards {
            if !self.boards[s as usize].ready_dests().is_empty() {
                self.transmit(now, s);
            }
        }
        self.receive(now);
        self.srs.tick(now, &mut self.tracer);
        probe.lap(|t| &mut t.optical);
        if self.metrics.measuring(now) {
            self.metrics.power.record(self.srs.lit());
        }
        probe.lap(|t| &mut t.stats);
        self.now += 1;
    }

    /// The run loop behind every `run*` entry point: cycles until every
    /// labelled packet drains (or the plan's hard cap), calling `hook`
    /// before each.
    fn drive<P: PhaseProbe>(&mut self, probe: &mut P, hook: &mut impl FnMut(&mut System)) -> Cycle {
        let plan = self.metrics.plan;
        while self.now < plan.max_cycles && !self.metrics.tracker.complete(&plan, self.now) {
            hook(self);
            self.step_inner(true, probe);
        }
        self.now
    }

    /// Runs until every labelled packet drains (or the plan's hard cap).
    /// Returns the final cycle.
    pub fn run(&mut self) -> Cycle {
        self.drive(&mut NullProbe, &mut |_| {})
    }

    /// As [`System::run`], attributing wall time per engine phase into
    /// `timers`. The simulation trajectory is identical — the probe only
    /// reads clocks.
    pub fn run_profiled(&mut self, timers: &mut PhaseTimers) -> Cycle {
        self.drive(&mut TimerProbe::new(timers), &mut |_| {})
    }

    /// [`System::run`]. The count is accepted and ignored — it never
    /// changed a byte of output, and the worker path it selected is gone;
    /// the signature stays until the next `benchmark`-archetype PR drops
    /// it from `benchmark/src/adapter.rs`.
    pub fn run_sharded(&mut self, _point_threads: std::num::NonZeroUsize) -> Cycle {
        self.run()
    }

    /// The metric/telemetry updates of one delivery. Called in board
    /// order, so every f64 accumulator sees the same push sequence.
    fn record_delivery(&mut self, now: Cycle, d: Delivered) {
        self.metrics.delivered_total += 1;
        if self.metrics.measuring(now) {
            self.metrics.throughput.deliver(now, PACKET_FLITS as u32);
        }
        if d.labelled {
            self.metrics.tracker.deliver_labelled();
            self.metrics.latency.record(d.injected_at, now);
        }
        if let Some(log) = &mut self.packet_log {
            log.push(PacketDelivery {
                id: d.id.0,
                dst: d.dst,
                injected_at: d.injected_at,
                delivered_at: now,
                labelled: d.labelled,
            });
        }
    }

    /// Moves board `s`'s ready TX-queue packets onto free owned channels.
    /// Only destinations with a completed packet are visited (the board's
    /// ready-destination set, ascending, snapshotted once because it
    /// mutates as packets depart), and of those only flows awake at `now`
    /// — a sleeping flow's try would fail with no side effect
    /// (DESIGN.md §12); labelled departures push their TX stats as they
    /// leave.
    fn transmit(&mut self, now: Cycle, s: u16) {
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        ready.extend_from_slice(self.boards[s as usize].ready_dests());
        for &d in &ready {
            if self.srs.is_blocked(now, s, d) {
                self.tx_skips += 1;
                continue;
            }
            let board = &mut self.boards[s as usize];
            while let Some(pkt) = board.tx_queue(d).peek().copied() {
                self.tx_tries += 1;
                if self.srs.try_transmit(now, s, d, pkt).is_none() {
                    break;
                }
                let Some(departed) = board.tx_depart(now, d) else {
                    break; // unreachable: the queue head was just peeked
                };
                debug_assert_eq!(departed.id, pkt.id);
                if pkt.labelled {
                    self.metrics
                        .src_path
                        .push(pkt.completed_at - pkt.injected_at);
                    self.metrics.tx_wait.push(now - pkt.completed_at);
                }
            }
        }
        self.ready = ready;
    }

    /// Coarse heap-footprint estimate in bytes of the live simulation
    /// state: boards (routers, TX queues), the optical stage's receiver
    /// slots and carried tables, and the per-node generators when they are
    /// the source. Analytic capacity × element-size sums —
    /// comparable across board counts (`benchmark/` reports it as
    /// `core.system.approx_memory_bytes`).
    pub fn approx_memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .boards
                .iter()
                .map(Board::approx_memory_bytes)
                .sum::<usize>()
            + self.srs.approx_memory_bytes()
            + match &self.source {
                Source::Generators(gens) => std::mem::size_of_val(gens.as_slice()),
                Source::Scenario(_) | Source::Replay(_) => 0,
            }
    }

    /// `R_w` boundary handling: roll windows, trigger the odd–even cycle.
    fn window_boundary(&mut self, now: Cycle) {
        if !self.cfg.schedule.is_boundary(now) {
            return;
        }
        self.srs.roll_windows(now);
        for b in &mut self.boards {
            b.roll_windows(now);
        }
        if self.tracer.enabled() {
            self.boundary_telemetry(now);
        }
        match self.cfg.schedule.kind_at(now) {
            Some(WindowKind::Power) if self.cfg.mode.power_aware() => {
                // The controller steps first so the thresholds it derives
                // from the just-closed window govern this Power cycle
                // (DESIGN.md §15).
                self.controller_cycle();
                self.power_cycle(now);
            }
            Some(WindowKind::Bandwidth) if self.cfg.mode.bandwidth_reconfig() => {
                self.bandwidth_cycle(now)
            }
            _ => {}
        }
    }

    /// One auto-tuning step (DESIGN.md §15): scan the just-closed window's
    /// lit channels in canonical ascending `(dest, wavelength)` order —
    /// the exact order [`Self::power_cycle`] visits them — into integer
    /// milli counts, feed them to the controller, and when `B_max` moved,
    /// retarget the telemetry edge detectors. No-op unless the config
    /// enabled tuning. Deliberately
    /// independent of the tracer: the controller must drive untraced runs
    /// (golden, marathon, streaming) identically.
    fn controller_cycle(&mut self) {
        let Some(ctrl) = &self.controller else {
            return;
        };
        let (l_min_milli, _, b_max_milli) = ctrl.thresholds_milli();
        let boards = self.cfg.boards;
        let wavelengths = self.cfg.wavelengths();
        let mut obs = WindowObservation::default();
        for d in 0..boards {
            for w in 0..wavelengths {
                let Some(s) = self.srs.owner(d, w) else {
                    continue;
                };
                if !self.srs.channel(s, d, w).is_on() {
                    continue;
                }
                let link_milli = (self.srs.link_util(s, d, w) * 1000.0).round() as u32;
                let buf_milli = (self.boards[s as usize].buffer_util(d) * 1000.0).round() as u32;
                obs.lit += 1;
                obs.pressured += u32::from(buf_milli > b_max_milli);
                obs.idle += u32::from(link_milli < l_min_milli);
            }
        }
        let Some(ctrl) = &mut self.controller else {
            return;
        };
        let before_b_max = ctrl.thresholds_milli().2;
        ctrl.observe_window(obs);
        let after_b_max = ctrl.thresholds_milli().2;
        if before_b_max != after_b_max {
            let target = after_b_max as f64 / 1000.0;
            for watch in &mut self.buffer_watch {
                watch.retarget(target);
            }
        }
    }

    /// The DPM thresholds this system applies at Power boundaries: the
    /// live controller's when auto-tuning is on, else the config's
    /// (override or mode preset).
    fn effective_dpm_policy(&self) -> Option<powermgmt::policy::DpmPolicy> {
        match &self.controller {
            Some(c) => Some(c.policy()),
            None => self.cfg.dpm_policy(),
        }
    }

    /// The live auto-tuning controller, when enabled (inspection: tests
    /// pin its thresholds/moves across engines and checkpoint legs).
    pub fn controller(&self) -> Option<&ThresholdController> {
        self.controller.as_ref()
    }

    /// Traced-run bookkeeping at an `R_w` boundary: stamp the boundary
    /// with the congestion gauges of the just-closed window, then detect
    /// `B_max` crossings on its buffer occupancies. Runs only when tracing
    /// is enabled; it observes the simulation without mutating any of its
    /// state.
    fn boundary_telemetry(&mut self, now: Cycle) {
        self.window_index += 1;
        let router_peak = (self.boards.iter_mut())
            .map(|b| b.take_router_peak())
            .max()
            .unwrap_or(0);
        if let Some(kind) = self.cfg.schedule.kind_at(now) {
            let kind = match kind {
                WindowKind::Power => WindowLabel::Power,
                WindowKind::Bandwidth => WindowLabel::Bandwidth,
            };
            self.tracer.emit(
                now,
                TraceEvent::WindowBoundary {
                    index: self.window_index,
                    kind,
                    router_peak_flits: router_peak as u32,
                    lasers_on: self.srs.lasers_on() as u32,
                },
            );
        }
        let boards = self.cfg.boards;
        for s in 0..boards {
            for d in 0..boards {
                if s == d {
                    continue;
                }
                let util = self.boards[s as usize].buffer_util(d);
                let watch = &mut self.buffer_watch[s as usize * boards as usize + d as usize];
                if let Some(above) = watch.observe(util) {
                    self.tracer.emit(
                        now,
                        TraceEvent::BufferThreshold {
                            board: s,
                            dest: d,
                            above,
                            util_milli: (util * 1000.0).round() as u32,
                        },
                    );
                }
            }
        }
    }

    /// DPM: every lit channel's LC compares the previous window's
    /// `Link_util`/`Buffer_util` against the thresholds and retunes.
    fn power_cycle(&mut self, now: Cycle) {
        let Some(policy) = self.effective_dpm_policy() else {
            return;
        };
        let boards = self.cfg.boards;
        let wavelengths = self.cfg.wavelengths();
        for d in 0..boards {
            for w in 0..wavelengths {
                let Some(s) = self.srs.owner(d, w) else {
                    continue;
                };
                let link_util = self.srs.link_util(s, d, w);
                let buffer_util = self.boards[s as usize].buffer_util(d);
                let channel = self.srs.channel(s, d, w);
                if !channel.is_on() {
                    continue;
                }
                let level = channel.level();
                use powermgmt::policy::ScaleDecision;
                let target = match policy.decide(link_util, buffer_util) {
                    ScaleDecision::Down => self.cfg.ladder.down(level),
                    ScaleDecision::Up => self.cfg.ladder.up(level),
                    ScaleDecision::Hold => level,
                };
                if target != level {
                    let penalty = self.cfg.transition.penalty_between(level, target);
                    if self.tracer.enabled() {
                        let ev = self.cfg.transition.retune_event(s, d, w, level, target);
                        self.tracer.emit(now, ev);
                    }
                    self.srs.schedule_retune(s, d, w, target, penalty);
                }
            }
        }
    }

    /// DBR trigger: launch a Lock-Step round on the control ring from the
    /// just-closed window's statistics; its grants apply on the cycle its
    /// Link Response stage completes ([`Self::tick_active_round`]).
    fn bandwidth_cycle(&mut self, now: Cycle) {
        self.dbr_rounds += 1;
        let (incoming, demands) = self.round_inputs();
        let mut round = DbrRound::new(self.cfg.timing, self.cfg.alloc, now, incoming, demands);
        for f in self.armed_token.drain(..) {
            round.inject_fault(f);
        }
        // A round still running here lost two windows to token retries
        // (`try_validate` rules out an `R_w` shorter than a clean round):
        // it is dropped in favour of fresh statistics.
        self.active_round = Some(round);
    }

    /// Builds a round's inputs from the LC hardware-counter state of the
    /// previous window: each destination's owned incoming channels in
    /// ascending wavelength with the owner's TX-queue occupancy, and every
    /// flow's demand toward it.
    fn round_inputs(&self) -> (Vec<Vec<IncomingLink>>, Vec<Vec<FlowDemand>>) {
        let boards = self.cfg.boards;
        let incoming = (0..boards)
            .map(|d| {
                (1..self.cfg.wavelengths())
                    .filter_map(|w| {
                        let s = self.srs.owner(d, w)?;
                        Some(IncomingLink {
                            wavelength: Wavelength(w),
                            owner: BoardId(s),
                            buffer_util: self.boards[s as usize].buffer_util(d),
                        })
                    })
                    .collect()
            })
            .collect();
        let demands = (0..boards)
            .map(|d| {
                (0..boards)
                    .filter(|&s| s != d)
                    .map(|s| FlowDemand {
                        source: BoardId(s),
                        buffer_util: self.boards[s as usize].buffer_util(d),
                    })
                    .collect()
            })
            .collect();
        (incoming, demands)
    }

    /// Advances the in-flight round; applies its outcome on the cycle the
    /// Link Response stage completes.
    fn tick_active_round(&mut self, now: Cycle) {
        let Some(round) = &mut self.active_round else {
            return;
        };
        if let Some(outcome) = round.tick(now) {
            self.ls_retries += outcome.retries as u64;
            if outcome.error.is_some() {
                // Fail-safe abort: the round decided nothing; the system
                // keeps its current allocation.
                self.ls_aborted += 1;
            }
            if self.tracer.enabled() {
                // Rounds never overlap (stale ones are dropped at the next
                // window boundary), so the live round is always the latest.
                let id = self.dbr_rounds;
                let log = round.take_stage_log();
                for pair in log.windows(2) {
                    let ((start, Some(stage)), (end, _)) = (pair[0], pair[1]) else {
                        continue;
                    };
                    self.tracer.emit(
                        start,
                        TraceEvent::LsStage {
                            round: id,
                            stage: stage_label(stage),
                            end,
                        },
                    );
                }
                self.tracer.emit(
                    now,
                    TraceEvent::DbrOutcome {
                        round: id,
                        grants: outcome.grants.len() as u32,
                        retries: outcome.retries,
                        aborted: outcome.error.is_some(),
                    },
                );
            }
            self.srs
                .schedule_grants(now, &outcome.grants, &mut self.tracer);
            // Faults that armed too late to strike this round carry over
            // to the next one.
            let leftovers = round.take_armed();
            self.armed_token.extend(leftovers);
            self.active_round = None;
        }
    }

    /// Node injection: the source's requests due this cycle, each through
    /// [`Self::inject_one`], so packet ids, labels and the injection log
    /// see the exact workload whatever its source.
    fn inject(&mut self, now: Cycle) {
        let labelled = self.metrics.plan.phase_at(now) == Phase::Measure;
        let mut due = std::mem::take(&mut self.due);
        self.source.poll_into(now, &mut due);
        for req in due.drain(..) {
            self.inject_one(now, req.src, req.dst, labelled);
        }
        self.due = due;
    }

    /// Injects one packet from `src` to `dst`, assigning the next
    /// sequential id and recording into the injection log when enabled.
    fn inject_one(&mut self, now: Cycle, src: u32, dst: u32, labelled: bool) {
        if let Some(log) = &mut self.injection_log {
            // `now` is monotone across calls, so recording cannot fail;
            // a debug build still checks the invariant.
            let recorded = log.record(now, src, dst);
            debug_assert!(recorded.is_ok(), "injection log out of order");
        }
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        let packet = QueuedPacket {
            id,
            dst: NodeId(dst),
            flits: PACKET_FLITS,
            injected_at: now,
            labelled,
        };
        if labelled {
            self.metrics.tracker.inject_labelled();
        }
        self.metrics.injected_total += 1;
        let b = self.cfg.board_of(src);
        let l = self.cfg.local_of(src);
        self.boards[b as usize].enqueue_node_packet(l, packet);
    }

    /// Delivers optical arrivals into the destination boards' receivers
    /// (popping one at a time — no per-cycle arrival list is built).
    fn receive(&mut self, now: Cycle) {
        while let Some(arr) = self.srs.pop_arrival_due(now) {
            self.boards[arr.dst_board as usize].enqueue_rx_packet(arr.wavelength, arr.packet);
        }
    }

    /// Applies every fault event scheduled at or before `now` (the plan is
    /// time-sorted, so this is a cursor walk — O(1) when nothing is due).
    fn apply_due_faults(&mut self, now: Cycle) {
        while self.fault_cursor < self.cfg.faults.len() {
            let e = self.cfg.faults.events()[self.fault_cursor];
            if e.at > now {
                break;
            }
            self.fault_cursor += 1;
            self.apply_fault(now, e.kind);
        }
    }

    fn apply_fault(&mut self, now: Cycle, kind: FaultKind) {
        if self.tracer.enabled() {
            // `wavelength: 0` marks "not applicable": the static RWA never
            // assigns wavelength 0 to a flow, so the sentinel is unambiguous.
            let (label, board, dest, wavelength) = match kind {
                FaultKind::ReceiverDown { board, wavelength } => {
                    (FaultLabel::ReceiverDrop, board, board, wavelength)
                }
                FaultKind::ReceiverRepair { board, wavelength } => {
                    (FaultLabel::ReceiverRepair, board, board, wavelength)
                }
                FaultKind::TransmitterDown { board, dest } => {
                    (FaultLabel::TransmitterDrop, board, dest, 0)
                }
                FaultKind::TransmitterRepair { board, dest } => {
                    (FaultLabel::TransmitterRepair, board, dest, 0)
                }
                FaultKind::LcStuck {
                    board,
                    dest,
                    wavelength,
                } => (FaultLabel::LcStuck, board, dest, wavelength),
                FaultKind::LcRepair {
                    board,
                    dest,
                    wavelength,
                } => (FaultLabel::LcUnstuck, board, dest, wavelength),
                FaultKind::CdrRelock {
                    board,
                    dest,
                    wavelength,
                    ..
                } => (FaultLabel::CdrRelock, board, dest, wavelength),
                FaultKind::TokenLoss { victim } => (FaultLabel::TokenLoss, victim, victim, 0),
                FaultKind::TokenCorrupt { victim } => (FaultLabel::TokenCorrupt, victim, victim, 0),
            };
            self.tracer.emit(
                now,
                TraceEvent::Fault {
                    label,
                    board,
                    dest,
                    wavelength,
                },
            );
        }
        match kind {
            FaultKind::ReceiverDown { board, wavelength } => {
                self.srs
                    .fail_receiver(now, board, wavelength, &mut self.tracer)
            }
            FaultKind::ReceiverRepair { board, wavelength } => {
                self.srs.repair_receiver(now, board, wavelength)
            }
            FaultKind::TransmitterDown { board, dest } => {
                self.srs
                    .fail_transmitter(now, board, dest, &mut self.tracer)
            }
            FaultKind::TransmitterRepair { board, dest } => {
                self.srs.repair_transmitter(now, board, dest)
            }
            FaultKind::LcStuck {
                board,
                dest,
                wavelength,
            } => self.srs.stick_lc(board, dest, wavelength),
            FaultKind::LcRepair {
                board,
                dest,
                wavelength,
            } => self.srs.unstick_lc(board, dest, wavelength),
            FaultKind::CdrRelock {
                board,
                dest,
                wavelength,
                penalty,
            } => self.srs.schedule_relock(board, dest, wavelength, penalty),
            FaultKind::TokenLoss { victim } => self.token_fault(victim, false),
            FaultKind::TokenCorrupt { victim } => self.token_fault(victim, true),
        }
    }

    /// Routes an LS token fault into the running DBR round, or arms it for
    /// the next one. A single fault per round is recovered by the round's
    /// watchdog (see [`reconfig::protocol::RetryPolicy`]); a persistently
    /// jammed ring aborts the round fail-safe.
    fn token_fault(&mut self, victim: u16, corrupt: bool) {
        if !self.cfg.mode.bandwidth_reconfig() {
            return; // no DBR rounds: nothing on the ring to hit
        }
        let fault = TokenFault {
            victim: BoardId(victim),
            corrupt,
        };
        match &mut self.active_round {
            Some(round) => round.inject_fault(fault),
            None => self.armed_token.push(fault),
        }
    }

    /// Applies one fault immediately, outside any scheduled plan.
    pub fn inject_fault(&mut self, kind: FaultKind) {
        let now = self.now;
        self.apply_fault(now, kind);
    }

    /// Control-plane health: `(token resends performed, rounds aborted
    /// fail-safe)`.
    pub fn control_stats(&self) -> (u64, u64) {
        (self.ls_retries, self.ls_aborted)
    }

    /// Drains the recorded trace, oldest event first. Empty when tracing is
    /// off (the default).
    pub fn take_trace_records(&mut self) -> Vec<TraceRecord> {
        self.tracer.take_records()
    }

    /// Events overwritten because the ring-buffer capacity was exceeded.
    pub fn trace_dropped(&self) -> u64 {
        self.tracer.dropped()
    }

    /// Kept for callers that still pass the retired window-row columns to
    /// [`crate::stream::StreamSink::flush_window`]: always empty, since a
    /// window's numbers now ride its window event.
    pub fn metric_counter_names(&self) -> Vec<String> {
        Vec::new()
    }

    /// As [`Self::metric_counter_names`]: always empty.
    pub fn metric_gauge_names(&self) -> Vec<String> {
        Vec::new()
    }

    /// Drains the injection log recorded by this run (None unless
    /// [`SystemConfig::record_injections`] enabled it). The caller attaches
    /// provenance via [`TraceRecorder::into_trace`].
    pub fn take_injection_log(&mut self) -> Option<TraceRecorder> {
        self.injection_log.take()
    }

    /// Drains the per-packet delivery log (empty unless
    /// [`SystemConfig::packet_log`] enabled it).
    pub fn take_packet_log(&mut self) -> Vec<PacketDelivery> {
        self.packet_log.take().unwrap_or_default()
    }

    /// True when no packet is anywhere in flight — boards idle *and* the
    /// optical domain empty (no packet serializing or on a fiber).
    pub fn is_drained(&self) -> bool {
        self.boards.iter().all(|b| b.is_idle()) && self.srs.arrivals_pending() == 0
    }

    /// The mode this system runs.
    pub fn mode(&self) -> NetworkMode {
        self.cfg.mode
    }

    /// True when the system is at a state a checkpoint can capture: no
    /// DBR round in flight. Rounds launch at `R_w`
    /// boundaries and complete well within a window, so boundary-cadence
    /// checkpointing observes this as always-true in practice; a
    /// conservative caller ([`crate::checkpoint::Checkpointer`]) skips the
    /// boundary and retries at the next one if it is not.
    pub fn can_checkpoint(&self) -> bool {
        self.active_round.is_none()
    }

    /// Serializes the full mutable simulation state (boards, SRS,
    /// injection source and log, metrics, control plane, and the telemetry
    /// state that decides future events: the dropped count, the window and
    /// round counters, the `B_max` watches). Observations are not state: the
    /// trace records and delivery rows are written by the streaming sink,
    /// so a checkpoint holds none and is refused until [`Self::drain_window`]
    /// emptied them. Config-derived geometry is *not* written — restore
    /// overlays a freshly-constructed identical system. Fails if a DBR
    /// round is in flight (see [`Self::can_checkpoint`]); in-flight rounds
    /// borrow stage state that is not worth freezing when the next boundary
    /// is at most one window away.
    pub fn save_state(
        &self,
        w: &mut desim::snap::SnapWriter,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::{Snap, SnapError};
        if self.active_round.is_some() {
            return Err(SnapError::Mismatch(
                "checkpoint requested mid-DBR-round; wait for quiescence".into(),
            ));
        }
        if !self.tracer.is_empty() || self.packet_log.as_ref().is_some_and(|l| !l.is_empty()) {
            return Err(SnapError::Mismatch(
                "checkpoint requested with undrained trace records or delivery rows; \
                 call drain_window first"
                    .into(),
            ));
        }
        w.tag(b"SYSS");
        w.u64(self.now);
        w.u64(self.next_packet_id);
        w.u64(self.window_index);
        w.u64(self.dbr_rounds);
        w.u64(self.ls_retries);
        w.u64(self.ls_aborted);
        w.usize(self.fault_cursor);
        w.usize(self.boards.len());
        for b in &self.boards {
            b.save_state(w);
        }
        self.srs.save_state(w);
        self.source.save_state(w);
        w.bool(self.injection_log.is_some());
        if let Some(log) = &self.injection_log {
            log.save_state(w);
        }
        self.metrics.save_state(w);
        self.armed_token.save(w);
        self.tracer.save_state(w);
        w.usize(self.buffer_watch.len());
        for watch in &self.buffer_watch {
            watch.save_state(w);
        }
        w.bool(self.controller.is_some());
        if let Some(c) = &self.controller {
            c.save_state(w);
        }
        Ok(())
    }

    /// Overlays a checkpointed state onto a freshly-constructed system
    /// built from the *same* config (and, under replay, the same trace).
    /// Geometry mismatches (board count, receiver slot count, source kind,
    /// presence of logs/telemetry) are typed [`desim::snap::SnapError::Mismatch`]
    /// errors, never panics.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        use desim::snap::{Snap, SnapError};
        fn presence(got: bool, have: bool, what: &str) -> Result<(), SnapError> {
            if got != have {
                return Err(SnapError::Mismatch(format!(
                    "snapshot {} {what} but this system {}",
                    if got { "has" } else { "lacks" },
                    if have { "has one" } else { "does not" },
                )));
            }
            Ok(())
        }
        r.tag(b"SYSS")?;
        let now = r.u64()?;
        let next_packet_id = r.u64()?;
        let window_index = r.u64()?;
        let dbr_rounds = r.u64()?;
        let ls_retries = r.u64()?;
        let ls_aborted = r.u64()?;
        let fault_cursor = r.usize()?;
        if fault_cursor > self.cfg.faults.len() {
            return Err(SnapError::Format(
                "fault cursor beyond this config's fault plan".into(),
            ));
        }
        r.len_eq(self.boards.len(), "system boards")?;
        for b in &mut self.boards {
            b.load_state(r)?;
        }
        self.srs.load_state(r)?;
        self.source.load_state(r)?;
        presence(r.bool()?, self.injection_log.is_some(), "an injection log")?;
        if let Some(log) = &mut self.injection_log {
            log.load_state(r)?;
        }
        self.metrics.load_state(r)?;
        self.armed_token = Snap::load(r)?;
        self.tracer.load_state(r)?;
        r.len_eq(self.buffer_watch.len(), "buffer watches")?;
        for watch in &mut self.buffer_watch {
            watch.load_state(r)?;
        }
        presence(r.bool()?, self.controller.is_some(), "a tuning controller")?;
        if let Some(c) = &mut self.controller {
            c.load_state(r)?;
            // The freshly-built watches carry the config's `B_max`; the
            // killed run's watches had been retargeted to the controller's
            // live value. Reproduce that (the snapshot's hysteresis sides,
            // loaded above, already correspond to it).
            let target = c.thresholds_milli().2 as f64 / 1000.0;
            for watch in &mut self.buffer_watch {
                watch.retarget(target);
            }
        }
        self.now = now;
        self.next_packet_id = next_packet_id;
        self.window_index = window_index;
        self.dbr_rounds = dbr_rounds;
        self.ls_retries = ls_retries;
        self.ls_aborted = ls_aborted;
        self.fault_cursor = fault_cursor;
        self.active_round = None;
        if let Some(log) = &mut self.packet_log {
            log.clear();
        }
        Ok(())
    }

    /// As [`Self::run`], invoking `hook` at the top of every cycle
    /// *before* the cycle executes. The hook observes the system exactly
    /// as the cycle will (same `now`, pre-boundary state), which is what
    /// checkpointing and streaming export need: a hook at cycle
    /// `t = k·R_w` captures the state an uninterrupted run has when
    /// entering that boundary cycle. The count is accepted and ignored, as
    /// in [`Self::run_sharded`]; the next `benchmark`-archetype PR drops it.
    pub fn run_with<F: FnMut(&mut System)>(
        &mut self,
        _point_threads: std::num::NonZeroUsize,
        hook: &mut F,
    ) -> Cycle {
        self.drive(&mut NullProbe, hook)
    }

    /// Drains one window's worth of streamable output: recorded trace
    /// events and the packet-delivery log. With a boundary-cadence caller
    /// this bounds both in-memory buffers to one window of data — the core
    /// of the long-horizon streaming mode — and leaves the system ready to
    /// checkpoint ([`Self::save_state`]).
    pub fn drain_window(&mut self) -> WindowFlush {
        let packets = match &mut self.packet_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        };
        // Drained every window, the log can never exceed one window of
        // deliveries: at most one flit ejects per node per cycle, so
        // deliveries per window ≤ nodes × R_w / packet_flits.
        debug_assert!(
            packets.len()
                <= (self.cfg.boards as usize * self.cfg.nodes_per_board as usize)
                    * (self.cfg.schedule.window as usize)
                    / PACKET_FLITS as usize,
            "packet log exceeded one window of deliveries"
        );
        WindowFlush {
            records: self.tracer.take_records(),
            packets,
        }
    }
}

/// One window's worth of streamed output, drained at an `R_w` boundary by
/// [`System::drain_window`].
#[derive(Debug, Default)]
pub struct WindowFlush {
    /// Trace events recorded since the previous drain (empty when tracing
    /// is off).
    pub records: Vec<TraceRecord>,
    /// Packet deliveries logged since the previous drain.
    pub packets: Vec<PacketDelivery>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkMode;

    fn plan() -> PhasePlan {
        PhasePlan::new(2000, 4000).with_max_cycles(40_000)
    }

    fn run(mode: NetworkMode, pattern: TrafficPattern, load: f64) -> System {
        let cfg = SystemConfig::small(mode);
        let mut sys = System::new(cfg, pattern, load, plan());
        sys.run();
        sys
    }

    #[test]
    fn blocked_flows_sleep_instead_of_retrying() {
        // B = 8 uniform at 0.6: a ready flow's owned channels are nearly
        // always all serializing, so most visits of the optical stage
        // must end in a skip (the flow sleeps), not in a failing try.
        for mode in [NetworkMode::NpNb, NetworkMode::PB] {
            let cfg = SystemConfig::paper64(mode);
            let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.6, plan());
            for _ in 0..3_000 {
                sys.step();
            }
            let (tries, skips) = (sys.tx_tries, sys.tx_skips);
            assert!(
                tries > 0 && tries * 5 <= tries + skips,
                "{}: {tries} tries, {skips} skips",
                mode.name()
            );
        }
    }

    /// A probe that records which [`PhaseTimers`] bucket each lap lands in.
    #[derive(Default)]
    struct LapLog(Vec<&'static str>);

    impl PhaseProbe for LapLog {
        fn start(&mut self) {
            self.0.push("start");
        }
        fn lap(&mut self, bucket: fn(&mut PhaseTimers) -> &mut std::time::Duration) {
            let mut t = PhaseTimers::default();
            *bucket(&mut t) = std::time::Duration::from_nanos(1);
            let hit: Vec<&'static str> = [
                ("reconfig", t.reconfig),
                ("inject", t.inject),
                ("route", t.route),
                ("optical", t.optical),
                ("stats", t.stats),
            ]
            .into_iter()
            .filter(|(_, d)| !d.is_zero())
            .map(|(name, _)| name)
            .collect();
            assert_eq!(hit.len(), 1, "a lap writes one bucket");
            self.0.push(hit[0]);
        }
    }

    #[test]
    fn every_cycle_laps_each_phase_once_in_order() {
        // The profiled run's attribution: every cycle of the run loop
        // starts the probe once and then laps reconfig → inject → route →
        // optical → stats exactly once each, in that order.
        let cfg = SystemConfig::small(NetworkMode::PB);
        let plan = PhasePlan::new(200, 400).with_max_cycles(4_000);
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.3, plan);
        let mut log = LapLog::default();
        let end = sys.drive(&mut log, &mut |_| {});
        let cycle = ["start", "reconfig", "inject", "route", "optical", "stats"];
        assert!(end > 0);
        assert_eq!(log.0.len(), cycle.len() * end as usize);
        for (now, laps) in log.0.chunks(cycle.len()).enumerate() {
            assert_eq!(laps, cycle, "cycle {now}");
        }
    }

    #[test]
    fn uniform_low_load_delivers_everything() {
        let sys = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.2);
        let m = sys.metrics();
        assert!(m.injected_total > 0, "traffic must flow");
        assert_eq!(
            m.tracker.outstanding(),
            0,
            "all labelled packets must drain at low load"
        );
        assert!(m.mean_latency() > 0.0);
        assert!(m.throughput_ppc() > 0.0);
        assert!(m.average_power_mw() > 0.0);
    }

    #[test]
    fn throughput_tracks_offered_load_below_saturation() {
        let sys = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.3);
        let m = sys.metrics();
        let offered = sys.config().capacity().injection_rate(0.3);
        let accepted = m.throughput_ppc();
        assert!(
            (accepted - offered).abs() / offered < 0.25,
            "accepted {accepted} vs offered {offered}"
        );
    }

    #[test]
    fn higher_load_does_not_reduce_packets() {
        let lo = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.2);
        let hi = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.6);
        assert!(
            hi.metrics().throughput_ppc() > lo.metrics().throughput_ppc() * 1.5,
            "hi {} lo {}",
            hi.metrics().throughput_ppc(),
            lo.metrics().throughput_ppc()
        );
    }

    #[test]
    fn complement_saturates_np_nb_but_not_np_b() {
        // The paper's headline: with one static wavelength per board pair,
        // complement traffic saturates immediately; DBR re-allocates the
        // idle wavelengths and throughput multiplies.
        let base = run(NetworkMode::NpNb, TrafficPattern::Complement, 0.6);
        let reconf = run(NetworkMode::NpB, TrafficPattern::Complement, 0.6);
        let t_base = base.metrics().throughput_ppc();
        let t_reconf = reconf.metrics().throughput_ppc();
        assert!(
            t_reconf > t_base * 1.5,
            "DBR must improve complement throughput: {t_reconf} vs {t_base}"
        );
        // And reconfiguration actually happened.
        assert!(reconf.srs().reconfig_counts().0 > 0);
        assert_eq!(base.srs().reconfig_counts().0, 0);
    }

    #[test]
    fn power_aware_mode_saves_power_at_low_load() {
        let base = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.2);
        let pa = run(NetworkMode::PNb, TrafficPattern::Uniform, 0.2);
        let p_base = base.metrics().average_power_mw();
        let p_pa = pa.metrics().average_power_mw();
        assert!(
            p_pa < p_base * 0.95,
            "DPM must save power at low load: {p_pa} vs {p_base}"
        );
        assert!(pa.srs().reconfig_counts().1 > 0, "retunes must happen");
    }

    #[test]
    fn np_modes_never_retune_or_regrant() {
        let sys = run(NetworkMode::NpNb, TrafficPattern::Uniform, 0.5);
        assert_eq!(sys.srs().reconfig_counts(), (0, 0));
        assert_eq!(sys.mode(), NetworkMode::NpNb);
    }

    #[test]
    fn deterministic_runs() {
        let a = run(NetworkMode::PB, TrafficPattern::Uniform, 0.4);
        let b = run(NetworkMode::PB, TrafficPattern::Uniform, 0.4);
        assert_eq!(a.metrics().injected_total, b.metrics().injected_total);
        assert_eq!(a.metrics().delivered_total, b.metrics().delivered_total);
        assert_eq!(a.metrics().throughput_ppc(), b.metrics().throughput_ppc());
        assert_eq!(a.metrics().mean_latency(), b.metrics().mean_latency());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn bursty_sources_flow_and_drain() {
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.burst = Some(crate::config::BurstSpec {
            burstiness: 4.0,
            dwell: 1000.0,
        });
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.3, plan());
        sys.run();
        let m = sys.metrics();
        assert!(m.injected_total > 0);
        assert_eq!(m.tracker.outstanding(), 0, "bursty low load must drain");
    }

    #[test]
    fn token_faults_are_inert_without_dbr() {
        let mut cfg = SystemConfig::small(NetworkMode::NpNb);
        cfg.faults = crate::faults::FaultPlan::new()
            .at(4006, crate::faults::FaultKind::TokenLoss { victim: 1 });
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.3, plan());
        sys.run();
        assert_eq!(sys.control_stats(), (0, 0));
        assert_eq!(sys.metrics().tracker.outstanding(), 0);
    }

    #[test]
    fn trace_replay_reproduces_a_generated_run_exactly() {
        // Record what the generators of a reference run inject, replay the
        // trace into a fresh system of the same configuration, and expect
        // bit-identical metrics.
        let cfg = SystemConfig::small(NetworkMode::PB);
        let rate = cfg.capacity().injection_rate(0.4);
        let mut gens = traffic::generator::build_generators(
            cfg.nodes(),
            &TrafficPattern::Uniform,
            rate,
            cfg.seed,
        );
        let mut rec = traffic::trace::TraceRecorder::new();
        let horizon = plan().max_cycles;
        for now in 0..horizon {
            for g in &mut gens {
                if let Some(r) = g.poll(now) {
                    rec.record(now, r.src, r.dst).unwrap();
                }
            }
        }
        let mut live = System::new(
            SystemConfig::small(NetworkMode::PB),
            TrafficPattern::Uniform,
            0.4,
            plan(),
        );
        live.run();
        let mut replayed = System::with_trace(
            SystemConfig::small(NetworkMode::PB),
            rec.into_trace(traffic::trace::TraceMeta::default())
                .replayer(),
            plan(),
        );
        replayed.run();
        assert_eq!(
            live.metrics().injected_total,
            replayed.metrics().injected_total
        );
        assert_eq!(
            live.metrics().delivered_total,
            replayed.metrics().delivered_total
        );
        assert_eq!(
            live.metrics().mean_latency(),
            replayed.metrics().mean_latency()
        );
        assert_eq!(live.now(), replayed.now());
    }

    #[test]
    fn zero_load_runs_clean() {
        let cfg = SystemConfig::small(NetworkMode::PB);
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.0, plan());
        sys.run();
        assert_eq!(sys.metrics().injected_total, 0);
        assert!(sys.is_drained());
        // Idle lasers still burn idle power.
        assert!(sys.metrics().average_power_mw() > 0.0);
    }

    #[test]
    fn traced_pb_run_records_ordered_events_and_windows() {
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.trace = erapid_telemetry::TraceConfig::on();
        let mut sys = System::new(cfg, TrafficPattern::Uniform, 0.5, plan());
        sys.run();
        assert!(sys.tracer.enabled());
        assert_eq!(sys.trace_dropped(), 0, "64 KiB ring must fit a small run");
        let records = sys.take_trace_records();
        assert!(!records.is_empty(), "a P-B run must emit events");
        // Emission order is simulation order.
        assert!(records.windows(2).all(|p| p[0].at <= p[1].at));
        let tags: std::collections::BTreeSet<&str> =
            records.iter().map(|r| r.event.tag()).collect();
        for expected in [
            "window",
            "dpm_retune",
            "dpm_applied",
            "ls_stage",
            "dbr_outcome",
        ] {
            assert!(tags.contains(expected), "missing {expected} in {tags:?}");
        }
        // One window event per boundary, indexed 1, 2, …, each carrying
        // the lasers lit when it was sampled.
        let windows: Vec<_> = (records.iter())
            .filter_map(|r| match r.event {
                TraceEvent::WindowBoundary {
                    index, lasers_on, ..
                } => Some((index, lasers_on)),
                _ => None,
            })
            .collect();
        assert_eq!(windows.len() as u64, sys.window_index);
        assert!(windows.iter().zip(1..).all(|(w, i)| w.0 == i));
        assert!(
            windows.iter().all(|w| w.1 > 0),
            "a run always has lit lasers"
        );
        let retunes = records.iter().filter(|r| r.event.tag() == "dpm_retune");
        assert!(
            retunes.count() > 0,
            "P-B at load 0.5 must retune at least once"
        );
    }

    #[test]
    fn tracing_never_perturbs_the_simulation() {
        let plain = run(NetworkMode::PB, TrafficPattern::Uniform, 0.4);
        let mut cfg = SystemConfig::small(NetworkMode::PB);
        cfg.trace = erapid_telemetry::TraceConfig::on();
        let mut traced = System::new(cfg, TrafficPattern::Uniform, 0.4, plan());
        traced.run();
        assert_eq!(
            plain.metrics().injected_total,
            traced.metrics().injected_total
        );
        assert_eq!(
            plain.metrics().delivered_total,
            traced.metrics().delivered_total
        );
        assert_eq!(
            plain.metrics().mean_latency(),
            traced.metrics().mean_latency()
        );
        assert_eq!(
            plain.srs().reconfig_counts(),
            traced.srs().reconfig_counts()
        );
        assert_eq!(plain.now(), traced.now());
    }
}
