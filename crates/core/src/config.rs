//! System configuration: the R(C,B,D) tuple, the four network modes, and
//! the paper's parameter presets (Table 1).

use crate::error::ErapidError;
use crate::faults::FaultPlan;
use erapid_telemetry::TraceConfig;
use erapid_tune::ControllerSpec;
use erapid_workloads::ScenarioSpec;
use photonics::bitrate::RateLadder;
use photonics::fiber::Fiber;
use photonics::power::LinkPowerModel;
use photonics::serdes::Serdes;
use powermgmt::policy::DpmPolicy;
use powermgmt::transition::TransitionModel;
use reconfig::alloc::AllocPolicy;
use reconfig::lockstep::LockStepSchedule;
use reconfig::protocol::RetryPolicy;
use reconfig::stages::ProtocolTiming;

/// The four evaluated network configurations (§3, Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkMode {
    /// Non-power-aware, non-bandwidth-reconfigured baseline.
    NpNb,
    /// Power-aware only (DPM, no DBR).
    PNb,
    /// Bandwidth-reconfigured only (DBR, no DPM).
    NpB,
    /// The paper's proposal: both (Lock-Step).
    PB,
}

impl NetworkMode {
    /// All four modes in the paper's presentation order.
    pub fn all() -> [NetworkMode; 4] {
        [
            NetworkMode::NpNb,
            NetworkMode::NpB,
            NetworkMode::PNb,
            NetworkMode::PB,
        ]
    }

    /// Whether DPM (bit-rate/voltage scaling) is active.
    pub fn power_aware(self) -> bool {
        matches!(self, NetworkMode::PNb | NetworkMode::PB)
    }

    /// Whether DBR (wavelength re-allocation) is active.
    pub fn bandwidth_reconfig(self) -> bool {
        matches!(self, NetworkMode::NpB | NetworkMode::PB)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            NetworkMode::NpNb => "NP-NB",
            NetworkMode::PNb => "P-NB",
            NetworkMode::NpB => "NP-B",
            NetworkMode::PB => "P-B",
        }
    }

    /// The mode [`NetworkMode::name`] prints as `s` (ASCII case ignored).
    pub fn from_name(s: &str) -> Option<Self> {
        Self::all()
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(s))
    }

    /// The DPM thresholds this mode runs with (§4.2: P-NB uses
    /// `L_max = 0.7, B_max = 0`; P-B uses `L_max = 0.9, B_max = 0.3`).
    pub fn dpm_policy(self) -> Option<DpmPolicy> {
        match self {
            NetworkMode::PNb => Some(DpmPolicy::power_only()),
            NetworkMode::PB => Some(DpmPolicy::power_bandwidth()),
            _ => None,
        }
    }
}

/// How DBR decisions travel from statistics to laser commands. There is
/// one way; the type survives only for [`SystemConfig::control_plane`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlPlane {
    /// The five stages executed as real control packets on the RC ring,
    /// cycle by cycle ([`reconfig::protocol::DbrRound`]).
    #[default]
    MessageLevel,
}

/// Bursty-source parameters (extension workload; None = the paper's
/// memoryless Bernoulli sources).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// ON-state rate multiplier over the long-run rate.
    pub burstiness: f64,
    /// Mean dwell time per source state, cycles.
    pub dwell: f64,
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Clusters (the paper's evaluation uses C = 1).
    pub clusters: u16,
    /// Boards per cluster (B).
    pub boards: u16,
    /// Nodes per board (D).
    pub nodes_per_board: u16,
    /// Flits per packet (paper: 8 flits = 64 bytes).
    pub packet_flits: u16,
    /// Virtual channels per router input port.
    pub vcs: u8,
    /// Router input buffer depth per VC, in flits.
    pub buf_depth: usize,
    /// Transmitter queue capacity per destination board, in flits.
    pub tx_queue_flits: u32,
    /// Network configuration.
    pub mode: NetworkMode,
    /// The LS window schedule (`R_w`).
    pub schedule: LockStepSchedule,
    /// Bit-rate ladder.
    pub ladder: RateLadder,
    /// Link power model.
    pub power_model: LinkPowerModel,
    /// Transition timing.
    pub transition: TransitionModel,
    /// DBR allocation thresholds.
    pub alloc: AllocPolicy,
    /// Overrides the DPM thresholds the mode would imply (None = use
    /// [`NetworkMode::dpm_policy`]). Ignored in non-power-aware modes.
    pub dpm_override: Option<DpmPolicy>,
    /// Online threshold auto-tuning (DESIGN.md §15). When set in a
    /// power-aware mode, a [`erapid_tune::ThresholdController`] seeded from
    /// this spec adapts the live DPM thresholds at Power-kind `R_w`
    /// boundaries, preempting both the mode preset and `dpm_override`.
    /// Ignored in non-power-aware modes; None (the default) keeps the
    /// paper-constant thresholds.
    pub tune: Option<ControllerSpec>,
    /// Bursty sources (None = Bernoulli, the paper's model).
    pub burst: Option<BurstSpec>,
    /// Production-shaped workload scenario. When set, injection comes from
    /// an `erapid_workloads::ScenarioEngine` built from this spec (seeded
    /// from [`SystemConfig::seed`], rate-normalised like the synthetic
    /// patterns) instead of the per-node pattern generators.
    pub scenario: Option<ScenarioSpec>,
    /// Selects nothing: every DBR round runs message-level. Kept only
    /// because `benchmark/src/adapter.rs` assigns it; the next
    /// `benchmark`-archetype PR removes the field and [`ControlPlane`].
    pub control_plane: ControlPlane,
    /// Control-plane latency model.
    pub timing: ProtocolTiming,
    /// Board-to-board fiber.
    pub fiber: Fiber,
    /// Flit serialization calculator.
    pub serdes: Serdes,
    /// Master RNG seed.
    pub seed: u64,
    /// Deterministic fault schedule (empty = fault-free, the default).
    pub faults: FaultPlan,
    /// LS control-plane detection/recovery policy.
    pub retry: RetryPolicy,
    /// Cycle-level event tracing (off by default — the null sink costs one
    /// never-taken branch per emit point). Plain data, so the config stays
    /// `Clone + Debug`; each `System` builds its own recorder from it.
    pub trace: TraceConfig,
    /// Record every injection into a [`traffic::trace::TraceRecorder`] for
    /// later replay (off by default — when off, the hot path pays one
    /// never-taken branch, the same zero-cost contract as `trace`).
    pub record_injections: bool,
    /// Log every delivery as a per-packet `(id, dst, injected, delivered)`
    /// row for packet-for-packet diffing (off by default).
    pub packet_log: bool,
}

impl SystemConfig {
    /// An R(1,B,D) system with Table 1 parameters: the one place the board
    /// count is written into both the topology and the control ring's
    /// timing model.
    pub fn geometry(mode: NetworkMode, boards: u16, nodes_per_board: u16) -> Self {
        Self {
            clusters: 1,
            boards,
            nodes_per_board,
            packet_flits: 8,
            vcs: 4,
            buf_depth: 4,
            tx_queue_flits: 64,
            mode,
            schedule: LockStepSchedule::paper(),
            ladder: RateLadder::paper(),
            power_model: LinkPowerModel::paper_table(),
            transition: TransitionModel::paper(),
            alloc: AllocPolicy::paper(),
            dpm_override: None,
            tune: None,
            burst: None,
            scenario: None,
            control_plane: ControlPlane::default(),
            timing: ProtocolTiming {
                boards,
                lcs_per_board: nodes_per_board,
                ..ProtocolTiming::paper64()
            },
            fiber: Fiber::rack_scale(),
            serdes: Serdes::paper(),
            seed: 0xE4A9_1D07,
            faults: FaultPlan::new(),
            retry: RetryPolicy::default(),
            trace: TraceConfig::off(),
            record_injections: false,
            packet_log: false,
        }
    }

    /// The paper's 64-node system (B = 8, D = 8).
    pub fn paper64(mode: NetworkMode) -> Self {
        Self::geometry(mode, 8, 8)
    }

    /// A small R(1,4,4) system for fast tests (the paper's Fig. 1 example).
    pub fn small(mode: NetworkMode) -> Self {
        Self::geometry(mode, 4, 4)
    }

    /// Total node count.
    pub fn nodes(&self) -> u32 {
        self.boards as u32 * self.nodes_per_board as u32
    }

    /// Wavelength count (W = B).
    pub fn wavelengths(&self) -> u16 {
        self.boards
    }

    /// The board of a global node id.
    pub fn board_of(&self, node: u32) -> u16 {
        (node / self.nodes_per_board as u32) as u16
    }

    /// The local index of a global node id on its board.
    pub fn local_of(&self, node: u32) -> u16 {
        (node % self.nodes_per_board as u32) as u16
    }

    /// The effective DPM policy: the override when set, else the mode's.
    pub fn dpm_policy(&self) -> Option<DpmPolicy> {
        if !self.mode.power_aware() {
            return None;
        }
        self.dpm_override.or_else(|| self.mode.dpm_policy())
    }

    /// The capacity model for normalising injected load.
    pub fn capacity(&self) -> traffic::capacity::CapacityModel {
        let flit_cycles = self
            .serdes
            .flit_cycles(self.ladder.rate(self.ladder.highest()));
        traffic::capacity::CapacityModel {
            boards: self.boards as u32,
            nodes_per_board: self.nodes_per_board as u32,
            packet_flits: self.packet_flits as u32,
            flit_cycles: flit_cycles as u32,
        }
    }

    /// Checks internal consistency, reporting the first problem as a
    /// typed error (including every fault event targeting hardware that
    /// exists, via [`FaultPlan::validate`]).
    pub fn try_validate(&self) -> Result<(), ErapidError> {
        let fail = |msg: &str| Err(ErapidError::Config(msg.into()));
        if self.clusters != 1 {
            return fail("multi-cluster systems are future work");
        }
        if self.boards < 2 {
            return fail("need at least two boards");
        }
        if self.nodes_per_board < 1 {
            return fail("need at least one node per board");
        }
        if self.timing.boards != self.boards {
            return fail("timing.boards must equal boards (build with SystemConfig::geometry)");
        }
        if self.packet_flits < 1 {
            return fail("packets must carry at least one flit");
        }
        if self.vcs < 1 {
            return fail("need at least one VC");
        }
        if self.buf_depth < 1 {
            return fail("need at least one buffer slot");
        }
        if self.tx_queue_flits < self.packet_flits as u32 {
            return fail("TX queue must hold at least one packet");
        }
        if self.ladder.len() != self.power_model.ladder().len() {
            return fail("power model must cover the ladder");
        }
        if let Some(spec) = &self.scenario {
            spec.validate(self.nodes())
                .map_err(|e| ErapidError::Config(e.0))?;
        }
        if let Some(spec) = &self.tune {
            spec.try_validate()
                .map_err(|e| ErapidError::Config(e.to_string()))?;
        }
        if self.mode.bandwidth_reconfig() && self.schedule.window <= self.timing.dbr_latency() {
            return fail("R_w must exceed the DBR round latency, or no round ever completes");
        }
        self.faults.validate(self.boards)?;
        Ok(())
    }

    /// Validates internal consistency, aborting on the first problem
    /// (construction-time contract; see [`SystemConfig::try_validate`] for
    /// the non-aborting form).
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid SystemConfig: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_flags() {
        assert!(!NetworkMode::NpNb.power_aware());
        assert!(!NetworkMode::NpNb.bandwidth_reconfig());
        assert!(NetworkMode::PNb.power_aware());
        assert!(!NetworkMode::PNb.bandwidth_reconfig());
        assert!(!NetworkMode::NpB.power_aware());
        assert!(NetworkMode::NpB.bandwidth_reconfig());
        assert!(NetworkMode::PB.power_aware());
        assert!(NetworkMode::PB.bandwidth_reconfig());
        assert_eq!(NetworkMode::all().len(), 4);
        assert_eq!(NetworkMode::PB.name(), "P-B");
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in NetworkMode::all() {
            assert_eq!(NetworkMode::from_name(mode.name()), Some(mode));
            assert_eq!(
                NetworkMode::from_name(&mode.name().to_lowercase()),
                Some(mode)
            );
        }
        assert_eq!(NetworkMode::from_name("x"), None);
    }

    #[test]
    fn ring_timing_must_match_the_board_count() {
        // Used to pass validation and die on an `assert_eq!` inside the
        // first DBR round (`reconfig::protocol::DbrRound::new`).
        let mut c = SystemConfig::paper64(NetworkMode::NpB);
        c.boards = 4;
        assert!(matches!(c.try_validate(), Err(ErapidError::Config(_))));
        let c = SystemConfig::geometry(NetworkMode::NpB, 4, 8);
        assert!(c.try_validate().is_ok());
        assert_eq!((c.timing.boards, c.timing.lcs_per_board), (4, 8));
    }

    #[test]
    fn mode_policies_match_paper() {
        assert!(NetworkMode::NpNb.dpm_policy().is_none());
        let pnb = NetworkMode::PNb.dpm_policy().unwrap();
        assert_eq!((pnb.l_max, pnb.b_max), (0.7, 0.0));
        let pb = NetworkMode::PB.dpm_policy().unwrap();
        assert_eq!((pb.l_max, pb.b_max), (0.9, 0.3));
    }

    #[test]
    fn paper64_geometry() {
        let c = SystemConfig::paper64(NetworkMode::PB);
        c.validate();
        assert_eq!(c.nodes(), 64);
        assert_eq!(c.wavelengths(), 8);
        assert_eq!(c.board_of(0), 0);
        assert_eq!(c.board_of(63), 7);
        assert_eq!(c.local_of(63), 7);
        assert_eq!(c.board_of(8), 1);
        assert_eq!(c.schedule.window, 2000);
    }

    #[test]
    fn small_config_validates() {
        let c = SystemConfig::small(NetworkMode::NpNb);
        c.validate();
        assert_eq!(c.nodes(), 16);
        assert_eq!(c.timing.boards, 4);
    }

    #[test]
    fn dpm_override_takes_precedence() {
        let mut c = SystemConfig::paper64(NetworkMode::PB);
        assert_eq!(c.dpm_policy(), Some(DpmPolicy::power_bandwidth()));
        let custom = DpmPolicy::new(0.1, 0.2, 0.0);
        c.dpm_override = Some(custom);
        assert_eq!(c.dpm_policy(), Some(custom));
        // Non-power-aware modes ignore the override entirely.
        c.mode = NetworkMode::NpB;
        assert_eq!(c.dpm_policy(), None);
    }

    #[test]
    fn capacity_matches_paper_model() {
        let c = SystemConfig::paper64(NetworkMode::NpNb);
        let cap = c.capacity();
        let paper = traffic::capacity::CapacityModel::paper64();
        assert!((cap.uniform_capacity() - paper.uniform_capacity()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one packet")]
    fn tiny_tx_queue_rejected() {
        let mut c = SystemConfig::paper64(NetworkMode::NpNb);
        c.tx_queue_flits = 4;
        c.validate();
    }

    #[test]
    fn scenario_specs_are_validated() {
        let mut c = SystemConfig::small(NetworkMode::PB);
        c.scenario = Some(ScenarioSpec::incast());
        assert!(c.try_validate().is_ok());
        let mut bad = ScenarioSpec::hotspot();
        bad.rate_scale = f64::NAN;
        c.scenario = Some(bad);
        assert!(matches!(c.try_validate(), Err(ErapidError::Config(_))));
    }

    #[test]
    fn tune_specs_are_validated() {
        let mut c = SystemConfig::small(NetworkMode::PB);
        c.tune = Some(ControllerSpec::paper_pb());
        assert!(c.try_validate().is_ok());
        let mut bad = ControllerSpec::paper_pb();
        bad.l_min_milli = 950; // inverted band
        c.tune = Some(bad);
        assert!(matches!(c.try_validate(), Err(ErapidError::Config(_))));
    }

    #[test]
    fn window_shorter_than_a_dbr_round_is_rejected() {
        let mut c = SystemConfig::paper64(NetworkMode::PB);
        let latency = c.timing.dbr_latency();
        c.schedule = LockStepSchedule::new(latency);
        assert!(matches!(c.try_validate(), Err(ErapidError::Config(_))));
        c.schedule = LockStepSchedule::new(latency + 1);
        assert!(c.try_validate().is_ok());
        // Without DBR no round runs, so any window is fine.
        c.schedule = LockStepSchedule::new(latency);
        c.mode = NetworkMode::PNb;
        assert!(c.try_validate().is_ok());
    }

    #[test]
    fn try_validate_reports_typed_errors() {
        let mut c = SystemConfig::paper64(NetworkMode::PB);
        assert!(c.try_validate().is_ok());
        c.tx_queue_flits = 4;
        assert!(matches!(c.try_validate(), Err(ErapidError::Config(_))));
        // Fault plans are validated against the geometry too.
        let mut c = SystemConfig::small(NetworkMode::PB);
        c.faults = FaultPlan::new().at(
            10,
            crate::faults::FaultKind::ReceiverDown {
                board: 9,
                wavelength: 1,
            },
        );
        assert!(matches!(
            c.try_validate(),
            Err(ErapidError::FaultTarget { at: 10, .. })
        ));
    }
}
