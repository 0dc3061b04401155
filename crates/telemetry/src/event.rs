//! The typed, cycle-stamped event model.
//!
//! Every variant is plain data (`Copy`), small enough to live in a
//! preallocated ring buffer, and carries only indices — no references into
//! the simulator, so recording can never perturb it.

use desim::Cycle;

/// One of the five Lock-Step ring stages of a DBR round (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LsStageLabel {
    LinkRequest,
    BoardRequest,
    Reconfigure,
    BoardResponse,
    LinkResponse,
}

impl LsStageLabel {
    /// The wire label.
    pub fn name(self) -> &'static str {
        match self {
            LsStageLabel::LinkRequest => "link_request",
            LsStageLabel::BoardRequest => "board_request",
            LsStageLabel::Reconfigure => "reconfigure",
            LsStageLabel::BoardResponse => "board_response",
            LsStageLabel::LinkResponse => "link_response",
        }
    }
}

/// Which half of the Lock-Step schedule a window boundary opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowLabel {
    /// Odd window: DPM (rate/voltage scaling) decisions are taken.
    Power,
    /// Even window: DBR (bandwidth reallocation) rounds are triggered.
    Bandwidth,
}

impl WindowLabel {
    pub fn name(self) -> &'static str {
        match self {
            WindowLabel::Power => "power",
            WindowLabel::Bandwidth => "bandwidth",
        }
    }
}

/// Fault taxonomy as seen by the telemetry layer.
///
/// Mirrors `erapid_core::faults::FaultKind` by label rather than by type so
/// the dependency points from core to telemetry, not the other way around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLabel {
    ReceiverDrop,
    ReceiverRepair,
    TransmitterDrop,
    TransmitterRepair,
    LcStuck,
    LcUnstuck,
    CdrRelock,
    TokenLoss,
    TokenCorrupt,
}

impl FaultLabel {
    pub fn name(self) -> &'static str {
        match self {
            FaultLabel::ReceiverDrop => "receiver_drop",
            FaultLabel::ReceiverRepair => "receiver_repair",
            FaultLabel::TransmitterDrop => "transmitter_drop",
            FaultLabel::TransmitterRepair => "transmitter_repair",
            FaultLabel::LcStuck => "lc_stuck",
            FaultLabel::LcUnstuck => "lc_unstuck",
            FaultLabel::CdrRelock => "cdr_relock",
            FaultLabel::TokenLoss => "token_loss",
            FaultLabel::TokenCorrupt => "token_corrupt",
        }
    }

    /// Whether this label repairs (rather than degrades) the system.
    pub fn is_repair(self) -> bool {
        matches!(
            self,
            FaultLabel::ReceiverRepair | FaultLabel::TransmitterRepair | FaultLabel::LcUnstuck
        )
    }
}

/// A cycle-level simulation event.
///
/// Channel coordinates follow the simulator convention: `src` and `dest`
/// are board indices, `wavelength` indexes the home-channel group of `dest`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An R_w window boundary. `index` counts boundaries from 1. The two
    /// congestion gauges are sampled at the boundary: the highest router
    /// buffer occupancy (flits) any board reached in the closing window,
    /// and the lasers lit.
    WindowBoundary {
        index: u64,
        kind: WindowLabel,
        router_peak_flits: u32,
        lasers_on: u32,
    },
    /// DPM decided to move a link to a new rate level (odd window).
    /// The transition occupies `penalty` dark cycles once applied.
    DpmRetune {
        src: u16,
        dest: u16,
        wavelength: u16,
        from_level: u8,
        to_level: u8,
        penalty: u64,
    },
    /// A scheduled DPM retune actually took effect at the channel.
    DpmApplied {
        src: u16,
        dest: u16,
        wavelength: u16,
        level: u8,
    },
    /// CDR relock begins: the channel goes dark for `penalty` cycles.
    RelockStart {
        src: u16,
        dest: u16,
        wavelength: u16,
        penalty: u64,
    },
    /// CDR relock ends (stamped `start + penalty`; emitted at start, the
    /// completion cycle is deterministic).
    RelockEnd {
        src: u16,
        dest: u16,
        wavelength: u16,
    },
    /// One Lock-Step ring stage of DBR round `round` completed its span
    /// `[at, end)`.
    LsStage {
        round: u64,
        stage: LsStageLabel,
        end: Cycle,
    },
    /// A DBR round resolved: `grants` wavelength moves committed after
    /// `retries` watchdog recoveries; `aborted` when the ring failed safe.
    DbrOutcome {
        round: u64,
        grants: u32,
        retries: u32,
        aborted: bool,
    },
    /// Wavelength `wavelength` of home board `dest` changed owner.
    Grant {
        dest: u16,
        wavelength: u16,
        from: u16,
        to: u16,
    },
    /// Wavelength withdrawn from service (component failure).
    Revoke {
        dest: u16,
        wavelength: u16,
        owner: u16,
    },
    /// A fault was injected (or a repair applied).
    Fault {
        label: FaultLabel,
        board: u16,
        dest: u16,
        wavelength: u16,
    },
    /// A board→dest transmit-queue utilisation crossed the DBR trigger
    /// threshold B_max. `above` is the new side of the threshold;
    /// `util_milli` is the window-average occupancy in thousandths.
    BufferThreshold {
        board: u16,
        dest: u16,
        above: bool,
        util_milli: u32,
    },
}

impl TraceEvent {
    /// Short event-type tag used by both exporters.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEvent::WindowBoundary { .. } => "window",
            TraceEvent::DpmRetune { .. } => "dpm_retune",
            TraceEvent::DpmApplied { .. } => "dpm_applied",
            TraceEvent::RelockStart { .. } => "relock_start",
            TraceEvent::RelockEnd { .. } => "relock_end",
            TraceEvent::LsStage { .. } => "ls_stage",
            TraceEvent::DbrOutcome { .. } => "dbr_outcome",
            TraceEvent::Grant { .. } => "grant",
            TraceEvent::Revoke { .. } => "revoke",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::BufferThreshold { .. } => "buffer_threshold",
        }
    }
}

/// A recorded event: the emission cycle plus the event payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    pub at: Cycle,
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_labels_are_classified() {
        assert!(FaultLabel::ReceiverRepair.is_repair());
        assert!(!FaultLabel::TokenLoss.is_repair());
    }

    #[test]
    fn records_are_plain_data() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceRecord>();
        // The window event's two gauges fit in its padding.
        assert_eq!(std::mem::size_of::<TraceEvent>(), 24);
        assert_eq!(std::mem::size_of::<TraceRecord>(), 32);
    }
}
