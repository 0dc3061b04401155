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
    /// An R_w window boundary. `index` counts boundaries from 1.
    WindowBoundary { index: u64, kind: WindowLabel },
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
    /// A link-shutdown decision changed a link's supply state. Reserved:
    /// nothing emits it (the paper's power management is DPM only), but the
    /// tag keeps its number so the event codec and exporters stay stable.
    DlsPower {
        src: u16,
        dest: u16,
        wavelength: u16,
        off: bool,
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
            TraceEvent::DlsPower { .. } => "dls_power",
        }
    }
}

/// A recorded event: the emission cycle plus the event payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    pub at: Cycle,
    pub event: TraceEvent,
}

use desim::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for LsStageLabel {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            LsStageLabel::LinkRequest => 0,
            LsStageLabel::BoardRequest => 1,
            LsStageLabel::Reconfigure => 2,
            LsStageLabel::BoardResponse => 3,
            LsStageLabel::LinkResponse => 4,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => LsStageLabel::LinkRequest,
            1 => LsStageLabel::BoardRequest,
            2 => LsStageLabel::Reconfigure,
            3 => LsStageLabel::BoardResponse,
            4 => LsStageLabel::LinkResponse,
            b => return Err(SnapError::Format(format!("bad LS stage tag {b:#x}"))),
        })
    }
}

impl Snap for WindowLabel {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            WindowLabel::Power => 0,
            WindowLabel::Bandwidth => 1,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => WindowLabel::Power,
            1 => WindowLabel::Bandwidth,
            b => return Err(SnapError::Format(format!("bad window label {b:#x}"))),
        })
    }
}

impl Snap for FaultLabel {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            FaultLabel::ReceiverDrop => 0,
            FaultLabel::ReceiverRepair => 1,
            FaultLabel::TransmitterDrop => 2,
            FaultLabel::TransmitterRepair => 3,
            FaultLabel::LcStuck => 4,
            FaultLabel::LcUnstuck => 5,
            FaultLabel::CdrRelock => 6,
            FaultLabel::TokenLoss => 7,
            FaultLabel::TokenCorrupt => 8,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => FaultLabel::ReceiverDrop,
            1 => FaultLabel::ReceiverRepair,
            2 => FaultLabel::TransmitterDrop,
            3 => FaultLabel::TransmitterRepair,
            4 => FaultLabel::LcStuck,
            5 => FaultLabel::LcUnstuck,
            6 => FaultLabel::CdrRelock,
            7 => FaultLabel::TokenLoss,
            8 => FaultLabel::TokenCorrupt,
            b => return Err(SnapError::Format(format!("bad fault label {b:#x}"))),
        })
    }
}

impl Snap for TraceEvent {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            TraceEvent::WindowBoundary { index, kind } => {
                w.u8(0);
                w.u64(index);
                kind.save(w);
            }
            TraceEvent::DpmRetune {
                src,
                dest,
                wavelength,
                from_level,
                to_level,
                penalty,
            } => {
                w.u8(1);
                w.u16(src);
                w.u16(dest);
                w.u16(wavelength);
                w.u8(from_level);
                w.u8(to_level);
                w.u64(penalty);
            }
            TraceEvent::DpmApplied {
                src,
                dest,
                wavelength,
                level,
            } => {
                w.u8(2);
                w.u16(src);
                w.u16(dest);
                w.u16(wavelength);
                w.u8(level);
            }
            TraceEvent::RelockStart {
                src,
                dest,
                wavelength,
                penalty,
            } => {
                w.u8(3);
                w.u16(src);
                w.u16(dest);
                w.u16(wavelength);
                w.u64(penalty);
            }
            TraceEvent::RelockEnd {
                src,
                dest,
                wavelength,
            } => {
                w.u8(4);
                w.u16(src);
                w.u16(dest);
                w.u16(wavelength);
            }
            TraceEvent::LsStage { round, stage, end } => {
                w.u8(5);
                w.u64(round);
                stage.save(w);
                w.u64(end);
            }
            TraceEvent::DbrOutcome {
                round,
                grants,
                retries,
                aborted,
            } => {
                w.u8(6);
                w.u64(round);
                w.u32(grants);
                w.u32(retries);
                w.bool(aborted);
            }
            TraceEvent::Grant {
                dest,
                wavelength,
                from,
                to,
            } => {
                w.u8(7);
                w.u16(dest);
                w.u16(wavelength);
                w.u16(from);
                w.u16(to);
            }
            TraceEvent::Revoke {
                dest,
                wavelength,
                owner,
            } => {
                w.u8(8);
                w.u16(dest);
                w.u16(wavelength);
                w.u16(owner);
            }
            TraceEvent::Fault {
                label,
                board,
                dest,
                wavelength,
            } => {
                w.u8(9);
                label.save(w);
                w.u16(board);
                w.u16(dest);
                w.u16(wavelength);
            }
            TraceEvent::BufferThreshold {
                board,
                dest,
                above,
                util_milli,
            } => {
                w.u8(10);
                w.u16(board);
                w.u16(dest);
                w.bool(above);
                w.u32(util_milli);
            }
            TraceEvent::DlsPower {
                src,
                dest,
                wavelength,
                off,
            } => {
                w.u8(11);
                w.u16(src);
                w.u16(dest);
                w.u16(wavelength);
                w.bool(off);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => TraceEvent::WindowBoundary {
                index: r.u64()?,
                kind: WindowLabel::load(r)?,
            },
            1 => TraceEvent::DpmRetune {
                src: r.u16()?,
                dest: r.u16()?,
                wavelength: r.u16()?,
                from_level: r.u8()?,
                to_level: r.u8()?,
                penalty: r.u64()?,
            },
            2 => TraceEvent::DpmApplied {
                src: r.u16()?,
                dest: r.u16()?,
                wavelength: r.u16()?,
                level: r.u8()?,
            },
            3 => TraceEvent::RelockStart {
                src: r.u16()?,
                dest: r.u16()?,
                wavelength: r.u16()?,
                penalty: r.u64()?,
            },
            4 => TraceEvent::RelockEnd {
                src: r.u16()?,
                dest: r.u16()?,
                wavelength: r.u16()?,
            },
            5 => TraceEvent::LsStage {
                round: r.u64()?,
                stage: LsStageLabel::load(r)?,
                end: r.u64()?,
            },
            6 => TraceEvent::DbrOutcome {
                round: r.u64()?,
                grants: r.u32()?,
                retries: r.u32()?,
                aborted: r.bool()?,
            },
            7 => TraceEvent::Grant {
                dest: r.u16()?,
                wavelength: r.u16()?,
                from: r.u16()?,
                to: r.u16()?,
            },
            8 => TraceEvent::Revoke {
                dest: r.u16()?,
                wavelength: r.u16()?,
                owner: r.u16()?,
            },
            9 => TraceEvent::Fault {
                label: FaultLabel::load(r)?,
                board: r.u16()?,
                dest: r.u16()?,
                wavelength: r.u16()?,
            },
            10 => TraceEvent::BufferThreshold {
                board: r.u16()?,
                dest: r.u16()?,
                above: r.bool()?,
                util_milli: r.u32()?,
            },
            11 => TraceEvent::DlsPower {
                src: r.u16()?,
                dest: r.u16()?,
                wavelength: r.u16()?,
                off: r.bool()?,
            },
            b => return Err(SnapError::Format(format!("bad event tag {b:#x}"))),
        })
    }
}

impl Snap for TraceRecord {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.at);
        self.event.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            at: r.u64()?,
            event: TraceEvent::load(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_labels_round_trip() {
        for stage in [
            LsStageLabel::LinkRequest,
            LsStageLabel::BoardRequest,
            LsStageLabel::Reconfigure,
            LsStageLabel::BoardResponse,
            LsStageLabel::LinkResponse,
        ] {
            let mut w = SnapWriter::new();
            stage.save(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(LsStageLabel::load(&mut SnapReader::new(&bytes)), Ok(stage));
        }
        assert!(LsStageLabel::load(&mut SnapReader::new(&[5])).is_err());
    }

    #[test]
    fn repair_labels_are_classified() {
        assert!(FaultLabel::ReceiverRepair.is_repair());
        assert!(!FaultLabel::TokenLoss.is_repair());
    }

    #[test]
    fn records_are_plain_data() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<TraceRecord>();
    }
}
