//! Deterministic fault-event scheduling.
//!
//! A [`FaultPlan`] is an ordered list of timestamped [`FaultEvent`]s the
//! [`crate::system::System`] consumes at the start of each cycle. The plan
//! travels inside [`crate::config::SystemConfig`], so a faulted run is just
//! another experiment point: the same plan plus the same seed reproduces
//! the same run byte-for-byte, under the sequential and the parallel
//! runner alike.
//!
//! The taxonomy covers the failure surfaces of the architecture:
//! * optical datapath — receiver/demux death and repair, transmitter
//!   (laser/modulator) death and repair, an extended CDR relock on a live
//!   channel,
//! * power management — an LC stuck at its current power level (DPM
//!   retunes silently dropped until repair),
//! * control plane — loss or corruption of a board's LS token on the RC
//!   ring (recovered by the retry/backoff in [`reconfig::protocol`]).

use crate::error::ErapidError;
use desim::rng::Pcg32;
use desim::Cycle;

/// What breaks (or heals).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The receiver/demux for wavelength `wavelength` at board `board`
    /// dies: the owning laser darkens once idle and the wavelength leaves
    /// the ownership map.
    ReceiverDown { board: u16, wavelength: u16 },
    /// The receiver recovers: the static owner re-lights the wavelength
    /// (after a lock-in window) and DBR may grant it again.
    ReceiverRepair { board: u16, wavelength: u16 },
    /// Board `board`'s transmitters toward `dest` die: owned lasers darken
    /// once idle; ownership is retained so repair restores service.
    TransmitterDown { board: u16, dest: u16 },
    /// The transmitters recover; surviving owned wavelengths re-light.
    TransmitterRepair { board: u16, dest: u16 },
    /// The LC of channel `(board → dest, wavelength)` wedges at its
    /// current power level: DPM retunes are dropped until repair.
    LcStuck {
        board: u16,
        dest: u16,
        wavelength: u16,
    },
    /// The stuck LC recovers.
    LcRepair {
        board: u16,
        dest: u16,
        wavelength: u16,
    },
    /// The receiver CDR of channel `(board → dest, wavelength)` loses
    /// lock: the channel goes dark for `penalty` cycles before relocking.
    CdrRelock {
        board: u16,
        dest: u16,
        wavelength: u16,
        penalty: Cycle,
    },
    /// Board `victim`'s LS control token vanishes from the RC ring; the
    /// round's watchdog must detect the loss and relaunch.
    TokenLoss { victim: u16 },
    /// Board `victim`'s LS control token is corrupted in flight; the
    /// origin detects the bad checksum on return and resends.
    TokenCorrupt { victim: u16 },
}

/// One timestamped fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle the fault strikes (applied at the start of that cycle).
    pub at: Cycle,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic schedule of fault events, kept sorted by time (stable:
/// events at the same cycle apply in insertion order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults — the default for every config preset).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one event, keeping the plan time-sorted.
    pub fn push(&mut self, at: Cycle, kind: FaultKind) {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at);
    }

    /// Builder form of [`FaultPlan::push`].
    pub fn at(mut self, at: Cycle, kind: FaultKind) -> Self {
        self.push(at, kind);
        self
    }

    /// Convenience: a receiver outage window — down at `down_at`, repaired
    /// at `up_at`.
    pub fn receiver_outage(
        self,
        board: u16,
        wavelength: u16,
        down_at: Cycle,
        up_at: Cycle,
    ) -> Self {
        self.at(down_at, FaultKind::ReceiverDown { board, wavelength })
            .at(up_at, FaultKind::ReceiverRepair { board, wavelength })
    }

    /// Seed-reproducible CDR relock storm: `count` relock events on random
    /// live channels, at random cycles in `[start, end)`. The storm is a
    /// pure function of `(seed, boards, start, end, count, penalty)` — the
    /// same arguments always produce the same plan.
    pub fn relock_storm(
        seed: u64,
        boards: u16,
        start: Cycle,
        end: Cycle,
        count: usize,
        penalty: Cycle,
    ) -> Self {
        assert!(boards >= 2 && end > start);
        let mut rng = Pcg32::stream(seed, 0x5707_1243);
        let mut plan = Self::new();
        let span = (end - start).min(u32::MAX as Cycle) as u32;
        for _ in 0..count {
            let at = start + rng.below(span) as Cycle;
            // A random remote (board, dest) pair and its *static* wavelength
            // — the channel most likely to be lit whenever the event fires.
            let board = rng.below(boards as u32) as u16;
            let mut dest = rng.below(boards as u32 - 1) as u16;
            if dest >= board {
                dest += 1;
            }
            let wavelength = (board as i32 - dest as i32).rem_euclid(boards as i32) as u16;
            plan.push(
                at,
                FaultKind::CdrRelock {
                    board,
                    dest,
                    wavelength,
                    penalty,
                },
            );
        }
        plan
    }

    /// The sorted events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the plan holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event targets hardware that exists in a system of
    /// `boards` boards (W = B wavelengths).
    pub fn validate(&self, boards: u16) -> Result<(), ErapidError> {
        let err = |at: Cycle, reason: String| Err(ErapidError::FaultTarget { at, reason });
        for e in &self.events {
            match e.kind {
                FaultKind::ReceiverDown { board, wavelength }
                | FaultKind::ReceiverRepair { board, wavelength } => {
                    if board >= boards {
                        return err(e.at, format!("board {board} out of range (B={boards})"));
                    }
                    if wavelength == 0 || wavelength >= boards {
                        return err(e.at, format!("wavelength {wavelength} has no remote owner"));
                    }
                }
                FaultKind::TransmitterDown { board, dest }
                | FaultKind::TransmitterRepair { board, dest } => {
                    if board >= boards || dest >= boards {
                        return err(e.at, format!("pair ({board},{dest}) out of range"));
                    }
                    if board == dest {
                        return err(e.at, "transmitter target must be remote".into());
                    }
                }
                FaultKind::LcStuck {
                    board,
                    dest,
                    wavelength,
                }
                | FaultKind::LcRepair {
                    board,
                    dest,
                    wavelength,
                }
                | FaultKind::CdrRelock {
                    board,
                    dest,
                    wavelength,
                    ..
                } => {
                    if board >= boards || dest >= boards || wavelength >= boards {
                        return err(
                            e.at,
                            format!("channel ({board},{dest},λ{wavelength}) out of range"),
                        );
                    }
                    if board == dest {
                        return err(e.at, "channel target must be remote".into());
                    }
                }
                FaultKind::TokenLoss { victim } | FaultKind::TokenCorrupt { victim } => {
                    if victim >= boards {
                        return err(e.at, format!("victim board {victim} out of range"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_stays_sorted_and_stable() {
        let plan = FaultPlan::new()
            .at(50, FaultKind::TokenLoss { victim: 1 })
            .at(
                10,
                FaultKind::ReceiverDown {
                    board: 0,
                    wavelength: 1,
                },
            )
            .at(50, FaultKind::TokenCorrupt { victim: 2 });
        let times: Vec<Cycle> = plan.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![10, 50, 50]);
        // Stable at equal times: the loss was inserted before the corrupt.
        assert!(matches!(plan.events()[1].kind, FaultKind::TokenLoss { .. }));
        assert!(matches!(
            plan.events()[2].kind,
            FaultKind::TokenCorrupt { .. }
        ));
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
    }

    #[test]
    fn outage_builders_pair_down_and_up() {
        let plan = FaultPlan::new().receiver_outage(3, 1, 100, 200);
        assert_eq!(plan.len(), 2);
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn relock_storm_is_seed_reproducible() {
        let a = FaultPlan::relock_storm(42, 8, 1000, 5000, 16, 65);
        let b = FaultPlan::relock_storm(42, 8, 1000, 5000, 16, 65);
        assert_eq!(a, b, "same seed must give the same storm");
        let c = FaultPlan::relock_storm(43, 8, 1000, 5000, 16, 65);
        assert_ne!(a, c, "different seeds must differ");
        assert_eq!(a.len(), 16);
        assert!(a.validate(8).is_ok());
        assert!(a.events().iter().all(|e| (1000..5000).contains(&e.at)
            && matches!(e.kind, FaultKind::CdrRelock { penalty: 65, .. })));
    }

    #[test]
    fn validate_rejects_bad_targets() {
        let bad_board = FaultPlan::new().at(
            0,
            FaultKind::ReceiverDown {
                board: 9,
                wavelength: 1,
            },
        );
        assert!(bad_board.validate(4).is_err());
        let lambda0 = FaultPlan::new().at(
            0,
            FaultKind::ReceiverDown {
                board: 1,
                wavelength: 0,
            },
        );
        assert!(lambda0.validate(4).is_err());
        let self_tx = FaultPlan::new().at(0, FaultKind::TransmitterDown { board: 2, dest: 2 });
        assert!(self_tx.validate(4).is_err());
        let bad_victim = FaultPlan::new().at(0, FaultKind::TokenLoss { victim: 4 });
        assert!(bad_victim.validate(4).is_err());
        let ok = FaultPlan::new()
            .at(
                5,
                FaultKind::LcStuck {
                    board: 1,
                    dest: 0,
                    wavelength: 1,
                },
            )
            .at(9, FaultKind::TokenCorrupt { victim: 3 });
        assert!(ok.validate(4).is_ok());
    }
}
