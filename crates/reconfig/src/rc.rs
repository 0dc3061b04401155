//! Board Reconfiguration Controllers (RCs).
//!
//! Each board's RC owns an *outgoing* link statistic table (filled by the
//! Link Request stage from its own LCs) and an *incoming* link statistic
//! table (filled by the Board Request stage from the other RCs). Fig. 4.
//! The destination's RC decides the Reconfigure stage with its
//! [`AllocPolicy`] over the incoming table, and every RC turns Board
//! Response grants into Link Response laser commands.

use crate::alloc::{AllocPolicy, IncomingLink};
use crate::msg::{LaserCommand, LinkReading, WavelengthGrant};
use photonics::wavelength::{BoardId, Wavelength};

/// One board's reconfiguration controller.
#[derive(Debug, Clone)]
pub struct ReconfigController {
    board: BoardId,
    policy: AllocPolicy,
    /// Outgoing table: the latest reading of every lit channel this board
    /// drives, one entry per `(destination, wavelength)`. Wavelength alone
    /// is not a key: once DBR has moved ownership, a board may drive
    /// several wavelengths toward one destination and the same wavelength
    /// toward several.
    outgoing: Vec<LinkReading>,
    /// Incoming table indexed by wavelength: latest owner + buffer stats.
    incoming: Vec<Option<IncomingLink>>,
}

impl ReconfigController {
    /// Creates the RC of `board` in a `boards`-board system.
    pub fn new(board: BoardId, boards: u16, policy: AllocPolicy) -> Self {
        assert!(board.0 < boards);
        Self {
            board,
            policy,
            outgoing: Vec::new(),
            incoming: vec![None; boards as usize],
        }
    }

    /// The board this RC controls.
    pub fn board(&self) -> BoardId {
        self.board
    }

    /// The allocation policy.
    pub fn policy(&self) -> &AllocPolicy {
        &self.policy
    }

    /// Link Request stage completion: stores the readings the circulating
    /// packet collected from this board's LCs. Dark transmitters (no
    /// destination) drive no channel and are not tabled.
    pub fn update_outgoing(&mut self, readings: &[LinkReading]) {
        for r in readings {
            let Some(d) = r.destination else { continue };
            match self.slot(d, r.wavelength) {
                Some(i) => self.outgoing[i] = *r,
                None => self.outgoing.push(*r),
            }
        }
    }

    fn slot(&self, d: BoardId, w: Wavelength) -> Option<usize> {
        self.outgoing
            .iter()
            .position(|r| r.destination == Some(d) && r.wavelength == w)
    }

    /// The stored reading of the channel this board drives toward `d` on
    /// wavelength `w`.
    pub fn outgoing(&self, d: BoardId, w: Wavelength) -> Option<&LinkReading> {
        self.slot(d, w).map(|i| &self.outgoing[i])
    }

    /// Board Request stage, responder side: when `requester`'s
    /// `Board_Request` passes through this RC, report the reading of
    /// *every* channel this board drives toward the requester.
    pub fn reports_toward(
        &self,
        requester: BoardId,
    ) -> impl Iterator<Item = (BoardId, LinkReading)> + '_ {
        self.outgoing
            .iter()
            .filter(move |r| r.destination == Some(requester))
            .map(|r| (self.board, *r))
    }

    /// Board Request stage, requester side: ingests the reports collected
    /// by our returned `Board_Request` into the incoming table.
    pub fn update_incoming(&mut self, reports: &[(BoardId, LinkReading)]) {
        for (owner, r) in reports {
            self.incoming[r.wavelength.index()] = Some(IncomingLink {
                wavelength: r.wavelength,
                owner: *owner,
                buffer_util: r.buffer_util,
            });
        }
    }

    /// The stored incoming entry for a wavelength.
    pub fn incoming(&self, w: Wavelength) -> Option<&IncomingLink> {
        self.incoming[w.index()].as_ref()
    }

    /// Board Response stage, receiver side: converts the grants that concern
    /// *this* board into laser commands for the Link Response stage, and
    /// drops the channels it gives up from the outgoing table (a channel it
    /// gains has no reading until the next Link Request collects one).
    pub fn commands_from_grants(&mut self, grants: &[WavelengthGrant]) -> Vec<LaserCommand> {
        let mut cmds = Vec::new();
        for g in grants {
            if g.from == self.board {
                cmds.push(LaserCommand {
                    wavelength: g.wavelength,
                    destination: g.destination,
                    on: false,
                });
                if let Some(i) = self.slot(g.destination, g.wavelength) {
                    self.outgoing.swap_remove(i);
                }
            }
            if g.to == self.board {
                cmds.push(LaserCommand {
                    wavelength: g.wavelength,
                    destination: g.destination,
                    on: true,
                });
            }
        }
        cmds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::FlowDemand;
    use photonics::bitrate::RateLevel;

    fn reading(w: u16, dest: Option<u16>, link: f64, buf: f64) -> LinkReading {
        LinkReading {
            wavelength: Wavelength(w),
            destination: dest.map(BoardId),
            link_util: link,
            buffer_util: buf,
            level: RateLevel(2),
        }
    }

    #[test]
    fn outgoing_table_updates() {
        let mut rc = ReconfigController::new(BoardId(0), 4, AllocPolicy::paper());
        rc.update_outgoing(&[
            reading(1, Some(3), 0.5, 0.1),
            reading(2, Some(2), 0.0, 0.0),
            reading(3, None, 0.0, 0.0),
        ]);
        let stored = rc.outgoing(BoardId(3), Wavelength(1)).unwrap();
        assert_eq!(stored.link_util, 0.5);
        assert!(rc.outgoing(BoardId(3), Wavelength(2)).is_none());
        assert!(rc.outgoing(BoardId(2), Wavelength(3)).is_none(), "dark");
        // A newer reading of the same channel replaces the old one.
        rc.update_outgoing(&[reading(1, Some(3), 0.9, 0.4)]);
        let stored = rc.outgoing(BoardId(3), Wavelength(1)).unwrap();
        assert_eq!(stored.link_util, 0.9);
        assert_eq!(rc.reports_toward(BoardId(3)).count(), 1);
        assert_eq!(rc.board(), BoardId(0));
    }

    #[test]
    fn report_toward_finds_the_right_channel() {
        let mut rc = ReconfigController::new(BoardId(1), 4, AllocPolicy::paper());
        rc.update_outgoing(&[reading(1, Some(0), 0.9, 0.6), reading(3, Some(2), 0.1, 0.0)]);
        let reports: Vec<_> = rc.reports_toward(BoardId(0)).collect();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].0, BoardId(1));
        assert_eq!(reports[0].1.wavelength, Wavelength(1));
        assert_eq!(rc.reports_toward(BoardId(3)).count(), 0);
    }

    #[test]
    fn every_channel_toward_the_requester_is_reported() {
        // After earlier DBR rounds board 1 drives λ1 and λ2 toward board 0
        // and λ1 also toward board 2: wavelength alone is not a key.
        let mut rc = ReconfigController::new(BoardId(1), 4, AllocPolicy::paper());
        rc.update_outgoing(&[
            reading(1, Some(0), 0.9, 0.6),
            reading(2, Some(0), 0.2, 0.6),
            reading(1, Some(2), 0.0, 0.0),
        ]);
        let toward_0: Vec<u16> = rc
            .reports_toward(BoardId(0))
            .map(|(_, r)| r.wavelength.0)
            .collect();
        assert_eq!(toward_0, vec![1, 2]);
        assert_eq!(rc.reports_toward(BoardId(2)).count(), 1);
    }

    #[test]
    fn full_dbr_round_trip() {
        // Destination board 0 in a 4-board system. Static owners of its
        // incoming wavelengths: λ1→board1, λ2→board2, λ3→board3.
        let mut rc0 = ReconfigController::new(BoardId(0), 4, AllocPolicy::paper());
        rc0.update_incoming(&[
            (BoardId(1), reading(1, Some(0), 1.0, 0.8)), // hot flow
            (BoardId(2), reading(2, Some(0), 0.0, 0.0)), // idle
            (BoardId(3), reading(3, Some(0), 0.0, 0.0)), // idle
        ]);
        let channels: Vec<IncomingLink> = (1..4)
            .filter_map(|w| rc0.incoming(Wavelength(w)).copied())
            .collect();
        let demands: Vec<FlowDemand> = channels
            .iter()
            .map(|c| FlowDemand {
                source: c.owner,
                buffer_util: c.buffer_util,
            })
            .collect();
        let grants = rc0
            .policy()
            .reconfigure_with_demands(BoardId(0), &channels, &demands);
        assert_eq!(grants.len(), 2);
        assert!(grants.iter().all(|g| g.to == BoardId(1)));

        // Board 2 (loser of λ2) turns its laser off; board 1 turns two on.
        let mut rc2 = ReconfigController::new(BoardId(2), 4, AllocPolicy::paper());
        rc2.update_outgoing(&[reading(2, Some(0), 0.0, 0.0)]);
        let cmds2 = rc2.commands_from_grants(&grants);
        assert_eq!(cmds2.len(), 1);
        assert!(!cmds2[0].on);
        assert_eq!(cmds2[0].wavelength, Wavelength(2));
        assert!(rc2.outgoing(BoardId(0), Wavelength(2)).is_none());

        let mut rc1 = ReconfigController::new(BoardId(1), 4, AllocPolicy::paper());
        rc1.update_outgoing(&[reading(1, Some(0), 1.0, 0.8)]);
        let cmds1 = rc1.commands_from_grants(&grants);
        assert_eq!(cmds1.len(), 2);
        assert!(cmds1.iter().all(|c| c.on && c.destination == BoardId(0)));
        assert!(rc1.outgoing(BoardId(0), Wavelength(1)).is_some());
    }

    #[test]
    fn grants_not_involving_this_board_are_ignored() {
        let mut rc = ReconfigController::new(BoardId(3), 8, AllocPolicy::paper());
        let g = WavelengthGrant {
            destination: BoardId(0),
            wavelength: Wavelength(1),
            from: BoardId(1),
            to: BoardId(2),
        };
        assert!(rc.commands_from_grants(&[g]).is_empty());
    }
}
