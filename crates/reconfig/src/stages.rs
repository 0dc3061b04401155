//! Protocol stage timing.
//!
//! Each stage's duration follows from the ring/LC-chain geometry: the two
//! LC-chain stages are charged as fixed delays, the two ring stages are what
//! a fault-free token loop of the RC ring takes (one hop per board, see
//! [`crate::protocol::DbrRound`]). "The key
//! requirement of LS is to minimize the impact of reconfiguration latency on
//! the on-going communication" (§3) — decisions take effect only after the
//! full five-stage pipeline completes.

use desim::Cycle;

/// The five DBR stages plus the power stage, in protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// RC→LC…→RC collection of outgoing statistics.
    LinkRequest,
    /// RC→RC ring collection of incoming statistics.
    BoardRequest,
    /// Local computation at the RC.
    Reconfigure,
    /// RC→RC ring dissemination of grants.
    BoardResponse,
    /// RC→LC…→RC delivery of the laser on/off changes the grants imply.
    LinkResponse,
}

impl Stage {
    /// The five stages in order.
    pub fn all() -> [Stage; 5] {
        [
            Stage::LinkRequest,
            Stage::BoardRequest,
            Stage::Reconfigure,
            Stage::BoardResponse,
            Stage::LinkResponse,
        ]
    }
}

/// Latency model of the LS protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolTiming {
    /// Boards on the RC ring.
    pub boards: u16,
    /// LCs chained per board.
    pub lcs_per_board: u16,
    /// Cycles per RC→RC ring hop.
    pub ring_hop: Cycle,
    /// Cycles per LC→LC (and RC→LC) hop on a board.
    pub lc_hop: Cycle,
    /// Cycles for the RC's Reconfigure computation.
    pub compute: Cycle,
}

impl ProtocolTiming {
    /// Defaults for the paper's 64-node system: 8 boards, 8 LCs per board,
    /// 2-cycle ring hops, 1-cycle LC hops, 4-cycle compute.
    pub fn paper64() -> Self {
        Self {
            boards: 8,
            lcs_per_board: 8,
            ring_hop: 2,
            lc_hop: 1,
            compute: 4,
        }
    }

    /// Duration of one stage.
    pub fn stage_cycles(&self, stage: Stage) -> Cycle {
        match stage {
            // RC → LC_0 → … → LC_{D-1} → RC: D+1 hops.
            Stage::LinkRequest | Stage::LinkResponse => {
                (self.lcs_per_board as Cycle + 1) * self.lc_hop
            }
            // Full ring loop back to the origin.
            Stage::BoardRequest | Stage::BoardResponse => self.boards as Cycle * self.ring_hop,
            Stage::Reconfigure => self.compute,
        }
    }

    /// Latency of the whole five-stage bandwidth-reconfiguration cycle.
    pub fn dbr_latency(&self) -> Cycle {
        Stage::all().iter().map(|&s| self.stage_cycles(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper64_latencies() {
        let t = ProtocolTiming::paper64();
        // Link stages: (8+1)×1 = 9; Board stages: 8×2 = 16; compute 4.
        assert_eq!(t.stage_cycles(Stage::LinkRequest), 9);
        assert_eq!(t.stage_cycles(Stage::BoardRequest), 16);
        assert_eq!(t.stage_cycles(Stage::Reconfigure), 4);
        assert_eq!(t.dbr_latency(), 9 + 16 + 4 + 16 + 9);
    }

    #[test]
    fn dbr_latency_is_far_below_rw() {
        // The protocol must complete well within the paper's R_w = 2000
        // window, otherwise odd-even scheduling would overlap phases.
        let t = ProtocolTiming::paper64();
        assert!(t.dbr_latency() < 2000 / 10);
    }

    #[test]
    fn all_lists_the_five_stages_in_order() {
        let stages = Stage::all();
        assert_eq!(stages.len(), 5);
        assert_eq!(stages[0], Stage::LinkRequest);
        assert_eq!(stages[2], Stage::Reconfigure);
        assert_eq!(stages[4], Stage::LinkResponse);
    }

    #[test]
    fn latency_scales_with_ring_size() {
        let small = ProtocolTiming {
            boards: 4,
            ..ProtocolTiming::paper64()
        };
        let big = ProtocolTiming {
            boards: 16,
            ..ProtocolTiming::paper64()
        };
        assert!(big.dbr_latency() > small.dbr_latency());
    }
}
