//! The multi-port optical transmitter of Fig. 2(b).
//!
//! Each board hosts `W` transmitters; transmitter `x` contains an array of
//! lasers all emitting wavelength `λ_x`, one laser per *output port*, and
//! there is one output port per destination board. Reconfiguration is the
//! act of turning individual lasers on/off: "Each transmitter associated
//! with every wavelength ... has a on/off value. This binary value indicates
//! which lasers within a transmitter are either on (1) or off (0)" (§3.2).

use crate::wavelength::{BoardId, Wavelength};

/// One transmitter: a laser array for a single wavelength with one port per
/// destination board.
#[derive(Debug, Clone)]
struct Transmitter {
    /// `lasers[d]` — laser driving output port `d` (toward board `d`).
    lasers: Vec<bool>,
}

impl Transmitter {
    /// Creates a transmitter with `ports` output ports, all lasers off.
    fn new(ports: usize) -> Self {
        assert!(ports >= 2);
        Self {
            lasers: vec![false; ports],
        }
    }

    /// Number of output ports (= destination boards).
    fn ports(&self) -> usize {
        self.lasers.len()
    }

    /// Turns the laser toward board `d` on or off. Returns the prior state.
    fn set(&mut self, d: BoardId, on: bool) -> bool {
        std::mem::replace(&mut self.lasers[d.index()], on)
    }

    /// Number of lasers currently on.
    fn active_lasers(&self) -> usize {
        self.lasers.iter().filter(|&&on| on).count()
    }
}

/// The full transmitter bank of one board: `W` transmitters × `B` ports.
#[derive(Debug, Clone)]
pub struct TransmitterBank {
    board: BoardId,
    transmitters: Vec<Transmitter>,
}

impl TransmitterBank {
    /// Creates the bank for `board` in a `boards`-board system
    /// (`W = boards` transmitters, each with `boards` ports), all off.
    pub fn new(board: BoardId, boards: u16) -> Self {
        Self {
            board,
            transmitters: (0..boards)
                .map(|_| Transmitter::new(boards as usize))
                .collect(),
        }
    }

    /// The board this bank belongs to.
    pub fn board(&self) -> BoardId {
        self.board
    }

    /// Number of transmitters (`W`).
    pub fn len(&self) -> usize {
        self.transmitters.len()
    }

    /// Never true for a constructed bank.
    pub fn is_empty(&self) -> bool {
        self.transmitters.is_empty()
    }

    /// Whether the laser of transmitter `w` driving port `d` is on.
    pub fn is_on(&self, w: Wavelength, d: BoardId) -> bool {
        self.transmitters[w.index()].lasers[d.index()]
    }

    /// Applies the static RWA: for every remote destination `d`, turn on
    /// exactly the laser `(λ = rwa(s,d), port = d)`; everything else off.
    pub fn apply_static_rwa(&mut self, rwa: &crate::rwa::StaticRwa) {
        for t in &mut self.transmitters {
            for p in 0..t.ports() {
                t.set(BoardId(p as u16), false);
            }
        }
        for d in 0..rwa.boards() {
            let d = BoardId(d);
            if d == self.board {
                continue;
            }
            let w = rwa.wavelength(self.board, d);
            self.transmitters[w.index()].set(d, true);
        }
    }

    /// Total lasers on across the bank.
    pub fn active_lasers(&self) -> usize {
        self.transmitters.iter().map(|t| t.active_lasers()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwa::StaticRwa;

    #[test]
    fn lasers_toggle() {
        let mut t = Transmitter::new(4);
        assert_eq!(t.ports(), 4);
        assert!(!t.set(BoardId(1), true));
        assert!(t.lasers[1]);
        assert_eq!(t.active_lasers(), 1);
        assert!(t.set(BoardId(1), false));
        assert_eq!(t.active_lasers(), 0);
    }

    #[test]
    fn static_rwa_lights_one_laser_per_destination() {
        let rwa = StaticRwa::new(4);
        let mut bank = TransmitterBank::new(BoardId(0), 4);
        bank.apply_static_rwa(&rwa);
        // B-1 = 3 lasers on, one per remote board, each on its RWA
        // wavelength: s=0→d uses λ_{(0-d) mod 4}.
        assert_eq!(bank.active_lasers(), 3);
        for (d, w) in [(1, 3), (2, 2), (3, 1)] {
            assert!(bank.is_on(Wavelength(w), BoardId(d)), "d={d}");
        }
    }

    #[test]
    fn reapplying_static_rwa_resets_extra_lasers() {
        let rwa = StaticRwa::new(4);
        let mut bank = TransmitterBank::new(BoardId(1), 4);
        bank.apply_static_rwa(&rwa);
        // DBR-style extra laser: λ2 toward board 0.
        bank.transmitters[2].set(BoardId(0), true);
        assert_eq!(bank.active_lasers(), 4);
        bank.apply_static_rwa(&rwa);
        assert_eq!(bank.active_lasers(), 3);
    }

    #[test]
    fn bank_geometry() {
        let bank = TransmitterBank::new(BoardId(2), 8);
        assert_eq!(bank.len(), 8);
        assert!(!bank.is_empty());
        assert_eq!(bank.board(), BoardId(2));
        assert_eq!(bank.transmitters[5].ports(), 8);
    }
}
