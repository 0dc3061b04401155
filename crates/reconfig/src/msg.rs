//! The decision the LS protocol delivers.
//!
//! The Reconfigure stage decides [`WavelengthGrant`]s, Board Response
//! carries them around the RC ring and Link Response turns each into a
//! laser OFF at `from` and a laser ON at `to` (§3.2, Fig. 4). The simulated
//! tokens carry no payload (`protocol`), so the grant is the one message
//! type.

use photonics::wavelength::{BoardId, Wavelength};

/// A wavelength ownership change decided in the Reconfigure stage: at
/// destination `destination`, wavelength `wavelength` is taken from
/// `from` and granted to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavelengthGrant {
    /// The destination board whose incoming wavelength is re-assigned.
    pub destination: BoardId,
    /// The wavelength being re-assigned.
    pub wavelength: Wavelength,
    /// Previous owner (source board losing the laser).
    pub from: BoardId,
    /// New owner (source board gaining the laser).
    pub to: BoardId,
}

impl desim::snap::Snap for WavelengthGrant {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.u16(self.destination.0);
        w.u16(self.wavelength.0);
        w.u16(self.from.0);
        w.u16(self.to.0);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        Ok(Self {
            destination: BoardId(r.u16()?),
            wavelength: Wavelength(r.u16()?),
            from: BoardId(r.u16()?),
            to: BoardId(r.u16()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_fields() {
        let g = WavelengthGrant {
            destination: BoardId(2),
            wavelength: Wavelength(1),
            from: BoardId(3),
            to: BoardId(0),
        };
        assert_ne!(g.from, g.to);
        assert_eq!(g.destination, BoardId(2));
    }
}
