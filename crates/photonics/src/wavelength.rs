//! Wavelength and board identifiers.
//!
//! Wavelengths in E-RAPID are indexed `λ_0 .. λ_{W-1}` where `W = B` (the
//! board count): "if Λ = λ_0, λ_1, ... λ_{W-1} is the total number of
//! wavelengths associated with the system, this is exactly the number of
//! wavelengths transmitted/received from each system board" (§3.2).

use std::fmt;

/// A wavelength index `λ_i` within the system's WDM set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Wavelength(pub u16);

impl Wavelength {
    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Wavelength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}", self.0)
    }
}

/// A system board identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoardId(pub u16);

impl BoardId {
    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BoardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Wavelength(3).to_string(), "λ3");
        assert_eq!(BoardId(7).to_string(), "B7");
        assert_eq!(Wavelength(3).index(), 3);
        assert_eq!(BoardId(7).index(), 7);
    }
}
