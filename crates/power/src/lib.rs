//! # powermgmt — Dynamic Power Management (DPM) for E-RAPID links
//!
//! Implements §3.1 of the paper:
//!
//! * [`policy`] — the threshold regulator: scale the bit rate down when
//!   `Link_util < L_min`, up when `Link_util > L_max` **and** (in the P-B
//!   configuration) `Buffer_util > B_max`, hold otherwise; with the paper's
//!   presets (P-NB: `L_max = 0.7`, `B_max = 0`; P-B: `L_min = 0.7`,
//!   `L_max = 0.9`, `B_max = 0.3`).
//! * [`transition`] — the voltage/frequency transition model: voltage ramps
//!   before frequency on the way up and after it on the way down; the delay
//!   penalty is the CDR re-lock (12 cycles) but the paper "conservatively
//!   disables the link for 65 cycles" (the slow voltage-transition bound),
//!   which is the default here.
//! * [`dls`] — Dynamic Link Shutdown: a link idle for consecutive windows
//!   is turned off entirely (the DLS technique of Kim et al. the paper
//!   cites; in E-RAPID idle lasers are turned off by the DBR stage, and this
//!   module provides the standalone policy plus hysteresis).
//! * [`regulator`] — a per-LC regulator composing policy + transition into
//!   the action the link controller applies each power-awareness window.

//!
//! ## Example: the threshold regulator
//!
//! ```
//! use powermgmt::policy::DpmPolicy;
//! use powermgmt::regulator::{LinkRegulator, RegulatorAction};
//! use powermgmt::transition::TransitionModel;
//! use photonics::bitrate::{RateLadder, RateLevel};
//!
//! let mut reg = LinkRegulator::new(
//!     DpmPolicy::power_bandwidth(),
//!     RateLadder::paper(),
//!     TransitionModel::paper(),
//! );
//! // An idle window scales the link down one level, 65 dark cycles.
//! assert_eq!(
//!     reg.observe(0.1, 0.0),
//!     RegulatorAction::Retune { level: RateLevel(1), penalty: 65 }
//! );
//! ```

pub mod dls;
pub mod policy;
pub mod regulator;
pub mod transition;

pub use policy::{DpmPolicy, ScaleDecision};
pub use regulator::{LinkRegulator, RegulatorAction};
pub use transition::TransitionModel;
