#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
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
//!
//! ## Example: the threshold regulator
//!
//! ```
//! use powermgmt::policy::{DpmPolicy, ScaleDecision};
//!
//! let policy = DpmPolicy::power_bandwidth();
//! // An idle window scales the link down one level ...
//! assert_eq!(policy.decide(0.1, 0.0), ScaleDecision::Down);
//! // ... and a saturated link scales up only once its buffer fills too.
//! assert_eq!(policy.decide(0.95, 0.1), ScaleDecision::Hold);
//! assert_eq!(policy.decide(0.95, 0.5), ScaleDecision::Up);
//! ```

pub mod dls;
pub mod policy;
pub mod transition;

pub use policy::{DpmPolicy, ScaleDecision};
pub use transition::TransitionModel;
