#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::perf)]
//! # photonics — the optical substrate of E-RAPID
//!
//! Models every optical component the paper's architecture (§2) relies on:
//!
//! * [`wavelength`] — wavelength identifiers and per-board wavelength sets,
//! * [`rwa`] — the static routing-and-wavelength-assignment formula of §2.1:
//!   `λ_{B-(d-s)}` if `d > s`, `λ_{s-d}` if `s > d`,
//! * [`bitrate`] — the three operating points (2.5 / 3.3 / 5 Gbps and their
//!   supply voltages 0.45 / 0.6 / 0.9 V), plus flit serialization times,
//! * [`power`] — analytic component power models (VCSEL, driver, TIA, CDR,
//!   photodetector) with the paper's constants, reproducing Table 1,
//! * [`transmitter`] — a transmitter as an array of same-wavelength lasers
//!   with one output port per destination board (Fig. 2b),
//! * [`fiber`] — propagation delay model,
//! * [`serdes`] — flit serialization cycle counts per bit rate,
//! * [`channel`] — an end-to-end optical channel (source board, destination
//!   board, wavelength) assembled from the above, including the CDR
//!   re-lock dark time on bit-rate changes.

//!
//! ## Example: the static wavelength assignment and link power
//!
//! ```
//! use photonics::rwa::StaticRwa;
//! use photonics::wavelength::BoardId;
//! use photonics::power::LinkPowerModel;
//! use photonics::bitrate::RateLevel;
//!
//! // §2.1's example: in a 4-board system, board 1 → board 0 uses λ1.
//! let rwa = StaticRwa::new(4);
//! assert_eq!(rwa.wavelength(BoardId(1), BoardId(0)).0, 1);
//!
//! // Table 1's operating points: 43.03 mW at 5 Gbps, 8.6 mW at 2.5 Gbps.
//! let power = LinkPowerModel::paper_table();
//! assert_eq!(power.active_mw(RateLevel(2)), 43.03);
//! assert!(power.energy_per_bit_pj(RateLevel(0)) < power.energy_per_bit_pj(RateLevel(2)));
//! ```

pub mod bitrate;
pub mod channel;
pub mod fiber;
pub mod power;
pub mod rwa;
pub mod serdes;
pub mod transmitter;
pub mod wavelength;

pub use bitrate::{BitRate, RateLevel};
pub use power::{LinkPowerModel, PowerBreakdown};
pub use rwa::StaticRwa;
pub use wavelength::{BoardId, Wavelength};
