#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # reconfig — the Lock-Step (LS) reconfiguration protocol of E-RAPID
//!
//! §3 of the paper. LS is "a history-based distributed reconfiguration
//! algorithm that triggers reconfiguration phases, disseminates state
//! information, re-allocates system bandwidth, regulates power consumption
//! and re-synchronizes the system periodically with minimal control
//! overhead."
//!
//! * [`msg`] — the [`WavelengthGrant`](msg::WavelengthGrant) a
//!   Reconfigure decision hands to the SRS,
//! * [`lc`] — Link Controllers: the `B_max` threshold comparator
//!   ([`ThresholdWatch`]),
//! * [`alloc`] — the Reconfigure stage: classify incoming links as under- /
//!   normal- / over-utilized by `B_min`/`B_max` and re-assign wavelengths,
//! * [`stages`] — protocol stage timing (how many cycles each of the five
//!   stages costs on the LC chains and the RC ring),
//! * [`protocol`] — one DBR round clocked through the five stages: one
//!   [`AllocPolicy`] call per destination at Reconfigure, ring tokens that
//!   carry no payload, and the token-loss watchdog,
//! * [`lockstep`] — the odd–even window scheduler (odd windows run the
//!   power cycle, even windows the bandwidth cycle).

//!
//! ## Example: one Reconfigure-stage decision
//!
//! ```
//! use reconfig::alloc::{AllocPolicy, FlowDemand, IncomingLink};
//! use photonics::wavelength::{BoardId, Wavelength};
//!
//! // At destination board 0: board 1's flow is congested, board 2's
//! // wavelength is idle — LS re-assigns it.
//! let policy = AllocPolicy::paper();
//! let channels = [
//!     IncomingLink { wavelength: Wavelength(1), owner: BoardId(1), buffer_util: 0.8 },
//!     IncomingLink { wavelength: Wavelength(2), owner: BoardId(2), buffer_util: 0.0 },
//! ];
//! let demands = [
//!     FlowDemand { source: BoardId(1), buffer_util: 0.8 },
//!     FlowDemand { source: BoardId(2), buffer_util: 0.0 },
//! ];
//! let grants = policy.reconfigure_with_demands(BoardId(0), &channels, &demands);
//! assert_eq!(grants.len(), 1);
//! assert_eq!(grants[0].from, BoardId(2));
//! assert_eq!(grants[0].to, BoardId(1));
//! ```

pub mod alloc;
pub mod lc;
pub mod lockstep;
pub mod msg;
pub mod protocol;
pub mod stages;

pub use alloc::{AllocPolicy, Classification, FlowDemand};
pub use lc::ThresholdWatch;
pub use lockstep::{LockStepSchedule, WindowKind};
pub use protocol::{ProtocolError, RetryPolicy, RoundOutcome, TokenFault};
