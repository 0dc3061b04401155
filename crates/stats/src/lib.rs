#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # netstats — measurement substrate for the E-RAPID reproduction
//!
//! Everything the evaluation section of the paper measures flows through this
//! crate: link/buffer utilization over reconfiguration windows, packet
//! latency distributions, throughput in packets/node/cycle, and average link
//! power in milliwatts.
//!
//! Modules:
//! * [`histogram`] — fixed-bin latency histograms with percentile queries.
//! * [`occupancy`] — event-driven flit-cycle integrals, bit-compatible with
//!   eager per-cycle sampling (the hot-path form; DESIGN.md §10).
//!   These are the "hardware counters located at each LC" from §3 of the
//!   paper, measuring `Link_util` and `Buffer_util` over each
//!   reconfiguration window `R_w`; their eager per-cycle form, `windowed`,
//!   is compiled for tests only, as the oracle of that bit-compatibility.
//! * [`meter`] — composite throughput/latency/power meters, accumulated
//!   as integers (an exact mean, lit-laser cycles per power class).
//! * [`table`] — plain-text table rendering for the bench binaries.
//! * [`chart`] — ASCII line charts for the figure binaries.
//! * [`csv`] — tiny CSV writer (no external dependency).

pub mod chart;
pub mod csv;
pub mod histogram;
pub mod meter;
pub mod occupancy;
pub mod table;
#[cfg(test)]
mod windowed;

pub use histogram::Histogram;
pub use meter::{IntMean, LatencyMeter, PowerMeter, ThroughputMeter};
pub use occupancy::OccupancyIntegral;
