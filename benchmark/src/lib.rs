//! Seeded, repeat-aware, layer-attributed benchmark for the E-RAPID
//! simulator. See `README.md` for the metric tables and the rules; the
//! binary in `main.rs` is the command-line front end.
//!
//! * [`adapter`] — the only module that calls into the workspace crates:
//!   input generation, the five workloads' timed regions, cross-checks,
//!   layer kernels,
//! * [`run`] — one workload, one pass (untraced or traced),
//! * [`catalog`] — every workload and metric the benchmark declares,
//! * [`claims`] — the nine paper claims, evaluated on the sweep's points,
//! * [`results`] / [`compare`] — rendering, result files, the A/B reader,
//! * [`stats`] / [`spans`] / [`json`] — quartiles, span recorder, JSON.

pub mod adapter;
pub mod catalog;
pub mod claims;
pub mod compare;
pub mod json;
pub mod results;
pub mod run;
pub mod spans;
pub mod stats;
