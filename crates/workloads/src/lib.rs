#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # erapid-workloads — production-shaped workloads for E-RAPID
//!
//! The paper evaluates E-RAPID only on synthetic uniform / permutation
//! traffic. This crate supplies the workload shapes a production
//! deployment would actually face, as deterministic, seed-reproducible
//! scenario generators, plus an ingestion layer that converts external
//! dumpi/OTF2-style event logs into the repo's validated `.ertr` trace
//! format (DESIGN.md §14).
//!
//! * [`spec`] — [`spec::ScenarioSpec`]: the four scenario shapes (Zipf
//!   hotspot, diurnal load curve, incast/outcast storm, phased all-to-all
//!   collective) and their parameters, carried in
//!   `erapid_core::config::SystemConfig`,
//! * [`engine`] — [`engine::ScenarioEngine`]: the per-cycle emission
//!   engine (`poll_into`, the call a `System`'s scenario source makes
//!   every cycle), with checkpointable RNG state,
//! * [`ingest`] — external event-log → `.ertr` conversion with typed
//!   per-line errors (non-monotone timestamps, out-of-range nodes).
//!
//! ## Determinism contract
//!
//! A scenario stream is a pure function of `(spec, nodes, rate, seed)`:
//! per-node PCG32 streams (the [`desim::rng::Pcg32::stream`] splitter the
//! Bernoulli generators already use) are consumed in ascending-node order
//! once per cycle, and every cycle-varying decision (hotspot rotation,
//! diurnal phase, storm victim, collective step) is an integer function of
//! the current cycle — never of global mutable state. Emission order is
//! therefore monotone in cycle and ascending in source within a cycle,
//! exactly the `.ertr` recorder's ordering contract, and identical
//! whether points run one by one or fanned across the run-level pool.

pub mod engine;
pub mod ingest;
pub mod spec;

pub use engine::ScenarioEngine;
pub use ingest::{ExternalFormat, IngestError};
pub use spec::{ScenarioKind, ScenarioSpec, SpecError};
