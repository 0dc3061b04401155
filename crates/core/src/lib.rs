#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::perf)]
//! # erapid-core — the E-RAPID system model
//!
//! This crate is the paper's primary contribution assembled from the
//! substrate crates: an R(C,B,D) opto-electronic interconnect
//! (§2) with Lock-Step power/bandwidth reconfiguration (§3) and the
//! evaluation harness that regenerates §4.
//!
//! Architecture of one simulated system:
//!
//! ```text
//!  per board:                                  shared:
//!  ┌──────────────────────────────┐
//!  │ D nodes ──► IBI VC router ───┼─► per-destination TX queues
//!  │   ▲                          │        │ (flit reassembly)
//!  │   └── RX injectors ◄─────────┼────┐   ▼
//!  └──────────────────────────────┘    │  SRS: wavelength ownership map,
//!                                      │  optical channels (serialization,
//!          packet arrivals ◄──────────-┘  bit-rate levels, fiber delay)
//! ```
//!
//! * [`config`] — system parameters and the four network configurations
//!   NP-NB / P-NB / NP-B / P-B,
//! * [`txqueue`] — per-destination-board transmitter queues (packets are
//!   the interleaving unit in the optical domain, §2.1),
//! * [`srs`] — the Scalable Remote Optical Super-Highway: ownership map +
//!   channel bank + in-flight arrivals,
//! * [`board`] — one board: router, NIs, TX queues, receivers,
//! * [`system`] — the full system and its cycle loop, including the LS
//!   odd–even reconfiguration triggers,
//! * [`metrics`] — run metrics (throughput, latency, power, reconfig
//!   counters),
//! * [`experiment`] — what a run reports (`RunResult`, `RunTrace`,
//!   `RunOutput`), the standard plans and the `run_once` shorthand,
//! * [`runner`] — `RunPoint::run`, the one implementation of §4's
//!   procedure, and the parallel run-level executor fanning independent
//!   points over a worker pool (`ERAPID_THREADS`),
//! * [`faults`] — deterministic, seed-reproducible fault-event scheduling
//!   (receiver/transmitter outages, stuck LCs, CDR relocks, LS token
//!   faults),
//! * [`error`] — the typed [`ErapidError`] the library reports instead of
//!   aborting.
//!
//! Telemetry: enabling [`SystemConfig`]`::trace` (see
//! [`erapid_telemetry::TraceConfig`]) makes each system record a
//! cycle-stamped event trace (DPM retunes, CDR relocks, LS stages, DBR
//! grants, faults, buffer-threshold crossings) plus per-window metric
//! snapshots into a preallocated, point-local ring buffer. Tracing never
//! perturbs the simulation, and per-point traces are byte-identical
//! across sequential and parallel sweeps (see
//! [`runner::run_points`]).

//!
//! ## Example: one experiment point
//!
//! ```
//! use erapid_core::config::{NetworkMode, SystemConfig};
//! use erapid_core::experiment::run_once;
//! use desim::phase::PhasePlan;
//! use traffic::pattern::TrafficPattern;
//!
//! let cfg = SystemConfig::small(NetworkMode::PB); // fast R(1,4,4) system
//! let plan = PhasePlan::new(2000, 4000).with_max_cycles(40_000);
//! let r = run_once(cfg, TrafficPattern::Uniform, 0.3, plan);
//! assert!(r.throughput > 0.0);
//! assert!(r.power_mw > 0.0);
//! assert_eq!(r.undrained, 0);
//! ```
//!
//! ## Running a point
//!
//! `run_once` is shorthand for [`RunPoint::run`], which also hands back
//! whatever the point's config switched on (`trace`, `packet_log`,
//! `record_injections`) — observers are config fields, not run variants:
//!
//! ```
//! # use erapid_core::{config::*, experiment::*, runner::RunPoint};
//! # use traffic::pattern::TrafficPattern::Uniform;
//! # let plan = desim::phase::PhasePlan::new(2000, 4000).with_max_cycles(40_000);
//! let mut cfg = SystemConfig::small(NetworkMode::PB);
//! cfg.record_injections = true;
//! let (pattern, load, source) = (Uniform, 0.3, TraceSource::Generate);
//! let out = RunPoint { cfg, pattern, load, plan, source }.run();
//! assert_eq!(out.result.undrained, 0);
//! assert!(out.injections.is_some() && out.trace.records.is_empty());
//! ```

pub mod board;
pub mod checkpoint;
pub mod config;
pub mod error;
pub mod experiment;
pub mod faults;
pub mod metrics;
pub mod runner;
pub mod srs;
pub mod stream;
pub mod system;
pub mod txqueue;

pub use checkpoint::{latest_valid, restore_system, Checkpointer};
pub use config::{NetworkMode, SystemConfig};
pub use error::ErapidError;
pub use experiment::{run_once, trace_meta, RunOutput, RunResult, RunTrace, TraceSource};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use metrics::PacketDelivery;
pub use runner::{
    parallel_map, parallel_map_prioritized, run_points, run_points_timed_sharded, RunPoint,
};
pub use stream::{StreamCursor, StreamPaths, StreamSink};
pub use system::{PhaseTimers, System, WindowFlush};
