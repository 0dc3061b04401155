#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Deterministic cycle-level telemetry for the E-RAPID simulator.
//!
//! The paper's argument is about *when* things happen: DPM rate/voltage
//! transitions inside odd windows, the five Lock-Step DBR stages inside even
//! windows, 65-cycle CDR relock blackouts. End-of-run aggregates cannot show
//! any of that, so this crate provides a typed, cycle-stamped event model
//! ([`TraceEvent`]) behind a [`TraceSink`] trait:
//!
//! - [`NullSink`] is a zero-cost no-op: every emit point checks
//!   `sink.enabled()` (an inlined `false`) before building the event, so a
//!   run with tracing off does no extra work and allocates nothing.
//! - [`RingRecorder`] is a preallocated ring buffer that keeps every event
//!   (the oldest are overwritten and counted once it is full); it never
//!   allocates after construction, so tracing perturbs
//!   neither the simulation (events are observations, not inputs) nor the
//!   allocator behaviour of the hot path.
//!
//! The event stream is the only record a traced run keeps: the window
//! event carries the congestion gauges sampled at its boundary, and any
//! per-window table is a fold over the records.
//!
//! Determinism contract: events are emitted in simulation order by a single
//! thread per `System`, stamped with the simulation cycle (never wall
//! clock), and the exporters ([`jsonl`], [`chrome_trace`]) format them with Rust's built-in
//! float formatting. The same seed therefore yields byte-identical trace
//! files, including across the sequential and parallel experiment runners
//! (each point records into its own recorder; the runner merges in input
//! order).

pub mod event;
mod export;
mod recorder;
pub mod sink;

pub use event::{FaultLabel, LsStageLabel, TraceEvent, TraceRecord, WindowLabel};
pub use export::{chrome_trace, jsonl, jsonl_line};
pub use recorder::{RingRecorder, TraceConfig, Tracer};
pub use sink::{NullSink, TraceSink};
