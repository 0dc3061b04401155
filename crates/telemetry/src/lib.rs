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
//! - [`RingRecorder`] is a preallocated ring buffer with optional 1-in-N
//!   sampling; it never allocates after construction, so tracing perturbs
//!   neither the simulation (events are observations, not inputs) nor the
//!   allocator behaviour of the hot path.
//! - [`MetricRegistry`] aggregates counters/gauges/histograms (reusing
//!   `netstats`) at R_w window granularity.
//!
//! Determinism contract: events are emitted in simulation order by a single
//! thread per `System`, stamped with the simulation cycle (never wall
//! clock), and the exporters ([`export`]) format them with Rust's built-in
//! float formatting. The same seed therefore yields byte-identical trace
//! files, including across the sequential and parallel experiment runners
//! (each point records into its own recorder; the runner merges in input
//! order).

pub mod event;
pub mod export;
pub mod recorder;
pub mod registry;
pub mod sink;

pub use event::{FaultLabel, LsStageLabel, TraceEvent, TraceRecord, WindowLabel};
pub use export::{chrome_trace, jsonl, jsonl_line, windows_jsonl, windows_jsonl_rows};
pub use recorder::{RingRecorder, TraceConfig, Tracer};
pub use registry::{
    counter_column, CounterId, GaugeId, HistId, HistogramSummary, MetricRegistry, WindowSnapshot,
};
pub use sink::{NullSink, TraceSink};
