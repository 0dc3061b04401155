#![forbid(unsafe_code)]
//! Root crate of the E-RAPID reproduction workspace.
//!
//! `erapid-suite` hosts the workspace-spanning integration tests (`tests/`)
//! and the runnable examples (`examples/`). It re-exports every member crate
//! so examples and tests can reach the whole public API through one
//! dependency.

pub use desim;
pub use emesh;
pub use erapid_core;
pub use erapid_telemetry;
pub use erapid_tune;
pub use erapid_workloads;
pub use netstats;
pub use photonics;
pub use powermgmt;
pub use reconfig;
pub use router;
pub use traffic;
