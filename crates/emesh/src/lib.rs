#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # emesh — the electrical baseline network
//!
//! The paper evaluates E-RAPID against "other electrical networks" (§4.1).
//! This crate is that comparator: a 2D mesh of the same SGI-Spider-like
//! virtual-channel routers E-RAPID uses for its intra-board interconnect,
//! wired hop-to-hop with credit flow control and dimension-order (XY)
//! routing. It exercises the `router` crate in its full multi-hop role —
//! per-hop RC/VA/SA/ST pipelines, per-link credit loops — and provides the
//! apples-to-apples baseline experiment (`erapid-bench --bin figures -- baseline`).
//!
//! * [`topology`] — mesh geometry and XY dimension-order routing,
//! * [`network`] — the assembled mesh: routers, inter-router links,
//!   credit plumbing, NIs, and the cycle loop,
//! * [`sim`] — the measurement harness mirroring `erapid_core::experiment`.

//!
//! ## Example
//!
//! ```
//! use emesh::{run_mesh, MeshConfig, Mesh2D};
//! use desim::phase::PhasePlan;
//! use traffic::pattern::TrafficPattern;
//!
//! let cfg = MeshConfig { mesh: Mesh2D::square(16), ..MeshConfig::paper64() };
//! let plan = PhasePlan::new(500, 1000).with_max_cycles(20_000);
//! let r = run_mesh(cfg, TrafficPattern::Uniform, 0.004, plan);
//! assert!(r.throughput > 0.0);
//! assert_eq!(r.undrained, 0);
//! ```

pub mod network;
pub mod power;
pub mod sim;
pub mod topology;

pub use network::MeshNetwork;
pub use power::{MeshPowerMeter, RouterEnergy};
pub use sim::{run_mesh, MeshConfig, MeshRunResult};
pub use topology::Mesh2D;
