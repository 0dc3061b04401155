#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::perf)]
//! # router — cycle-accurate electrical virtual-channel router
//!
//! The Intra-Board Interconnect (IBI) of E-RAPID is "scalable electrical"
//! (§2); the paper's router parameters come from the SGI Spider chip
//! (Table 1): 16-bit channels at 400 MHz (6.4 Gbps/direction), credit-based
//! flow control with single-flit buffers and one-cycle credit delay, and a
//! four-stage pipeline — route computation (RC) and virtual-channel
//! allocation (VA) per packet, switch allocation (SA) and switch traversal
//! (ST) per flit (§2.1, following Dally & Towles).
//!
//! Modules:
//! * [`flit`] / [`packet`] — flits, packets, and the packetizer,
//! * [`credit`] — credit counters for flow control,
//! * [`arbiter`] — the round-robin arbiter,
//! * [`vc`] — per-input virtual-channel state machines and their flit
//!   FIFOs (one ring slab per router),
//! * [`routing`] — output-port lookup functions,
//! * [`words`] — packed `u64` bitset words for the arbitration hot path,
//! * [`router`] — the assembled router with its per-cycle `step`.

//!
//! ## Example: a flit through the pipeline
//!
//! ```
//! use router::{Router, RouterConfig, PortId};
//! use router::routing::TableRoute;
//! use router::packet::Packet;
//! use router::flit::{NodeId, PacketId};
//!
//! let mut r = Router::new(
//!     RouterConfig { in_ports: 2, out_ports: 2, vcs: 2, buf_depth: 4, downstream_depth: 16 },
//!     Box::new(TableRoute::new(vec![PortId(0), PortId(1)])),
//! );
//! let pkt = Packet { id: PacketId(0), src: NodeId(0), dst: NodeId(1),
//!                    flits: 2, injected_at: 0, labelled: false };
//! for i in 0..pkt.flits { r.inject(PortId(0), 0, pkt.flit_at(i)); }
//! let mut out = 0;
//! for now in 0..10 { out += r.step(now).len(); }
//! assert_eq!(out, 2); // head + tail traversed toward port 1
//! ```

pub mod arbiter;
pub mod credit;
pub mod flit;
pub mod inject;
pub mod packet;
pub mod router;
pub mod routing;
pub mod vc;
pub mod words;

pub use flit::{Flit, FlitKind, NodeId, PacketId};
pub use inject::FlitInjector;
pub use packet::Packet;
pub use router::{Router, RouterConfig, RouterStats, Traversal};
pub use routing::PortId;

/// Flits per packet: Table 1's 64-byte packets of 8-byte flits. E-RAPID
/// (`erapid_core`) and the mesh baseline (`emesh`) both read it here, so the
/// two networks always carry the same packets.
pub const PACKET_FLITS: u16 = 8;

/// Virtual channels per router input port (Table 1), for both networks.
pub const VCS: u8 = 4;

/// Flit buffer depth per input VC, for both networks. Table 1's Spider
/// router has single-flit buffers; the engine has always run 4-flit ones,
/// and every pinned number is measured at 4. [`RouterConfig`] keeps the
/// depth a parameter for routers built outside the two networks.
pub const BUF_DEPTH: usize = 4;
