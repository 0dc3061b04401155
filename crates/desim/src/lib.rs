//! # desim — a discrete-event simulation engine
//!
//! This crate is the substrate the original E-RAPID paper obtained from
//! YACSIM/NETSIM (Rice University, C, long unavailable). It provides:
//!
//! * a deterministic event-driven kernel ([`sim::Simulator`]) with two
//!   interchangeable pending-event set implementations (binary heap and
//!   calendar queue, [`queue`]),
//! * deterministic, splittable random-number streams and the distributions a
//!   network simulator needs ([`rng`]): Bernoulli injection processes,
//!   uniform destinations, geometric/exponential inter-arrivals, Zipf
//!   hotspots,
//! * simulation phase management ([`phase`]): warm-up, measurement and drain
//!   windows exactly as described in §4 of the paper ("the simulator was
//!   warmed up under load without taking measurements until steady state was
//!   reached ... a sample of injected packets were labelled during a
//!   measurement interval"),
//! * a bounded event trace for debugging ([`trace`]),
//! * a checksummed binary snapshot substrate for checkpoint/restore of
//!   long-horizon runs ([`snap`]).
//!
//! The whole engine is single-threaded on purpose: cycle-accurate network
//! simulation at the paper's scale (64 nodes) is dominated by event ordering
//! dependencies, and determinism — every run reproducible from one `u64`
//! seed — is worth far more than parallel speedup here.
//!
//! ## Quick example
//!
//! ```
//! use desim::sim::Simulator;
//!
//! let mut sim: Simulator<u32> = Simulator::new();
//! sim.schedule(5, 1);
//! sim.schedule(2, 2);
//! let mut order = Vec::new();
//! while let Some((t, ev)) = sim.next_event() {
//!     order.push((t, ev));
//! }
//! assert_eq!(order, vec![(2, 2), (5, 1)]);
//! ```

pub mod phase;
pub mod process;
pub mod queue;
pub mod rng;
pub mod sim;
#[deny(clippy::unwrap_used, clippy::expect_used)]
pub mod snap;
pub mod trace;

/// Simulation time, measured in router clock cycles.
///
/// The paper's router clock is 400 MHz (2.5 ns per cycle); everything in the
/// reproduction is expressed in these cycles.
pub type Cycle = u64;

/// Converts a cycle count to nanoseconds at the paper's 400 MHz router clock.
pub fn cycles_to_ns(cycles: Cycle) -> f64 {
    cycles as f64 * NS_PER_CYCLE
}

/// Converts nanoseconds to (rounded-up) cycles at the 400 MHz router clock.
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns / NS_PER_CYCLE).ceil() as Cycle
}

/// Router clock frequency used throughout the reproduction (Table 1: 400 MHz).
pub const CLOCK_HZ: f64 = 400.0e6;

/// Nanoseconds per router clock cycle (2.5 ns at 400 MHz).
pub const NS_PER_CYCLE: f64 = 1.0e9 / CLOCK_HZ;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn cycle_time_roundtrip() {
        assert!((cycles_to_ns(1) - 2.5).abs() < 1e-12);
        assert_eq!(ns_to_cycles(2.5), 1);
        assert_eq!(ns_to_cycles(2.6), 2);
        assert_eq!(ns_to_cycles(5.0), 2);
    }

    #[test]
    fn clock_constant_is_400mhz() {
        assert!((CLOCK_HZ - 4.0e8).abs() < 1.0);
    }
}
