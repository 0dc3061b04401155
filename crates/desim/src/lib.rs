#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! # desim — simulation support library
//!
//! The original E-RAPID paper ran on YACSIM/NETSIM (Rice University, C,
//! long unavailable). This reproduction's engine is a plain cycle loop in
//! `erapid_core::system` (`System::step_inner` + `System::drive`); this
//! crate is what that loop and the model crates share:
//!
//! * [`rng`] — deterministic, splittable PCG32 random-number streams and
//!   the distributions a network simulator needs: Bernoulli injection
//!   processes, uniform destinations, Zipf hotspots,
//! * [`phase`] — simulation phase management: warm-up, measurement and
//!   drain windows exactly as described in §4 of the paper ("the simulator
//!   was warmed up under load without taking measurements until steady
//!   state was reached ... a sample of injected packets were labelled
//!   during a measurement interval"),
//! * [`snap`] — a checksummed binary snapshot substrate for
//!   checkpoint/restore of long-horizon runs,
//! * [`queue`] — the binary-heap timestamp queue behind the optical
//!   layer's channel wake-ups and in-flight packet arrivals.
//!
//! Every run is reproducible from one `u64` seed.
//!
//! ## Quick example
//!
//! ```
//! use desim::queue::BinaryHeapQueue;
//!
//! let mut q = BinaryHeapQueue::new();
//! q.insert(5, 'a');
//! q.insert(2, 'b');
//! q.insert(5, 'c');
//! let mut order = Vec::new();
//! while let Some((t, ev)) = q.pop() {
//!     order.push((t, ev));
//! }
//! // Time-ascending, FIFO among equal timestamps.
//! assert_eq!(order, vec![(2, 'b'), (5, 'a'), (5, 'c')]);
//! ```

pub mod phase;
pub mod queue;
pub mod rng;
pub mod snap;

/// Simulation time, measured in router clock cycles.
///
/// The paper's router clock is 400 MHz (2.5 ns per cycle); everything in the
/// reproduction is expressed in these cycles.
pub type Cycle = u64;

/// Converts nanoseconds to (rounded-up) cycles at the 400 MHz router clock.
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns / NS_PER_CYCLE).ceil() as Cycle
}

/// Router clock frequency used throughout the reproduction (Table 1: 400 MHz).
pub const CLOCK_HZ: f64 = 400.0e6;

/// Nanoseconds per router clock cycle (2.5 ns at 400 MHz).
const NS_PER_CYCLE: f64 = 1.0e9 / CLOCK_HZ;

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn cycle_time_roundtrip() {
        assert_eq!(ns_to_cycles(2.5), 1);
        assert_eq!(ns_to_cycles(2.6), 2);
        assert_eq!(ns_to_cycles(5.0), 2);
    }

    #[test]
    fn clock_constant_is_400mhz() {
        assert!((CLOCK_HZ - 4.0e8).abs() < 1.0);
    }
}
