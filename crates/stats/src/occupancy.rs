//! Event-driven buffer-occupancy counter, bit-compatible with the eager
//! per-cycle `WindowedUtilization` sampling it replaces (kept, test-only,
//! as this module's oracle).
//!
//! The eager counter recorded `flits_held / capacity` every cycle and
//! averaged at the window roll. That is an O(B) loop per board per cycle
//! even when nothing moves. This counter instead integrates *flit-cycles*:
//! the level only changes on enqueue/dequeue, so between events the
//! integral advances by `flits × Δt` in O(1), and a fully idle queue costs
//! nothing at all until the roll.
//!
//! # Exactness
//!
//! Bit-identity with the eager average holds because `capacity` is a
//! power of two (asserted in [`OccupancyIntegral::new`]): every per-cycle
//! sample `k/capacity` is a dyadic rational, every partial sum the eager
//! accumulator formed is exactly representable in an f64 significand
//! (`Σk ≤ capacity × window ≪ 2^53`), so the eager sum equals
//! `(Σk)/capacity` *exactly* — which is what [`roll`](OccupancyIntegral::roll)
//! computes from the integer flit-cycle count. The final division by the
//! window and the clamp are then the same operation on the same bits.
//!
//! # Sample timing contract
//!
//! The eager loop sampled each queue once per cycle `t`, *after* the
//! cycle's enqueues and *before* its dequeues. The event API mirrors that:
//!
//! * [`enqueue`](OccupancyIntegral::enqueue)`(t, n)` — counted from the
//!   sample at `t` onward.
//! * [`dequeue`](OccupancyIntegral::dequeue)`(t, n)` — still counted at
//!   the sample at `t`, gone from `t + 1`.
//! * [`roll`](OccupancyIntegral::roll)`(t)` — closes the window of
//!   samples `[t - window, t)`.

use desim::Cycle;

/// Integer flit-cycle integral over one reconfiguration window.
#[derive(Debug, Clone)]
pub struct OccupancyIntegral {
    window: Cycle,
    capacity: u32,
    /// Current queue level, flits.
    flits: u32,
    /// Flit-cycles accumulated in the current window up to `cursor`.
    acc: u64,
    /// Samples up to (excluding) this cycle are folded into `acc`.
    cursor: Cycle,
    /// Average of the last completed window, eager-identical.
    previous: f64,
}

impl OccupancyIntegral {
    /// A counter for a queue of `capacity` flits, averaged over `window`.
    ///
    /// # Panics
    /// If `capacity` is not a power of two (the exactness argument above
    /// needs dyadic samples) or `window` is zero.
    pub fn new(window: Cycle, capacity: u32) -> Self {
        assert!(window > 0, "zero-cycle utilization window");
        assert!(
            capacity.is_power_of_two(),
            "occupancy exactness needs a power-of-two capacity, got {capacity}"
        );
        OccupancyIntegral {
            window,
            capacity,
            flits: 0,
            acc: 0,
            cursor: 0,
            previous: 0.0,
        }
    }

    /// Folds the constant level over `[cursor, now)` into the integral.
    fn settle_to(&mut self, now: Cycle) {
        debug_assert!(now >= self.cursor, "occupancy event out of order");
        if self.flits > 0 {
            self.acc += self.flits as u64 * (now - self.cursor);
        }
        self.cursor = now;
    }

    /// `n` flits enqueued at cycle `now`; visible to the sample at `now`.
    pub fn enqueue(&mut self, now: Cycle, n: u32) {
        self.settle_to(now);
        self.flits += n;
    }

    /// `n` flits dequeued at cycle `now`; still visible to the sample at
    /// `now` (the eager loop sampled before departures).
    pub fn dequeue(&mut self, now: Cycle, n: u32) {
        self.settle_to(now + 1);
        debug_assert!(self.flits >= n, "dequeue below empty");
        self.flits -= n;
    }

    /// Closes the window ending at `now` (exclusive): computes the
    /// eager-identical average and resets the integral.
    pub fn roll(&mut self, now: Cycle) -> f64 {
        self.settle_to(now);
        // `acc/capacity` and the eager f64 sum are the same exact value;
        // see the module docs for why the division order cannot differ.
        let avg = (self.acc as f64 / self.capacity as f64) / self.window as f64;
        self.previous = avg.clamp(0.0, 1.0);
        self.acc = 0;
        self.previous
    }

    /// Average occupancy of the last completed window.
    pub fn previous(&self) -> f64 {
        self.previous
    }

    /// Current queue level, flits.
    pub fn flits(&self) -> u32 {
        self.flits
    }
}

impl desim::snap::Snap for OccupancyIntegral {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.u64(self.window);
        w.u32(self.capacity);
        w.u32(self.flits);
        w.u64(self.acc);
        w.u64(self.cursor);
        w.f64(self.previous);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        let window = r.u64()?;
        let capacity = r.u32()?;
        if window == 0 || !capacity.is_power_of_two() {
            return Err(desim::snap::SnapError::Format(
                "occupancy integral geometry invalid".to_string(),
            ));
        }
        Ok(Self {
            window,
            capacity,
            flits: r.u32()?,
            acc: r.u64()?,
            cursor: r.u64()?,
            previous: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windowed::WindowedUtilization;

    /// Drives both counters through the same random enqueue/dequeue
    /// schedule and checks bit-identical window averages.
    #[test]
    fn matches_eager_sampling_bit_for_bit() {
        let window = 50;
        let cap = 64u32;
        let mut lazy = OccupancyIntegral::new(window, cap);
        let mut eager = WindowedUtilization::new(window);
        let mut level = 0u32;
        // Deterministic LCG schedule.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for t in 0..window * 20 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let enq = ((x >> 33) % 4) as u32;
            let enq = enq.min(cap - level);
            if enq > 0 {
                level += enq;
                lazy.enqueue(t, enq);
            }
            // Sample point: eager sees post-enqueue, pre-dequeue.
            eager.record(level as f64 / cap as f64);
            let deq = ((x >> 17) % 3) as u32;
            let deq = deq.min(level);
            if deq > 0 {
                level -= deq;
                lazy.dequeue(t, deq);
            }
            if (t + 1) % window == 0 {
                let e = eager.roll();
                let l = lazy.roll(t + 1);
                assert_eq!(l.to_bits(), e.to_bits(), "window ending at {}", t + 1);
            }
        }
    }

    #[test]
    fn idle_queue_is_steady_and_free() {
        let mut c = OccupancyIntegral::new(100, 64);
        assert_eq!(c.roll(100), 0.0);
        c.enqueue(150, 8);
        assert_eq!(c.flits(), 8);
        let v = c.roll(200);
        assert!(
            (v - 8.0 / 64.0 * 0.5).abs() < 1e-12,
            "level changed mid-window"
        );
        // Untouched full window at a flat level: the level itself.
        let v2 = c.roll(300);
        assert_eq!(v2, 8.0 / 64.0);
    }

    #[test]
    fn dequeue_counts_at_its_own_cycle() {
        // Enqueue at 0, dequeue at 0: the cycle-0 sample still sees the
        // flit (eager sampled between the two), so one flit-cycle lands.
        let mut c = OccupancyIntegral::new(10, 64);
        c.enqueue(0, 1);
        c.dequeue(0, 1);
        let v = c.roll(10);
        assert_eq!(v, 1.0 / 64.0 / 10.0);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_pow2_capacity() {
        let _ = OccupancyIntegral::new(10, 48);
    }
}
