//! Credit-based flow control.
//!
//! Table 1: "credit-based" flow control with a single-flit buffer and
//! credits incurring a one-cycle channel delay. A [`CreditCounter`] tracks
//! the downstream space an upstream sender may use; [`CreditReturnQueue`]
//! models the one-cycle (configurable) return delay.

use desim::Cycle;
use std::collections::VecDeque;

/// Credits available toward one downstream buffer.
#[derive(Debug, Clone)]
pub struct CreditCounter {
    credits: u32,
    max: u32,
}

impl CreditCounter {
    /// Creates a counter starting full at `max` credits.
    pub fn new(max: u32) -> Self {
        assert!(max > 0);
        Self { credits: max, max }
    }

    /// Credits currently available.
    pub fn available(&self) -> u32 {
        self.credits
    }

    /// Maximum (= downstream buffer depth).
    pub fn max(&self) -> u32 {
        self.max
    }

    /// True when at least one credit is available.
    pub fn can_send(&self) -> bool {
        self.credits > 0
    }

    /// Consumes one credit (a flit departed downstream).
    ///
    /// # Panics
    /// If no credits remain — sending without credit is a protocol bug.
    pub fn consume(&mut self) {
        assert!(self.credits > 0, "credit underflow");
        self.credits -= 1;
    }

    /// Returns one credit (downstream freed a slot).
    ///
    /// # Panics
    /// If already at maximum — returning a phantom credit is a protocol bug.
    pub fn restore(&mut self) {
        self.restore_n(1);
    }

    /// Returns `n` credits at once (a whole packet left the downstream
    /// buffer).
    ///
    /// # Panics
    /// If that would exceed the maximum.
    pub fn restore_n(&mut self, n: u32) {
        assert!(n <= self.max - self.credits, "credit overflow");
        self.credits += n;
    }

    /// Serializes the live credit count (`max` is config-derived).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        w.u32(self.credits);
    }

    /// Overlays a checkpointed credit count.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        let credits = r.u32()?;
        if credits > self.max {
            return Err(desim::snap::SnapError::Mismatch(format!(
                "{credits} credits exceed depth {}",
                self.max
            )));
        }
        self.credits = credits;
        Ok(())
    }
}

/// Credits in flight back to the sender, delivered after a fixed delay.
#[derive(Debug, Clone)]
pub struct CreditReturnQueue {
    delay: Cycle,
    /// (deliver_at, count) in nondecreasing time order.
    in_flight: VecDeque<(Cycle, u32)>,
}

impl CreditReturnQueue {
    /// Creates a queue with the given return delay (paper: 1 cycle).
    pub fn new(delay: Cycle) -> Self {
        Self {
            delay,
            in_flight: VecDeque::new(),
        }
    }

    /// Enqueues one credit released at `now`.
    pub fn send(&mut self, now: Cycle) {
        let at = now + self.delay;
        match self.in_flight.back_mut() {
            Some((t, n)) if *t == at => *n += 1,
            _ => self.in_flight.push_back((at, 1)),
        }
    }

    /// Credits that have arrived by `now` (inclusive); removes them.
    pub fn arrivals(&mut self, now: Cycle) -> u32 {
        let mut total = 0;
        while let Some(&(t, n)) = self.in_flight.front() {
            if t <= now {
                total += n;
                self.in_flight.pop_front();
            } else {
                break;
            }
        }
        total
    }

    /// Credits still in flight.
    pub fn pending(&self) -> u32 {
        self.in_flight.iter().map(|&(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_consume_restore() {
        let mut c = CreditCounter::new(2);
        assert_eq!(c.available(), 2);
        assert!(c.can_send());
        c.consume();
        c.consume();
        assert!(!c.can_send());
        c.restore();
        assert_eq!(c.available(), 1);
        assert_eq!(c.max(), 2);
        c.consume();
        c.restore_n(2);
        assert_eq!(c.available(), 2);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut c = CreditCounter::new(1);
        c.consume();
        c.consume();
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut c = CreditCounter::new(1);
        c.restore();
    }

    #[test]
    fn return_queue_delays_by_one_cycle() {
        let mut q = CreditReturnQueue::new(1);
        q.send(10);
        assert_eq!(q.arrivals(10), 0);
        assert_eq!(q.pending(), 1);
        assert_eq!(q.arrivals(11), 1);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn return_queue_batches_same_cycle() {
        let mut q = CreditReturnQueue::new(2);
        q.send(5);
        q.send(5);
        q.send(6);
        assert_eq!(q.pending(), 3);
        assert_eq!(q.arrivals(7), 2);
        assert_eq!(q.arrivals(8), 1);
    }

    #[test]
    fn zero_delay_is_immediate() {
        let mut q = CreditReturnQueue::new(0);
        q.send(3);
        assert_eq!(q.arrivals(3), 1);
    }
}
