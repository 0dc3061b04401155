//! The round-robin arbiter.
//!
//! Switch allocation and VC allocation both need fair single-winner
//! arbitration among requesters; round-robin is the classic cheap choice.
//!
//! The arbiter exists in two forms sharing one rotor:
//!
//! * a **word-parallel** path ([`RoundRobinArbiter::arbitrate_words`]) over
//!   packed `u64` request words (see [`crate::words`]) — the router's hot
//!   path, scanning 64 requesters per machine word with mask-rotate +
//!   `trailing_zeros`;
//! * a **slice oracle** ([`RoundRobinArbiter::arbitrate`]) — the original
//!   scan-from-pointer implementation, kept verbatim as the executable
//!   specification. The property suite (`tests/arbiter_props.rs`) drives
//!   both forms through randomized request sets and grant histories and
//!   asserts position-identical winners at every step.
//!
//! **Why masked `trailing_zeros` == scan-from-pointer.** The oracle visits
//! positions `next, next+1, …, n-1, 0, …, next-1` and grants the first
//! requester. The word path partitions that same cyclic sequence into (a)
//! the word holding `next` masked to bits `>= next`, (b) the higher words
//! in order, (c) the lower words in order, (d) the `next` word masked to
//! bits `< next` — each segment scanned by `trailing_zeros`, i.e. lowest
//! index first, which within a segment coincides with cyclic order. The
//! first non-empty segment therefore yields exactly the oracle's winner,
//! provided no bit `>= n` is ever set (the callers' invariant).

use crate::words;

/// Rotating-priority round-robin arbiter.
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    n: usize,
    /// Index with highest priority next round.
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requesters.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        Self { n, next: 0 }
    }

    /// The slice oracle: linear scan from the rotor over `requests` (true =
    /// requesting). Retained as the executable specification for
    /// [`RoundRobinArbiter::arbitrate_words`].
    pub fn arbitrate(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n);
        for i in 0..self.n {
            let idx = (self.next + i) % self.n;
            if requests[idx] {
                self.next = (idx + 1) % self.n;
                return Some(idx);
            }
        }
        None
    }

    /// Word-parallel arbitration over packed request words
    /// (`words.len() == ceil(n / 64)`, no bit `>= n` set). Winner and
    /// rotor update are position-identical to
    /// [`RoundRobinArbiter::arbitrate`] on the unpacked slice — see the
    /// module docs for the argument.
    #[inline]
    pub fn arbitrate_words(&mut self, reqs: &[u64]) -> Option<usize> {
        debug_assert_eq!(reqs.len(), words::words_for(self.n));
        let sw = self.next / 64;
        let sb = (self.next % 64) as u32;
        // Segment (a): the rotor's word, bits >= next.
        let head = reqs[sw] & (u64::MAX << sb);
        let idx = if head != 0 {
            sw * 64 + head.trailing_zeros() as usize
        } else if let Some(wi) = (sw + 1..reqs.len()).find(|&wi| reqs[wi] != 0) {
            // Segment (b): higher words.
            wi * 64 + reqs[wi].trailing_zeros() as usize
        } else if let Some(wi) = (0..sw).find(|&wi| reqs[wi] != 0) {
            // Segment (c): wrapped lower words.
            wi * 64 + reqs[wi].trailing_zeros() as usize
        } else {
            // Segment (d): the rotor's word, bits < next.
            let tail = reqs[sw] & !(u64::MAX << sb);
            if tail == 0 {
                return None;
            }
            sw * 64 + tail.trailing_zeros() as usize
        };
        debug_assert!(idx < self.n, "request bit {idx} beyond arbiter width");
        self.next = (idx + 1) % self.n;
        Some(idx)
    }

    /// Serializes the rotor position (`n` is config-derived).
    pub fn save_state(&self, w: &mut desim::snap::SnapWriter) {
        w.usize(self.next);
    }

    /// Overlays a checkpointed rotor position.
    pub fn load_state(
        &mut self,
        r: &mut desim::snap::SnapReader<'_>,
    ) -> Result<(), desim::snap::SnapError> {
        let next = r.usize()?;
        if next >= self.n {
            return Err(desim::snap::SnapError::Mismatch(format!(
                "arbiter rotor {next} out of range {}",
                self.n
            )));
        }
        self.next = next;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::pack;

    #[test]
    fn round_robin_rotates() {
        let mut a = RoundRobinArbiter::new(3);
        let all = [true, true, true];
        assert_eq!(a.arbitrate(&all), Some(0));
        assert_eq!(a.arbitrate(&all), Some(1));
        assert_eq!(a.arbitrate(&all), Some(2));
        assert_eq!(a.arbitrate(&all), Some(0));
    }

    #[test]
    fn round_robin_words_rotate() {
        let mut a = RoundRobinArbiter::new(3);
        let all = pack(&[true, true, true]);
        assert_eq!(a.arbitrate_words(&all), Some(0));
        assert_eq!(a.arbitrate_words(&all), Some(1));
        assert_eq!(a.arbitrate_words(&all), Some(2));
        assert_eq!(a.arbitrate_words(&all), Some(0));
    }

    #[test]
    fn round_robin_skips_idle() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.arbitrate(&[false, false, true, false]), Some(2));
        // Priority moved past 2.
        assert_eq!(a.arbitrate(&[true, false, true, false]), Some(0));
    }

    #[test]
    fn round_robin_words_wrap_across_word_boundaries() {
        // 130 requesters: three words. Park the rotor at 129 (last bit),
        // then request only bit 1 — the wrapped scan must find it.
        let mut a = RoundRobinArbiter::new(130);
        let mut reqs = vec![0u64; 3];
        crate::words::set(&mut reqs, 128);
        assert_eq!(a.arbitrate_words(&reqs), Some(128));
        crate::words::set(&mut reqs, 129);
        crate::words::clear(&mut reqs, 128);
        assert_eq!(a.arbitrate_words(&reqs), Some(129));
        // Rotor is now 0 (wrapped).
        crate::words::clear(&mut reqs, 129);
        crate::words::set(&mut reqs, 1);
        assert_eq!(a.arbitrate_words(&reqs), Some(1));
        // Rotor 2; a bit below it wraps the whole way round.
        crate::words::clear(&mut reqs, 1);
        crate::words::set(&mut reqs, 0);
        assert_eq!(a.arbitrate_words(&reqs), Some(0));
    }

    #[test]
    fn no_requests_no_winner() {
        let mut a = RoundRobinArbiter::new(2);
        assert_eq!(a.arbitrate(&[false, false]), None);
        assert_eq!(a.arbitrate_words(&[0]), None);
    }

    #[test]
    fn fairness_under_persistent_load() {
        // The arbiter must serve every requester equally often.
        let mut rr = RoundRobinArbiter::new(4);
        let mut rr_counts = [0u32; 4];
        let all = pack(&[true; 4]);
        for _ in 0..400 {
            rr_counts[rr.arbitrate_words(&all).unwrap()] += 1;
        }
        assert!(rr_counts.iter().all(|&c| c == 100), "{rr_counts:?}");
    }
}
