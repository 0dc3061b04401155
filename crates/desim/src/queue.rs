//! The binary-heap timestamp queue.
//!
//! [`BinaryHeapQueue`] is a priority queue of `(time, sequence, event)`
//! keyed by time then by insertion sequence: `O(log n)` insert/extract, and
//! events with equal timestamps dequeue in insertion order (FIFO
//! tie-break), which the optical layer's wake/arrival processing relies on
//! for reproducibility.

use crate::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct HeapEntry<E> {
    time: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) yields the *smallest*
        // (time, seq) first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Binary-heap pending-event set with FIFO tie-breaking.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Inserts `event` at absolute time `time`.
    pub fn insert(&mut self, time: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E: crate::snap::Snap> BinaryHeapQueue<E> {
    /// Serializes the pending set for a checkpoint.
    ///
    /// Entries are written sorted by `(time, seq)` with their original
    /// sequence numbers, so a restored heap pops in exactly the same order
    /// and later inserts continue the same FIFO tie-break sequence.
    pub fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        let mut entries: Vec<&HeapEntry<E>> = self.heap.iter().collect();
        entries.sort_by_key(|e| (e.time, e.seq));
        w.usize(entries.len());
        for e in entries {
            w.u64(e.time);
            w.u64(e.seq);
            e.event.save(w);
        }
        w.u64(self.next_seq);
    }

    /// Rebuilds the pending set from a checkpoint, replacing any contents.
    pub fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        let n = r.len_at_most(1 << 30, "BinaryHeapQueue")?;
        let mut heap = BinaryHeap::with_capacity(n.min(r.remaining()));
        for _ in 0..n {
            let time = r.u64()?;
            let seq = r.u64()?;
            let event = E::load(r)?;
            heap.push(HeapEntry { time, seq, event });
        }
        self.next_seq = r.u64()?;
        self.heap = heap;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_basic_order() {
        let mut q = BinaryHeapQueue::new();
        q.insert(10, 1);
        q.insert(5, 2);
        q.insert(10, 3);
        q.insert(0, 4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(0));
        assert_eq!(q.pop(), Some((0, 4)));
        assert_eq!(q.pop(), Some((5, 2)));
        // FIFO among equal timestamps.
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 3)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn heap_with_capacity() {
        let mut q: BinaryHeapQueue<u8> = BinaryHeapQueue::with_capacity(16);
        q.insert(1, 7);
        assert_eq!(q.pop(), Some((1, 7)));
    }
}
