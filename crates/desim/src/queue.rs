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

    /// The pending events, in no particular order (validation and
    /// inspection; pop order is [`Self::pop`]'s).
    pub fn events(&self) -> impl Iterator<Item = &E> {
        self.heap.iter().map(|e| &e.event)
    }

    /// Heap footprint in bytes: capacity × entry size.
    pub fn approx_memory_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<HeapEntry<E>>()
    }
}

impl<E: crate::snap::Snap> BinaryHeapQueue<E> {
    /// Serializes the pending set for a checkpoint: the entries sorted by
    /// `(time, seq)`, without their sequence numbers — the order carries
    /// all the tie-break information [`Self::load_state`] needs.
    pub fn save_state(&self, w: &mut crate::snap::SnapWriter) {
        let mut entries: Vec<&HeapEntry<E>> = self.heap.iter().collect();
        entries.sort_by_key(|e| (e.time, e.seq));
        w.usize(entries.len());
        for e in entries {
            w.u64(e.time);
            e.event.save(w);
        }
    }

    /// Rebuilds the pending set from a checkpoint, replacing any contents.
    /// Entries are renumbered `0..n` in file order and later inserts
    /// continue from `n`, so every pop and every later tie-break is the
    /// saved queue's.
    pub fn load_state(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        let n = r.len_at_most(1 << 30, "BinaryHeapQueue")?;
        let mut heap = BinaryHeap::with_capacity(n.min(r.remaining()));
        for seq in 0..n as u64 {
            let time = r.u64()?;
            let event = E::load(r)?;
            heap.push(HeapEntry { time, seq, event });
        }
        self.next_seq = n as u64;
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

    #[test]
    fn a_restored_queue_pops_what_an_unsaved_twin_pops() {
        // Equal-time ties on both sides of the save, popped part-way: the
        // renumbered entries must keep their FIFO order among themselves
        // and ahead of every later insert at the same time.
        let mut live = BinaryHeapQueue::new();
        for (i, t) in [7, 3, 7, 3, 9, 7, 3].into_iter().enumerate() {
            live.insert(t, i as u32);
        }
        assert_eq!(live.pop(), Some((3, 1)));
        let mut w = crate::snap::SnapWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = BinaryHeapQueue::new();
        back.insert(0, 99); // replaced by the load
        back.load_state(&mut crate::snap::SnapReader::new(&bytes))
            .unwrap();
        for q in [&mut live, &mut back] {
            for (i, t) in [3, 7, 9, 3].into_iter().enumerate() {
                q.insert(t, 100 + i as u32);
            }
        }
        let drain =
            |q: &mut BinaryHeapQueue<u32>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        let want = drain(&mut live);
        assert_eq!(drain(&mut back), want);
        assert_eq!(
            want,
            [
                (3, 3),
                (3, 6),
                (3, 100),
                (3, 103),
                (7, 0),
                (7, 2),
                (7, 5),
                (7, 101),
                (9, 4),
                (9, 102)
            ]
        );
    }
}
