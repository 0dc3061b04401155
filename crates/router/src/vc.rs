//! Per-input virtual-channel state machines and their flit FIFOs.
//!
//! Flits from different nodes interleave in the electrical domain through
//! virtual channels (§2.1). Each input VC owns a flit FIFO and walks the
//! per-packet pipeline: Idle → Routing (RC) → WaitingVc (VA) → Active
//! (SA/ST per flit) → Idle on tail traversal.
//!
//! [`VcArena`] holds every input VC's state as parallel flat vectors
//! indexed by requester id `r = in_port · V + in_vc`, which is what the
//! router's VA/SA/ST passes walk. A VC's snapshot bytes are its tag (0–3)
//! followed by that tag's fields ([`VcArena::save_state`]).
//!
//! ## One flit slab per router (DESIGN.md §16)
//!
//! Every VC's FIFO is a ring of `depth` slots in one `Vec<Flit>` of
//! `n · depth` flits: VC `r` owns `flits[r · depth .. (r + 1) · depth]`,
//! its oldest flit sits at slot `head[r]` and it holds `len[r]` flits. A
//! router is therefore a fixed handful of allocations whatever its VC
//! count and depth, and a push or pop is an index computation, not a
//! heap-deque call. The ring wraps by compare-and-reset, so any depth
//! `≥ 1` works (the paper's is 1, the default config's 4).

use crate::flit::{Flit, FlitKind, NodeId, PacketId};
use desim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use desim::Cycle;

/// Pipeline state of one input VC, stored one byte per VC in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum VcTag {
    /// No packet in flight.
    Idle = 0,
    /// Route computation in progress (`timer` = completion cycle).
    Routing = 1,
    /// Route known (`out_port` valid); requesting an output VC.
    Waiting = 2,
    /// Output VC held (`out_port`/`out_vc` valid, `timer` = first SA cycle).
    Active = 3,
}

/// What fills a slab slot no flit occupies (never read as a flit).
const EMPTY: Flit = Flit {
    packet: PacketId(0),
    kind: FlitKind::Body,
    dst: NodeId(0),
    injected_at: 0,
    labelled: false,
    seq: 0,
};

/// Struct-of-arrays arena over all input VCs of one router.
///
/// Fields the route loop touches (state tag, routed port, held output VC,
/// stage timer) live in parallel flat vectors so the VA/SA/ST passes walk
/// contiguous memory; the flit FIFOs are rings in one slab, touched only
/// on inject/pop. Indexing is by requester id `r = in_port · V + in_vc`.
#[derive(Debug)]
pub struct VcArena {
    /// Pipeline state discriminant per VC.
    pub tag: Vec<VcTag>,
    /// Routed output port; valid when `tag` is `Waiting` or `Active`.
    pub out_port: Vec<u16>,
    /// Held output VC; valid when `tag` is `Active`.
    pub out_vc: Vec<u8>,
    /// Stage timer: RC `done_at` when `Routing`, SA `active_at` when `Active`.
    pub timer: Vec<Cycle>,
    /// FIFO capacity of every VC, in flits.
    depth: usize,
    /// The flit slab: VC `r`'s ring is `flits[r · depth .. (r + 1) · depth]`.
    flits: Vec<Flit>,
    /// Ring slot of each VC's oldest flit, in `[0, depth)`.
    head: Vec<usize>,
    /// Flits queued per VC, in `[0, depth]`.
    len: Vec<usize>,
}

impl VcArena {
    /// Creates `n` idle VCs with FIFOs of `depth` flits.
    ///
    /// # Panics
    /// If `depth == 0`.
    pub fn new(n: usize, depth: usize) -> Self {
        assert!(depth > 0, "buffer depth must be positive");
        Self {
            tag: vec![VcTag::Idle; n],
            out_port: vec![0; n],
            out_vc: vec![0; n],
            timer: vec![0; n],
            depth,
            flits: vec![EMPTY; n * depth],
            head: vec![0; n],
            len: vec![0; n],
        }
    }

    /// Number of VCs.
    pub fn count(&self) -> usize {
        self.tag.len()
    }

    /// Slab index of VC `r`'s `i`-th oldest flit (`i < depth`).
    #[inline]
    fn at(&self, r: usize, i: usize) -> usize {
        let mut slot = self.head[r] + i;
        if slot >= self.depth {
            slot -= self.depth;
        }
        r * self.depth + slot
    }

    /// Flits queued at VC `r`.
    #[inline]
    pub fn len(&self, r: usize) -> usize {
        self.len[r]
    }

    /// Free FIFO slots at VC `r`.
    #[inline]
    pub fn space(&self, r: usize) -> usize {
        self.depth - self.len[r]
    }

    /// Appends `flit` to VC `r`'s FIFO.
    ///
    /// # Panics
    /// If the FIFO is full — flow control must prevent this; overflow is a
    /// protocol bug, not a droppable condition.
    #[inline]
    pub fn push(&mut self, r: usize, flit: Flit) {
        let len = self.len[r];
        assert!(
            len < self.depth,
            "flit buffer overflow (depth {})",
            self.depth
        );
        let k = self.at(r, len);
        self.flits[k] = flit;
        self.len[r] = len + 1;
    }

    /// The oldest flit at VC `r`, if any.
    #[inline]
    pub fn front(&self, r: usize) -> Option<&Flit> {
        (self.len[r] > 0).then(|| &self.flits[self.at(r, 0)])
    }

    /// Removes and returns the oldest flit at VC `r`.
    #[inline]
    pub fn pop(&mut self, r: usize) -> Option<Flit> {
        if self.len[r] == 0 {
            return None;
        }
        let flit = self.flits[self.at(r, 0)];
        let head = self.head[r] + 1;
        self.head[r] = if head == self.depth { 0 } else { head };
        self.len[r] -= 1;
        Some(flit)
    }

    /// Serializes VC `r`'s FIFO in the `VecDeque` encoding: the
    /// flit count, then the flits oldest first.
    pub fn save_fifo(&self, r: usize, w: &mut SnapWriter) {
        w.usize(self.len[r]);
        for i in 0..self.len[r] {
            self.flits[self.at(r, i)].save(w);
        }
    }

    /// Replaces VC `r`'s FIFO with one written by [`VcArena::save_fifo`];
    /// a count beyond the depth is a typed `Mismatch`.
    pub fn load_fifo(&mut self, r: usize, rd: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = rd.usize()?;
        if n > self.depth {
            return Err(SnapError::Mismatch(format!(
                "flit buffer holds {n} flits, depth {}",
                self.depth
            )));
        }
        self.head[r] = 0;
        self.len[r] = 0;
        for _ in 0..n {
            let flit = Flit::load(rd)?;
            self.push(r, flit);
        }
        Ok(())
    }

    /// Serializes VC `r`'s pipeline state: its tag (0–3), then the
    /// fields that tag makes valid — `Routing` its RC completion cycle,
    /// `Waiting` its routed port, `Active` its port, held output VC and
    /// first SA cycle.
    pub fn save_state(&self, r: usize, w: &mut SnapWriter) {
        w.u8(self.tag[r] as u8);
        match self.tag[r] {
            VcTag::Idle => {}
            VcTag::Routing => w.u64(self.timer[r]),
            VcTag::Waiting => w.u16(self.out_port[r]),
            VcTag::Active => {
                w.u16(self.out_port[r]);
                w.u8(self.out_vc[r]);
                w.u64(self.timer[r]);
            }
        }
    }

    /// Replaces VC `r`'s pipeline state with one written by
    /// [`VcArena::save_state`]; an unknown tag is a typed `Format` error.
    pub fn load_state(&mut self, r: usize, rd: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.tag[r] = match rd.u8()? {
            0 => VcTag::Idle,
            1 => {
                self.timer[r] = rd.u64()?;
                VcTag::Routing
            }
            2 => {
                self.out_port[r] = rd.u16()?;
                VcTag::Waiting
            }
            3 => {
                self.out_port[r] = rd.u16()?;
                self.out_vc[r] = rd.u8()?;
                self.timer[r] = rd.u64()?;
                VcTag::Active
            }
            b => return Err(SnapError::Format(format!("bad VC state tag {b:#x}"))),
        };
        Ok(())
    }

    /// Heap bytes held by the arena (for `approx_memory_bytes`).
    pub fn approx_memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.tag.capacity() * size_of::<VcTag>()
            + self.out_port.capacity() * size_of::<u16>()
            + self.out_vc.capacity()
            + self.timer.capacity() * size_of::<Cycle>()
            + self.flits.capacity() * size_of::<Flit>()
            + (self.head.capacity() + self.len.capacity()) * size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(seq: u16) -> Flit {
        Flit { seq, ..EMPTY }
    }

    fn head() -> Flit {
        Flit {
            packet: PacketId(1),
            kind: FlitKind::Head,
            dst: NodeId(3),
            ..EMPTY
        }
    }

    #[test]
    fn starts_idle_with_space() {
        let a = VcArena::new(2, 2);
        assert_eq!(a.count(), 2);
        assert_eq!(a.tag[1], VcTag::Idle);
        assert_eq!((a.len(1), a.space(1)), (0, 2));
        assert!(a.front(1).is_none());
    }

    #[test]
    fn routed_port_by_state() {
        // Every state round-trips through its snapshot bytes — the tag,
        // then that tag's fields — and a routed state carries its port.
        let mut a = VcArena::new(1, 2);
        a.push(0, head());
        for (tag, out_port, out_vc, timer) in [
            (VcTag::Waiting, 3, 0, 0),
            (VcTag::Active, 3, 1, 5),
            (VcTag::Routing, 0, 0, 2),
            (VcTag::Idle, 0, 0, 0),
        ] {
            (a.tag[0], a.out_port[0], a.out_vc[0], a.timer[0]) = (tag, out_port, out_vc, timer);
            let mut w = SnapWriter::new();
            a.save_state(0, &mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes[0], tag as u8);
            let mut b = VcArena::new(1, 2);
            b.load_state(0, &mut SnapReader::new(&bytes))
                .expect("valid tag");
            assert_eq!(b.tag[0], tag);
            assert_eq!(
                (b.out_port[0], b.out_vc[0], b.timer[0]),
                (out_port, out_vc, timer)
            );
        }
        let err = a.load_state(0, &mut SnapReader::new(&[4]));
        assert!(matches!(err, Err(SnapError::Format(_))), "{err:?}");
    }

    #[test]
    fn full_buffer_rejects() {
        let mut a = VcArena::new(1, 1);
        a.push(0, head());
        assert_eq!(a.space(0), 0);
    }

    #[test]
    fn fifo_order() {
        let mut a = VcArena::new(1, 4);
        a.push(0, flit(0));
        a.push(0, flit(1));
        assert_eq!(a.len(0), 2);
        assert_eq!(a.front(0).map(|f| f.seq), Some(0));
        assert_eq!(a.pop(0).map(|f| f.seq), Some(0));
        assert_eq!(a.pop(0).map(|f| f.seq), Some(1));
        assert!(a.pop(0).is_none());
    }

    #[test]
    fn len_and_space() {
        let mut a = VcArena::new(1, 4);
        assert_eq!(a.space(0), 4);
        a.push(0, flit(0));
        a.push(0, flit(1));
        assert_eq!((a.len(0), a.space(0)), (2, 2));
        a.push(0, flit(2));
        a.push(0, flit(3));
        assert_eq!(a.space(0), 0);
    }

    #[test]
    fn fifo_order_across_wrap_around() {
        // Three VCs side by side in one slab, driven with uneven push/pop
        // bursts so every ring wraps many times: each pops exactly the
        // sequence it was pushed, and no VC sees another's flits.
        for depth in [1, 3, 4] {
            let mut a = VcArena::new(3, depth);
            let mut pushed = [0u16; 3];
            let mut popped = [0u16; 3];
            for round in 0..200usize {
                for r in 0..3 {
                    let burst = 1 + (round + r) % depth;
                    for _ in 0..burst.min(a.space(r)) {
                        a.push(
                            r,
                            Flit {
                                packet: PacketId(r as u64),
                                ..flit(pushed[r])
                            },
                        );
                        pushed[r] += 1;
                    }
                    let drain = 1 + (round * 7 + r) % depth;
                    for _ in 0..drain.min(a.len(r)) {
                        let f = a.pop(r).expect("counted");
                        assert_eq!((f.packet, f.seq), (PacketId(r as u64), popped[r]));
                        popped[r] += 1;
                    }
                    assert_eq!(a.len(r), (pushed[r] - popped[r]) as usize);
                }
            }
            assert!(
                popped.iter().all(|&p| p as usize > 10 * depth),
                "every ring wrapped"
            );
        }
    }

    #[test]
    fn snapshot_round_trips_a_wrapped_ring() {
        let mut a = VcArena::new(2, 3);
        for seq in 0..3 {
            a.push(1, flit(seq));
        }
        a.pop(1);
        a.pop(1);
        a.push(1, flit(3));
        a.push(1, flit(4)); // ring now holds 2, 3, 4 starting at slot 2
        let mut w = SnapWriter::new();
        a.save_fifo(1, &mut w);
        let bytes = w.into_bytes();
        // The `VecDeque` encoding: count, then the flits oldest first.
        let as_deque = std::collections::VecDeque::<Flit>::load(&mut SnapReader::new(&bytes));
        let seqs: Vec<u16> = as_deque
            .expect("deque encoding")
            .iter()
            .map(|f| f.seq)
            .collect();
        assert_eq!(seqs, [2, 3, 4]);
        let mut b = VcArena::new(2, 3);
        b.load_fifo(1, &mut SnapReader::new(&bytes)).expect("fits");
        for seq in 2..5 {
            assert_eq!(b.pop(1).map(|f| f.seq), Some(seq));
        }
        assert_eq!(b.len(0), 0);
    }

    #[test]
    fn over_depth_snapshot_is_a_mismatch() {
        let mut w = SnapWriter::new();
        let deque: std::collections::VecDeque<_> = (0..3).map(flit).collect();
        deque.save(&mut w);
        let bytes = w.into_bytes();
        let mut a = VcArena::new(1, 2);
        let err = a.load_fifo(0, &mut SnapReader::new(&bytes));
        assert!(matches!(err, Err(SnapError::Mismatch(_))), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut a = VcArena::new(1, 1);
        a.push(0, flit(0));
        a.push(0, flit(1));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_depth_rejected() {
        VcArena::new(1, 0);
    }
}
