//! Per-input virtual-channel state machines and their flit FIFOs.
//!
//! Flits from different nodes interleave in the electrical domain through
//! virtual channels (§2.1). Each input VC owns a flit FIFO and walks the
//! per-packet pipeline: Idle → Routing (RC) → WaitingVc (VA) → Active
//! (SA/ST per flit) → Idle on tail traversal.
//!
//! Two representations coexist:
//!
//! * [`VcState`] — the enum form, which defines the snapshot byte format
//!   (tags 0–3) and is what checkpoints serialize;
//! * [`VcArena`] — a struct-of-arrays arena holding the same state as
//!   parallel flat vectors indexed by requester id `r = in_port · V + in_vc`,
//!   which is what the router's VA/SA/ST passes actually walk. The arena's
//!   [`VcArena::state`]/[`VcArena::set_state`] bridge to the enum form so
//!   snapshots stay byte-identical to the pre-arena layout.
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
use crate::routing::PortId;
use desim::snap::{Snap, SnapError, SnapReader, SnapWriter};
use desim::Cycle;

/// Pipeline state of one input VC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcState {
    /// No packet in flight.
    Idle,
    /// Route computation in progress; completes at the stored cycle.
    Routing {
        /// Cycle at which RC completes.
        done_at: Cycle,
    },
    /// Route known; requesting an output VC each cycle.
    WaitingVc {
        /// Output port the packet will use.
        out_port: PortId,
    },
    /// Output VC held; flits bid for the switch. Bidding allowed from
    /// `active_at` (VA took one cycle).
    Active {
        /// Output port the packet uses.
        out_port: PortId,
        /// Output VC index held.
        out_vc: u8,
        /// First cycle the VC may bid in SA.
        active_at: Cycle,
    },
}

/// Discriminant of [`VcState`], stored one byte per VC in the arena.
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
    src: NodeId(0),
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

    /// Reassembles the enum view of VC `r` (snapshot bridge).
    pub fn state(&self, r: usize) -> VcState {
        match self.tag[r] {
            VcTag::Idle => VcState::Idle,
            VcTag::Routing => VcState::Routing {
                done_at: self.timer[r],
            },
            VcTag::Waiting => VcState::WaitingVc {
                out_port: PortId(self.out_port[r]),
            },
            VcTag::Active => VcState::Active {
                out_port: PortId(self.out_port[r]),
                out_vc: self.out_vc[r],
                active_at: self.timer[r],
            },
        }
    }

    /// Scatters an enum state into the arrays for VC `r` (snapshot bridge).
    pub fn set_state(&mut self, r: usize, s: VcState) {
        match s {
            VcState::Idle => self.tag[r] = VcTag::Idle,
            VcState::Routing { done_at } => {
                self.tag[r] = VcTag::Routing;
                self.timer[r] = done_at;
            }
            VcState::WaitingVc { out_port } => {
                self.tag[r] = VcTag::Waiting;
                self.out_port[r] = out_port.0;
            }
            VcState::Active {
                out_port,
                out_vc,
                active_at,
            } => {
                self.tag[r] = VcTag::Active;
                self.out_port[r] = out_port.0;
                self.out_vc[r] = out_vc;
                self.timer[r] = active_at;
            }
        }
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

impl Snap for VcState {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            VcState::Idle => w.u8(0),
            VcState::Routing { done_at } => {
                w.u8(1);
                w.u64(*done_at);
            }
            VcState::WaitingVc { out_port } => {
                w.u8(2);
                w.u16(out_port.0);
            }
            VcState::Active {
                out_port,
                out_vc,
                active_at,
            } => {
                w.u8(3);
                w.u16(out_port.0);
                w.u8(*out_vc);
                w.u64(*active_at);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => VcState::Idle,
            1 => VcState::Routing { done_at: r.u64()? },
            2 => VcState::WaitingVc {
                out_port: PortId(r.u16()?),
            },
            3 => VcState::Active {
                out_port: PortId(r.u16()?),
                out_vc: r.u8()?,
                active_at: r.u64()?,
            },
            b => return Err(SnapError::Format(format!("bad VC state tag {b:#x}"))),
        })
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
        assert_eq!(a.state(1), VcState::Idle);
        assert_eq!((a.len(1), a.space(1)), (0, 2));
        assert!(a.front(1).is_none());
    }

    #[test]
    fn routed_port_by_state() {
        // The snapshot bridge: every enum state scatters into the arrays
        // and reassembles unchanged; a routed state carries its port.
        let mut a = VcArena::new(1, 2);
        a.push(0, head());
        for s in [
            VcState::WaitingVc {
                out_port: PortId(3),
            },
            VcState::Active {
                out_port: PortId(3),
                out_vc: 1,
                active_at: 5,
            },
            VcState::Routing { done_at: 2 },
            VcState::Idle,
        ] {
            a.set_state(0, s);
            assert_eq!(a.state(0), s);
            if matches!(s, VcState::WaitingVc { .. } | VcState::Active { .. }) {
                assert_eq!(a.out_port[0], 3);
            }
        }
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
                                src: NodeId(r as u32),
                                ..flit(pushed[r])
                            },
                        );
                        pushed[r] += 1;
                    }
                    let drain = 1 + (round * 7 + r) % depth;
                    for _ in 0..drain.min(a.len(r)) {
                        let f = a.pop(r).expect("counted");
                        assert_eq!((f.src, f.seq), (NodeId(r as u32), popped[r]));
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
