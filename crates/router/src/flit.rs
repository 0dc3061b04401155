//! Flits: the flow-control units packets are split into.
//!
//! "Each packet, consisting of several fixed-size units called flits ...
//! progress\[es\] through various stages in the router" (§2.1). The paper's
//! default is 64-byte packets = 8 flits of 8 bytes.

use desim::Cycle;

/// A node's global identifier (0 .. B·D-1 in an R(1,B,D) system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A packet's unique identifier within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit; carries the route header.
    Head,
    /// Interior flit.
    Body,
    /// Last flit; releases the virtual channel.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// True for `Head` and `HeadTail`.
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for `Tail` and `HeadTail`.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Destination node of the packet.
    pub dst: NodeId,
    /// Cycle the packet was injected at the source NI.
    pub injected_at: Cycle,
    /// Whether this packet is labelled for measurement.
    pub labelled: bool,
    /// Flit sequence number within the packet (head = 0).
    pub seq: u16,
}

// A flit is 24 bytes; a field added later cannot silently regrow every
// router slab slot.
const _: () = assert!(std::mem::size_of::<Flit>() == 24);

use desim::snap::{Snap, SnapError, SnapReader, SnapWriter};

impl Snap for FlitKind {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            FlitKind::Head => 0,
            FlitKind::Body => 1,
            FlitKind::Tail => 2,
            FlitKind::HeadTail => 3,
        });
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => FlitKind::Head,
            1 => FlitKind::Body,
            2 => FlitKind::Tail,
            3 => FlitKind::HeadTail,
            b => return Err(SnapError::Format(format!("bad flit kind {b:#x}"))),
        })
    }
}

impl Snap for Flit {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.packet.0);
        self.kind.save(w);
        w.u32(self.dst.0);
        w.u64(self.injected_at);
        w.bool(self.labelled);
        w.u16(self.seq);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Self {
            packet: PacketId(r.u64()?),
            kind: FlitKind::load(r)?,
            dst: NodeId(r.u32()?),
            injected_at: r.u64()?,
            labelled: r.bool()?,
            seq: r.u16()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        assert!(FlitKind::HeadTail.is_head());
        assert!(FlitKind::HeadTail.is_tail());
    }

    #[test]
    fn node_display() {
        assert_eq!(NodeId(5).to_string(), "n5");
        assert_eq!(NodeId(5).index(), 5);
    }
}
