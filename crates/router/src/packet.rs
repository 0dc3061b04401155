//! Packets and the packetizer.

use crate::flit::{Flit, FlitKind, NodeId, PacketId};
use desim::Cycle;

/// A packet descriptor: the literal a caller hands
/// [`crate::FlitInjector::enqueue`]. The injector converts it to a
/// [`QueuedPacket`], which drops `src`, and queues that coded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Unique id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Number of flits (paper default: 8 flits = 64 bytes).
    pub flits: u16,
    /// Injection cycle at the source NI.
    pub injected_at: Cycle,
    /// Labelled for measurement.
    pub labelled: bool,
}

/// A packet waiting at an injector: everything its flits carry, and no
/// source, which nothing past the NI reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedPacket {
    /// Unique id.
    pub id: PacketId,
    /// Injection cycle at the source NI.
    pub injected_at: Cycle,
    /// Destination node.
    pub dst: NodeId,
    /// Number of flits (paper default: 8 flits = 64 bytes).
    pub flits: u16,
    /// Labelled for measurement.
    pub labelled: bool,
}

// Every injector holds one as its in-progress packet, and its flits copy
// these fields: a field added later cannot silently regrow either.
const _: () = assert!(std::mem::size_of::<QueuedPacket>() == 24);

impl From<Packet> for QueuedPacket {
    fn from(p: Packet) -> Self {
        Self {
            id: p.id,
            injected_at: p.injected_at,
            dst: p.dst,
            flits: p.flits,
            labelled: p.labelled,
        }
    }
}

impl QueuedPacket {
    /// The `i`-th flit of the packet, computed on demand (the injectors
    /// stream flits without materialising the whole sequence).
    ///
    /// # Panics
    /// If `i >= self.flits` or the packet has no flits.
    pub fn flit_at(&self, i: u16) -> Flit {
        assert!(self.flits >= 1);
        assert!(i < self.flits);
        let kind = match (self.flits, i) {
            (1, _) => FlitKind::HeadTail,
            (_, 0) => FlitKind::Head,
            (n, i) if i == n - 1 => FlitKind::Tail,
            _ => FlitKind::Body,
        };
        Flit {
            packet: self.id,
            kind,
            dst: self.dst,
            injected_at: self.injected_at,
            labelled: self.labelled,
            seq: i,
        }
    }

    /// Splits the packet into its flit sequence (a test helper: the
    /// engine emits one flit at a time through [`QueuedPacket::flit_at`]).
    #[cfg(test)]
    pub(crate) fn flitize(&self) -> Vec<Flit> {
        assert!(self.flits >= 1);
        (0..self.flits).map(|i| self.flit_at(i)).collect()
    }
}

impl desim::snap::Snap for QueuedPacket {
    fn save(&self, w: &mut desim::snap::SnapWriter) {
        w.u64(self.id.0);
        w.u32(self.dst.0);
        w.u16(self.flits);
        w.u64(self.injected_at);
        w.bool(self.labelled);
    }
    fn load(r: &mut desim::snap::SnapReader<'_>) -> Result<Self, desim::snap::SnapError> {
        Ok(Self {
            id: PacketId(r.u64()?),
            dst: NodeId(r.u32()?),
            flits: r.u16()?,
            injected_at: r.u64()?,
            labelled: r.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flits: u16) -> QueuedPacket {
        QueuedPacket::from(Packet {
            id: PacketId(7),
            src: NodeId(1),
            dst: NodeId(2),
            flits,
            injected_at: 100,
            labelled: true,
        })
    }

    #[test]
    fn eight_flit_packet_structure() {
        let flits = pkt(8).flitize();
        assert_eq!(flits.len(), 8);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert!(flits[1..7].iter().all(|f| f.kind == FlitKind::Body));
        assert_eq!(flits[7].kind, FlitKind::Tail);
        assert!(flits.iter().all(|f| f.packet == PacketId(7)));
        assert!(flits
            .iter()
            .all(|f| f.labelled && f.dst == NodeId(2) && f.injected_at == 100));
        assert_eq!(
            flits.iter().map(|f| f.seq).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let flits = pkt(1).flitize();
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
    }

    #[test]
    fn two_flit_packet_has_no_body() {
        let flits = pkt(2).flitize();
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Tail);
    }
}
