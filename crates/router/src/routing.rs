//! Output-port lookup (the RC pipeline stage's computation).
//!
//! The IBI is a single router per board, so routing reduces to a table
//! lookup from destination node to output port. The table form also serves
//! the bench harness's synthetic single-router experiments.

use crate::flit::NodeId;

/// A router port index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u16);

impl PortId {
    /// Numeric index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Maps a packet's destination to an output port of this router.
pub trait RouteFunction {
    /// The output port for a packet heading to `dst`.
    fn route(&self, dst: NodeId) -> PortId;
}

/// A dense lookup table: `table[dst.index()] = port`.
#[derive(Debug, Clone)]
pub struct TableRoute {
    table: Vec<PortId>,
}

impl TableRoute {
    /// Builds a table covering destinations `0..table.len()`.
    pub fn new(table: Vec<PortId>) -> Self {
        assert!(!table.is_empty());
        Self { table }
    }

    /// Number of destinations covered.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Never true after construction.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl RouteFunction for TableRoute {
    fn route(&self, dst: NodeId) -> PortId {
        self.table[dst.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lookup() {
        let t = TableRoute::new(vec![PortId(0), PortId(3), PortId(1)]);
        assert_eq!(t.route(NodeId(0)), PortId(0));
        assert_eq!(t.route(NodeId(1)), PortId(3));
        assert_eq!(t.route(NodeId(2)), PortId(1));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn port_display() {
        assert_eq!(PortId(2).to_string(), "p2");
        assert_eq!(PortId(2).index(), 2);
    }

    #[test]
    #[should_panic]
    fn out_of_range_destination_panics() {
        let t = TableRoute::new(vec![PortId(0)]);
        t.route(NodeId(5));
    }
}
